"""Correlation kernels of random normal matrix ensembles.

Finite-n kernels for radially symmetric potentials, their boundary /
bulk-singularity scaling limits (plasma-function, hard-edge, and
Mittag-Leffler kernels), and the verification machinery around them:
Ward's equation, the mass-one identities, positivity, tail bounds, and a
seeded Monte Carlo sampler — all exposed through one batch CLI.
"""

__version__ = "0.1.0"

from .special import (  # noqa: F401
    HERMITE_MAX_DEGREE,
    NumericError,
    QuadratureNotConverged,
    SeriesNotConverged,
    gauss_gamma,
    hard_edge_H,
    hermite_prob,
    hermite_scaled,
    mittag_leffler_kernel_eval,
    plasma_F,
)
from .finite_n import (  # noqa: F401
    KERNEL_MAX_N,
    Potential,
    RescaleFrame,
    droplet_radius,
    exp_section,
    kernel_finite_n,
    rescaled_kernel,
)
from .limits import (  # noqa: F401
    LimitKernelSpec,
    NonHermitianInput,
    QuadratureConfig,
    ZeroIntensity,
    berezin,
    cauchy_transform,
    conditional_intensity,
    eighth_formula,
    gram_min_eig,
    hermite_identity_residual,
    inequality_suite,
    laplacian_log_R,
    limit_kernel,
    mass_one_residual,
    mass_one_series_residual,
    one_point,
    polarized_mass_one_residual,
    tail_bounds_report,
    telescoping_sum,
    ward_point_residual,
    ward_residual,
)
from .sampler import (  # noqa: F401
    BudgetExceeded,
    InversionCheckFailed,
    Histogram1D,
    SampleConfig,
    radial_profile,
)
