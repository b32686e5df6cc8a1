"""The public names: every ``__all__`` entry exists, and every name the
package re-exports is the object of the module that defines it."""

import inspect

import pytest

import plasma_kernel
from plasma_kernel import finite_n, limits, sampler, special

MODULES = (special, finite_n, limits, sampler)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__.rsplit(".", 1)[1])
def test_all_names_exist(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_package_reexports_resolve():
    # every public name of the package is one of its modules' own names
    exported = {name: obj for name, obj in vars(plasma_kernel).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported
    for name, obj in exported.items():
        owners = [m for m in MODULES if getattr(m, name, None) is obj]
        assert owners, name
        # constants need not be in __all__; functions and classes must be
        if callable(obj):
            assert any(name in m.__all__ for m in owners), name
