"""Span recorder for the traced benchmark run.

The program has no tracing of its own, so the recorder wraps the public
functions of its modules from outside.  A wrapped call records one span:
name, layer, start, end, parent span and request id, plus a work count
(points for ``special`` and the inverse CDF, trials for a sampler profile).
Spans stay in memory; :meth:`Tracer.dump` writes them once, at the end.

The modules import names from each other (``from .special import ...``), so
each function is wrapped in the module that defines it *and* in every module
that holds the same object under the same name; :meth:`Tracer.restore` puts
the originals back.
"""

from __future__ import annotations

import inspect
import json
import threading
import time

import numpy as np

# per-layer groups: (metric prefix, layer, function names); a group's
# calls are its outermost spans, so plasma_F -> erfc_cpx counts once
GROUPS = (
    ("limits.cauchy", "limits", {"cauchy_transform"}),
    ("limits.ward_point", "limits", {"ward_point_residual", "ward_residual"}),
    ("limits.mass_one", "limits", {"mass_one_residual", "polarized_mass_one_residual"}),
    ("limits.kernel", "limits", {"limit_kernel", "one_point", "berezin"}),
    ("limits.gram", "limits", {"gram_min_eig"}),
    ("special.erfc", "special", {"erfc_cpx", "erfcx_cpx", "plasma_F", "plasma_F_scaled",
                                 "conv_indicator", "conv_indicator_scaled"}),
    ("special.H", "special", {"hard_edge_H", "hard_edge_H_scaled"}),
    ("special.ml", "special", {"mittag_leffler_M", "mittag_leffler_kernel_eval"}),
    ("finite_n.kernel", "finite_n", {"kernel_finite_n", "rescaled_kernel"}),
    ("finite_n.exp_section", "finite_n", {"exp_section"}),
    ("sampler.profile", "sampler", {"boundary_profile", "bulk_singularity_profile"}),
    ("sampler.invert", "invert", {"gammaincinv"}),
)

LAYERS = ("cli", "limits", "special", "finite_n", "sampler")

# span record fields
NAME, LAYER, START, END, PARENT, REQUEST, WORK, CHILD = range(8)


def _points(args):
    return int(np.size(args[0])) if args else 1


def _trials(args):
    return int(getattr(args[0], "trials", 1)) if args else 1


class Tracer:
    """Wraps functions so each call records a span while :attr:`enabled`."""

    def __init__(self):
        self.spans = []
        self.request = None
        self.enabled = False
        self._local = threading.local()
        self._patched = []  # (namespace, name, original)

    def _wrap(self, name, layer, fn, work):
        spans, local, clock = self.spans, self._local, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            rec = [name, layer, 0.0, 0.0, parent, self.request,
                   work(args) if work else 0, 0.0]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent is not None:
                    parent[CHILD] += rec[END] - rec[START]

        return wrapper

    def install(self, modules: dict, extra=()):
        """Wrap the public functions of ``modules`` ({layer: module}).

        ``extra`` holds ``(module, attribute, layer)`` triples for foreign
        callables (such as a scipy ufunc) to wrap in that module only.
        """
        wrappers = {}  # id(original) -> wrapper
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    work = _points if layer == "special" else (
                        _trials if layer == "sampler" else None)
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", layer, obj, work)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patch(mod, name, wrappers[id(obj)])
        for mod, name, layer in extra:
            obj = getattr(mod, name)
            self._patch(mod, name, self._wrap(f"{layer}.{name}", layer, obj, _points))

    def _patch(self, mod, name, new):
        self._patched.append((mod, name, getattr(mod, name)))
        setattr(mod, name, new)

    def restore(self):
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)
        self._patched.clear()

    def dump(self, path: str, meta: dict) -> None:
        """Write every span once, with parents as indices into the list."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            [rec[NAME], rec[REQUEST], rec[START], rec[END],
             index[id(rec[PARENT])] if rec[PARENT] is not None else -1, rec[WORK]]
            for rec in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["name", "request", "start", "end", "parent", "work"],
                       "spans": rows}, fh, separators=(",", ":"))
            fh.write("\n")


def _inside(rec, pred) -> bool:
    """Whether some ancestor of ``rec`` satisfies ``pred``."""
    p = rec[PARENT]
    while p is not None:
        if pred(p):
            return True
        p = p[PARENT]
    return False


def _group(spans, layer, names):
    """(calls, seconds, work) over the outermost spans of a function group."""
    qual = {f"{layer}.{n}" for n in names}
    top = [rec for rec in spans
           if rec[NAME] in qual and not _inside(rec, lambda p: p[NAME] in qual)]
    return (len(top), sum(rec[END] - rec[START] for rec in top),
            sum(rec[WORK] for rec in top))


def layer_metrics(spans) -> dict:
    """Per-layer counts and times (seconds) from a list of span records."""
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            rec[END] - rec[START] - rec[CHILD] for rec in spans if rec[LAYER] == layer)
    groups = {prefix: _group(spans, layer, names) for prefix, layer, names in GROUPS}
    for prefix, (calls, secs, work) in groups.items():
        if not prefix.startswith("sampler."):
            m[f"{prefix}.calls"] = calls
            m[f"{prefix}.s"] = secs
    for prefix in ("special.erfc", "special.H"):
        _, secs, points = groups[prefix]
        m[f"{prefix}.points"] = points
        m[f"{prefix}.points_per_s"] = points / secs if secs > 0 else 0.0
    special_top = [rec for rec in spans if rec[LAYER] == "special"
                   and not _inside(rec, lambda p: p[LAYER] == "special")]
    m["special.points_per_call"] = (
        sum(rec[WORK] for rec in special_top) / len(special_top) if special_top else 0.0)
    calls, secs, _ = groups["finite_n.kernel"]
    m["finite_n.kernel.us_per_call"] = 1e6 * secs / calls if calls else 0.0
    _, profile_s, trials = groups["sampler.profile"]
    _, inv_s, inv_points = groups["sampler.invert"]
    m["sampler.trials"] = trials
    m["sampler.ms_per_trial"] = 1e3 * profile_s / trials if trials else 0.0
    m["sampler.invert.points"] = inv_points
    m["sampler.invert.points_per_trial"] = inv_points / trials if trials else 0.0
    m["sampler.invert.s"] = inv_s
    return m
