"""Spans around the calls into circlab's public functions, installed from outside.

``Tracer.install`` replaces each traced function at every place a caller
looks it up: the defining module's attribute (reached as ``det.*``,
``mod.*``, ``th.*``, ``sf.*``) and every name another circlab module bound
with ``from .x import f`` (``detectors.arc_prob``, ``theory.log_bessel_i0``
and the like). ``specfun._log_i0`` is traced only where other modules call
it, the array use in ``lab``; specfun's own scalar calls stay untraced.

Each span records its name, start, end, parent and thread id. Parents come
from a per-thread stack, so pool threads (comm-exact at threads=2) start
their own roots and their time is not subtracted from the harness. A span's
self time is its duration minus the time its children cover. Spans stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
import types

LAYERS = ("models", "detectors", "specfun", "theory", "lab", "cli")

DETECTOR_TESTS = ("interval_test_flat", "known_theta_test_flat",
                  "interval_test_community", "coherence_test",
                  "variance_test", "rayleigh_test")

# Per-call costs at fixed sizes (inclusive time per call, in microseconds).
MICRO_COSTS = (
    ("models.rng_for", None),
    ("detectors.interval_test_flat", "N2000"),
    ("detectors.interval_test_community", "n16k5"),
    ("detectors.coherence_test", "n16k8"),
    ("detectors.variance_test", "n10k6"),
)


def span_targets() -> dict:
    """Span name -> the (module, function name) pairs it covers.

    ``theory.bounds`` aggregates every ``*_bounds`` function and
    ``theory.second_moment_exact`` the four ``second_moment_exact_*``.
    """
    from circlab import cli, detectors, lab, models, specfun, theory

    targets = {
        **{f"models.{f}": [(models, f)] for f in
           ("rng_for", "gen_flat", "gen_community", "read_dataset")},
        **{f"detectors.{f}": [(detectors, f)] for f in
           DETECTOR_TESTS + ("resolve_flat_threshold", "subset_edge_table")},
        **{f"specfun.{f}": [(specfun, f)] for f in
           ("arc_prob", "mean_resultant", "log_bessel_i0", "_log_i0")},
        "theory.regime_classify": [(theory, "regime_classify")],
        "theory.impossibility_functionals": [(theory, "impossibility_functionals")],
        "theory.bounds": [(theory, f) for f in sorted(vars(theory))
                          if f.endswith("_bounds") and callable(getattr(theory, f))],
        "theory.second_moment_exact": [
            (theory, f) for f in sorted(vars(theory))
            if f.startswith("second_moment_exact_")],
        **{f"lab.{f}": [(lab, f)] for f in
           ("estimate_errors", "phase_diagram", "empirical_second_moment",
            "write_csv")},
        "cli.main": [(cli, "main")],
    }
    return targets


# Functions traced only at call sites outside their own module.
_EXTERNAL_ONLY = {"_log_i0"}


def _size_tag(args, kwargs) -> str:
    """'N<points>' for a flat sample, 'n<vertices>k<k>' for an edge sample."""
    sample = args[0] if args else kwargs.get("sample")
    if hasattr(sample, "n_points"):
        return f"N{sample.n_points}"
    k = args[1] if len(args) > 1 else kwargs.get("k")
    return f"n{getattr(sample, 'n', '?')}k{k}"


class _ModuleView(types.ModuleType):
    """A module seen through overrides; every other attribute is the module's."""

    def __init__(self, module, overrides: dict):
        super().__init__(module.__name__, module.__doc__)
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []   # (id, name, start, end, parent, thread, self_s, work, size)
        self._local = threading.local()
        self._ids = itertools.count()
        self._restore: list = []
        self.caches: dict = {}  # span name -> lru_cache'd original

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work: bool = False, size: bool = False):
        tracer, spans, ids = self, self.spans, self._ids
        perf_counter, get_ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else -1
            frame = [next(ids), 0.0]
            tag = _size_tag(args, kwargs) if size else None
            stack.append(frame)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                spans.append((frame[0], name, t0, t1, parent, get_ident(),
                              dur - frame[1],
                              getattr(result, "work_counter", 0) if work else 0,
                              tag))
        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded circlab modules."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("circlab.") and m is not None]
        for name, targets in span_targets().items():
            short = name.rsplit(".", 1)[1]
            for home, fname in targets:
                fn = getattr(home, fname)
                if hasattr(fn, "cache_info"):
                    self.caches[name] = fn
                wrapper = self.wrap(name, fn, work=short in DETECTOR_TESTS,
                                    size=short in DETECTOR_TESTS)
                external = fname in _EXTERNAL_ONLY
                for module in modules:
                    if external and module is home:
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._set(module, attr, wrapper)
                if external:
                    for module in modules:
                        if module is home:
                            continue
                        for attr, value in list(vars(module).items()):
                            if value is home:
                                self._set(module, attr,
                                          _ModuleView(home, {fname: wrapper}))

    def _set(self, module, attr, value) -> None:
        self._restore.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            module, attr, value = self._restore.pop()
            setattr(module, attr, value)

    def write(self, path: str) -> None:
        """JSONL: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent",
                                 "thread"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span[:6]) + "\n")


def layer_metrics(spans: list, passes: int, cache_stats: dict) -> dict:
    """Per-layer figures per traced pass, from the spans of ``passes`` passes.

    ``<module>.calls`` / ``<module>.self_s`` sum the module's traced functions.
    ``cache_stats`` maps a span name to the summed (hits, misses) of its
    ``lru_cache``; the hit ratio reads 0 while ``subset_edge_table`` has none.
    """
    calls: dict = {}
    self_s: dict = {}
    work: dict = {}
    sized: dict = {}
    for _, name, t0, t1, _, _, own, w, tag in spans:
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        work[name] = work.get(name, 0) + w
        n, total = sized.get((name, tag), (0, 0.0))
        sized[(name, tag)] = (n + 1, total + (t1 - t0))
    out: dict = {}
    for module in LAYERS:
        names = [n for n in calls if n.split(".", 1)[0] == module]
        out[f"{module}.calls"] = (sum(calls[n] for n in names) / passes, "count")
        out[f"{module}.self_s"] = (sum(self_s[n] for n in names) / passes, "s")
    for name in span_targets():
        out[f"{name}.calls"] = (calls.get(name, 0) / passes, "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0) / passes, "s")
    for test in DETECTOR_TESTS:
        out[f"detectors.{test}.work"] = (work.get(f"detectors.{test}", 0) / passes,
                                         "count")
    hits, misses = cache_stats.get("detectors.subset_edge_table", (0, 0))
    out["detectors.subset_edge_table.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for name, tag in MICRO_COSTS:
        n, total = sized.get((name, tag), (0, 0.0))
        label = name if tag is None else f"{name}.{tag}"
        out[f"{label}.us_per_call"] = (1e6 * total / n if n else 0.0, "us")
    return out
