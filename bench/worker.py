"""One fresh worker process per benchmark run; started by ``run.py``.

Set-up (interpreter start, ``import circlab``, writing the workload's config
and dataset files) is timed from ``--t0``, a ``time.monotonic()`` reading
the parent takes just before it starts this process. The worker then repeats
passes for ``--seconds`` and prints one JSON line with the raw figures.

Before every pass the library's ``functools`` caches are cleared, so each
pass pays what one ``circlab`` command pays in a fresh process (the subset
tables above all). After every pass ``calibration_kernel`` is timed; ``run.py``
scales the pass times by it.

With ``--trace 1`` untraced and traced passes alternate; the traced passes
give the per-layer figures and the difference of the two medians is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def calibration_kernel() -> float:
    """Fixed work independent of circlab, timed after every pass.

    A mix like circlab's own: numpy calls on a 2000-element array, dict and
    loop work in the interpreter, scalar math. Its time tracks how fast the
    host runs Python at the moment.
    """
    import numpy as np

    x = np.random.default_rng(12345).random(2000)
    acc = 0.0
    for i in range(600):
        y = np.sort(x + i)
        acc += float(np.searchsorted(y, y[::50] + 0.01).sum())
    counts: dict = {}
    for i in range(120_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for i in range(20_000):
        acc += math.exp(-i * 1e-3) * math.cos(i)
    return acc


def _library_caches() -> list:
    seen, caches = set(), []
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("circlab.") or module is None:
            continue
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and id(value) not in seen \
                    and getattr(value, "__module__", "").startswith("circlab"):
                seen.add(id(value))
                caches.append(value)
    return caches


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--threads", type=int)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--reference", action="store_true",
                    help="run one pass and print its outputs for reference.json")
    ap.add_argument("--spans", help="write the traced spans here (JSONL)")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy

    import workloads as wl

    threads = args.threads if args.threads is not None \
        else wl.workload_threads(args.workload)
    workload = wl.Workload(args.workload, args.seed, args.workdir, args.smoke,
                           threads)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    errors: list = []

    def on_error(text: str) -> None:
        if len(errors) < 3:
            print(text, file=sys.stderr)
        errors.append(text)

    caches = _library_caches()

    def run_pass(tracer=None):
        for cache in caches:
            cache.cache_clear()
        if tracer is None:
            return workload.run_pass(on_error), {}
        tracer.install()
        try:
            result = workload.run_pass(on_error)
        finally:
            tracer.uninstall()
        stats = {name: (fn.cache_info().hits, fn.cache_info().misses)
                 for name, fn in tracer.caches.items()}
        return result, stats

    if args.reference:
        result, _ = run_pass()
        print(json.dumps({"reference": workload.reference_outputs(result),
                          "errors": len(errors)}))
        return 0

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload + (":smoke" if args.smoke else "")]

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    pass_seconds, traced_seconds, call_seconds, calibration = [], [], [], []
    attempted = failed = 0
    messages: list = []
    cache_stats: dict = {}
    start = time.perf_counter()
    while True:
        result, _ = run_pass()
        pass_seconds.append(result.seconds)
        call_seconds.extend(result.call_seconds)
        t0 = time.perf_counter()
        calibration_kernel()
        calibration.append(time.perf_counter() - t0)
        checks = [workload.check(result, reference)]
        if tracer is not None:
            traced, stats = run_pass(tracer)
            traced_seconds.append(traced.seconds)
            checks.append(workload.check(traced, reference))
            for name, (hits, misses) in stats.items():
                h, m = cache_stats.get(name, (0, 0))
                cache_stats[name] = (h + hits, m + misses)
        for check in checks:
            attempted += check.attempted
            failed += check.failed
            messages.extend(check.messages[:20 - len(messages)])
        if time.perf_counter() - start >= args.seconds:
            break

    out = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "draws_per_pass": workload.draws_per_pass,
        "pass_seconds": pass_seconds,
        "call_seconds": call_seconds,
        "calibration_seconds": calibration,
        "attempted": attempted,
        "failed": failed,
        "messages": messages,
        "exceptions": len(errors),
        "threads": threads,
        "env": {"nproc": wl.nproc(), "python": platform.python_version(),
                "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        out["traced_pass_seconds"] = traced_seconds
        out["layers"] = tracing.layer_metrics(
            tracer.spans, len(traced_seconds), cache_stats)
        out["trace_overhead_s"] = (statistics.median(traced_seconds)
                                   - statistics.median(pass_seconds))
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
