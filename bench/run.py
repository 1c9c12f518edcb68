"""circlab benchmark: four workloads, end-to-end metrics, and a traced run.

    python3 bench/run.py --workload flat-scan --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``flat-scan``, ``comm-exact``,
``analytics``, ``detect-files``. Each run starts one fresh worker process
for the measurement plus two workers that only set up (``--smoke``: none),
and prints every metric by name with its unit. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; ``failed / attempted`` is the failed fraction.

End-to-end metrics (``--trace 0``):

* ``trials_per_s``: Monte Carlo draws (H0 + H1 detector trials, plus the
  likelihood-ratio draws of ``empirical_second_moment``) per second of a
  pass, at the draw count the workload fixes; on ``detect-files`` one
  ``detect`` call is one trial. Total draws over total pass time: a mean,
  which moves smoothly when the host's speed switches between two levels,
  where a median jumps.
* ``latency_ms_p50`` / ``latency_ms_p90``: latency of the workload's unit of
  work: one in-process ``circlab detect`` call on ``detect-files`` (198 per
  pass, thousands per run), one whole pass (every sweep / phase diagram at
  its stated trial count) on the Monte Carlo workloads.
* ``setup_s``: median over the set-up samples of worker start to first
  timed operation (interpreter, ``import circlab``, input files).
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring worker.

Pass and call times are calibrated to a reference host speed: after every
pass the worker times ``worker.calibration_kernel`` (fixed numpy and
interpreter work, no circlab), and every pass and call time is multiplied by
``CAL_REF_S`` over the run's mean kernel time. The shared host's speed
drifts by up to 2x over minutes (2 vCPUs, Xeon at 2.1 GHz); over ten seeds
per workload the calibrated spreads were 0.03-0.17 of the median against
0.11-0.37 raw (comm-exact, two threads, gains least). The uncalibrated
figures are printed as ``raw <metric>`` lines.
``setup_s`` and ``peak_rss_mb`` are not scaled.

``--trace 1`` reports the per-layer figures of ``tracing.py`` instead (per
traced pass), the ROADMAP micro-costs in microseconds per call, and
``trace.overhead_s``. The spans are written to ``.bench_work/spans/``.

``--smoke`` runs the same code at tiny trial counts; ``--write-reference``
regenerates ``reference.json`` (one pass per workload at the default seed,
threads=1). Nothing here changes ``src/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads as wl  # noqa: E402

TIME_LIMIT_S = 170.0
SETUP_SAMPLES = 3
CAL_REF_S = 0.03           # kernel time of the reference host
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def percentile(values: list, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "circlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the repository rooted here; None in a plain source checkout."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


class WorkerError(RuntimeError):
    pass


def run_worker(argv: list, workdir: str, deadline: float) -> dict:
    """Start a worker, wait for it, return its JSON line."""
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, **WORKER_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("no time left for a worker")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv,
           "--t0", repr(t0), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:   # run() has killed and reaped it
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(name: str, res: dict, setup: list, scale: float = 1.0) -> dict:
    """End-to-end metrics, pass and call times multiplied by ``scale``."""
    passes = [t * scale for t in res["pass_seconds"]]
    per_op = [t * scale for t in (res["call_seconds"] if name == "detect-files"
                                  else res["pass_seconds"])]
    return {
        "trials_per_s": (res["draws_per_pass"] * len(passes) / sum(passes),
                         "trials/s"),
        "latency_ms_p50": (1e3 * percentile(per_op, 50), "ms"),
        "latency_ms_p90": (1e3 * percentile(per_op, 90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def write_reference() -> None:
    reference = {}
    for name in wl.WORKLOADS:
        for smoke in (False, True):
            workdir = os.path.join(ROOT, ".bench_work", f"reference-{os.getpid()}")
            try:
                argv = ["--workload", name, "--seed", str(wl.DEFAULT_SEED),
                        "--seconds", "0", "--threads", "1", "--reference"]
                res = run_worker(argv + (["--smoke"] if smoke else []), workdir,
                                 deadline=time.monotonic() + 600)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if res["errors"]:
                raise WorkerError(f"{name}: reference pass raised")
            reference[name + (":smoke" if smoke else "")] = res["reference"]
            print(f"reference {name}{' (smoke)' if smoke else ''} done")
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny trial counts, one set-up sample")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(ROOT, "src", "circlab", "__init__.py")):
        print(f"error: no circlab sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    samples = 1 if args.smoke else SETUP_SAMPLES

    base = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(base, f"{args.workload}-{os.getpid()}")
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    spans_path = None
    if args.trace:
        os.makedirs(os.path.join(base, "spans"), exist_ok=True)
        spans_path = os.path.join(
            base, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        argv += ["--spans", spans_path]
    try:
        setup = [run_worker(argv + ["--setup-only"],
                            os.path.join(workdir, f"setup{i}"), deadline)["setup_s"]
                 for i in range(samples - 1)]
        res = run_worker(argv, os.path.join(workdir, "run"), deadline)
    except WorkerError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setup.append(res["setup_s"])

    if args.trace:
        metrics = dict(res["layers"])
        metrics["trace.overhead_s"] = (res["trace_overhead_s"], "s")
    else:
        cal = statistics.mean(res["calibration_seconds"])
        for name, (value, unit) in end_to_end(args.workload, res, setup).items():
            print(f"raw {name} = {value:.6g} {unit}")
        print(f"calibration kernel {cal:.6g} s (mean of "
              f"{len(res['calibration_seconds'])}), scale {CAL_REF_S / cal:.6g}")
        metrics = end_to_end(args.workload, res, setup, scale=CAL_REF_S / cal)

    for message in res["messages"]:
        print(f"check failed: {message}")
    env = dict(res["env"], git_rev=git_rev(), src_sha256=source_digest(),
               workload=args.workload, seed=args.seed, threads=res["threads"],
               trace=args.trace, smoke=args.smoke)
    print("env " + json.dumps(env, sort_keys=True))
    print("pass_seconds " + json.dumps([round(t, 6) for t in res["pass_seconds"]]))
    print(f"passes {len(res['pass_seconds'])}, draws per pass "
          f"{res['draws_per_pass']}, latency samples "
          f"{len(res['call_seconds']) or len(res['pass_seconds'])}, set-up "
          f"samples {len(setup)}")
    if args.trace:
        print(f"traced passes {len(res['traced_pass_seconds'])}, spans "
              f"{res['spans']} written to {os.path.relpath(spans_path, ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted, failed = res["attempted"], res["failed"]
    print(f"failed_frac = {failed / attempted if attempted else 1.0:.6g} ratio"
          f" ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
