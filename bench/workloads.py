"""The four benchmark workloads: inputs, one timed pass, and output checks.

Every workload drives circlab through its public entry points in-process
(``cli.main`` for ``sweep``, ``phase-diagram`` and ``detect``, plus
``lab.empirical_second_moment``). A *pass* is the workload's fixed list of
calls; the worker repeats passes for the measured time.

Inputs are a pure function of (workload, seed, scale). The ``detect-files``
datasets come from a numpy Generator owned by this file, not from
``circlab.models``, so they stay put when the library's random streams change.

Correctness: ``reference.json`` holds the outputs of one pass at
``DEFAULT_SEED`` made with threads=1. A CSV row fails when its identifying
or analytic columns (``verdict``, ``verdict_citation``, ``bound_pfa``,
``bound_pmiss``; seed-independent) differ from the reference, when its
estimates break an invariant (inside [0, 1], inside their Wilson interval),
or, at ``DEFAULT_SEED``, when ``pfa_hat`` / ``pmiss_hat`` leave the binomial
tolerance of ``binomial_tolerance``. comm-exact runs at threads=2 and must
match the threads=1 reference row for row at ``DEFAULT_SEED``: that is the
determinism contract.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

DEFAULT_SEED = 1
TWO_PI = 2.0 * math.pi

CSV_HEADER = (
    "model,detector,policy,N_or_n,K_or_k,tau,kappa,trials,pfa_hat,pfa_lo,"
    "pfa_hi,pmiss_hat,pmiss_lo,pmiss_hi,total_err,verdict,verdict_citation,"
    "bound_pfa,bound_pmiss,seed,cell_index")
_COL = {name: i for i, name in enumerate(CSV_HEADER.split(","))}
# Columns that depend on the configuration only, never on the random streams.
_FIXED_COLUMNS = ("model", "detector", "policy", "N_or_n", "K_or_k", "tau",
                  "kappa", "trials", "verdict", "verdict_citation",
                  "bound_pfa", "bound_pmiss", "cell_index")

# Tolerance of an estimate against the reference at DEFAULT_SEED, in
# standard errors of the difference of two binomial estimates.
TOLERANCE_SE = 5.0
# Empirical second moments: |estimate - exact| <= ESM_SE * SE at
# DEFAULT_SEED; at other seeds ESM_SE_ANY_SEED, so that a seed drawn by
# chance does not fail a correct library (3 SE fails ~0.3% of seeds).
ESM_SE = 3.0
ESM_SE_ANY_SEED = 5.0


def binomial_tolerance(p: float, q: float, trials: int) -> float:
    """TOLERANCE_SE standard errors of p - q, variance floored at 1/trials."""
    pbar = 0.5 * (p + q)
    var = max(pbar * (1.0 - pbar), 1.0 / trials)
    return TOLERANCE_SE * math.sqrt(2.0 * var / trials)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepCall:
    """One ``circlab sweep`` or ``phase-diagram`` call on a written config."""

    command: str          # "sweep" | "phase-diagram"
    name: str             # output stem, also the config file stem
    config: dict          # key -> value; "sweep_<p>" keys hold value lists

    @property
    def cells(self) -> int:
        return math.prod(len(v) for k, v in self.config.items()
                         if k.startswith("sweep_"))

    @property
    def draws(self) -> int:
        return 2 * int(self.config["trials"]) * self.cells

    @property
    def outputs(self) -> list:
        if self.command == "phase-diagram":
            return [self.name + ".csv", self.name + "_boundary.csv"]
        return [self.name + ".csv"]


@dataclass(frozen=True)
class SecondMomentCall:
    """``lab.empirical_second_moment`` checked against the exact value."""

    model: str
    params: dict
    trials: int


@dataclass(frozen=True)
class Dataset:
    """A dataset file written by the benchmark's own generator."""

    name: str
    kind: str             # "flat" | "community"
    size: int             # N or n
    subset: int           # K or k (header value; planted size under H1)
    signal: Optional[tuple] = None   # ("hard", tau) | ("vm", kappa); None = H0


@dataclass(frozen=True)
class DetectCall:
    """One ``circlab detect`` call; ``{theta}`` is the dataset's planted phase."""

    dataset: str
    flags: tuple


def _flat_scan(smoke: bool) -> list:
    if smoke:
        return [
            SweepCall("phase-diagram", "flat_pd", {
                "model": "flat-hard", "detector": "interval", "policy": "a2",
                "N": 200, "trials": 8, "threads": 1,
                "sweep_K": [5, 8], "sweep_tau": [0.01, 0.02]}),
            SweepCall("sweep", "flat_kt", {
                "model": "flat-hard", "detector": "known-theta", "N": 400,
                "K": 20, "trials": 8, "threads": 1, "sweep_tau": [0.05]}),
        ]
    return [
        SweepCall("phase-diagram", "flat_pd", {
            "model": "flat-hard", "detector": "interval", "policy": "a2",
            "N": 2000, "trials": 256, "threads": 1,
            "sweep_K": [11, 21, 41], "sweep_tau": [0.002, 0.005, 0.01, 0.02]}),
        SweepCall("sweep", "flat_kt", {
            "model": "flat-hard", "detector": "known-theta", "N": 4000,
            "K": 60, "trials": 256, "threads": 1,
            "sweep_tau": [0.01, 0.02, 0.05]}),
    ]


def _comm_exact(smoke: bool, threads: int) -> list:
    t = 2 if smoke else 64
    return [
        SweepCall("sweep", "comm_hard_interval", {
            "model": "comm-hard", "detector": "interval", "n": 16, "k": 5,
            "trials": t, "threads": threads, "sweep_tau": [0.05]}),
        SweepCall("sweep", "comm_vm_interval", {
            "model": "comm-vm", "detector": "interval", "n": 16, "k": 5,
            "tau": 0.1, "trials": t, "threads": threads,
            "sweep_kappa": [40.0]}),
        SweepCall("sweep", "coherence_16_8", {
            "model": "comm-vm", "detector": "coherence", "n": 16, "k": 8,
            "epsilon": 0.5, "trials": t, "threads": threads,
            "sweep_kappa": [0.1, 2.0]}),
        SweepCall("sweep", "coherence_24_6", {
            "model": "comm-vm", "detector": "coherence", "n": 24, "k": 6,
            "epsilon": 0.5, "trials": 2 if smoke else 32, "threads": threads,
            "sweep_kappa": [2.0]}),
        SweepCall("sweep", "variance_10_6", {
            "model": "comm-vm", "detector": "variance", "n": 10, "k": 6,
            "sigma2": 0.05, "trials": t, "threads": threads,
            "sweep_kappa": [30.0]}),
        SweepCall("sweep", "rayleigh_12_10", {
            "model": "comm-vm", "detector": "rayleigh", "n": 12, "k": 10,
            "trials": t, "threads": threads, "sweep_kappa": [20.0]}),
    ]


def _analytics(smoke: bool) -> list:
    if smoke:
        cells = [(60, 12, 5.0, 0.2), (40, 8, 12.0, 0.15)]
        t, m = 4, 200
    else:
        # The two flat-vm cells of the bound-validity grid (c8) at a fifth
        # of their size, same kappa, tau and K/N: c8's own cells take 5 s each
        # in impossibility_functionals, too few passes for a steady median.
        cells = [(100, 20, 5.0, 0.2), (60, 12, 12.0, 0.15)]
        t, m = 32, 2000
    calls: list = [
        SweepCall("sweep", f"flat_vm_{N}", {
            "model": "flat-vm", "detector": "interval", "policy": "vm",
            "N": N, "K": K, "tau": tau, "trials": t, "threads": 1,
            "sweep_kappa": [kappa]})
        for N, K, kappa, tau in cells]
    calls.append(SecondMomentCall("comm-vm", {"n": 10, "k": 3, "kappa": 0.5}, m))
    calls.append(SecondMomentCall("flat-hard", {"N": 8, "K": 3, "tau": 0.3}, m))
    return calls


DETECT_DATASETS = (
    Dataset("flat_hard_h1", "flat", 2000, 21, ("hard", 0.01)),
    Dataset("flat_h0", "flat", 2000, 21),
    Dataset("flat_vm_h1", "flat", 500, 100, ("vm", 5.0)),
    Dataset("flat_kt_h1", "flat", 4000, 60, ("hard", 0.02)),
    Dataset("comm_coherence_h1", "community", 16, 8, ("vm", 2.0)),
    Dataset("comm_rayleigh_h1", "community", 12, 10, ("vm", 20.0)),
    Dataset("comm_variance_h1", "community", 10, 6, ("vm", 30.0)),
    Dataset("comm_hard_h1", "community", 16, 5, ("hard", 0.05)),
    Dataset("comm_h0", "community", 16, 5),
)

# Nine entries, so that neither the median nor p90 of the per-call latencies
# falls on the boundary between two entries' blocks.
DETECT_CALLS = (
    DetectCall("flat_hard_h1", ("--test", "interval", "--tau", "0.01", "--policy", "a1")),
    DetectCall("flat_h0", ("--test", "interval", "--tau", "0.01", "--policy", "a2")),
    DetectCall("flat_vm_h1", ("--test", "interval", "--tau", "0.2", "--policy", "vm",
                              "--kappa", "5")),
    DetectCall("flat_kt_h1", ("--test", "known-theta", "--tau", "0.02", "--gamma", "110",
                              "--theta", "{theta}")),
    DetectCall("comm_coherence_h1", ("--test", "coherence", "--kappa", "2")),
    DetectCall("comm_rayleigh_h1", ("--test", "rayleigh", "--kappa", "20")),
    DetectCall("comm_variance_h1", ("--test", "variance", "--sigma2", "0.05")),
    DetectCall("comm_hard_h1", ("--test", "interval", "--tau", "0.05")),
    DetectCall("comm_h0", ("--test", "interval", "--tau", "0.05")),
)
DETECT_ROUNDS = 22        # 9 x 22 = 198 calls per pass


WORKLOADS = ("flat-scan", "comm-exact", "analytics", "detect-files")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workload_threads(name: str) -> int:
    """Pool size of a workload; never more than the CPUs this process may use."""
    return min(2, nproc()) if name == "comm-exact" else 1


# ---------------------------------------------------------------------------
# Set-up: config and dataset files
# ---------------------------------------------------------------------------

def _config_text(config: dict) -> str:
    lines = []
    for key, value in config.items():
        if isinstance(value, list):
            lines.append(f"{key} = {', '.join(repr(v) for v in value)}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _canonical(x: np.ndarray) -> np.ndarray:
    r = np.mod(x, TWO_PI)
    r[r >= TWO_PI] = 0.0
    return r


def write_dataset(ds: Dataset, seed: int, index: int, path: str) -> float:
    """Write one dataset in circlab's text format; returns the planted phase.

    Under H1 a uniform subset (flat) or community (edges) carries the signal
    around a uniform phase; every other angle is uniform on [0, 2 pi).
    """
    rng = np.random.default_rng([seed, index])
    m = ds.size if ds.kind == "flat" else ds.size * (ds.size - 1) // 2
    angles = rng.random(m) * TWO_PI
    theta = 0.0
    if ds.signal is not None:
        chosen = np.sort(rng.choice(ds.size, ds.subset, replace=False))
        theta = float(rng.random() * TWO_PI)
        if ds.kind == "flat":
            idx = chosen
        else:
            a, b = np.triu_indices(ds.subset, k=1)
            va, vb = chosen[a], chosen[b]
            idx = va * ds.size - va * (va + 1) // 2 + (vb - va - 1)
        kind, value = ds.signal
        if kind == "hard":
            offsets = TWO_PI * value * rng.random(idx.size)
        else:
            offsets = rng.vonmises(0.0, value, idx.size)
        angles[idx] = _canonical(theta + offsets)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if ds.kind == "flat":
            fh.write(f"# model=flat\n# N={ds.size}\n# K={ds.subset}\n")
            fh.write("".join("%.17g\n" % a for a in angles))
        else:
            fh.write(f"# model=community\n# n={ds.size}\n# k={ds.subset}\n")
            i, j = np.triu_indices(ds.size, k=1)
            fh.write("".join(f"{a},{b},{'%.17g' % x}\n"
                             for a, b, x in zip(i.tolist(), j.tolist(), angles)))
    return theta


# ---------------------------------------------------------------------------
# A pass and its checks
# ---------------------------------------------------------------------------

@dataclass
class PassResult:
    seconds: float
    call_seconds: list = field(default_factory=list)   # detect calls only
    outputs: dict = field(default_factory=dict)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


class Workload:
    """A built workload: its files are written, ``run_pass`` times one pass."""

    def __init__(self, name: str, seed: int, workdir: str, smoke: bool,
                 threads: int):
        from circlab import cli, lab, theory
        self.name, self.seed, self.workdir = name, seed, workdir
        self._cli, self._lab, self._theory = cli, lab, theory
        if name == "flat-scan":
            self.calls = _flat_scan(smoke)
        elif name == "comm-exact":
            self.calls = _comm_exact(smoke, threads)
        elif name == "analytics":
            self.calls = _analytics(smoke)
        elif name == "detect-files":
            self.calls = []
        else:
            raise ValueError(f"unknown workload {name!r}")
        for call in self.calls:
            if isinstance(call, SweepCall):
                with open(self._path(call.name + ".cfg"), "w",
                          encoding="utf-8") as fh:
                    fh.write(_config_text(call.config))
        self.detect_argv: list = []
        if name == "detect-files":
            thetas = {}
            for index, ds in enumerate(DETECT_DATASETS):
                thetas[ds.name] = write_dataset(
                    ds, seed, index, self._path(ds.name + ".txt"))
            for call in DETECT_CALLS:
                flags = [f.replace("{theta}", "%.17g" % thetas[call.dataset])
                         for f in call.flags]
                self.detect_argv.append(
                    ["detect", "--data", self._path(call.dataset + ".txt")] + flags)
        self.rounds = 1 if smoke else DETECT_ROUNDS

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    @property
    def draws_per_pass(self) -> int:
        if self.name == "detect-files":
            return len(self.detect_argv) * self.rounds
        return sum(c.draws if isinstance(c, SweepCall) else c.trials
                   for c in self.calls)

    def run_pass(self, on_error: Callable[[str], None]) -> PassResult:
        if self.name == "detect-files":
            return self._detect_pass(on_error)
        outputs: dict = {}
        sink = io.StringIO()
        t0 = time.perf_counter()
        for call in self.calls:
            if isinstance(call, SweepCall):
                for out in call.outputs:
                    with contextlib.suppress(FileNotFoundError):
                        os.remove(self._path(out))
                out = self._path(call.name if call.command == "phase-diagram"
                                 else call.name + ".csv")
                argv = [call.command, "--config", self._path(call.name + ".cfg"),
                        "--out", out, "--seed", str(self.seed)]
                try:
                    with contextlib.redirect_stdout(sink):
                        code = self._cli.main(argv)
                except Exception:  # a failed call is counted, not fatal
                    on_error(traceback.format_exc())
                    code = -1
                outputs[call.name] = {"exit": code}
            else:
                key = f"esm_{call.model}"
                try:
                    est, se = self._lab.empirical_second_moment(
                        call.model, call.params, call.trials, self.seed)
                    exact = getattr(self._theory, "second_moment_exact_"
                                    + call.model.replace("-", "_"))(**call.params)
                    outputs[key] = {"estimate": est, "se": se, "exact": exact}
                except Exception:
                    on_error(traceback.format_exc())
                    outputs[key] = {"error": True}
        seconds = time.perf_counter() - t0
        for call in self.calls:
            if isinstance(call, SweepCall):
                for out in call.outputs:
                    try:
                        with open(self._path(out), encoding="utf-8") as fh:
                            outputs[out] = fh.read()
                    except FileNotFoundError:
                        outputs[out] = None
        return PassResult(seconds, outputs=outputs)

    def _detect_pass(self, on_error: Callable[[str], None]) -> PassResult:
        lines = [[] for _ in self.detect_argv]
        call_seconds = []
        buf = io.StringIO()
        t_pass = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            for _ in range(self.rounds):
                for i, argv in enumerate(self.detect_argv):
                    buf.seek(0)
                    buf.truncate()
                    t0 = time.perf_counter()
                    try:
                        code = self._cli.main(argv)
                    except Exception:
                        on_error(traceback.format_exc())
                        code = -1
                    call_seconds.append(time.perf_counter() - t0)
                    lines[i].append((code, buf.getvalue().strip()))
        seconds = time.perf_counter() - t_pass
        return PassResult(seconds, call_seconds, outputs={"detect": lines})

    def reference_outputs(self, result: PassResult) -> dict:
        """The part of a pass's outputs that ``reference.json`` stores."""
        if self.name == "detect-files":
            return {"detect": [calls[0][1] for calls in result.outputs["detect"]]}
        ref = {}
        for call in self.calls:
            if isinstance(call, SweepCall):
                for out in call.outputs:
                    ref[out] = result.outputs[out]
        return ref

    # -- checks --------------------------------------------------------

    def check(self, result: PassResult, reference: dict) -> CheckResult:
        res = CheckResult()
        if self.name == "detect-files":
            self._check_detect(result, reference, res)
            return res
        exact_rows = self.name == "comm-exact"
        for call in self.calls:
            if isinstance(call, SecondMomentCall):
                self._check_esm(result.outputs[f"esm_{call.model}"], call, res)
                continue
            code = result.outputs[call.name]["exit"]
            res.record(code == 0, f"{call.command} {call.name}: exit {code}")
            for out in call.outputs:
                text = result.outputs.get(out)
                ref = reference.get(out)
                if out.endswith("_boundary.csv"):
                    res.record(text is not None and text == ref,
                               f"{out}: boundary curves differ from reference")
                else:
                    self._check_csv(out, text, ref, exact_rows, res)
        return res

    def _check_csv(self, out: str, text: Optional[str], ref: str,
                   exact_rows: bool, res: CheckResult) -> None:
        ref_rows = ref.splitlines()[1:]
        rows = [] if text is None else text.splitlines()
        if not rows or rows[0] != CSV_HEADER:
            for _ in ref_rows:
                res.record(False, f"{out}: missing output or wrong header")
            return
        rows = rows[1:]
        for i, ref_line in enumerate(ref_rows):
            line = rows[i] if i < len(rows) else None
            res.record(line is not None and self._row_ok(line, ref_line, exact_rows),
                       f"{out} row {i}: {line!r} vs reference {ref_line!r}")
        for extra in rows[len(ref_rows):]:
            res.record(False, f"{out}: unexpected row {extra!r}")

    def _row_ok(self, line: str, ref_line: str, exact_rows: bool) -> bool:
        row, ref = line.split(","), ref_line.split(",")
        if len(row) != len(ref):
            return False
        if any(row[_COL[c]] != ref[_COL[c]] for c in _FIXED_COLUMNS):
            return False
        if row[_COL["seed"]] != str(self.seed) or row[_COL["verdict"]] == "failed":
            return False
        try:
            pfa, pfa_lo, pfa_hi, pmiss, pmiss_lo, pmiss_hi, total = (
                float(row[_COL[c]]) for c in (
                    "pfa_hat", "pfa_lo", "pfa_hi", "pmiss_hat", "pmiss_lo",
                    "pmiss_hi", "total_err"))
        except ValueError:
            return False
        if not (0.0 <= pfa_lo <= pfa <= pfa_hi <= 1.0
                and 0.0 <= pmiss_lo <= pmiss <= pmiss_hi <= 1.0
                and abs(total - (pfa + pmiss)) <= 1e-12):
            return False
        if self.seed != DEFAULT_SEED:
            return True
        if exact_rows:
            return line == ref_line
        trials = int(row[_COL["trials"]])
        for col in ("pfa_hat", "pmiss_hat"):
            p, q = float(row[_COL[col]]), float(ref[_COL[col]])
            if abs(p - q) > binomial_tolerance(p, q, trials):
                return False
        return True

    def _check_esm(self, out: dict, call: SecondMomentCall,
                   res: CheckResult) -> None:
        if "error" in out:
            res.record(False, f"empirical_second_moment {call.model} raised")
            return
        k = ESM_SE if self.seed == DEFAULT_SEED else ESM_SE_ANY_SEED
        est, se, exact = out["estimate"], out["se"], out["exact"]
        ok = (math.isfinite(est) and math.isfinite(se) and se > 0.0
              and abs(est - exact) <= k * se)
        res.record(ok, f"empirical_second_moment {call.model}: {est!r} +- "
                       f"{se!r} vs exact {exact!r} (limit {k:g} SE)")

    def _check_detect(self, result: PassResult, reference: dict,
                      res: CheckResult) -> None:
        ref_lines = reference["detect"]
        for i, calls in enumerate(result.outputs["detect"]):
            first = calls[0][1]
            comparison = "le" if "variance" in self.detect_argv[i] else "ge"
            for code, line in calls:
                ok = code == 0 and line == first and _decision_consistent(
                    line, comparison)
                if self.seed == DEFAULT_SEED:
                    ok = ok and line == ref_lines[i]
                res.record(ok, f"detect {' '.join(self.detect_argv[i][3:])}: "
                               f"exit {code}, {line!r}")


def _decision_consistent(line: str, comparison: str) -> bool:
    """The decision printed by ``detect`` agrees with statistic vs threshold."""
    fields = dict(part.partition("=")[::2] for part in line.split())
    if set(fields) != {"statistic", "threshold", "decision", "witness_theta",
                       "witness_subset"}:
        return False
    try:
        stat, thr = float(fields["statistic"]), float(fields["threshold"])
    except ValueError:
        return False
    reject = stat >= thr if comparison == "ge" else stat <= thr
    return fields["decision"] == ("reject" if reject else "retain")
