"""Monte Carlo experiment harness, sweeps, verification suites.

``estimate_errors`` runs seeded trials under both hypotheses through a
configured detector and returns empirical error rates with Wilson intervals,
the theory verdict, and the analytic bound digest. ``sweep`` crosses
parameter axes and emits a fixed-schema CSV; ``phase_diagram`` adds theory
boundary curves (solved by bisection) and an optional SVG heatmap.

Determinism contract: every trial draws from a generator seeded by a 64-bit
mix of (master seed, cell index, hypothesis, trial index); results reduce
through integer counters, so outputs are identical for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import detectors as det
from . import models as mod
from . import specfun as sf
from . import theory as th
from .errors import CapabilityError, ConfigError, DomainError, ParameterError

__all__ = [
    "ExperimentConfig",
    "PhasePoint",
    "wilson_interval",
    "estimate_errors",
    "sweep",
    "empirical_second_moment",
    "phase_diagram",
    "write_csv",
    "CSV_COLUMNS",
    "parse_config_file",
    "config_from_dict",
    "VerifyCheck",
    "VerifyReport",
    "verify",
    "VERIFY_SUITES",
]

_TRIAL_CHUNK = 64
# Subset resultants per chunk of likelihood-ratio draws: 256 KiB of float64
# stays in cache; larger chunks were slower at C(60,3) subsets.
_LR_CHUNK_ELEMS = 1 << 15
DEFAULT_ENUMERATION_BUDGET = 100_000

# Master seed pinned for the verification suites (one global choice so every
# reported number is reproducible; individual checks never pick seeds).
DEFAULT_VERIFY_SEED = 1

# Stream tags keep the trial, cell and second-moment streams disjoint.
_STREAM_TRIAL = 101
_STREAM_SECOND_MOMENT = 202

Z_95 = 1.959963984540054

# Errors that mark one cell failed instead of aborting a sweep.
_CELL_ERRORS = (CapabilityError, DomainError, ParameterError)


DETECTORS = ("interval", "coherence", "rayleigh", "variance", "known-theta")
_FLAT_DETECTORS = ("interval", "known-theta")
_INT_AXES = ("N", "K", "n", "k")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: model, parameters, detector, trials, seed."""

    model: str                      # flat-hard | flat-vm | comm-hard | comm-vm
    detector: str = "interval"      # one of DETECTORS
    N: Optional[int] = None
    K: Optional[int] = None
    n: Optional[int] = None
    k: Optional[int] = None
    tau: Optional[float] = None     # signal arc fraction and/or test window
    kappa: Optional[float] = None
    # a1 | a2 | vm | fixed:<v> | custom:<v>; None is fixed at gamma, else a1
    policy: Optional[str] = "a1"
    gamma: Optional[float] = None
    sigma2: Optional[float] = None
    epsilon: float = 0.5
    theta: float = 0.0
    c_n: Optional[float] = None
    trials: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.model not in th.MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        _check_detector(self.detector, self.is_flat)
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")

    def validate_complete(self) -> None:
        """Check that every parameter the model needs is present.

        Deferred from construction so sweep base configs may leave swept
        parameters unset.
        """
        if self.is_flat:
            if self.N is None or self.K is None:
                raise ConfigError(f"model {self.model} needs N and K")
        elif self.n is None or self.k is None:
            raise ConfigError(f"model {self.model} needs n and k")
        if self.model.endswith("hard") and self.tau is None:
            raise ConfigError(f"model {self.model} needs tau")
        if self.model.endswith("vm") and self.kappa is None:
            raise ConfigError(f"model {self.model} needs kappa")

    @property
    def is_flat(self) -> bool:
        return self.model.startswith("flat")

    @property
    def signal(self) -> mod.SignalKind:
        if self.model.endswith("hard"):
            return mod.HardCluster(tau=self.tau)
        return mod.VonMises(kappa=self.kappa)

    @property
    def size_label(self) -> int:
        return self.N if self.is_flat else self.n

    @property
    def subset_label(self) -> int:
        return self.K if self.is_flat else self.k

    def model_params(self) -> dict:
        if self.is_flat:
            p = {"N": self.N, "K": self.K}
        else:
            p = {"n": self.n, "k": self.k}
        if self.model.endswith("hard"):
            p["tau"] = self.tau
        else:
            p["kappa"] = self.kappa
        return p


@dataclass
class PhasePoint:
    """Empirical error rates of one cell plus theory annotations."""

    config: ExperimentConfig
    cell_index: int = 0
    pfa_hat: float = math.nan
    pfa_lo: float = math.nan
    pfa_hi: float = math.nan
    pmiss_hat: float = math.nan
    pmiss_lo: float = math.nan
    pmiss_hi: float = math.nan
    verdict: Optional[th.RegimeVerdict] = None
    bound_pfa: float = math.nan
    bound_pmiss: float = math.nan
    failed: Optional[str] = None
    annotation_error: Optional[str] = None  # why verdict or bounds are missing

    @property
    def total_err(self) -> float:
        return self.pfa_hat + self.pmiss_hat


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    """Wilson score interval; always contains the point estimate, inside [0,1]."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials
                         + z * z / (4 * trials * trials)) / denom
    # clamp so rounding can never push the point estimate outside
    return min(max(0.0, center - half), phat), max(min(1.0, center + half), phat)


# ---------------------------------------------------------------------------
# Detector dispatch
# ---------------------------------------------------------------------------


def _check_detector(detector: str, flat: bool) -> None:
    """Reject a detector that is unknown or undefined for the sample kind."""
    if detector not in DETECTORS:
        raise ConfigError(f"unknown detector {detector!r}")
    if flat and detector not in _FLAT_DETECTORS:
        raise ConfigError(f"detector {detector!r} is undefined for flat models")
    if not flat and detector == "known-theta":
        raise ConfigError("known-theta is a flat-model detector")


def _check_detector_params(detector: str, flat: bool, subset, tau, kappa,
                           sigma2) -> None:
    """Reject a detector call that lacks a parameter its test needs."""
    _check_detector(detector, flat)
    if not flat and subset is None:
        raise ConfigError(f"{detector} test needs k")
    if detector in ("interval", "known-theta") and tau is None:
        raise ConfigError(f"{detector} test needs tau (window fraction)")
    if detector in ("coherence", "rayleigh") and kappa is None:
        raise ConfigError(f"{detector} test needs kappa for its threshold")
    if detector == "variance" and sigma2 is None:
        raise ConfigError("variance test needs sigma2")


def _flat_gamma(detector: str, N: Optional[int], K: Optional[int],
                tau: Optional[float], kappa: Optional[float],
                policy: Optional[str], gamma: Optional[float],
                c_n: Optional[float]) -> float:
    """Count threshold of a flat test; known-theta has no policy: gamma, else a2."""
    if detector == "known-theta":
        policy = None if gamma is not None else "a2"
    return det.resolve_flat_threshold(policy, N, tau, K=K, kappa=kappa,
                                      gamma=gamma, c_n=c_n)


def _config_gamma(c: ExperimentConfig) -> float:
    return _flat_gamma(c.detector, c.N, c.K, c.tau, c.kappa, c.policy,
                       c.gamma, c.c_n)


def _make_test(detector: str, flat: bool, *, N: Optional[int],
               subset: Optional[int], tau: Optional[float],
               kappa: Optional[float], policy: Optional[str],
               gamma: Optional[float], sigma2: Optional[float],
               epsilon: float, theta: float,
               c_n: Optional[float] = None) -> Callable:
    """Build the sample -> TestReport call of one detector on one sample kind.

    ``subset`` is K for flat samples and k for edge samples. Thresholds are
    resolved here, once, not per sample. The known-theta call also takes the
    phase to test at (default ``theta``). Detectors are looked up on their
    module at call time, so a tracer that rebinds them sees every call.
    """
    _check_detector_params(detector, flat, subset, tau, kappa, sigma2)
    if flat:
        count_gamma = _flat_gamma(detector, N, subset, tau, kappa, policy,
                                  gamma, c_n)
        if detector == "interval":
            return lambda sample: det.interval_test_flat(sample, tau,
                                                         count_gamma)
        return lambda sample, phase=theta: det.known_theta_test_flat(
            sample, tau, count_gamma, theta=phase)
    if detector == "interval":
        return lambda sample: det.interval_test_community(sample, subset, tau)
    if detector == "coherence":
        beta = det.coherence_threshold(subset, kappa, epsilon)
        return lambda sample: det.coherence_test(sample, subset, beta)
    if detector == "rayleigh":
        beta = det.rayleigh_threshold(subset, kappa)
        return lambda sample: det.rayleigh_test(sample, subset, beta)
    return lambda sample: det.variance_test(sample, subset, sigma2)


def _make_runner(config: ExperimentConfig) -> Callable:
    """Build sample -> rejected closure for the configured detector.

    Known-theta trials test at the planted phase when the sample has one.
    """
    c = config
    test = _make_test(c.detector, c.is_flat, N=c.N, subset=c.subset_label,
                      tau=c.tau, kappa=c.kappa, policy=c.policy, gamma=c.gamma,
                      sigma2=c.sigma2, epsilon=c.epsilon, theta=c.theta,
                      c_n=c.c_n)
    if c.detector == "known-theta":
        return lambda sample: test(
            sample, c.theta if sample.truth is None
            else sample.truth.theta_star).rejected
    return lambda sample: test(sample).rejected


def _gen_sample(config: ExperimentConfig, under_h1: bool, rng):
    if config.is_flat:
        return mod.gen_flat(config.N, config.K, config.signal, under_h1, rng)
    return mod.gen_community(config.n, config.k, config.signal, under_h1, rng)


def _cell_bounds(config: ExperimentConfig) -> dict:
    """Analytic bound report matching the configured detector and threshold."""
    c = config
    _check_detector_params(c.detector, c.is_flat, c.subset_label, c.tau,
                           c.kappa, c.sigma2)
    if c.detector == "interval" and c.model == "flat-hard":
        return th.flat_hard_bounds(c.N, c.K, c.tau, _config_gamma(c))
    if c.detector == "interval" and c.model == "flat-vm":
        # Without a gamma, flat_vm_bounds evaluates the vm recipe threshold.
        gamma = None if c.policy == "vm" else _config_gamma(c)
        return th.flat_vm_bounds(c.N, c.K, c.kappa, c.tau, c_n=c.c_n,
                                 gamma=gamma)
    if c.detector == "known-theta":
        if c.model != "flat-hard":
            return {}
        return th.known_theta_bounds(c.N, c.K, c.tau, _config_gamma(c))
    if c.detector == "interval":
        kappa = c.kappa if c.model == "comm-vm" else None
        return th.comm_interval_bounds(c.n, c.k, c.tau, kappa=kappa)
    if c.detector == "coherence":
        bounds = th.comm_coherence_bounds(c.n, c.k, c.kappa, c.epsilon)
        if c.model != "comm-vm":
            bounds.pop("pmiss", None)  # miss analysis is signal-specific
        return bounds
    if c.detector == "rayleigh":
        bounds = th.rayleigh_bounds(c.n, c.k, c.kappa)
        if c.model != "comm-vm":
            bounds.pop("pmiss", None)
        return bounds
    if c.model == "comm-vm":
        return th.comm_variance_bounds(c.n, c.k, c.sigma2, kappa=c.kappa)
    return th.comm_variance_bounds(c.n, c.k, c.sigma2, tau=c.tau)


def _bound_digest(bounds: dict) -> tuple[float, float]:
    """Collapse a bound report to (pfa bound, pmiss bound)."""
    pfa = math.inf
    for key in ("pfa", "pfa_union", "pfa_chernoff"):
        b = bounds.get(key)
        if b is not None and b.applicable:
            pfa = min(pfa, b.value)
    b = bounds.get("pmiss")
    pmiss = b.value if b is not None and b.applicable else math.inf
    return pfa, pmiss


def _run_chunk(config: ExperimentConfig, runner, cell_index: int, hyp: int,
               start: int, count: int) -> int:
    rejects = 0
    for trial in range(start, start + count):
        rng = mod.rng_for(config.seed, _STREAM_TRIAL, cell_index, hyp, trial)
        sample = _gen_sample(config, under_h1=bool(hyp), rng=rng)
        if runner(sample):
            rejects += 1
    return rejects


def estimate_errors(config: ExperimentConfig, cell_index: int = 0,
                    threads: Optional[int] = None,
                    tunables: Optional[th.RegimeTunables] = None) -> PhasePoint:
    """Estimate (pfa, pmiss) of the configured detector by seeded Monte Carlo.

    Runs ``trials`` datasets under each hypothesis. Identical (config, seed)
    give identical results for any thread count: per-trial generators are
    derived from (seed, cell, hypothesis, trial) and counts reduce by sums.
    Capability, domain and parameter errors mark the point failed instead
    of raising; the same errors, or an overflow, while annotating the verdict
    and bounds are kept in ``annotation_error``. A ConfigError still raises.
    """
    config.validate_complete()
    point = PhasePoint(config=config, cell_index=cell_index)
    try:
        runner = _make_runner(config)
        chunks = [(hyp, start, min(_TRIAL_CHUNK, config.trials - start))
                  for hyp in (0, 1)
                  for start in range(0, config.trials, _TRIAL_CHUNK)]
        results: dict = {0: 0, 1: 0}
        if threads is not None and threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [(hyp, pool.submit(_run_chunk, config, runner,
                                             cell_index, hyp, start, count))
                           for hyp, start, count in chunks]
            for hyp, fut in futures:
                results[hyp] += fut.result()
        else:
            for hyp, start, count in chunks:
                results[hyp] += _run_chunk(config, runner, cell_index, hyp,
                                           start, count)
        trials = config.trials
        point.pfa_hat = results[0] / trials
        point.pmiss_hat = (trials - results[1]) / trials
        point.pfa_lo, point.pfa_hi = wilson_interval(results[0], trials)
        point.pmiss_lo, point.pmiss_hi = wilson_interval(trials - results[1], trials)
    except _CELL_ERRORS as exc:
        point.failed = str(exc)
        return point
    try:
        point.verdict = th.regime_classify(config.model, config.model_params(),
                                           tunables)
        point.bound_pfa, point.bound_pmiss = _bound_digest(_cell_bounds(config))
    except (*_CELL_ERRORS, OverflowError) as exc:
        point.annotation_error = str(exc)
    return point


# ---------------------------------------------------------------------------
# Sweeps, CSV, phase diagrams
# ---------------------------------------------------------------------------

CSV_COLUMNS = [
    "model", "detector", "policy", "N_or_n", "K_or_k", "tau", "kappa",
    "trials", "pfa_hat", "pfa_lo", "pfa_hi", "pmiss_hat", "pmiss_lo",
    "pmiss_hi", "total_err", "verdict", "verdict_citation", "bound_pfa",
    "bound_pmiss", "seed", "cell_index",
]

_AXIS_PARAMS = ("N", "K", "n", "k", "tau", "kappa", "gamma", "sigma2",
                "epsilon", "c_n", "theta")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isnan(value):
            return ""
        return "%.17g" % value
    return str(value)


def _point_row(point: PhasePoint) -> list:
    c = point.config
    verdict = point.verdict.verdict if point.verdict else ""
    citation = point.verdict.citation if point.verdict else ""
    if point.failed is not None:
        verdict, citation = "failed", point.failed.replace(",", ";")
    return [
        c.model, c.detector, _fmt(c.policy), _fmt(c.size_label), _fmt(c.subset_label),
        _fmt(c.tau), _fmt(c.kappa), _fmt(c.trials), _fmt(point.pfa_hat),
        _fmt(point.pfa_lo), _fmt(point.pfa_hi), _fmt(point.pmiss_hat),
        _fmt(point.pmiss_lo), _fmt(point.pmiss_hi),
        _fmt(point.total_err if point.failed is None else None),
        verdict, citation,
        _fmt(point.bound_pfa if math.isfinite(point.bound_pfa) else None),
        _fmt(point.bound_pmiss if math.isfinite(point.bound_pmiss) else None),
        _fmt(c.seed), _fmt(point.cell_index),
    ]


def write_csv(points: Sequence[PhasePoint], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for p in points:
            fh.write(",".join(_point_row(p)) + "\n")


def _grid_cells(grid: Sequence[tuple]) -> list:
    """Cross product of axes in row-major order (last axis fastest)."""
    cells = [{}]
    for name, values in grid:
        if name not in _AXIS_PARAMS:
            raise ConfigError(f"cannot sweep over {name!r}")
        if len(values) == 0:
            raise ConfigError(f"axis {name!r} is empty")
        if name in _INT_AXES and not all(float(v).is_integer() for v in values):
            raise ConfigError(f"axis {name!r} needs integer values, got {values}")
        cells = [dict(c, **{name: v}) for c in cells for v in values]
    return cells


def sweep(grid: Sequence[tuple], base: ExperimentConfig,
          threads: Optional[int] = None, out: Optional[str] = None,
          tunables: Optional[th.RegimeTunables] = None) -> list:
    """Evaluate estimate_errors on every grid cell in deterministic order.

    ``grid`` is a list of (parameter name, values); cells enumerate the
    cross product with the last axis fastest. Per-cell trial streams are
    derived from (master seed, cell index). The whole grid is checked before
    any cell runs; a cell that raises a capability, domain or parameter error
    is marked failed without aborting the sweep.
    """
    points = []
    for idx, overrides in enumerate(_grid_cells(grid)):
        cast = {name: (int(v) if name in _INT_AXES else float(v))
                for name, v in overrides.items()}
        config = replace(base, **cast)
        points.append(estimate_errors(config, cell_index=idx, threads=threads,
                                      tunables=tunables))
    if out:
        write_csv(points, out)
    return points


def _boundary_rows(grid: Sequence[tuple], base: ExperimentConfig,
                   tunables: Optional[th.RegimeTunables]) -> list:
    """Solve each regime condition for the y-axis value at each x value."""
    (x_name, xs), (y_name, ys) = grid
    y_lo, y_hi = float(min(ys)), float(max(ys))
    tun = tunables or th.RegimeTunables()
    conditions = th._CONDITION_BUILDERS[base.model](tun)
    rows = []
    for cond in conditions:
        for x in xs:
            def params_at(y: float) -> dict:
                p = dict(base.model_params())
                p[x_name] = int(x) if x_name in _INT_AXES else float(x)
                p[y_name] = float(y)
                return p

            def margin_at(y: float) -> Optional[float]:
                margin = cond.evaluate(params_at(y))
                return None if isinstance(margin, str) else margin

            m_lo, m_hi = margin_at(y_lo), margin_at(y_hi)
            if m_lo is None or m_hi is None or m_lo == m_hi or (m_lo > 0) == (m_hi > 0):
                continue
            a, b = y_lo, y_hi
            fa = m_lo
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = margin_at(mid)
                if fm is None:
                    break
                if (fm > 0) == (fa > 0):
                    a, fa = mid, fm
                else:
                    b = mid
            rows.append([cond.cid, x_name, _fmt(float(x)), y_name,
                         _fmt(0.5 * (a + b))])
    return rows


def _svg_heatmap(points: list, grid: Sequence[tuple], path: str) -> None:
    """Deterministic minimal SVG heatmap of total error over a 2-axis grid."""
    (x_name, xs), (y_name, ys) = grid
    nx, ny = len(xs), len(ys)
    cell, margin = 28, 60
    width, height = margin + nx * cell + 10, margin + ny * cell + 10
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}">',
        f'<text x="{margin}" y="16" font-size="12">total error: '
        f'{x_name} (cols) vs {y_name} (rows)</text>',
    ]
    for i, p in enumerate(points):
        ix, iy = i // ny, i % ny
        err = p.total_err if p.failed is None else math.nan
        if math.isnan(err):
            color = "#bbbbbb"
        else:
            # 0 -> blue, 1 -> red through white
            t = min(max(err / 2.0, 0.0), 1.0)
            r = int(255 * t)
            b = int(255 * (1.0 - t))
            g = int(255 * (1.0 - abs(2 * t - 1)))
            color = f"#{r:02x}{g:02x}{b:02x}"
        x = margin + ix * cell
        y = margin + (ny - 1 - iy) * cell
        parts.append(
            f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
            f'fill="{color}" stroke="#333" stroke-width="0.5"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def phase_diagram(grid: Sequence[tuple], base: ExperimentConfig, out: str,
                  threads: Optional[int] = None, svg: bool = False,
                  tunables: Optional[th.RegimeTunables] = None) -> list:
    """Sweep a 2-axis grid and write <out>.csv, <out>_boundary.csv, <out>.svg.

    The boundary file solves, at each x-axis value, each regime condition
    for the y-axis parameter by bisection over the y range; cells whose
    condition has no sign change are omitted.
    """
    if len(grid) != 2:
        raise ConfigError("phase_diagram needs exactly 2 axes")
    points = sweep(grid, base, threads=threads, out=out + ".csv",
                   tunables=tunables)
    rows = _boundary_rows(grid, base, tunables)
    with open(out + "_boundary.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("condition,x_name,x,y_name,y\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    if svg:
        _svg_heatmap(points, grid, out + ".svg")
    return points


# ---------------------------------------------------------------------------
# Empirical second moment (likelihood-ratio simulation under the null)
# ---------------------------------------------------------------------------


def _flat_hard_L(x: np.ndarray, K: int, tau: float) -> float:
    """L(X) for the flat hard-cluster model by exact window-count integration.

    The window count as a function of the anchor is piecewise constant with
    2N breakpoints, so the mixture likelihood integrates exactly:
    L = sum_segments C(count, K) len / (2 pi C(N, K) tau^K).
    """
    n = x.size
    w = mod.TWO_PI * tau
    starts = mod.canonical_angle(x - w)
    events = np.concatenate([starts, x])
    deltas = np.concatenate([np.ones(n), -np.ones(n)])
    order = np.argsort(events, kind="stable")
    ev, dl = events[order], deltas[order]
    count = int(np.count_nonzero(starts > x))  # intervals covering angle 0
    total = 0.0
    prev = 0.0
    for i in range(ev.size):
        total += math.comb(count, K) * (ev[i] - prev)
        count += int(dl[i])
        prev = ev[i]
    total += math.comb(count, K) * (mod.TWO_PI - prev)
    return total / (mod.TWO_PI * math.comb(n, K) * tau ** K)


def _gap_coverage_fraction(sorted_vals: np.ndarray, w: float) -> np.ndarray:
    """Fraction of anchors whose window [theta, theta+w] covers all values.

    Rows of ``sorted_vals`` are sorted angle tuples; the uncovered arc has
    length 2 pi - w, and the coverage measure is the total gap excess.
    """
    gaps = np.diff(sorted_vals, axis=-1)
    wrap = (sorted_vals[..., :1] + mod.TWO_PI) - sorted_vals[..., -1:]
    all_gaps = np.concatenate([gaps, wrap], axis=-1)
    excess = np.clip(all_gaps - (mod.TWO_PI - w), 0.0, None)
    return excess.sum(axis=-1) / mod.TWO_PI


def _vm_lsq(out: np.ndarray, rng: np.random.Generator, size: int,
            table: np.ndarray, kappa: float) -> None:
    """Fill ``out`` with L^2 of von Mises signals over the rows of ``table``.

    Each trial draws ``size`` uniform angles; row C of ``table`` indexes the
    angles of one subset, with L = mean_C I0(kappa |sum_C e^{i x}|) / I0(kappa)^|C|.
    Trials are drawn in chunks of at most _TRIAL_CHUNK, one (c, size) draw
    being the stream of c draws of ``size``, and log I0 is evaluated once
    per chunk. The subset sums stay per trial: ``z[table]`` is laid out like
    ``table`` (column-major for edge tables), and that layout fixes numpy's
    summation order. Each row is averaged on its own, so the result does
    not depend on the chunk size, to the last bit.
    """
    width = table.shape[1]
    log_i0_k = sf.log_bessel_i0(kappa)
    rows = max(1, min(_TRIAL_CHUNK, _LR_CHUNK_ELEMS // table.shape[0]))
    for lo in range(0, out.size, rows):
        c = min(rows, out.size - lo)
        z = np.exp(1j * rng.random((c, size)) * mod.TWO_PI)
        r = np.abs(np.stack([zt[table].sum(axis=1) for zt in z]))
        terms = np.exp(sf._log_i0(kappa * r) - width * log_i0_k)
        for i in range(c):
            out[lo + i] = terms[i].mean() ** 2


def empirical_second_moment(model: str, params: dict, trials: int, seed: int,
                            budget: int = DEFAULT_ENUMERATION_BUDGET,
                            ) -> tuple[float, float]:
    """Monte Carlo estimate of E_Q[L^2] with jackknife standard error.

    Draws null datasets, evaluates the likelihood ratio L exactly (subset
    enumeration; the phase integral reduces to window-coverage geometry for
    hard-cluster signals and to I0 of the subset resultant for von Mises),
    and averages L^2. Requires C(N,K) (or C(n,k)) <= ``budget``.
    """
    trials = int(trials)
    if model.startswith("flat"):
        N, K = int(params["N"]), int(params["K"])
        n_subsets = math.comb(N, K)
    else:
        n, k = int(params["n"]), int(params["k"])
        n_subsets = math.comb(n, k)
    if n_subsets > budget:
        raise CapabilityError(
            f"exact enumeration needs {n_subsets} subsets, budget {budget}")
    rng = mod.rng_for(seed, _STREAM_SECOND_MOMENT)
    lsq = np.empty(trials)
    if model == "flat-hard":
        tau = float(params["tau"])
        if tau == 1.0:
            return 1.0, 0.0
        for t in range(trials):
            x = rng.random(N) * mod.TWO_PI
            lsq[t] = _flat_hard_L(x, K, tau) ** 2
    elif model == "flat-vm":
        kappa = float(params["kappa"])
        if kappa == 0.0:
            return 1.0, 0.0
        _vm_lsq(lsq, rng, N, det.revolving_door_subsets(N, K), kappa)
    elif model == "comm-hard":
        tau = float(params["tau"])
        if tau == 1.0:
            return 1.0, 0.0
        table = det.subset_edge_table(n, k)
        m = table.shape[1]
        w = mod.TWO_PI * tau
        for t in range(trials):
            x = rng.random(n * (n - 1) // 2) * mod.TWO_PI
            vals = np.sort(x[table], axis=1)
            frac = _gap_coverage_fraction(vals, w)
            lsq[t] = (frac.mean() * tau ** (-m)) ** 2
    elif model == "comm-vm":
        kappa = float(params["kappa"])
        if kappa == 0.0:
            return 1.0, 0.0
        _vm_lsq(lsq, rng, n * (n - 1) // 2, det.subset_edge_table(n, k), kappa)
    else:
        raise ParameterError(f"unknown model {model!r}")
    estimate = float(lsq.mean())
    # Jackknife SE of a sample mean reduces to s / sqrt(n).
    se = float(lsq.std(ddof=1) / math.sqrt(trials)) if trials > 1 else math.inf
    return estimate, se


# ---------------------------------------------------------------------------
# Config file parsing (flat "key = value" format)
# ---------------------------------------------------------------------------

_CONFIG_SCHEMA = {
    "model": str, "detector": str, "policy": str, "out": str,
    "N": int, "K": int, "n": int, "k": int, "trials": int, "seed": int,
    "threads": int,
    "tau": float, "kappa": float, "gamma": float, "sigma2": float,
    "epsilon": float, "theta": float, "c_n": float,
    "eps": float, "eps_n": float, "slack": float,
    "svg": bool,
}


def _parse_value(key: str, raw: str):
    typ = _CONFIG_SCHEMA[key]
    if typ is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    try:
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def parse_config_file(path: str) -> dict:
    """Parse a flat key = value config file.

    '#' starts a comment; values of keys prefixed ``sweep_`` are
    comma-separated axis lists (axes keep file order); unknown keys are
    errors. A ``gamma`` key or axis is the flat count threshold, so it sets
    ``policy`` to None; a file that also sets ``policy`` is an error.
    """
    out: dict = {}
    axes: list = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key.startswith("sweep_"):
                param = key[len("sweep_"):]
                if param not in _AXIS_PARAMS:
                    raise ConfigError(f"{path}:{lineno}: cannot sweep {param!r}")
                try:
                    vals = [float(v.strip()) for v in value.split(",")
                            if v.strip()]
                except ValueError as exc:
                    raise ConfigError(
                        f"{path}:{lineno}: bad value in {key}: {value!r}") from exc
                if not vals:
                    raise ConfigError(f"{path}:{lineno}: empty axis")
                axes.append((param, vals))
            elif key in _CONFIG_SCHEMA:
                out[key] = _parse_value(key, value)
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if "gamma" in out or any(param == "gamma" for param, _ in axes):
        if "policy" in out:
            raise ConfigError(f"{path}: set policy or gamma, not both")
        out["policy"] = None
    if axes:
        out["sweep_axes"] = axes
    return out


def config_from_dict(data: dict) -> ExperimentConfig:
    fields = {k: v for k, v in data.items()
              if k in ExperimentConfig.__dataclass_fields__}
    if "model" not in fields or "detector" not in fields:
        raise ConfigError("config needs at least model and detector")
    return ExperimentConfig(**fields)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


@dataclass
class VerifyCheck:
    key: str
    value: str
    passed: bool


@dataclass
class VerifyReport:
    suite: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, key: str, value, passed: bool = True) -> None:
        self.checks.append(VerifyCheck(key, _fmt(value) if not isinstance(value, str)
                                       else value, passed))

    def lines(self) -> list:
        out = [f"{c.key}={c.value} [{'ok' if c.passed else 'FAIL'}]"
               for c in self.checks]
        out.append(f"suite={self.suite} passed={str(self.passed).lower()}")
        return out


def verify_specfun(seed: int = DEFAULT_VERIFY_SEED) -> VerifyReport:
    """Special-function identities, inequalities, and calibration constants."""
    from scipy.integrate import quad

    rep = VerifyReport("specfun")
    for kappa in (0.1, 1.0, 5.0, 20.0, 100.0):
        val, _ = quad(lambda t: sf.rho(kappa, t), 0.0, mod.TWO_PI, limit=400,
                      points=[0.0, math.pi / 2, math.pi, 3 * math.pi / 2, mod.TWO_PI])
        err = abs(val / mod.TWO_PI - 1.0)
        rep.add(f"rho_mean_one_err_kappa_{kappa:g}", err, err < 1e-8)
    xs = np.linspace(25.0, 35.0, 101)
    rel0 = np.max(np.abs(sf._i0_series_scaled(xs) / sf._i0_asymptotic_scaled(xs) - 1.0))
    rel1 = np.max(np.abs(sf._i1_series_scaled(xs) / sf._i1_asymptotic_scaled(xs) - 1.0))
    rep.add("i0_crossover_rel_err", rel0, rel0 < 1e-6)
    rep.add("i1_crossover_rel_err", rel1, rel1 < 1e-6)
    grid = np.exp(np.linspace(math.log(1e-3), math.log(50.0), 200))
    ok = all(sf.log_bessel_i0(x) <= x * x / 4.0 + 1e-12 for x in grid)
    rep.add("i0_upper_exp_quarter_sq", "all-hold" if ok else "violated", ok)
    grid_hi = np.exp(np.linspace(0.0, math.log(500.0), 200))
    vals = [sf.bessel_i0_scaled(x) * math.sqrt(x) for x in grid_hi]
    ok = all(v >= 0.3 for v in vals)
    rep.add("i0_lower_scaled_min", min(vals), ok)
    a_err = abs(sf.mean_resultant(0.01) - 0.005)
    rep.add("mean_resultant_small_kappa_err", a_err, a_err < 1e-5)
    ks = np.linspace(0.0, 40.0, 81)
    a_vals = [sf.mean_resultant(x) for x in ks]
    r_vals = [sf.ratio_R(x) for x in ks]
    mono = all(b >= a - 1e-12 for a, b in zip(a_vals, a_vals[1:])) and \
        all(b >= a - 1e-9 for a, b in zip(r_vals, r_vals[1:]))
    rep.add("A_R_monotone", "yes" if mono else "no", mono)
    # Calibration constants: minimize the objective as displayed, compare
    # against the quoted reference pair, and record any discrepancy.
    c0, c2 = sf.compute_c0()
    grid_c = np.linspace(0.01, 10.0, 10_000)
    f_vals = np.array([sf.window_calibration_objective(c) for c in grid_c])
    signs = np.sign(np.diff(f_vals))
    flips = int(np.count_nonzero(np.diff(signs[signs != 0])))
    rep.add("c0_objective_sign_changes", flips, flips == 1)
    h = 1e-6
    deriv = (sf.window_calibration_objective(c2 + h)
             - sf.window_calibration_objective(c2 - h)) / (2 * h)
    rep.add("c0_first_order_condition", abs(deriv), abs(deriv) <= 1e-6)
    rep.add("c0_computed", c0)
    rep.add("c2_star_computed", c2)
    rep.add("c0_reference", th.C0_REFERENCE)
    rep.add("c2_star_reference", th.C2_STAR_REFERENCE)
    matches = abs(c0 - th.C0_REFERENCE) < 1e-3 and abs(c2 - th.C2_STAR_REFERENCE) < 1e-3
    rep.add("c0_matches_reference", "yes" if matches else "no", True)
    if not matches:
        rep.add("c0_discrepancy_recorded",
                f"objective-as-displayed minimizes to ({c0:.6f};{c2:.6f}) "
                f"not ({th.C0_REFERENCE};{th.C2_STAR_REFERENCE})", True)
    return rep


def verify_overlap(seed: int = DEFAULT_VERIFY_SEED) -> VerifyReport:
    """Overlap-law facts: convex-order domination and arc-overlap moments."""
    from scipy.integrate import quad

    rep = VerifyReport("overlap")
    worst = -math.inf
    violations = 0
    zs = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
    for N in range(2, 41):
        for K in range(1, min(N, 10) + 1):
            law = th.OverlapLaw(N, K)
            pmf = np.array([th.hypergeom_pmf(law, j) for j in range(K + 1)])
            for z in zs:
                lhs = float((pmf * np.power(z, np.arange(K + 1))).sum())
                rhs = (1.0 - K / N + K * z / N) ** K
                slack = lhs - rhs
                worst = max(worst, slack / max(rhs, 1e-300))
                if lhs > rhs * (1.0 + 1e-12) + 1e-12:
                    violations += 1
    rep.add("convex_order_violations", violations, violations == 0)
    rep.add("convex_order_worst_rel_slack", worst, True)
    max_err = 0.0
    for tau in (0.05, 0.3, 0.5, 0.65, 0.8, 0.95):
        kink = tau if tau <= 0.5 else 1.0 - tau  # delta is only piecewise smooth
        for j in (1, 2, 3, 5, 8):
            closed = th.delta_moment(tau, j)
            num, _ = quad(lambda u: th.delta_overlap(tau, u) ** j, 0.0, 0.5,
                          epsabs=1e-14, limit=200, points=[kink])
            max_err = max(max_err, abs(closed - 2.0 * num))
    rep.add("delta_moment_quadrature_err", max_err, max_err < 1e-12)
    law = th.OverlapLaw(30, 7)
    total = sum(th.hypergeom_pmf(law, j) for j in range(8))
    rep.add("hypergeom_pmf_sum_err", abs(total - 1.0), abs(total - 1.0) < 1e-12)
    # identity: E_Q[L^2] = 1 + sum_{j>=1} pmf_j (tau^{-2j} E[delta^j] - 1)
    ok = True
    for (N, K, tau) in ((8, 3, 0.3), (12, 4, 0.7), (20, 6, 0.45)):
        law = th.OverlapLaw(N, K)
        direct = th.second_moment_exact_flat_hard(N, K, tau)
        alt = 1.0 + sum(
            th.hypergeom_pmf(law, j)
            * (th.delta_moment(tau, j) / tau ** (2 * j) - 1.0)
            for j in range(1, K + 1))
        ok = ok and abs(direct - alt) <= 1e-9 * alt
    rep.add("second_moment_identity", "holds" if ok else "violated", ok)
    ok = True
    for tau in (0.05, 0.2, 0.5):
        for j in (1, 2, 4, 7):
            lhs = th.delta_moment(tau, j) / tau ** (2 * j)
            rhs = 2.0 / ((j + 1) * tau ** (j - 1))
            ok = ok and abs(lhs - rhs) <= 1e-12 * rhs
    rep.add("half_circle_ratio_closed_form", "holds" if ok else "violated", ok)
    return rep


def verify_second_moment(seed: int = DEFAULT_VERIFY_SEED, trials: int = 100_000) -> VerifyReport:
    """Exact second moments against direct likelihood-ratio simulation."""
    rep = VerifyReport("second-moment")
    for (N, K, tau) in ((8, 3, 0.3), (10, 2, 0.6)):
        exact = th.second_moment_exact_flat_hard(N, K, tau)
        est, se = empirical_second_moment(
            "flat-hard", {"N": N, "K": K, "tau": tau}, trials, seed)
        dev = abs(est - exact)
        rep.add(f"flat_hard_{N}_{K}_dev_over_se", dev / max(se, 1e-300),
                dev <= 3.0 * se)
        if tau <= 0.5:
            f = th.impossibility_functionals("flat-hard", N=N, K=K, tau=tau)
            ok = exact - 1.0 <= f["var_upper"].value + 1e-12
            rep.add(f"flat_hard_{N}_{K}_upper_bound", "holds" if ok else "violated", ok)
    for tau in (0.05, 0.15, 0.3, 0.45):
        f = th.impossibility_functionals("flat-hard", N=30, K=6, tau=tau)
        exact = th.second_moment_exact_flat_hard(30, 6, tau)
        ok = exact - 1.0 <= f["var_upper"].value + 1e-12
        rep.add(f"flat_hard_bound_tau_{tau:g}", "holds" if ok else "violated", ok)
    n, k, kappa = 10, 3, 0.5
    exact = th.second_moment_exact_comm_vm(n, k, kappa)
    est, se = empirical_second_moment(
        "comm-vm", {"n": n, "k": k, "kappa": kappa}, trials, seed)
    dev = abs(est - exact)
    rep.add("comm_vm_dev_over_se", dev / max(se, 1e-300), dev <= 3.0 * se)
    t = (k - 1) / 2.0 * sf.log_ratio_R(kappa)
    exp_bound = math.exp(k * k / n * math.expm1(t))
    rep.add("comm_vm_exp_bound", exp_bound, exact <= exp_bound + 1e-12)
    return rep


def _criterion8_cells() -> list:
    mk = ExperimentConfig
    return [
        mk(model="flat-hard", detector="interval", N=200, K=5, tau=0.001,
           policy="a1"),
        mk(model="flat-hard", detector="interval", N=500, K=100, tau=0.1,
           policy="a2"),
        mk(model="flat-hard", detector="interval", N=300, K=30, tau=0.05,
           policy="fixed:35"),
        mk(model="flat-hard", detector="known-theta", N=400, K=40, tau=0.05),
        mk(model="flat-vm", detector="interval", N=500, K=100, kappa=5.0,
           tau=0.2, policy="vm"),
        mk(model="flat-vm", detector="interval", N=300, K=60, kappa=12.0,
           tau=0.15, policy="vm"),
        mk(model="comm-hard", detector="interval", n=16, k=5, tau=0.05),
        mk(model="comm-vm", detector="interval", n=16, k=5, kappa=40.0,
           tau=0.1),
        mk(model="comm-vm", detector="coherence", n=12, k=10, kappa=20.0,
           epsilon=0.5),
        mk(model="comm-vm", detector="rayleigh", n=12, k=10, kappa=20.0),
        mk(model="comm-vm", detector="variance", n=10, k=6, kappa=30.0,
           sigma2=0.05),
        mk(model="comm-hard", detector="variance", n=10, k=6, tau=0.02,
           sigma2=0.05),
    ]


def verify_bounds(seed: int = DEFAULT_VERIFY_SEED, trials: int = 10_000,
                  threads: Optional[int] = None) -> VerifyReport:
    """Zero-miss guarantees and bound validity over the 12-cell desk grid."""
    rep = VerifyReport("bounds")
    zero_miss = [
        ExperimentConfig(model="flat-hard", detector="interval", N=100, K=5,
                         tau=0.01, policy="a1", trials=trials, seed=seed),
        ExperimentConfig(model="comm-hard", detector="interval", n=20, k=5,
                         tau=0.05, trials=trials, seed=seed),
    ]
    for i, config in enumerate(zero_miss):
        misses = trials - _run_chunk(config, _make_runner(config), 900 + i, 1,
                                     0, trials)
        rep.add(f"zero_miss_{config.model}_misses_of_{trials}", misses,
                misses == 0)
    for idx, cell in enumerate(_criterion8_cells()):
        config = replace(cell, trials=trials, seed=seed)
        point = estimate_errors(config, cell_index=idx, threads=threads)
        if point.failed is not None:
            rep.add(f"cell{idx}_{config.model}_{config.detector}",
                    point.failed, False)
            continue
        se_fa = math.sqrt(max(point.pfa_hat * (1 - point.pfa_hat), 0.0) / trials)
        se_miss = math.sqrt(max(point.pmiss_hat * (1 - point.pmiss_hat), 0.0)
                            / trials)
        ok_fa = point.pfa_hat <= point.bound_pfa + 3.0 * se_fa
        ok_miss = point.pmiss_hat <= point.bound_pmiss + 3.0 * se_miss
        rep.add(
            f"cell{idx}_{config.model}_{config.detector}_pfa",
            f"{point.pfa_hat:.5g}<=bound:{point.bound_pfa:.5g}", ok_fa)
        rep.add(
            f"cell{idx}_{config.model}_{config.detector}_pmiss",
            f"{point.pmiss_hat:.5g}<=bound:{point.bound_pmiss:.5g}", ok_miss)
    return rep


def verify_transitions(seed: int = DEFAULT_VERIFY_SEED, threads: Optional[int] = None) -> VerifyReport:
    """Empirical phase-transition trends for the three headline experiments."""
    rep = VerifyReport("transitions")
    # Flat hard-cluster scan across its threshold scaling.
    N = 2000
    K = math.ceil(N ** 0.4)
    ln_n = math.log(N)
    tau_easy = K * K / (6.0 * N * ln_n)
    tau_hard = min(K * K / (0.05 * N * ln_n), 0.9999)
    pts = {}
    for name, tau in (("easy", tau_easy), ("hard", tau_hard)):
        config = ExperimentConfig(model="flat-hard", detector="interval",
                                  N=N, K=K, tau=tau, policy="a2",
                                  trials=2000, seed=seed)
        pts[name] = estimate_errors(config, cell_index=0, threads=threads)
    rep.add("flat_hard_easy_total_err", pts["easy"].total_err,
            pts["easy"].total_err <= 0.1)
    rep.add("flat_hard_hard_total_err", pts["hard"].total_err,
            pts["hard"].total_err >= 0.8)
    var_exact = th.impossibility_functionals(
        "flat-hard", N=N, K=K, tau=tau_hard)["var_exact"].value
    consistent = var_exact < 0.05
    rep.add("flat_hard_hard_var_exact", var_exact, consistent)
    rep.add("flat_hard_hard_consistent_with_impossibility",
            "yes" if consistent else "no", consistent)
    # Von Mises community coherence vs Rayleigh.
    base = dict(n=16, k=8, trials=500, seed=seed, epsilon=0.5)
    coh_strong = estimate_errors(ExperimentConfig(
        model="comm-vm", detector="coherence", kappa=2.0, **base),
        cell_index=1, threads=threads)
    coh_weak = estimate_errors(ExperimentConfig(
        model="comm-vm", detector="coherence", kappa=0.1, **base),
        cell_index=2, threads=threads)
    ray_strong = estimate_errors(ExperimentConfig(
        model="comm-vm", detector="rayleigh", kappa=2.0, **base),
        cell_index=3, threads=threads)
    rep.add("comm_vm_coherence_strong_total_err", coh_strong.total_err,
            coh_strong.total_err <= 0.1)
    rep.add("comm_vm_coherence_weak_total_err", coh_weak.total_err,
            coh_weak.total_err >= 0.8)
    rep.add("comm_vm_rayleigh_total_err", ray_strong.total_err,
            ray_strong.total_err > coh_strong.total_err)
    # Known-phase test.
    N2, K2 = 4000, 60
    tau_a = (K2 * K2 / (N2 * math.log(N2))) / 5.0
    tau_b = min(1.0, K2 * K2 * math.log(N2) / N2)
    for name, tau, check in (("easy", tau_a, lambda t: t <= 0.1),
                             ("hard", tau_b, lambda t: t >= 0.8)):
        config = ExperimentConfig(model="flat-hard", detector="known-theta",
                                  N=N2, K=K2, tau=tau, trials=2000, seed=seed)
        point = estimate_errors(config, cell_index=4, threads=threads)
        rep.add(f"known_theta_{name}_total_err", point.total_err,
                check(point.total_err))
    return rep


VERIFY_SUITES = {
    "specfun": verify_specfun,
    "overlap": verify_overlap,
    "second-moment": verify_second_moment,
    "bounds": verify_bounds,
    "transitions": verify_transitions,
}


def verify(suite: str, seed: int = DEFAULT_VERIFY_SEED, threads: Optional[int] = None) -> list:
    """Run one named verification suite (or 'all'); returns VerifyReports."""
    if suite == "all":
        names = list(VERIFY_SUITES)
    elif suite in VERIFY_SUITES:
        names = [suite]
    else:
        raise ConfigError(
            f"unknown suite {suite!r}; choose from "
            f"{', '.join(list(VERIFY_SUITES) + ['all'])}")
    reports = []
    for name in names:
        fn = VERIFY_SUITES[name]
        if name in ("bounds", "transitions"):
            reports.append(fn(seed=seed, threads=threads))
        else:
            reports.append(fn(seed=seed))
    return reports
