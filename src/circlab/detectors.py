"""Test statistics and decision rules for planted circular structure.

Detectors (flat samples): scanning interval test, known-phase count test.
Detectors (edge samples): community interval test, coherence test, Rayleigh
test, variance test.

Conventions shared by every statistic:

* Windows are closed arcs [theta, theta + 2 pi tau]; generators sample
  half-open arcs, so boundary ties are measure zero for continuous data.
* Scanning suprema are attained at observed angles (the count as a function
  of the anchor is piecewise constant, and every window can be slid until
  its left end hits a data point without losing any point), so exact
  evaluation anchors at each observation.
* Subset searches are exact: maximum-coherence and minimum-variance scans
  enumerate all C(n,k) subsets in revolving-door (minimal-change) order and
  report the first optimizer in that order; k-clique feasibility uses branch
  and bound with degree pruning. Budgets turn oversized requests into
  CapabilityError, never into silent sampling.

All functions are pure; independent calls may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import CapabilityError, ConfigError, DomainError, ParameterError
from .models import (EdgeSample, FlatSample, canonical_angle, edge_pairs,
                     edge_position)
from .specfun import TWO_PI, arc_prob, mean_resultant

__all__ = [
    "Decision",
    "TestReport",
    "default_c_schedule",
    "resolve_flat_threshold",
    "coherence_threshold",
    "rayleigh_threshold",
    "interval_stat_flat",
    "interval_test_flat",
    "known_theta_test_flat",
    "interval_stat_community",
    "interval_test_community",
    "coherence_stat",
    "coherence_test",
    "rayleigh_test",
    "variance_stat",
    "variance_test",
    "sigma2_from_coherence_eps",
    "revolving_door_subsets",
    "subset_edge_table",
    "DEFAULT_SUBSET_BUDGET",
    "DEFAULT_CLIQUE_LIMIT_N",
]

DEFAULT_SUBSET_BUDGET = 100_000_000  # subset-edge operations per exact scan
DEFAULT_CLIQUE_LIMIT_N = 48          # exact community search size cap
_CHUNK_ROWS = 16_384


class Decision(Enum):
    REJECT_H0 = "reject"
    RETAIN_H0 = "retain"


@dataclass
class TestReport:
    """Outcome of one detector run.

    ``decision`` is REJECT_H0 exactly when ``statistic`` compares against
    ``threshold`` per ``comparison`` ("ge" or "le"); ``work_counter``
    counts candidate windows/subsets examined.
    """

    statistic: float
    threshold: float
    comparison: str = "ge"
    witness_theta: Optional[float] = None
    witness_subset: Optional[tuple] = None
    work_counter: int = 0

    @property
    def rejected(self) -> bool:
        if self.comparison == "ge":
            return self.statistic >= self.threshold
        if self.comparison == "le":
            return self.statistic <= self.threshold
        raise ParameterError(f"unknown comparison {self.comparison!r}")

    @property
    def decision(self) -> Decision:
        return Decision.REJECT_H0 if self.rejected else Decision.RETAIN_H0


# ---------------------------------------------------------------------------
# Threshold recipes
# ---------------------------------------------------------------------------


def default_c_schedule(N: int) -> float:
    """Default slowly growing threshold-margin schedule c_N = (log N)^(1/4)."""
    return math.log(N) ** 0.25


def _finite(value, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def resolve_flat_threshold(policy: Optional[str], N: int, tau: float,
                           K: Optional[int] = None,
                           kappa: Optional[float] = None,
                           gamma: Optional[float] = None,
                           c_n: Optional[float] = None) -> float:
    """Count threshold of the flat scan test under a policy string.

    ``a1``: K, the planted count. ``a2``: (N-K) tau + K - c_N sqrt((N-K) tau).
    ``vm``: N tau + g - c_N sqrt(N tau + g) with g = K (p_kappa(tau) - tau).
    ``fixed:<v>`` and ``custom:<v>``: v. No policy means ``gamma`` when it
    is given, else ``a1``; c_n None uses ``default_c_schedule(N)``. A
    non-finite ``gamma``, ``v`` or ``c_n`` is a ConfigError.
    """
    if policy is None and gamma is not None:
        return _finite(gamma, "gamma")
    if policy is None or policy == "a1":
        if K is None:
            raise ConfigError("policy a1 needs K")
        return float(K)
    if policy.startswith(("fixed:", "custom:")):
        value = policy.split(":", 1)[1]
        try:
            threshold = float(value)
        except ValueError as exc:
            raise ConfigError(
                f"policy {policy!r}: bad threshold {value!r}") from exc
        return _finite(threshold, f"policy {policy!r} threshold")
    if policy not in ("a2", "vm"):
        raise ConfigError(f"unknown policy {policy!r}")
    if K is None:
        raise ParameterError(f"policy {policy} needs K")
    c_n = default_c_schedule(N) if c_n is None else _finite(c_n, "c_n")
    if policy == "a2":
        base = (N - K) * tau
        return float(base + K - c_n * math.sqrt(base))
    if kappa is None:
        raise ParameterError("policy vm needs kappa")
    mean_h1 = N * tau + K * (arc_prob(kappa, tau) - tau)
    return float(mean_h1 - c_n * math.sqrt(mean_h1))


def coherence_threshold(k: int, kappa: float, epsilon: float = 0.5) -> float:
    """Coherence threshold beta = (1 - eps/4) C(k,2) A(kappa)."""
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError(f"kappa must be finite and > 0, got {kappa!r}")
    if not (0.0 < epsilon < 1.0):
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    m_edges = k * (k - 1) // 2
    return (1.0 - epsilon / 4.0) * m_edges * mean_resultant(kappa)


def rayleigh_threshold(k: int, kappa: float) -> float:
    """Rayleigh threshold mu1 / 2; mu1 = C(k,2) A(kappa) is the planted mean."""
    if not (kappa >= 0.0 and math.isfinite(kappa)):
        raise DomainError(f"kappa must be finite and >= 0, got {kappa!r}")
    mu1 = k * (k - 1) / 2.0 * mean_resultant(kappa)
    return mu1 / 2.0


# ---------------------------------------------------------------------------
# Flat interval (scan) test
# ---------------------------------------------------------------------------


def interval_stat_flat(sample: FlatSample, tau: float) -> tuple[int, float]:
    """Largest number of angles inside any closed arc of length 2 pi tau.

    Exact O(N log N) evaluation: sort, then a merged search over the doubled
    sequence counts, for each anchor point, the observations in
    [x_i, x_i + 2 pi tau]. Returns (count, anchor angle attaining it).
    """
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    angles = np.asarray(sample.angles, dtype=float)
    if angles.size == 0:
        raise ParameterError("empty sample")
    xs = np.sort(angles)
    n = xs.size
    if tau == 1.0:
        return n, float(xs[0])
    doubled = np.concatenate([xs, xs + TWO_PI])
    counts = np.searchsorted(doubled, xs + TWO_PI * tau, side="right") - np.arange(n)
    best = int(np.argmax(counts))
    # For tau just below 1, x + 2 pi tau can round up to x + 2 pi and reach
    # the anchor's own copy: that window holds every point, once.
    return min(int(counts[best]), n), float(xs[best])


def interval_test_flat(sample: FlatSample, tau: float, gamma: float) -> TestReport:
    """Scan test: reject H0 when some window of length 2 pi tau holds >= gamma points."""
    stat, witness = interval_stat_flat(sample, tau)
    return TestReport(
        statistic=float(stat), threshold=float(gamma),
        witness_theta=witness, work_counter=sample.n_points)


def known_theta_test_flat(sample: FlatSample, tau: float, gamma: float,
                          theta: float = 0.0) -> TestReport:
    """Count observations in the fixed closed arc [theta, theta + 2 pi tau].

    The anchor defaults to 0; by rotational symmetry a known planted phase
    can always be rotated there.
    """
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
    x = np.asarray(sample.angles, dtype=float)
    a = canonical_angle(theta)
    if tau == 1.0:
        count = x.size
    else:
        b = a + TWO_PI * tau
        if b <= TWO_PI:
            count = int(np.count_nonzero((x >= a) & (x <= b)))
        else:
            count = int(np.count_nonzero(x >= a) + np.count_nonzero(x <= b - TWO_PI))
    return TestReport(
        statistic=float(count), threshold=float(gamma),
        witness_theta=a, work_counter=1)


# ---------------------------------------------------------------------------
# Community interval test: window + exact k-clique search
# ---------------------------------------------------------------------------


def _find_k_clique(adj: dict, k: int) -> Optional[tuple]:
    """First k-clique in a graph given as {vertex: neighbor bitmask}, or None.

    Vertices are tried in decreasing window-subgraph degree (ties by index);
    branches are pruned when the current clique plus remaining candidates
    cannot reach size k.
    """
    if k <= 0:
        return ()
    # Iterative peeling: a k-clique member needs degree >= k-1.
    alive = set(adj)
    changed = True
    while changed:
        changed = False
        alive_mask = 0
        for v in alive:
            alive_mask |= 1 << v
        for v in list(alive):
            if (adj[v] & alive_mask).bit_count() < k - 1:
                alive.discard(v)
                changed = True
    if len(alive) < k:
        return None
    alive_mask = 0
    for v in alive:
        alive_mask |= 1 << v
    order = sorted(alive, key=lambda v: (-(adj[v] & alive_mask).bit_count(), v))
    found: list = []

    def expand(current: list, cand_mask: int) -> bool:
        if len(current) == k:
            found.extend(current)
            return True
        if len(current) + cand_mask.bit_count() < k:
            return False
        for v in order:
            bit = 1 << v
            if not (cand_mask & bit):
                continue
            if expand(current + [v], cand_mask & adj[v]):
                return True
            cand_mask &= ~bit
            if len(current) + cand_mask.bit_count() < k:
                return False
        return False

    if expand([], alive_mask):
        return tuple(sorted(found))
    return None


def interval_stat_community(sample: EdgeSample, k: int, tau: float,
                            ) -> tuple[bool, Optional[float], Optional[tuple]]:
    """Exact search for a k-set whose intra-edges all fit one closed window.

    Anchors the window at each observed edge angle in increasing order (any
    feasible window can be slid until its left end hits the smallest
    contained edge angle); for each anchor with at least C(k,2) in-window
    edges, runs exact k-clique search on the graph of in-window edges.
    Returns (found, anchor angle, vertex set) for the first witness.
    """
    n = sample.n
    k = int(k)
    if not (2 <= k <= n):
        raise ParameterError(f"need 2 <= k <= n, got k={k}, n={n}")
    if n > DEFAULT_CLIQUE_LIMIT_N:
        raise CapabilityError(
            f"exact community search is capped at n <= {DEFAULT_CLIQUE_LIMIT_N}; "
            f"got n = {n}. Use a smaller instance.")
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    m_need = k * (k - 1) // 2
    ang = np.asarray(sample.edge_angles, dtype=float)
    order = np.argsort(ang, kind="stable")
    sa = ang[order]
    pairs = edge_pairs(n)[order]
    m = sa.size
    if tau == 1.0:
        in_window = np.arange(m)
        adj = _window_adjacency(pairs[in_window])
        clique = _find_k_clique(adj, k)
        return True, float(sa[0]) if m else 0.0, clique
    doubled = np.concatenate([sa, sa + TWO_PI])
    counts = np.searchsorted(doubled, sa + TWO_PI * tau, side="right") - np.arange(m)
    candidates = np.flatnonzero(counts >= m_need)
    for idx in candidates:
        take = (np.arange(idx, idx + counts[idx])) % m
        adj = _window_adjacency(pairs[take])
        clique = _find_k_clique(adj, k)
        if clique is not None:
            return True, float(sa[idx]), clique
    return False, None, None


def _window_adjacency(edge_rows: np.ndarray) -> dict:
    adj: dict = {}
    for i, j in edge_rows:
        i, j = int(i), int(j)
        adj[i] = adj.get(i, 0) | (1 << j)
        adj[j] = adj.get(j, 0) | (1 << i)
    return adj


def interval_test_community(sample: EdgeSample, k: int, tau: float) -> TestReport:
    """Reject H0 when some window of length 2 pi tau holds a full k-set."""
    found, theta, subset = interval_stat_community(sample, k, tau)
    stat = 1.0 if found else 0.0
    return TestReport(
        statistic=stat, threshold=1.0,
        witness_theta=theta, witness_subset=subset,
        work_counter=sample.n_edges)


# ---------------------------------------------------------------------------
# Exact subset scans: coherence and variance
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def revolving_door_subsets(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) in revolving-door order, shape (C(n,k), k).

    Consecutive rows differ by exactly one element swapped, and the first
    optimizer reported by the subset scans refers to this row order. The
    order is R(n, k) = R(n-1, k), then reversed R(n-1, k-1) with n-1 appended
    (Knuth, TAOCP 7.2.1.3); each (n, k) block is built once per call.
    """
    n, k = int(n), int(k)
    if not (0 <= k <= n):
        raise ParameterError(f"need 0 <= k <= n, got n={n}, k={k}")
    blocks: dict = {}

    def rec(nn: int, kk: int) -> np.ndarray:
        block = blocks.get((nn, kk))
        if block is not None:
            return block
        if kk == 0:
            block = np.zeros((1, 0), dtype=np.int32)
        elif kk == nn:
            block = np.arange(nn, dtype=np.int32)[None, :]
        else:
            head, tail = rec(nn - 1, kk), rec(nn - 1, kk - 1)[::-1]
            block = np.empty((head.shape[0] + tail.shape[0], kk), dtype=np.int32)
            block[:head.shape[0]] = head
            block[head.shape[0]:, :-1] = tail
            block[head.shape[0]:, -1] = nn - 1
        blocks[(nn, kk)] = block
        return block

    return rec(n, k)


@lru_cache(maxsize=8)
def subset_edge_table(n: int, k: int) -> np.ndarray:
    """Edge indices of E(C) for every k-subset C, shape (C(n,k), C(k,2))."""
    subs = revolving_door_subsets(n, k)
    a_idx, b_idx = np.triu_indices(k, k=1)
    # The gathers are column-major, and that layout fixes numpy's summation
    # order in every scan over the table: keep it.
    return edge_position(n, subs[:, a_idx].astype(np.int64),
                         subs[:, b_idx].astype(np.int64)).astype(np.int32)


def _best_subset(sample: EdgeSample, k: int, budget: int, row_values,
                 maximize: bool) -> tuple[float, tuple]:
    """Exact optimum over k-subsets C of ``row_values`` on the rows of E(C).

    ``row_values`` maps a block of ``subset_edge_table`` rows to one value per
    row. Returns (optimum, first optimizer in revolving-door order); raises
    CapabilityError before any work when the scan exceeds ``budget``
    subset-edge operations.
    """
    n = sample.n
    total = math.comb(n, k) * math.comb(k, 2)
    if total > budget:
        raise CapabilityError(
            f"exact subset scan needs {total:.3g} subset-edge operations, "
            f"budget is {budget:.3g}")
    table = subset_edge_table(n, k)
    pick = np.argmax if maximize else np.argmin
    best_val = -math.inf if maximize else math.inf
    best_row = 0
    for lo in range(0, table.shape[0], _CHUNK_ROWS):
        vals = row_values(table[lo:lo + _CHUNK_ROWS])
        row = int(pick(vals))
        if (vals[row] > best_val) if maximize else (vals[row] < best_val):
            best_val = float(vals[row])
            best_row = lo + row
    subs = revolving_door_subsets(n, k)
    return best_val, tuple(int(v) for v in subs[best_row])


def coherence_stat(sample: EdgeSample, k: int,
                   budget: int = DEFAULT_SUBSET_BUDGET) -> tuple[float, tuple]:
    """Exact max over k-subsets C of | sum_{e in E(C)} exp(i X_e) |.

    Returns (maximum, first argmax subset in revolving-door order).
    """
    k = int(k)
    if not (2 <= k <= sample.n):
        raise ParameterError(f"need 2 <= k <= n, got k={k}, n={sample.n}")
    z = np.exp(1j * np.asarray(sample.edge_angles, dtype=float))
    return _best_subset(sample, k, budget,
                        lambda rows: np.abs(z[rows].sum(axis=1)), maximize=True)


def coherence_test(sample: EdgeSample, k: int, beta: float,
                   budget: int = DEFAULT_SUBSET_BUDGET) -> TestReport:
    """Reject H0 when the max subset coherence reaches beta (coherence_threshold)."""
    value, subset = coherence_stat(sample, k, budget=budget)
    return TestReport(
        statistic=value, threshold=float(beta),
        witness_subset=subset, work_counter=math.comb(sample.n, k))


def rayleigh_test(sample: EdgeSample, k: int, beta: float) -> TestReport:
    """Threshold the modulus of the phasor sum over all edges at beta.

    ``rayleigh_threshold`` gives the default beta. The statistic does not
    use ``k``; it stays so that every edge test takes (sample, k, ...). The
    witness angle is the direction of the resultant.
    """
    z = np.exp(1j * np.asarray(sample.edge_angles, dtype=float))
    s = complex(z.sum())
    stat = abs(s)
    return TestReport(
        statistic=stat, threshold=float(beta),
        witness_theta=canonical_angle(math.atan2(s.imag, s.real)),
        work_counter=sample.n_edges)


def variance_stat(sample: EdgeSample, k: int,
                  budget: int = DEFAULT_SUBSET_BUDGET) -> tuple[float, tuple]:
    """Exact min over k-subsets of the circular sample variance of E(C).

    V_C = min_theta (1/(K-1)) sum_{e in E(C)} d(X_e, theta)^2 with d the
    minimal angular difference and K = C(k,2). The inner minimum is exact:
    for each of the K circular cut points the values are linearized and the
    mean-squared deviation evaluated in O(1) from prefix sums; the best cut
    realizes the circular optimum.
    """
    k = int(k)
    if not (3 <= k <= sample.n):
        raise ParameterError(
            f"variance scan needs 3 <= k <= n, got k={k}, n={sample.n}")
    x = np.asarray(sample.edge_angles, dtype=float)
    m = k * (k - 1) // 2
    cuts = np.arange(m)

    def row_variances(rows: np.ndarray) -> np.ndarray:
        vals = np.sort(x[rows], axis=1)
        s1 = vals.sum(axis=1, keepdims=True)
        s2 = (vals * vals).sum(axis=1, keepdims=True)
        prefix = np.concatenate(
            [np.zeros((vals.shape[0], 1)), np.cumsum(vals, axis=1)[:, :-1]], axis=1)
        sum_y = s1 + TWO_PI * cuts
        sum_y2 = s2 + 2.0 * TWO_PI * prefix + TWO_PI * TWO_PI * cuts
        ss = np.maximum(sum_y2 - sum_y * sum_y / m, 0.0)
        return ss.min(axis=1) / (m - 1)

    return _best_subset(sample, k, budget, row_variances, maximize=False)


def variance_test(sample: EdgeSample, k: int, sigma2: float,
                  budget: int = DEFAULT_SUBSET_BUDGET) -> TestReport:
    """Reject H0 when some k-subset has circular sample variance <= sigma2."""
    if not (sigma2 > 0.0):
        raise DomainError(f"sigma2 must be > 0, got {sigma2!r}")
    value, subset = variance_stat(sample, k, budget=budget)
    return TestReport(
        statistic=value, threshold=float(sigma2), comparison="le",
        witness_subset=subset, work_counter=math.comb(sample.n, k))


def sigma2_from_coherence_eps(k: int, epsilon: float) -> float:
    """Variance threshold 2 eps / (K-1) matching a coherence threshold K - eps."""
    m_edges = k * (k - 1) // 2
    if m_edges < 2:
        raise ParameterError(f"need C(k,2) >= 2, got k={k}")
    return 2.0 * epsilon / (m_edges - 1)
