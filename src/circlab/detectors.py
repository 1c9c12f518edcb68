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
  report the first optimizer over all C(n,k) subsets in revolving-door
  (minimal-change) order, found by its closed-form rank. A subset's value
  adds its C(k,2) edge terms one after the other in ``triu_indices`` order,
  whatever block of subsets it is evaluated in; the scans walk one prefix
  tree of the sorted subsets. The coherence scan sums every subset within a
  rigorous rounding bound delta of the largest prefix-order sum again in
  that order.
  The variance scan evaluates only the subsets that d^2 >= 2 (1 - cos d)
  and the triangle inequality (a child adds k-1 unit phasors to its prefix)
  cannot put above an incumbent, some subset's value, so no minimizer or
  tie is lost. The community interval scan decides existence edge by edge,
  with a (k-2)-clique search through each anchor edge on a sliding bitmask
  adjacency, then reports the first window that holds a k-clique, with the
  first clique in its degree ranking, found by the same search on the same
  adjacency. Budgets turn oversized requests into CapabilityError, never
  into silent sampling.
* Monte Carlo trials only need a decision. Each test has one, which takes
  the angle rows of a chunk of trials (no sample objects) and returns their
  test's ``rejected`` as a bool array, without the statistics or their
  witnesses: ``interval_rejects_flat``, ``known_theta_rejects_flat``,
  ``interval_rejects_community``, ``coherence_rejects``,
  ``rayleigh_rejects`` and ``variance_rejects``. A decision checks its
  arguments once per chunk and raises its test's errors. The subset
  decisions prune against the threshold (the variance bar is sigma2), and
  ``coherence_rejects`` first peels one greedy witness per trial: one whose
  exact value reaches the threshold certifies a rejection, and the other
  trials run the pruned search.

All functions are pure; independent calls may run concurrently.
"""

from __future__ import annotations

import bisect
import itertools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (CapabilityError, ConfigError, ParameterError, check_bar,
                     check_kappa, check_margin, check_size, check_sizes,
                     check_window, finite, real)
from .models import (EdgeSample, FlatSample, canonical_angle, edge_pairs,
                     subset_edges, vertex_bases)
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
    "interval_rejects_flat",
    "known_theta_test_flat",
    "known_theta_rejects_flat",
    "interval_stat_community",
    "interval_test_community",
    "interval_rejects_community",
    "coherence_stat",
    "coherence_test",
    "coherence_rejects",
    "rayleigh_test",
    "rayleigh_rejects",
    "variance_stat",
    "variance_test",
    "variance_rejects",
    "revolving_door_subsets",
    "subset_edge_table",
    "DEFAULT_SUBSET_BUDGET",
    "DEFAULT_CLIQUE_LIMIT_N",
]

DEFAULT_SUBSET_BUDGET = 100_000_000  # subset-edge operations per exact scan
DEFAULT_CLIQUE_LIMIT_N = 48          # exact community search size cap
_CHUNK_ROWS = 16_384
# The variance statistic prunes from C(n,k) >= this on. Full scan -> pruned,
# per call on 2 vCPUs: 0.24 -> 0.46 ms at C(10,6) = 210, 0.47 -> 0.47 at 792.
_PRUNE_FLOOR = 500
# Edge angles per block of a coherence chunk's witnesses (1 MiB of phasors).
_WITNESS_ANGLES = 1 << 16
# Callers' threads that start one scan together would each build the same
# prefix levels before the cache holds them.
_TABLE_LOCK = threading.Lock()


class Decision(Enum):
    REJECT_H0 = "reject"
    RETAIN_H0 = "retain"


@dataclass
class TestReport:
    """Outcome of one detector run.

    ``decision`` is REJECT_H0 exactly when ``statistic`` compares against
    ``threshold`` per ``comparison`` ("ge" or "le"). ``work_counter`` is the
    size of the candidate set (C(n,k) for the subset scans), not the number
    of candidates a pruned search evaluates.
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
    non-finite ``gamma``, ``v`` or ``c_n``, or a missing K, is a ConfigError.
    The recipes check (N, K), then kappa and tau, as they use them.
    """
    if policy is None:
        if gamma is not None:
            return finite(gamma, "gamma", ConfigError)
        policy = "a1"
    if policy.startswith(("fixed:", "custom:")):
        value = policy.split(":", 1)[1]
        try:
            threshold = float(value)
        except ValueError as exc:
            raise ConfigError(
                f"policy {policy!r}: bad threshold {value!r}") from exc
        return finite(threshold, f"policy {policy!r} threshold", ConfigError)
    if policy not in ("a1", "a2", "vm"):
        raise ConfigError(f"unknown policy {policy!r}")
    if K is None:
        raise ConfigError(f"policy {policy} needs K")
    N, K = check_sizes(N, K)
    if policy == "a1":
        return float(K)
    c_n = (default_c_schedule(N) if c_n is None
           else finite(c_n, "c_n", ConfigError))
    if policy == "a2":
        base = (N - K) * check_window(tau)
        return float(base + K - c_n * math.sqrt(base))
    if kappa is None:
        raise ParameterError("policy vm needs kappa")
    mean_h1 = K * (arc_prob(kappa, tau) - tau) + N * tau
    return float(mean_h1 - c_n * math.sqrt(mean_h1))


def coherence_threshold(k: int, kappa: float, epsilon: float = 0.5) -> float:
    """Coherence threshold beta = (1 - eps/4) C(k,2) A(kappa)."""
    kappa = check_kappa(kappa, positive=True)
    epsilon, k = check_margin(epsilon), check_size(k, "k")
    m_edges = k * (k - 1) // 2
    return (1.0 - epsilon / 4.0) * m_edges * mean_resultant(kappa)


def rayleigh_threshold(k: int, kappa: float) -> float:
    """Rayleigh threshold mu1 / 2; mu1 = C(k,2) A(kappa) is the planted mean."""
    kappa, k = check_kappa(kappa), check_size(k, "k")
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
    tau = check_window(tau)
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


def interval_rejects_flat(rows, tau: float, gamma: float) -> np.ndarray:
    """``interval_test_flat(FlatSample(x), tau, gamma).rejected`` of each angle
    row x of ``rows`` (an iterable of 1-d arrays), as a bool array.

    With c = ceil(gamma), some window holds c points exactly when the sorted
    angles have ``doubled[i + c - 1] <= xs[i] + 2 pi tau`` for some anchor i:
    the comparison ``searchsorted(side="right")`` makes in
    ``interval_stat_flat``. The last c - 1 anchors reach past 2 pi, into the
    shifted copies ``xs + 2 pi``. One probe per anchor decides a row. Each
    row is decided before the next is taken, so the rows may share a buffer.
    """
    tau, gamma = check_window(tau), real(gamma, "gamma")
    return np.fromiter((_flat_rejects(x, tau, gamma) for x in rows), dtype=bool)


def _flat_rejects(x: np.ndarray, tau: float, gamma: float) -> bool:
    n = x.size
    if not gamma <= n:  # also NaN: the count never reaches it
        return False
    if gamma <= 1.0 or tau == 1.0:
        return True
    c = math.ceil(gamma)
    xs = np.sort(x)
    ends = xs + TWO_PI * tau
    head = n - c + 1
    if (xs[c - 1:] <= ends[:head]).any():
        return True
    return bool((xs[:c - 1] + TWO_PI <= ends[head:]).any())


def interval_test_flat(sample: FlatSample, tau: float, gamma: float) -> TestReport:
    """Scan test: reject H0 when some window of length 2 pi tau holds >= gamma points."""
    stat, witness = interval_stat_flat(sample, tau)
    return TestReport(
        statistic=float(stat), threshold=real(gamma, "gamma"),
        witness_theta=witness, work_counter=sample.n_points)


def known_theta_test_flat(sample: FlatSample, tau: float, gamma: float,
                          theta: float = 0.0) -> TestReport:
    """Count observations in the fixed closed arc [theta, theta + 2 pi tau].

    The anchor defaults to 0; by rotational symmetry a known planted phase
    can always be rotated there.
    """
    tau, gamma = check_window(tau), real(gamma, "gamma")
    a = _anchor(theta)
    return TestReport(
        statistic=float(_arc_count(sample.angles, tau, a)), threshold=gamma,
        witness_theta=a, work_counter=1)


def known_theta_rejects_flat(rows, tau: float, gamma: float,
                             thetas) -> np.ndarray:
    """``known_theta_test_flat(FlatSample(x), tau, gamma, theta).rejected`` of
    each angle row x of ``rows`` at its phase ``thetas[i]``, as a bool array.

    ``thetas[i]`` is read after row i is taken from ``rows``, so a caller may
    fill both as it draws each trial; the rows may share a buffer.
    """
    tau, gamma = check_window(tau), real(gamma, "gamma")
    return np.fromiter((_arc_count(x, tau, _anchor(thetas[i])) >= gamma
                        for i, x in enumerate(rows)), dtype=bool)


def _anchor(theta) -> float:
    """A finite phase reduced into [0, 2pi); else a DomainError."""
    return canonical_angle(finite(theta, "theta"))


def _arc_count(x: np.ndarray, tau: float, a: float) -> int:
    """Angles of x in the closed arc [a, a + 2 pi tau], a in [0, 2pi)."""
    if tau == 1.0:
        return x.size
    b = a + TWO_PI * tau
    if b <= TWO_PI:
        return int(np.count_nonzero((x >= a) & (x <= b)))
    return int(np.count_nonzero(x >= a) + np.count_nonzero(x <= b - TWO_PI))


# ---------------------------------------------------------------------------
# Community interval test: window + exact k-clique search
# ---------------------------------------------------------------------------


def _find_k_clique(adj: list, k: int) -> Optional[tuple]:
    """First k-clique of the graph with neighbour bitmasks ``adj``, or None.

    Vertices of degree < k-1 are peeled until none is left, and the rest are
    ranked by decreasing degree, ties by index. Of the cliques written as
    increasing sequences in that ranking, the lexicographically first is
    returned: one pass in rank order keeps a vertex when the later candidates
    it sees still hold the rest of a clique. Needs k >= 2; ``adj`` is not
    modified.
    """
    alive = (1 << len(adj)) - 1
    changed = True
    while changed:  # the peel ends at the (k-1)-core whatever the order
        changed = False
        for v in range(len(adj)):
            if alive >> v & 1 and (adj[v] & alive).bit_count() < k - 1:
                alive ^= 1 << v
                changed = True
    if alive.bit_count() < k:
        return None
    order = sorted((v for v in range(len(adj)) if alive >> v & 1),
                   key=lambda v: (-(adj[v] & alive).bit_count(), v))
    clique: list = []
    cand = alive
    for v in order:
        if cand >> v & 1:
            cand ^= 1 << v
            if _has_clique(adj, cand & adj[v], k - 1 - len(clique)):
                clique.append(v)
                if len(clique) == k:
                    return tuple(sorted(clique))
                cand &= adj[v]
    return None


def _has_clique(adj: list, cand: int, r: int) -> bool:
    """Whether the vertex bitmask ``cand`` holds an r-clique of ``adj``."""
    if r == 0:
        return True
    while cand.bit_count() >= r:
        low = cand & -cand
        cand ^= low
        if r == 1 or _has_clique(adj, cand & adj[low.bit_length() - 1], r - 1):
            return True
    return False


def _sliding_adjacency(edges: list, n: int, ends: list, start: int):
    """Yield (j, adj) for anchors j = start .. len(ends) - 1.

    ``edges`` lists the (a, b) pairs in sorted-angle order twice over, and
    ``adj[v]`` is the neighbour bitmask of v over edges[j:ends[j]]. ``ends``
    is non-decreasing and no window holds an edge twice, so each step toggles
    edge j - 1 out and the entering edges in; ``adj`` is updated in place.
    """
    adj = [0] * n
    hi = start
    for j in range(start, len(ends)):
        if j > start:
            a, b = edges[j - 1]
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
        end = ends[j]
        while hi < end:
            a, b = edges[hi]
            adj[a] ^= 1 << b
            adj[b] ^= 1 << a
            hi += 1
        yield j, adj


@lru_cache(maxsize=DEFAULT_CLIQUE_LIMIT_N)
def _edge_list(n: int) -> tuple:
    """``edge_pairs(n)`` as a tuple of (i, j) int pairs."""
    return tuple(map(tuple, edge_pairs(n).tolist()))


def _check_community(n: int, k, tau) -> tuple:
    """Check a community scan's k, size and window; (k, tau)."""
    k = check_sizes(n, k, edges=True)[1]
    if n > DEFAULT_CLIQUE_LIMIT_N:
        raise CapabilityError(
            f"exact community search is capped at n <= {DEFAULT_CLIQUE_LIMIT_N}; "
            f"got n = {n}. Use a smaller instance.")
    return k, check_window(tau)


def _community_windows(ang: np.ndarray, n: int, tau: float) -> tuple:
    """Lay out the windows of a community scan of checked arguments.

    Returns (sorted edge angles, ends, edges): window i holds the edges at
    sorted positions [i, ends[i]) mod m, and ``edges`` lists their (a, b)
    pairs in sorted-angle order twice over.
    """
    order = np.argsort(ang, kind="stable")
    sa = ang[order]
    m = sa.size
    doubled = np.concatenate([sa, sa + TWO_PI])
    counts = np.searchsorted(doubled, sa + TWO_PI * tau, side="right") - np.arange(m)
    # The wrapped anchors p = m .. ends[m-1] - 1 hold [p, ends[m-1]), a tail
    # of window m-1 that lies past 2 pi.
    ends = (np.arange(m) + np.minimum(counts, m)).tolist()
    ends += [ends[-1]] * (ends[-1] - m)
    pair_of = _edge_list(n)
    return sa, ends, [pair_of[q] for q in order.tolist()] * 2


def _first_anchor(edges: list, n: int, ends: list, k: int) -> tuple:
    """Pass 1 of the community scan: (the first anchor j whose edge closes a
    k-clique in window j, or None; the number of clique searches run)."""
    m_need = k * (k - 1) // 2
    searches = 0
    for j, adj in _sliding_adjacency(edges, n, ends, 0):
        if ends[j] - j >= m_need:
            searches += 1
            a, b = edges[j]
            if _has_clique(adj, adj[a] & adj[b], k - 2):
                return j, searches
    return None, searches


def _community_scan(sample: EdgeSample, k: int, tau: float) -> tuple:
    """``interval_stat_community`` plus the number of clique searches run."""
    n = sample.n
    k, tau = _check_community(n, k, tau)
    sa, ends, edges = _community_windows(sample.edge_angles, n, tau)
    m = sa.size
    j, searches = _first_anchor(edges, n, ends, k)
    if j is None:
        return False, None, None, searches
    first = bisect.bisect_right(ends, j, 0, m)
    for i, adj in _sliding_adjacency(edges, n, ends[:min(j, m - 1) + 1], first):
        if ends[i] - i >= k * (k - 1) // 2:
            searches += 1
            clique = _find_k_clique(adj, k)
            if clique is not None:
                return True, float(sa[i]), clique, searches
    raise AssertionError("anchored clique outside every candidate window")


def _vertices(m: int) -> int:
    """The n of a row of C(n,2) edge angles, n >= 2; else a ParameterError."""
    n = (1 + math.isqrt(1 + 8 * m)) // 2
    if n < 2 or n * (n - 1) // 2 != m:
        raise ParameterError(f"{m} edge angles are not the C(n,2) of any n >= 2")
    return n


def _edge_chunk(rows) -> tuple:
    """(n, the rows) of a chunk of edge-angle rows; n is None when it is empty.

    n comes from the first row's length, and a later row of another length
    is a ParameterError when it is taken. Rows are handed on one at a time,
    as they are taken from ``rows``.
    """
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return None, iter(())
    m = len(first)
    n = _vertices(m)

    def checked():
        yield first
        for x in rows:
            if len(x) != m:
                raise ParameterError(f"a chunk's rows must share n = {n}")
            yield x
    return n, checked()


def interval_rejects_community(rows, k: int, tau: float) -> np.ndarray:
    """``interval_test_community(EdgeSample(n, x), k, tau).rejected`` of each
    edge-angle row x of ``rows``, as a bool array: pass 1 of the scan, up to
    its first hit, without the window or its clique. The arguments are
    checked once, with the errors of ``interval_test_community``; the rows
    may share a buffer."""
    n, rows = _edge_chunk(rows)
    if n is None:
        return np.zeros(0, dtype=bool)
    k, tau = _check_community(n, k, tau)
    return np.fromiter(
        (_first_anchor(edges, n, ends, k)[0] is not None
         for _, ends, edges in (_community_windows(x, n, tau) for x in rows)),
        dtype=bool)


def interval_stat_community(sample: EdgeSample, k: int, tau: float,
                            ) -> tuple[bool, Optional[float], Optional[tuple]]:
    """Exact search for a k-set whose intra-edges all fit one closed window.

    Window i is anchored at the i-th smallest edge angle (stable order) and
    holds every edge in [x_i, x_i + 2 pi tau], unrolled past 2 pi; any
    feasible window can be slid until its left end hits its smallest edge.
    Returns (found, anchor angle, vertex set): the first window, in anchor
    order, that holds a k-clique, and its first clique in the order of
    ``_find_k_clique`` (peeled, ranked by decreasing degree).

    Lemma: window ends are non-decreasing, so a clique inside window i also
    fits the window anchored at its own smallest unrolled position p >= i:
    window p when p < m, and the part [p, end of window m-1) of window m-1
    when the clique lies wholly past 2 pi (rounding can put such a clique in
    window i but not in window p - m). Pass 1 slides one bitmask adjacency
    over these anchors, 0 .. m-1 and then the wrapped ones, and at anchor j,
    edge {a, b}, looks for a (k-2)-clique in adj[a] & adj[b]; the first hit
    j* bounds the answer. A window that ends at or before j* holds no
    clique, so pass 2 searches only the windows i <= j* that reach past j*,
    in order, on the same sliding adjacency, and returns the first hit. At
    tau = 1 every window holds all edges, so anchor 0 and window 0 hit.
    """
    return _community_scan(sample, k, tau)[:3]


def interval_test_community(sample: EdgeSample, k: int, tau: float) -> TestReport:
    """Reject H0 when some window of length 2 pi tau holds a full k-set.

    ``work_counter`` is the number of clique searches: anchored ones in
    pass 1 plus full window searches in pass 2; at tau = 1 it is 2.
    """
    found, theta, subset, searches = _community_scan(sample, k, tau)
    stat = 1.0 if found else 0.0
    return TestReport(
        statistic=stat, threshold=1.0,
        witness_theta=theta, witness_subset=subset,
        work_counter=searches)


# ---------------------------------------------------------------------------
# Exact subset scans: coherence and variance
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def revolving_door_subsets(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n) in revolving-door order, shape (C(n,k), k).

    Consecutive rows differ by exactly one element swapped, and the first
    optimizer reported by the subset scans refers to this row order. Each
    sorted subset of ``_prefix_levels`` is placed at its row
    ``_revolving_door_rank``.
    """
    n, k = int(n), int(k)
    if not (0 <= k <= n):
        raise ParameterError(f"need 0 <= k <= n, got n={n}, k={k}")
    if k == 0:
        return np.zeros((1, 0), dtype=np.int32)
    # Uncached: the levels of sizes only the tables use need not stay.
    lex = _level_subsets(_prefix_levels.__wrapped__(n, k)[0],
                         np.arange(math.comb(n, k)))
    out = np.empty_like(lex)
    out[_revolving_door_rank(lex)] = lex
    return out


@lru_cache(maxsize=8)
def subset_edge_table(n: int, k: int) -> np.ndarray:
    """Edge indices of E(C) for every k-subset C, shape (C(n,k), C(k,2)).

    Row r lists the edges {s_a, s_b}, a < b, of the r-th revolving-door
    subset in ``triu_indices`` order. The table is column-major; of all its
    users, only the community blocks of ``lab._null_lr`` (comm-vm's phasor
    sums, comm-hard's gap sums) take their summation order from that
    layout. It is filled in int32 blocks of _CHUNK_ROWS rows.
    """
    subs = revolving_door_subsets(n, k)
    table = np.empty((subs.shape[0], k * (k - 1) // 2), dtype=np.int32, order="F")
    for lo in range(0, subs.shape[0], _CHUNK_ROWS):
        table[lo:lo + _CHUNK_ROWS] = subset_edges(n, subs[lo:lo + _CHUNK_ROWS])
    return table


@lru_cache(maxsize=8)
def _prefix_levels(n: int, k: int) -> tuple:
    """Prefix tree of the sorted k-subsets of range(n): (levels 2 .. k, offsets).

    Level j lists, in lexicographic order, the sorted j-subsets
    s_0 < ... < s_{j-1} that extend to a k-subset (s_{j-1} <= n-k+j-1), as
    (parent, last, cols): the row of the prefix s_0 .. s_{j-2} in level
    j-1, the new largest vertex s_{j-1}, and the positions of the edges
    {s_i, s_{j-1}}, i < j-1, one column-major int32 column each. Level 1 is
    implicit (row p is the vertex p, p <= n-k) and level k holds all C(n,k)
    subsets. The children of (k-1)-prefix p are the level-k rows offsets[p]
    .. offsets[p+1] - 1. Cached calls go through ``_tree``, under _TABLE_LOCK.
    """
    vertex_base = vertex_bases(n)
    prev_last = np.arange(n - k + 1, dtype=np.int32)
    levels, prev_cols = [], ()  # level 1 has no edge columns
    ends = np.array([n - k + 1])  # level 1: the children of the empty prefix
    for j in range(2, k + 1):
        counts = (n - k + j - 1) - prev_last
        ends = np.cumsum(counts)
        parent = np.repeat(np.arange(prev_last.size, dtype=np.int32), counts)
        # The children of one parent take the vertices parent_last + 1, + 2, ...
        skip = (ends - counts - prev_last - 1).astype(np.int32)
        last = np.arange(parent.size, dtype=np.int32) - np.repeat(skip, counts)
        cols = np.empty((parent.size, j - 1), dtype=np.int32, order="F")
        # In blocks: base[s_i] is the parent's column i less its last vertex.
        for lo in range(0, parent.size, _CHUNK_ROWS):
            up, rows = parent[lo:lo + _CHUNK_ROWS], slice(lo, lo + _CHUNK_ROWS)
            up_last = prev_last.take(up)
            for i, base in enumerate([*(c.take(up) - up_last for c in prev_cols),
                                      vertex_base.take(up_last)]):
                np.add(base, last[rows], out=cols[rows, i])
        levels.append((parent, last, cols))
        prev_last, prev_cols = last, cols.T
    return tuple(levels), np.concatenate([[0], ends])


def _level_sums(z: np.ndarray, levels: tuple, roots: int) -> np.ndarray:
    """Phasor sum of every subset of the last of ``levels``, in prefix order.

    Each j-subset's sum is its parent's plus its j-1 edges to the new vertex,
    added one after the other; ``roots`` is the size of level 1 (n-k+1 rows,
    no edges), which is returned when ``levels`` is empty.
    """
    sums = np.zeros(roots, dtype=complex)
    for parent, _, cols in levels:
        level = np.empty(parent.size, dtype=complex)
        # Blocks keep the gathers and adds in cache.
        for lo in range(0, parent.size, _CHUNK_ROWS):
            block = sums.take(parent[lo:lo + _CHUNK_ROWS])
            for col in cols[lo:lo + _CHUNK_ROWS].T:
                block += z.take(col)
            level[lo:lo + _CHUNK_ROWS] = block
        sums = level
    return sums


def _children(z: np.ndarray, levels: tuple, sums: np.ndarray,
              offsets: np.ndarray, parents: np.ndarray, first: int = 0):
    """Yield the level-k rows below ``parents`` and their moduli: below the
    first ``first`` parents, then in groups of about _CHUNK_ROWS rows that
    stay in cache. A child's sum is its parent's in ``sums`` plus its k-1
    new edges, added as ``_level_sums`` adds them."""
    ends = [first] if first else []
    rest = parents[first:]
    if rest.size:
        sizes = np.cumsum(offsets[rest + 1] - offsets[rest])
        bounds = np.arange(_CHUNK_ROWS, int(sizes[-1]), _CHUNK_ROWS)
        ends += (np.searchsorted(sizes, bounds, side="right") + first).tolist()
        ends.append(parents.size)
        del sizes  # hold neither them nor, as np.split would, every group
    for lo, hi in zip([0, *ends], ends):
        group = parents[lo:hi]
        starts = offsets[group]
        counts = offsets[group + 1] - starts
        rows = (np.repeat(starts - (np.cumsum(counts) - counts), counts)
                + np.arange(int(counts.sum())))
        block = np.repeat(sums[group], counts)
        for col in levels[-1][2].T:
            block += z.take(col.take(rows))
        yield rows, np.abs(block)


def _revolving_door_rank(subsets: np.ndarray) -> np.ndarray:
    """Revolving-door rank of each sorted k-subset, one per row.

    The order is R(n, k) = R(n-1, k), then reversed R(n-1, k-1) with n-1
    appended (Knuth, TAOCP 7.2.1.3), so a subset with largest element s
    follows the C(s, k) rows of R(s, k) in R(s+1, k):
    r_k = C(s_{k-1} + 1, k) - 1 - r_{k-1}, with r_0 = 0.
    """
    rank = np.zeros(subsets.shape[0], dtype=np.int64)
    top = int(subsets.max(initial=0)) + 2
    for j in range(1, subsets.shape[1] + 1):
        comb = np.array([math.comb(a, j) for a in range(top)], dtype=np.int64)
        rank = comb[subsets[:, j - 1] + 1] - 1 - rank
    return rank


def _level_subsets(levels: tuple, rows: np.ndarray) -> np.ndarray:
    """The sorted subsets at ``rows`` of the last of ``levels``, one int32 row each."""
    subsets = np.empty((rows.size, len(levels) + 1), dtype=np.int32)
    for j in range(len(levels), 0, -1):
        parent, last, _ = levels[j - 1]
        subsets[:, j] = last.take(rows)
        rows = parent.take(rows)
    subsets[:, 0] = rows
    return subsets


def _door_first(subsets: np.ndarray) -> tuple:
    """The row of ``subsets`` that comes first in revolving-door order."""
    best = int(np.argmin(_revolving_door_rank(subsets))) if len(subsets) > 1 else 0
    return tuple(int(v) for v in subsets[best])


def coherence_stat(sample: EdgeSample, k: int) -> tuple[float, tuple]:
    """Exact max over k-subsets C of | sum_{e in E(C)} exp(i X_e) |.

    Returns (maximum, first argmax subset in revolving-door order). A
    subset's value adds its phasors one after the other in
    ``subset_edge_table`` row order, in a block of any size.

    The scan walks ``_prefix_levels``: a j-subset's sum is its parent's plus
    its j-1 edges to the new vertex, which adds the same m = C(k,2) phasors
    in another order. Any order of m unit phasors is within gamma_{m-1} m
    (gamma_j = j u / (1 - j u), u = 2^-53) of the exact sum in each
    component, and np.abs adds at most an ulp (<= 2 m u), so the two orders'
    moduli differ by at most 2 sqrt(2) gamma_{m-1} m + 4 m u. Twice that is
    below m^2 2^-50, and every subset within delta = m^2 2^-48 of the largest
    prefix-order modulus is a candidate, so every maximizer is one (the
    fourfold margin covers the rounding of the threshold itself). The
    candidates are summed again in table order, and the exact maximum and
    its first maximizer in revolving-door order are returned.
    """
    k, n, x, levels, _ = _scan_inputs(sample, k, 2)
    z = np.exp(1j * x)
    fast = np.abs(_level_sums(z, levels, n - k + 1))
    m = k * (k - 1) // 2
    subsets = _level_subsets(
        levels, np.flatnonzero(fast >= fast.max() - m * m * 2.0 ** -48))
    values = _table_coherence(z, n, subsets)
    value = values.max()
    return float(value), _door_first(subsets[values == value])


def _check_scan(n: int, k, low: int) -> int:
    """Check k (low <= k <= n) and the budget of an exact subset scan; k."""
    k = check_sizes(n, k, edges=True, low=low)[1]
    total = math.comb(n, k) * math.comb(k, 2)
    if total > DEFAULT_SUBSET_BUDGET:
        raise CapabilityError(
            f"exact subset scan needs {total:.3g} subset-edge operations, "
            f"budget is {DEFAULT_SUBSET_BUDGET:.3g}")
    return k


def _tree(n: int, k: int) -> tuple:
    """(prefix levels, child offsets) of ``_prefix_levels``, built once."""
    with _TABLE_LOCK:
        return _prefix_levels(n, k)


def _scan_inputs(sample: EdgeSample, k: int, low: int) -> tuple:
    """``_check_scan``, then (k, n, edge angles, prefix levels, child offsets)."""
    k, n = _check_scan(sample.n, k, low), sample.n
    return k, n, sample.edge_angles, *_tree(n, k)


def _table_coherence(z: np.ndarray, n: int, subsets: np.ndarray) -> np.ndarray:
    """Modulus of each sorted subset's phasor sum, added in table order."""
    values = np.empty(subsets.shape[0])
    for lo in range(0, values.size, _CHUNK_ROWS):  # every row may be a candidate
        edges = subset_edges(n, subsets[lo:lo + _CHUNK_ROWS])
        values[lo:lo + _CHUNK_ROWS] = np.abs(np.cumsum(z[edges], axis=1)[:, -1])
    return values


def _prefix_rejects(z: np.ndarray, n: int, k: int, beta: float, levels: tuple,
                    offsets: np.ndarray) -> bool:
    """``coherence_test(sample, k, beta).rejected`` of the sample whose edge
    phasors are z, by a search pruned against beta, without the statistic.

    The statistic is the largest table-order modulus t_C (every maximizer is
    one of ``coherence_stat``'s candidates), so the test rejects exactly when
    some t_C >= beta. With m = C(k,2) and delta = m^2 2^-48, any order of a
    subset's phasors gives a modulus within delta/16 of their exact sum's
    (the bound in ``coherence_stat``), so the prefix-order modulus f_C is
    within delta/8 of t_C. A k-subset adds k-1 unit phasors (to rounding) to
    its (k-1)-prefix P, so |f_C - f_P| < k - 1 + delta/4.

    The prefix levels are built up to k-1 by ``_level_sums``. A prefix with
    f_P >= beta + k - 1 + 2 delta has only children with f_C > beta + delta,
    hence t_C > beta: the test rejects. Prefixes with f_P < beta - k + 1 -
    2 delta have only children with t_C < beta and are dropped. The others
    are expanded by decreasing f_P, the first 8 alone, so a planted subset
    usually decides in the first small block. A child with f_C >= beta +
    delta rejects; one with f_C < beta - delta cannot; only the children in
    between are summed again in table order by ``_table_coherence``. The
    rounding of these thresholds is far below delta while |beta| <= 2m;
    beyond that every subset falls on one side.
    """
    m = k * (k - 1) // 2
    delta = m * m * 2.0 ** -48
    sums = _level_sums(z, levels[:-1], n - k + 1)
    fast = np.abs(sums)
    reach = k - 1 + 2.0 * delta
    if (fast >= beta + reach).any():
        return True
    live = np.flatnonzero(fast >= beta - reach)
    if live.size == 0:
        return False
    live = live[np.argpartition(-fast[live], min(7, live.size - 1))]
    band = []
    for rows, moduli in _children(z, levels, sums, offsets, live, 8):
        if (moduli >= beta + delta).any():
            return True
        band.append(rows[moduli >= beta - delta])
    subsets = _level_subsets(levels, np.concatenate(band))
    return bool((_table_coherence(z, n, subsets) >= beta).any())


@lru_cache(maxsize=8)
def _witness_index(n: int) -> np.ndarray:
    """``pos[i, j]``, the position of edge {i, j} among n vertices; ``pos[i,
    i]`` is C(n,2), the zero that pads a phasor row."""
    m = n * (n - 1) // 2
    pos = np.full((n, n), m, dtype=np.int32)
    a, b = np.triu_indices(n, 1)
    pos[a, b] = pos[b, a] = np.arange(m, dtype=np.int32)
    pos.flags.writeable = False
    return pos


def _phasor_block(x: np.ndarray) -> np.ndarray:
    """exp(i X_e) of each row of edge angles x, padded by one zero.

    Each phasor is ``np.exp(1j * x)`` of its angle, as the scans take it.
    """
    z = np.zeros((x.shape[0], x.shape[1] + 1), dtype=complex)
    np.exp(np.multiply(x, 1j, out=z[:, :-1]), out=z[:, :-1])
    return z


def _greedy_witnesses(z: np.ndarray, n: int, k: int) -> tuple:
    """One peeled k-subset of each row of a ``_phasor_block``, and its
    modulus as ``_table_coherence`` sums it.

    A row starts from all n vertices, with S its phasor sum and g_v the sum
    of vertex v's edges. n - k times it drops the live vertex with the
    largest |S - g_v|, the modulus its removal leaves (ties to the lowest
    index), and takes that vertex's edges out of S and of every g_v
    (Asahiro et al., "Greedily finding a dense subgraph", J. Algorithms
    2000; Charikar, APPROX 2000). The peel weighs every vertex's sum from
    its first step; an add-greedy's first step is a tie, since every edge to
    its start has modulus 1. The edges of all vertices are gathered through
    ``pos`` once, about twice the block's phasors. Returns the sorted
    subsets (trials, k) and their moduli (trials,).
    """
    trials, m = z.shape[0], z.shape[1] - 1
    pos = _witness_index(n)
    flat, rows = z.ravel(), np.arange(trials)
    z_row = rows[:, None] * (m + 1)  # flat indices address z row by row
    vertex = z.take(pos, axis=1).sum(axis=2)  # vertex[t, v]: g_v of row t
    total = z.sum(axis=1)
    dropped = np.zeros((trials, n))  # -inf at each dropped vertex
    for _ in range(n - k):
        moduli = np.abs(total[:, None] - vertex)
        moduli += dropped
        best = moduli.argmax(axis=1)
        dropped[rows, best] = -np.inf
        total -= vertex[rows, best]
        vertex -= flat.take(z_row + pos[best])
    members = np.nonzero(dropped == 0.0)[1].reshape(trials, k)
    edges = subset_edges(n, members) + z_row
    return members, np.abs(np.cumsum(flat.take(edges), axis=1)[:, -1])


def coherence_rejects(rows, k: int, beta: float) -> np.ndarray:
    """``coherence_test(EdgeSample(n, x), k, beta).rejected`` of each
    edge-angle row x of ``rows``, as a bool array: the decisions of a chunk
    of Monte Carlo trials.

    The rows share n. k and the scan budget are checked, as
    ``coherence_test`` checks them, before any other work; the prefix tree
    is built only when a witness leaves a row open. Blocks of at most
    _WITNESS_ANGLES edge angles (at least one row) are taken from ``rows``
    and stacked, so rows must not share a buffer, and ``_greedy_witnesses``
    peels one witness per row of a block. A row rejects when its witness has
    modulus >= beta: that modulus is the witness's ``_table_coherence``
    value, bit for bit, and the statistic is the largest such value over all
    k-subsets, so the test rejects too. Every other row is decided by
    ``_prefix_rejects``, so no decision rests on the greedy peel alone.
    """
    n, rows = _edge_chunk(rows)
    if n is None:
        return np.zeros(0, dtype=bool)
    k, beta = _check_scan(n, k, 2), real(beta, "beta")
    per_block = max(1, _WITNESS_ANGLES // (n * (n - 1) // 2))
    decisions = []
    while block := list(itertools.islice(rows, per_block)):
        z = _phasor_block(np.stack(block))
        certified = (_greedy_witnesses(z, n, k)[1] >= beta).tolist()
        decisions += [hit or _prefix_rejects(row[:-1], n, k, beta, *_tree(n, k))
                      for row, hit in zip(z, certified)]
    return np.array(decisions, dtype=bool)


def coherence_test(sample: EdgeSample, k: int, beta: float) -> TestReport:
    """Reject H0 when the max subset coherence reaches beta (coherence_threshold)."""
    k, beta = _check_scan(sample.n, k, 2), real(beta, "beta")
    value, subset = coherence_stat(sample, k)
    return TestReport(
        statistic=value, threshold=beta,
        witness_subset=subset, work_counter=math.comb(sample.n, k))


def rayleigh_test(sample: EdgeSample, k: int, beta: float) -> TestReport:
    """Threshold the modulus of the phasor sum over all edges at beta.

    ``rayleigh_threshold`` gives the default beta. The statistic does not
    use ``k``, but k must be an integer in [2, n], the community size the
    threshold is for. The witness angle is the direction of the resultant.
    """
    check_sizes(sample.n, k, edges=True)
    beta = real(beta, "beta")
    s = _resultant(sample.edge_angles)
    return TestReport(
        statistic=abs(s), threshold=beta,
        witness_theta=canonical_angle(math.atan2(s.imag, s.real)),
        work_counter=sample.n_edges)


def _resultant(x: np.ndarray) -> complex:
    return complex(np.exp(1j * x).sum())


def rayleigh_rejects(rows, k: int, beta: float) -> np.ndarray:
    """``rayleigh_test(EdgeSample(n, x), k, beta).rejected`` of each
    edge-angle row x of ``rows``, as a bool array; the arguments are checked
    once, and the rows may share a buffer."""
    n, rows = _edge_chunk(rows)
    if n is None:
        return np.zeros(0, dtype=bool)
    check_sizes(n, k, edges=True)
    beta = real(beta, "beta")
    return np.fromiter((abs(_resultant(x)) >= beta for x in rows), dtype=bool)


def variance_stat(sample: EdgeSample, k: int) -> tuple[float, tuple]:
    """Exact min over k-subsets of the circular sample variance of E(C).

    V_C = min_theta (1/(K-1)) sum_{e in E(C)} d(X_e, theta)^2 with d the
    minimal angular difference and K = C(k,2). The inner minimum is exact:
    for each of the K circular cut points the values are linearized and the
    mean-squared deviation evaluated in O(1) from prefix sums; the best cut
    realizes the circular optimum.

    Returns (minimum, first minimizer in revolving-door order), each value
    as ``_block_variances`` computes it. The search's bar is an incumbent,
    the least value of the 64 children with the largest moduli under the 8
    largest (k-1)-prefixes: some subset's value, so every minimizer and tie
    survives. One block and the rows tied at the running minimum are held.
    """
    k, n, x, levels, offsets = _scan_inputs(sample, k, 3)
    value, ties = math.inf, []
    for rows, values in _variance_search(x, n, k, levels, offsets):
        low = float(values.min())
        if low < value:
            value, ties = low, []
        if low == value:
            ties.append(rows[values == low])
    return value, _door_first(_level_subsets(levels, np.concatenate(ties)))


def _block_variances(x: np.ndarray, n: int, subsets: np.ndarray) -> np.ndarray:
    """Circular sample variance of each sorted subset, one row each.

    A row's m edge angles v_0 <= .. <= v_{m-1} are sorted, and every sum
    over them adds its terms one after the other (``np.cumsum``), so a row
    has the same value in a block of any size. The cut before v_c moves
    v_0 .. v_{c-1} up by 2 pi: sum y = s1 + 2 pi c and sum y^2 = s2 + 4 pi
    (v_0 + .. + v_{c-1}) + 4 pi^2 c, with s1, s2 the sums of v and v^2.
    """
    m = subsets.shape[1] * (subsets.shape[1] - 1) // 2
    cuts = np.arange(m)
    vals = x[subset_edges(n, subsets)]
    vals.sort(axis=1)
    # ss holds v_0 + .. + v_{c-1}, then each cut's sum of squared deviations.
    ss = np.empty_like(vals)
    ss[:, 0] = 0.0
    np.cumsum(vals[:, :-1], axis=1, out=ss[:, 1:])
    sum_y = ss[:, -1:] + vals[:, -1:] + TWO_PI * cuts
    vals *= vals
    ss *= 2.0 * TWO_PI
    ss += np.cumsum(vals, axis=1, out=vals)[:, -1:]
    ss += TWO_PI * TWO_PI * cuts
    sum_y *= sum_y
    sum_y /= m
    ss -= sum_y
    return np.maximum(ss.min(axis=1), 0.0) / (m - 1)


def _variance_search(x: np.ndarray, n: int, k: int, levels: tuple,
                     offsets: np.ndarray, bar: Optional[float] = None):
    """Yield (level-k rows, values) in blocks of about _CHUNK_ROWS rows that
    hold every subset with V_C <= ``bar`` (None: ``variance_stat``'s incumbent).

    With m = C(k,2) and S_C the subset's phasor sum, d^2 >= 2 (1 - cos d)
    makes every cut's sum of squares >= 2 (m - |S_C|). Every term
    ``_block_variances`` sums is below (4 pi)^2 < 2^8, so each such sum is
    within gamma_{3m+5} 2^8 m < 2^11 m^2 u of exact (u = 2^-53, m >= 3),
    TWO_PI moves the exact one by < 2^7 m u, and V_C is within m^2 2^-42 +
    u V_C of the exact variance. So V_C <= bar needs |S_C| >= L = m - (bar +
    eps) (m - 1) / 2, eps = m^2 2^-40 (which covers u V_C < 3u; for bar >=
    3, L <= 0). By the modulus bounds of ``_prefix_rejects``, prefixes
    below L - k + 1 - 2 delta, then children below L - delta, are dropped.
    A bar that cannot prune, and the statistic below _PRUNE_FLOOR subsets,
    skip the modulus pass and stream every row in lexicographic order.
    """
    m = k * (k - 1) // 2
    delta = m * m * 2.0 ** -48
    total = math.comb(n, k)

    def need(bar):  # L - delta
        return m - (bar + m * m * 2.0 ** -40) * (m - 1) / 2 - delta

    def evaluate(batches):
        for rows in batches:
            if rows.size:
                yield rows, _block_variances(x, n, _level_subsets(levels, rows))

    bar = math.inf if bar is None and total < _PRUNE_FLOOR else bar
    if bar is not None and not need(bar) > 0:
        yield from evaluate(np.arange(lo, min(lo + _CHUNK_ROWS, total))
                            for lo in range(0, total, _CHUNK_ROWS))
        return
    z = np.exp(1j * x)
    sums = _level_sums(z, levels[:-1], n - k + 1)
    if bar is None:
        top = np.argpartition(-np.abs(sums), min(7, sums.size - 1))[:8]
        rows, moduli = next(_children(z, levels, sums, offsets, top, 8))
        best = rows[np.argpartition(-moduli, min(63, rows.size - 1))[:64]]
        bar = min(float(values.min()) for _, values in evaluate([best]))
    floor = need(bar)
    live = np.flatnonzero(np.abs(sums) >= floor - (k - 1) - delta)
    if live.size:
        yield from evaluate(rows[moduli >= floor] for rows, moduli
                            in _children(z, levels, sums, offsets, live))


def variance_rejects(rows, k: int, sigma2: float) -> np.ndarray:
    """``variance_test(EdgeSample(n, x), k, sigma2).rejected`` of each
    edge-angle row x of ``rows``, as a bool array, without the statistic:
    the search with bar sigma2, up to the first value <= sigma2. The
    arguments are checked once, with the errors of ``variance_test``; the
    rows may share a buffer."""
    sigma2 = check_bar(sigma2)
    n, rows = _edge_chunk(rows)
    if n is None:
        return np.zeros(0, dtype=bool)
    k = _check_scan(n, k, 3)
    levels, offsets = _tree(n, k)
    return np.fromiter(
        (any((values <= sigma2).any() for _, values
             in _variance_search(x, n, k, levels, offsets, sigma2))
         for x in rows), dtype=bool)


def variance_test(sample: EdgeSample, k: int, sigma2: float) -> TestReport:
    """Reject H0 when some k-subset has circular sample variance <= sigma2."""
    sigma2 = check_bar(sigma2)
    k = _check_scan(sample.n, k, 3)
    value, subset = variance_stat(sample, k)
    return TestReport(
        statistic=value, threshold=sigma2, comparison="le",
        witness_subset=subset, work_counter=math.comb(sample.n, k))

