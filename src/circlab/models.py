"""Dataset generators for the four planted circular-structure models.

Flat models observe N angles; community models observe one angle per edge of
the complete graph on n vertices. Under the null every angle is i.i.d.
uniform on [0, 2pi). Under the alternative a uniformly random subset S* of
size K (or community C* of size k) carries the planted signal anchored at a
uniformly random phase Theta*:

    hard cluster   Uniform([Theta*, Theta* + 2 pi tau))   (half-open arc)
    von Mises      vonMises(Theta*, kappa)

Sampling arcs are half-open; detector windows are closed (measure-zero
difference for continuous data, pinned down so boundary-exact tests are
well defined).

Determinism: generators draw from an explicit numpy Generator and consume
randomness in a fixed order, so identical (parameters, seed) give
bit-identical samples regardless of thread count or call interleaving.
``rngs_for`` seeds a chunk of trials' streams in one vectorised pass, each
bit for bit the stream ``rng_for`` gives that trial, and ``draw_chunk``
draws a chunk's samples on them as ``draw_row`` would, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from .errors import DomainError, ParameterError
from .specfun import TWO_PI

__all__ = [
    "TWO_PI",
    "canonical_angle",
    "HardCluster",
    "VonMises",
    "SignalKind",
    "PlantedFlat",
    "PlantedCommunity",
    "FlatSample",
    "EdgeSample",
    "splitmix64",
    "derive_seed",
    "rng_for",
    "rngs_for",
    "sample_von_mises",
    "sample_arc_uniform",
    "check_sizes",
    "draw_row",
    "draw_chunk",
    "gen_flat",
    "gen_community",
    "edge_index",
    "edge_position",
    "vertex_bases",
    "subset_edges",
    "edge_pairs",
    "write_dataset",
    "read_dataset",
]

# Below this concentration the Best-Fisher proposal degenerates; the
# distribution is indistinguishable from uniform at double precision.
_UNIFORM_KAPPA_CUTOFF = 1e-6

# Above this concentration the sampler's draws are no longer von Mises; see
# sample_von_mises.
_MAX_KAPPA = 1e10


def canonical_angle(x):
    """Reduce angle(s) into [0, 2pi) with a single correction step."""
    r = np.mod(x, TWO_PI)
    # np.mod can round up to exactly 2pi for tiny negative inputs.
    if np.ndim(r) == 0:
        return 0.0 if r >= TWO_PI else float(r)
    r[r >= TWO_PI] = 0.0
    return r


@dataclass(frozen=True)
class HardCluster:
    """Planted signal: uniform on an arc covering fraction tau of the circle."""

    tau: float

    def __post_init__(self):
        # Comparisons, not math.isfinite: they also take an int beyond float
        # range, and NaN fails them.
        if not (isinstance(self.tau, (int, float)) and 0.0 < self.tau <= 1.0):
            raise DomainError(f"tau must be in (0, 1], got {self.tau!r}")


@dataclass(frozen=True)
class VonMises:
    """Planted signal: von Mises with concentration kappa."""

    kappa: float

    def __post_init__(self):
        if not isinstance(self.kappa, (int, float)):
            raise DomainError(f"kappa must be finite and >= 0, got {self.kappa!r}")
        _check_kappa(self.kappa)


def _check_kappa(kappa) -> None:
    # NaN fails; an int beyond float range, unlike in math.isfinite, does not
    # overflow here and meets the bound below.
    if not (kappa >= 0.0 and kappa != math.inf):
        raise DomainError(f"kappa must be finite and >= 0, got {kappa!r}")
    if kappa > _MAX_KAPPA:
        raise DomainError(f"kappa must be <= {_MAX_KAPPA:g}, the largest "
                          f"concentration the sampler draws, got {kappa!r}")


SignalKind = Union[HardCluster, VonMises]


def _planted_phase(theta) -> float:
    """A planted anchor phase reduced into [0, 2pi); it must be finite."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"planted phase must be finite, got {theta!r}")
    return canonical_angle(theta)


@dataclass(frozen=True)
class PlantedFlat:
    """Ground truth for a flat sample: planted index set and anchor phase."""

    subset: tuple
    theta_star: float

    def __post_init__(self):
        subset = tuple(sorted(int(i) for i in self.subset))
        if len(set(subset)) != len(subset):
            raise ParameterError("planted subset has repeated indices")
        if subset and subset[0] < 0:
            raise ParameterError(f"planted subset has negative index {subset[0]}")
        object.__setattr__(self, "subset", subset)
        object.__setattr__(self, "theta_star", _planted_phase(self.theta_star))


@dataclass(frozen=True)
class PlantedCommunity:
    """Ground truth for an edge sample: planted vertex set and anchor phase."""

    community: tuple
    theta_star: float

    def __post_init__(self):
        community = tuple(sorted(int(i) for i in self.community))
        if len(set(community)) != len(community):
            raise ParameterError("planted community has repeated vertices")
        if len(community) < 2:
            raise ParameterError("planted community must have at least 2 vertices")
        if community[0] < 0:
            raise ParameterError(f"planted community has negative vertex {community[0]}")
        object.__setattr__(self, "community", community)
        object.__setattr__(self, "theta_star", _planted_phase(self.theta_star))


@dataclass
class FlatSample:
    """N angles on [0, 2pi) with optional planted truth.

    An angle that is not finite or not in [0, 2pi) is a DomainError: the
    flat scans count on sorted angles below 2pi.
    """

    angles: np.ndarray
    truth: Optional[PlantedFlat] = None

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.ndim != 1 or self.angles.size < 1:
            raise ParameterError("angles must be a nonempty 1-d array")
        _checked_angles(self.angles)
        subset = self.truth.subset if self.truth is not None else ()
        if subset and not (0 <= subset[0] and subset[-1] < self.angles.size):
            raise ParameterError("truth indices out of range for sample size")

    @property
    def n_points(self) -> int:
        return int(self.angles.size)


def edge_position(n: int, i, j):
    """Position of edge {i, j}, i < j, in lexicographic order; unchecked.

    ``i`` and ``j`` may be integer arrays, ordered elementwise.
    """
    return i * n - i * (i + 1) // 2 + (j - i - 1)


@lru_cache(maxsize=64)
def vertex_bases(n: int) -> np.ndarray:
    """Read-only int32 base[s] such that edge {s, v}, s < v, sits at base[s] + v."""
    base = edge_position(n, np.arange(n, dtype=np.int64), 0).astype(np.int32)
    base.flags.writeable = False
    return base


def subset_edges(n: int, subsets: np.ndarray) -> np.ndarray:
    """Positions of the edges {s_a, s_b}, a < b, of sorted vertex rows.

    Rows run along the last axis; edges come in ``np.triu_indices`` order.
    """
    r = np.arange(subsets.shape[-1])
    a_idx, b_idx = np.nonzero(r[:, None] < r)  # np.triu_indices(k, 1), faster
    return vertex_bases(n)[subsets[..., a_idx]] + subsets[..., b_idx]


def edge_index(n: int, i: int, j: int) -> int:
    """Position of unordered edge {i, j} in lexicographic (i < j) order."""
    if i == j:
        raise ParameterError(f"no self-loops: ({i}, {j})")
    if i > j:
        i, j = j, i
    if not (0 <= i < j < n):
        raise ParameterError(f"edge ({i}, {j}) out of range for n={n}")
    return edge_position(n, i, j)


def edge_pairs(n: int) -> np.ndarray:
    """All C(n,2) vertex pairs (i, j), i < j, in lexicographic order."""
    iu = np.triu_indices(n, k=1)
    return np.column_stack(iu).astype(np.int64)


@dataclass
class EdgeSample:
    """Angles on the C(n,2) edges of the complete graph, with optional truth.

    ``edge_angles[edge_index(n, i, j)]`` is the angle of edge {i, j};
    access is symmetric in (i, j) and self-loops are rejected. An angle that
    is not finite or not in [0, 2pi) is a DomainError.
    """

    n: int
    edge_angles: np.ndarray
    truth: Optional[PlantedCommunity] = None

    def __post_init__(self):
        self.n = int(self.n)
        self.edge_angles = np.asarray(self.edge_angles, dtype=float)
        m = self.n * (self.n - 1) // 2
        if self.n < 2 or self.edge_angles.shape != (m,):
            raise ParameterError(
                f"expected {m} edge angles for n={self.n}, got shape "
                f"{self.edge_angles.shape}")
        _checked_angles(self.edge_angles)
        if self.truth is not None and not (
                0 <= self.truth.community[0] and self.truth.community[-1] < self.n):
            raise ParameterError("truth vertices out of range")

    def angle(self, i: int, j: int) -> float:
        return float(self.edge_angles[edge_index(self.n, i, j)])

    @property
    def n_edges(self) -> int:
        return int(self.edge_angles.size)


_MASK64 = 0xFFFFFFFFFFFFFFFF
_SM64_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 output step; the standard 64-bit mixing function.

    It also maps a uint64 array elementwise, since array arithmetic wraps
    modulo 2^64 (the masks are then no-ops).
    """
    x = (x + _SM64_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, *tags: int) -> int:
    """Mix a master seed with integer stream tags into a fresh 64-bit seed."""
    h = splitmix64(int(master) & _MASK64)
    for t in tags:
        h = splitmix64(h ^ (int(t) & _MASK64))
    return h


def rng_for(seed: int, *tags: int) -> np.random.Generator:
    """Deterministic per-stream generator for (master seed, tags)."""
    return np.random.Generator(np.random.PCG64(derive_seed(seed, *tags)))


# numpy's seeding of ``PCG64(s)`` for a 64-bit s, as ``rngs_for`` runs it on
# a chunk of seeds at once (numpy/random/bit_generator.pyx and pcg64.h;
# O'Neill 2014). ``SeedSequence(s)`` hashes the 32-bit words (low, high) of
# s into a pool of 4 words and mixes every word into every other; its hash
# constant steps the same way whatever the entropy, so each step's constants
# are fixed. A high word of 0 hashes as the absent word of an s < 2^32.
# ``generate_state(4, uint64)`` hashes the pool, cycled, into 8 words, and
# PCG64 seeds (state, inc) from the 4 little-endian uint64 they make.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_steps(init: int, mult: int, steps: int) -> tuple:
    """The (constant before, constant after) of each of ``steps`` hash steps."""
    pairs = []
    for _ in range(steps):
        pairs.append((init, init * mult & _MASK32))
        init = pairs[-1][1]
    return tuple(np.array(col, dtype=np.uint32)[:, None] for col in zip(*pairs))


_POOL_XOR, _POOL_MUL = _hash_steps(0x43B0D7E5, 0x931E8875, 4 + 4 * 3)
_STATE_XOR, _STATE_MUL = _hash_steps(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R, _SHIFT16 = (np.uint32(0xCA01F9DD), np.uint32(0x4973F715),
                            np.uint32(16))
_OTHER_WORDS = tuple(np.array([d for d in range(4) if d != s]) for s in range(4))


def _pcg64_states(seeds: np.ndarray) -> list:
    """The (state, inc) Python ints of ``PCG64(s)`` for each s of a uint64 array."""
    pool = np.empty((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds.astype(np.uint32)
    pool[1] = (seeds >> np.uint64(32)).astype(np.uint32)
    pool[2:] = 0
    pool ^= _POOL_XOR[:4]
    pool *= _POOL_MUL[:4]
    pool ^= pool >> _SHIFT16
    for src in range(4):  # a source word stays put while it mixes the others
        step = slice(4 + 3 * src, 7 + 3 * src)
        hashed = (pool[src] ^ _POOL_XOR[step]) * _POOL_MUL[step]
        hashed ^= hashed >> _SHIFT16
        mixed = _MIX_L * pool[_OTHER_WORDS[src]] - _MIX_R * hashed
        mixed ^= mixed >> _SHIFT16
        pool[_OTHER_WORDS[src]] = mixed
    words = (pool[np.arange(8) % 4] ^ _STATE_XOR) * _STATE_MUL
    words ^= words >> _SHIFT16
    lo = words[0::2].astype(np.uint64)
    state = (lo | words[1::2].astype(np.uint64) << np.uint64(32)).T.tolist()
    out = []
    for s_hi, s_lo, i_hi, i_lo in state:
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128,
                    inc))
    return out


def _stream_states(seed: int, tags: tuple, trials: Iterable[int]) -> list:
    """The PCG64 (state, inc) of ``rng_for(seed, *tags, t)`` for each t."""
    tags_t = np.array([int(t) & _MASK64 for t in trials], dtype=np.uint64)
    return _pcg64_states(splitmix64(np.uint64(derive_seed(seed, *tags)) ^ tags_t))


def _set_stream(rng: np.random.Generator, state: int, inc: int) -> None:
    """Put ``rng`` at the start of the stream (state, inc), no 32-bit half
    buffered."""
    rng.bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}


def rngs_for(seed: int, *tags: int, trials: Iterable[int]
             ) -> Iterator[np.random.Generator]:
    """Yield ``rng_for(seed, *tags, t)`` for each t of ``trials``, seeded in
    one pass.

    ``derive_seed`` runs once for the shared tags; splitmix64 of each trial
    tag, numpy's ``SeedSequence`` hash and PCG64's seeding step then run for
    all trials together. Every stream equals ``rng_for``'s bit for bit, state
    and draws. One Generator is reused: each yield sets its state, so a
    stream is good only until the next is taken.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    for state, inc in _stream_states(seed, tags, trials):
        _set_stream(rng, state, inc)
        yield rng


def _proposal(kappa: float) -> float:
    """The constant r of the Best-Fisher wrapped-Cauchy proposal for kappa."""
    t = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho_prop = (t - math.sqrt(2.0 * t)) / (2.0 * kappa)
    return (1.0 + rho_prop * rho_prop) / (2.0 * rho_prop)


def _best_fisher_round(u0: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                       kappa: float, r: float) -> tuple:
    """One Best-Fisher round on uniforms u0, u1, u2: (values, accept).

    Each element is computed on its own, so a round over many draws gives
    each the bits it gets in a round of its own.
    """
    z = np.cos(math.pi * u0)
    f = (1.0 + r * z) / (r + z)
    c = kappa * (r - f)
    v = 1.0 - u1  # in (0, 1], keeps the log test well defined
    accept = (c * (2.0 - c) - v > 0.0) | (np.log(c / v) + 1.0 - c >= 0.0)
    return np.sign(u2 - 0.5) * np.arccos(np.clip(f, -1.0, 1.0)), accept


def _von_mises_centered(rng: np.random.Generator, kappa: float, size: int) -> np.ndarray:
    """Draws from vonMises(0, kappa) in (-pi, pi], Best-Fisher rejection sampling.

    Each round draws ``rng.random((3, p))`` for the p draws still pending,
    in order, and keeps the accepted ones. ``draw_chunk`` runs the same
    rounds on a batch of trials at once (``_von_mises_rows``).
    """
    if kappa < _UNIFORM_KAPPA_CUTOFF:
        return rng.random(size) * TWO_PI - math.pi
    r = _proposal(kappa)
    out = np.empty(size, dtype=float)
    pending = np.arange(size)
    while pending.size:
        u = rng.random((3, pending.size))
        vals, accept = _best_fisher_round(u[0], u[1], u[2], kappa, r)
        out[pending[accept]] = vals[accept]
        pending = pending[~accept]
    return out


def _von_mises_width(m: int) -> int:
    """Uniforms ``draw_chunk`` reads for a trial's m von Mises draws.

    A draw takes 3 uniforms a round. A round accepts with a chance that
    falls from 1 at small kappa to 0.658 at large kappa, so m draws take at
    most 4.6 m uniforms on average, give or take 2.7 sqrt(m). The width
    leaves 1.4 m + 12 sqrt(m) + 24 to spare.
    """
    return 3 * (2 * m + 4 * math.isqrt(m) + 8)


def _von_mises_rows(block: np.ndarray, kappa: float, m: int) -> tuple:
    """m draws from vonMises(0, kappa) for each row of uniforms of ``block``,
    as ``_von_mises_centered`` draws them from a stream that starts with
    the row: (a (rows, m) array, rows that ran out).

    The rounds run for all rows at once. A row with p draws pending reads
    its round's u0, u1 and u2 at its offsets o, o + p and o + 2p, fills its
    accepted values in pending order and moves on by 3p, the order in
    which ``rng.random((3, p))`` reads a stream. A row whose next round
    would read past its end is left out, and flagged.
    """
    rows, width = block.shape
    r = _proposal(kappa)
    out = np.empty((rows, m))
    row = np.repeat(np.arange(rows), m)  # the pending draws, row by row,
    slot = np.tile(np.arange(m), rows)   # each row's in order
    offset = np.zeros(rows, dtype=np.intp)
    ran_out = np.zeros(rows, dtype=bool)
    flat = block.ravel()
    while row.size:
        pending = np.bincount(row, minlength=rows)
        short = offset + 3 * pending > width
        if short.any():
            ran_out |= short
            pending[short] = 0
            keep = ~short[row]
            row, slot = row[keep], slot[keep]
        p = pending[row]
        rank = np.arange(row.size) - (np.cumsum(pending) - pending)[row]
        at = row * width + offset[row] + rank
        vals, accept = _best_fisher_round(flat[at], flat[at + p],
                                          flat[at + 2 * p], kappa, r)
        out[row[accept], slot[accept]] = vals[accept]
        offset += 3 * pending
        row, slot = row[~accept], slot[~accept]
    return out, ran_out


def sample_von_mises(theta: float, kappa: float, rng: np.random.Generator,
                     size: Optional[int] = None):
    """Draw from vonMises(theta, kappa); kappa = 0 is exactly uniform.

    Returns a float when ``size`` is None, else an array of ``size`` draws.
    kappa above 1e10 is a DomainError. The proposal's r - 1 is about
    1/(2 kappa), and arccos resolves angles near 0 only to 2^-26 rad. Over
    10^6 draws, the KS distance of sqrt(kappa) * draw to N(0, 1) was 0.0014
    at kappa = 1e6, 0.0015 at 1e10, 0.0023 at 1e11 and 0.0053 at 1e12. At
    1e16 r rounds to 1 and no draw is ever accepted.
    """
    _check_kappa(kappa)
    n = 1 if size is None else int(size)
    draws = canonical_angle(theta + _von_mises_centered(rng, kappa, n))
    return float(draws[0]) if size is None else draws


def sample_arc_uniform(theta: float, tau: float, rng: np.random.Generator,
                       size: Optional[int] = None):
    """Draw uniformly from the half-open arc [theta, theta + 2 pi tau)."""
    if not (0.0 < tau <= 1.0):
        raise DomainError(f"tau must be in (0, 1], got {tau!r}")
    n = 1 if size is None else int(size)
    draws = canonical_angle(theta + TWO_PI * tau * rng.random(n))
    return float(draws[0]) if size is None else draws


def _shuffled_prefixes(picks: np.ndarray) -> np.ndarray:
    """The sorted first k entries of partial Fisher-Yates shuffles of range(n).

    Row r of the (rows, k) int array ``picks`` is one shuffle: step i swaps
    positions i and picks[r, i] >= i. Position i is never touched after
    step i, so it ends with what position picks[i] held just before: that
    value itself, unless an earlier step t also picked it; then, for the
    last such t, what position t held just before step t, found the same
    way from the last step that picked t. The links run back from step to
    step, for all rows at once; only the at most 2k touched positions of a
    row take part.
    """
    rows, k = picks.shape
    order = np.argsort(picks, axis=1, kind="stable")  # by value, then step
    ranked = np.take_along_axis(picks, order, axis=1)
    repeat = ranked[:, 1:] == ranked[:, :-1]
    # before[r, i]: the last step before i with the same pick, else -1
    before = np.full((rows, k), -1)
    r, m = np.nonzero(repeat)
    before[r, order[r, m + 1]] = order[r, m]
    # into[r, u], u < k: the last step that picked u, else -1. A linked step
    # t picks a later position, so into[t] is a step before t.
    last = np.ones((rows, k), dtype=bool)
    last[:, :-1] = ~repeat
    r, m = np.nonzero(last & (ranked < k))
    into = np.full((rows, k), -1)
    into[r, ranked[r, m]] = order[r, m]
    out = picks.copy()
    link, row_ids = before, np.arange(rows)[:, None]
    while (linked := link >= 0).any():
        out[linked] = link[linked]
        link = np.where(linked, into[row_ids, np.maximum(link, 0)], -1)
    out.sort(axis=1)
    return out


def _sample_subset(rng: np.random.Generator, n: int, k: int) -> tuple:
    """Uniform size-k subset of range(n) by partial Fisher-Yates.

    The k draws j_i in [0, n - i) come from one ``integers`` call, which
    consumes the stream exactly as k scalar calls in order would;
    ``_shuffled_prefixes`` resolves the swaps.
    """
    picks = np.arange(k) + rng.integers(0, np.arange(n, n - k, -1))
    return tuple(_shuffled_prefixes(picks[None])[0].tolist())


def _lemire32(words: np.ndarray, ranges: np.ndarray) -> tuple:
    """numpy's bounded draws in [0, r) from one uint32 word w each, for
    ranges 2 <= r <= 2^32: (draws, taken).

    ``Generator.integers`` takes (w * r) >> 32 (Lemire 2019), unless the low
    32 bits of w * r fall below (2^32 - r) mod r; then it draws another word,
    and ``taken`` is False. Arguments are uint64 arrays that broadcast.
    """
    scaled = words * ranges
    return scaled >> 32, (scaled & _MASK32) >= (2 ** 32 - ranges) % ranges


def _signal_draws(signal: SignalKind, theta: float, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    if isinstance(signal, HardCluster):
        return sample_arc_uniform(theta, signal.tau, rng, size)
    if isinstance(signal, VonMises):
        return sample_von_mises(theta, signal.kappa, rng, size)
    raise DomainError(f"unknown signal kind: {signal!r}")


def _is_whole(value) -> bool:
    """Whether ``value`` is an integral number (10, 10.0, a numpy int); a
    bool, a string, None, NaN or 10.5 is not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or (
        math.isfinite(value) and float(value).is_integer())


def _whole(value, what: str, error: type = ParameterError) -> int:
    """``int(value)`` of an integral number; any other value is ``error``,
    never truncated."""
    if not _is_whole(value):
        raise error(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_sizes(size, k, edges: bool = False) -> tuple:
    """(N, K) of a flat sample, or (n, k) of an edge sample, as ints.

    Each must be integral, with 1 <= K <= N (2 <= k <= n for edges); else a
    ParameterError.
    """
    if edges:
        n, k = _whole(size, "n"), _whole(k, "k")
        if n < 2 or k < 2 or k > n:
            raise ParameterError(f"need 2 <= k <= n, got n={n}, k={k}")
        return n, k
    N, K = _whole(size, "N"), _whole(k, "K")
    if N < 1 or K < 1 or K > N:
        raise ParameterError(f"need 1 <= K <= N, got N={N}, K={K}")
    return N, K


def draw_row(out: np.ndarray, size: int, k: int, signal: SignalKind,
             under_h1: bool, rng: np.random.Generator, edges: bool = False):
    """Draw one sample's angles into ``out``, a float64 row the caller owns.

    ``out`` holds N angles of a flat sample, or the C(n,2) edge angles of
    an edge sample with ``edges``; ``size`` and ``k`` are N and K (n and k),
    checked by ``check_sizes``. Under H0 every angle is uniform. Under H1 a
    uniform k-subset (community) and a uniform phase theta are drawn, then
    the uniform angles, then the signal of the K planted angles (the C(k,2)
    community edges). Returns the planted (sorted subset, theta) under H1,
    else None. ``gen_flat`` and ``gen_community`` wrap it.
    """
    if not under_h1:
        rng.random(out=out)
        out *= TWO_PI
        return None
    subset = _sample_subset(rng, size, k)
    theta = TWO_PI * rng.random()
    rng.random(out=out)
    out *= TWO_PI
    planted = subset_edges(size, np.asarray(subset)) if edges else list(subset)
    out[planted] = _signal_draws(signal, theta, rng, len(planted))
    return subset, theta


# Planted angles per batch of ``draw_chunk``'s H1 trials; it bounds the
# batch's arrays (a 64-trial chunk of flat K = 60 is one batch of 3840).
# The von Mises block reads _von_mises_width(m) uniforms a trial, at most
# 7.5 per planted angle from m = 100 on, so a full batch's block is under
# 1 MiB; below that, a 64-trial chunk's is under 0.4 MiB.
_PLANTED_BATCH = 1 << 14


def draw_chunk(rows: np.ndarray, size: int, k: int, signal: SignalKind,
               under_h1: bool, seed: int, tags: tuple, trials: Sequence[int],
               edges: bool = False) -> Iterator[tuple]:
    """Yield (row, planted) for each trial t of ``trials``, as ``draw_row``
    draws them from ``rng_for(seed, *tags, t)``, bit for bit.

    Trial i is drawn into ``rows[i % len(rows)]``, a row of the caller's
    (rows, width) float64 block, when it is taken. ``planted`` is None
    under H0, else (sorted subset, theta) with the subset as an int array.
    Under H0 each row is ``draw_row``'s on the ``rngs_for`` streams. An H1
    trial's stream holds, in order, the subset's uint32 words (ranges n - i;
    a range of 1 draws none), theta, the background and the signal, so its
    H1 trials are drawn in batches, in two passes:

    - pass A, per trial: read the words, two to a 64-bit output, low half
      first, and theta from ``random_raw``; step over the background; read
      the signal's uniforms into one row of a block: K of them (C(k,2) for
      edges), or ``_von_mises_width`` of them for the von Mises rounds;
    - for the batch at once: the bounded draws (``_lemire32``), the swaps
      (``_shuffled_prefixes``), the von Mises rounds (``_von_mises_rows``)
      and the planted angles;
    - pass B, per trial, as it is taken: restart the stream, step over the
      words and theta, draw the background into the row and set the planted
      angles in it.

    Reading raw words is exact because each stream starts with no 32-bit
    half buffered and is dropped after its trial; every range is a row
    length, so at most 2^32, and takes one 32-bit word. Reading uniforms
    past what the signal needs is exact because the signal is the last of a
    trial's stream, pass B stops at the background, and the stream is
    dropped after its trial. A trial whose bounded draw would take another
    word (1 in 116,000 at (N, K) = (2000, 41)) is drawn by ``draw_row`` in
    pass B; one whose rounds would read past its block row draws its signal
    again on its own stream. Sizes are checked by ``check_sizes``.
    """
    if not under_h1:
        for i, rng in enumerate(rngs_for(seed, *tags, trials=trials)):
            row = rows[i % len(rows)]
            yield row, draw_row(row, size, k, signal, under_h1, rng, edges)
        return
    if not isinstance(signal, (HardCluster, VonMises)):
        raise DomainError(f"unknown signal kind: {signal!r}")
    states = _stream_states(seed, tags, trials)
    planted_size = k * (k - 1) // 2 if edges else k
    step = max(1, _PLANTED_BATCH // planted_size)
    for lo in range(0, len(states), step):
        yield from _draw_planted(rows, lo, states[lo:lo + step], size, k,
                                 signal, edges, planted_size)


def _draw_planted(rows: np.ndarray, first: int, states: list, size: int,
                  k: int, signal: SignalKind, edges: bool,
                  planted_size: int) -> Iterator[tuple]:
    """``draw_chunk``'s H1 trials on the streams ``states``, the first of
    them trial ``first`` of the chunk: pass B over ``_plant``'s draws."""
    rng = np.random.Generator(np.random.PCG64(0))
    subsets, thetas, values, redraw = _plant(rng, states, size, k, signal,
                                             edges, planted_size)
    planted = subset_edges(size, subsets) if edges else subsets
    skip = (min(k, size - 1) + 1) // 2 + 1  # the words and theta
    for i, (state, inc) in enumerate(states):
        row = rows[(first + i) % len(rows)]
        _set_stream(rng, state, inc)
        if redraw[i]:
            subset, theta = draw_row(row, size, k, signal, True, rng, edges)
            yield row, (np.array(subset), theta)
            continue
        rng.bit_generator.advance(skip)
        rng.random(out=row)
        row *= TWO_PI
        row[planted[i]] = values[i]
        yield row, (subsets[i], thetas[i])


def _plant(rng: np.random.Generator, states: list, size: int, k: int,
           signal: SignalKind, edges: bool, planted_size: int) -> tuple:
    """Pass A and the array work of ``draw_chunk`` on the streams
    ``states``: (sorted subsets, thetas, planted angles, redraw flags).

    Pass A reads each trial's words and theta, steps over the background,
    and reads the signal's uniforms: one per planted angle, or, for the
    Best-Fisher rounds, a row of ``_von_mises_width`` of them, which
    ``_von_mises_rows`` then uses for the whole batch at once. A trial
    whose row runs out draws its signal again with ``_von_mises_centered``
    on its own stream. Its temporaries are freed before pass B's rows are
    decided."""
    bit_generator = rng.bit_generator
    width = size * (size - 1) // 2 if edges else size
    n_words = min(k, size - 1)
    n_raw = (n_words + 1) // 2
    rounds = (isinstance(signal, VonMises)
              and signal.kappa >= _UNIFORM_KAPPA_CUTOFF)
    raw = np.empty((len(states), n_raw + 1), dtype=np.uint64)
    block = np.empty((len(states), _von_mises_width(planted_size) if rounds
                      else planted_size))
    for i, (state, inc) in enumerate(states):
        _set_stream(rng, state, inc)
        raw[i] = bit_generator.random_raw(n_raw + 1)
        bit_generator.advance(width)
        rng.random(out=block[i])
    marks = block
    if isinstance(signal, HardCluster):
        marks *= TWO_PI * signal.tau
    elif not rounds:  # _von_mises_centered's draw below the cutoff
        marks = marks * TWO_PI - math.pi
    else:
        marks, ran_out = _von_mises_rows(block, signal.kappa, planted_size)
        for i in np.flatnonzero(ran_out):
            _set_stream(rng, *states[i])
            bit_generator.advance(n_raw + 1 + width)
            marks[i] = _von_mises_centered(rng, signal.kappa, planted_size)
    words = np.empty((len(states), n_words), dtype=np.uint64)
    words[:, 0::2] = raw[:, :n_raw] & _MASK32
    words[:, 1::2] = raw[:, :n_words // 2] >> 32
    draws, taken = _lemire32(words, np.arange(size, size - n_words, -1,
                                              dtype=np.uint64))
    picks = np.full((len(states), k), size - 1)  # a range of 1 draws 0
    picks[:, :n_words] = draws
    picks[:, :n_words] += np.arange(n_words)
    # next_double: the top 53 bits of a 64-bit output, times 2^-53
    thetas = TWO_PI * ((raw[:, n_raw] >> 11) * (1.0 / 9007199254740992.0))
    return (_shuffled_prefixes(picks), thetas.tolist(),
            canonical_angle(thetas[:, None] + marks),
            (~taken.all(axis=1)).tolist())


def gen_flat(N: int, K: int, signal: SignalKind, under_h1: bool,
             rng: np.random.Generator) -> FlatSample:
    """Generate one flat sample of N angles.

    Under H0 all angles are i.i.d. uniform and no truth is recorded. Under
    H1 a uniform size-K subset is planted at a uniform phase with the given
    signal distribution; remaining angles stay uniform.
    """
    N, K = check_sizes(N, K)
    angles = np.empty(N)
    planted = draw_row(angles, N, K, signal, under_h1, rng)
    return FlatSample(angles=angles, truth=planted and PlantedFlat(*planted))


def gen_community(n: int, k: int, signal: SignalKind, under_h1: bool,
                  rng: np.random.Generator) -> EdgeSample:
    """Generate one edge sample on the complete graph with n vertices.

    Under H1 the C(k,2) intra-community edges carry the signal distribution
    anchored at a uniform phase; all other edges stay uniform.
    """
    n, k = check_sizes(n, k, edges=True)
    angles = np.empty(n * (n - 1) // 2)
    planted = draw_row(angles, n, k, signal, under_h1, rng, edges=True)
    return EdgeSample(n=n, edge_angles=angles,
                      truth=planted and PlantedCommunity(*planted))


# ---------------------------------------------------------------------------
# Dataset file format (text, UTF-8)
#
#   header lines:  "# key=value"
#   flat body:     one angle per line, 17 significant digits
#   community:     "i,j,angle" with 0-based i<j, lexicographic order
# ---------------------------------------------------------------------------

_FMT = "%.17g"


def signal_tag(signal: SignalKind) -> str:
    if isinstance(signal, HardCluster):
        return f"hard:{_FMT % signal.tau}"
    return f"vm:{_FMT % signal.kappa}"


def write_dataset(fh: TextIO, sample: Union[FlatSample, EdgeSample],
                  signal: Optional[SignalKind] = None,
                  seed: Optional[int] = None,
                  K: Optional[int] = None, k: Optional[int] = None,
                  reveal_truth: bool = False) -> None:
    """Write a sample in the dataset text format; truth only when requested."""
    def header(key, value):
        fh.write(f"# {key}={value}\n")

    if isinstance(sample, FlatSample):
        header("model", "flat")
        header("N", sample.n_points)
        if K is not None:
            header("K", int(K))
    else:
        header("model", "community")
        header("n", sample.n)
        if k is not None:
            header("k", int(k))
    if signal is not None:
        header("signal", signal_tag(signal))
    if seed is not None:
        header("seed", int(seed))
    if reveal_truth and sample.truth is not None:
        if isinstance(sample, FlatSample):
            header("truth_subset", ",".join(str(i) for i in sample.truth.subset))
        else:
            header("truth_subset", ",".join(str(i) for i in sample.truth.community))
        header("truth_theta", _FMT % sample.truth.theta_star)
    if isinstance(sample, FlatSample):
        for a in sample.angles:
            fh.write((_FMT % a) + "\n")
    else:
        pairs = edge_pairs(sample.n)
        body = "\n".join(
            f"{int(i)},{int(j)},{_FMT % a}"
            for (i, j), a in zip(pairs, sample.edge_angles))
        fh.write(body + "\n")


def _checked_angles(values) -> np.ndarray:
    """Angles as an array, rejecting any that is not finite or not in [0, 2pi)."""
    arr = np.asarray(values, dtype=float)
    if arr.size and arr.min() >= 0.0 and arr.max() < TWO_PI:
        return arr  # min and max are NaN when any angle is
    bad = ~((arr >= 0.0) & (arr < TWO_PI))
    if bad.any():
        raise DomainError(
            f"angle {float(arr[bad][0])!r} is not in [0, 2pi); "
            f"{int(bad.sum())} of {arr.size} angles are out of range")
    return arr


def _parsed(typ, text: str, what: str):
    """``typ(text)``, or ParameterError naming the field that failed."""
    try:
        return typ(text)
    except ValueError:
        raise ParameterError(
            f"{what} must be {'an integer' if typ is int else 'a number'}, "
            f"got {text!r}") from None


def _header(meta: dict, key: str, typ):
    if key not in meta:
        raise ParameterError(f"dataset has no '# {key}=' header")
    return _parsed(typ, meta[key], f"header {key}")


def read_dataset(fh: TextIO) -> tuple:
    """Read a dataset file; returns (sample, metadata dict).

    Every angle must be finite and in [0, 2pi), and a flat ``# N=`` header
    must match the number of angles; the scan statistics assume both. A
    malformed number anywhere (body, size headers, truth), a community edge
    listed twice (as i,j twice, or as i,j and j,i), a ``# key=value`` header
    given twice, or a body line of the other model's form, is ParameterError.
    """
    meta: dict = {}
    headers: set = set()  # keys given as "# key=value"
    flat_angles: list = []
    edges: dict = {}
    for raw in fh:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, eq, value = line[1:].partition("=")
            key = key.strip()
            if eq:
                if key in headers:
                    raise ParameterError(f"header {key!r} is given twice")
                headers.add(key)
            meta[key] = value.strip()
            continue
        try:
            if "," in line:
                si, sj, sa = line.split(",")
                pair, angle = (int(si), int(sj)), float(sa)
            else:
                flat_angles.append(float(line))
                continue
        except ValueError:
            raise ParameterError(
                f"data line {line!r} is not an angle or i,j,angle") from None
        if pair in edges:
            raise ParameterError("edge {},{} is listed twice".format(*pair))
        edges[pair] = angle
    model = meta.get("model")
    if model not in ("flat", "community"):
        raise ParameterError(f"dataset has unknown model {model!r}")
    if model == "flat" and edges:
        i, j = next(iter(edges))
        raise ParameterError(f"flat dataset has an edge line {i},{j},...")
    if model == "community" and flat_angles:
        raise ParameterError(
            f"community dataset has a bare angle line {flat_angles[0]!r}")
    size_key = "K" if model == "flat" else "k"
    if size_key in meta:  # the subset size that ``detect`` reads with int()
        _header(meta, size_key, int)
    truth = None  # (members, theta) until the model picks the class
    if "truth_subset" in meta:
        truth = (tuple(_parsed(int, s, "truth_subset entry")
                       for s in meta["truth_subset"].split(",") if s),
                 _header(meta, "truth_theta", float))
    if model == "flat":
        sample: Union[FlatSample, EdgeSample] = FlatSample(
            angles=flat_angles, truth=truth and PlantedFlat(*truth))
        if "N" in meta and _header(meta, "N", int) != sample.n_points:
            raise ParameterError(
                f"header says N={meta['N']}, file has {sample.n_points} angles")
    else:
        n = _header(meta, "n", int)
        arr = np.empty(n * (n - 1) // 2, dtype=float)
        if len(edges) != arr.size:
            raise ParameterError(
                f"expected {arr.size} edges for n={n}, file has {len(edges)}")
        pos = [edge_index(n, i, j) for i, j in edges]
        if len(set(pos)) < arr.size:  # some edge as i,j and j,i, another absent
            i, j = next(key for key in edges if key[::-1] in edges)
            raise ParameterError(f"edge {{{i}, {j}}} is listed twice: as "
                                 f"{i},{j} and {j},{i}")
        arr[pos] = list(edges.values())
        sample = EdgeSample(n=n, edge_angles=arr,
                            truth=truth and PlantedCommunity(*truth))
    return sample, meta
