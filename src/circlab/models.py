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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, TextIO, Union

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
    "sample_von_mises",
    "sample_arc_uniform",
    "gen_flat",
    "gen_community",
    "edge_index",
    "edge_position",
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
        if not (isinstance(self.tau, (int, float)) and math.isfinite(self.tau)
                and 0.0 < self.tau <= 1.0):
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
    if not (math.isfinite(kappa) and kappa >= 0.0):
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
    """N angles on [0, 2pi) with optional planted truth."""

    angles: np.ndarray
    truth: Optional[PlantedFlat] = None

    def __post_init__(self):
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.ndim != 1 or self.angles.size < 1:
            raise ParameterError("angles must be a nonempty 1-d array")
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
    access is symmetric in (i, j) and self-loops are rejected.
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
    """One splitmix64 output step; the standard 64-bit mixing function."""
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


def _von_mises_centered(rng: np.random.Generator, kappa: float, size: int) -> np.ndarray:
    """Draws from vonMises(0, kappa) in (-pi, pi], Best-Fisher rejection sampling."""
    if kappa < _UNIFORM_KAPPA_CUTOFF:
        return rng.random(size) * TWO_PI - math.pi
    t = 1.0 + math.sqrt(1.0 + 4.0 * kappa * kappa)
    rho_prop = (t - math.sqrt(2.0 * t)) / (2.0 * kappa)
    r = (1.0 + rho_prop * rho_prop) / (2.0 * rho_prop)
    out = np.empty(size, dtype=float)
    pending = np.arange(size)
    while pending.size:
        m = pending.size
        u = rng.random((3, m))
        z = np.cos(math.pi * u[0])
        f = (1.0 + r * z) / (r + z)
        c = kappa * (r - f)
        u2 = 1.0 - u[1]  # in (0, 1], keeps the log test well defined
        accept = (c * (2.0 - c) - u2 > 0.0) | (np.log(c / u2) + 1.0 - c >= 0.0)
        vals = np.sign(u[2] - 0.5) * np.arccos(np.clip(f, -1.0, 1.0))
        out[pending[accept]] = vals[accept]
        pending = pending[~accept]
    return out


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


def _sample_subset(rng: np.random.Generator, n: int, k: int) -> tuple:
    """Uniform size-k subset of range(n) by partial Fisher-Yates."""
    arr = np.arange(n)
    for i in range(k):
        j = i + int(rng.integers(0, n - i))
        arr[i], arr[j] = arr[j], arr[i]
    return tuple(sorted(arr[:k].tolist()))


def _signal_draws(signal: SignalKind, theta: float, rng: np.random.Generator,
                  size: int) -> np.ndarray:
    if isinstance(signal, HardCluster):
        return sample_arc_uniform(theta, signal.tau, rng, size)
    if isinstance(signal, VonMises):
        return sample_von_mises(theta, signal.kappa, rng, size)
    raise DomainError(f"unknown signal kind: {signal!r}")


def gen_flat(N: int, K: int, signal: SignalKind, under_h1: bool,
             rng: np.random.Generator) -> FlatSample:
    """Generate one flat sample of N angles.

    Under H0 all angles are i.i.d. uniform and no truth is recorded. Under
    H1 a uniform size-K subset is planted at a uniform phase with the given
    signal distribution; remaining angles stay uniform.
    """
    N, K = int(N), int(K)
    if N < 1 or K < 1 or K > N:
        raise ParameterError(f"need 1 <= K <= N, got N={N}, K={K}")
    if not under_h1:
        return FlatSample(angles=rng.random(N) * TWO_PI, truth=None)
    subset = _sample_subset(rng, N, K)
    theta = TWO_PI * rng.random()
    angles = rng.random(N) * TWO_PI
    angles[list(subset)] = _signal_draws(signal, theta, rng, K)
    return FlatSample(angles=angles, truth=PlantedFlat(subset, theta))


def gen_community(n: int, k: int, signal: SignalKind, under_h1: bool,
                  rng: np.random.Generator) -> EdgeSample:
    """Generate one edge sample on the complete graph with n vertices.

    Under H1 the C(k,2) intra-community edges carry the signal distribution
    anchored at a uniform phase; all other edges stay uniform.
    """
    n, k = int(n), int(k)
    if n < 2 or k < 2 or k > n:
        raise ParameterError(f"need 2 <= k <= n, got n={n}, k={k}")
    m = n * (n - 1) // 2
    if not under_h1:
        return EdgeSample(n=n, edge_angles=rng.random(m) * TWO_PI, truth=None)
    community = _sample_subset(rng, n, k)
    theta = TWO_PI * rng.random()
    angles = rng.random(m) * TWO_PI
    verts = np.asarray(community)
    a_idx, b_idx = np.triu_indices(k, k=1)
    intra = edge_position(n, verts[a_idx], verts[b_idx])
    angles[intra] = _signal_draws(signal, theta, rng, intra.size)
    return EdgeSample(n=n, edge_angles=angles, truth=PlantedCommunity(community, theta))


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


def parse_signal_tag(tag: str) -> SignalKind:
    kind, _, value = tag.partition(":")
    if kind == "hard":
        return HardCluster(tau=float(value))
    if kind == "vm":
        return VonMises(kappa=float(value))
    raise ParameterError(f"unknown signal tag {tag!r}")


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
    malformed number anywhere (body, size headers, truth) is ParameterError.
    """
    meta: dict = {}
    flat_angles: list = []
    edges: dict = {}
    for raw in fh:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            key, _, value = body.partition("=")
            meta[key.strip()] = value.strip()
            continue
        try:
            if "," in line:
                si, sj, sa = line.split(",")
                edges[(int(si), int(sj))] = float(sa)
            else:
                flat_angles.append(float(line))
        except ValueError:
            raise ParameterError(
                f"data line {line!r} is not an angle or i,j,angle") from None
    model = meta.get("model")
    if model not in ("flat", "community"):
        raise ParameterError(f"dataset has unknown model {model!r}")
    size_key = "K" if model == "flat" else "k"
    if size_key in meta:  # the subset size that ``detect`` reads with int()
        _header(meta, size_key, int)
    truth = None  # (members, theta) until the model picks the class
    if "truth_subset" in meta:
        truth = (tuple(_parsed(int, s, "truth_subset entry")
                       for s in meta["truth_subset"].split(",") if s),
                 _header(meta, "truth_theta", float))
    if model == "flat":
        angles = _checked_angles(flat_angles)
        if "N" in meta and meta["N"] != str(angles.size):
            raise ParameterError(
                f"header says N={meta['N']}, file has {angles.size} angles")
        sample: Union[FlatSample, EdgeSample] = FlatSample(
            angles=angles, truth=truth and PlantedFlat(*truth))
    else:
        n = _header(meta, "n", int)
        arr = np.empty(n * (n - 1) // 2, dtype=float)
        if len(edges) != arr.size:
            raise ParameterError(
                f"expected {arr.size} edges for n={n}, file has {len(edges)}")
        for (i, j), a in edges.items():
            arr[edge_index(n, i, j)] = a
        _checked_angles(arr)
        sample = EdgeSample(n=n, edge_angles=arr,
                            truth=truth and PlantedCommunity(*truth))
    return sample, meta
