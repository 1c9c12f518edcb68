"""Detector statistics against brute-force oracles, plus decision mechanics."""

import gc
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlab import detectors as det
from circlab import models as mod
from circlab.errors import (CapabilityError, ConfigError, DomainError,
                             ParameterError)

TWO_PI = 2.0 * math.pi


def decide_one(decision, sample, *args):
    """A Monte Carlo decision on the chunk of one sample's angle row."""
    row = sample.angles if isinstance(sample, mod.FlatSample) else sample.edge_angles
    got = decision([row], *args)
    assert got.shape == (1,) and got.dtype == bool
    return bool(got[0])


def one_row(decision):
    """``decision`` as a call on one sample, like its test."""
    return lambda sample, *args: decide_one(decision, sample, *args)


def edge_rows(samples):
    """The edge angles of samples, one row each."""
    return np.stack([s.edge_angles for s in samples])


def brute_interval_stat(angles, tau):
    """Exhaustive anchored-window count (closed windows)."""
    w = TWO_PI * tau
    best, arg = -1, None
    for a in angles:
        cnt = int(np.count_nonzero(np.mod(angles - a, TWO_PI) <= w))
        if cnt > best:
            best, arg = cnt, a
    return best, arg


def in_closed_window(y, a, w):
    """y in the closed window [a, a + w], unrolled past 2 pi, in float
    arithmetic: the comparisons the scans make on the doubled sorted angles."""
    return y <= a + w if y >= a else y + TWO_PI <= a + w


# Canonical angles in [0, 2 pi), with a pool of repeated and boundary values
# so that ties, zero and the top of the range are drawn often.
canonical_angles = st.one_of(
    st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True),
    st.sampled_from([0.0, 5e-324, 1.0, math.pi, float(np.nextafter(TWO_PI, 0.0))]))
window_fractions = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    st.sampled_from([1.0, float(np.nextafter(1.0, 0.0)), 0.5, 5e-324]))


class TestIntervalStatFlat:
    def test_worked_example(self):
        s = mod.FlatSample(np.array([0.1, 0.2, 3.0]))
        count, theta = det.interval_stat_flat(s, 0.5 / TWO_PI)
        assert count == 2 and theta == 0.1

    def test_full_circle(self):
        s = mod.FlatSample(np.array([0.3, 1.0, 5.0]))
        assert det.interval_stat_flat(s, 1.0)[0] == 3

    def test_all_equal(self):
        s = mod.FlatSample(np.full(7, 2.2))
        assert det.interval_stat_flat(s, 1e-6)[0] == 7

    def test_closed_window_boundary(self):
        # point exactly at theta + 2 pi tau is counted (closed convention)
        w = 0.5
        s = mod.FlatSample(np.array([1.0, 1.0 + w]))
        assert det.interval_stat_flat(s, w / TWO_PI)[0] == 2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=200),
           st.floats(min_value=0.01, max_value=0.99),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_oracle_equivalence(self, n, tau, seed):
        rng = mod.rng_for(seed, 21)
        angles = rng.random(n) * TWO_PI
        got, _ = det.interval_stat_flat(mod.FlatSample(angles), tau)
        want, _ = brute_interval_stat(angles, tau)
        assert got == want

    @settings(max_examples=300, deadline=None)
    @given(st.lists(canonical_angles, min_size=1, max_size=40), window_fractions)
    def test_arbitrary_canonical_input(self, angles, tau):
        w = TWO_PI * tau
        counts = {a: sum(in_closed_window(y, a, w) for y in angles)
                  for a in angles}
        got, witness = det.interval_stat_flat(mod.FlatSample(np.array(angles)), tau)
        assert got == max(counts.values())
        assert counts[witness] == got

    @settings(max_examples=300, deadline=None)
    @given(st.lists(canonical_angles, max_size=20), st.data())
    def test_arbitrary_finite_input_outside_circle_rejected(self, angles, data):
        # Any finite input is either canonical (above) or rejected where the
        # sample is built; [-1, 7, 100] used to count 3 at tau = 0.05.
        outside = data.draw(st.one_of(
            st.floats(max_value=-5e-324, allow_infinity=False),
            st.floats(min_value=TWO_PI, allow_infinity=False),
            st.sampled_from([-5e-324, TWO_PI, float(np.nextafter(TWO_PI, 7.0))])))
        pos = data.draw(st.integers(min_value=0, max_value=len(angles)))
        angles.insert(pos, outside)
        with pytest.raises(DomainError):
            det.interval_stat_flat(mod.FlatSample(np.array(angles)), 0.05)

    def test_count_never_exceeds_points(self):
        # x + 2 pi tau rounds to x + 2 pi here; the scan counted 4 of 3 points
        s = mod.FlatSample(np.array([0.5, 2.0, 6.0]))
        assert det.interval_stat_flat(s, float(np.nextafter(1.0, 0.0)))[0] == 3

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-10, max_value=10),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_rotation_invariance(self, delta, seed):
        rng = mod.rng_for(seed, 22)
        angles = rng.random(40) * TWO_PI
        tau = 0.07
        base, _ = det.interval_stat_flat(mod.FlatSample(angles), tau)
        rot, _ = det.interval_stat_flat(
            mod.FlatSample(mod.canonical_angle(angles + delta)), tau)
        assert base == rot

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            mod.FlatSample(np.array([]))


class TestIntervalTestFlat:
    def test_planted_threshold_never_misses(self):
        for seed in range(500):
            s = mod.gen_flat(60, 5, mod.HardCluster(0.02), True,
                             mod.rng_for(seed, 23))
            rep = det.interval_test_flat(s, 0.02, 5.0)
            assert rep.rejected

    def test_unreachable_threshold(self):
        s = mod.gen_flat(30, 3, mod.HardCluster(0.1), True, mod.rng_for(0, 24))
        rep = det.interval_test_flat(s, 0.1, 31.0)
        assert not rep.rejected

    def test_a2_threshold_arithmetic(self):
        n_pts, K, tau, c_n = 100, 10, 0.02, 2.0
        gamma = det.resolve_flat_threshold("a2", n_pts, tau, K=K, c_n=c_n)
        assert gamma == pytest.approx(90 * 0.02 + 10 - 2.0 * math.sqrt(1.8))

    def test_vm_threshold_uses_arc_mass(self):
        from circlab import theory as th
        from circlab.specfun import arc_prob

        gamma = det.resolve_flat_threshold("vm", 200, 0.1, K=20, kappa=4.0,
                                           c_n=1.5)
        g = 20 * (arc_prob(4.0, 0.1) - 0.1)
        mean1 = 200 * 0.1 + g
        assert gamma == pytest.approx(mean1 - 1.5 * math.sqrt(mean1))
        bounds = th.flat_vm_bounds(200, 20, 4.0, 0.1, c_n=1.5)
        assert bounds["g"].value == pytest.approx(g)
        assert bounds["gamma"].value == gamma

    @pytest.mark.parametrize("detector,comparison", [
        ("interval", "ge"), ("known-theta", "ge"), ("interval-community", "ge"),
        ("coherence", "ge"), ("rayleigh", "ge"), ("variance", "le")])
    def test_decision_matches_comparison(self, detector, comparison):
        flat = mod.FlatSample(np.linspace(0, 6, 12))
        edges = mod.gen_community(8, 4, mod.VonMises(2.0), True,
                                  mod.rng_for(4, 27))
        run = {
            "interval": lambda t: det.interval_test_flat(flat, 0.25, t),
            "known-theta": lambda t: det.known_theta_test_flat(flat, 0.25, t),
            "interval-community": lambda t: det.interval_test_community(
                edges, 4, 0.1),
            "coherence": lambda t: det.coherence_test(edges, 4, t),
            "rayleigh": lambda t: det.rayleigh_test(edges, 4, t),
            "variance": lambda t: det.variance_test(edges, 4, t),
        }[detector]
        stat = run(3.0).statistic
        for t in (stat, np.nextafter(stat, 0.0), np.nextafter(stat, math.inf)):
            rep = run(float(t))
            assert rep.comparison == comparison
            hit = (rep.statistic >= rep.threshold if comparison == "ge"
                   else rep.statistic <= rep.threshold)
            assert rep.rejected == hit
            assert rep.decision is (det.Decision.REJECT_H0 if hit
                                    else det.Decision.RETAIN_H0)

    @pytest.mark.parametrize("kwargs", [
        dict(policy=None, gamma=math.nan), dict(policy=None, gamma=math.inf),
        dict(policy="fixed:nan"), dict(policy="fixed:-inf"),
        dict(policy="custom:inf"), dict(policy="a2", K=5, c_n=math.nan)])
    def test_non_finite_threshold_is_config_error(self, kwargs):
        with pytest.raises(ConfigError):
            det.resolve_flat_threshold(N=100, tau=0.1, **kwargs)


def thresholds_around(n):
    return st.one_of(
        st.sampled_from([-math.inf, 0.0, 1.0, 1.5, n - 0.5, float(n), n + 0.5,
                         math.inf, math.nan]),
        st.floats(min_value=-1.0, max_value=n + 2.0),
        st.integers(min_value=0, max_value=n + 1).map(float))


class TestIntervalRejectsFlat:
    """The one-probe decision against the statistic path's ``rejected``."""

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_equals_statistic_decision(self, data):
        angles = data.draw(st.lists(st.one_of(
            canonical_angles,
            st.sampled_from([0.0, 1e-12, float(np.nextafter(TWO_PI, 0.0)),
                             TWO_PI - 1e-12, 2.5])), min_size=1, max_size=30))
        tau = data.draw(st.one_of(
            st.sampled_from([1e-9, 0.5, float(np.nextafter(1.0, 0.0)), 1.0]),
            window_fractions))
        gamma = data.draw(thresholds_around(len(angles)))
        s = mod.FlatSample(np.array(angles))
        assert (decide_one(det.interval_rejects_flat, s, tau, gamma)
                == det.interval_test_flat(s, tau, gamma).rejected)

    @pytest.mark.parametrize("N,K,tau", [(2000, 21, 0.01), (200, 8, 0.03),
                                         (50, 50, 0.5)])
    def test_equals_statistic_decision_generated(self, N, K, tau):
        for seed in range(40):
            s = mod.gen_flat(N, K, mod.HardCluster(tau), seed % 2 == 1,
                             mod.rng_for(seed, 28))
            stat = det.interval_test_flat(s, tau, 0.0).statistic
            for gamma in (stat - 0.5, stat, stat + 0.5, stat + 1.0):
                assert (decide_one(det.interval_rejects_flat, s, tau, gamma)
                        == det.interval_test_flat(s, tau, gamma).rejected)

    def test_window_reaching_past_two_pi(self):
        # The shortest 2- and 3-point windows start at 6.2 and wrap past 0.
        s = mod.FlatSample(np.array([0.05, 3.0, 6.2]))
        assert decide_one(det.interval_rejects_flat, s, 0.03, 2.0)
        assert not decide_one(det.interval_rejects_flat, s, 0.01, 2.0)
        assert decide_one(det.interval_rejects_flat, s, 0.491, 3.0)
        assert not decide_one(det.interval_rejects_flat, s, 0.49, 3.0)

    @pytest.mark.parametrize("tau", [0.0, -0.1, 1.5, math.nan])
    def test_bad_window_rejected(self, tau):
        with pytest.raises(DomainError):
            det.interval_rejects_flat([np.array([1.0])], tau, 0.0)


class TestKnownTheta:
    def test_gamma_zero_always_rejects(self):
        s = mod.FlatSample(np.array([1.0, 2.0]))
        assert det.known_theta_test_flat(s, 0.1, 0.0).rejected

    def test_planted_phase_never_misses(self):
        for seed in range(300):
            s = mod.gen_flat(50, 6, mod.HardCluster(0.03), True,
                             mod.rng_for(seed, 25))
            rep = det.known_theta_test_flat(s, 0.03, 6.0,
                                            theta=s.truth.theta_star)
            assert rep.rejected

    def test_null_mean_count(self):
        n_pts, tau, trials = 1000, 0.1, 10_000
        total = 0
        for t in range(trials):
            rng = mod.rng_for(t, 26)
            s = mod.gen_flat(n_pts, 1, mod.HardCluster(tau), False, rng)
            total += det.known_theta_test_flat(s, tau, math.inf).statistic
        mean = total / trials
        se = math.sqrt(n_pts * tau * (1 - tau) / trials)
        assert abs(mean - n_pts * tau) <= 3 * se

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected(self, theta):
        s = mod.FlatSample(np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            det.known_theta_test_flat(s, 0.1, 1.0, theta=theta)

    def test_wraparound_window(self):
        s = mod.FlatSample(np.array([0.05, 6.2, 3.0]))
        # window [6.0, 6.0 + 0.12 pi] wraps past 2 pi and catches 6.2 and 0.05
        rep = det.known_theta_test_flat(s, 0.06, 2.0, theta=6.0)
        assert rep.statistic == 2


def brute_community_found(sample, k, tau):
    w = TWO_PI * tau
    angles = sample.edge_angles
    for anchor in angles:
        for c in combinations(range(sample.n), k):
            ok = True
            for i, j in combinations(c, 2):
                if np.mod(sample.angle(i, j) - anchor, TWO_PI) > w:
                    ok = False
                    break
            if ok:
                return True
    return False


def dfs_k_clique(adj, k):
    """First k-clique of {vertex: neighbour bitmask} by depth-first branch and
    bound, or None: peel to the (k-1)-core, rank by decreasing degree (ties
    by index), and extend cliques as increasing sequences in that ranking.
    Oracle for ``det._find_k_clique``."""
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
    found = []

    def expand(current, cand_mask):
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

    return tuple(sorted(found)) if expand([], alive_mask) else None


def window_adjacency(edge_rows):
    """{vertex: neighbour bitmask} of the (i, j) rows of ``edge_rows``."""
    adj = {}
    for i, j in edge_rows:
        i, j = int(i), int(j)
        adj[i] = adj.get(i, 0) | (1 << j)
        adj[j] = adj.get(j, 0) | (1 << i)
    return adj


def window_scan_community(sample, k, tau):
    """The per-window community scan: a full k-clique search in every window
    with at least C(k,2) edges, in anchor order. Oracle for the anchored scan."""
    m_need = k * (k - 1) // 2
    ang = np.asarray(sample.edge_angles, dtype=float)
    order = np.argsort(ang, kind="stable")
    sa = ang[order]
    pairs = mod.edge_pairs(sample.n)[order]
    m = sa.size
    if tau == 1.0:
        return True, float(sa[0]), dfs_k_clique(window_adjacency(pairs), k)
    doubled = np.concatenate([sa, sa + TWO_PI])
    counts = np.searchsorted(doubled, sa + TWO_PI * tau, side="right") - np.arange(m)
    for idx in np.flatnonzero(counts >= m_need):
        take = (np.arange(idx, idx + counts[idx])) % m
        clique = dfs_k_clique(window_adjacency(pairs[take]), k)
        if clique is not None:
            return True, float(sa[idx]), clique
    return False, None, None


def window_ends(sample, tau):
    """Sorted angles and the end of each window: window i holds the edges at
    sorted positions [i, ends[i]) mod m."""
    sa = np.sort(sample.edge_angles)
    m = sa.size
    doubled = np.concatenate([sa, sa + TWO_PI])
    ends = np.searchsorted(doubled, sa + TWO_PI * tau, side="right")
    return sa, np.minimum(ends, np.arange(m) + m)


edge_samples = st.integers(min_value=3, max_value=8).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(min_value=2, max_value=n),
        st.one_of(
            st.lists(canonical_angles, min_size=n * (n - 1) // 2,
                     max_size=n * (n - 1) // 2),
            # a few distinct values: many ties, many full windows
            st.lists(canonical_angles, min_size=1, max_size=4).flatmap(
                lambda pool: st.lists(st.sampled_from(pool),
                                      min_size=n * (n - 1) // 2,
                                      max_size=n * (n - 1) // 2)))))


@st.composite
def bitmask_graphs(draw):
    """(neighbour bitmask list, k): n <= 16 vertices, 2 <= k <= 7, each edge
    present with probability 0 (an empty graph) or in [0.2, 0.95]."""
    n = draw(st.integers(min_value=0, max_value=16))
    k = draw(st.integers(min_value=2, max_value=7))
    density = draw(st.one_of(st.just(0.0), st.floats(min_value=0.2, max_value=0.95)))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1)))
    adj = [0] * n
    for i, j in combinations(range(n), 2):
        if rng.random() < density:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj, k


K6 = [0b111111 ^ (1 << v) for v in range(6)]


class TestFindKClique:
    @settings(max_examples=600, deadline=None)
    @given(bitmask_graphs())
    @example(([0] * 6, 2)).via("empty graph")
    @example((K6, 6)).via("k = n")
    @example((K6, 7)).via("k above the clique number")
    def test_equals_dfs(self, case):
        adj, k = case
        before = list(adj)
        got = det._find_k_clique(adj, k)
        assert adj == before  # pass 2 hands in the live sliding adjacency
        assert got == dfs_k_clique({v: m for v, m in enumerate(adj) if m}, k)


class TestIntervalCommunity:
    def test_handcrafted_triangle(self):
        ang = np.zeros(6)
        ang[[0, 1, 3]] = [1.0, 1.1, 1.2]   # edges of triangle {0,1,2}
        ang[[2, 4, 5]] = [3.0, 4.5, 5.9]
        s = mod.EdgeSample(4, ang)
        found, theta, subset = det.interval_stat_community(s, 3, 0.3 / TWO_PI)
        assert found and subset == (0, 1, 2) and theta == 1.0
        ang2 = ang.copy()
        ang2[1] = 2.2  # pull one triangle edge out of every window
        found2, _, _ = det.interval_stat_community(
            mod.EdgeSample(4, ang2), 3, 0.3 / TWO_PI)
        assert not found2

    def test_tau_one_always_found(self):
        s = mod.gen_community(7, 4, mod.VonMises(1.0), False, mod.rng_for(0, 27))
        found, _, subset = det.interval_stat_community(s, 4, 1.0)
        assert found and len(subset) == 4

    def test_planted_always_found(self):
        for seed in range(300):
            s = mod.gen_community(12, 4, mod.HardCluster(0.05), True,
                                  mod.rng_for(seed, 28))
            found, _, _ = det.interval_stat_community(s, 4, 0.05)
            assert found

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.floats(min_value=0.02, max_value=0.5))
    def test_oracle_equivalence_small(self, seed, tau):
        s = mod.gen_community(6, 3, mod.HardCluster(0.3), False,
                              mod.rng_for(seed, 29))
        found, _, _ = det.interval_stat_community(s, 3, tau)
        assert found == brute_community_found(s, 3, tau)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=3, max_value=6).flatmap(
               lambda n: st.tuples(
                   st.just(n), st.integers(min_value=2, max_value=n),
                   st.lists(canonical_angles, min_size=n * (n - 1) // 2,
                            max_size=n * (n - 1) // 2))),
           window_fractions)
    def test_arbitrary_canonical_input(self, case, tau):
        n, k, angles = case
        s = mod.EdgeSample(n, np.array(angles))
        w = TWO_PI * tau

        def fits(vertices, anchor):
            return all(in_closed_window(s.angle(i, j), anchor, w)
                       for i, j in combinations(vertices, 2))

        found, theta, subset = det.interval_stat_community(s, k, tau)
        assert found == any(fits(c, a) for a in angles
                            for c in combinations(range(n), k))
        if found:
            assert len(set(subset)) == k and fits(subset, theta)

    def test_monotone_in_tau(self):
        s = mod.gen_community(9, 3, mod.VonMises(3.0), True, mod.rng_for(5, 30))
        prev = False
        for tau in (0.01, 0.05, 0.1, 0.3, 0.6, 1.0):
            found, _, _ = det.interval_stat_community(s, 3, tau)
            assert found or not prev
            prev = found or prev

    def test_size_cap(self):
        s = mod.gen_community(49, 3, mod.VonMises(1.0), False, mod.rng_for(0, 31))
        with pytest.raises(CapabilityError):
            det.interval_stat_community(s, 3, 0.1)

    @settings(max_examples=400, deadline=None)
    @given(edge_samples, window_fractions)
    def test_equals_window_scan(self, case, tau):
        n, k, angles = case
        s = mod.EdgeSample(n, np.array(angles))
        assert (det.interval_stat_community(s, k, tau)
                == window_scan_community(s, k, tau))

    @pytest.mark.parametrize("n,k,tau,signal,h1", [
        (16, 5, 0.1, mod.VonMises(40.0), False),
        (16, 5, 0.1, mod.VonMises(40.0), True),
        (12, 4, 0.05, mod.HardCluster(0.05), True),
        (10, 3, 0.3, mod.HardCluster(0.3), False),
        (9, 9, 0.9, mod.VonMises(2.0), True),
    ])
    def test_equals_window_scan_generated(self, n, k, tau, signal, h1):
        for seed in range(30):
            s = mod.gen_community(n, k, signal, h1, mod.rng_for(seed, 44))
            assert (det.interval_stat_community(s, k, tau)
                    == window_scan_community(s, k, tau))

    @staticmethod
    def _triangle_plus(angles):
        """n = 4 edge sample; edges (0,1), (0,2), (1,2) form triangle {0,1,2}."""
        ang = np.empty(6)
        for (i, j), a in angles.items():
            ang[mod.edge_index(4, i, j)] = a
        return mod.EdgeSample(4, ang)

    def test_witness_window_wraps_past_two_pi(self):
        s = self._triangle_plus({(0, 1): 6.2, (0, 2): 0.05, (1, 2): 0.1,
                                 (0, 3): 2.0, (1, 3): 3.0, (2, 3): 4.0})
        got = det.interval_stat_community(s, 3, 0.3 / TWO_PI)
        assert got == (True, 6.2, (0, 1, 2))
        assert got == window_scan_community(s, 3, 0.3 / TWO_PI)

    def test_witness_window_starts_before_the_clique(self):
        # Window [0.95, 1.25] is the first to hold the triangle; its anchor
        # edge (0, 3) is not a triangle edge.
        s = self._triangle_plus({(0, 1): 1.0, (0, 2): 1.1, (1, 2): 1.2,
                                 (0, 3): 0.95, (1, 3): 3.0, (2, 3): 4.5})
        got = det.interval_stat_community(s, 3, 0.3 / TWO_PI)
        assert got == (True, 0.95, (0, 1, 2))
        assert got == window_scan_community(s, 3, 0.3 / TWO_PI)

    def test_clique_only_past_two_pi_of_the_last_window(self):
        # Rounding lets window [s_top, s_top + 2 pi tau] hold the edge at
        # x = 2 pi tau + 1 ulp once unrolled past 2 pi, while the window
        # anchored at the triangle's smallest edge (angle 0) ends at
        # 2 pi tau < x. Only the wrapped copies of the first anchors see it.
        tau = 0.3
        x = float(np.nextafter(TWO_PI * tau, 7.0))
        s_top = float(np.nextafter(TWO_PI, 0.0))
        assert x + TWO_PI <= s_top + TWO_PI * tau
        s = self._triangle_plus({(0, 1): 0.0, (0, 2): 0.0, (1, 2): x,
                                 (0, 3): s_top, (1, 3): 4.0, (2, 3): 4.3})
        got = det.interval_stat_community(s, 3, tau)
        assert got == (True, s_top, (0, 1, 2))
        assert got == window_scan_community(s, 3, tau)

    @pytest.mark.parametrize("tau", [0.01, 0.5, float(np.nextafter(1.0, 0.0)), 1.0])
    def test_k2_first_edge(self, tau):
        s = mod.gen_community(6, 2, mod.VonMises(1.0), False, mod.rng_for(2, 45))
        got = det.interval_stat_community(s, 2, tau)
        assert got == window_scan_community(s, 2, tau)
        found, theta, (i, j) = got
        assert found and theta == float(np.min(s.edge_angles))
        assert in_closed_window(s.angle(i, j), theta, TWO_PI * tau)

    @pytest.mark.parametrize("tau", [0.2, 0.6, 0.75, float(np.nextafter(1.0, 0.0))])
    def test_k_equals_n(self, tau):
        for seed in range(20):
            s = mod.gen_community(5, 5, mod.VonMises(3.0), seed % 2 == 1,
                                  mod.rng_for(seed, 46))
            got = det.interval_stat_community(s, 5, tau)
            assert got == window_scan_community(s, 5, tau)
            if got[0]:
                assert got[2] == (0, 1, 2, 3, 4)

    def test_work_counts_searches(self, monkeypatch):
        calls = []
        find = det._find_k_clique
        monkeypatch.setattr(det, "_find_k_clique",
                            lambda adj, k: calls.append(1) or find(adj, k))
        n, k, tau = 16, 5, 0.1
        m_need = k * (k - 1) // 2
        seen = {True: 0, False: 0}
        for seed in range(40):
            s = mod.gen_community(n, k, mod.VonMises(40.0), seed % 2 == 1,
                                  mod.rng_for(seed, 47))
            calls.clear()
            rep = det.interval_test_community(s, k, tau)
            sa, ends = window_ends(s, tau)
            m = sa.size
            # anchors 0 .. m-1, then the wrapped copies m .. ends[m-1] - 1
            wide = np.append(ends, np.full(ends[-1] - m, ends[-1]))
            anchors = int(np.count_nonzero(wide - np.arange(wide.size) >= m_need))
            searched = len(calls)
            seen[rep.rejected] += 1
            if not rep.rejected:
                assert searched == 0
                assert rep.work_counter == anchors
            else:
                first = int(np.searchsorted(sa, rep.witness_theta))
                overlapping = int(np.count_nonzero(
                    (sa <= rep.witness_theta) & (ends > first)))
                assert 1 <= searched <= overlapping
                assert rep.work_counter - searched <= anchors
        assert seen[True] >= 5 and seen[False] >= 5
        calls.clear()
        # tau = 1: pass 1 hits at anchor 0, pass 2 searches window 0
        assert det.interval_test_community(s, k, 1.0).work_counter == 2
        assert len(calls) == 1


class TestIntervalRejectsCommunity:
    """Pass 1 of the community scan alone against the test's ``rejected``."""

    @settings(max_examples=400, deadline=None)
    @given(edge_samples, window_fractions)
    def test_equals_test_decision(self, case, tau):
        n, k, angles = case
        s = mod.EdgeSample(n, np.array(angles))
        assert (decide_one(det.interval_rejects_community, s, k, tau)
                == det.interval_test_community(s, k, tau).rejected)

    @pytest.mark.parametrize("n,k,tau,signal", [
        (16, 5, 0.05, mod.HardCluster(0.05)),
        (16, 5, 0.1, mod.VonMises(40.0)),
        (10, 3, 0.05, mod.HardCluster(0.05)),
        (9, 9, 0.9, mod.VonMises(2.0)),
    ])
    def test_equals_test_decision_generated(self, n, k, tau, signal):
        seen = set()
        for seed in range(30):
            s = mod.gen_community(n, k, signal, seed % 2 == 1,
                                  mod.rng_for(seed, 48))
            got = decide_one(det.interval_rejects_community, s, k, tau)
            assert got == det.interval_test_community(s, k, tau).rejected
            seen.add(got)
        assert seen == {False, True}

    def test_full_circle_always_rejects(self):
        for k in (2, 4, 6):
            s = mod.gen_community(6, k, mod.VonMises(1.0), False,
                                  mod.rng_for(k, 49))
            assert decide_one(det.interval_rejects_community, s, k, 1.0)
            assert det.interval_test_community(s, k, 1.0).rejected

    @pytest.mark.parametrize("n,k,tau,error", [
        (6, 1, 0.1, ParameterError), (6, 7, 0.1, ParameterError),
        (49, 3, 0.1, CapabilityError), (6, 3, 0.0, DomainError),
        (6, 3, 1.5, DomainError), (6, 3, math.nan, DomainError),
        (49, 50, math.nan, ParameterError)])
    def test_errors_match_test(self, n, k, tau, error):
        s = mod.gen_community(n, 3, mod.VonMises(1.0), False, mod.rng_for(0, 50))
        with pytest.raises(error) as expected:
            det.interval_test_community(s, k, tau)
        with pytest.raises(error) as got:
            decide_one(det.interval_rejects_community, s, k, tau)
        assert str(got.value) == str(expected.value)


class TestCoherence:
    def test_all_aligned(self):
        s = mod.EdgeSample(5, np.full(10, 0.7))
        value, subset = det.coherence_stat(s, 4)
        assert value == pytest.approx(6.0, rel=1e-12)
        assert subset == (0, 1, 2, 3)  # first maximizer in enumeration order

    def test_k2_unit(self):
        s = mod.gen_community(6, 2, mod.VonMises(1.0), False, mod.rng_for(1, 32))
        value, subset = det.coherence_stat(s, 2)
        assert value == pytest.approx(1.0, rel=1e-12)
        assert len(subset) == 2

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_naive_oracle(self, seed):
        s = mod.gen_community(6, 3, mod.VonMises(1.5), True, mod.rng_for(seed, 33))
        value, subset = det.coherence_stat(s, 3)
        z = np.exp(1j * s.edge_angles)
        best = max(
            abs(sum(z[mod.edge_index(6, a, b)] for a, b in combinations(c, 2)))
            for c in combinations(range(6), 3))
        assert value == pytest.approx(best, rel=1e-12)
        assert value <= 3 + 1e-9

    def test_rotation_invariance(self):
        s = mod.gen_community(7, 3, mod.VonMises(2.0), True, mod.rng_for(9, 34))
        v1, _ = det.coherence_stat(s, 3)
        rotated = mod.EdgeSample(7, mod.canonical_angle(s.edge_angles + 1.234))
        v2, _ = det.coherence_stat(rotated, 3)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_budget(self):
        s = mod.gen_community(30, 15, mod.VonMises(1.0), False,
                              mod.rng_for(0, 35))
        with pytest.raises(CapabilityError, match=(
                r"exact subset scan needs 1\.63e\+10 subset-edge operations, "
                r"budget is 1e\+08")):
            det.coherence_stat(s, 15)

    def test_threshold_arithmetic(self):
        from circlab.specfun import mean_resultant

        s = mod.EdgeSample(6, np.full(15, 1.0))
        rep = det.coherence_test(s, 6, det.coherence_threshold(6, 1.0, 0.5))
        assert rep.threshold == pytest.approx(15 * 0.875 * mean_resultant(1.0))
        assert rep.rejected  # aligned edges always clear the threshold
        assert det.coherence_test(s, 3, rep.threshold).work_counter == 20  # C(6,3)

    @pytest.mark.parametrize("kappa,epsilon", [
        (0.0, 0.5), (math.inf, 0.5), (math.nan, 0.5), (1.0, 0.0), (1.0, 1.0)])
    def test_threshold_domain(self, kappa, epsilon):
        with pytest.raises(DomainError):
            det.coherence_threshold(6, kappa, epsilon)

    def test_strong_signal_detects(self):
        rejected = 0
        beta = det.coherence_threshold(6, 20.0, 0.5)
        for seed in range(200):
            s = mod.gen_community(12, 6, mod.VonMises(20.0), True,
                                  mod.rng_for(seed, 36))
            rep = det.coherence_test(s, 6, beta)
            rejected += rep.rejected
        assert rejected >= 199  # >= 0.99 empirical power


class TestRayleigh:
    def test_all_aligned(self):
        s = mod.EdgeSample(6, np.zeros(15))
        rep = det.rayleigh_test(s, 3, det.rayleigh_threshold(3, 1.0))
        assert rep.statistic == pytest.approx(15.0)
        assert rep.witness_theta == pytest.approx(0.0)

    @pytest.mark.parametrize("kappa", [-1.0, math.inf, math.nan])
    def test_threshold_domain(self, kappa):
        with pytest.raises(DomainError):
            det.rayleigh_threshold(3, kappa)

    def test_null_second_moment(self):
        n = 20
        trials = 10_000
        total = 0.0
        beta = det.rayleigh_threshold(2, 1.0)
        for t in range(trials):
            s = mod.gen_community(n, 2, mod.VonMises(1.0), False,
                                  mod.rng_for(t, 37))
            total += det.rayleigh_test(s, 2, beta).statistic ** 2
        m_edges = n * (n - 1) / 2
        assert total / trials == pytest.approx(m_edges, rel=0.05)

    def test_error_trend_in_signal_ratio(self):
        # total error decreases as k^2 A(kappa) / n grows
        errs = []
        for k in (3, 8, 16):
            rej0 = rej1 = 0
            beta = det.rayleigh_threshold(k, 8.0)
            for t in range(150):
                s0 = mod.gen_community(16, k, mod.VonMises(8.0), False,
                                       mod.rng_for(t, 38 + k))
                rej0 += det.rayleigh_test(s0, k, beta).rejected
                s1 = mod.gen_community(16, k, mod.VonMises(8.0), True,
                                       mod.rng_for(t, 380 + k))
                rej1 += det.rayleigh_test(s1, k, beta).rejected
            errs.append(rej0 / 150 + 1 - rej1 / 150)
        assert errs[2] < errs[1] < errs[0] + 0.2
        assert errs[2] <= 0.1 and errs[0] >= 0.8


# edge test name: (the test, its decision, a valid threshold)
EDGE_TESTS = {
    "interval": (det.interval_test_community, det.interval_rejects_community, 0.1),
    "coherence": (det.coherence_test, det.coherence_rejects, 1.0),
    "rayleigh": (det.rayleigh_test, det.rayleigh_rejects, 1.0),
    "variance": (det.variance_test, det.variance_rejects, 0.3),
}


class TestTypedArguments:
    """A test's k must be an integer and its threshold a number; anything
    else is a typed error, from the test and from its decision alike."""

    @staticmethod
    def same_error(error, test, decision, sample, *args):
        with pytest.raises(error) as expected:
            test(sample, *args)
        with pytest.raises(error) as got:
            decision([sample.edge_angles], *args)
        assert str(got.value) == str(expected.value)
        return str(got.value)

    @pytest.mark.parametrize("k", ["3", 3.5, None, True, math.nan, [3]])
    @pytest.mark.parametrize("name", list(EDGE_TESTS))
    def test_non_integer_k(self, name, k):
        test, decision, threshold = EDGE_TESTS[name]
        s = mod.gen_community(8, 4, mod.VonMises(1.0), True, mod.rng_for(0, 70))
        message = self.same_error(ParameterError, test, decision, s, k, threshold)
        assert message == f"k must be an integer, got {k!r}"

    @pytest.mark.parametrize("k", [None, 99, -5, 1])
    def test_rayleigh_needs_k_in_range(self, k):
        s = mod.gen_community(8, 4, mod.VonMises(1.0), True, mod.rng_for(0, 70))
        test, decision, beta = EDGE_TESTS["rayleigh"]
        self.same_error(ParameterError, test, decision, s, k, beta)

    @pytest.mark.parametrize("threshold", ["x", None, True, 10 ** 400])
    @pytest.mark.parametrize("name,error", [
        ("interval", DomainError), ("coherence", ParameterError),
        ("rayleigh", ParameterError), ("variance", DomainError)])
    def test_non_number_threshold(self, name, error, threshold):
        test, decision, _ = EDGE_TESTS[name]
        s = mod.gen_community(8, 4, mod.VonMises(1.0), True, mod.rng_for(0, 70))
        message = self.same_error(error, test, decision, s, 4, threshold)
        if name == "interval" and threshold == 10 ** 400:
            # A window meets (0, 1] before its float is taken.
            assert message == f"tau must be in (0, 1], got {threshold!r}"
        else:
            assert message.endswith(f"must be a number, got {threshold!r}")

    @pytest.mark.parametrize("name", list(EDGE_TESTS))
    def test_integral_k_accepted(self, name):
        # 4.0 and a numpy int decide as 4; coherence_test used to reject 4.0.
        test, decision, threshold = EDGE_TESTS[name]
        s = mod.gen_community(8, 4, mod.VonMises(3.0), True, mod.rng_for(1, 70))
        want = test(s, 4, threshold)
        for k in (4.0, np.int64(4)):
            assert test(s, k, threshold) == want
            assert decide_one(decision, s, k, threshold) == want.rejected

    def test_rayleigh_statistic_ignores_k(self):
        s = mod.gen_community(8, 4, mod.VonMises(3.0), True, mod.rng_for(1, 70))
        assert len({det.rayleigh_test(s, k, 1.0).statistic
                    for k in range(2, 9)}) == 1

    @pytest.mark.parametrize("test", [det.interval_test_flat,
                                      det.known_theta_test_flat])
    def test_flat_arguments(self, test):
        s = mod.FlatSample(np.array([0.5, 1.0, 4.0]))
        with pytest.raises(DomainError, match="tau must be a number"):
            test(s, "0.1", 2.0)
        with pytest.raises(ParameterError, match="gamma must be a number"):
            test(s, 0.1, "2")
        with pytest.raises(DomainError, match="tau must be a number"):
            det.interval_rejects_flat([s.angles], "0.1", 2.0)
        with pytest.raises(DomainError, match="theta must be a number"):
            det.known_theta_test_flat(s, 0.1, 2.0, theta="1")


class TestVariance:
    def test_all_equal_zero(self):
        s = mod.EdgeSample(5, np.full(10, 3.3))
        value, _ = det.variance_stat(s, 4)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_linear_case_matches_sample_variance(self):
        s = mod.EdgeSample(3, np.array([0.0, 0.2, 0.4]))
        value, _ = det.variance_stat(s, 3)
        assert value == pytest.approx(np.var([0.0, 0.2, 0.4], ddof=1), rel=1e-12)

    def test_wraparound_cluster(self):
        # tight cluster across 0 must not look dispersed
        s = mod.EdgeSample(3, np.array([TWO_PI - 0.1, 0.05, 0.1]))
        value, _ = det.variance_stat(s, 3)
        assert value < 0.02

    def test_brute_force_theta_grid(self):
        rng = mod.rng_for(42, 40)
        s = mod.gen_community(6, 4, mod.VonMises(2.0), True, rng)
        value, subset = det.variance_stat(s, 4)
        # dense theta grid oracle on the winning subset
        edges = [s.angle(i, j) for i, j in combinations(subset, 2)]
        edges = np.array(edges)
        grid = np.linspace(0, TWO_PI, 20_000, endpoint=False)
        d = np.abs(edges[None, :] - grid[:, None])
        d = np.minimum(d, TWO_PI - d)
        oracle = (d ** 2).sum(axis=1).min() / (len(edges) - 1)
        assert value <= oracle + 1e-6
        assert value == pytest.approx(oracle, abs=1e-4)

    def test_coherence_link_near_alignment(self):
        checked = 0
        for seed in range(100):
            s = mod.gen_community(8, 4, mod.VonMises(4000.0), True,
                                  mod.rng_for(seed, 41))
            coh, _ = det.coherence_stat(s, 4)
            slack = 6.0 - coh
            if slack > 0.01:
                continue
            checked += 1
            var, _ = det.variance_stat(s, 4)
            assert var <= 2 * 0.01 / 5.0 * 1.25
        assert checked >= 50

    def test_needs_k3(self):
        s = mod.gen_community(6, 2, mod.VonMises(1.0), False, mod.rng_for(0, 42))
        with pytest.raises(ParameterError):
            det.variance_stat(s, 2)

    @pytest.mark.parametrize("sigma2", [0.05, 5.0, math.inf])
    @pytest.mark.parametrize("run", [det.variance_test,
                                     one_row(det.variance_rejects)],
                             ids=["statistic", "decision"])
    def test_peak_memory_is_one_block(self, monkeypatch, run, sigma2):
        # The search holds the (k-1)-prefix sums, one group of their children,
        # one block of _CHUNK_ROWS survivors and the rows tied at the running
        # minimum, never an array over all C(n, k) subsets: sigma2 = 5 and
        # inf prune nothing, 0.05 prunes almost every subset.
        monkeypatch.setattr(det, "_CHUNK_ROWS", 1024)
        s = mod.gen_community(120, 3, mod.VonMises(2.0), False, mod.rng_for(3, 52))
        det._prefix_levels(120, 3)  # cached; shared with the coherence scan
        tracemalloc.start()
        try:
            run(s, 3, sigma2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * math.comb(120, 3)  # a quarter of a float per subset

    @staticmethod
    def evaluated_blocks(sample, k):
        """Row counts of the blocks ``variance_stat`` passes to
        ``_block_variances``."""
        blocks = []
        evaluate = det._block_variances

        def recorded(x, n, subsets):
            blocks.append(subsets.shape[0])
            return evaluate(x, n, subsets)

        with mock.patch.object(det, "_block_variances", recorded):
            det.variance_stat(sample, k)
        return blocks

    @pytest.mark.parametrize("planted", [False, True], ids=["H0", "H1"])
    def test_statistic_prunes_at_24_6(self, planted):
        # The incumbent bar leaves few subsets to evaluate; the value and
        # witness are checked against the table scan in TestCoherencePrefixScan.
        for seed in range(4):
            s = mod.gen_community(24, 6, mod.VonMises(5.0), planted,
                                  mod.rng_for(seed, 64))
            assert sum(self.evaluated_blocks(s, 6)) < math.comb(24, 6) / 10

    @pytest.mark.parametrize("planted", [False, True], ids=["H0", "H1"])
    def test_statistic_below_the_floor_is_one_full_block(self, planted):
        # C(10, 6) = 210 is below _PRUNE_FLOOR: no modulus pass, every row
        # in one block.
        s = mod.gen_community(10, 6, mod.VonMises(30.0), planted,
                              mod.rng_for(0, 64))
        assert self.evaluated_blocks(s, 6) == [math.comb(10, 6)]

    def test_threshold_mechanics(self):
        s = mod.gen_community(7, 3, mod.VonMises(0.5), False, mod.rng_for(3, 43))
        always = det.variance_test(s, 3, sigma2=float(np.finfo(float).max))
        assert always.rejected
        never = det.variance_test(s, 3, sigma2=1e-300)
        assert not never.rejected


def tuple_revolving_door(n, k):
    """The tuple recursion R(n, k) = R(n-1, k) + reversed R(n-1, k-1) x {n-1}."""
    def rec(nn, kk):
        if kk == 0:
            return [()]
        if kk == nn:
            return [tuple(range(nn))]
        return rec(nn - 1, kk) + [s + (nn - 1,) for s in reversed(rec(nn - 1, kk - 1))]
    return np.asarray(rec(n, k), dtype=np.int32)


class TestSubsetTableSharing:
    @staticmethod
    def run_together(scan):
        start = threading.Barrier(4)
        results = []

        def run():
            start.wait(timeout=30)
            results.append(scan())

        threads = [threading.Thread(target=run) for _ in range(4)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 4 and len(set(results)) == 1

    @pytest.mark.parametrize("scan", ["coherence", "variance",
                                      "coherence-decision", "variance-decision"])
    def test_concurrent_scans_build_the_levels_once(self, scan):
        # The tree and the child offsets of its last level are one cache entry.
        s = mod.gen_community(16, 6, mod.VonMises(1.0), False, mod.rng_for(0, 48))
        name, _, decision = scan.partition("-")
        if decision:
            decide, test, _ = DECISIONS[name]
            threshold = test(s, 6, 1.0).statistic  # children near it are expanded
            run = lambda: decide(s, 6, threshold)  # noqa: E731
        else:
            run = lambda: SCANS[name][0](s, 6)  # noqa: E731
        det._prefix_levels.cache_clear()
        det.subset_edge_table.cache_clear()
        det.revolving_door_subsets.cache_clear()
        self.run_together(run)
        assert det._prefix_levels.cache_info().misses == 1
        assert det.subset_edge_table.cache_info().misses == 0
        assert det.revolving_door_subsets.cache_info().misses == 0


def table_formula(n, k):
    """The edge table as one int64 expression, cast to int32 at the end."""
    subs = det.revolving_door_subsets(n, k)
    a_idx, b_idx = np.triu_indices(k, k=1)
    return mod.edge_position(n, subs[:, a_idx].astype(np.int64),
                             subs[:, b_idx].astype(np.int64)).astype(np.int32)


class TestSubsetEdgeTable:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_equals_formula(self, n):
        for k in range(n + 1):
            table = det.subset_edge_table(n, k)
            want = table_formula(n, k)
            assert table.dtype == np.int32 and table.shape == want.shape
            assert table.flags.f_contiguous  # fixes the scans' summation order
            assert np.array_equal(table, want)

    def test_equals_formula_24_6_within_twice_its_size(self):
        det.revolving_door_subsets(24, 6)  # cached; not part of the build
        tracemalloc.start()
        try:
            table = det.subset_edge_table.__wrapped__(24, 6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.flags.f_contiguous
        assert np.array_equal(table, table_formula(24, 6))
        assert peak <= 2 * table.nbytes


def lex_prefix_tree(n, k):
    """_prefix_levels from itertools.combinations: (parent, last, cols) of
    levels 2 .. k as lists, and the child offsets of level k-1."""
    base = mod.vertex_bases(n)
    rows = {(v,): v for v in range(n - k + 1)}
    levels = []
    for j in range(2, k + 1):
        level = [c for c in combinations(range(n), j) if c[-1] <= n - k + j - 1]
        levels.append(([rows[c[:-1]] for c in level], [c[-1] for c in level],
                       [[int(base[s]) + c[-1] for s in c[:-1]] for c in level]))
        rows = {c: r for r, c in enumerate(level)}
    parents = levels[-1][0] if levels else [0] * (n - k + 1)
    offsets = np.searchsorted(parents, np.arange(len(set(parents)) + 1))
    return levels, offsets


class TestPrefixLevels:
    @pytest.mark.parametrize("rows", [1, 3, 16384])
    @pytest.mark.parametrize("n,k", [(2, 2), (5, 1), (6, 3), (7, 7), (9, 4),
                                     (10, 6), (12, 2)])
    def test_equals_combinations(self, monkeypatch, n, k, rows):
        monkeypatch.setattr(det, "_CHUNK_ROWS", rows)  # blocks of the build
        levels, offsets = det._prefix_levels.__wrapped__(n, k)
        want, want_offsets = lex_prefix_tree(n, k)
        assert len(levels) == len(want) == k - 1
        for (parent, last, cols), (w_parent, w_last, w_cols) in zip(levels, want):
            assert parent.dtype == last.dtype == cols.dtype == np.int32
            assert cols.flags.f_contiguous and cols.shape == (len(w_cols), cols.shape[1])
            assert parent.tolist() == w_parent and last.tolist() == w_last
            assert cols.tolist() == w_cols
        assert offsets.tolist() == want_offsets.tolist()

    # Trees of 10^5 rows and more: on small ones a block's temporaries are
    # a larger share.
    @pytest.mark.parametrize("n,k", [(24, 6), (20, 10)])
    def test_build_peak_is_about_the_tree(self, n, k):
        mod.vertex_bases(n)  # cached; not part of the build
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            levels, offsets = det._prefix_levels.__wrapped__(n, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        size = offsets.nbytes + sum(a.nbytes for level in levels for a in level)
        assert peak <= 1.25 * size


def table_coherence(sample, k):
    """The coherence scan over the whole ``subset_edge_table``, each row's
    phasors added one after the other: the oracle for the prefix scan, to
    the last bit."""
    table = det.subset_edge_table(sample.n, k)
    z = np.exp(1j * np.asarray(sample.edge_angles, dtype=float))
    vals = np.abs(np.cumsum(z[table], axis=1)[:, -1])
    row = int(np.argmax(vals))
    subs = det.revolving_door_subsets(sample.n, k)
    return float(vals[row]), tuple(int(v) for v in subs[row])


def table_variance(sample, k):
    """The variance scan over the whole ``subset_edge_table``, each sum over
    a row's sorted angles taken one term after the other: the oracle for
    the prefix scan, to the last bit."""
    table = det.subset_edge_table(sample.n, k)
    x = np.asarray(sample.edge_angles, dtype=float)
    m = k * (k - 1) // 2
    cuts = np.arange(m)
    vals = np.sort(x[table], axis=1)
    cum = np.cumsum(vals, axis=1)
    s1 = cum[:, -1:]
    s2 = np.cumsum(vals * vals, axis=1)[:, -1:]
    prefix = np.concatenate([np.zeros((vals.shape[0], 1)), cum[:, :-1]], axis=1)
    sum_y = s1 + TWO_PI * cuts
    sum_y2 = s2 + 2.0 * TWO_PI * prefix + TWO_PI * TWO_PI * cuts
    ss = np.maximum(sum_y2 - sum_y * sum_y / m, 0.0)
    var = ss.min(axis=1) / (m - 1)
    row = int(np.argmin(var))
    subs = det.revolving_door_subsets(sample.n, k)
    return float(var[row]), tuple(int(v) for v in subs[row])


# scan name: (prefix-tree scan, table-scan oracle, smallest k)
SCANS = {"coherence": (det.coherence_stat, table_coherence, 2),
         "variance": (det.variance_stat, table_variance, 3)}


@st.composite
def subset_scan_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=2, max_value=n))
    m = n * (n - 1) // 2
    values = canonical_angles
    if draw(st.booleans()):  # few values: many exact ties
        values = st.sampled_from(draw(st.lists(canonical_angles, min_size=1,
                                               max_size=4)))
    angles = draw(st.lists(values, min_size=m, max_size=m))
    # Blocks of one row, and a one-row last block whenever C(n, k) % rows
    # == 1, must give every subset the value it has in any other block.
    rows = draw(st.sampled_from([1, 2, 3, 4, 5, 7, 13, det._CHUNK_ROWS]))
    return mod.EdgeSample(n, np.array(angles)), k, rows


def scan_params(cases):
    """pytest params (scan, *case); coherence cases keep their bare ids."""
    return [pytest.param(scan, *case, id="-".join(
        ([] if scan == "coherence" else [scan]) + [str(v) for v in case]))
        for scan, case in cases]


def equals_table_scan(scan, sample, k):
    stat, oracle, _ = SCANS[scan]
    return stat(sample, k) == oracle(sample, k)


class TestCoherencePrefixScan:
    """Both prefix-tree scans, coherence and variance, against table scans."""

    @settings(max_examples=400, deadline=None)
    @given(subset_scan_cases())
    def test_equals_table_scan(self, case):
        sample, k, rows = case
        with mock.patch.object(det, "_CHUNK_ROWS", rows):
            for scan, (_, _, k_min) in SCANS.items():
                if k >= k_min:
                    assert equals_table_scan(scan, sample, k)

    @pytest.mark.parametrize("scan,n,k", scan_params([
        ("coherence", (16, 8)), ("coherence", (24, 6)),
        ("variance", (10, 6)), ("variance", (16, 6)), ("variance", (16, 8)),
        ("variance", (24, 6))]))
    def test_generated_samples(self, scan, n, k):
        for seed in range(6):
            for planted, kappa in ((False, 1.0), (True, 2.0), (True, 50.0)):
                s = mod.gen_community(n, k, mod.VonMises(kappa), planted,
                                      mod.rng_for(seed, 49))
                assert equals_table_scan(scan, s, k)

    @pytest.mark.parametrize("scan,n,k", scan_params(
        (scan, shape) for scan in ("coherence", "variance")
        for shape in ((16, 8), (24, 6), (12, 5), (9, 9))))
    @pytest.mark.parametrize("pool", [(2.5,), (0.0, 1.0, math.pi, 5.0)],
                             ids=["all-equal", "4-valued"])
    def test_every_row_ties(self, scan, n, k, pool):
        rng = mod.rng_for(7, 50)
        angles = np.asarray(pool)[rng.integers(0, len(pool), n * (n - 1) // 2)]
        assert equals_table_scan(scan, mod.EdgeSample(n, angles), k)

    @pytest.mark.parametrize("scan,n,k,rows", scan_params([
        ("coherence", (9, 4, 5)), ("coherence", (7, 2, 2)),
        ("coherence", (8, 8, 16384)), ("variance", (9, 4, 5)),
        ("variance", (12, 6, 13)), ("variance", (8, 8, 16384))]))
    def test_lone_last_block(self, monkeypatch, scan, n, k, rows):
        # C(n, k) % rows == 1: the last block is one row, the subset
        # {0, .., k-2, n-1}, which numpy would reduce pairwise. The community
        # is planted there, so that row is optimal.
        monkeypatch.setattr(det, "_CHUNK_ROWS", rows)
        assert math.comb(n, k) % rows == 1
        lone = np.array([*range(k - 1), n - 1])
        a_idx, b_idx = np.triu_indices(k, 1)
        for seed in range(40):
            rng = mod.rng_for(seed, 51)
            angles = rng.random(n * (n - 1) // 2) * TWO_PI
            angles[mod.edge_position(n, lone[a_idx], lone[b_idx])] = \
                mod.sample_von_mises(1.0, 3.0, rng, a_idx.size)
            assert equals_table_scan(scan, mod.EdgeSample(n, angles), k)

    @pytest.mark.parametrize("n,k", [(7, 2), (6, 3), (9, 4), (12, 6), (16, 8),
                                     (8, 8), (10, 9)])
    def test_row_alone_equals_row_in_block(self, n, k):
        # A subset's value adds its C(k,2) terms one after the other in any
        # block; numpy would reduce a one-row block pairwise.
        subsets = det.revolving_door_subsets(n, k)
        rows = np.linspace(0, len(subsets) - 1, min(len(subsets), 60)).astype(int)
        for seed in range(3):
            x = mod.rng_for(seed, 53).random(n * (n - 1) // 2) * TWO_PI
            z = np.exp(1j * x)
            block = det._table_coherence(z, n, subsets)
            alone = [det._table_coherence(z, n, subsets[r:r + 1])[0] for r in rows]
            assert np.array_equal(alone, block[rows])
            if k >= 3:
                block = det._block_variances(x, n, subsets)
                alone = [det._block_variances(x, n, subsets[r:r + 1])[0]
                         for r in rows]
                assert np.array_equal(alone, block[rows])

    @pytest.mark.parametrize("n", range(1, 13))
    def test_revolving_door_rank(self, n):
        for k in range(n + 1):
            subs = tuple_revolving_door(n, k)
            assert np.array_equal(det._revolving_door_rank(subs),
                                  np.arange(subs.shape[0]))


def chunk_of_one(sample, k, beta):
    """``coherence_rejects`` of a (1, m) block that holds ``sample`` alone."""
    decisions = det.coherence_rejects(edge_rows([sample]), k, beta)
    assert decisions.shape == (1,) and decisions.dtype == bool
    return bool(decisions[0])


# decision name: (the decision on one sample, its test, smallest k); the
# oracle of "<scan>-chunk" is the scan's
DECISIONS = {"coherence": (one_row(det.coherence_rejects), det.coherence_test, 2),
             "variance": (one_row(det.variance_rejects), det.variance_test, 3),
             "coherence-chunk": (chunk_of_one, det.coherence_test, 2)}


def around(value):
    """A threshold at ``value`` and at its two float neighbours."""
    return (value, float(np.nextafter(value, -math.inf)),
            float(np.nextafter(value, math.inf)))


def decisions_match(sample, k, thresholds, names=tuple(DECISIONS)):
    """Each decision equals its test's ``rejected`` at every threshold, and
    both equal the verdict of the table-scan oracle, which shares no code
    with the prefix-tree search.

    Thresholds at each statistic and its neighbours are added, so the
    band path of the decisions runs."""
    for name in names:
        decide, test, k_min = DECISIONS[name]
        if k < k_min:
            continue
        stat = test(sample, k, 1.0).statistic
        oracle = SCANS[name.split("-")[0]][1](sample, k)[0]
        for t in (*thresholds, *around(stat)):
            if name == "variance" and not t > 0.0:
                continue
            want = oracle <= t if name == "variance" else oracle >= t
            got = decide(sample, k, t)
            assert got == test(sample, k, t).rejected == want, (name, t)


class TestSubsetDecisions:
    """``coherence_rejects`` and ``variance_rejects`` against the statistic
    path's ``rejected``."""

    @settings(max_examples=300, deadline=None)
    @given(subset_scan_cases(), st.lists(st.one_of(
        st.floats(min_value=1e-9, max_value=50.0),
        st.sampled_from([1e-300, 0.5, 2.0, math.inf, -math.inf, math.nan])),
        max_size=3))
    def test_equals_statistic_decision(self, case, thresholds):
        sample, k, rows = case
        with mock.patch.object(det, "_CHUNK_ROWS", rows):
            decisions_match(sample, k, thresholds)

    @pytest.mark.parametrize("n,k,kappas", [
        (16, 8, (0.1, 2.0)), (24, 6, (2.0,)), (12, 10, (20.0,)),
        (10, 6, (30.0, 2.0))])
    def test_generated_samples(self, n, k, kappas):
        for seed in range(3):
            for kappa in kappas:
                for planted in (False, True):
                    s = mod.gen_community(n, k, mod.VonMises(kappa), planted,
                                          mod.rng_for(seed, 60))
                    betas = [det.coherence_threshold(k, kappa, eps)
                             for eps in (0.1, 0.5, 0.9)]
                    decisions_match(s, k, betas, ("coherence",))
                    decisions_match(s, k, (0.05, 0.3), ("variance",))

    @pytest.mark.parametrize("n,k,rows", [(9, 4, 5), (7, 2, 2), (8, 8, 16384),
                                          (12, 6, 13), (10, 9, 3)])
    def test_lone_last_block(self, monkeypatch, n, k, rows):
        # As in TestCoherencePrefixScan: the one-row last block is planted,
        # so the thresholds at the statistic decide on its sums.
        monkeypatch.setattr(det, "_CHUNK_ROWS", rows)
        assert math.comb(n, k) % rows == 1
        lone = np.array([*range(k - 1), n - 1])
        a_idx, b_idx = np.triu_indices(k, 1)
        for seed in range(30):
            rng = mod.rng_for(seed, 61)
            angles = rng.random(n * (n - 1) // 2) * TWO_PI
            angles[mod.edge_position(n, lone[a_idx], lone[b_idx])] = \
                mod.sample_von_mises(1.0, 30.0, rng, a_idx.size)
            decisions_match(mod.EdgeSample(n, angles), k, ())

    def test_single_survivor_sums_column_by_column(self):
        # One planted subset of 15 edges survives the variance bound alone and
        # is evaluated as a one-row block, its terms added one after the
        # other as in any block (numpy would reduce the row pairwise).
        blocks = []
        evaluate = det._block_variances

        def recorded(x, n, subsets):
            blocks.append(subsets.shape[0])
            return evaluate(x, n, subsets)

        with mock.patch.object(det, "_block_variances", recorded):
            for seed in range(30):
                s = mod.gen_community(10, 6, mod.VonMises(300.0), True,
                                      mod.rng_for(seed, 62))
                blocks.clear()
                decisions_match(s, 6, (), ("variance",))
                assert 1 in blocks

    @pytest.mark.parametrize("name,n,k,threshold,error,message", [
        ("coherence", 30, 15, 1.0, CapabilityError, "budget is 1e+08"),
        ("variance", 30, 15, 0.1, CapabilityError, "budget is 1e+08"),
        ("coherence", 6, 1, 1.0, ParameterError, "need 2 <= k <= n"),
        ("coherence", 6, 7, 1.0, ParameterError, "need 2 <= k <= n"),
        ("variance", 6, 2, 0.1, ParameterError, "need 3 <= k <= n"),
        ("variance", 6, 7, 0.1, ParameterError, "need 3 <= k <= n"),
        ("variance", 6, 3, 0.0, DomainError, "sigma2 must be > 0"),
        ("variance", 6, 3, -1.0, DomainError, "sigma2 must be > 0"),
        ("variance", 6, 3, math.nan, DomainError, "sigma2 must be > 0"),
        ("variance", 6, 2, 0.0, DomainError, "sigma2 must be > 0"),
        ("coherence-chunk", 30, 15, 1.0, CapabilityError, "budget is 1e+08"),
        # Every subset reaches -inf, so a witness exists; the checks come first.
        ("coherence-chunk", 30, 15, -math.inf, CapabilityError, "budget is 1e+08"),
        ("coherence-chunk", 6, 1, -math.inf, ParameterError, "need 2 <= k <= n"),
        ("coherence-chunk", 6, 7, -math.inf, ParameterError, "need 2 <= k <= n"),
    ])
    def test_errors_match_test(self, name, n, k, threshold, error, message):
        decide, test, _ = DECISIONS[name]
        s = mod.gen_community(n, 3, mod.VonMises(1.0), False, mod.rng_for(0, 63))
        with pytest.raises(error) as expected:
            test(s, k, threshold)
        with pytest.raises(error) as got:
            decide(s, k, threshold)
        assert message in str(got.value)
        assert str(got.value) == str(expected.value)


def coherence_chunk(n, k, kappa, seeds):
    """A chunk of null and planted samples, alternating."""
    return [mod.gen_community(n, k, mod.VonMises(kappa), planted,
                              mod.rng_for(seed, 64))
            for seed in seeds for planted in (False, True)]


class TestCoherenceChunk:
    """``coherence_rejects`` on a chunk against ``coherence_test`` per sample."""

    @pytest.mark.parametrize("n,k,kappa,block", [
        (16, 8, 2.0, None), (16, 8, 0.1, 5), (24, 6, 2.0, None),
        (12, 10, 20.0, 1), (7, 2, 1.0, 3), (8, 8, 5.0, None), (9, 9, 0.5, 4),
        (3, 3, 1.0, None), (20, 10, 2.0, None)])
    def test_mixed_chunk_equals_tests(self, monkeypatch, n, k, kappa, block):
        # ``block`` samples per witness block, else the whole chunk at once.
        if block is not None:
            monkeypatch.setattr(det, "_WITNESS_ANGLES", block * n * (n - 1) // 2)
        samples = coherence_chunk(n, k, kappa, range(6))
        reports = [det.coherence_test(s, k, 1.0) for s in samples]
        thresholds = [math.nan, math.inf, -math.inf, 0.0,
                      *(det.coherence_threshold(k, kappa, eps)
                        for eps in (0.1, 0.5, 0.9)),
                      *(t for r in reports for t in around(r.statistic))]
        seen = set()
        for t in thresholds:
            want = [replace(r, threshold=t).rejected for r in reports]
            got = det.coherence_rejects((s.edge_angles for s in samples), k, t)
            assert got.dtype == bool and got.tolist() == want, t
            seen.update(want)
        assert seen == {False, True}

    def test_witnesses_decide_most_trials(self, monkeypatch):
        # At (24, 6), kappa = 2 every trial rejects, nearly all by a witness.
        searched = []
        search = det._prefix_rejects
        monkeypatch.setattr(det, "_prefix_rejects",
                            lambda *args: searched.append(1) or search(*args))
        samples = coherence_chunk(24, 6, 2.0, range(32))
        beta = det.coherence_threshold(6, 2.0)
        got = det.coherence_rejects(edge_rows(samples), 6, beta)
        assert got.all() and len(searched) <= 8
        assert got.tolist() == [decide_one(det.coherence_rejects, s, 6, beta)
                                for s in samples]

    @pytest.mark.parametrize("n,k,beta,builds", [
        (40, 6, None, 0), (24, 6, 0.0, 0), (24, 6, math.inf, 1)])
    def test_tree_built_only_for_open_trials(self, n, k, beta, builds):
        # At (40, 6), kappa = 2 and its threshold the witnesses certify
        # every trial; every modulus is >= 0, and none reaches inf.
        samples = coherence_chunk(n, k, 2.0, range(32))
        if beta is None:
            beta = det.coherence_threshold(k, 2.0)
        det._prefix_levels.cache_clear()
        got = det.coherence_rejects(edge_rows(samples), k, beta)
        assert got.tolist() == [beta < math.inf] * len(samples)
        assert det._prefix_levels.cache_info().misses == builds

    def test_witness_at_beta_decides_alone(self, monkeypatch):
        # A witness whose value equals beta certifies; no search runs.
        monkeypatch.setattr(det, "_prefix_rejects", None)
        for s in coherence_chunk(16, 8, 2.0, range(3)):
            _, values = det._greedy_witnesses(det._phasor_block(edge_rows([s])),
                                              16, 8)
            beta = float(values.max())
            assert det.coherence_rejects(edge_rows([s]), 8, beta).tolist() == [True]

    @pytest.mark.parametrize("n,k,kappa", [(16, 8, 2.0), (24, 6, 0.1),
                                           (12, 10, 20.0), (5, 2, 1.0),
                                           (6, 6, 3.0), (2, 2, 1.0)])
    def test_certificates_are_table_values(self, n, k, kappa):
        samples = coherence_chunk(n, k, kappa, range(20))
        z = det._phasor_block(edge_rows(samples))
        members, values = det._greedy_witnesses(z, n, k)
        assert members.shape == (len(samples), k)
        assert values.shape == (len(samples),)
        assert not z[:, -1].any()
        for t, s in enumerate(samples):
            alone = np.exp(1j * s.edge_angles)
            assert np.array_equal(z[t, :-1], alone)
            assert (np.diff(members[t]) > 0).all()
            assert members[t].min() >= 0 and members[t].max() < n
            assert np.array_equal(values[t:t + 1],
                                  det._table_coherence(alone, n, members[t:t + 1]))

    @pytest.mark.parametrize("n", [2, 5, 9])
    def test_witness_at_k_equal_n_is_every_vertex(self, n):
        samples = coherence_chunk(n, n, 1.0, range(3))
        z = det._phasor_block(edge_rows(samples))
        members, _ = det._greedy_witnesses(z, n, n)
        assert members.tolist() == [list(range(n))] * len(samples)

    @pytest.mark.parametrize("n,k", [(16, 8), (20, 10), (30, 12)])
    def test_strong_community_is_the_witness(self, n, k):
        # The community's C(k,2) aligned edges outweigh the background's
        # random sum (about its square root) 2.9 to 3.7 times over.
        planted = coherence_chunk(n, k, 1e3, range(8))[1::2]
        z = det._phasor_block(edge_rows(planted))
        members, _ = det._greedy_witnesses(z, n, k)
        assert members.tolist() == [sorted(s.truth.community) for s in planted]

    def test_empty_chunk(self):
        got = det.coherence_rejects(iter([]), 6, 1.0)
        assert got.shape == (0,) and got.dtype == bool

    def test_samples_must_share_n(self):
        samples = coherence_chunk(8, 4, 1.0, [0]) + coherence_chunk(9, 4, 1.0, [0])
        with pytest.raises(ParameterError, match="must share n = 8"):
            det.coherence_rejects([s.edge_angles for s in samples], 4, 1.0)


class TestRevolvingDoor:
    @pytest.mark.parametrize("n,k", [(1, 1), (6, 1), (4, 0), (7, 7), (9, 8),
                                     (6, 3), (9, 4), (12, 5), (13, 6), (16, 3)])
    def test_equals_tuple_recursion(self, n, k):
        subs = det.revolving_door_subsets(n, k)
        want = tuple_revolving_door(n, k)
        assert subs.dtype == want.dtype and subs.shape == want.shape
        assert np.array_equal(subs, want)
        for a, b in zip(subs[:-1].tolist(), subs[1:].tolist()):
            assert len(set(a) ^ set(b)) == 2  # one element out, one in

    def test_holds_only_its_result_after_return(self):
        levels_cache = det._prefix_levels.cache_info()
        enabled = gc.isenabled()
        gc.disable()  # memory held in reference cycles stays held
        tracemalloc.start()
        try:
            subs = det.revolving_door_subsets.__wrapped__(24, 6)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert subs.shape == (math.comb(24, 6), 6)
        assert held <= 1.2 * subs.nbytes
        assert det._prefix_levels.cache_info() == levels_cache  # none left

    @pytest.mark.parametrize("n,k", [(3, 4), (3, -1)])
    def test_bad_size_rejected(self, n, k):
        with pytest.raises(ParameterError):
            det.revolving_door_subsets(n, k)

    @pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (8, 4), (10, 5)])
    def test_minimal_change_and_complete(self, n, k):
        subs = det.revolving_door_subsets(n, k)
        assert subs.shape == (math.comb(n, k), k)
        seen = {tuple(r) for r in subs.tolist()}
        assert len(seen) == math.comb(n, k)
        for a, b in zip(subs[:-1], subs[1:]):
            assert len(set(a.tolist()) & set(b.tolist())) == k - 1
