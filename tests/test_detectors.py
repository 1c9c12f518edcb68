"""Detector statistics against brute-force oracles, plus decision mechanics."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlab import detectors as det
from circlab import models as mod
from circlab.errors import (CapabilityError, ConfigError, DomainError,
                             ParameterError)

TWO_PI = 2.0 * math.pi


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
        with pytest.raises(CapabilityError):
            det.coherence_stat(s, 15, budget=10_000)

    def test_threshold_arithmetic(self):
        from circlab.specfun import mean_resultant

        s = mod.EdgeSample(6, np.full(15, 1.0))
        rep = det.coherence_test(s, 6, det.coherence_threshold(6, 1.0, 0.5))
        assert rep.threshold == pytest.approx(15 * 0.875 * mean_resultant(1.0))
        assert rep.rejected  # aligned edges always clear the threshold

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

    def test_threshold_mechanics(self):
        s = mod.gen_community(7, 3, mod.VonMises(0.5), False, mod.rng_for(3, 43))
        always = det.variance_test(s, 3, sigma2=float(np.finfo(float).max))
        assert always.rejected
        never = det.variance_test(s, 3, sigma2=1e-300)
        assert not never.rejected

    def test_sigma2_mapping(self):
        assert det.sigma2_from_coherence_eps(4, 0.5) == pytest.approx(2 * 0.5 / 5)


def tuple_revolving_door(n, k):
    """The tuple recursion R(n, k) = R(n-1, k) + reversed R(n-1, k-1) x {n-1}."""
    def rec(nn, kk):
        if kk == 0:
            return [()]
        if kk == nn:
            return [tuple(range(nn))]
        return rec(nn - 1, kk) + [s + (nn - 1,) for s in reversed(rec(nn - 1, kk - 1))]
    return np.asarray(rec(n, k), dtype=np.int32)


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
