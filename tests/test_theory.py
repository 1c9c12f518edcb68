"""Bounds, overlap laws, exact second moments, and regime classification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import hypergeom as scipy_hypergeom

from circlab import specfun as sf
from circlab import theory as th
from circlab.errors import DomainError, NumericError, ParameterError

TWO_PI = 2.0 * math.pi


class TestFlatHardBounds:
    def test_union_bound_example(self):
        b = th.flat_hard_bounds(10, 3, 0.01, 3)
        assert b["pfa_union"].value == pytest.approx(10 * 36 * 1e-4, rel=1e-12)

    def test_zero_miss_at_planted_count(self):
        b = th.flat_hard_bounds(10, 3, 0.01, 3)
        assert b["pmiss"].value == 0.0 and b["pmiss"].applicable

    def test_union_vanishes_with_window(self):
        vals = [th.flat_hard_bounds(100, 4, tau, 4)["pfa_union"].value
                for tau in (1e-2, 1e-4, 1e-6)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-10

    def test_chernoff_needs_mean_gap(self):
        b = th.flat_hard_bounds(100, 10, 0.5, 5)
        assert not b["pfa_chernoff"].applicable

    def test_log_space_matches_direct(self):
        b = th.flat_hard_bounds(40, 4, 0.03, 4)
        direct = 40 * math.comb(39, 3) * 0.03 ** 3
        assert b["pfa_union"].value == pytest.approx(direct, rel=1e-12)


class TestFlatVMBounds:
    def test_kappa_zero_g(self):
        b = th.flat_vm_bounds(100, 10, 0.0, 0.2)
        assert b["g"].value == pytest.approx(0.0, abs=1e-12)

    def test_pmiss_formula(self):
        b = th.flat_vm_bounds(100, 10, 2.0, 0.2, c_n=3.0)
        assert b["pmiss"].value == pytest.approx(math.exp(-4.5))

    def test_gaussian_limit_of_g(self):
        # at large kappa with tau = c2/(pi sqrt(kappa)), g -> K (1 - 2 Q(c2))
        N, K = 10_000, 100
        c2 = th.C2_STAR_REFERENCE
        for kappa in (1e4, 1e5):
            tau = c2 / (math.pi * math.sqrt(kappa))
            b = th.flat_vm_bounds(N, K, kappa, tau)
            target = K * (1.0 - 2.0 * sf.gaussian_upper_tail(c2))
            assert b["g"].value / target == pytest.approx(1.0, abs=0.05)

    def test_explicit_gamma_branch(self):
        b = th.flat_vm_bounds(100, 10, 2.0, 0.2, gamma=20.0)
        mean1 = 100 * 0.2 + b["g"].value
        assert b["pmiss"].value == pytest.approx(
            math.exp(-(mean1 - 20.0) ** 2 / (2 * mean1)))
        above = th.flat_vm_bounds(100, 10, 2.0, 0.2, gamma=mean1 + 1)
        assert not above["pmiss"].applicable


class TestKnownThetaBounds:
    def test_removes_scan_factor(self):
        full = th.flat_hard_bounds(400, 40, 0.05, 50.0)
        known = th.known_theta_bounds(400, 40, 0.05, 50.0)
        assert known["pfa_chernoff"].value == pytest.approx(
            full["pfa_chernoff"].value / 400)
        assert known["pmiss"].value == full["pmiss"].value


class TestCommIntervalBounds:
    def test_hard_cluster_zero_miss(self):
        b = th.comm_interval_bounds(20, 5, 0.1)
        assert b["pmiss"].value == 0.0

    def test_pfa_display_decreases_along_log_regime(self):
        c = 2.0
        vals = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            k = max(3, round(c * math.log(n)))
            tau = math.exp(-2.0 / c)
            vals.append(th.comm_interval_bounds(n, k, tau)["pfa"].value)
        assert vals[0] > vals[1] > vals[2]

    def test_union_miss_bound_is_exact_step(self):
        b = th.comm_interval_bounds(16, 5, 0.1, kappa=40.0)
        expect = 10 * (1.0 - sf.arc_prob(40.0, 0.1))
        assert b["pmiss"].value == pytest.approx(expect, rel=1e-10)
        assert not b["pmiss_asymptotic"].applicable

    def test_asymptotic_display_small_window_regime(self):
        # log of the display tracks -pi^2 kappa tau^2 / 2 as tau -> 0
        kappa, k, n = 50_000.0, 6, 30
        logs = []
        for tau in (0.02, 0.01):
            val = th.comm_interval_bounds(n, k, tau, kappa=kappa)
            logs.append(math.log(val["pmiss_asymptotic"].value))
        dominant = [-math.pi ** 2 * kappa * tau ** 2 / 2 for tau in (0.02, 0.01)]
        assert logs[0] - logs[1] == pytest.approx(dominant[0] - dominant[1],
                                                  rel=0.1)

    def test_tau_one_miss_display_inapplicable(self):
        b = th.comm_interval_bounds(10, 4, 1.0, kappa=2.0)
        assert not b["pmiss_asymptotic"].applicable


class TestCommCoherenceBounds:
    def test_vacuous_at_tiny_kappa(self):
        b = th.comm_coherence_bounds(50, 5, 1e-8, 0.5, B=4)
        assert b["pfa"].value >= 4.0 * (50 * math.e / 5) ** 5 * 0.999
        assert b["pmiss"].value == pytest.approx(1.0, abs=1e-6)

    def test_detectable_regime_exponent_negative(self):
        n, k, eps = 10_000, 200, 0.2
        kappa = (1 + eps) * math.sqrt(8 * math.log(n) / (k - 1))
        b = th.comm_coherence_bounds(n, k, kappa, eps, B=8)
        assert b["pfa"].value < 1e-100
        assert b["pmiss"].value < 0.1

    def test_recipe_chain_with_large_k(self):
        # with k large enough that A(kappa) ~ kappa/2, the B-gon exponent
        # dominates (1+eps/4)^2 log n per vertex
        n, k, eps, B = 10_000, 2000, 0.2, 20
        kappa = (1 + eps) * math.sqrt(8 * math.log(n) / (k - 1))
        assert (1 - eps / 4) * (1 + eps) * math.cos(math.pi / B) >= 1 + eps / 4
        a = sf.mean_resultant(kappa)
        exponent = k * (math.log(n * math.e / k)
                        - (1 - eps / 4) ** 2 * (k - 1) * a * a
                        * math.cos(math.pi / B) ** 2 / 2)
        assert exponent <= k * (math.log(n * math.e / k)
                                - (1 + eps / 4) ** 2 * math.log(n))
        assert exponent < 0


class TestRayleighAndVarianceBounds:
    def test_rayleigh_defaults(self):
        b = th.rayleigh_bounds(30, 15, 3.0)
        mu1 = 105 * sf.mean_resultant(3.0)
        n_edges = 435
        assert b["total_default"].value == pytest.approx(
            5 * math.exp(-mu1 ** 2 / (8 * n_edges)))
        assert b["pfa"].value == pytest.approx(
            4 * math.exp(-(mu1 / 2) ** 2 / (2 * n_edges)))

    def test_rayleigh_condition_values(self):
        out = th.rayleigh_condition(100, 50, 5.0)
        assert out["ratio"] == pytest.approx(2500 * sf.mean_resultant(5.0) / 100)
        assert th.rayleigh_condition(10, 5, 0.0)["ratio"] == 0.0

    def test_variance_pfa_bound_monotone_in_sigma2(self):
        b1 = th.comm_variance_bounds(10, 6, 0.02, kappa=30.0)
        b2 = th.comm_variance_bounds(10, 6, 0.2, kappa=30.0)
        assert b1["pfa"].value < b2["pfa"].value

    def test_variance_pmiss_needs_margin(self):
        tight = th.comm_variance_bounds(10, 6, 1e-4, kappa=3.0)
        assert not tight["pmiss"].applicable


class TestOverlap:
    def test_identical_arcs(self):
        assert th.delta_overlap(0.3, 0.0) == pytest.approx(0.3)

    def test_disjoint(self):
        assert th.delta_overlap(0.3, 0.4) == 0.0

    def test_wide_arcs(self):
        assert th.delta_overlap(0.7, 0.1) == pytest.approx(0.6)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.0, max_value=0.5))
    def test_geometric_oracle(self, tau, u):
        # direct arc-intersection measure on the circle
        def intersection(a_start, b_start, length):
            pts = []
            for x in np.linspace(0, TWO_PI, 4096, endpoint=False):
                in_a = (x - a_start) % TWO_PI <= length
                in_b = (x - b_start) % TWO_PI <= length
                pts.append(in_a and in_b)
            return sum(pts) / 4096.0

        got = th.delta_overlap(tau, u)
        approx = intersection(0.0, TWO_PI * u, TWO_PI * tau)
        assert got == pytest.approx(approx, abs=2e-3)

    def test_moment_examples(self):
        assert th.delta_moment(0.5, 1) == pytest.approx(0.25)
        for tau, j in ((0.2, 3), (0.8, 2), (0.65, 5)):
            kink = tau if tau <= 0.5 else 1 - tau
            num, _ = quad(lambda u: th.delta_overlap(tau, u) ** j, 0, 0.5,
                          epsabs=1e-14, points=[kink], limit=200)
            assert th.delta_moment(tau, j) == pytest.approx(2 * num, abs=1e-12)

    def test_mean_is_tau_squared(self):
        for tau in (0.1, 0.5, 0.9):
            assert th.delta_moment(tau, 1) == pytest.approx(tau ** 2, rel=1e-12)


class TestHypergeom:
    def test_examples(self):
        assert th.hypergeom_pmf(th.OverlapLaw(4, 4), 4) == pytest.approx(1.0)
        assert th.hypergeom_pmf(th.OverlapLaw(4, 2), 0) == pytest.approx(1 / 6)
        total = sum(th.hypergeom_pmf(th.OverlapLaw(30, 7), j) for j in range(8))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_zero(self):
        law = th.OverlapLaw(10, 3)
        assert th.hypergeom_pmf(law, 4) == 0.0
        assert th.hypergeom_pmf(law, -1) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=60), st.data())
    def test_scipy_oracle(self, N, data):
        K = data.draw(st.integers(min_value=0, max_value=N))
        j = data.draw(st.integers(min_value=0, max_value=K))
        ours = th.hypergeom_pmf(th.OverlapLaw(N, K), j)
        ref = float(scipy_hypergeom.pmf(j, N, K, K))
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-14)


class TestSecondMoments:
    def test_always_at_least_one(self):
        for (N, K, tau) in ((8, 3, 0.3), (12, 5, 0.8), (40, 10, 0.05)):
            assert th.second_moment_exact_flat_hard(N, K, tau) >= 1.0

    def test_same_distribution_limit(self):
        val = th.second_moment_exact_flat_hard(8, 8, 0.999)
        assert abs(val - 1.0) < 1e-2

    def test_kappa_zero_cases(self):
        assert th.second_moment_exact_comm_vm(10, 3, 0.0) == 1.0
        assert th.second_moment_exact_flat_vm(10, 3, 0.0) == 1.0

    def test_flat_hard_upper_bound_grid(self):
        for tau in (0.05, 0.2, 0.4, 0.5):
            for (N, K) in ((20, 4), (50, 7), (200, 14)):
                exact = th.second_moment_exact_flat_hard(N, K, tau)
                f = th.impossibility_functionals("flat-hard", N=N, K=K, tau=tau)
                assert exact - 1 <= f["var_upper"].value * (1 + 1e-12)

    def test_comm_vm_upper_bound_grid(self):
        for kappa in (0.2, 1.0, 2.5):
            for (n, k) in ((10, 3), (14, 5), (20, 6)):
                exact = th.second_moment_exact_comm_vm(n, k, kappa)
                f = th.impossibility_functionals("comm-vm", n=n, k=k, kappa=kappa)
                bound = math.exp(f["var_upper"].value)
                assert exact <= bound * (1 + 1e-12)

    def test_comm_hard_upper_bound_grid(self):
        for tau in (0.3, 0.6, 0.9):
            for (n, k) in ((10, 3), (16, 5)):
                exact = th.second_moment_exact_comm_hard(n, k, tau)
                f = th.impossibility_functionals("comm-hard", n=n, k=k, tau=tau)
                assert exact - 1 <= math.expm1(f["var_upper"].value) * (1 + 1e-12)

    def test_overflow_tagged_infinite(self):
        assert math.isinf(th.second_moment_exact_comm_vm(40, 30, 50.0))

    @pytest.mark.parametrize("fn,args", [
        (th.second_moment_exact_comm_vm, (30, 20, 1e6)),
        (th.second_moment_exact_flat_vm, (2000, 1000, 1e5)),
    ], ids=["comm-vm", "flat-vm"])
    def test_quadrature_that_misses_the_peak_is_numeric_error(self, fn, args):
        with pytest.raises(NumericError):
            fn(*args)


class TestImpossibilityFunctionals:
    def test_flat_hard_vanishes_along_regime_scaling(self):
        # the displayed functional vanishes along tau = K^2/(eps N log N)
        # with N growing (it diverges as tau -> 0 at fixed N: the
        # (1 + K/(N tau))^(K+1) factor wins, matching easier detection)
        vals = [th.impossibility_functionals(
            "flat-hard", N=N, K=8,
            tau=64 / (0.1 * N * math.log(N)))["var_upper"].value
            for N in (10 ** 3, 10 ** 4, 10 ** 5)]
        assert vals[0] > vals[1] > vals[2] and vals[2] < 0.01
        fixed_n = [th.impossibility_functionals(
            "flat-hard", N=100, K=8, tau=tau)["var_upper"].value
            for tau in (1e-2, 1e-3, 1e-4)]
        assert fixed_n[0] < fixed_n[1] < fixed_n[2]

    def test_flat_vm_exponent_sign(self):
        n_val = 10_000
        out = th.impossibility_functionals("flat-vm", N=n_val,
                                           K=int(math.sqrt(n_val)), kappa=0.01)
        # K^2/N (R-1) - log R with R ~ 1 + kappa^2/2: tiny positive minus tiny
        assert abs(out["exponent"].value) < 1e-4

    def test_comm_vm_corollary_scale(self):
        # in the genuinely small-k regime the exact variance certifies
        # impossibility; the displayed upper-bound functional is much looser
        n = 10 ** 6
        for k in (6, 8, 10):
            kappa = (n / k ** 2) ** ((4 - 0.5) / (k - 1))
            out = th.impossibility_functionals("comm-vm", n=n, k=k, kappa=kappa)
            assert out["var_exact"].value < 1e-3
        # at k = 20 (comparable to log n = 13.8) the full-overlap likelihood
        # spike keeps both functionals macroscopic
        out = th.impossibility_functionals(
            "comm-vm", n=n, k=20, kappa=(n / 400) ** (3.5 / 19))
        assert out["var_upper"].value == pytest.approx(52.011, rel=1e-3)
        assert out["var_exact"].value == pytest.approx(0.09558, rel=1e-3)

    def test_tv_bound(self):
        assert th.tv_bound(1.0) == 0.0
        assert th.tv_bound(1.04) == pytest.approx(0.1)


class TestRegimeClassify:
    def test_flat_hard_achievable_example(self):
        N, K = 10 ** 6, 3
        v = th.regime_classify("flat-hard",
                               {"N": N, "K": K, "tau": N ** -1.5 / math.log(N)})
        assert v.verdict == "achievable"
        assert v.citation == "flat-hard/achievable/small-K-tiny-window"

    def test_flat_hard_impossible_example(self):
        N, K = 10 ** 6, 3
        v = th.regime_classify("flat-hard",
                               {"N": N, "K": K, "tau": N ** -1.5 * math.log(N)})
        assert v.verdict == "impossible"
        assert v.citation == "flat-hard/impossible/small-K-wide-window"

    def test_gap_indeterminate(self):
        N, K = 10 ** 6, 3
        v = th.regime_classify("flat-hard", {"N": N, "K": K, "tau": N ** -1.5})
        assert v.verdict == "indeterminate" and v.citation == ""

    def test_monotone_no_inversion(self):
        N, K = 100_000, 40
        taus = np.logspace(-6, -0.05, 40)
        verdicts = [th.regime_classify("flat-hard",
                                       {"N": N, "K": K, "tau": float(t)}).verdict
                    for t in taus]
        seen_achievable_at = [i for i, v in enumerate(verdicts)
                              if v == "achievable"]
        seen_impossible_at = [i for i, v in enumerate(verdicts)
                              if v == "impossible"]
        if seen_achievable_at and seen_impossible_at:
            assert max(seen_achievable_at) < min(seen_impossible_at)

    def test_flat_vm_reports_both_constants(self):
        v = th.regime_classify("flat-vm", {"N": 10 ** 6, "K": 900,
                                           "kappa": 1e6})
        assert "c0_reference" in v.condition_values

    def test_comm_vm_cells(self):
        strong = th.regime_classify("comm-vm", {"n": 16, "k": 8, "kappa": 2.0})
        weak = th.regime_classify("comm-vm", {"n": 16, "k": 8, "kappa": 0.1})
        assert strong.verdict == "achievable"
        assert weak.verdict == "impossible"

    def test_comm_hard_cell(self):
        v = th.regime_classify("comm-hard", {"n": 16, "k": 5, "tau": 0.05})
        assert v.verdict == "achievable"

    def test_unknown_model(self):
        with pytest.raises(ParameterError):
            th.regime_classify("zebra", {})


class TestKnownThetaRegime:
    def test_achievable_example(self):
        v = th.known_theta_regime(10 ** 6, 500, 1e-5)
        assert v.verdict == "achievable"

    def test_impossible_branch(self):
        N, K = 10 ** 6, 500
        tau = min(1.0, K * K * math.log(N) / N)
        v = th.known_theta_regime(N, K, tau)
        assert v.verdict == "impossible"

    def test_large_K_flagged(self):
        v = th.known_theta_regime(100, 50, 0.01)
        assert v.verdict == "indeterminate"
        assert v.condition_values["K2_le_N"] is False


class TestDomainErrors:
    def test_delta_domain(self):
        with pytest.raises(DomainError):
            th.delta_overlap(0.3, 0.7)
        with pytest.raises(DomainError):
            th.delta_moment(1.2, 1)

    def test_bad_shapes(self):
        with pytest.raises(ParameterError):
            th.flat_hard_bounds(5, 9, 0.1, 3)
        with pytest.raises(ParameterError):
            th.OverlapLaw(3, 5)
