"""Special-function unit tests against independent oracles."""

import importlib.util
import inspect
import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy
from scipy.integrate import IntegrationWarning, quad
from scipy.special import i0e, i1e

from circlab import specfun as sf
from circlab import theory as th
from circlab.errors import DomainError, NumericError

TWO_PI = 2.0 * math.pi


def series_i0(x, tol=1e-17):
    """Independent truncated power series oracle for I0."""
    term, total, k = 1.0, 1.0, 0
    while True:
        k += 1
        term *= (x / 2.0) ** 2 / k ** 2
        total += term
        if term < tol * total:
            return total


class TestBesselI0:
    def test_at_zero(self):
        assert sf.log_bessel_i0(0.0) == 0.0
        assert sf.bessel_i0_scaled(0.0) == 1.0

    def test_series_oracle(self):
        assert sf.log_bessel_i0(2.0) == pytest.approx(math.log(series_i0(2.0)),
                                                      rel=1e-13)

    def test_scaled_at_10_matches_series(self):
        assert sf.bessel_i0_scaled(10.0) == pytest.approx(
            math.exp(-10.0) * series_i0(10.0), rel=1e-12)

    def test_large_argument_lower_bound(self):
        # e^{-100} sqrt(100) I0(100) stays above the 0.3 floor
        assert sf.bessel_i0_scaled(100.0) * math.sqrt(100.0) >= 0.3

    def test_scaled_asymptotic_level(self):
        assert sf.bessel_i0_scaled(50.0) == pytest.approx(
            1.0 / math.sqrt(100.0 * math.pi), rel=1e-2)

    def test_quadrature_oracle(self):
        for x in (0.5, 3.0, 17.0, 45.0):
            val, _ = quad(lambda u: math.exp(x * (math.cos(u) - 1.0)), 0.0,
                          TWO_PI, epsabs=1e-15, limit=200)
            assert sf.bessel_i0_scaled(x) == pytest.approx(val / TWO_PI,
                                                           rel=1e-11)
            assert sf.log_bessel_i0(x) == pytest.approx(
                x + math.log(val / TWO_PI), rel=1e-11)

    def test_large_argument_stays_finite(self):
        # I0(800) itself overflows a double; the scaled and log forms do not.
        assert math.isfinite(sf.bessel_i0_scaled(800.0))
        assert math.isfinite(sf.log_bessel_i0(800.0))

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            sf.bessel_i0_scaled(bad)
        with pytest.raises(DomainError):
            sf.log_bessel_i0(bad)


class TestBesselI1:
    """I1 through A = I1/I0, its one public use."""

    def test_at_zero(self):
        # I1(x) = x/2 + O(x^3), and I0(x) = 1 + O(x^2)
        assert sf.mean_resultant(1e-300) == 1e-300 / 2.0

    def test_quadrature_oracle_at_one(self):
        num, _ = quad(lambda u: math.cos(u) * math.exp(math.cos(u)), 0.0,
                      TWO_PI, epsabs=1e-13, limit=200)
        den, _ = quad(lambda u: math.exp(math.cos(u)), 0.0, TWO_PI,
                      epsabs=1e-13, limit=200)
        assert sf.mean_resultant(1.0) == pytest.approx(num / den, rel=1e-10)

    def test_small_x_ratio(self):
        # I1(x)/I0(x) = x/2 + O(x^3)
        for x in (1e-3, 1e-2):
            assert sf.mean_resultant(x) == pytest.approx(x / 2.0, abs=x ** 3)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            sf.mean_resultant(-0.5)


class TestCrossover:
    def test_i0_branches_agree(self):
        xs = np.linspace(25.0, 35.0, 201)
        a = sf._i0_series_scaled(xs)
        b = sf._i0_asymptotic_scaled(xs)
        assert np.max(np.abs(a / b - 1.0)) < 1e-6

    def test_i1_branches_agree(self):
        xs = np.linspace(25.0, 35.0, 201)
        a = sf._i1_series_scaled(xs)
        b = sf._i1_asymptotic_scaled(xs)
        assert np.max(np.abs(a / b - 1.0)) < 1e-6


class TestScalarPath:
    """The float loops against scipy's i0e/i1e, an independent implementation.

    ``_log_i0``, the array path of the Monte Carlo likelihood ratios, is
    ``x + log(i0e(x))``. Tolerances are set from measurement on this grid:
    scaled I0 agrees to 1.8e-15 relative, scaled I1 and A to 2.0e-15, log I0
    to 6.2e-16 max(1, x) and log R, log rho to 1.5e-15 max(1, 2 kappa).
    """

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(20260)
        special = [0.0, 5e-324, 1e-300, 27.391328053106932, 30.0,
                   np.nextafter(30.0, 0.0), np.nextafter(30.0, 60.0), 700.0,
                   713.0, 5000.0]
        return np.concatenate([rng.uniform(0.0, 60.0, 6000),
                               rng.uniform(60.0, 5000.0, 2000), special])

    def test_log_i0_matches_array_path(self, grid):
        got = np.array([sf.log_bessel_i0(x) for x in grid.tolist()])
        assert np.all(np.abs(got - sf._log_i0(grid))
                      <= 2e-15 * np.maximum(1.0, grid))

    def test_scaled_bessel_match_scipy(self, grid):
        xs = grid.tolist()
        np.testing.assert_allclose([sf.bessel_i0_scaled(x) for x in xs],
                                   i0e(grid), rtol=4e-15, atol=0.0)
        # atol: at 5e-324, x/2 rounds to 0 here and up to 5e-324 in scipy
        np.testing.assert_allclose([sf._i1e_f(x) for x in xs], i1e(grid),
                                   rtol=4e-15, atol=5e-324)
        pos = grid > 1e-300
        np.testing.assert_allclose(
            [sf.mean_resultant(x) for x in grid[pos].tolist()],
            i1e(grid[pos]) / i0e(grid[pos]), rtol=8e-15, atol=0.0)

    def test_ratios_match_array_path(self, grid):
        kappa = grid[grid <= 2000.0]
        scale = 4e-15 * np.maximum(1.0, 2.0 * kappa)
        want = sf._log_i0(2.0 * kappa) - 2.0 * sf._log_i0(kappa)
        got = np.array([sf.log_ratio_R(k) for k in kappa.tolist()])
        assert np.all(np.abs(got - want) <= scale)
        pairs = list(zip(kappa.tolist(), np.random.default_rng(20261).uniform(
            -7.0, 7.0, kappa.size).tolist()))
        arg = np.array([2.0 * k * abs(math.cos(t)) for k, t in pairs])
        want = sf._log_i0(arg) - 2.0 * sf._log_i0(kappa)
        got = np.array([sf.log_rho(k, t) for k, t in pairs])
        assert np.all(np.abs(got - want) <= scale)

    def test_returns_python_floats(self):
        for fn in (sf.log_bessel_i0, sf.bessel_i0_scaled, sf.mean_resultant,
                   sf.log_ratio_R, sf.ratio_R):
            for x in (0.0, 3.0, 45.0):
                assert type(fn(x)) is float


class TestMeanResultant:
    def test_at_zero(self):
        assert sf.mean_resultant(0.0) == 0.0

    def test_small_kappa(self):
        assert abs(sf.mean_resultant(0.01) - 0.005) < 1e-5

    def test_quadrature_oracle_at_20(self):
        num, _ = quad(lambda u: math.cos(u) * math.exp(20.0 * (math.cos(u) - 1)),
                      0.0, TWO_PI, epsabs=1e-14, limit=200)
        den, _ = quad(lambda u: math.exp(20.0 * (math.cos(u) - 1)), 0.0, TWO_PI,
                      epsabs=1e-14, limit=200)
        assert sf.mean_resultant(20.0) == pytest.approx(num / den, rel=1e-9)

    def test_monotone_to_one(self):
        grid = [sf.mean_resultant(k) for k in np.linspace(0, 100, 101)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))
        assert grid[-1] < 1.0
        assert sf.mean_resultant(1e4) > 0.999


class TestRatioR:
    def test_at_zero(self):
        assert sf.ratio_R(0.0) == 1.0

    def test_small_kappa_expansion(self):
        kappa = 0.01
        assert sf.ratio_R(kappa) - 1.0 == pytest.approx(kappa ** 2 / 2, abs=1e-6)

    def test_large_kappa_asymptotic(self):
        assert sf.ratio_R(100.0) == pytest.approx(
            math.sqrt(100.0 * math.pi), rel=2e-2)

    def test_monotone(self):
        grid = [sf.ratio_R(k) for k in np.linspace(0, 50, 101)]
        assert all(b >= a for a, b in zip(grid, grid[1:]))


class TestRho:
    def test_right_angle(self):
        for kappa in (0.3, 2.0, 9.0):
            assert sf.rho(kappa, math.pi / 2) == pytest.approx(
                math.exp(-2.0 * sf.log_bessel_i0(kappa)), rel=1e-12)

    def test_peak_equals_ratio(self):
        for kappa in (0.5, 4.0, 40.0):
            assert sf.rho(kappa, 0.0) == pytest.approx(sf.ratio_R(kappa), rel=1e-12)

    @pytest.mark.parametrize("kappa", [0.1, 1.0, 5.0, 20.0])
    def test_mean_is_one(self, kappa):
        val, _ = quad(lambda t: sf.rho(kappa, t), 0.0, TWO_PI, limit=400,
                      points=[0.0, math.pi / 2, math.pi, 3 * math.pi / 2, TWO_PI])
        assert abs(val / TWO_PI - 1.0) < 1e-8


class TestArcProb:
    def test_uniform_case(self):
        assert sf.arc_prob(0.0, 0.3) == 0.3

    def test_full_circle(self):
        for kappa in (0.0, 1.0, 300.0):
            assert sf.arc_prob(kappa, 1.0) == 1.0

    def test_monte_carlo_oracle(self):
        from circlab import models as mod

        p = sf.arc_prob(4.0, 0.5)
        rng = mod.rng_for(2024, 5)
        n = 10_000_000
        draws = mod.sample_von_mises(0.0, 4.0, rng, n)
        centered = np.minimum(draws, TWO_PI - draws)  # distance from 0
        hits = int(np.count_nonzero(centered <= math.pi * 0.5))
        phat = hits / n
        se = math.sqrt(p * (1 - p) / n)
        assert abs(phat - p) <= 3.0 * se

    def test_monotone_and_dominates_uniform(self):
        taus = np.linspace(0.05, 0.95, 10)
        kappas = [0.0, 0.3, 1.0, 4.0, 15.0]
        for kappa in kappas:
            vals = [sf.arc_prob(kappa, t) for t in taus]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
            assert all(v >= t - 1e-12 for v, t in zip(vals, taus))
        for tau in taus:
            vals = [sf.arc_prob(k, tau) for k in kappas]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            sf.arc_prob(1.0, 0.0)
        with pytest.raises(DomainError):
            sf.arc_prob(1.0, 1.5)

    def test_unconverged_quadrature_is_numeric_error_without_warning(self):
        # quad stops on round-off here; arc_prob used to return 0.99832.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="round"):
                sf.arc_prob(1e12, 1e-6)


def _recorded_quads(monkeypatch, run) -> list:
    """The (fn, a, b, options) of every ``sf._quad`` call ``run`` makes."""
    calls = []
    real = sf._quad

    def record(fn, a, b, **options):
        calls.append((fn, a, b, options))
        return real(fn, a, b, **options)

    monkeypatch.setattr(sf, "_quad", record)
    run()
    monkeypatch.undo()
    assert calls
    return calls


def _quad_bits(integrate, fn, a, b, options):
    """Value and error estimate in hex, the evaluation and subinterval
    counts and any failure message; or the IntegrationWarning raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val, err, *rest = integrate(fn, a, b, **options)
        except IntegrationWarning as warning:
            return "IntegrationWarning", str(warning)
    info = rest[0] if rest else {}
    return (float(val).hex(), float(err).hex(), info.get("neval"),
            info.get("last"), rest[1:])


def _assert_quad_matches_scipy(calls):
    """``sf._quad`` returns what ``scipy.integrate.quad`` returns for each
    call, with and without full output, and with the breakpoints dropped
    (or some added, duplicated and outside the interval, when there were
    none)."""
    for fn, a, b, options in calls:
        other = dict(options, points=None) if options.get("points") is not None \
            else dict(options, points=[a, b / 3, b / 2, b / 2, b, 2 * b])
        for opts in (options, other):
            for full in (0, 1):
                opts = dict(opts, full_output=full)
                assert _quad_bits(sf._quad, fn, a, b, opts) == \
                    _quad_bits(quad, fn, a, b, opts), \
                    f"scipy {scipy.__version__}: interval ({a}, {b}), {opts}"


class TestQuadMatchesScipy:
    """``sf._quad`` calls QUADPACK in scipy's private ``_quadpack`` extension
    as ``scipy.integrate.quad`` calls it; a scipy release that changes that
    call, or its arguments, fails here. Every call the package makes is
    recorded and made again both ways."""

    def test_defaults_are_quads(self):
        ours = inspect.signature(sf._quad).parameters
        theirs = inspect.signature(quad).parameters
        for name in ("full_output", "epsabs", "epsrel", "limit", "points"):
            assert ours[name].default == theirs[name].default, \
                f"scipy {scipy.__version__}: default {name}"

    def test_loaded_once_across_threads(self, monkeypatch):
        # A slow load holds every thread at the first use at once.
        loads = []
        real = importlib.util.module_from_spec

        def slow_module_from_spec(spec):
            loads.append(spec.name)
            time.sleep(0.05)
            return real(spec)

        monkeypatch.setattr(sf, "_quadpack", None)
        monkeypatch.setattr(importlib.util, "module_from_spec",
                            slow_module_from_spec)
        start = threading.Barrier(8)

        def load(_):
            start.wait(timeout=60)
            return sf._quadpack_module()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                modules = list(pool.map(load, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert loads == ["scipy.integrate._quadpack"]
        assert all(module is sf._quadpack for module in modules)
        assert modules[0]._qagse is not None

    def test_arc_prob(self, monkeypatch):
        def run():
            for kappa in (1e-6, 0.3, 2.0, 4.0, 4.5, 30.0, 1e3, 1e6, 1e10):
                for tau in (1e-4, 0.05, 0.3, 0.7, 0.999):
                    sf.arc_prob(kappa, tau)

        calls = _recorded_quads(monkeypatch, run)
        assert len(calls) == 45
        assert sum(c[3].get("points") is not None for c in calls) == 25
        _assert_quad_matches_scipy(calls)

    def test_circular_msd(self, monkeypatch):
        def run():
            for kappa in (1e-3, 0.5, 3.0, 30.0, 1e3, 1e5):
                th._circular_msd(kappa, None)

        _assert_quad_matches_scipy(_recorded_quads(monkeypatch, run))

    def test_exact_second_moments(self, monkeypatch):
        def run():
            for n, k, kappa in ((8, 3, 0.8), (16, 8, 2.0), (40, 12, 0.3)):
                th.second_moment_exact_comm_vm(n, k, kappa)
                th.second_moment_exact_flat_vm(n, k, kappa)

        _assert_quad_matches_scipy(_recorded_quads(monkeypatch, run))

    def test_verify_suites(self, monkeypatch):
        from circlab import lab

        def run():
            for name in ("specfun", "overlap"):
                (report,) = lab.verify(name)
                assert report.passed

        _assert_quad_matches_scipy(_recorded_quads(monkeypatch, run))

    def test_failing_integral_keeps_quads_message(self, monkeypatch):
        def run():
            with pytest.raises(NumericError, match="round"):
                sf.arc_prob(1e12, 1e-6)

        calls = _recorded_quads(monkeypatch, run)
        fn, a, b, options = calls[0]
        failed = _quad_bits(sf._quad, fn, a, b, options)
        assert "roundoff error" in failed[-1][0]
        _assert_quad_matches_scipy(calls)


class TestGaussianTail:
    def test_at_zero(self):
        assert sf.gaussian_upper_tail(0.0) == 0.5

    def test_symmetry(self):
        for x in np.linspace(-6, 6, 25):
            total = sf.gaussian_upper_tail(x) + sf.gaussian_upper_tail(-x)
            assert total == pytest.approx(1.0, abs=1e-14)

    def test_quadrature_oracle(self):
        val, _ = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(TWO_PI),
                      1.0, np.inf, epsabs=1e-14)
        assert sf.gaussian_upper_tail(1.0) == pytest.approx(val, rel=1e-10)


class TestComputeC0:
    def test_minimum_and_first_order(self):
        c0, c2 = sf.compute_c0()
        h = 1e-6
        deriv = (sf.window_calibration_objective(c2 + h)
                 - sf.window_calibration_objective(c2 - h)) / (2 * h)
        assert abs(deriv) <= 1e-6
        assert c0 == pytest.approx(sf.window_calibration_objective(c2), rel=1e-12)

    def test_unimodal_on_bracket(self):
        grid = np.linspace(0.01, 10.0, 10_000)
        vals = np.array([sf.window_calibration_objective(c) for c in grid])
        d = np.sign(np.diff(vals))
        d = d[d != 0]
        assert int(np.count_nonzero(np.diff(d))) == 1

    def test_diverges_near_zero(self):
        assert sf.window_calibration_objective(1e-6) > 1e5

    def test_bad_bracket(self):
        with pytest.raises(NumericError):
            sf.compute_c0(bracket=(5.0, 10.0))  # minimum is below 5
