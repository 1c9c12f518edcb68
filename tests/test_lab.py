"""Harness mechanics: estimation, sweeps, files, config, CLI."""

import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlab import cli, detectors as det, lab, models as mod, specfun as sf
from circlab import theory as th
from circlab.errors import (CapabilityError, CirclabError, ConfigError,
                             ParameterError)
from circlab.lab import ExperimentConfig


class TestWilson:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=1, max_value=100_000), st.data())
    def test_contains_hat_and_in_unit_interval(self, trials, data):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        lo, hi = lab.wilson_interval(successes, trials)
        phat = successes / trials
        assert 0.0 <= lo <= phat <= hi <= 1.0


class TestEstimateErrors:
    def test_degenerate_always_reject(self):
        cfg = ExperimentConfig(model="flat-hard", detector="interval",
                               N=30, K=3, tau=0.1, policy="fixed:0",
                               trials=50, seed=3)
        p = lab.estimate_errors(cfg)
        assert p.pfa_hat == 1.0 and p.pmiss_hat == 0.0

    def test_planted_count_zero_miss(self):
        cfg = ExperimentConfig(model="flat-hard", detector="interval",
                               N=80, K=6, tau=0.02, policy="a1",
                               trials=300, seed=4)
        p = lab.estimate_errors(cfg)
        assert p.pmiss_hat == 0.0

    def test_pfa_within_union_bound(self):
        cfg = ExperimentConfig(model="flat-hard", detector="interval",
                               N=200, K=40, tau=0.005, policy="a1",
                               trials=2000, seed=5)
        p = lab.estimate_errors(cfg)
        se = math.sqrt(max(p.pfa_hat * (1 - p.pfa_hat), 1e-12) / 2000)
        assert p.pfa_hat <= p.bound_pfa + 3 * se

    @pytest.mark.parametrize("trials", [1, 2])
    def test_capability_marks_failed(self, trials):
        # the budget is per exact scan, so the cell fails at any trial count
        cfg = ExperimentConfig(model="comm-vm", detector="coherence",
                               n=30, k=15, kappa=1.0, trials=trials, seed=6)
        p = lab.estimate_errors(cfg)
        assert p.failed == ("exact subset scan needs 1.63e+10 subset-edge "
                            "operations, budget is 1e+08")
        assert math.isnan(p.pfa_hat)

    @pytest.mark.parametrize("k", [-1, 0, 17])
    def test_malformed_k_marks_failed(self, k):
        config = ExperimentConfig(model="comm-vm", detector="coherence", n=16,
                                  k=k, kappa=1.0, trials=4)
        assert lab.estimate_errors(config).failed == \
            f"need 2 <= k <= n, got n=16, k={k}"

    def test_incomplete_config_usage_error(self):
        cfg = ExperimentConfig(model="flat-hard", detector="interval",
                               N=30, K=3, trials=5, seed=0)
        with pytest.raises(ConfigError):
            lab.estimate_errors(cfg)

    @pytest.mark.parametrize("model,sizes,bad", [
        ("flat-hard", {"N": 200.5, "K": 5}, "N=200.5"),
        ("flat-hard", {"N": 200, "K": 5.5}, "K=5.5"),
        ("comm-hard", {"n": 16, "k": 5.5}, "k=5.5"),
        ("flat-hard", {"N": "abc", "K": 5}, "N='abc'"),
        ("flat-hard", {"N": 200, "K": [3]}, "K=[3]"),
        ("comm-hard", {"n": 16, "k": "3"}, "k='3'"),
        pytest.param("comm-hard", {"n": 10 ** 400, "k": 5}, f"n={10 ** 400}",
                     id="comm-hard-n=10**400")])
    def test_non_integer_size_usage_error(self, model, sizes, bad):
        name, value = bad.split("=")
        limit = " of at most 2^63 - 1" if sizes[name] == 10 ** 400 else ""
        cfg = ExperimentConfig(model=model, tau=0.001, trials=5, **sizes)
        message = f"{name} must be an integer{limit}, got {value}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            lab.estimate_errors(cfg)

    def test_integral_sizes_accepted(self):
        points = [lab.estimate_errors(ExperimentConfig(
            model="flat-hard", N=N, K=K, tau=0.02, trials=20, seed=3))
            for N, K in ((200, 5), (200.0, 5.0), (np.int64(200), np.int32(5)))]
        assert len({(p.pfa_hat, p.pmiss_hat, p.bound_pfa) for p in points}) == 1

    @pytest.mark.parametrize("trials", [10.5, math.nan, math.inf, 0, -2.0])
    def test_bad_trials_is_config_error(self, trials):
        with pytest.raises(ConfigError, match=re.escape(
                f"trials must be an integer >= 1, got {trials!r}")):
            ExperimentConfig(model="flat-hard", N=200, K=5, tau=0.01,
                             trials=trials)

    def test_integral_trials_accepted(self):
        # 70 trials cross a chunk edge; each form gives the int call's row.
        points = [lab.estimate_errors(ExperimentConfig(
            model="flat-hard", N=200, K=5, tau=0.02, trials=trials, seed=3))
            for trials in (70, 70.0, np.int64(70))]
        assert all(type(p.config.trials) is int for p in points)
        assert len({tuple(lab._point_row(p)) for p in points}) == 1

    @pytest.mark.parametrize("trials", ["10", None, [3], True, np.bool_(True)])
    def test_non_number_trials_is_config_error(self, trials):
        with pytest.raises(ConfigError, match=re.escape(
                f"trials must be an integer >= 1, got {trials!r}")):
            ExperimentConfig(model="flat-hard", N=200, K=5, tau=0.01,
                             trials=trials)

    def test_trials_past_the_stream_tags_is_config_error(self):
        with pytest.raises(ConfigError, match="trials must be at most 2"):
            ExperimentConfig(model="flat-hard", N=200, K=5, tau=0.01,
                             trials=10 ** 400)

    @pytest.mark.parametrize("seed", [None, math.nan, math.inf, "abc", 2.5,
                                      True, [1]])
    def test_bad_seed_is_config_error(self, seed):
        with pytest.raises(ConfigError, match=re.escape(
                f"seed must be an integer, got {seed!r}")):
            ExperimentConfig(model="flat-hard", N=200, K=5, tau=0.01,
                             seed=seed)

    def test_integral_seeds_accepted(self):
        # A negative seed runs the streams of its low 64 bits.
        rows = {}
        for seed in (3, 3.0, np.int64(3), -5, 2 ** 64 - 5, 2 ** 64 + 3):
            point = lab.estimate_errors(ExperimentConfig(
                model="flat-hard", N=200, K=5, tau=0.02, trials=70, seed=seed))
            assert type(point.config.seed) is int
            rows.setdefault(point.config.seed % 2 ** 64, set()).add(
                (point.pfa_hat, point.pmiss_hat))
        assert sorted(rows) == [3, 2 ** 64 - 5]
        assert all(len(v) == 1 for v in rows.values())


# Every (model, detector) pair of the table, with parameters that give each
# test some rejections under H0 or H1.
MODEL_PARAMS = {
    "flat-hard": dict(N=60, K=6, tau=0.02),
    "flat-vm": dict(N=60, K=6, tau=0.02, kappa=4.0),
    "comm-hard": dict(n=8, k=4, tau=0.1, kappa=4.0),
    "comm-vm": dict(n=8, k=4, tau=0.1, kappa=4.0),
}
DETECTOR_PARAMS = {"known-theta": dict(policy=None),
                   "variance": dict(sigma2=0.2)}
TABLE_PAIRS = [(model, detector) for detector, (_, tests)
               in lab._DETECTOR_TABLE.items() for model in th.MODELS
               if ("flat" if model.startswith("flat") else "edge") in tests]
# detector: (flat test, edge test)
ORACLE_TESTS = {"interval": (det.interval_test_flat, det.interval_test_community),
                "known-theta": (det.known_theta_test_flat, None),
                "coherence": (None, det.coherence_test),
                "rayleigh": (None, det.rayleigh_test),
                "variance": (None, det.variance_test)}


def oracle_rejections(config: ExperimentConfig, cell_index: int) -> list:
    """Rejections per hypothesis, one trial at a time: a sample from the
    trial's own ``rng_for`` stream and the test's ``rejected``."""
    c = config
    flat = c.is_flat
    test = ORACLE_TESTS[c.detector][0 if flat else 1]
    threshold = lab._threshold(c)
    counts = []
    for hyp in (0, 1):
        hits = 0
        for t in range(c.trials):
            rng = mod.rng_for(c.seed, lab._STREAM_TRIAL, cell_index, hyp, t)
            if flat:
                s = mod.gen_flat(c.N, c.K, c.signal, bool(hyp), rng)
                args = (s, c.tau, threshold)
            else:
                s = mod.gen_community(c.n, c.k, c.signal, bool(hyp), rng)
                args = (s, c.k, threshold)
            if c.detector == "known-theta":
                theta = c.theta if s.truth is None else s.truth.theta_star
                hits += test(*args, theta=theta).rejected
            else:
                hits += test(*args).rejected
        counts.append(hits)
    return counts


class TestChunkPathOracle:
    """``estimate_errors`` draws each chunk through ``draw_chunk`` into angle
    rows and decides them in one call; its counts are the scalar oracle's."""

    def test_table_pairs(self):
        assert len(TABLE_PAIRS) == 12

    @pytest.mark.parametrize("model,detector", TABLE_PAIRS,
                             ids=[f"{m}-{d}" for m, d in TABLE_PAIRS])
    def test_counts_equal_scalar_oracle(self, model, detector):
        # 130 trials: two full chunks and a partial one per hypothesis.
        config = ExperimentConfig(model=model, detector=detector, trials=130,
                                  seed=-5, **MODEL_PARAMS[model],
                                  **DETECTOR_PARAMS.get(detector, {}))
        point = lab.estimate_errors(config, cell_index=4)
        assert point.failed is None
        h0, h1 = oracle_rejections(config, 4)
        assert (point.pfa_hat, point.pmiss_hat) == (h0 / 130, (130 - h1) / 130)
        assert 0 < h0 + h1 < 260


def _count_calls(monkeypatch, fn) -> list:
    """Count the calls of ``fn`` through every circlab module that binds it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in (sf, det, th, lab, mod):
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestDetectorTable:
    """Cells call the decision and ``detect`` the test bound on ``det`` at
    call time."""

    @pytest.mark.parametrize("cell_test,detect_test,params,flags", [
        ("interval_rejects_flat", "interval_test_flat",
         dict(model="flat-hard", detector="interval", N=40, K=5, tau=0.05),
         ["--tau", "0.05"]),
        ("known_theta_rejects_flat", "known_theta_test_flat",
         dict(model="flat-hard", detector="known-theta", N=40, K=5, tau=0.05),
         ["--tau", "0.05"]),
        ("interval_rejects_community", "interval_test_community",
         dict(model="comm-hard", detector="interval", n=8, k=4, tau=0.1),
         ["--tau", "0.1"]),
        ("coherence_rejects", "coherence_test",
         dict(model="comm-vm", detector="coherence", n=8, k=4, kappa=2.0),
         ["--kappa", "2"]),
        ("rayleigh_rejects", "rayleigh_test",
         dict(model="comm-vm", detector="rayleigh", n=8, k=4, kappa=2.0),
         ["--kappa", "2"]),
        ("variance_rejects", "variance_test",
         dict(model="comm-vm", detector="variance", n=8, k=4, kappa=2.0,
              sigma2=0.5), ["--sigma2", "0.5"]),
    ], ids=["flat-interval", "known-theta", "comm-interval", "coherence",
            "rayleigh", "variance"])
    def test_cell_and_detect_call_patched_test(self, monkeypatch, tmp_path,
                                               capsys, cell_test, detect_test,
                                               params, flags):
        config = ExperimentConfig(trials=3, seed=2, **params)
        with monkeypatch.context() as m:
            calls = _count_calls(m, getattr(det, cell_test))
            point = lab.estimate_errors(config)
        # The decision takes each hypothesis's one chunk in one call.
        assert point.failed is None
        assert len(calls) == 2
        data = tmp_path / "data.txt"
        sample = lab._gen_sample(config, True, mod.rng_for(2, 0))
        with open(data, "w", encoding="utf-8") as fh:
            mod.write_dataset(fh, sample, K=config.K, k=config.k)
        with monkeypatch.context() as m:
            calls = _count_calls(m, getattr(det, detect_test))
            code = cli.main(["detect", "--data", str(data),
                             "--test", config.detector, *flags])
        assert code == 0 and len(calls) == 1
        assert capsys.readouterr().out.startswith("statistic=")


class TestThresholdsResolvedOncePerCell:
    @pytest.mark.parametrize("fn_name,params", [
        ("mean_resultant", dict(model="comm-vm", detector="rayleigh",
                                n=8, k=4, kappa=2.0)),
        ("mean_resultant", dict(model="comm-vm", detector="coherence",
                                n=8, k=4, kappa=2.0)),
        ("arc_prob", dict(model="flat-vm", detector="interval", N=40, K=8,
                          kappa=5.0, tau=0.2, policy="vm")),
    ], ids=["rayleigh", "coherence", "flat-vm"])
    def test_calls_do_not_grow_with_trials(self, monkeypatch, fn_name, params):
        counts = []
        for trials in (4, 64):
            with monkeypatch.context() as m:
                calls = _count_calls(m, getattr(sf, fn_name))
                point = lab.estimate_errors(
                    ExperimentConfig(trials=trials, seed=3, **params))
            assert point.failed is None
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestThresholdPolicyWithGamma:
    """A cell built in code that sets both gamma and a policy is rejected,
    as config files and ``detect`` reject it."""

    @pytest.mark.parametrize("model,policy", [
        ("flat-hard", "a1"), ("flat-hard", "a2"), ("flat-hard", "fixed:3"),
        ("flat-vm", "vm")])
    def test_policy_with_gamma_is_config_error(self, model, policy):
        config = ExperimentConfig(model=model, N=200, K=8, tau=0.02,
                                  kappa=5.0, policy=policy, gamma=5.0)
        with pytest.raises(ConfigError, match=r"^set policy or gamma, not both$"):
            lab._threshold(config)

    def test_gamma_without_policy_is_the_threshold(self):
        assert lab._threshold(ExperimentConfig(
            model="flat-hard", N=200, K=8, tau=0.02, policy=None,
            gamma=5.0)) == 5.0

    def test_default_policy_with_gamma_fails_the_cell_call(self):
        config = ExperimentConfig(model="flat-hard", N=200, K=8, tau=0.02,
                                  gamma=5.0, trials=4)
        with pytest.raises(ConfigError):
            lab.estimate_errors(config)


class TestCellAnnotations:
    @pytest.mark.parametrize("params", [
        dict(model="flat-hard", detector="interval", N=60, K=5, tau=0.05),
        dict(model="flat-vm", detector="interval", N=40, K=8, kappa=5.0,
             tau=0.2, policy="vm"),
        dict(model="comm-vm", detector="rayleigh", n=8, k=4, kappa=2.0),
    ], ids=["flat-hard", "flat-vm", "comm-vm"])
    def test_cell_skips_impossibility_functionals(self, monkeypatch, params):
        def fail(*args, **kwargs):
            raise AssertionError("a sweep cell evaluated the second moment")

        monkeypatch.setattr(th, "impossibility_functionals", fail)
        point = lab.estimate_errors(ExperimentConfig(trials=4, seed=3, **params))
        assert point.failed is None and point.annotation_error is None
        assert point.verdict is not None and not math.isnan(point.bound_pfa)

    def test_annotation_overflow_recorded(self):
        point = lab.estimate_errors(ExperimentConfig(
            model="flat-hard", detector="interval", N=30, K=3, tau=0.1,
            policy=None, gamma=1e200, trials=4, seed=3))
        assert point.failed is None and point.pfa_hat == 0.0
        assert point.annotation_error and math.isnan(point.bound_pfa)

    def test_variance_bound_quadrature_failure_is_annotation_error(self):
        point = lab.estimate_errors(ExperimentConfig(
            model="comm-vm", detector="variance", n=6, k=3, kappa=1e9,
            sigma2=0.05, trials=2, seed=3))
        assert point.failed is None
        assert "circular MSD" in point.annotation_error
        assert math.isnan(point.bound_pmiss)

    def test_sweep_keeps_cell_whose_second_moment_fails(self, tmp_path,
                                                        capsys):
        p = tmp_path / "c.cfg"
        p.write_text("model = comm-vm\ndetector = rayleigh\nn = 30\n"
                     "k = 20\ntrials = 8\nsweep_kappa = 2, 1e6\n")
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", str(p), "--threads", "1",
                         "--out", str(out)]) == 0
        assert "2 cells, 0 failed" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 3


class TestSweep:
    def test_axis_order_and_rows(self, tmp_path):
        base = ExperimentConfig(model="flat-hard", detector="interval",
                                N=60, K=5, policy="a1", trials=60, seed=11)
        taus = [0.001, 0.005, 0.01, 0.05, 0.2]
        out = str(tmp_path / "s.csv")
        points = lab.sweep([("tau", taus)], base, out=out)
        assert [p.config.tau for p in points] == taus
        rows = open(out).read().strip().split("\n")
        assert rows[0] == ",".join(lab.CSV_COLUMNS)
        assert len(rows) == 6

    def test_rerun_byte_identical(self, tmp_path):
        base = ExperimentConfig(model="comm-hard", detector="interval",
                                n=10, k=3, trials=40, seed=12)
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        lab.sweep([("tau", [0.01, 0.1])], base, out=a)
        lab.sweep([("tau", [0.01, 0.1])], base, out=b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_pfa_monotone_in_tau_smoke(self):
        base = ExperimentConfig(model="flat-hard", detector="interval",
                                N=100, K=6, policy="a1", trials=400, seed=13)
        points = lab.sweep([("tau", [0.002, 0.01, 0.05])], base)
        pfas = [p.pfa_hat for p in points]
        ses = [math.sqrt(max(p * (1 - p), 1e-9) / 400) for p in pfas]
        assert pfas[1] >= pfas[0] - 3 * (ses[0] + ses[1])
        assert pfas[2] >= pfas[1] - 3 * (ses[1] + ses[2])

    def test_failed_cell_does_not_abort(self, tmp_path):
        base = ExperimentConfig(model="comm-vm", detector="coherence",
                                kappa=1.0, n=10, trials=5, seed=14)
        points = lab.sweep([("k", [3, 5])], base,
                           out=str(tmp_path / "f.csv"))
        assert all(p.failed is None for p in points)
        big = ExperimentConfig(model="comm-vm", detector="coherence",
                               kappa=1.0, n=34, trials=5, seed=14)
        points = lab.sweep([("k", [3, 17])], big)
        assert points[0].failed is None and points[1].failed is not None
        # A domain error (tau > 1) fails its cell; the CSV is still written.
        flat = ExperimentConfig(model="flat-hard", detector="interval",
                                N=30, K=3, trials=5, seed=14)
        out = tmp_path / "d.csv"
        points = lab.sweep([("tau", [0.01, 1.5])], flat, out=str(out))
        assert points[0].failed is None and "tau" in points[1].failed
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("policy", ["a1", "a2", "vm"])
    def test_flat_k_above_n_fails_its_cell(self, policy):
        # a2 and vm take a root of (N - K) tau; at K > N that raised a bare
        # ValueError before the sizes were checked, and ended the sweep.
        base = ExperimentConfig(model="flat-hard", detector="interval", N=20,
                                tau=0.01, kappa=4.0, policy=policy, trials=4)
        points = lab.sweep([("K", [5, 25])], base)
        assert points[0].failed is None
        assert points[1].failed == "need 1 <= K <= N, got N=20, K=25"

    @pytest.mark.parametrize("base,axis,message", [
        (ExperimentConfig(model="flat-hard", N=200, K=5, policy="a2",
                          trials=2), "tau", "tau must be in (0, 1]"),
        (ExperimentConfig(model="comm-vm", detector="coherence", n=10, k=4,
                          trials=2), "kappa", "kappa must be a number"),
        (ExperimentConfig(model="comm-vm", detector="rayleigh", n=10, k=4,
                          trials=2), "kappa", "kappa must be a number"),
    ], ids=["a2", "coherence", "rayleigh"])
    def test_signal_beyond_float_range_fails_its_cell(self, base, axis,
                                                      message):
        # Each threshold took a float of 10**400 and raised a bare
        # OverflowError out of estimate_errors. The window's range rejects
        # it; kappa's has no upper end, and the int has no float form.
        # (A sweep casts its float axes, so only an in-code config carries
        # such an int.)
        assert lab.estimate_errors(replace(base, **{axis: 0.5})).failed is None
        point = lab.estimate_errors(replace(base, **{axis: 10 ** 400}))
        assert point.failed.startswith(message)

    def test_unallocatable_rows_fail_their_cell(self):
        # 2^62 angles is beyond numpy's array size, so nothing is allocated.
        base = ExperimentConfig(model="flat-hard", K=5, tau=0.01, trials=1)
        points = lab.sweep([("N", [200, 2 ** 62])], base)
        assert points[0].failed is None
        assert points[1].failed == (f"cannot allocate 1 x {2 ** 62} angle "
                                    f"rows of 8 bytes")

    def test_threshold_quadrature_failure_fails_its_cell(self, tmp_path):
        # The vm threshold needs arc_prob(1e12, 1e-6), whose quadrature
        # stops on round-off: a NumericError that used to end the sweep.
        base = ExperimentConfig(model="flat-vm", detector="interval", N=40,
                                K=8, tau=1e-6, policy="vm", trials=5, seed=14)
        out = tmp_path / "q.csv"
        points = lab.sweep([("kappa", [5.0, 1e12])], base, out=str(out))
        assert points[0].failed is None
        assert "quadrature for arc_prob" in points[1].failed
        assert len(out.read_text().splitlines()) == 3

    def test_non_integer_size_axis_rejected_before_any_cell(self, tmp_path,
                                                           monkeypatch):
        ran = []
        monkeypatch.setattr(lab, "estimate_errors",
                            lambda config, **kw: ran.append(config))
        base = ExperimentConfig(model="flat-hard", detector="interval",
                                K=3, tau=0.05, trials=5, seed=15)
        out = tmp_path / "n.csv"
        with pytest.raises(ConfigError):
            lab.sweep([("tau", [0.05]), ("N", [20.0, 20.7])], base,
                      out=str(out))
        assert ran == [] and not out.exists()


class TestEmpiricalSecondMoment:
    def test_degenerate_cases(self):
        assert lab.empirical_second_moment(
            "flat-hard", {"N": 8, "K": 3, "tau": 1.0}, 10, 0) == (1.0, 0.0)
        assert lab.empirical_second_moment(
            "comm-vm", {"n": 8, "k": 3, "kappa": 0.0}, 10, 0) == (1.0, 0.0)

    def test_budget(self):
        with pytest.raises(CapabilityError):
            lab.empirical_second_moment(
                "flat-hard", {"N": 60, "K": 20, "tau": 0.2}, 10, 0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_rejected(self, trials):
        with pytest.raises(ParameterError, match="trials"):
            lab.empirical_second_moment(
                "flat-hard", {"N": 8, "K": 3, "tau": 0.3}, trials, 0)

    @pytest.mark.parametrize("trials", [10.7, math.nan, math.inf])
    def test_non_integral_trials_rejected(self, trials):
        with pytest.raises(ParameterError, match=re.escape(
                f"trials must be an integer, got {trials!r}")):
            lab.empirical_second_moment(
                "flat-hard", {"N": 8, "K": 3, "tau": 0.3}, trials, 0)

    def test_integral_trials_accepted(self):
        assert len({lab.empirical_second_moment(
            "flat-hard", {"N": 8, "K": 3, "tau": 0.3}, trials, 0)
            for trials in (10, 10.0, np.int64(10))}) == 1

    @pytest.mark.parametrize("model,params,exact", [
        ("flat-hard", {"N": 8, "K": 3, "tau": 0.3},
         th.second_moment_exact_flat_hard(8, 3, 0.3)),
        ("flat-vm", {"N": 8, "K": 3, "kappa": 0.8},
         th.second_moment_exact_flat_vm(8, 3, 0.8)),
        ("comm-hard", {"n": 8, "k": 3, "tau": 0.4},
         th.second_moment_exact_comm_hard(8, 3, 0.4)),
        ("comm-vm", {"n": 10, "k": 3, "kappa": 0.5},
         th.second_moment_exact_comm_vm(10, 3, 0.5)),
    ])
    def test_oracle_pairs_smoke(self, model, params, exact):
        est, se = lab.empirical_second_moment(model, params, 8000, seed=2)
        assert abs(est - exact) <= 4 * se

    @pytest.mark.parametrize("model,params,bits", [
        ("flat-vm", {"N": 12, "K": 5, "kappa": 2.0},
         ("0x1.13296fdf6b317p+1", "0x1.51386fff6543fp-1")),
        ("comm-hard", {"n": 9, "k": 4, "tau": 0.3},
         ("0x1.c3b555f21e791p+1", "0x1.56ebb2f34759ap+0")),
        ("comm-vm", {"n": 9, "k": 5, "kappa": 1.5},
         ("0x1.23b1d972e5ccep+2", "0x1.519a91244fa51p+1")),
        ("flat-hard", {"N": 10, "K": 3, "tau": 0.2},
         ("0x1.8ef3db360cd8ap+0", "0x1.bd53dd064dff4p-2")),
    ])
    def test_pinned_bits(self, model, params, bits):
        """Estimate and standard error at seed 11, to the bit. Both average
        over the subset tables in row order, so they pin the revolving-door
        order of ``revolving_door_subsets`` and ``subset_edge_table`` too."""
        est, se = lab.empirical_second_moment(model, params, 64, seed=11)
        assert (est.hex(), se.hex()) == bits

    @pytest.mark.parametrize("model,params,trials", [
        ("flat-vm", {"N": 12, "K": 4, "kappa": 2.0}, 130),
        ("flat-vm", {"N": 22, "K": 20, "kappa": 0.7}, 130),
        ("flat-vm", {"N": 60, "K": 3, "kappa": 12.0}, 5),
        ("comm-vm", {"n": 10, "k": 3, "kappa": 0.5}, 130),
        ("comm-vm", {"n": 8, "k": 5, "kappa": 1.5}, 64),
        ("comm-vm", {"n": 7, "k": 7, "kappa": 0.3}, 1),
        ("flat-hard", {"N": 8, "K": 3, "tau": 0.3}, 130),
        ("flat-hard", {"N": 10, "K": 2, "tau": 0.6}, 1),
        ("flat-hard", {"N": 20, "K": 5, "tau": 0.1}, 67),
        ("flat-hard", {"N": 8, "K": 8, "tau": 0.9}, 65),
        ("flat-hard", {"N": 300, "K": 1, "tau": 0.4}, 70),
        ("flat-hard", {"N": 1, "K": 1, "tau": 0.5}, 3),
        ("comm-hard", {"n": 9, "k": 4, "tau": 0.3}, 130),
        ("comm-hard", {"n": 8, "k": 5, "tau": 0.3}, 1),
        ("comm-hard", {"n": 10, "k": 6, "tau": 0.5}, 70),
        ("comm-hard", {"n": 7, "k": 7, "tau": 0.8}, 65),
        ("comm-hard", {"n": 12, "k": 2, "tau": 0.1}, 130),
    ])
    def test_chunked_draws_equal_per_trial_loop(self, monkeypatch, model,
                                                params, trials):
        """The chunked draws give the bits of one draw and one L per trial,
        at the default chunks, one trial per chunk, and chunks of a few."""
        rng = mod.rng_for(7, lab._STREAM_SECOND_MOMENT)
        lsq = np.empty(trials)
        for t in range(trials):
            lsq[t] = per_trial_L(model, params, rng) ** 2
        se = lsq.std(ddof=1) / math.sqrt(trials) if trials > 1 else math.inf
        for elems in (lab._LR_CHUNK_ELEMS, 1, 2000):
            monkeypatch.setattr(lab, "_LR_CHUNK_ELEMS", elems)
            assert lab.empirical_second_moment(model, params, trials, seed=7) == \
                (float(lsq.mean()), float(se)), elems

    def test_square_is_the_scalar_pow(self):
        """L^2 is formed as one trial's scalar ``L ** 2`` (libm's pow). At
        seed 1703 that differs from L * L in the last bit."""
        params = {"N": 8, "K": 3, "tau": 0.3}
        L = per_trial_L("flat-hard", params,
                        mod.rng_for(1703, lab._STREAM_SECOND_MOMENT))
        assert L ** 2 != L * L
        assert lab.empirical_second_moment("flat-hard", params, 1, 1703)[0] == L ** 2

    @pytest.mark.parametrize("model,params", [
        ("flat-hard", {"N": 8, "K": 3, "tau": 1.5}),
        ("flat-hard", {"N": 8, "K": 3, "tau": 0.0}),
        ("flat-hard", {"N": 8, "K": 3, "tau": math.nan}),
        ("flat-hard", {"N": 8, "K": 9, "tau": 0.3}),
        ("flat-hard", {"N": 8, "K": 0, "tau": 0.3}),
        ("flat-vm", {"N": 8, "K": 0, "kappa": 1.0}),
        ("flat-vm", {"N": 8, "K": -1, "kappa": 1.0}),
        ("flat-vm", {"N": 8, "K": 3, "kappa": -1.0}),
        ("comm-hard", {"n": 8, "k": 1, "tau": 0.3}),
        ("comm-hard", {"n": 8, "k": 9, "tau": 0.3}),
        ("comm-hard", {"n": 8, "k": 3, "tau": 2.0}),
        ("comm-vm", {"n": 8, "k": 1, "kappa": 0.5}),
        ("comm-vm", {"n": 8, "k": 3, "kappa": -0.5}),
        ("flat-hard", {"N": 8.7, "K": 3, "tau": 0.3}),
        ("flat-vm", {"N": 8, "K": 2.5, "kappa": 1.0}),
        ("comm-hard", {"n": 9.5, "k": 3.5, "tau": 0.3}),
        ("comm-vm", {"n": 9, "k": 3.2, "kappa": 0.5}),
    ])
    def test_errors_match_exact(self, monkeypatch, model, params):
        """The exact second moment's error, raised before any draw."""
        exact = getattr(th, "second_moment_exact_" + model.replace("-", "_"))
        with pytest.raises(CirclabError) as want:
            exact(*params.values())
        monkeypatch.setattr(mod, "rng_for", None)
        with pytest.raises(CirclabError) as got:
            lab.empirical_second_moment(model, params, 10, 0)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("model,params,message", [
        ("bogus", {}, "unknown model 'bogus'"),
        ("flat-hard", {"N": 8, "K": 3}, "flat-hard needs tau"),
        ("flat-vm", {"N": 8, "K": 3, "tau": 0.3}, "flat-vm needs kappa"),
        ("comm-vm", {"N": 8, "K": 3, "kappa": 0.5}, "comm-vm needs n, k"),
        ("comm-hard", {}, "comm-hard needs n, k, tau"),
    ])
    def test_unknown_model_or_missing_key(self, model, params, message):
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            lab.empirical_second_moment(model, params, 10, 0)


def per_trial_L(model, params, rng):
    """L of one null draw from ``rng``, one trial at a time: the oracle."""
    flat = model.startswith("flat")
    size = params["N"] if flat else params["n"] * (params["n"] - 1) // 2
    if model == "flat-hard":
        # The window count is piecewise constant between the 2N events.
        K, tau = params["K"], params["tau"]
        x = rng.random(size) * mod.TWO_PI
        starts = mod.canonical_angle(x - mod.TWO_PI * tau)
        events = np.concatenate([starts, x])
        deltas = np.concatenate([np.ones(size), -np.ones(size)])
        order = np.argsort(events, kind="stable")
        count = int(np.count_nonzero(starts > x))
        total, prev = 0.0, 0.0
        for ev, dl in zip(events[order], deltas[order]):
            total += math.comb(count, K) * (ev - prev)
            count += int(dl)
            prev = ev
        total += math.comb(count, K) * (mod.TWO_PI - prev)
        return total / (mod.TWO_PI * math.comb(size, K) * tau ** K)
    if model == "comm-hard":
        tau = params["tau"]
        table = det.subset_edge_table(params["n"], params["k"])
        vals = np.sort((rng.random(size) * mod.TWO_PI)[table], axis=1)
        gaps = np.concatenate([np.diff(vals, axis=1),
                               (vals[:, :1] + mod.TWO_PI) - vals[:, -1:]], axis=1)
        excess = np.clip(gaps - (mod.TWO_PI - mod.TWO_PI * tau), 0.0, None)
        return (excess.sum(axis=1) / mod.TWO_PI).mean() * tau ** (-table.shape[1])
    kappa = params["kappa"]
    table = (det.revolving_door_subsets(params["N"], params["K"]) if flat
             else det.subset_edge_table(params["n"], params["k"]))
    r = np.abs(np.exp(1j * rng.random(size) * mod.TWO_PI)[table].sum(axis=1))
    return np.exp(sf._log_i0(kappa * r)
                  - table.shape[1] * sf.log_bessel_i0(kappa)).mean()


class TestPhaseDiagram:
    def test_boundary_contains_recipe_curve(self, tmp_path):
        base = ExperimentConfig(model="flat-hard", detector="interval",
                                N=120, policy="a1", trials=30, seed=15)
        # K values inside the mid-size gate (log N, sqrt N] = (4.79, 10.95]
        grid = [("K", [6, 8]), ("tau", [1e-4, 1e-3, 1e-2, 0.2])]
        out = str(tmp_path / "pd")
        lab.phase_diagram(grid, base, out, svg=True)
        rows = open(out + "_boundary.csv").read().strip().split("\n")
        eps = th.RegimeTunables().eps
        for K in (6, 8):
            expect = K * K / ((2 + eps) * 120 * math.log(120))
            hits = [r for r in rows[1:] if
                    r.startswith(f"flat-hard/achievable/mid-K-log-window,K,{K},")]
            assert hits, rows
            got = float(hits[0].split(",")[-1])
            assert got == pytest.approx(expect, rel=1e-6)
        assert os.path.exists(out + ".svg")

    def test_single_regime_grid_has_header_only(self, tmp_path):
        base = ExperimentConfig(model="flat-hard", detector="interval",
                                N=50, K=4, policy="a1", trials=20, seed=16)
        out = str(tmp_path / "pd2")
        lab.phase_diagram([("K", [4, 5]), ("tau", [1e-8, 2e-8])], base, out)
        rows = open(out + "_boundary.csv").read().strip().split("\n")
        assert rows == ["condition,x_name,x,y_name,y"]

    def test_svg_deterministic(self, tmp_path):
        base = ExperimentConfig(model="comm-hard", detector="interval",
                                n=8, trials=25, seed=17)
        grid = [("k", [3, 4]), ("tau", [0.05, 0.3])]
        out1, out2 = str(tmp_path / "x"), str(tmp_path / "y")
        lab.phase_diagram(grid, base, out1, svg=True)
        lab.phase_diagram(grid, base, out2, svg=True)
        assert open(out1 + ".svg", "rb").read() == open(out2 + ".svg", "rb").read()

    def test_needs_two_axes(self):
        base = ExperimentConfig(model="flat-hard", detector="interval",
                                N=50, K=4, tau=0.1, policy="a1", trials=5,
                                seed=0)
        with pytest.raises(ConfigError):
            lab.phase_diagram([("tau", [0.1])], base, "x")


class TestConfigFile:
    def test_parse(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text(
            "# comment\n"
            "model = flat-hard\n"
            "detector = interval\n"
            "policy = a1\n"
            "N = 100\nK = 5\ntrials = 10\nseed = 2\n"
            "sweep_tau = 0.1, 0.2\n")
        data = lab.parse_config_file(str(p))
        assert data["model"] == "flat-hard" and data["N"] == 100
        assert data["sweep_axes"] == [("tau", [0.1, 0.2])]
        cfg = lab.config_from_dict(data)
        assert cfg.trials == 10

    def test_unknown_key_fails_fast(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("model = flat-hard\nwibble = 3\n")
        with pytest.raises(ConfigError):
            lab.parse_config_file(str(p))

    def test_bad_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("trials = banana\n")
        with pytest.raises(ConfigError):
            lab.parse_config_file(str(p))

    def test_bad_axis_value(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("sweep_tau = 0.1, abc\n")
        with pytest.raises(ConfigError):
            lab.parse_config_file(str(p))

    @pytest.mark.parametrize("repeated", ["sweep_tau = 0.1, 0.2\nsweep_tau = 0.3",
                                          "N = 50\nN = 60"],
                             ids=["axis", "key"])
    def test_key_given_twice_fails(self, tmp_path, repeated):
        p = tmp_path / "c.cfg"
        p.write_text(f"model = flat-hard\n{repeated}\n")
        with pytest.raises(ConfigError, match=r"c\.cfg:3: .* given twice"):
            lab.parse_config_file(str(p))

    def test_bad_policy_threshold_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "c.cfg"
        p.write_text("model = flat-hard\ndetector = interval\n"
                     "policy = fixed:abc\nN = 30\nK = 3\ntau = 0.1\n"
                     "trials = 5\n")
        assert cli.main(["sweep", "--config", str(p), "--threads", "1",
                         "--out", str(tmp_path / "s.csv")]) == 2
        assert "fixed:abc" in capsys.readouterr().err


class TestVerifyDispatch:
    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            lab.verify("nonsense")

    def test_fast_suites_pass(self):
        for name in ("specfun", "overlap"):
            (rep,) = lab.verify(name)
            assert rep.passed, [c for c in rep.checks if not c.passed]


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "circlab.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestCLI:
    def test_gen_detect_roundtrip(self, tmp_path):
        data = str(tmp_path / "d.txt")
        r = run_cli("gen", "--model", "flat-hard", "--N", "60", "--K", "5",
                    "--tau", "0.02", "--h1", "--seed", "3", "--out", data)
        assert r.returncode == 0
        r = run_cli("detect", "--data", data, "--test", "interval",
                    "--tau", "0.02", "--policy", "a1")
        assert r.returncode == 0
        line = r.stdout.strip()
        assert re.fullmatch(
            r"statistic=\S+ threshold=\S+ decision=(reject|retain) "
            r"witness_theta=\S+ witness_subset=\S+", line)
        assert "decision=reject" in line  # planted count always reaches K

    def test_detect_all_tests_on_community(self, tmp_path):
        data = str(tmp_path / "c.txt")
        run_cli("gen", "--model", "comm-vm", "--n", "8", "--k", "4",
                "--kappa", "8", "--h1", "--seed", "5", "--out", data)
        for extra in (["--test", "interval", "--tau", "0.15"],
                      ["--test", "coherence", "--kappa", "8"],
                      ["--test", "rayleigh", "--kappa", "8"],
                      ["--test", "variance", "--sigma2", "0.3"]):
            r = run_cli("detect", "--data", data, *extra)
            assert r.returncode == 0, r.stderr
            assert r.stdout.startswith("statistic=")

    def test_usage_error_exit_2(self):
        r = run_cli("detect", "--data", "/nonexistent", "--test", "interval")
        assert r.returncode == 2  # missing --tau
        r = run_cli("classify", "--model", "flat-hard", "--N", "10")
        assert r.returncode == 2

    def test_capability_exit_3(self, tmp_path):
        data = str(tmp_path / "big.txt")
        run_cli("gen", "--model", "comm-vm", "--n", "34", "--k", "17",
                "--kappa", "1", "--seed", "1", "--out", data)
        r = run_cli("detect", "--data", data, "--test", "coherence",
                    "--kappa", "1", "--k", "17")
        assert r.returncode == 3

    def test_python_m_circlab_runs_the_cli(self):
        args = ("classify", "--model", "comm-vm", "--n", "16", "--k", "8",
                "--kappa", "2.0")
        r = subprocess.run([sys.executable, "-m", "circlab", *args],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout == run_cli(*args).stdout

    def test_classify_output(self):
        r = run_cli("classify", "--model", "comm-vm", "--n", "16", "--k", "8",
                    "--kappa", "2.0")
        assert r.returncode == 0
        assert "verdict=achievable" in r.stdout
        assert "citation=comm-vm/achievable/large-K-coherence" in r.stdout

    def test_bounds_output(self):
        r = run_cli("bounds", "--model", "flat-hard", "--N", "10", "--K", "3",
                    "--tau", "0.01")
        assert r.returncode == 0
        union = [ln for ln in r.stdout.splitlines()
                 if ln.startswith("pfa_union=")]
        assert union and float(union[0].split("=")[1].split()[0]) == \
            pytest.approx(0.036, rel=1e-12)

    def test_reveal_truth_flag(self, tmp_path):
        hidden = str(tmp_path / "h.txt")
        shown = str(tmp_path / "s.txt")
        run_cli("gen", "--model", "flat-hard", "--N", "20", "--K", "3",
                "--tau", "0.1", "--h1", "--seed", "9", "--out", hidden)
        run_cli("gen", "--model", "flat-hard", "--N", "20", "--K", "3",
                "--tau", "0.1", "--h1", "--seed", "9", "--out", shown,
                "--reveal-truth")
        assert "truth" not in open(hidden).read()
        assert "truth_subset" in open(shown).read()


def _bound_names(out):
    return [ln.split("=")[0] for ln in out.splitlines()
            if not ln.startswith("impossibility_")]


class TestCLIDispatch:
    """In-process checks of detect and bounds through the lab's dispatch."""

    @pytest.fixture
    def flat_file(self, tmp_path):
        path = str(tmp_path / "flat.txt")
        assert cli.main(["gen", "--model", "flat-hard", "--N", "200",
                         "--K", "8", "--tau", "0.02", "--h1", "--seed", "3",
                         "--out", path]) == 0
        return path

    def test_detect_gamma_is_exact_threshold(self, flat_file, capsys):
        capsys.readouterr()
        base = ["detect", "--data", flat_file, "--test", "interval",
                "--tau", "0.02"]
        assert cli.main(base + ["--gamma", "7.123456789"]) == 0
        by_gamma = capsys.readouterr().out
        assert " threshold=7.1234567889999996 " in by_gamma
        assert cli.main(base + ["--policy", "fixed:7.123456789"]) == 0
        assert capsys.readouterr().out == by_gamma

    def test_detect_known_theta_default_gamma_is_a2_recipe(self, flat_file,
                                                           capsys):
        capsys.readouterr()
        assert cli.main(["detect", "--data", flat_file, "--test",
                         "known-theta", "--tau", "0.02"]) == 0
        gamma = det.resolve_flat_threshold("a2", 200, 0.02, K=8)
        assert f" threshold={gamma:.17g} " in capsys.readouterr().out

    def test_detect_bad_policy_threshold_is_usage_error(self, flat_file,
                                                        capsys):
        assert cli.main(["detect", "--data", flat_file, "--test", "interval",
                         "--tau", "0.02", "--policy", "fixed:abc"]) == 2
        assert "fixed:abc" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["a1", "a2", "vm"])
    def test_detect_missing_k_is_usage_error(self, flat_file, tmp_path,
                                             policy, capsys):
        with open(flat_file) as fh:
            text = "".join(ln for ln in fh if not ln.startswith("# K="))
        no_k = tmp_path / "no_k.txt"
        no_k.write_text(text)
        capsys.readouterr()
        assert cli.main(["detect", "--data", str(no_k), "--test", "interval",
                         "--tau", "0.02", "--policy", policy]) == 2
        assert f"policy {policy} needs K" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["a1", "a2", "vm"])
    def test_detect_k_above_n_is_error(self, flat_file, policy, capsys):
        # a2 raised a bare ValueError from the root of (N - K) tau.
        capsys.readouterr()
        assert cli.main(["detect", "--data", flat_file, "--test", "interval",
                         "--tau", "0.02", "--kappa", "4", "--k", "9999",
                         "--policy", policy]) == 1
        assert "need 1 <= K <= N" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,code", [
        (["--test", "known-theta", "--theta", "nan"], 1),
        (["--test", "known-theta", "--theta", "inf"], 1),
        (["--test", "interval", "--gamma", "nan"], 2),
        (["--test", "known-theta", "--gamma", "inf"], 2),
        (["--test", "interval", "--policy", "fixed:nan"], 2),
        (["--test", "interval", "--policy", "fixed:-inf"], 2),
    ])
    def test_detect_non_finite_threshold_or_phase_rejected(self, flat_file,
                                                           flags, code, capsys):
        capsys.readouterr()
        assert cli.main(["detect", "--data", flat_file, "--tau", "0.02"]
                        + flags) == code
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("line,code,out", [
        ("gamma = nan", 2, ""),
        ("theta = nan", 0, "1 cells, 1 failed"),
    ])
    def test_sweep_non_finite_threshold_or_phase_rejected(self, tmp_path,
                                                          capsys, line, code,
                                                          out):
        p = tmp_path / "c.cfg"
        p.write_text("model = flat-hard\ndetector = known-theta\nN = 30\n"
                     f"K = 3\ntau = 0.1\ntrials = 5\n{line}\n")
        assert cli.main(["sweep", "--config", str(p), "--threads", "1",
                         "--out", str(tmp_path / "s.csv")]) == code
        assert out in capsys.readouterr().out

    @pytest.mark.parametrize("line,pfa_pmiss", [
        ("sweep_gamma = 2, 50", [("1", "0"), ("0", "1")]),
        ("gamma = 2", [("1", "0")]),
        ("gamma = 50", [("0", "1")]),
    ])
    def test_sweep_gamma_is_flat_threshold(self, tmp_path, line, pfa_pmiss):
        # gamma 2 is below every null window maximum, 50 above every
        # planted count
        p = tmp_path / "c.cfg"
        p.write_text("model = flat-hard\ndetector = interval\nN = 200\n"
                     f"K = 8\ntau = 0.02\ntrials = 20\n{line}\n")
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", str(p), "--threads", "1",
                         "--out", str(out)]) == 0
        rows = [dict(zip(lab.CSV_COLUMNS, r.split(",")))
                for r in out.read_text().splitlines()[1:]]
        assert [(r["pfa_hat"], r["pmiss_hat"]) for r in rows] == pfa_pmiss
        assert all(r["policy"] == "" for r in rows)

    @pytest.mark.parametrize("line", ["gamma = 5", "sweep_gamma = 5, 6"])
    def test_sweep_policy_and_gamma_is_usage_error(self, tmp_path, capsys,
                                                   line):
        p = tmp_path / "c.cfg"
        p.write_text("model = flat-hard\ndetector = interval\npolicy = a1\n"
                     f"N = 30\nK = 3\ntau = 0.1\ntrials = 5\n{line}\n")
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", str(p), "--threads", "1",
                         "--out", str(out)]) == 2
        assert "policy or gamma" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_known_theta_policy_is_usage_error(self, tmp_path, capsys):
        # known-theta tests at gamma, else a2; the policy was ignored
        p = tmp_path / "c.cfg"
        p.write_text("model = flat-hard\ndetector = known-theta\npolicy = a1\n"
                     "N = 30\nK = 3\ntau = 0.1\ntrials = 5\n")
        out = tmp_path / "s.csv"
        assert cli.main(["sweep", "--config", str(p), "--threads", "1",
                         "--out", str(out)]) == 2
        assert "known-theta takes no policy" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--test", "interval", "--policy", "a2", "--gamma", "5"],
         "set policy or gamma, not both"),
        (["--test", "known-theta", "--policy", "a2", "--gamma", "5"],
         "set policy or gamma, not both"),
        (["--test", "known-theta", "--policy", "a1"],
         "known-theta takes no policy"),
    ], ids=["interval-policy-gamma", "known-theta-policy-gamma",
            "known-theta-policy"])
    def test_detect_ignored_flag_is_usage_error(self, flat_file, flags,
                                                message, capsys):
        # Each run used to print a line that ignored one of the flags.
        capsys.readouterr()
        assert cli.main(["detect", "--data", flat_file, "--tau", "0.02"]
                        + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    @pytest.mark.parametrize("old,new", [
        ("# K=8\n", "# K=x\n"),
        ("# N=200\n", "# N=200\nabc\n"),
    ])
    def test_detect_malformed_flat_number_is_typed_error(self, flat_file, old,
                                                         new, capsys):
        text = open(flat_file).read()
        assert old in text
        with open(flat_file, "w") as fh:
            fh.write(text.replace(old, new))
        assert cli.main(["detect", "--data", flat_file, "--test", "interval",
                         "--tau", "0.02"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_detect_malformed_community_size_is_typed_error(self, tmp_path,
                                                            capsys):
        path = str(tmp_path / "comm.txt")
        assert cli.main(["gen", "--model", "comm-hard", "--n", "6", "--k", "3",
                         "--tau", "0.1", "--seed", "3", "--out", path]) == 0
        text = open(path).read()
        with open(path, "w") as fh:
            fh.write(text.replace("# n=6\n", "# n=x\n"))
        assert cli.main(["detect", "--data", path, "--test", "interval",
                         "--tau", "0.1"]) == 1
        assert "header n must be an integer" in capsys.readouterr().err

    def test_detect_edge_detector_on_flat_data_is_usage_error(self, flat_file):
        assert cli.main(["detect", "--data", flat_file, "--test", "rayleigh",
                         "--kappa", "2", "--k", "3"]) == 2

    def test_bounds_comm_hard_coherence(self, capsys):
        assert cli.main(["bounds", "--model", "comm-hard", "--detector",
                         "coherence", "--n", "12", "--k", "10", "--tau", "0.05",
                         "--kappa", "20"]) == 0
        out = capsys.readouterr().out
        assert _bound_names(out) == ["pfa"]
        pfa = th.comm_coherence_bounds(12, 10, 20.0, 0.5)["pfa"].value
        assert out.startswith(f"pfa={pfa:.17g} applicable=true\n")

    def test_bounds_comm_hard_rayleigh(self, capsys):
        assert cli.main(["bounds", "--model", "comm-hard", "--detector",
                         "rayleigh", "--n", "12", "--k", "10", "--tau", "0.05",
                         "--kappa", "20"]) == 0
        out = capsys.readouterr().out
        assert _bound_names(out) == ["pfa", "total_default"]
        pfa = th.rayleigh_bounds(12, 10, 20.0)["pfa"].value
        assert out.startswith(f"pfa={pfa:.17g} applicable=true\n")

    def test_bounds_without_second_moment_exit_0(self, capsys):
        assert cli.main(["bounds", "--model", "comm-vm", "--detector",
                         "rayleigh", "--n", "30", "--k", "20", "--kappa",
                         "1e6"]) == 0
        assert _bound_names(capsys.readouterr().out) == [
            "pfa", "total_default", "pmiss"]

    def test_bounds_flat_vm_known_theta_has_no_scan_bounds(self, capsys):
        assert cli.main(["bounds", "--model", "flat-vm", "--detector",
                         "known-theta", "--N", "60", "--K", "5", "--kappa", "5",
                         "--tau", "0.2"]) == 0
        assert _bound_names(capsys.readouterr().out) == []

    @pytest.mark.parametrize("argv", [
        ["--model", "flat-hard", "--detector", "coherence", "--N", "200",
         "--K", "8", "--tau", "0.01", "--kappa", "2"],
        ["--model", "flat-vm", "--detector", "rayleigh", "--N", "60",
         "--K", "5", "--kappa", "5", "--tau", "0.2"],
        ["--model", "comm-vm", "--detector", "known-theta", "--n", "16",
         "--k", "5", "--kappa", "40", "--tau", "0.1"],
    ], ids=["flat-hard-coherence", "flat-vm-rayleigh", "comm-vm-known-theta"])
    def test_bounds_undefined_pair_is_usage_error(self, argv, capsys):
        assert cli.main(["bounds", *argv]) == 2
        assert capsys.readouterr().out == ""


def _scipy_after(*argvs, module="circlab.cli"):
    """In a fresh interpreter, import ``module``, then run ``cli.main`` on
    each argv in turn. Returns, after the import and after each command, the
    comma-joined names of scipy.integrate and scipy.special if loaded.

    pytest's IntegrationWarning filter has loaded scipy in this process, so
    the check needs a new one.
    """
    code = (f"import sys, {module}\n"
            "def loaded():\n"
            "    print('loaded=' + ','.join(m for m in ('scipy.integrate',"
            " 'scipy.special') if m in sys.modules))\n"
            "loaded()\n"
            f"for argv in {list(argvs)!r}:\n"
            "    assert circlab.cli.main(argv) == 0, argv\n"
            "    loaded()\n")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True)
    assert r.returncode == 0, r.stderr
    return [ln[len("loaded="):] for ln in r.stdout.splitlines()
            if ln.startswith("loaded=")]


class TestColdStart:
    """Only a command that takes log I0 of an array loads scipy.special,
    and only an integral that fails loads scipy.integrate."""

    @pytest.mark.parametrize("module", ["circlab", "circlab.cli"])
    def test_import_loads_no_scipy(self, module):
        assert _scipy_after(module=module) == [""]

    def test_gen_classify_and_detectors_load_no_scipy(self, tmp_path):
        flat, comm = str(tmp_path / "flat.txt"), str(tmp_path / "comm.txt")
        argvs = [
            ["gen", "--model", "flat-hard", "--N", "200", "--K", "8",
             "--tau", "0.02", "--h1", "--seed", "3", "--out", flat],
            ["gen", "--model", "comm-vm", "--n", "8", "--k", "4",
             "--kappa", "8", "--h1", "--seed", "5", "--out", comm],
            ["classify", "--model", "comm-vm", "--n", "16", "--k", "8",
             "--kappa", "2.0"],
            ["detect", "--data", flat, "--test", "interval", "--tau", "0.02"],
            ["detect", "--data", comm, "--test", "interval", "--tau", "0.15"],
            ["detect", "--data", comm, "--test", "coherence", "--kappa", "8"],
            ["detect", "--data", comm, "--test", "rayleigh", "--kappa", "8"],
            ["detect", "--data", comm, "--test", "variance",
             "--sigma2", "0.3"],
        ]
        assert _scipy_after(*argvs) == [""] * (1 + len(argvs))

    def test_integrating_commands_load_no_scipy_integrate(self, tmp_path,
                                                          capsys):
        # specfun._quad calls scipy's compiled QUADPACK extension without
        # importing its package; the vm threshold, the von Mises miss bound,
        # the variance bound and the exact second moments all integrate.
        flat = str(tmp_path / "flat.txt")
        vm = ["detect", "--data", flat, "--test", "interval", "--tau", "0.1",
              "--kappa", "5", "--policy", "vm"]
        argvs = [
            ["gen", "--model", "flat-vm", "--N", "100", "--K", "20",
             "--kappa", "5", "--h1", "--seed", "4", "--out", flat],
            vm,
            ["bounds", "--model", "comm-vm", "--detector", "interval",
             "--n", "16", "--k", "8", "--kappa", "2", "--tau", "0.15"],
            ["bounds", "--model", "comm-vm", "--detector", "variance",
             "--n", "10", "--k", "6", "--kappa", "30", "--sigma2", "0.05"],
            ["verify", "specfun"],
        ]
        assert _scipy_after(*argvs) == [""] * (1 + len(argvs))
        capsys.readouterr()
        assert cli.main(vm) == 0
        assert capsys.readouterr().out.startswith("statistic=")

    def test_vm_policy_peak_rss(self, tmp_path):
        # 81 MB when the vm threshold imported scipy.integrate; about 33 MB
        # with QUADPACK loaded on its own. VmHWM is the peak since exec:
        # ru_maxrss would keep this process's peak, as the child is started
        # from its memory.
        flat = str(tmp_path / "flat.txt")
        argvs = [["gen", "--model", "flat-vm", "--N", "100", "--K", "20",
                  "--kappa", "5", "--h1", "--seed", "4", "--out", flat],
                 ["detect", "--data", flat, "--test", "interval", "--tau",
                  "0.1", "--kappa", "5", "--policy", "vm"]]
        code = ("import circlab.cli\n"
                "from circlab import specfun\n"
                f"for argv in {argvs!r}:\n"
                "    assert circlab.cli.main(argv) == 0, argv\n"
                "assert specfun._quadpack is not None\n"
                "print(open('/proc/self/status').read())\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True)
        assert r.returncode == 0, r.stderr
        peak_kb, = re.findall(r"^VmHWM:\s+(\d+) kB$", r.stdout, re.M)
        assert int(peak_kb) / 1024 < 60.0


class TestParser:
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_command_build_gives_the_full_help(self, command, capsys):
        helps = []
        for parser in (cli.build_parser(), cli.build_parser(command)):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "-h"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]
        assert helps[0].startswith(f"usage: circlab {command} [-h]")

    def test_one_command_build_adds_no_other_arguments(self, capsys):
        parser = cli.build_parser("detect")
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["classify", "--model", "comm-vm"])
        assert exc.value.code == 2
        assert "invalid choice: 'classify'" in capsys.readouterr().err
        args = cli.build_parser().parse_args(["classify", "--model", "comm-vm"])
        assert args.handler is cli._cmd_classify

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_one_command_build_gives_the_full_errors(self, command, capsys):
        # bounds and classify need no argument, so --bogus reaches the top
        # parser, which prints its usage line: the one-command build's
        # metavar must print as the full build's list of choices.
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args([command, "--bogus"])
        full = exc.value.code, capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--bogus"])
        assert (exc.value.code, capsys.readouterr()) == full
        assert full[0] == 2 and full[1].out == ""
        if command in ("bounds", "classify"):
            assert full[1].err.startswith("usage: circlab [-h]")
            assert "{gen,detect,bounds,classify,sweep,phase-diagram,verify}" \
                in full[1].err

    @pytest.mark.parametrize("argv,code", [([], 2), (["-h"], 0),
                                           (["nonsense"], 2)])
    def test_no_command_lists_every_command(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == code
        captured = capsys.readouterr()
        assert "{gen,detect,bounds,classify,sweep,phase-diagram,verify}" in \
            captured.out + captured.err


class TestThreads:
    @pytest.mark.parametrize("threads", ["0", "-4"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_sweep_threads_below_one_is_usage_error(self, tmp_path, capsys,
                                                    threads, where):
        p = tmp_path / "c.cfg"
        text = ("model = flat-hard\ndetector = interval\nN = 30\nK = 3\n"
                "tau = 0.1\ntrials = 5\nsweep_K = 3, 4\nsweep_tau = 0.1, 0.2\n")
        flags = []
        if where == "config":
            text += f"threads = {threads}\n"
        else:
            flags = ["--threads", threads]
        p.write_text(text)
        for command in ("sweep", "phase-diagram"):
            out = tmp_path / command
            assert cli.main([command, "--config", str(p), "--out", str(out),
                             *flags]) == 2
            assert f"threads must be at least 1, got {threads}" in \
                capsys.readouterr().err
            assert not list(tmp_path.glob(f"{command}*"))

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_verify_threads_below_one_is_usage_error(self, threads, capsys):
        assert cli.main(["verify", "overlap", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"threads must be at least 1, got {threads}" in captured.err


class TestFileErrors:
    """A config file that cannot be read and an output path that cannot be
    written are usage errors, and a sweep finds the latter before any cell."""

    @pytest.mark.parametrize("command", ["sweep", "phase-diagram"])
    @pytest.mark.parametrize("where", ["missing", "directory", "not-utf8"])
    def test_unreadable_config(self, tmp_path, capsys, command, where):
        config = {"missing": tmp_path / "missing.cfg", "directory": tmp_path,
                  "not-utf8": tmp_path / "c.cfg"}[where]
        if where == "not-utf8":
            config.write_bytes(b"model = flat-hard\n\xff\n")
        assert cli.main([command, "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            f"usage error: cannot read config {str(config)!r}: ")

    def test_undecodable_dataset(self, tmp_path, capsys):
        data = tmp_path / "d.txt"
        data.write_bytes(b"# N=3\n\xff\n")
        assert cli.main(["detect", "--data", str(data), "--test", "interval",
                         "--tau", "0.1", "--policy", "fixed:1"]) == 2
        assert capsys.readouterr().err.startswith(
            f"usage error: cannot read dataset {str(data)!r}: ")

    def test_gen_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "x.txt"
        assert cli.main(["gen", "--model", "flat-hard", "--N", "20",
                         "--K", "3", "--tau", "0.1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"usage error: cannot write {str(out)!r}: no such directory\n"

    @pytest.mark.parametrize("command", ["sweep", "phase-diagram"])
    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_sweep_out_fails_before_any_cell(self, tmp_path, capsys,
                                             monkeypatch, command, where):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(lab, "estimate_errors", no_cell)
        config = tmp_path / "c.cfg"
        config.write_text("model = flat-hard\ndetector = interval\nN = 30\n"
                          "K = 3\ntau = 0.1\ntrials = 5\nsweep_tau = 0.1\n")
        folder = tmp_path / "nonexistent" if where == "missing" else tmp_path
        out = str(folder / "out")
        blocked = out if command == "sweep" else out + ".csv"
        if where == "directory":
            os.mkdir(blocked)
        reason = ("no such directory" if where == "missing"
                  else "it is a directory")
        assert cli.main([command, "--config", str(config), "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"usage error: cannot write {blocked!r}: {reason}\n"


class TestByteOrderMark:
    """A dataset or config file saved with a UTF-8 byte-order mark, as some
    editors write, reads as the same file without it."""

    @pytest.mark.parametrize("gen,detect", [
        (["--model", "flat-hard", "--N", "60", "--K", "6", "--tau", "0.1"],
         ["--test", "interval", "--tau", "0.1", "--policy", "a2"]),
        (["--model", "comm-vm", "--n", "8", "--k", "4", "--kappa", "8"],
         ["--test", "coherence", "--kappa", "8"]),
    ], ids=["flat", "community"])
    def test_dataset(self, tmp_path, capsys, gen, detect):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        assert cli.main(["gen", *gen, "--h1", "--seed", "3",
                         "--out", str(plain)]) == 0
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        capsys.readouterr()
        lines = []
        for path in (plain, marked):
            assert cli.main(["detect", "--data", str(path), *detect]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert lines[0].startswith("statistic=")

    def test_config(self, tmp_path):
        text = (b"model = flat-hard\ndetector = interval\nN = 30\nK = 3\n"
                b"tau = 0.1\ntrials = 5\nsweep_tau = 0.1, 0.2\n")
        rows = []
        for name, data in (("plain", text), ("marked", b"\xef\xbb\xbf" + text)):
            config, out = tmp_path / f"{name}.cfg", tmp_path / f"{name}.csv"
            config.write_bytes(data)
            assert cli.main(["sweep", "--config", str(config), "--threads",
                             "1", "--out", str(out)]) == 0
            rows.append(out.read_text())
        assert rows[0] == rows[1]
        assert rows[0].count("\n") == 3


class TestChunkRunner:
    """A chunk's angle rows go to one decision, and the counts are those of
    the decision on each trial alone, on the same streams."""

    @pytest.mark.parametrize("n,k", [(24, 6), (16, 8)],
                             ids=["coh24_6", "coh16_8"])
    def test_chunks_give_the_per_trial_counts(self, n, k):
        # At kappa = 2 witnesses decide nearly every (24, 6) trial and most
        # (16, 8) H1 trials; the (16, 8) H0 trials need the exact search.
        config = ExperimentConfig(model="comm-vm", detector="coherence", n=n,
                                  k=k, kappa=2.0, epsilon=0.5, trials=70,
                                  seed=5)
        point = lab.estimate_errors(config)
        assert point.failed is None
        decide = lab._make_test(config, decision=True)
        rejects = [0, 0]
        for hyp in (0, 1):
            for trial in range(config.trials):
                rng = mod.rng_for(config.seed, lab._STREAM_TRIAL, 0, hyp, trial)
                sample = lab._gen_sample(config, bool(hyp), rng)
                rejects[hyp] += bool(decide([sample.edge_angles])[0])
        assert 0 < rejects[0] and 0 < rejects[1]
        assert point.pfa_hat == rejects[0] / config.trials
        assert point.pmiss_hat == (config.trials - rejects[1]) / config.trials

    def test_default_runner_decides_each_sample_as_drawn(self, monkeypatch):
        # A decision other than coherence takes each row as it is drawn, and
        # every trial is drawn into the same row.
        config = ExperimentConfig(model="flat-hard", detector="interval",
                                  N=40, K=5, tau=0.05, trials=3, seed=2)
        drawn, decided = [], []
        draw = mod.draw_chunk

        def recorded_draws(*args, **kw):
            for row, planted in draw(*args, **kw):
                drawn.append(row)
                yield row, planted

        monkeypatch.setattr(mod, "draw_chunk", recorded_draws)
        decide = det.interval_rejects_flat

        def recorded(rows, *args):
            def taken():
                for row in rows:
                    decided.append(len(drawn))
                    yield row
            return decide(taken(), *args)

        monkeypatch.setattr(det, "interval_rejects_flat", recorded)
        hits = lab._run_chunk(config, lab._make_test(config, decision=True),
                              True, (7, 0, 1), range(5))
        assert hits == 5
        assert decided == [1, 2, 3, 4, 5]
        assert len({row.ctypes.data for row in drawn}) == 1
