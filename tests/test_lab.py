"""Harness mechanics: estimation, sweeps, files, config, CLI."""

import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlab import cli, detectors as det, lab, models as mod, specfun as sf
from circlab import theory as th
from circlab.errors import CapabilityError, ConfigError
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

    def test_capability_marks_failed(self):
        cfg = ExperimentConfig(model="comm-vm", detector="coherence",
                               n=30, k=15, kappa=1.0, trials=5, seed=6)
        p = lab.estimate_errors(cfg)
        assert p.failed is not None and math.isnan(p.pfa_hat)

    def test_threads_do_not_change_counts(self):
        cfg = ExperimentConfig(model="comm-vm", detector="rayleigh",
                               n=10, k=4, kappa=2.0, trials=130, seed=7)
        a = lab.estimate_errors(cfg, threads=1)
        b = lab.estimate_errors(cfg, threads=7)
        assert (a.pfa_hat, a.pmiss_hat) == (b.pfa_hat, b.pmiss_hat)

    def test_incomplete_config_usage_error(self):
        cfg = ExperimentConfig(model="flat-hard", detector="interval",
                               N=30, K=3, trials=5, seed=0)
        with pytest.raises(ConfigError):
            lab.estimate_errors(cfg)


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

    @pytest.mark.parametrize("model,params,trials", [
        ("flat-vm", {"N": 12, "K": 4, "kappa": 2.0}, 130),
        ("flat-vm", {"N": 22, "K": 20, "kappa": 0.7}, 130),
        ("flat-vm", {"N": 60, "K": 3, "kappa": 12.0}, 5),
        ("comm-vm", {"n": 10, "k": 3, "kappa": 0.5}, 130),
        ("comm-vm", {"n": 8, "k": 5, "kappa": 1.5}, 64),
        ("comm-vm", {"n": 7, "k": 7, "kappa": 0.3}, 1),
    ])
    def test_chunked_draws_equal_per_trial_loop(self, model, params, trials):
        """The chunked von Mises draws give the per-trial loop's bits."""
        if model == "flat-vm":
            size = params["N"]
            table = det.revolving_door_subsets(params["N"], params["K"])
        else:
            size = params["n"] * (params["n"] - 1) // 2
            table = det.subset_edge_table(params["n"], params["k"])
        kappa = params["kappa"]
        rng = mod.rng_for(7, lab._STREAM_SECOND_MOMENT)
        log_i0_k = sf.log_bessel_i0(kappa)
        lsq = np.empty(trials)
        for t in range(trials):
            z = np.exp(1j * rng.random(size) * mod.TWO_PI)
            r = np.abs(z[table].sum(axis=1))
            lsq[t] = np.exp(sf._log_i0(kappa * r)
                            - table.shape[1] * log_i0_k).mean() ** 2
        se = lsq.std(ddof=1) / math.sqrt(trials) if trials > 1 else math.inf
        assert lab.empirical_second_moment(model, params, trials, seed=7) == \
            (float(lsq.mean()), float(se))


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
