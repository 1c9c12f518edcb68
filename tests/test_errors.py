"""One typing rule for every numeric argument: a number is a real that is not
a bool, an integer is an integral number, and anything else is a
CirclabError at every layer, never a bare exception or a coerced value."""

import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlab import cli, detectors as det, lab, models as mod, specfun as sf
from circlab import theory as th
from circlab.errors import CirclabError, ConfigError, DomainError
from circlab.lab import ExperimentConfig

FLAT = mod.FlatSample(np.array([0.5, 1.0, 4.0, 4.1, 6.0]))
EDGE = mod.gen_community(6, 3, mod.VonMises(3.0), True, mod.rng_for(1, 90))


def _rng():
    return mod.rng_for(0, 91)


# name -> (call, valid arguments); each argument is drawn in turn.
CALLS = {
    # detectors: tests, decisions and threshold recipes
    "interval_test_flat": (lambda tau, gamma: det.interval_test_flat(
        FLAT, tau, gamma), (0.2, 2.0)),
    "interval_rejects_flat": (lambda tau, gamma: det.interval_rejects_flat(
        [FLAT.angles], tau, gamma), (0.2, 2.0)),
    "known_theta_test_flat": (
        lambda tau, gamma, theta: det.known_theta_test_flat(
            FLAT, tau, gamma, theta), (0.2, 2.0, 0.4)),
    "known_theta_rejects_flat": (
        lambda tau, gamma, theta: det.known_theta_rejects_flat(
            [FLAT.angles], tau, gamma, [theta]), (0.2, 2.0, 0.4)),
    "interval_test_community": (lambda k, tau: det.interval_test_community(
        EDGE, k, tau), (3, 0.2)),
    "interval_rejects_community": (
        lambda k, tau: det.interval_rejects_community(
            [EDGE.edge_angles], k, tau), (3, 0.2)),
    "coherence_test": (lambda k, beta: det.coherence_test(EDGE, k, beta),
                       (3, 2.0)),
    "coherence_rejects": (lambda k, beta: det.coherence_rejects(
        [EDGE.edge_angles], k, beta), (3, 2.0)),
    "rayleigh_test": (lambda k, beta: det.rayleigh_test(EDGE, k, beta),
                      (3, 2.0)),
    "rayleigh_rejects": (lambda k, beta: det.rayleigh_rejects(
        [EDGE.edge_angles], k, beta), (3, 2.0)),
    "variance_test": (lambda k, sigma2: det.variance_test(EDGE, k, sigma2),
                      (3, 0.3)),
    "variance_rejects": (lambda k, sigma2: det.variance_rejects(
        [EDGE.edge_angles], k, sigma2), (3, 0.3)),
    "resolve_flat_threshold a1": (
        lambda N, K: det.resolve_flat_threshold("a1", N, 0.1, K=K), (10, 3)),
    "resolve_flat_threshold a2": (
        lambda N, tau, K, c_n: det.resolve_flat_threshold(
            "a2", N, tau, K=K, c_n=c_n), (10, 0.1, 3, 1.0)),
    "resolve_flat_threshold vm": (
        lambda N, tau, K, kappa, c_n: det.resolve_flat_threshold(
            "vm", N, tau, K=K, kappa=kappa, c_n=c_n), (10, 0.1, 3, 2.0, 1.0)),
    "resolve_flat_threshold gamma": (
        lambda gamma: det.resolve_flat_threshold(None, 10, 0.1, gamma=gamma),
        (2.0,)),
    "coherence_threshold": (det.coherence_threshold, (3, 2.0, 0.5)),
    "rayleigh_threshold": (det.rayleigh_threshold, (3, 2.0)),
    # specfun
    "bessel_i0_scaled": (sf.bessel_i0_scaled, (1.5,)),
    "log_bessel_i0": (sf.log_bessel_i0, (1.5,)),
    "mean_resultant": (sf.mean_resultant, (1.5,)),
    "ratio_R": (sf.ratio_R, (1.5,)),
    "log_ratio_R": (sf.log_ratio_R, (1.5,)),
    "rho": (sf.rho, (1.5, 0.3)),
    "log_rho": (sf.log_rho, (1.5, 0.3)),
    "arc_prob": (sf.arc_prob, (1.5, 0.3)),
    "gaussian_upper_tail": (sf.gaussian_upper_tail, (0.5,)),
    "window_calibration_objective": (sf.window_calibration_objective, (0.7,)),
    # theory
    "flat_hard_bounds": (th.flat_hard_bounds, (20, 3, 0.1, 3.0)),
    "flat_vm_bounds": (th.flat_vm_bounds, (20, 3, 2.0, 0.1, None, None)),
    "flat_vm_bounds gamma": (th.flat_vm_bounds, (20, 3, 2.0, 0.1, 1.0, 3.0)),
    "known_theta_bounds": (th.known_theta_bounds, (20, 3, 0.1, 3.0)),
    "comm_interval_bounds": (th.comm_interval_bounds, (8, 3, 0.2, 2.0)),
    "comm_coherence_bounds": (th.comm_coherence_bounds, (8, 3, 2.0, 0.5, 8)),
    "rayleigh_bounds": (th.rayleigh_bounds, (8, 3, 2.0)),
    "comm_variance_bounds kappa": (th.comm_variance_bounds,
                                   (8, 3, 0.5, 2.0, None, 8)),
    "comm_variance_bounds tau": (th.comm_variance_bounds,
                                 (8, 3, 0.5, None, 0.2, 8)),
    "delta_overlap": (th.delta_overlap, (0.3, 0.1)),
    "delta_moment": (th.delta_moment, (0.3, 2)),
    "OverlapLaw": (th.OverlapLaw, (10, 3)),
    "hypergeom_pmf": (lambda j: th.hypergeom_pmf(th.OverlapLaw(10, 3), j),
                      (1,)),
    "second_moment_exact_flat_hard": (th.second_moment_exact_flat_hard,
                                      (10, 2, 0.3)),
    "second_moment_exact_flat_vm": (th.second_moment_exact_flat_vm,
                                    (6, 2, 1.0)),
    "second_moment_exact_comm_hard": (th.second_moment_exact_comm_hard,
                                      (6, 3, 0.3)),
    "second_moment_exact_comm_vm": (th.second_moment_exact_comm_vm,
                                    (6, 3, 1.0)),
    **{f"impossibility_functionals {model}": (
        lambda size, k, x, model=model: th.impossibility_functionals(
            model, **point(model, size, k, x)), args)
       for model, args in (("flat-hard", (30, 3, 0.1)),
                           ("flat-vm", (30, 3, 1.0)),
                           ("comm-hard", (8, 3, 0.3)),
                           ("comm-vm", (8, 3, 1.0)))},
    **{f"regime_classify {model}": (
        lambda size, k, x, model=model: th.regime_classify(
            model, point(model, size, k, x)), args)
       for model, args in (("flat-hard", (400, 5, 0.1)),
                           ("flat-vm", (400, 5, 2.0)),
                           ("comm-hard", (30, 5, 0.3)),
                           ("comm-vm", (30, 5, 2.0)))},
    # models
    "HardCluster": (mod.HardCluster, (0.2,)),
    "VonMises": (mod.VonMises, (2.0,)),
    "sample_von_mises": (lambda theta, kappa, size: mod.sample_von_mises(
        theta, kappa, _rng(), size), (0.3, 2.0, 3)),
    "sample_arc_uniform": (lambda theta, tau, size: mod.sample_arc_uniform(
        theta, tau, _rng(), size), (0.3, 0.2, 3)),
    "gen_flat": (lambda N, K: mod.gen_flat(N, K, mod.HardCluster(0.2), True,
                                           _rng()), (10, 3)),
    "gen_community": (lambda n, k: mod.gen_community(
        n, k, mod.VonMises(2.0), True, _rng()), (6, 3)),
}

# (model, detector, policy) of the cells whose fields are drawn
CELLS = [("flat-hard", "interval", "a2"), ("flat-hard", "interval", None),
         ("flat-vm", "interval", "vm"), ("flat-hard", "known-theta", None),
         ("comm-hard", "interval", "a1"), ("comm-vm", "coherence", "a1"),
         ("comm-vm", "rayleigh", "a1"), ("comm-vm", "variance", "a1")]
FIELDS = ("N", "K", "n", "k", "tau", "kappa", "gamma", "sigma2", "epsilon",
          "theta", "c_n", "trials", "seed")


def point(model, size, k, x):
    flat, hard = model.startswith("flat"), model.endswith("hard")
    return {"N" if flat else "n": size, "K" if flat else "k": k,
            "tau" if hard else "kappa": x}


def cell(model, detector, policy):
    return ExperimentConfig(
        model=model, detector=detector, policy=policy, N=12, K=3, n=6, k=3,
        tau=0.2, kappa=2.0, gamma=None if policy else 3.0, sigma2=0.5,
        trials=3, seed=1)


def run_cell(config, name, value):
    point_ = lab.estimate_errors(replace(config, **{name: value}))
    return plain((point_.pfa_hat, point_.pmiss_hat, point_.failed is None,
                  point_.verdict, point_.bound_pfa, point_.bound_pmiss))


values = st.one_of(
    st.integers(min_value=-3, max_value=12),
    st.floats(min_value=-30.0, max_value=30.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, True, False,
                     "3", "0.5", "abc", None, [3]]))


def plain(result):
    """``result`` with each number as the hex of its float, for comparing
    the results of an int and of its float form."""
    if isinstance(result, (bool, str, type(None))):
        return result
    if isinstance(result, (int, float, np.integer, np.floating)):
        return float(result).hex()
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.tobytes()
    if dataclasses.is_dataclass(result):
        return plain(dataclasses.asdict(result))
    if isinstance(result, dict):
        return sorted((key, plain(value)) for key, value in result.items())
    if isinstance(result, (tuple, list)):
        return [plain(value) for value in result]
    return result


def outcome(call):
    """``plain(call())``, or the CirclabError class it raises."""
    try:
        return plain(call())
    except CirclabError as exc:
        return type(exc)


class TestTypingRule:
    """Only a CirclabError escapes any layer, and an accepted int gives the
    result of its float form."""

    @settings(max_examples=1500, deadline=None)
    @given(st.sampled_from(sorted(CALLS)), st.data(), values)
    def test_library_calls(self, name, data, value):
        call, args = CALLS[name]
        i = data.draw(st.integers(min_value=0, max_value=len(args) - 1))
        drawn = args[:i] + (value,) + args[i + 1:]
        got = outcome(lambda: call(*drawn))
        if type(value) is int and not isinstance(got, type) \
                and abs(value) < 2 ** 53:
            as_float = args[:i] + (float(value),) + args[i + 1:]
            assert outcome(lambda: call(*as_float)) == got

    @settings(max_examples=500, deadline=None)
    @given(st.sampled_from(CELLS), st.sampled_from(FIELDS), values)
    def test_config_fields_through_estimate_errors(self, kind, name, value):
        config = cell(*kind)
        try:
            got = run_cell(config, name, value)
        except CirclabError:
            return
        if type(value) is int and abs(value) < 2 ** 53:
            assert run_cell(config, name, float(value)) == got


class TestEscapesAreTyped:
    """Calls that raised a bare TypeError, ValueError or AttributeError,
    or returned a value for a bool or a string, before the rule."""

    @pytest.mark.parametrize("call,args", [
        (det.coherence_threshold, (4, "abc")),
        (det.rayleigh_threshold, (4, "abc")),
        (lambda: det.resolve_flat_threshold("a2", 100, "abc", K=5), ()),
        (lambda: det.resolve_flat_threshold("vm", 100, 0.1, K=5,
                                            kappa="abc"), ()),
        (th.flat_hard_bounds, (100, "5", 0.1, 5.0)),
        (th.comm_interval_bounds, (10, 3, "abc")),
        (th.comm_coherence_bounds, (10, 3, "abc", 0.5)),
        (th.rayleigh_bounds, (10, 3, "abc")),
        (th.comm_variance_bounds, (10, 3, "abc", 1.0)),
        (th.second_moment_exact_comm_vm, (10, 3, "abc")),
        (lambda: th.impossibility_functionals("flat-hard", N=100, K=5,
                                              tau="abc"), ()),
        (th.regime_classify, ("flat-hard", {"N": 100, "K": 5, "tau": "abc"})),
        (mod.sample_von_mises, (0, "2", mod.rng_for(0, 1))),
        (sf.rho, (1.0, "x")),
        (sf.arc_prob, (2.0, "x")),
        (lab.empirical_second_moment,
         ("flat-hard", {"N": 10, "K": 2, "tau": "abc"}, 10, 1)),
        (sf.mean_resultant, ("2",)),
        (sf.log_bessel_i0, ("3",)),
        (sf.log_bessel_i0, (True,)),
        (sf.arc_prob, ("2", 0.1)),
        (mod.HardCluster, (True,)),
        (mod.VonMises, (True,)),
    ], ids=["coherence_threshold", "rayleigh_threshold", "resolve a2 tau",
            "resolve vm kappa", "flat_hard_bounds", "comm_interval_bounds",
            "comm_coherence_bounds", "rayleigh_bounds", "comm_variance_bounds",
            "second_moment_exact_comm_vm", "impossibility_functionals",
            "regime_classify", "sample_von_mises", "rho", "arc_prob tau",
            "empirical_second_moment", "mean_resultant '2'",
            "log_bessel_i0 '3'", "log_bessel_i0 True", "arc_prob kappa '2'",
            "HardCluster True", "VonMises True"])
    def test_library(self, call, args):
        with pytest.raises(CirclabError):
            call(*args)

    @pytest.mark.parametrize("model,detector,policy,field,value", [
        ("flat-hard", "interval", "a2", "tau", "abc"),
        ("comm-vm", "coherence", "a1", "kappa", "abc"),
        ("comm-vm", "coherence", "a1", "kappa", "10"),
        ("comm-vm", "rayleigh", "a1", "kappa", "abc"),
        ("comm-vm", "rayleigh", "a1", "kappa", "10"),
        ("flat-vm", "interval", "vm", "kappa", "abc"),
        ("flat-vm", "interval", "vm", "kappa", "10"),
        ("comm-vm", "coherence", "a1", "epsilon", "abc"),
        ("comm-vm", "coherence", "a1", "epsilon", None),
        ("comm-vm", "coherence", "a1", "kappa", True),
        ("flat-hard", "interval", "a2", "tau", True),
        ("flat-hard", "interval", "a2", "policy", 3),
    ])
    def test_config_field(self, model, detector, policy, field, value):
        config = cell(model, detector, policy)
        with pytest.raises(ConfigError, match=f"^{field} must be a "):
            lab.estimate_errors(replace(config, **{field: value}))

    def test_config_keeps_values_as_given(self):
        config = ExperimentConfig(model="flat-hard", N=20, K=3, tau=1,
                                  trials=2)
        assert type(config.tau) is int
        assert lab._point_row(lab.estimate_errors(config))[5] == "1"

    @pytest.mark.parametrize("axis,value", [
        ("tau", "abc"), ("tau", None), ("tau", True), ("tau", 10 ** 400),
        ("N", "abc"), ("N", None), ("N", True), ("kappa", [3])])
    def test_sweep_axis_typed_before_any_cell(self, axis, value, monkeypatch):
        ran = []
        monkeypatch.setattr(lab, "estimate_errors",
                            lambda *a, **k: ran.append(a))
        base = ExperimentConfig(model="flat-hard", N=20, K=3, tau=0.1,
                                trials=2)
        good = 0.1 if axis != "N" else 20
        with pytest.raises(ConfigError, match=f"^axis '{axis}' "):
            lab.sweep([(axis, [good, value])], base)
        assert ran == []


class TestClassifyDomain:
    """``classify`` gives no verdict for a point outside the model's domain."""

    @pytest.mark.parametrize("args,message", [
        (("--model", "comm-hard", "--n", "10", "--k", "3", "--tau", "0"),
         "tau must be in (0, 1], got 0.0"),
        (("--model", "flat-hard", "--N", "100", "--K", "5", "--tau", "2"),
         "tau must be in (0, 1], got 2.0"),
        (("--model", "flat-hard", "--N", "100", "--K", "500", "--tau", "0.1"),
         "need 1 <= K <= N, got N=100, K=500"),
        (("--model", "comm-vm", "--n", "10", "--k", "30", "--kappa", "1"),
         "need 2 <= k <= n, got n=10, k=30"),
        (("--model", "flat-vm", "--N", "100", "--K", "5", "--kappa", "-1"),
         "kappa must be finite and >= 0, got -1.0"),
    ])
    def test_cli_exits_1(self, args, message, capsys):
        assert cli.main(["classify", *args]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_inside_the_domain_classifies(self, capsys):
        assert cli.main(["classify", "--model", "flat-vm", "--N", "100",
                         "--K", "5", "--kappa", "1"]) == 0
        assert capsys.readouterr().out.endswith("verdict=impossible\n")

    def test_missing_parameter(self):
        with pytest.raises(CirclabError, match="flat-hard needs tau"):
            th.regime_classify("flat-hard", {"N": 100, "K": 5})


class TestOneCheckPerDomain:
    @pytest.mark.parametrize("call", [
        lambda tau: mod.HardCluster(tau),
        lambda tau: det.interval_test_flat(FLAT, tau, 2.0),
        lambda tau: det.resolve_flat_threshold("a2", 10, tau, K=3),
        lambda tau: sf.arc_prob(1.0, tau),
        lambda tau: th.flat_hard_bounds(20, 3, tau, 3.0),
        lambda tau: th.second_moment_exact_comm_hard(6, 3, tau),
        lambda tau: th.regime_classify("comm-hard", point("comm-hard", 8, 3,
                                                          tau)),
    ], ids=["HardCluster", "interval_test_flat", "resolve_flat_threshold",
            "arc_prob", "flat_hard_bounds", "second_moment_exact_comm_hard",
            "regime_classify"])
    @pytest.mark.parametrize("tau", [0, 2.0, math.nan, pytest.param(
        10 ** 400, id="10**400")])
    def test_window(self, call, tau):
        with pytest.raises(DomainError) as exc:
            call(tau)
        assert str(exc.value) == f"tau must be in (0, 1], got {tau!r}"

    @pytest.mark.parametrize("call", [
        mod.VonMises, sf.mean_resultant, lambda kappa: sf.arc_prob(kappa, 0.5),
        lambda kappa: det.rayleigh_threshold(3, kappa),
        lambda kappa: th.second_moment_exact_flat_vm(6, 2, kappa),
        lambda kappa: th.regime_classify("flat-vm", point("flat-vm", 30, 3,
                                                          kappa)),
    ], ids=["VonMises", "mean_resultant", "arc_prob", "rayleigh_threshold",
            "second_moment_exact_flat_vm", "regime_classify"])
    @pytest.mark.parametrize("kappa", [-1, math.inf, math.nan])
    def test_concentration(self, call, kappa):
        with pytest.raises(DomainError) as exc:
            call(kappa)
        assert str(exc.value) == f"kappa must be finite and >= 0, got {kappa!r}"
