"""Command-line interface.

Subcommands: gen, detect, bounds, classify, sweep, phase-diagram, verify.
Exit codes: 0 success, 1 suite/assertion failure, 2 usage error,
3 capability/budget error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import detectors as det
from . import lab
from . import models as mod
from . import theory as th
from .errors import CapabilityError, CirclabError, ConfigError


def _add_model_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", choices=list(th.MODELS))
    parser.add_argument("--N", type=int)
    parser.add_argument("--K", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--k", type=int)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--kappa", type=float)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="circlab",
        description="Planted circular-structure detection laboratory")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a dataset file")
    _add_model_params(p)
    p.add_argument("--h1", action="store_true", help="plant the alternative")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--reveal-truth", action="store_true")

    p = sub.add_parser("detect", help="run one detector on a dataset file")
    p.add_argument("--data", required=True)
    p.add_argument("--test", required=True, choices=list(lab.DETECTORS))
    p.add_argument("--tau", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--kappa", type=float)
    p.add_argument("--policy", default=None)
    p.add_argument("--gamma", type=float)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=0.5)

    p = sub.add_parser("bounds", help="evaluate analytic error bounds")
    _add_model_params(p)
    p.add_argument("--gamma", type=float)
    p.add_argument("--c-n", dest="c_n", type=float)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--sigma2", type=float)
    p.add_argument("--detector", choices=list(lab.DETECTORS), default="interval")

    p = sub.add_parser("classify", help="classify a parameter point")
    _add_model_params(p)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--eps-n", dest="eps_n", type=float)
    p.add_argument("--slack", type=float)

    for name in ("sweep", "phase-diagram"):
        p = sub.add_parser(name, help=f"run a parameter {name}")
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--threads", type=int)
        p.add_argument("--out")
        if name == "phase-diagram":
            p.add_argument("--svg", action="store_true")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=list(lab.VERIFY_SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=lab.DEFAULT_VERIFY_SEED)
    p.add_argument("--threads", type=int)
    return top


def _model_config(args, **fields) -> lab.ExperimentConfig:
    """Config from the shared model flags, checked to have the model's parameters."""
    config = lab.ExperimentConfig(model=args.model, N=args.N, K=args.K, n=args.n,
                                  k=args.k, tau=args.tau, kappa=args.kappa,
                                  **fields)
    config.validate_complete()
    return config


def _cmd_gen(args) -> int:
    config = _model_config(args)
    sample = lab._gen_sample(config, args.h1, mod.rng_for(args.seed, 7))
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        mod.write_dataset(fh, sample, signal=config.signal, seed=args.seed,
                          K=config.K if config.is_flat else None,
                          k=None if config.is_flat else config.k,
                          reveal_truth=args.reveal_truth)
    print(f"wrote {args.out}")
    return 0


def _report_line(report: det.TestReport) -> str:
    theta = "none" if report.witness_theta is None else "%.17g" % report.witness_theta
    subset = "none" if report.witness_subset is None \
        else ",".join(str(i) for i in report.witness_subset)
    return (f"statistic={report.statistic:.17g} threshold={report.threshold:.17g} "
            f"decision={report.decision.value} witness_theta={theta} "
            f"witness_subset={subset}")


def _cmd_detect(args) -> int:
    try:
        with open(args.data, "r", encoding="utf-8") as fh:
            sample, meta = mod.read_dataset(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read dataset {args.data!r}: {exc}") from exc
    flat = isinstance(sample, mod.FlatSample)
    header = meta.get("K" if flat else "k")
    k = args.k if args.k is not None else \
        (int(header) if header is not None else None)
    test = lab._make_test(
        args.test, flat, N=sample.n_points if flat else None, subset=k,
        tau=args.tau, kappa=args.kappa, policy=args.policy or None,
        gamma=args.gamma, sigma2=args.sigma2, epsilon=args.epsilon,
        theta=args.theta)
    print(_report_line(test(sample)))
    return 0


def _print_bound(prefix: str, name: str, bound: th.BoundValue) -> None:
    print(f"{prefix}{name}={bound.value:.17g} applicable="
          f"{str(bound.applicable).lower()}")


def _cmd_bounds(args) -> int:
    # No --policy here: --gamma fixes the threshold; without it flat-hard
    # uses gamma = K and flat-vm the vm recipe. A sweep cell without policy
    # or gamma uses a1 (gamma = K), so flat-vm interval differs from it.
    config = _model_config(
        args, detector=args.detector, gamma=args.gamma, sigma2=args.sigma2,
        epsilon=args.epsilon, c_n=args.c_n,
        policy="vm" if args.model == "flat-vm" and args.gamma is None else None)
    bounds = lab._cell_bounds(config)
    if config.model == "flat-hard" and config.detector == "interval":
        print(f"gamma={lab._config_gamma(config):.17g}")
    for name, bound in bounds.items():
        _print_bound("", name, bound)
    try:
        fns = th.impossibility_functionals(config.model, **config.model_params())
        for name, bound in fns.items():
            _print_bound("impossibility_", name, bound)
    except CirclabError:
        pass
    return 0


def _cmd_classify(args) -> int:
    config = _model_config(args)
    tun = th.RegimeTunables(eps=args.eps, eps_n=args.eps_n, slack=args.slack)
    verdict = th.regime_classify(config.model, config.model_params(), tun)
    for key, value in sorted(verdict.condition_values.items()):
        if isinstance(value, float):
            print(f"{key}={value:.17g}")
        else:
            print(f"{key}={value}")
    print(f"citation={verdict.citation or 'none'}")
    print(f"verdict={verdict.verdict}")
    return 0


def _load_sweep_config(args):
    data = lab.parse_config_file(args.config)
    axes = data.pop("sweep_axes", [])
    threads = data.pop("threads", None)
    svg = data.pop("svg", False)
    tun_kwargs = {k: data.pop(k) for k in ("eps", "eps_n", "slack")
                  if k in data}
    tunables = th.RegimeTunables(**tun_kwargs) if tun_kwargs else None
    config = lab.config_from_dict(data)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.threads is not None:
        threads = args.threads
    if threads is None:
        threads = os.cpu_count() or 1
    out = args.out or data.get("out")
    return config, axes, threads, out, svg, tunables


def _cmd_sweep(args) -> int:
    config, axes, threads, out, _, tunables = _load_sweep_config(args)
    if out is None:
        raise ConfigError("sweep needs --out or an out= config key")
    points = lab.sweep(axes, config, threads=threads, out=out,
                       tunables=tunables)
    failed = sum(1 for p in points if p.failed is not None)
    print(f"wrote {out}: {len(points)} cells, {failed} failed")
    return 0


def _cmd_phase_diagram(args) -> int:
    config, axes, threads, out, svg_cfg, tunables = _load_sweep_config(args)
    if out is None:
        raise ConfigError("phase-diagram needs --out or an out= config key")
    svg = bool(getattr(args, "svg", False) or svg_cfg)
    lab.phase_diagram(axes, config, out, threads=threads, svg=svg,
                      tunables=tunables)
    print(f"wrote {out}.csv and {out}_boundary.csv"
          + (f" and {out}.svg" if svg else ""))
    return 0


def _cmd_verify(args) -> int:
    threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
    reports = lab.verify(args.suite, seed=args.seed, threads=threads)
    ok = True
    for rep in reports:
        for line in rep.lines():
            print(line)
        ok = ok and rep.passed
    print(f"verify={'pass' if ok else 'fail'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": _cmd_gen,
        "detect": _cmd_detect,
        "bounds": _cmd_bounds,
        "classify": _cmd_classify,
        "sweep": _cmd_sweep,
        "phase-diagram": _cmd_phase_diagram,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except CapabilityError as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except CirclabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
