"""Command-line experiment runner and assumption checkers.

Subcommands:
  run    <config.ini>   one TrialRecord CSV per (arm, seed) + summary.csv
  sweep  <config.ini>   cartesian grid from the [sweep] section -> sweep.csv
  check schedule|stability|optimum|unbiased

Output root comes from --out or the DYNLEARN_OUT environment variable
(default ./out). Exit codes: 0 success, 1 failed check, 2 bad config.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .dynamics import ConfigurationError
from .diagnostics import check_stability, local_optimum_report
from .harness import ExperimentConfig, parse_numbers, run_experiment, run_sweep, system_kind
from .rankone import UnbiasednessReport, verify_unbiased
from .records import write_csv
from .schedules import ExponentProfile, validate_exponents
from .updates import export_matrix_csv, solve_lyapunov

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2


def _outdir(args):
    return args.out or os.environ.get("DYNLEARN_OUT", "out")


def _load_config(args):
    cfg = ExperimentConfig.load(args.config)
    overrides = {}
    for clause in args.set or []:
        key, _, val = clause.partition("=")
        if not _:
            raise ConfigurationError(f"--set expects key=value, got {clause!r}")
        overrides[key] = val
    if args.seed is not None:
        overrides["experiment.seeds"] = ",".join(str(s) for s in args.seed)
    return cfg.with_overrides(overrides) if overrides else cfg


def cmd_run(args):
    cfg = _load_config(args)
    exp_dir = run_experiment(cfg, _outdir(args), jobs=args.jobs, force=args.force)
    print(f"wrote {exp_dir}")
    return EXIT_OK


def cmd_sweep(args):
    cfg = _load_config(args)
    exp_dir = run_sweep(cfg, _outdir(args), jobs=args.jobs, force=args.force)
    print(f"wrote {os.path.join(exp_dir, 'sweep.csv')}")
    return EXIT_OK


def cmd_check_schedule(args):
    profile = ExponentProfile(
        a=args.a, gamma_loss=args.gamma, algorithm_class=args.algo_class, A=args.A
    )
    ok, violations = validate_exponents(profile, args.b)
    print(f"schedule: {'valid' if ok else 'invalid'}")
    for v in violations:
        print(f"violated: {v}")
    return EXIT_OK if ok else EXIT_FAIL


def _check_plant(cfg, horizon):
    """The plant of cfg's system kind that exact RTRL trains, built on one
    generator (index rows drawn first, then theta0)."""
    rng = np.random.default_rng(np.random.Philox(key=0))
    return system_kind(cfg, "rtrl").build(cfg, cfg.get("sampling.scheme", "cycling"), horizon, rng, rng)


def cmd_check_stability(args):
    plant = _check_plant(ExperimentConfig.load(args.config), args.horizon)
    cert = check_stability(plant.system, plant.theta_star, plant.s0, args.horizon, k_max=args.k_max)
    if cert is None:
        print(f"no contraction certificate up to k={args.k_max}")
        return EXIT_FAIL
    print(cert.to_text(), end="")
    return EXIT_OK


def cmd_check_optimum(args):
    cfg, horizon = ExperimentConfig.load(args.config), max(args.horizon, 500)
    theta = _check_plant(cfg, horizon).theta_star
    if args.theta is not None:
        theta = np.array(parse_numbers("--theta", args.theta, len(theta)))
    # The candidate's own trajectory: s0 may depend on theta0 (a stationary
    # start). Same horizon for both builds: an RNN's theta* depends on it.
    plant = _check_plant(cfg.with_overrides({"init.theta0": ",".join(map(repr, theta.tolist()))}), horizon)
    report = local_optimum_report(plant.system, None, theta, args.horizon, plant.s0)
    print(report.to_text(), end="")
    if args.lambda_csv:
        export_matrix_csv(args.lambda_csv, report.lambda_matrix, label="lambda")
        if report.positive_stable:
            export_matrix_csv(args.lambda_csv.replace(".csv", "") + "_lyapunov.csv",
                              solve_lyapunov(report.lambda_matrix), label="b")
        print(f"wrote {args.lambda_csv}")
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_check_unbiased(args):
    try:
        report = verify_unbiased(args.reducer, args.dim, args.steps, seed=args.check_seed)
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return EXIT_CONFIG
    print(f"reducer: {report.reducer}")
    print(f"dim: {report.dim}")
    print(f"steps: {report.steps}")
    print(f"max_step_bias: {report.max_step_bias!r}")
    print(f"max_jacobian_bias: {report.max_jacobian_bias!r}")
    print(f"verdict: {'pass' if report.passed else 'fail'}")
    if args.csv:
        write_csv(args.csv, UnbiasednessReport.csv_header, [[x] for x in report.csv_row()])
        print(f"wrote {args.csv}")
    return EXIT_OK if report.passed else EXIT_FAIL


def build_parser():
    parser = argparse.ArgumentParser(prog="dynlearn", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="experiment INI file")
        p.add_argument("--out", default=None, help="output root (default $DYNLEARN_OUT or ./out)")
        p.add_argument("--jobs", type=int, default=1, help="parallel trials")
        p.add_argument("--force", action="store_true", help="skip exponent validation")
        p.add_argument("--seed", type=int, nargs="+", default=None, help="override the seed list")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")

    p_run = sub.add_parser("run", help="run every (arm, seed) trial of a config")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run the [sweep] grid of a config")
    add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="assumption checkers")
    check_sub = p_check.add_subparsers(dest="check_command", required=True)

    p_sched = check_sub.add_parser("schedule", help="validate step-size exponents")
    p_sched.add_argument("--class", dest="algo_class", required=True,
                         choices=("exact_rtrl", "imperfect_rtrl", "tbptt"),
                         help="algorithm class (accepts exact/imperfect/tbptt)")
    p_sched.add_argument("--a", type=float, required=True, help="ergodic exponent")
    p_sched.add_argument("--gamma", type=float, default=0.0, help="loss-growth exponent")
    p_sched.add_argument("--b", type=float, required=True, help="step-size exponent")
    p_sched.add_argument("--A", type=float, default=None, help="truncation exponent (tbptt)")
    p_sched.set_defaults(func=cmd_check_schedule)

    p_stab = check_sub.add_parser("stability", help="contraction certificate along the target trajectory")
    p_stab.add_argument("--config", required=True)
    p_stab.add_argument("--horizon", type=int, default=200)
    p_stab.add_argument("--k-max", type=int, default=50)
    p_stab.set_defaults(func=cmd_check_stability)

    p_opt = check_sub.add_parser("optimum", help="local-optimum evidence at a candidate parameter")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--horizon", type=int, default=500)
    p_opt.add_argument("--theta", default=None, help="candidate (comma list; default: dataset optimum)")
    p_opt.add_argument("--lambda-csv", default=None,
                       help="export the averaged update Jacobian (and its Lyapunov matrix) as CSV")
    p_opt.set_defaults(func=cmd_check_optimum)

    p_unb = check_sub.add_parser("unbiased", help="exhaustive reduction-bias check")
    p_unb.add_argument("--reducer", required=True, choices=("uoro", "nbt", "nobacktrack"))
    p_unb.add_argument("--dim", type=int, required=True)
    p_unb.add_argument("--steps", type=int, default=1)
    p_unb.add_argument("--seed", dest="check_seed", type=int, default=0)
    p_unb.add_argument("--csv", default=None, help="also write the report row to this CSV")
    p_unb.set_defaults(func=cmd_check_unbiased)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
