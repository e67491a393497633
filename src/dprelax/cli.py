"""Command-line entry point.

Subcommands: ``kernel-table``, ``simulate``, ``compare-rappor``,
``attack-eval``, ``audit``.  Exit codes: 0 on success, 2 on validation
errors, 3 when an audit check fails.
"""

import argparse
import sys
from pathlib import Path

from .audit import run_standard_audits
from .errors import ConfigError, DPRelaxError
from .experiments import (
    compare_noisy_sampling,
    kernel_table_rows,
    load_config,
    simulate_experiment,
    write_attacks_csv,
    write_audit_csv,
    write_kernel_table_csv,
    write_rappor_csv,
    write_rounds_csv,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_AUDIT_FAILED = 3


def _parse_floats(text: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--epsilons: {exc}") from exc


def _parse_ints(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--domains: {exc}") from exc


def _add_run_flags(sub):
    sub.add_argument("--config", required=True, help="path to the JSON experiment config")
    sub.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="split trials across N threads; output is byte-identical for any N, "
        "and it helps only when objects x rounds per trial is large",
    )


def _cmd_kernel_table(args) -> int:
    rows = kernel_table_rows(_parse_floats(args.epsilons), _parse_ints(args.domains))
    path = write_kernel_table_csv(rows, Path(args.out) / "kernel_table.csv")
    print(path)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    result = simulate_experiment(config, seed=args.seed, threads=args.threads)
    path = write_rounds_csv(result, Path(args.out) / f"{config.name}_rounds.csv")
    print(path)
    return EXIT_OK


def _cmd_attack_eval(args) -> int:
    config = load_config(args.config)
    result = simulate_experiment(config, seed=args.seed, threads=args.threads)
    path = write_attacks_csv(result, Path(args.out) / f"{config.name}_attacks.csv")
    print(path)
    return EXIT_OK


def _cmd_compare_rappor(args) -> int:
    config = load_config(args.config)
    comparison = compare_noisy_sampling(config, seed=args.seed, threads=args.threads)
    path = write_rappor_csv(comparison, Path(args.out) / f"{config.name}_rappor.csv")
    print(path)
    return EXIT_OK


def _cmd_audit(args) -> int:
    checks = run_standard_audits()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: worst={check.worst:.3e} bound={check.bound:.0e}")
    if args.out is not None:
        print(write_audit_csv(checks, Path(args.out) / "audit_report.csv"))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_AUDIT_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dprelax",
        description="Gradual privacy relaxation of randomized responses: "
        "experiment runner, kernel tables, and auditors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("kernel-table", help="emit kernel entries as CSV")
    table.add_argument(
        "--epsilons",
        default="0.1,0.5,1.0,2.0,10.0",
        help="comma-separated parameter grid; consecutive pairs become transitions",
    )
    table.add_argument("--domains", default="3,4,5,6,7,8,9,10", help="comma-separated domain sizes")
    table.add_argument("--out", default=".", help="output directory")
    table.set_defaults(func=_cmd_kernel_table)

    simulate = sub.add_parser("simulate", help="run a relaxation experiment")
    _add_run_flags(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    attacks = sub.add_parser("attack-eval", help="run an experiment, emit attack errors only")
    _add_run_flags(attacks)
    attacks.set_defaults(func=_cmd_attack_eval)

    rappor = sub.add_parser("compare-rappor", help="relaxation vs noisy sampling variance")
    _add_run_flags(rappor)
    rappor.set_defaults(func=_cmd_compare_rappor)

    audit = sub.add_parser("audit", help="run the exhaustive audit battery")
    audit.add_argument("--out", default=None, help="also write audit_report.csv here")
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DPRelaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
