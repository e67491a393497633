"""Command-line entry point.

Subcommands: ``kernel-table``, ``simulate``, ``compare-rappor``,
``attack-eval``, ``audit``.  The three run commands share one handler: it
loads the config, applies ``--seed`` as ``dataclasses.replace(config,
seed=N)``, runs the command's runner and writes its CSV.  Exit codes: 0 on
success, 2 on validation errors (any `DPRelaxError`) and on I/O errors, 3
when an audit check fails.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .audit import run_standard_audits
from .errors import ConfigError, DPRelaxError, ParameterError
from .experiments import (
    DEFAULT_TABLE_DOMAINS,
    DEFAULT_TABLE_EPSILONS,
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


def _parse_list(text: str, kind, flag: str) -> list:
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _add_run_flags(sub, run, write, suffix: str):
    # a run command's flags, and the runner, CSV writer and file suffix of `_cmd_run`
    sub.add_argument("--config", required=True, help="path to the JSON experiment config")
    sub.add_argument("--seed", type=int, default=None, help="override the config's master seed")
    sub.add_argument("--out", default=".", help="output directory (default: current)")
    sub.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="split the run's blocks of trials across N threads (at most 64); output is "
        "byte-identical for any N. Small trials already share numpy calls in "
        "blocks, so N > 1 gains nothing on the shipped configs and slows "
        "compare-rappor; it helps when each trial has many objects (thousands)",
    )
    sub.set_defaults(func=_cmd_run, run=run, write=write, suffix=suffix)


def _cmd_kernel_table(args) -> int:
    epsilons = _parse_list(args.epsilons, float, "--epsilons")
    try:
        rows = kernel_table_rows(epsilons, _parse_list(args.domains, int, "--domains"))
    except ParameterError as exc:  # naming eps_values or domain_sizes first
        flag = "--epsilons" if str(exc).startswith("eps_values") else "--domains"
        raise ConfigError(f"{flag}: {exc}") from None
    path = write_kernel_table_csv(rows, Path(args.out) / "kernel_table.csv")
    print(path)
    return EXIT_OK


def _cmd_run(args) -> int:
    # simulate, attack-eval and compare-rappor: run the config, write its CSV
    config = load_config(args.config)
    if args.seed is not None:
        try:
            config = replace(config, seed=args.seed)
        except ConfigError as exc:  # the only field replaced is the seed
            raise ConfigError(str(exc).replace("ExperimentConfig.seed", "--seed", 1)) from None
    result = args.run(config, threads=args.threads)
    print(args.write(result, Path(args.out) / f"{config.name}_{args.suffix}.csv"))
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
        default=",".join(map(str, DEFAULT_TABLE_EPSILONS)),
        help="comma-separated parameter grid; consecutive pairs become transitions",
    )
    table.add_argument(
        "--domains",
        default=",".join(map(str, DEFAULT_TABLE_DOMAINS)),
        help="comma-separated domain sizes",
    )
    table.add_argument("--out", default=".", help="output directory")
    table.set_defaults(func=_cmd_kernel_table)

    # The runners and writers are read from this module's globals when the
    # parser is built, so one replaced after import is the one that runs.
    simulate = sub.add_parser("simulate", help="run a relaxation experiment")
    _add_run_flags(simulate, simulate_experiment, write_rounds_csv, "rounds")

    attacks = sub.add_parser("attack-eval", help="run an experiment, emit attack errors only")
    _add_run_flags(attacks, simulate_experiment, write_attacks_csv, "attacks")

    rappor = sub.add_parser("compare-rappor", help="relaxation vs noisy sampling variance")
    _add_run_flags(rappor, compare_noisy_sampling, write_rappor_csv, "rappor")

    audit = sub.add_parser("audit", help="run the exhaustive audit battery")
    audit.add_argument("--out", default=None, help="also write audit_report.csv here")
    audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DPRelaxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
