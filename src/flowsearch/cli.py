"""Command-line entry point.

Subcommands: ``run``, ``sweep``, ``ablate``, ``diversity``; each takes a
JSON config file.  Exit codes: 0 on success, 2 on a configuration error,
3 on an invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .errors import BudgetError, ConfigError, DomainError, InvariantError
from .harness import (
    DEFAULT_SWEEP_BUDGETS,
    ablate_interpolant,
    diversity_table,
    load_config,
    run_table,
    sweep,
    write_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowsearch",
        description="Reward-aligned sampling benchmarks on analytic flow models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the configured sampler for every seed"),
        ("sweep", "run an NFE-budget sweep"),
        ("ablate", "run all five generative processes under identical seeds"),
        ("diversity", "measure branched-proposal diversity for all processes"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to the JSON config file")
        cmd.add_argument("--seed-offset", type=int, default=0)
        cmd.add_argument("--out", default=None, help="output CSV path")
        cmd.add_argument("--jobs", type=int, default=1, help="worker processes, >= 1")
        if name == "sweep":
            cmd.add_argument(
                "--budgets",
                default=",".join(str(b) for b in DEFAULT_SWEEP_BUDGETS),
                help="comma-separated, strictly ascending NFE budgets",
            )
    return parser


def _parse_budgets(text: str) -> list[int]:
    try:
        return [int(b) for b in text.split(",") if b]
    except ValueError as exc:
        raise ConfigError(f"--budgets must be comma-separated integers, got {text!r}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        if args.seed_offset:
            config = replace(config, seeds=tuple(s + args.seed_offset for s in config.seeds))
        out = args.out or config.out
        if out is None:
            raise ConfigError("no output path: pass --out or set 'out' in the config")
        if args.command == "run":
            records = run_table(config, jobs=args.jobs)
        elif args.command == "sweep":
            records = sweep(config, _parse_budgets(args.budgets), jobs=args.jobs)
        elif args.command == "ablate":
            records = ablate_interpolant(config, jobs=args.jobs)
        else:
            records = diversity_table(config, jobs=args.jobs)
        write_csv(records, out)
    except (ConfigError, DomainError, BudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(f"wrote {len(records)} records to {out}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
