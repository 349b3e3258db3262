"""``repro lint``: the determinism/accounting static analysis."""

from __future__ import annotations

import argparse
import sys


def add_arguments(commands) -> None:
    lint = commands.add_parser(
        "lint",
        help="run the determinism/accounting static analysis "
        "(exit 0 clean, 1 findings, 2 usage error)",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    lint.add_argument(
        "--config", default=None, metavar="PYPROJECT",
        help="pyproject.toml to read [tool.repro-lint] from "
        "(default: search upward from the current directory)",
    )
    lint.add_argument(
        "--show-suppressed", action="store_true",
        help="also list findings silenced by pragmas (with their reasons)",
    )
    lint.set_defaults(func=cmd_lint)


def cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.engine import (
        format_findings,
        lint_paths,
        load_config,
    )
    from repro.errors import ConfigurationError

    try:
        config = load_config(
            Path(args.config) if args.config is not None else None
        )
        findings = lint_paths([Path(p) for p in args.paths], config)
    except ConfigurationError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    print(
        format_findings(
            findings,
            as_json=args.json,
            show_suppressed=args.show_suppressed,
        )
    )
    return 1 if any(not f.suppressed for f in findings) else 0
