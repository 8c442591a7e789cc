"""CLI: ``python -m repro.lint [paths] [--format text|json] ...``.

Exit status: 0 when there is no finding, 1 when there is any, 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from typing import Sequence

from repro.lint import ALL_RULES, lint_paths


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Simulator-aware static analysis for the RAID-x repro "
        "(SIM determinism, LOCK release-on-all-paths, OBS tracer slot, "
        "ARCH layering and purity, FF fast-forward legality, LINT stale "
        "suppressions).",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule or family prefixes, e.g. SIM,LOCK001",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{', '.join(rule.codes()):16} {rule.summary}")
        return 0

    select = (
        [s.strip() for s in args.select.split(",") if s.strip()]
        if args.select
        else None
    )
    findings = lint_paths(args.paths, select=select)

    if args.format == "json":
        payload = {
            "version": 1,
            "tool": "repro.lint",
            "select": select or [],
            "findings": [f.to_dict() for f in findings],
            "summary": {
                "findings": len(findings),
                "by_rule": dict(Counter(f.rule for f in findings)),
            },
        }
        print(json.dumps(payload, indent=2))
    else:
        for f in findings:
            print(f.render())
        print(f"\n{len(findings)} finding(s)" if findings else "clean")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
