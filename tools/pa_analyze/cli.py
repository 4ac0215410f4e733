"""Command-line driver: load the index once, run the requested passes.

    python3 tools/pa_analyze                    # all three passes
    python3 tools/pa_analyze --pass lock-order  # one pass
    python3 tools/pa_analyze --emit-lock-table  # print the generated table
    python3 tools/pa_analyze --fix-lock-table   # rewrite DESIGN.md block
    python3 tools/pa_analyze --root <dir>       # analyze another tree

Exit status 0 = clean, 1 = findings, 2 = usage / setup error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import PASS_NAMES, Finding
from .source import Index
from . import commands, lock_order, metrics

PASSES = {
    "lock-order": lock_order.run,
    "commands": commands.run,
    "metrics": metrics.run,
}
assert tuple(PASSES) == PASS_NAMES


def run_passes(root: Path, names: list[str]) -> list[Finding]:
    index = Index(root)
    findings: list[Finding] = []
    for name in names:
        findings.extend(PASSES[name](index))
    findings.sort(key=lambda f: (f.path, f.line, f.pass_name, f.message))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pa_analyze",
        description="whole-program invariant analyzer (lock-order graph, "
                    "command exhaustiveness, metric manifest)")
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        .parent,
                        help="repository root to analyze (default: this "
                             "repo)")
    parser.add_argument("--pass", dest="passes", action="append",
                        choices=PASS_NAMES, metavar="NAME",
                        help="run only this pass (repeatable; default: "
                             "all of %s)" % ", ".join(PASS_NAMES))
    parser.add_argument("--emit-lock-table", action="store_true",
                        help="print the generated lock table and exit")
    parser.add_argument("--fix-lock-table", action="store_true",
                        help="rewrite the DESIGN.md marker block with the "
                             "generated lock table")
    args = parser.parse_args(argv)

    if not args.root.is_dir():
        print(f"pa_analyze: no such root: {args.root}", file=sys.stderr)
        return 2

    if args.emit_lock_table:
        sys.stdout.write(lock_order.emit_lock_table(Index(args.root)))
        return 0
    if args.fix_lock_table:
        if not lock_order.fix_design_table(Index(args.root)):
            print("pa_analyze: DESIGN.md markers not found — add "
                  f"`{lock_order.TABLE_BEGIN}` and "
                  f"`{lock_order.TABLE_END}` around the table first",
                  file=sys.stderr)
            return 2
        print("pa_analyze: DESIGN.md lock table regenerated")
        return 0

    findings = run_passes(args.root, args.passes or list(PASS_NAMES))
    for f in findings:
        print(f)
    if findings:
        print(f"\npa_analyze: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("pa_analyze: clean")
    return 0
