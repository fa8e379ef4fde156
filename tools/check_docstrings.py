#!/usr/bin/env python3
"""Docstring-coverage gate (stdlib-only).

Walks Python files and counts docstrings on modules, public classes and
public functions/methods; ``__init__``, private and magic names and
nested functions are not counted.  Exits non-zero when coverage falls
below ``--fail-under``.

The gate runs once, in tier-1: ``tests/obs/test_docstring_coverage.py``
imports this module and holds the targets and the threshold.

Usage::

    python tools/check_docstrings.py --fail-under 90 src/repro/obs ...
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys
from typing import Iterator, List, Tuple


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def iter_targets(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield (qualified name, node) for every definition the gate counts:
    the module itself, public classes, and public top-level or method
    functions.  Private (``_x``) and magic (``__x__``) names are skipped,
    as are functions nested inside other functions."""
    yield ("<module>", tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and _is_public(node.name):
            yield (node.name, node)
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_public(sub.name)):
                    yield (f"{node.name}.{sub.name}", sub)
        elif (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _is_public(node.name)):
            yield (node.name, node)


def check_file(path: pathlib.Path) -> Tuple[int, int, List[str]]:
    """Return (documented, total, missing names) for one file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    documented = total = 0
    missing: List[str] = []
    for name, node in iter_targets(tree):
        total += 1
        if ast.get_docstring(node):
            documented += 1
        else:
            missing.append(name)
    return documented, total, missing


def collect_files(targets: List[str]) -> List[pathlib.Path]:
    """Expand files/directories into the list of .py files to audit."""
    files: List[pathlib.Path] = []
    for target in targets:
        p = pathlib.Path(target)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        elif p.suffix == ".py":
            files.append(p)
    return files


def run(targets: List[str], fail_under: float,
        verbose: bool = False) -> Tuple[float, List[str]]:
    """Audit ``targets``; returns (coverage percent, missing entries)."""
    documented = total = 0
    all_missing: List[str] = []
    for path in collect_files(targets):
        d, t, missing = check_file(path)
        documented += d
        total += t
        all_missing.extend(f"{path}:{name}" for name in missing)
        if verbose and missing:
            print(f"{path}: {d}/{t}")
            for name in missing:
                print(f"  missing: {name}")
    coverage = 100.0 * documented / total if total else 100.0
    return coverage, all_missing


def main(argv=None) -> int:
    """CLI entry point; exit 0 iff coverage >= --fail-under."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("targets", nargs="+",
                    help="files or directories to audit")
    ap.add_argument("--fail-under", type=float, default=90.0, metavar="PCT",
                    help="minimum docstring coverage percent (default: 90)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="list every undocumented definition")
    args = ap.parse_args(argv)
    coverage, missing = run(args.targets, args.fail_under, args.verbose)
    status = "PASSED" if coverage >= args.fail_under else "FAILED"
    print(f"docstring coverage: {coverage:.1f}% "
          f"(required: {args.fail_under:.1f}%) — {status}")
    if coverage < args.fail_under:
        for entry in missing:
            print(f"  missing: {entry}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
