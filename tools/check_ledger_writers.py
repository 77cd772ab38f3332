#!/usr/bin/env python
"""Lint: one writer per run-ledger record kind.

Each row of :data:`WRITERS` maps a callable to the one module under
``repro`` that may call it:

- ``append_attempt`` and ``point_record``: ``core/parallel.py``.  The
  executor's books log every attempt as it starts and ends, and every
  point once its batch returns, whichever transport ran it.
- ``run_record``: ``core/options.py``.  ``ExecutionOptions.close_run``
  writes the one ``run`` record of every orchestrated run.
- ``RunLedger`` and ``ResultCache``: ``core/options.py``.
  ``ExecutionOptions.opened`` opens a run's ledger and cache once, so
  every batch of the run shares them and its cache counters reach the
  run record.

A second writer keeps a second copy of a record's lifecycle, which
drifts from the first.  This check walks the AST of every module and
flags a call to a row's name, as a bare name or an attribute
(``ledger.append_attempt(...)``), outside the row's module.  Defining or
importing the name is not a call.

Run directly (``python tools/check_ledger_writers.py``) or via the test
suite (``tests/test_tooling.py``).  Exit status 0 = clean, 1 = violations.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator

DEFAULT_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

_BOOKS = "core/parallel.py"
_OPTIONS = "core/options.py"

#: Callable -> (the one module that may call it, what to use instead).
WRITERS = {
    "append_attempt": (_BOOKS, "attempts are logged by the executor's books"),
    "point_record": (_BOOKS, "point records are written by the executor's books"),
    "run_record": (_OPTIONS, "close a run with ExecutionOptions.close_run"),
    "RunLedger": (_OPTIONS, "open a run's ledger with ExecutionOptions.opened"),
    "ResultCache": (_OPTIONS, "open a run's cache with ExecutionOptions.opened"),
}


def _callee(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def find_violations(root: Path) -> Iterator[str]:
    """Yield ``path:line: source`` plus the broken rule for every call
    to a ledger writer outside its module."""
    for path in sorted(root.rglob("*.py")):
        module = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee(node)
            if name not in WRITERS or WRITERS[name][0] == module:
                continue
            writer, hint = WRITERS[name]
            line = lines[node.lineno - 1].strip()
            yield (
                f"{path}:{node.lineno}: {line}\n"
                f"      only repro/{writer} may call {name}; {hint}"
            )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root = Path(argv[0]) if argv else DEFAULT_ROOT
    violations = list(find_violations(root))
    if violations:
        print("run-ledger records written outside their one writer:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
