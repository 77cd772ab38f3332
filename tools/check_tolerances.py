#!/usr/bin/env python
"""Lint: no inline magic epsilons in ``tests/equivalence/``.

The differential harness's whole value is that its tolerances are a
*declared contract*: every slack lives as a named constant in
``tests/equivalence/tolerances.py`` with a written rationale, so
widening one is a reviewed decision rather than a drive-by edit inside
an assertion.  This check enforces the house rule mechanically -- any
approximate assertion in ``tests/equivalence/`` (an ordering comparison,
a ``pytest.approx``, a ``math.isclose``) that carries a bare float
literal instead of a named tolerance constant is a violation.

What trips it::

    assert rel_error < 0.05                     # magic epsilon
    assert x == pytest.approx(y, rel=1e-6)      # inline rel
    assert math.isclose(a, b, abs_tol=1e-9)     # inline abs_tol

What passes::

    assert rel_error < tol.SPLICE_MEAN_POWER_RTOL
    assert x == pytest.approx(y, rel=SPLICE_MEAN_POWER_RTOL)
    assert count > 0 and len(records) >= 200    # integers are counts
    assert worst > 0.0                          # zero is not a slack

``0.0`` is exempt: comparing against zero asserts exactness, not an
approximation -- a zero-slack *contract* itself still belongs in a
named constant where its rationale is.

A line can opt out with ``# tolerance: <reason>`` on it or the line
above, for the rare assertion whose bound is structural rather than a
measurement slack.

Run directly (``python tools/check_tolerances.py``) or via the test
suite (``tests/test_tooling.py``); CI's lints job picks it up with the
other ``check_*`` tools.  Exit status 0 = clean, 1 = violations.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List

DEFAULT_ROOT = Path(__file__).resolve().parents[1] / "tests" / "equivalence"

#: The one file allowed to spell out float literals: the declarations.
DECLARATIONS = "tolerances.py"

PRAGMA = "# tolerance:"

_ORDERING = (ast.Gt, ast.GtE, ast.Lt, ast.LtE)
_APPROX_CALLEES = {"approx", "isclose"}
_TOLERANCE_KWARGS = {"rel", "abs", "rel_tol", "abs_tol"}


def _has_pragma(lines: List[str], lineno: int) -> bool:
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(lines) and PRAGMA in lines[candidate - 1]:
            return True
    return False


def _float_literals(node: ast.AST) -> Iterator[ast.Constant]:
    """Non-zero float literals anywhere under ``node``."""
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, float)
            and sub.value != 0.0
        ):
            yield sub


def _callee_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def find_violations(root: Path) -> Iterator[str]:
    """Yield ``path:line: source -- why`` per inline epsilon."""
    for path in sorted(root.rglob("*.py")):
        if path.name == DECLARATIONS:
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare) and any(
                isinstance(op, _ORDERING) for op in node.ops
            ):
                offenders = list(_float_literals(node))
            elif (
                isinstance(node, ast.Call)
                and _callee_name(node) in _APPROX_CALLEES
            ):
                offenders = [
                    literal
                    for keyword in node.keywords
                    if keyword.arg in _TOLERANCE_KWARGS
                    for literal in _float_literals(keyword.value)
                ]
            else:
                continue
            for literal in offenders:
                if _has_pragma(lines, literal.lineno):
                    continue
                line = lines[literal.lineno - 1].strip()
                yield (
                    f"{path}:{literal.lineno}: {line} -- inline epsilon "
                    f"{literal.value!r}"
                )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root = Path(argv[0]) if argv else DEFAULT_ROOT
    violations = sorted(set(find_violations(root)))
    if violations:
        print(
            "approximate assertions in tests/equivalence/ must use a "
            "named constant from tolerances.py (or justify with "
            f"`{PRAGMA} <reason>`):"
        )
        for violation in violations:
            print(f"  {violation}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
