#!/usr/bin/env python
"""Lint: user-facing code imports only the supported API surface.

README code blocks and the scripts in ``examples/`` are the package's
public face: whatever they import, users will import.  If they reach
into ``repro.core.parallel`` or ``repro.sim.engine`` directly, those
module paths silently become API and can never move again.  This lint
pins the public face to the *supported* surface -- the ``repro`` top
level and :mod:`repro.api` -- so every deep path stays refactorable.

Checked sources:

- fenced ``python`` code blocks in ``README.md``;
- every ``examples/*.py`` script (whole file, AST-parsed).

A ``repro`` import is allowed only as ``import repro``, ``from repro
import ...`` or ``from repro.api import ...``.  Imports of anything
else (numpy, stdlib) are no concern of this lint.  Additionally, every
name imported from ``repro``/``repro.api`` must actually be in the
facade's ``__all__`` -- catching a name that was dropped from the
surface while a doc still advertises it.

Run directly (``python tools/check_api_surface.py``) or via the test
suite (``tests/test_api_surface.py``).  Exit status 0 = clean, 1 =
violations.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator

REPO_ROOT = Path(__file__).resolve().parents[1]

ALLOWED_MODULES = {"repro", "repro.api"}


def _facade_names(root: Path) -> set[str]:
    """The facade's ``__all__``, read from source (no package import)."""
    source = (root / "src" / "repro" / "api.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            if "__all__" in targets:
                return {
                    elt.value
                    for elt in node.value.elts  # type: ignore[attr-defined]
                    if isinstance(elt, ast.Constant)
                }
    raise AssertionError("src/repro/api.py has no literal __all__")


def _readme_blocks(readme: Path) -> Iterator[tuple[int, str]]:
    """Yield ``(first_line_number, source)`` per fenced python block."""
    lines = readme.read_text(encoding="utf-8").splitlines()
    block: list[str] = []
    start = 0
    in_block = False
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_block and stripped in ("```python", "```py"):
            in_block = True
            block = []
            start = lineno + 1
        elif in_block and stripped.startswith("```"):
            in_block = False
            yield start, "\n".join(block)
        elif in_block:
            block.append(line)


def _import_violations(
    tree: ast.AST, label: str, offset: int, facade: set[str]
) -> Iterator[str]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top == "repro" and alias.name not in ALLOWED_MODULES:
                    yield (
                        f"{label}:{offset + node.lineno}: "
                        f"import {alias.name} -- import repro or repro.api"
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            if node.module.split(".")[0] != "repro":
                continue
            if node.module not in ALLOWED_MODULES:
                yield (
                    f"{label}:{offset + node.lineno}: "
                    f"from {node.module} import ... -- only repro / "
                    "repro.api are supported import paths"
                )
                continue
            for alias in node.names:
                if alias.name != "*" and alias.name not in facade:
                    yield (
                        f"{label}:{offset + node.lineno}: "
                        f"'{alias.name}' is not part of the public surface "
                        "(repro.api.__all__)"
                    )


def find_violations(root: Path) -> list[str]:
    facade = _facade_names(root)
    violations: list[str] = []
    readme = root / "README.md"
    if readme.exists():
        for start, source in _readme_blocks(readme):
            try:
                tree = ast.parse(source)
            except SyntaxError:
                continue  # prose-like fragments (elided ``...`` etc.)
            violations.extend(
                _import_violations(tree, "README.md", start - 1, facade)
            )
    for path in sorted((root / "examples").glob("*.py")):
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        label = str(path.relative_to(root))
        violations.extend(_import_violations(tree, label, 0, facade))
    return violations


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root = Path(argv[0]) if argv else REPO_ROOT
    violations = find_violations(root)
    if violations:
        print(
            "user-facing code must import from the supported surface "
            "(repro / repro.api) only:"
        )
        for violation in violations:
            print(f"  {violation}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
