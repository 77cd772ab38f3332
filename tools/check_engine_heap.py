#!/usr/bin/env python
"""Lint: only ``repro.sim`` may touch an engine's queues or sequence counter.

The event engine keeps future entries on a heap (``_queue``, tie-broken
by ``_seq``) and entries due now in a FIFO (``_ready``).  Pop order is
``(time, seq)`` only because every push goes through
``Engine.schedule`` or ``Engine.call_soon``, which route an entry due at
the current instant to the FIFO.  An inline ``heappush`` onto
``engine._queue`` at ``now`` would land on the heap behind the FIFO's
back and pop after entries pushed later.

This check walks the AST of every module outside ``repro/sim`` and
flags any ``<expr>._queue``, ``<expr>._seq`` or ``<expr>._ready``
attribute read or write, except on bare ``self``: a class's own
counter or gate (``self._seq`` in the tracer, ``self._ready`` on the
SSD) is not an engine's.

Run directly (``python tools/check_engine_heap.py``) or via the test
suite (``tests/test_tooling.py``).  Exit status 0 = clean, 1 = violations.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator

DEFAULT_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Engine internals that only the kernel package may touch.
ENGINE_INTERNALS = frozenset({"_queue", "_seq", "_ready"})


def find_violations(root: Path) -> Iterator[str]:
    """Yield ``path:line: source`` for every engine-internal access."""
    for path in sorted(root.rglob("*.py")):
        if path.relative_to(root).parts[0] == "sim":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ENGINE_INTERNALS
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                line = lines[node.lineno - 1].strip()
                yield f"{path}:{node.lineno}: {line}"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root = Path(argv[0]) if argv else DEFAULT_ROOT
    violations = list(find_violations(root))
    if violations:
        print(
            "only repro.sim may touch an engine's _queue, _seq or _ready; "
            "push with engine.schedule(delay, handler, arg) or "
            "engine.call_soon(handler, arg):"
        )
        for violation in violations:
            print(f"  {violation}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
