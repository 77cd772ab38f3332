#!/usr/bin/env python
"""Lint: private state that only its own package may touch.

Each row of :data:`OWNERS` maps a package under ``repro`` to the private
attribute names that only modules inside it may read or write:

- ``sim``: an engine's heap (``_queue``, tie-broken by ``_seq``) and its
  FIFO of entries due now (``_ready``).  Pop order is ``(time, seq)``
  only because every push goes through ``Engine.schedule`` or
  ``Engine.call_soon``, which route an entry due at the current instant
  to the FIFO; an inline ``heappush`` onto ``engine._queue`` at ``now``
  would land on the heap behind the FIFO's back and pop after entries
  pushed later.  Also the registries ``Engine.close`` ends a run with:
  the suspended generators (``_suspended``, filled by processes and the
  inline driver) and the waiter queues (``_waiter_queues``), which a
  component outside the kernel joins only through
  ``Engine.register_waiters``.
- ``nand``: a die's server and pulse profile and a channel's bus.  Page
  operations are sequenced in one place, the array's handler-form
  ``read_call``, ``program_call`` and ``erase_call``; a device that holds
  a die or a bus itself runs a second, divergent copy of that sequence.

This check walks the AST of every module outside a row's package and
flags any ``<expr>.<name>`` attribute access for that row's names,
except on bare ``self``: a class's own counter, gate or bus
(``self._seq`` in the tracer, ``self._ready`` on the SSD, ``self._bus``
on the host link) is not the owner's.

Run directly (``python tools/check_engine_heap.py``) or via the test
suite (``tests/test_tooling.py``).  Exit status 0 = clean, 1 = violations.
"""

from __future__ import annotations

import ast
import sys
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Iterator

DEFAULT_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Package -> (attribute name patterns only it may touch, what to use
#: instead).
OWNERS = {
    "sim": (
        ("_queue", "_seq", "_ready", "_suspended", "_waiter_queues"),
        "push with engine.schedule(delay, handler, arg) or "
        "engine.call_soon(handler, arg); register a waiter queue with "
        "engine.register_waiters(queue)",
    ),
    "nand": (
        ("_server", "_bus", "_op_draw", "_op_duration", "_pulsed_programs", "_prog_*"),
        "run page operations with NandArray.read_call, program_call or "
        "erase_call",
    ),
}


def _owner_of(attr: str, package: str) -> str | None:
    """The package owning ``attr`` if it is not ``package``, else None."""
    for owner, (patterns, _hint) in OWNERS.items():
        if owner != package and any(fnmatchcase(attr, p) for p in patterns):
            return owner
    return None


def find_violations(root: Path) -> Iterator[str]:
    """Yield ``path:line: source`` plus the broken rule for every access
    to another package's private state."""
    for path in sorted(root.rglob("*.py")):
        package = path.relative_to(root).parts[0]
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute) or (
                isinstance(node.value, ast.Name) and node.value.id == "self"
            ):
                continue
            owner = _owner_of(node.attr, package)
            if owner is not None:
                line = lines[node.lineno - 1].strip()
                yield (
                    f"{path}:{node.lineno}: {line}\n"
                    f"      only repro.{owner} may touch {node.attr}; "
                    f"{OWNERS[owner][1]}"
                )


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    root = Path(argv[0]) if argv else DEFAULT_ROOT
    violations = list(find_violations(root))
    if violations:
        print("private state touched outside its package:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
