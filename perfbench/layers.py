"""Attribute profiled host time to the repro packages (layers).

The traced pass runs one workload call under the stdlib ``cProfile`` and
folds the resulting ``pstats`` table into per-layer numbers:

- every ``repro`` module belongs to exactly one layer (:func:`layer_of`);
  a module under an unknown top-level package raises instead of landing
  silently in a catch-all bucket;
- time spent in code outside ``repro`` -- C builtins, the stdlib, numpy --
  is charged to the layer that called it, following the profile's caller
  edges (through chains of non-repro callers, in proportion to the time
  each caller edge carries);
- boundary timings (:data:`BOUNDARIES`) are the cumulative time and call
  count of named public functions, read from the same table.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Tuple

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

#: The layers the benchmark reports, in report order.
LAYERS = (
    "sim",
    "fastpath",
    "devices",
    "nand",
    "ftl",
    "hdd",
    "power",
    "iogen",
    "sata",
    "nvme",
    "policy",
    "fleet",
    "faults",
    "validate",
    "obs",
    "core",
)

#: Bucket for time no repro frame is on the stack for (the profiler's own
#: enable/disable calls, the benchmark's glue).
OTHER = "other"

#: Top-level names under ``repro`` and their layer.  ``sim.fastpath`` is
#: split out of ``sim`` by :func:`layer_of`.  The facade, CLI, units and
#: figure drivers orchestrate the core and are charged to it.
_TOP_LEVEL = {
    "sim": "sim",
    "devices": "devices",
    "nand": "nand",
    "ftl": "ftl",
    "hdd": "hdd",
    "power": "power",
    "iogen": "iogen",
    "sata": "sata",
    "nvme": "nvme",
    "policy": "policy",
    "fleet": "fleet",
    "faults": "faults",
    "validate": "validate",
    "obs": "obs",
    "core": "core",
    "studies": "core",
    "api": "core",
    "cli": "core",
    "_units": "core",
    "__main__": "core",
}


class UnmappedModuleError(KeyError):
    """A repro module that no layer claims."""


def layer_of(module: str) -> str:
    """The layer a dotted ``repro`` module name belongs to."""
    parts = module.split(".")
    if parts[0] != "repro":
        raise ValueError(f"{module!r} is not a repro module")
    if len(parts) == 1:
        return "core"
    if parts[1:3] == ["sim", "fastpath"]:
        return "fastpath"
    try:
        return _TOP_LEVEL[parts[1]]
    except KeyError:
        raise UnmappedModuleError(
            f"module {module!r} belongs to no benchmark layer; add its "
            "top-level package to perfbench/layers.py"
        ) from None


def module_of(filename: str, src_root: Path = SRC_ROOT) -> Optional[str]:
    """Dotted module name of a source file under ``src/repro``, else None."""
    if not filename.endswith(".py"):
        return None
    try:
        rel = Path(filename).resolve().relative_to(src_root)
    except ValueError:
        return None
    parts = list(rel.with_suffix("").parts)
    if not parts or parts[0] != "repro":
        return None
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def repro_modules(src_root: Path = SRC_ROOT) -> Iterable[str]:
    """Every module of the repro package on disk."""
    for path in sorted((src_root / "repro").rglob("*.py")):
        module = module_of(str(path), src_root)
        if module is not None:
            yield module


# -- profile attribution ----------------------------------------------------

FuncKey = Tuple[str, int, str]


@dataclass(frozen=True)
class LayerProfile:
    """Per-layer self time and call counts from one profiled call.

    Attributes:
        self_s: Self seconds per layer (plus :data:`OTHER`), builtins and
            non-repro Python charged to their calling layer.
        calls: Calls to each layer's own Python functions.
        total_s: All profiled self time.
    """

    self_s: Dict[str, float]
    calls: Dict[str, int]
    total_s: float

    @property
    def coverage(self) -> float:
        """Share of profiled time attributed to a named layer."""
        if self.total_s <= 0:
            return 0.0
        named = sum(self.self_s.get(layer, 0.0) for layer in LAYERS)
        return named / self.total_s


def attribute(stats: dict, src_root: Path = SRC_ROOT) -> LayerProfile:
    """Fold a ``pstats.Stats(...).stats`` table into layers.

    ``stats`` maps ``(filename, line, name)`` to ``(primitive calls,
    calls, self time, cumulative time, callers)``, where ``callers`` maps
    each calling function to the same 4-tuple restricted to that edge.
    """
    layers: Dict[FuncKey, Optional[str]] = {}

    def own_layer(func: FuncKey) -> Optional[str]:
        if func not in layers:
            module = module_of(func[0], src_root)
            layers[func] = layer_of(module) if module is not None else None
        return layers[func]

    owners: Dict[FuncKey, Dict[str, float]] = {}
    resolving: set = set()

    def owner(func: FuncKey) -> Dict[str, float]:
        """Layer shares of one function's time: its own layer for repro
        code, else its callers' owners weighted by the time each caller
        edge carries."""
        layer = own_layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        if func in resolving or func not in stats:
            return {OTHER: 1.0}
        resolving.add(func)
        shares = _fold(stats[func][4], index=3, resolve=owner)
        resolving.discard(func)
        owners[func] = shares
        return shares

    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    total = 0.0
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        total += tottime
        layer = own_layer(func)
        if layer is not None:
            self_s[layer] = self_s.get(layer, 0.0) + tottime
            calls[layer] = calls.get(layer, 0) + ncalls
            continue
        for name, share in _fold(callers, index=2, resolve=owner).items():
            self_s[name] = self_s.get(name, 0.0) + tottime * share
    return LayerProfile(self_s=self_s, calls=calls, total_s=total)


def _fold(callers: dict, index: int, resolve) -> Dict[str, float]:
    """Combine caller owners, weighted by field ``index`` of each edge
    (2 = self time, 3 = cumulative time; call counts when all are 0)."""
    if not callers:
        return {OTHER: 1.0}
    weights = {c: edge[index] for c, edge in callers.items()}
    if sum(weights.values()) <= 0:
        weights = {c: edge[1] for c, edge in callers.items()}
    total = sum(weights.values())
    if total <= 0:
        return {OTHER: 1.0}
    shares: Dict[str, float] = {}
    for caller, weight in weights.items():
        for name, share in resolve(caller).items():
            shares[name] = shares.get(name, 0.0) + share * weight / total
    return shares


# -- boundary timings -------------------------------------------------------

#: Public functions timed at layer boundaries: metric -> (module, dotted
#: attribute) pairs whose cumulative seconds (or, for :data:`COUNTED`
#: metrics, calls) add up.
BOUNDARIES = {
    "core.build_device_s": (("repro.devices.catalog", "build_device"),),
    "power.meter_s": (
        ("repro.power.meter", "PowerMeter.measure"),
        ("repro.power.analysis", "summarize_samples"),
    ),
    "iogen.result_s": (("repro.iogen.engine", "FioJob.result"),),
    "fleet.governor_s": (("repro.fleet.governor", "ClusterGovernor.allocate"),),
    "validate.check_s": (("repro.validate.checkers", "check_result"),),
    "power.rail_edges": (
        ("repro.power.rail", "PowerRail.set_draw"),
        ("repro.power.rail", "PowerRail.add_draw"),
    ),
}


COUNTED = frozenset({"power.rail_edges"})


def code_key(module: str, attr: str) -> Optional[FuncKey]:
    """The pstats key of a function, or None when it no longer exists."""
    try:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        code = obj.__code__
    except (ImportError, AttributeError):
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def boundaries(stats: dict) -> Tuple[Dict[str, float], list]:
    """Boundary metrics from a pstats table, plus names that vanished.

    A function renamed or removed by a later change reads as 0 and is
    listed, rather than failing the run: these metrics carry no bound.
    """
    values: Dict[str, float] = {}
    missing = []
    for metric, targets in BOUNDARIES.items():
        # Row field 1 is the call count, field 3 the cumulative seconds.
        field = 1 if metric in COUNTED else 3
        total = 0
        for module, attr in targets:
            key = code_key(module, attr)
            if key is None:
                missing.append(f"{module}.{attr}")
                continue
            row = stats.get(key)
            if row is not None:
                total += row[field]
        values[metric] = total
    return values, missing


#: Builtins whose cumulative time is pickling or unpickling.
PICKLE_FUNCS = frozenset(
    {
        "<built-in method _pickle.loads>",
        "<built-in method _pickle.dumps>",
        "<method 'dump' of '_pickle.Pickler' objects>",
        "<method 'load' of '_pickle.Unpickler' objects>",
    }
)


def pickle_seconds(stats: dict) -> float:
    """Cumulative seconds inside the pickle module's C entry points."""
    return sum(
        row[3] for (_, _, name), row in stats.items() if name in PICKLE_FUNCS
    )
