"""Per-figure reproduction drivers and the one list of the paper record.

One module per table/figure of the paper's evaluation.  Each exposes
``run(...)``, returning a plain dataclass of the figure's series, and
``render(result)``, returning the rows the paper plots.  ``run`` declares
whichever of ``scale`` (a :class:`~repro.studies.common.StudyScale`:
``DEFAULT`` for the record, ``QUICK`` for CI-speed tests) and
``n_workers`` it uses; :func:`reproduce` passes it only those.

:data:`FIGURES` drives both ``repro figure`` and
``tools/generate_experiments_md.py``.  This package imports no study
module itself: :func:`reproduce` imports one when it is called.
"""

import importlib
import inspect

from repro.studies.common import DEFAULT, QUICK, StudyScale

__all__ = ["DEFAULT", "FIGURES", "QUICK", "StudyScale", "reproduce"]

#: Study module name -> its EXPERIMENTS.md section title, in record order.
FIGURES: dict[str, str] = {
    "table1": "Table 1 -- evaluated devices and measured power ranges",
    "fig2": "Figure 2 -- millisecond-scale power measurement",
    "fig3": "Figure 3 -- SSD2 random-write power under power states",
    "fig4": "Figure 4 -- SSD2 throughput under power states",
    "fig5": "Figure 5 -- SSD2 random-write latency under power states (QD1)",
    "fig6": "Figure 6 -- SSD2 random-read latency under power states (QD1)",
    "fig7": "Figure 7 -- 860 EVO standby transitions",
    "fig8": "Figure 8 -- random-write power/throughput vs chunk size",
    "fig9": "Figure 9 -- random-read power/throughput vs queue depth",
    "fig10": "Figure 10 -- the power-throughput model",
    "claims": "Headline claims (sections 1-3)",
    "proportionality": (
        "Extension: power proportionality vs adaptivity (footnote 1)"
    ),
}


def reproduce(
    name: str, scale: StudyScale = DEFAULT, n_workers: int | None = 1
) -> str:
    """Run the study ``name`` of :data:`FIGURES` and render its rows.

    ``n_workers`` (``None`` = every core) reaches only sweep-backed
    studies; their results do not depend on it.
    """
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; choose from {list(FIGURES)}")
    module = importlib.import_module(f"repro.studies.{name}")
    offered = {"scale": scale, "n_workers": n_workers}
    params = inspect.signature(module.run).parameters
    kwargs = {key: value for key, value in offered.items() if key in params}
    return module.render(module.run(**kwargs))
