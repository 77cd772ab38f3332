"""Structural tests for the figure drivers and their registry.

The heavyweight shape assertions live in tests/test_reproduction.py; these
check that each driver produces complete, well-formed series and that the
renderers emit the paper's rows -- cheaply, via the QUICK scale and the
smallest grids.
"""

import functools
import gc
import importlib.util
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.core.tiering import WriteAbsorptionScenario
from repro.iogen.spec import IoPattern, PAPER_CHUNK_SIZES, PAPER_QUEUE_DEPTHS
from repro.sim.engine import Engine
from repro.studies import (
    FIGURES,
    claims,
    fig3,
    fig6,
    fig7,
    proportionality,
    reproduce,
    table1,
)
from repro.studies.common import QUICK
from repro.studies.demand_response import run_demand_response

pytestmark = pytest.mark.integration

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: The studies that build and drive engines of their own, as calls.
SELF_DRIVEN = {
    "claims": lambda: claims.run(QUICK),
    "demand_response": lambda: run_demand_response(duration_s=0.1),
    "fig7": fig7.run,
    "proportionality": lambda: proportionality.run(QUICK),
    "table1": lambda: table1.run(QUICK),
    "tiering": lambda: WriteAbsorptionScenario(burst_bytes=1 << 20).compare(),
}


def _engine_census(run):
    """``run()``'s value, how many engines it built, and how many of
    them are still alive once it returns, with the cyclic collector off
    (and restored afterwards), so only reference counting frees them."""
    engines = []
    init = Engine.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(weakref.ref(self))

    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    Engine.__init__ = tracked
    try:
        value = run()
        alive = sum(ref() is not None for ref in engines)
    finally:
        Engine.__init__ = init
        if enabled:
            gc.enable()
    return value, len(engines), alive


@pytest.fixture(scope="module")
def census():
    """Each self-driven study, run once per module under the engine
    census: ``census(name)`` is its ``(value, built, alive)``."""
    return functools.lru_cache(maxsize=None)(
        lambda name: _engine_census(SELF_DRIVEN[name])
    )


def _run_bare():
    return ()


def _run_scaled(scale):
    return (scale,)


def _run_pooled(scale, n_workers):
    return (scale, n_workers)


class TestRegistry:
    @pytest.mark.parametrize(
        "run, expected",
        [
            (_run_bare, ()),
            (_run_scaled, (QUICK,)),
            (_run_pooled, (QUICK, 3)),
        ],
    )
    def test_reproduce_passes_only_what_run_declares(self, monkeypatch, run, expected):
        monkeypatch.setattr(fig6, "run", run)
        monkeypatch.setattr(fig6, "render", repr)
        assert reproduce("fig6", QUICK, n_workers=3) == repr(expected)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="fig99"):
            reproduce("fig99")

    def test_every_entry_is_a_study_module(self):
        for name in FIGURES:
            assert importlib.util.find_spec(f"repro.studies.{name}") is not None

    def test_importing_the_cli_loads_only_the_facade_studies(self):
        """The registry imports a study only when it is asked to run."""
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli; print(' '.join(sorted("
                "m for m in sys.modules if m.startswith('repro.studies'))))",
            ],
            capture_output=True,
            text=True,
            env={
                "PYTHONPATH": SRC,
                "PATH": "/usr/bin:/bin",
                "PYTHONDONTWRITEBYTECODE": "1",
            },
        )
        assert proc.returncode == 0, proc.stderr
        # The facade (repro.api) re-exports run_demand_response and
        # fig10's build_model; every other study stays unloaded.
        assert proc.stdout.split() == [
            "repro.studies",
            "repro.studies.common",
            "repro.studies.demand_response",
            "repro.studies.fig10",
        ]


class TestTable1Structure:
    @pytest.fixture(scope="class")
    def rows(self, census):
        return census("table1")[0]

    def test_covers_all_devices(self, rows):
        assert [r.label for r in rows] == ["ssd1", "ssd2", "ssd3", "hdd"]

    def test_ranges_ordered(self, rows):
        for row in rows:
            assert row.measured_min_w < row.measured_max_w

    def test_render_contains_models(self, rows):
        text = table1.render(rows)
        for model in ("PM9A3", "D7-P5510", "D3-S4510", "Exos"):
            assert model in text


class TestFig3Structure:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3.run(QUICK)

    def test_full_grid(self, result):
        assert result.chunk_sizes == PAPER_CHUNK_SIZES
        assert set(result.power_w) == {
            (qd, ps) for qd in (64, 1) for ps in (0, 1, 2)
        }

    def test_qd1_small_chunks_state_insensitive(self, result):
        """At QD1 and small chunks the device never hits any cap."""
        for ps in (1, 2):
            assert result.power_w[(1, ps)][0] == pytest.approx(
                result.power_w[(1, 0)][0], rel=0.05
            )

    def test_caps_hold_at_qd64(self, result):
        """The 12 W and 10 W caps hold, within the meter's noise."""
        assert max(result.power_w[(64, 1)]) <= 12.0 + 0.15
        assert max(result.power_w[(64, 2)]) <= 10.0 + 0.15

    def test_render(self, result):
        text = fig3.render(result)
        assert "Figure 3a" in text and "Figure 3b" in text


class TestFig8Fig9Structure:
    """Reads the session's ``fig8_quick`` / ``fig9_quick`` (conftest)."""

    def test_fig8_series_complete(self, fig8_quick):
        result = fig8_quick
        for device in ("ssd1", "ssd2", "ssd3", "hdd"):
            assert len(result.power_w[device]) == len(PAPER_CHUNK_SIZES)
            assert len(result.throughput_mib[device]) == len(PAPER_CHUNK_SIZES)

    def test_fig8_throughput_rises_with_chunk(self, fig8_quick):
        result = fig8_quick
        for device in ("ssd2", "hdd"):
            series = result.throughput_mib[device]
            assert series[-1] > series[0]

    def test_fig9_series_complete(self, fig9_quick):
        result = fig9_quick
        assert result.iodepths == PAPER_QUEUE_DEPTHS
        for device in ("ssd1", "ssd2", "ssd3", "hdd"):
            assert len(result.power_w[device]) == len(PAPER_QUEUE_DEPTHS)

    def test_fig9_throughput_rises_with_depth(self, fig9_quick):
        result = fig9_quick
        for device in ("ssd1", "ssd2", "ssd3", "hdd"):
            series = result.throughput_mib[device]
            assert series[-1] >= series[0]


class TestClaims:
    def test_all_claims_hold_at_quick_scale(self, census):
        results = census("claims")[0]
        assert [c.claim_id for c in results] == [
            "C1", "C2", "C3", "C4", "C5", "C6", "C7",
        ]
        failing = [c.claim_id for c in results if not c.holds]
        assert not failing, claims.render(results)

    def test_model_sweeps_get_the_worker_count(self, monkeypatch):
        """``reproduce`` hands ``n_workers`` to ``claims.run``, which
        forwards it to both Fig. 10 model sweeps."""
        from repro.core.model import ModelPoint, PowerThroughputModel
        from repro.core.sweep import SweepPoint
        from repro.studies import fig10

        swept = []

        def build_model(device, scale, n_workers=1):
            swept.append((device, n_workers))
            point = SweepPoint(IoPattern.RANDWRITE, 4096, 1, None)
            return PowerThroughputModel(
                device,
                [
                    ModelPoint(point, 4.0, 4e6, 1e-3, 1e-3),
                    ModelPoint(point, 10.0, 100e6, 1e-3, 1e-3),
                ],
            )

        stub = claims.Claim("C0", "stub", "-", "-", True)
        monkeypatch.setattr(fig10, "build_model", build_model)
        monkeypatch.setattr(claims, "_meter_error_claim", lambda: stub)
        monkeypatch.setattr(claims, "_hdd_standby_claim", lambda: (stub, stub))
        monkeypatch.setattr(claims, "_evo_claim", lambda: stub)
        monkeypatch.setattr(claims, "_pm1743_claim", lambda scale: stub)
        rendered = reproduce("claims", QUICK, n_workers=3)
        assert swept == [("ssd2", 3), ("hdd", 3)]
        assert "60.0%" in rendered and "4.0%" in rendered



class TestStudiesEndTheirSimulations:
    """A study that builds its own engine closes it, with its devices
    and policy runtimes, once its numbers are read, as ``run_experiment``
    does: with the cyclic collector off, reference counting alone frees
    every engine the study built."""

    @pytest.mark.parametrize("name", sorted(SELF_DRIVEN))
    def test_no_engine_outlives_the_study(self, census, name):
        _value, built, alive = census(name)
        assert built, f"{name} built no engine"
        assert alive == 0, f"{alive} of {built} engines outlived {name}"
