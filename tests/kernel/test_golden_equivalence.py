"""Bit-identity gate for the optimized simulation kernel.

``tools/golden_result.py`` replays the committed fixture grid (all four
catalog devices across read/write patterns) and flattens every
``ExperimentResult`` to a canonical form where floats are compared by
``float.hex()``.  Any kernel "optimization" that changes a single bit of any
result -- a reordered float sum, a skipped event, a shifted RNG draw --
fails here, not in a downstream study.

The same replay checks each run's lifetime: with the cyclic collector
off, every engine, device and policy runtime ``run_experiment`` builds
must be gone once it returns, freed by reference counting.
"""

import contextlib
import dataclasses
import gc
import sys
import weakref
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import golden_result  # noqa: E402


@contextlib.contextmanager
def collector_off():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class RunCensus:
    """Weak references to every engine, device and policy runtime that
    ``run_experiment`` builds while installed (see :meth:`install`)."""

    def __init__(self) -> None:
        self.refs: list = []
        self.runtimes = 0
        self.checked = 0

    def install(self, monkeypatch) -> None:
        import repro.core.experiment as experiment
        import repro.core.parallel as parallel
        import repro.policy.runtime as runtime

        census = self
        build_device = experiment.build_device

        def recording_build_device(engine, *args, **kwargs):
            device = build_device(engine, *args, **kwargs)
            census.refs += [weakref.ref(engine), weakref.ref(device)]
            return device

        class RecordedRuntime(runtime.PolicyRuntime):
            def __init__(self, *args, **kwargs) -> None:
                super().__init__(*args, **kwargs)
                census.refs.append(weakref.ref(self))
                census.runtimes += 1

        run_experiment = experiment.run_experiment

        def checked_run_experiment(*args, **kwargs):
            first = len(census.refs)
            result = run_experiment(*args, **kwargs)
            census.checked += 1
            alive = [ref() for ref in census.refs[first:] if ref() is not None]
            assert alive == [], f"{args[0].describe()}: {alive} outlived the run"
            return result

        monkeypatch.setattr(experiment, "build_device", recording_build_device)
        monkeypatch.setattr(runtime, "PolicyRuntime", RecordedRuntime)
        monkeypatch.setattr(experiment, "run_experiment", checked_run_experiment)
        monkeypatch.setattr(parallel, "run_experiment", checked_run_experiment)

    def alive(self) -> list:
        return [ref() for ref in self.refs if ref() is not None]


class TestGoldenEquivalence:
    def test_all_fixtures_bit_identical(self, monkeypatch):
        """Every committed golden fixture must replay bit-identically,
        and every run the replay makes (the fleet's in-process points
        and their policy runtimes included) frees its simulation as it
        returns, without the cyclic collector."""
        census = RunCensus()
        census.install(monkeypatch)
        with collector_off():
            assert golden_result.main([]) == 0
        assert census.checked >= len(golden_result.golden_names())
        assert census.runtimes > 0
        assert census.alive() == []

    def test_fixture_set_is_nonempty(self):
        """An empty fixture directory must never silently pass the gate."""
        fixtures = sorted(golden_result.GOLDEN_DIR.glob("*.json"))
        assert len(fixtures) >= 21

    def test_covers_every_catalog_device(self):
        """The grid must exercise each catalog device class at least once."""
        names = {p.stem.split("_")[0] for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert {"ssd1", "ssd2", "ssd3", "hdd"} <= names

    def test_covers_policy_runtime_and_fleet(self):
        """The composite paths -- online policy decisions and the fleet
        epoch loop -- must be pinned alongside the single-device grid."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert "ssd2_policy_feedback" in stems
        assert "ssd2_policy_ladder" in stems
        assert "fleet_tiny" in stems

    def test_covers_the_cold_paths(self):
        """Handlers reach GC, APST (its wake under stuck transitions
        too), housekeeping, faults, the ALPM wake and tracing through
        the inline driver, and GC relocations reach stalled admissions,
        pulsed programs and fault delays; each is pinned by a run that
        actually gets there."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert {
            "tiny_gc_randwrite",
            "tiny_gc_faults_ps2",
            "tiny_apst_randwrite",
            "tiny_apst_stuck",
            "ssd2_maintenance_ps1",
            "ssd2_randwrite_4k_qd64_ps2",
            "ssd2_faults_randwrite",
            "ssd2_faults_randread",
            "ssd3_alpm_slumber",
            "ssd2_traced_ps2",
        } <= stems

    def test_covers_the_hdd_cold_paths(self):
        """The HDD's handler path reaches write-through media writes,
        writers parked on a full cache, IO-path faults, the sequential
        continuation pick and EPC recovery; tracing is pinned too."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert {
            "hdd_write_through",
            "hdd_cache_full",
            "hdd_faults_randread",
            "hdd_faults_randwrite",
            "hdd_seqread_4k_qd64",
            "hdd_ladder_epc",
            "hdd_traced",
        } <= stems

    def test_every_named_case_has_a_fixture(self):
        """golden_names() and the committed fixture set must agree, so a
        new case cannot be added to the tool without committing its
        fixture (and vice versa)."""
        stems = {p.stem for p in golden_result.GOLDEN_DIR.glob("*.json")}
        assert stems == set(golden_result.golden_names())


class TestRunLifetime:
    def test_a_run_that_raises_frees_its_simulation(self, monkeypatch):
        """ssd3 publishes no NVMe power states: the run raises after its
        engine and device are built, and frees both with the error."""
        from repro.core.experiment import run_experiment

        census = RunCensus()
        census.install(monkeypatch)
        config = dataclasses.replace(
            golden_result.golden_configs()["ssd3_randwrite"], power_state=1
        )
        message = ""
        with collector_off():
            try:
                run_experiment(config)
            except ValueError as exc:
                message = str(exc)
            assert "does not support NVMe power states" in message
            assert len(census.refs) == 2
            assert census.alive() == []

    def test_traced_gc_runs_do_not_depend_on_the_collector(self):
        """A GC still in flight when its run ends emits its GC_END when
        the run closes, in the run's own scope: one tracer over several
        points records the same stream whether or not the cyclic
        collector runs between them."""
        from repro.core.experiment import run_experiment
        from repro.obs.events import EventKind, Tracer

        configs = golden_result.golden_configs()

        def traced_stream(collect: bool) -> tuple:
            tracer = Tracer()
            with contextlib.ExitStack() as stack:
                if not collect:
                    stack.enter_context(collector_off())
                for name in ("tiny_gc_faults_ps2", "tiny_gc_randwrite"):
                    for seed in range(3):
                        config = dataclasses.replace(configs[name], seed=seed)
                        run_experiment(config, tracer=tracer)
                        if collect:
                            gc.collect()
            return tracer.events

        collected = traced_stream(collect=True)
        assert traced_stream(collect=False) == collected
        # Each point's segment starts at the MARK its scope change emits;
        # every block a GC started is ended within it.
        points = 0
        open_blocks: list = []
        for event in collected:
            if event.kind is EventKind.MARK:
                assert open_blocks == []
                points += 1
                scope = event.scope
            elif event.kind is EventKind.GC_START:
                open_blocks.append(event.fields["block"])
            elif event.kind is EventKind.GC_END:
                assert event.scope == scope
                open_blocks.remove(event.fields["block"])
        assert open_blocks == []
        assert points == 6
        starts = sum(e.kind is EventKind.GC_START for e in collected)
        assert starts > 100
