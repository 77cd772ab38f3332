"""Self-tests of the benchmark's own arithmetic and checks.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import layers  # noqa: E402
import bench  # noqa: E402
import stats  # noqa: E402


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("n", [11, 72, 96, 128, 500])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # distinct, unsorted
    tail = stats.tail(values)
    assert sum(v > tail.value for v in values) == 10
    assert tail.beyond == 10 and tail.n == n
    assert tail.percentile == pytest.approx(100.0 * (n - 10) / n)
    # One rank higher would leave only nine samples beyond.
    assert tail.value == sorted(values)[n - 11]
    assert tail.mean == pytest.approx(sum(range(n - 10, n + 1)) / 11)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


# -- failure rate ------------------------------------------------------------


def test_failure_rate_arithmetic():
    assert stats.failure_rate(96, 0) == 0.0
    assert stats.failure_rate(288, 3) == 3 / 288
    assert stats.failure_rate(5, 5) == 1.0


@pytest.mark.parametrize("attempted, failed", [(0, 0), (3, 4), (3, -1)])
def test_failure_rate_rejects_impossible_counts(attempted, failed):
    with pytest.raises(ValueError):
        stats.failure_rate(attempted, failed)


def test_check_results_add_up():
    total = check.CheckResult()
    total.add(check.CheckResult(attempted=96, failed=1, messages=["a"]))
    total.add(check.CheckResult(attempted=96, failed=2, messages=["b", "c"]))
    assert (total.attempted, total.failed) == (192, 3)
    assert stats.failure_rate(total.attempted, total.failed) == 3 / 192


# -- reference clock ---------------------------------------------------------


def test_reference_clock_scales_cpu_by_the_calibrations_around_it(monkeypatch):
    import refclock

    cpu = iter([0.0, 1.0, 1.0, 4.0, 4.0, 6.0, 6.0])
    calibrations = iter([0.005, 0.010, 0.010])
    monkeypatch.setattr(refclock.time, "process_time", lambda: next(cpu))
    monkeypatch.setattr(refclock, "calibrate", lambda: next(calibrations))
    clock = refclock.ReferenceClock()
    first = clock()  # 1 s at the reference speed
    second = clock()  # 3 s next to calibrations of 5 and 10 ms
    third = clock()  # 2 s at half the reference speed
    assert first == pytest.approx(1.0)
    assert second - first == pytest.approx(3.0 * 0.005 / 0.0075)
    assert third - second == pytest.approx(1.0)


def test_calibration_leaves_the_garbage_collector_as_it_was():
    import gc

    import refclock

    assert gc.isenabled()
    assert refclock.calibrate() > 0.0
    assert gc.isenabled()


# -- layer map ---------------------------------------------------------------


def test_layer_map_is_total():
    modules = list(layers.repro_modules())
    assert len(modules) > 100
    for module in modules:
        assert layers.layer_of(module) in layers.LAYERS, module


def test_new_top_level_package_is_not_silently_absorbed():
    with pytest.raises(layers.UnmappedModuleError):
        layers.layer_of("repro.newlayer.engine")


def test_fastpath_is_its_own_layer():
    assert layers.layer_of("repro.sim.fastpath.splice") == "fastpath"
    assert layers.layer_of("repro.sim.engine") == "sim"
    assert layers.layer_of("repro") == "core"


def test_builtin_time_is_charged_to_the_calling_layer():
    src = layers.SRC_ROOT
    engine = (str(src / "repro/sim/engine.py"), 10, "run")
    rail = (str(src / "repro/power/rail.py"), 20, "set_draw")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    helper = ("/usr/lib/python3/somelib.py", 5, "helper")
    builtin_in_helper = ("~", 0, "<built-in method math.fsum>")
    orphan = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    table = {
        engine: (1, 1, 2.0, 9.0, {}),
        rail: (100, 100, 1.0, 4.0, {engine: (100, 100, 1.0, 4.0)}),
        heappush: (50, 50, 0.5, 0.5, {engine: (50, 50, 0.5, 0.5)}),
        helper: (
            10,
            10,
            1.0,
            3.0,
            {engine: (5, 5, 0.5, 1.0), rail: (5, 5, 0.5, 2.0)},
        ),
        builtin_in_helper: (10, 10, 2.0, 2.0, {helper: (10, 10, 2.0, 2.0)}),
        orphan: (1, 1, 0.1, 0.1, {}),
    }
    profile = layers.attribute(table)
    # helper's self time splits by edge self time (0.5 / 0.5); the builtin
    # it calls follows helper's owners by edge cumulative time (1 : 2).
    assert profile.self_s["sim"] == pytest.approx(2.0 + 0.5 + 0.5 + 2.0 / 3)
    assert profile.self_s["power"] == pytest.approx(1.0 + 0.5 + 4.0 / 3)
    assert profile.self_s[layers.OTHER] == pytest.approx(0.1)
    assert profile.calls == {"sim": 1, "power": 100}
    assert profile.total_s == pytest.approx(6.6)
    assert profile.coverage == pytest.approx(6.5 / 6.6)


# -- output check ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_result():
    from repro import ExperimentConfig, run_experiment
    from repro.iogen import IoPattern, JobSpec

    config = ExperimentConfig(
        device="ssd3",
        job=JobSpec(
            IoPattern.RANDREAD,
            block_size=4096,
            iodepth=4,
            runtime_s=0.01,
            size_limit_bytes=1 << 20,
        ),
        seed=3,
    )
    return run_experiment(config)


def test_untampered_result_passes(small_result):
    entry = check.reference_entry(small_result)
    assert check.check_point(small_result, entry) == ""


def test_one_ulp_of_power_is_rejected(small_result):
    entry = check.reference_entry(small_result)
    tampered = dataclasses.replace(
        small_result,
        true_mean_power_w=math.nextafter(small_result.true_mean_power_w, math.inf),
    )
    assert "differ from the exact reference" in check.check_point(tampered, entry)


def test_one_ulp_of_one_record_is_rejected(small_result):
    entry = check.reference_entry(small_result)
    records = list(small_result.job.records)
    first = records[0]
    records[0] = dataclasses.replace(
        first, complete_time=math.nextafter(first.complete_time, math.inf)
    )
    job = dataclasses.replace(small_result.job, records=tuple(records))
    tampered = dataclasses.replace(small_result, job=job)
    assert check.check_point(tampered, entry) != ""


def test_invariant_violation_is_rejected(small_result):
    entry = check.reference_entry(small_result)
    power = dataclasses.replace(small_result.power, mean_w=-1.0)
    tampered = dataclasses.replace(small_result, power=power)
    assert check.check_point(tampered, entry).startswith("invariant ")


def test_engaged_fastpath_is_held_to_its_tolerances(small_result):
    from repro.sim.fastpath import FastpathOptions
    from repro.sim.fastpath.options import FastpathSummary

    opts = FastpathOptions(mode="splice")
    spliced = dataclasses.replace(
        small_result,
        config=dataclasses.replace(small_result.config, fastpath=opts),
        fastpath=FastpathSummary(engaged=True, mode="splice"),
    )
    entry = check.reference_entry(small_result)
    # A different digest is fine for an engaged point: only the figures count.
    entry[0] = "0" * 16
    assert check.check_point(spliced, entry) == ""
    drifted = list(entry)
    drifted[2] = entry[2] * 1.12  # mean power, beyond its 5 % bound
    assert "mean power" in check.check_point(spliced, drifted)


def test_missing_experiment_fails_every_point(small_result):
    reference = {"points": [check.reference_entry(small_result)] * 2}
    result = check.check_outcomes([small_result], ["only"], reference)
    assert (result.attempted, result.failed) == (1, 1)


# -- the benchmark definition ------------------------------------------------


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_units()
