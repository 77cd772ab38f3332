"""The repo's lint checks, run as part of the test suite."""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_coverage  # noqa: E402
import check_engine_heap  # noqa: E402
import check_fault_rng  # noqa: E402
import check_ledger_writers  # noqa: E402
import check_no_bare_except  # noqa: E402
import check_no_bare_hash  # noqa: E402
import check_no_print  # noqa: E402
import check_obs_guards  # noqa: E402
import check_test_quality  # noqa: E402
import check_tolerances  # noqa: E402


class TestNoBareHashLint:
    def test_src_repro_is_clean(self):
        """Builtin ``hash()`` is banned in src/repro: it is randomized per
        process and once made sweep seeds irreproducible."""
        assert check_no_bare_hash.main([]) == 0

    def test_detects_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("salt = hash((a, b))\n")
        assert check_no_bare_hash.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:1" in out

    def test_ignores_legitimate_uses(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "import hashlib\n"
            "digest = hashlib.blake2b(b'x').hexdigest()\n"
            "key = config_content_hash(config)\n"
            "h = obj.__hash__()\n"
            "# a comment mentioning hash( is fine\n"
        )
        assert check_no_bare_hash.main([str(tmp_path)]) == 0


class TestNoBareExceptLint:
    def test_src_repro_is_clean(self):
        """Bare ``except:`` and ``except Exception: pass`` are banned in
        src/repro: a resilience layer must never swallow errors silently."""
        assert check_no_bare_except.main([]) == 0

    def test_detects_bare_except(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    risky()\nexcept:\n    handle()\n"
        )
        assert check_no_bare_except.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:3" in out
        assert "bare 'except:'" in out

    def test_detects_swallowed_exception(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    risky()\nexcept Exception:\n    pass\n"
        )
        assert check_no_bare_except.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "swallows" in out

    def test_detects_swallowed_tuple_and_ellipsis(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "try:\n    risky()\nexcept (ValueError, BaseException):\n    ...\n"
        )
        assert check_no_bare_except.main([str(tmp_path)]) == 1

    def test_allows_handled_and_narrow(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "try:\n"
            "    risky()\n"
            "except Exception as exc:\n"
            "    record(exc)\n"
            "try:\n"
            "    cleanup()\n"
            "except OSError:\n"
            "    pass\n"
        )
        assert check_no_bare_except.main([str(tmp_path)]) == 0


class TestNoPrintLint:
    def test_src_repro_is_clean(self):
        """Library code must not write to stdout: output belongs to return
        values and the repro.obs layer, stdout to the CLI alone."""
        assert check_no_print.main([]) == 0

    def test_detects_violation(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f():\n    print('debugging')\n")
        assert check_no_print.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out

    def test_cli_module_exempt(self, tmp_path):
        cli = tmp_path / "cli.py"
        cli.write_text("print('the CLI is the stdout boundary')\n")
        assert check_no_print.main([str(tmp_path)]) == 0

    def test_main_guard_exempt(self, tmp_path):
        study = tmp_path / "study.py"
        study.write_text(
            "def run():\n"
            "    return 42\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    print(run())\n"
        )
        assert check_no_print.main([str(tmp_path)]) == 0

    def test_strings_and_methods_ignored(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "doc = 'call print(x) to show it'\n"
            "logger.print('not the builtin')\n"
            "# print('commented out')\n"
        )
        assert check_no_print.main([str(tmp_path)]) == 0


class TestObsGuardsLint:
    def test_src_repro_is_clean(self):
        """Every tracer emission must sit behind an ``enabled`` check (or
        carry an explicit ``# obs-guard:`` justification): the zero-cost-
        when-off promise dies one unguarded hot-loop emit at a time."""
        assert check_obs_guards.main([]) == 0

    def test_detects_unguarded_emit(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def step(tracer):\n"
            "    tracer.emit(KIND, 'component', nbytes=4096)\n"
        )
        assert check_obs_guards.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out
        assert "unguarded" in out

    def test_accepts_if_enabled_guard(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def step(tracer):\n"
            "    if tracer.enabled:\n"
            "        tracer.emit(KIND, 'component')\n"
        )
        assert check_obs_guards.main([str(tmp_path)]) == 0

    def test_accepts_early_return_guard(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def trace_transition(tracer, state):\n"
            "    if not tracer.enabled or state is None:\n"
            "        return\n"
            "    extra = compute(state)\n"
            "    tracer.emit(KIND, 'component', extra=extra)\n"
        )
        assert check_obs_guards.main([str(tmp_path)]) == 0

    def test_guard_does_not_leak_into_nested_function(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def outer(tracer):\n"
            "    if not tracer.enabled:\n"
            "        return\n"
            "    def callback():\n"
            "        tracer.emit(KIND, 'component')\n"
            "    return callback\n"
        )
        assert check_obs_guards.main([str(tmp_path)]) == 1

    def test_pragma_opts_out_with_reason(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def cold_path(tracer):\n"
            "    # obs-guard: callers hand in NULL_TRACER when off\n"
            "    tracer.emit(KIND, 'component')\n"
        )
        assert check_obs_guards.main([str(tmp_path)]) == 0

    def test_obs_package_is_exempt(self, tmp_path):
        obs = tmp_path / "obs"
        obs.mkdir()
        (obs / "events.py").write_text(
            "def set_scope(self, scope):\n"
            "    self.emit(KIND, 'tracer', scope=scope)\n"
        )
        assert check_obs_guards.main([str(tmp_path)]) == 0


class TestEngineHeapLint:
    def test_src_repro_is_clean(self):
        """Outside repro.sim, entries go through Engine.schedule and
        Engine.call_soon: an inline push at ``now`` would land on the heap
        behind the FIFO of entries due now and pop out of order."""
        assert check_engine_heap.main([]) == 0

    def _seed_tree(self, root: Path) -> None:
        """A tree holding the legal uses: the kernel itself (its heap and
        its close registries), the NAND array's page operations, and
        classes' own ``self._seq`` counters, ``self._ready`` gates and
        ``self._bus`` links."""
        sim = root / "sim"
        sim.mkdir()
        (sim / "engine.py").write_text(
            "def schedule(self, when, handler, arg):\n"
            "    self._seq += 1\n"
            "    heappush(self._queue, (when, self._seq, handler, arg))\n"
            "def drain(engine):\n"
            "    while engine._ready or engine._queue:\n"
            "        engine.step()\n"
        )
        (sim / "process.py").write_text(
            "def start(engine, process):\n"
            "    engine._suspended[process] = None\n"
        )
        obs = root / "obs"
        obs.mkdir()
        (obs / "events.py").write_text(
            "class Tracer:\n"
            "    def emit(self):\n"
            "        self._seq = self._seq + 1\n"
        )
        (root / "ssd.py").write_text(
            "class Ssd:\n"
            "    def wake(self):\n"
            "        self._ready.open()\n"
            "        self.engine.call_soon(self._on_wake, None)\n"
        )
        nand = root / "nand"
        nand.mkdir()
        (nand / "die.py").write_text(
            "class NandArray:\n"
            "    def _on_program_die(self, op):\n"
            "        op.channel._bus.request_call(self._on_program_bus, op)\n"
            "    def _on_program_admitted(self, op):\n"
            "        span = op.die._prog_span\n"
            "        op.die._server.release()\n"
        )
        (root / "link.py").write_text(
            "class HostLink:\n"
            "    def _streamed(self, xfer):\n"
            "        self._bus.release()\n"
        )

    def test_seeded_tree_of_legal_uses_is_clean(self, tmp_path):
        self._seed_tree(tmp_path)
        assert check_engine_heap.main([str(tmp_path)]) == 0

    def test_detects_inline_push_outside_sim(self, tmp_path, capsys):
        self._seed_tree(tmp_path)
        devices = tmp_path / "devices"
        devices.mkdir()
        (devices / "bad.py").write_text(
            "def submit(self, handler, arg):\n"
            "    engine = self.engine\n"
            "    engine._seq += 1\n"
            "    heappush(engine._queue, (engine._now, engine._seq, handler, arg))\n"
        )
        assert check_engine_heap.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:3" in out and "bad.py:4" in out
        assert "engine.py" not in out and "events.py" not in out

    def test_detects_nand_state_outside_nand(self, tmp_path, capsys):
        """A device holding a die or a bus itself runs its own copy of
        the array's page-operation sequence."""
        self._seed_tree(tmp_path)
        devices = tmp_path / "devices"
        devices.mkdir()
        (devices / "bad.py").write_text(
            "def program(self, die, channel, prog):\n"
            "    die._server.request_call(self._on_die, prog)\n"
            "    channel._bus.release()\n"
            "    power = die._prog_p_rest\n"
            "    watts = self.array._op_draw\n"
            "    pulsed = die._pulsed_programs\n"
            "    duration = die._op_duration\n"
        )
        assert check_engine_heap.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        for line in range(2, 8):
            assert f"bad.py:{line}:" in out
        assert "only repro.nand may touch _prog_p_rest" in out
        assert "die.py" not in out and "link.py" not in out

    def test_detects_the_close_registries_outside_sim(self, tmp_path, capsys):
        """Only the kernel files generators and waiter queues for
        Engine.close; a device joins through engine.register_waiters."""
        self._seed_tree(tmp_path)
        (tmp_path / "governor.py").write_text(
            "class Governor:\n"
            "    def __init__(self, engine):\n"
            "        engine.register_waiters(self._waiters)\n"
            "    def bad(self, engine, gen):\n"
            "        engine._waiter_queues.append(self._waiters)\n"
            "        engine._suspended[gen] = None\n"
        )
        assert check_engine_heap.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "governor.py:5:" in out and "governor.py:6:" in out
        assert "governor.py:3:" not in out
        assert "only repro.sim may touch _waiter_queues" in out
        assert "only repro.sim may touch _suspended" in out

    def test_detects_ready_fifo_access_through_an_attribute(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def wake(self, handler):\n"
            "    self.engine._ready.append((handler, None))\n"
        )
        assert check_engine_heap.main([str(tmp_path)]) == 1
        assert "bad.py:2" in capsys.readouterr().out


class TestLedgerWritersLint:
    def test_src_repro_is_clean(self):
        """The executor's books write every attempt and point record, and
        ExecutionOptions opens every ledger and cache and writes every run
        record: a second writer keeps a second, drifting lifecycle."""
        assert check_ledger_writers.main([]) == 0

    def _seed_tree(self, root: Path) -> None:
        """A tree holding the one writer of each record kind, and code
        that defines, imports and type-checks the names without calling
        them."""
        core = root / "core"
        core.mkdir()
        (core / "parallel.py").write_text(
            "from repro.core.ledger import point_record\n"
            "class ResultCache:\n"
            "    pass\n"
            "class _Books:\n"
            "    def _log(self, task, state):\n"
            "        self.ledger.append_attempt(task.key, state, task.attempt)\n"
            "    def write_points(self):\n"
            "        self.ledger.append(point_record(config, outcome, span))\n"
        )
        (core / "options.py").write_text(
            "from repro.core.ledger import RunLedger, run_record\n"
            "def opened(cache, ledger):\n"
            "    if not isinstance(ledger, RunLedger):\n"
            "        ledger = RunLedger(ledger)\n"
            "    return ResultCache(cache), ledger\n"
            "def close_run(ledger, kind):\n"
            "    ledger.append(run_record(kind, points=0))\n"
        )
        (core / "ledger.py").write_text(
            "class RunLedger:\n"
            "    def append_attempt(self, key, state, attempt):\n"
            "        self.append({'rec': 'attempt'})\n"
            "def point_record(config, outcome, span):\n"
            "    return {}\n"
        )

    def test_seeded_tree_of_legal_uses_is_clean(self, tmp_path):
        self._seed_tree(tmp_path)
        assert check_ledger_writers.main([str(tmp_path)]) == 0

    def test_detects_a_second_writer(self, tmp_path, capsys):
        self._seed_tree(tmp_path)
        studies = tmp_path / "studies"
        studies.mkdir()
        (studies / "bad.py").write_text(
            "from repro.core import ledger as L\n"
            "def run(path, cache_dir, config, outcome, span):\n"
            "    ledger = L.RunLedger(path)\n"
            "    cache = ResultCache(cache_dir)\n"
            "    ledger.append_attempt('k', 'done', 1)\n"
            "    ledger.append(L.point_record(config, outcome, span))\n"
            "    ledger.append(run_record('study', points=1))\n"
        )
        assert check_ledger_writers.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        for line in range(3, 8):
            assert f"bad.py:{line}:" in out
        assert "only repro/core/parallel.py may call point_record" in out
        assert "only repro/core/options.py may call RunLedger" in out
        assert "parallel.py:" not in out and "options.py:" not in out


class TestFaultRngLint:
    def test_fault_and_policy_packages_are_clean(self):
        """repro.faults and repro.policy may only draw randomness from
        keyed ``faults.*``/``policy.*`` streams: unkeyed draws decouple
        fault sequences from the experiment seed."""
        assert check_fault_rng.main([]) == 0

    def test_detects_random_import(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        assert check_fault_rng.main([str(tmp_path)]) == 1
        assert "bad.py:1" in capsys.readouterr().out

    def test_detects_numpy_random_import(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("from numpy.random import default_rng\n")
        assert check_fault_rng.main([str(tmp_path)]) == 1

    def test_detects_adhoc_generator(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("gen = np.random.default_rng(7)\n")
        assert check_fault_rng.main([str(tmp_path)]) == 1
        assert "default_rng" in capsys.readouterr().out

    def test_detects_unkeyed_stream(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "def f(rngs, name):\n"
            "    a = rngs.get('telemetry.noise')\n"
            "    b = rngs.get(name)\n"
        )
        assert check_fault_rng.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out
        assert "bad.py:3" in out

    def test_accepts_keyed_streams(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def f(rngs, streams, site):\n"
            "    a = rngs.get('faults.campaign')\n"
            "    b = streams.get('policy.interval')\n"
            "    c = rngs.get(f'faults.{site}')\n"
            "    d = mapping.get('arbitrary')\n"
        )
        assert check_fault_rng.main([str(tmp_path)]) == 0

    def test_pragma_opts_out_with_reason(self, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text(
            "def f(rngs):\n"
            "    # fault-rng: replays a recorded device stream\n"
            "    return rngs.get('device.gc')\n"
        )
        assert check_fault_rng.main([str(tmp_path)]) == 0


class TestTestQualityLint:
    def test_tests_are_clean(self):
        """The repo's own suites must contain no vacuous tests: every
        test asserts, every skip says why."""
        assert check_test_quality.main([]) == 0

    def test_benchmarks_are_clean(self):
        assert check_test_quality.main(["benchmarks"]) == 0

    def test_detects_constant_assert(self, tmp_path, capsys):
        bad = tmp_path / "test_bad.py"
        bad.write_text("def test_x():\n    assert True\n")
        assert check_test_quality.main([str(tmp_path)]) == 1
        assert "constant assert" in capsys.readouterr().out

    def test_detects_bare_skip_call(self, tmp_path, capsys):
        bad = tmp_path / "test_bad.py"
        bad.write_text(
            "import pytest\n"
            "def test_x():\n"
            "    pytest.skip()\n"
            "    assert frob()\n"
        )
        assert check_test_quality.main([str(tmp_path)]) == 1
        assert "skip without a reason" in capsys.readouterr().out

    def test_detects_bare_skip_marker(self, tmp_path, capsys):
        bad = tmp_path / "test_bad.py"
        bad.write_text(
            "import pytest\n"
            "@pytest.mark.skip\n"
            "def test_x():\n"
            "    assert frob()\n"
        )
        assert check_test_quality.main([str(tmp_path)]) == 1
        assert "skip without a reason" in capsys.readouterr().out

    def test_detects_assertionless_test(self, tmp_path, capsys):
        bad = tmp_path / "test_bad.py"
        bad.write_text("def test_x():\n    frob()\n")
        assert check_test_quality.main([str(tmp_path)]) == 1
        assert "no assertion" in capsys.readouterr().out

    def test_accepts_meaningful_tests(self, tmp_path):
        ok = tmp_path / "test_ok.py"
        ok.write_text(
            "import pytest\n"
            "import numpy.testing as npt\n"
            "def helper():\n"
            "    return 2\n"
            "def test_asserts():\n"
            "    assert helper() == 2\n"
            "def test_raises():\n"
            "    with pytest.raises(ValueError):\n"
            "        int('x')\n"
            "def test_reasoned_skip():\n"
            "    pytest.skip(reason='needs hardware')\n"
            "def test_helper_assertion():\n"
            "    npt.assert_allclose(1.0, 1.0)\n"
            "@pytest.mark.skip(reason='tracked in issue 7')\n"
            "def test_marked():\n"
            "    assert helper() == 2\n"
        )
        assert check_test_quality.main([str(tmp_path)]) == 0


class TestCoverageGate:
    def test_threshold_is_sane(self):
        assert 50.0 <= check_coverage.DEFAULT_THRESHOLD <= 100.0

    def test_gate_runs_or_skips_cleanly(self, capsys):
        """With coverage installed the gate enforces the threshold over
        the validate suite; without it, it must skip with an explicit
        message -- never fail on a missing dev tool."""
        code = check_coverage.main([])
        out = capsys.readouterr().out
        if check_coverage.coverage_available():
            assert code == 0
        else:
            assert code == 0
            assert "skipping" in out

    def test_skip_path_is_exercised(self, monkeypatch, capsys):
        monkeypatch.setattr(check_coverage, "coverage_available", lambda: False)
        assert check_coverage.main([]) == 0
        assert "skipping" in capsys.readouterr().out


class TestTolerancesLint:
    def test_equivalence_suite_is_clean(self):
        """Every approximate assertion in tests/equivalence/ must use a
        named constant from tolerances.py -- no inline magic epsilons."""
        assert check_tolerances.main([]) == 0

    def test_detects_inline_comparison_epsilon(self, tmp_path, capsys):
        bad = tmp_path / "test_bad.py"
        bad.write_text("def test_x():\n    assert rel_error < 0.05\n")
        assert check_tolerances.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "test_bad.py:2" in out and "0.05" in out

    def test_detects_inline_approx_and_isclose(self, tmp_path, capsys):
        bad = tmp_path / "test_bad.py"
        bad.write_text(
            "import math\n"
            "import pytest\n"
            "def test_x():\n"
            "    assert x == pytest.approx(y, rel=1e-6)\n"
            "    assert math.isclose(a, b, abs_tol=1e-9)\n"
        )
        assert check_tolerances.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "test_bad.py:4" in out
        assert "test_bad.py:5" in out

    def test_accepts_named_constants_counts_and_zero(self, tmp_path):
        ok = tmp_path / "test_ok.py"
        ok.write_text(
            "import pytest\n"
            "from tolerances import SPLICE_P50_LATENCY_RTOL as RTOL\n"
            "def test_x():\n"
            "    assert rel_error < tol.SPLICE_MEAN_POWER_RTOL\n"
            "    assert x == pytest.approx(y, rel=RTOL)\n"
            "    assert len(records) >= 200\n"
            "    assert worst > 0.0\n"
            "    runtime = ms * 1e-3  # arithmetic, not an assertion\n"
        )
        assert check_tolerances.main([str(tmp_path)]) == 0

    def test_declarations_file_is_exempt(self, tmp_path):
        decl = tmp_path / "tolerances.py"
        decl.write_text("SOME_RTOL = 0.05\nassert SOME_RTOL < 0.1\n")
        assert check_tolerances.main([str(tmp_path)]) == 0

    def test_pragma_opts_out_with_reason(self, tmp_path):
        ok = tmp_path / "test_ok.py"
        ok.write_text(
            "def test_x():\n"
            "    # tolerance: structural bound, not a measurement slack\n"
            "    assert fraction < 0.5\n"
        )
        assert check_tolerances.main([str(tmp_path)]) == 0
