"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main
from repro.studies import FIGURES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--device", "ssd2"])
        args_dict = vars(args)
        assert args_dict["rw"] == "randwrite"
        assert args_dict["iodepth"] == 64

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--device", "floppy"])

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "fig99"])

    def test_figure_choices_are_the_registry(self):
        (subcommands,) = [
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        figure = subcommands.choices["figure"]
        (name,) = [action for action in figure._actions if action.dest == "name"]
        assert list(name.choices) == list(FIGURES)

    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_nonpositive_workers_rejected(self, bad, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--device", "ssd3", "--workers", bad]
            )
        assert "worker count must be >= 1" in capsys.readouterr().err

    def test_workers_all_means_every_core(self):
        args = build_parser().parse_args(
            ["sweep", "--device", "ssd3", "--workers", "all"]
        )
        assert args.workers is None

    def test_malformed_faults_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--device", "ssd3", "--faults", "meteor:p=1"]
            )
        assert "unknown fault kind" in capsys.readouterr().err

    def test_malformed_faults_clause_named_in_error(self, capsys):
        """A bad token in a multi-clause spec is named, not left to hunt."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "policy",
                    "--faults",
                    "governor:at=0.01;spike:dur=bogus",
                ]
            )
        err = capsys.readouterr().err
        assert "(in clause 'spike:dur=bogus')" in err
        assert "dur='bogus' is not a number" in err

    def test_faults_missing_required_argument_names_clause(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--device", "ssd3", "--faults", "spike:at=0.01"]
            )
        assert "(in clause 'spike:at=0.01')" in capsys.readouterr().err

    def test_policy_rejects_unknown_controller(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["policy", "--policy", "bang-bang"])

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        args_dict = vars(args)
        assert args_dict["devices"] == 64
        assert args_dict["epochs"] == 4
        assert args_dict["budget_low"] == 0.55
        assert args_dict["budget_high"] == 0.85
        assert args_dict["workers"] == 1
        assert args_dict["cache"] is None

    def test_fleet_shares_the_workers_flag_group(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--workers", "0"])
        assert "worker count must be >= 1" in capsys.readouterr().err


class TestCommands:
    def test_devices_lists_presets(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for label in ("ssd1", "ssd2", "ssd3", "hdd", "860evo", "pm1743"):
            assert label in out

    def test_run_prints_summary(self, capsys):
        code = main(
            [
                "run",
                "--device",
                "ssd3",
                "--rw",
                "randread",
                "--bs",
                "4k",
                "--iodepth",
                "4",
                "--runtime",
                "0.02",
                "--size",
                "2M",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ssd3" in out and "W" in out and "MiB/s" in out

    def test_run_with_power_state(self, capsys):
        main(
            [
                "run",
                "--device",
                "ssd2",
                "--bs",
                "64k",
                "--runtime",
                "0.02",
                "--size",
                "8M",
                "--ps",
                "2",
            ]
        )
        assert "ps2" in capsys.readouterr().out

    def test_sweep_prints_grid(self, capsys):
        code = main(
            [
                "sweep",
                "--device",
                "ssd3",
                "--rw",
                "randread",
                "--bs",
                "16k",
                "--bs",
                "64k",
                "--iodepth",
                "1",
                "--iodepth",
                "8",
                "--workers",
                "2",
                "--runtime",
                "0.01",
                "--size",
                "2M",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 points" in out
        assert "bs=16k" in out and "bs=64k" in out

    def test_sweep_with_cache(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--device",
            "ssd3",
            "--rw",
            "randread",
            "--bs",
            "16k",
            "--iodepth",
            "1",
            "--runtime",
            "0.01",
            "--size",
            "2M",
            "--cache",
            str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(list(tmp_path.glob("*.pkl"))) == 1
        assert "cache: 0 hit(s), 1 miss(es)" in first
        assert main(argv) == 0  # served from cache
        second = capsys.readouterr().out
        assert "cache: 1 hit(s), 0 miss(es) (100% hit rate)" in second
        # The result rows themselves are identical either way; only the
        # cache/executor summary lines differ between cold and warm runs.
        table = first.split("\n\ncache:")[0]
        assert second.startswith(table)

    def test_run_with_faults_prints_summary(self, capsys):
        code = main(
            [
                "run",
                "--device",
                "ssd3",
                "--rw",
                "randread",
                "--bs",
                "16k",
                "--iodepth",
                "4",
                "--runtime",
                "0.01",
                "--size",
                "2M",
                "--faults",
                "io_error:p=0.5,cost=5e-4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "faults:" in out and "io_error" in out

    def test_sweep_resume_requires_cache(self, capsys):
        code = main(
            [
                "sweep",
                "--device",
                "ssd3",
                "--rw",
                "randread",
                "--bs",
                "16k",
                "--iodepth",
                "1",
                "--runtime",
                "0.01",
                "--size",
                "2M",
                "--resume",
            ]
        )
        assert code == 2
        assert "--resume requires --cache" in capsys.readouterr().out

    def test_sweep_resume_round_trip(self, capsys, tmp_path):
        argv = [
            "sweep",
            "--device",
            "ssd3",
            "--rw",
            "randread",
            "--bs",
            "16k",
            "--iodepth",
            "1",
            "--runtime",
            "0.01",
            "--size",
            "2M",
            "--cache",
            str(tmp_path),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "checkpoint.jsonl").exists()
        assert main(argv + ["--resume"]) == 0
        out = capsys.readouterr().out
        assert "resuming from" in out
        assert "1 done" in out
        assert "1 points" in out  # the table still shows the full grid

    def test_sweep_reports_failed_points(self, capsys):
        code = main(
            [
                "sweep",
                "--device",
                "hdd",  # no NVMe power states -> ps point fails
                "--rw",
                "randread",
                "--bs",
                "16k",
                "--iodepth",
                "1",
                "--ps",
                "1",
                "--runtime",
                "0.01",
                "--size",
                "1M",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "FAILED" in out and "ValueError" in out

    def test_run_trace_jsonl_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        code = main(
            [
                "run", "--device", "ssd1", "--rw", "randwrite",
                "--bs", "64k", "--iodepth", "8",
                "--runtime", "0.01", "--size", "2M", "--ps", "2",
                "--trace", str(trace),
            ]
        )
        assert code == 0
        assert str(trace) in capsys.readouterr().out
        from repro.obs.export import load_jsonl

        events = load_jsonl(trace)
        assert events, "trace file must contain events"
        kinds = {e["kind"] for e in events}
        assert {"io_submit", "io_complete", "power_state"} <= kinds
        # Deterministic total order: (t, seq) ascending.
        keys = [(e["t"], e["seq"]) for e in events]
        assert keys == sorted(keys)

    def test_run_metrics_round_trip(self, capsys, tmp_path):
        metrics = tmp_path / "run.metrics.json"
        code = main(
            [
                "run", "--device", "ssd3", "--rw", "randread",
                "--bs", "16k", "--iodepth", "4",
                "--runtime", "0.01", "--size", "1M",
                "--metrics", str(metrics),
            ]
        )
        assert code == 0
        assert "profile:" in capsys.readouterr().out
        payload = json.loads(metrics.read_text())
        assert "metrics" in payload and "profile" in payload
        assert payload["profile"]["n_points"] == 1
        completed = payload["metrics"]["io.completed"]
        assert sum(v["value"] for v in completed.values()) > 0

    def test_sweep_chrome_trace_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "sweep.trace.json"
        metrics = tmp_path / "sweep.metrics.json"
        cache = tmp_path / "cache"
        argv = [
            "sweep", "--device", "ssd1", "--rw", "randwrite",
            "--bs", "64k", "--iodepth", "1", "--iodepth", "8",
            "--ps", "0", "--ps", "2",
            "--runtime", "0.01", "--size", "2M",
            "--cache", str(cache),
            "--trace", str(trace), "--trace-format", "chrome",
            "--metrics", str(metrics),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "perfetto" in out
        payload = json.loads(trace.read_text())
        entries = payload["traceEvents"]
        # One process per sweep point, named via metadata.
        process_names = {
            e["args"]["name"]
            for e in entries
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert len(process_names) == 4
        assert all("ssd1" in name for name in process_names)
        thread_names = {
            e["args"]["name"]
            for e in entries
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert "ssd1.io" in thread_names and "ssd1.power" in thread_names
        metrics_payload = json.loads(metrics.read_text())
        assert metrics_payload["cache"]["misses"] == 4
        assert metrics_payload["cache"]["puts"] == 4
        assert metrics_payload["profile"]["n_points"] == 4

    def test_figure_quick(self, capsys):
        assert main(["figure", "table1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_figure_fig7(self, capsys):
        assert main(["figure", "fig7"]) == 0
        assert "860 EVO" in capsys.readouterr().out

    @pytest.mark.integration
    @pytest.mark.parametrize("flags", [[], ["--quick"]])
    def test_figure_fig2_takes_no_scale(self, capsys, monkeypatch, fig2_result, flags):
        """fig2's ``run`` takes no arguments; the CLI must call it so."""
        from repro.studies import fig2

        monkeypatch.setattr(fig2, "run", lambda: fig2_result)
        assert main(["figure", "fig2", *flags]) == 0
        assert "Figure 2a" in capsys.readouterr().out

    def test_policy_resume_requires_cache(self, capsys):
        assert main(["policy", "--resume"]) == 2
        assert "--resume requires --cache" in capsys.readouterr().out

    def test_policy_quick_validates_clean(self, capsys):
        code = main(
            ["policy", "--device", "ssd3", "--policy", "static", "--quick"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Policy tracking" in out
        assert "SSD3" in out and "static" in out
        assert "all hold" in out

    def test_policy_violation_exits_nonzero_even_over_cache_hits(
        self, capsys, tmp_path, monkeypatch
    ):
        """A warm cache must not launder a validation failure into exit 0."""
        from repro.studies import policy_tracking
        from repro.validate.report import Tolerances

        argv = [
            "policy", "--device", "ssd3", "--policy", "ladder", "--quick",
            "--cache", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "all hold" in first
        assert list(tmp_path.glob("*.pkl"))  # results actually cached
        assert (tmp_path / "checkpoint.jsonl").exists()

        # Re-run over pure cache hits: byte-identical report, still 0.
        assert main(argv + ["--resume"]) == 0
        assert "all hold" in capsys.readouterr().out

        # Zero meter tolerance makes every result a violation; the
        # cached results are revalidated, so the exit code flips to 1.
        monkeypatch.setattr(
            policy_tracking, "TOLERANCES", Tolerances(meter_rel=0.0)
        )
        assert main(argv + ["--resume"]) == 1
        out = capsys.readouterr().out
        assert "violation" in out

    def test_fleet_quick_validates_clean(self, capsys):
        code = main(
            ["fleet", "--devices", "3", "--epochs", "2", "--tenants", "6",
             "--quick"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Fleet of 3 devices" in out
        assert "harvested" in out
        assert "digest " in out
        assert "all hold" in out

    def test_fleet_violation_exits_nonzero(self, capsys, monkeypatch):
        from repro.studies import fleet_scale
        from repro.validate.report import Tolerances

        monkeypatch.setattr(
            fleet_scale, "TOLERANCES", Tolerances(meter_rel=0.0)
        )
        code = main(
            ["fleet", "--devices", "2", "--epochs", "2", "--tenants", "4",
             "--quick"]
        )
        assert code == 1
        assert "violation" in capsys.readouterr().out

    def test_fleet_feeds_the_report(self, capsys, tmp_path):
        code = main(
            ["fleet", "--devices", "3", "--epochs", "2", "--tenants", "6",
             "--quick", "--cache", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "ledger.jsonl").exists()
        capsys.readouterr()
        assert main(["report", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "## Fleet" in out
        assert "harvested" in out

    @pytest.mark.integration
    def test_plan(self, capsys):
        assert main(["plan", "--device", "ssd1", "--cut", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "power cut 20%" in out
        assert "curtail" in out


class TestReportCommand:
    def _sweep(self, tmp_path, extra=()):
        return main(
            [
                "sweep", "--device", "ssd3", "--rw", "randread",
                "--bs", "16k", "--iodepth", "1", "--iodepth", "8",
                "--runtime", "0.01", "--size", "2M",
                "--cache", str(tmp_path), *extra,
            ]
        )

    def test_requires_a_ledger_source(self, capsys):
        assert main(["report"]) == 2
        assert "--ledger PATH or --cache DIR" in capsys.readouterr().out

    def test_missing_ledger_exits_2(self, capsys, tmp_path):
        assert main(["report", "--cache", str(tmp_path)]) == 2
        assert "no ledger" in capsys.readouterr().out

    def test_sweep_then_report(self, capsys, tmp_path):
        assert self._sweep(tmp_path) == 0
        sweep_out = capsys.readouterr().out
        assert "executor:" in sweep_out  # telemetry footer with --cache
        assert (tmp_path / "ledger.jsonl").exists()
        assert main(["report", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "# Sweep health report" in out
        assert "## Executor" in out
        assert "## Cache" in out
        assert "## Metrics rollup" in out
        assert "## Validation" in out
        assert "**OK**" in out

    def test_warm_rerun_reports_cache_hits(self, capsys, tmp_path):
        assert self._sweep(tmp_path) == 0
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert main(["report", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 cached" in out or "2 hit(s)" in out

    def test_json_output(self, capsys, tmp_path):
        import json as json_module

        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert main(["report", "--cache", str(tmp_path), "--json"]) == 0
        payload = json_module.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["overview"]["points"] == 2
        assert payload["executor"]["executed"] == 2

    def test_explicit_ledger_path(self, capsys, tmp_path):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        ledger = tmp_path / "ledger.jsonl"
        assert main(["report", "--ledger", str(ledger)]) == 0
        assert "# Sweep health report" in capsys.readouterr().out

    def test_policy_study_feeds_the_report(self, capsys, tmp_path):
        """The acceptance path: a cached policy_tracking run, then a
        report covering executor, cache, rollup and validation."""
        argv = [
            "policy", "--device", "ssd3", "--policy", "static", "--quick",
            "--cache", str(tmp_path),
        ]
        assert main(argv) == 0
        assert main(argv + ["--resume"]) == 0
        capsys.readouterr()
        assert main(["report", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "## Executor" in out
        assert "## Cache" in out
        assert "## Metrics rollup" in out
        assert "## Policy tracking" in out
        assert "all invariants hold" in out
        assert "ssd3/static" in out

    def test_progress_paints_stderr(self, capsys, tmp_path):
        assert self._sweep(tmp_path, extra=("--progress",)) == 0
        captured = capsys.readouterr()
        assert "2/2 points" in captured.err
        assert captured.err.endswith("\n")  # finish() releases the line


class TestChaosCommand:
    def test_rejects_unknown_controller(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--controllers", "gremlin"])

    def test_seeded_violation_exits_nonzero(self, capsys):
        """The acceptance path: --controllers all must find the unsafe
        fixture's lying-meter bug, print a minimal --faults reproducer,
        and exit 1."""
        code = main(
            ["chaos", "--controllers", "all", "--budget-cells", "6",
             "--quick"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "Chaos resilience" in out
        assert "unsafe" in out
        assert "minimized reproducers:" in out
        assert "--faults '" in out

    def test_shipped_family_exits_zero(self, capsys):
        code = main(
            ["chaos", "--controllers", "static", "--budget-cells", "2",
             "--quick"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "watchdog armed" in out
        assert "minimized reproducers:" not in out

    def test_campaign_feeds_the_report(self, capsys, tmp_path):
        code = main(
            ["chaos", "--controllers", "feedback", "--budget-cells", "2",
             "--quick", "--cache", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "ledger.jsonl").exists()
        capsys.readouterr()
        assert main(["report", "--cache", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "## Chaos resilience" in out
        assert "feedback" in out
