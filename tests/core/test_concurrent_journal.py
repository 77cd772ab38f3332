"""Durability of the append-only run ledger under concurrent writers and
torn tails.

The ledger promises that (a) multiple processes appending to one file
interleave whole lines and lose nothing (O_APPEND semantics), and (b) a
torn final line -- the signature of a crashed writer -- is skipped on
load, never raised.  Both hold for its plain records and for the
``attempt`` records read back as each point's last state (the journal
of where an interrupted batch stood).  These tests drive two real
subprocess appenders against one file and then mutilate the tail by
hand.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.core.ledger import RunLedger, last_attempts

SRC = str(Path(__file__).resolve().parents[2] / "src")

_LEDGER_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.core.ledger import RunLedger

ledger = RunLedger({path!r})
for i in range({count}):
    ledger.append({{"rec": "point", "writer": {writer}, "i": i}})
"""

_JOURNAL_WRITER = """
import sys
sys.path.insert(0, {src!r})
from repro.core.ledger import RunLedger

ledger = RunLedger({path!r})
for i in range({count}):
    for state in ("in_flight", "done"):
        ledger.append({{
            "rec": "attempt", "key": "w{writer}-" + str(i),
            "state": state, "attempt": 1,
        }})
"""


def _attempt(key, state):
    return {"rec": "attempt", "key": key, "state": state, "attempt": 1}


def _run_writers(tmp_path, template, path, count=50):
    scripts = []
    for writer in (1, 2):
        script = tmp_path / f"writer{writer}.py"
        script.write_text(
            template.format(
                src=SRC, path=str(path), count=count, writer=writer
            )
        )
        scripts.append(script)
    procs = [
        subprocess.Popen(
            [sys.executable, str(script)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for script in scripts
    ]
    for proc in procs:
        _, stderr = proc.communicate(timeout=120)
        assert proc.returncode == 0, stderr


class TestConcurrentLedgerAppenders:
    def test_two_writers_lose_no_records(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _run_writers(tmp_path, _LEDGER_WRITER, path)
        records = RunLedger.load(path)
        assert len(records) == 100
        for writer in (1, 2):
            mine = [r["i"] for r in records if r["writer"] == writer]
            # Per-writer order is preserved even under interleaving.
            assert mine == list(range(50))

    def test_no_line_is_torn(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _run_writers(tmp_path, _LEDGER_WRITER, path)
        for line in path.read_text().splitlines():
            assert json.loads(line)["rec"] == "point"

    def test_torn_tail_is_skipped_on_load(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append({"rec": "run", "points": 3})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"rec": "point", "i": 99, "trun')
        records = RunLedger.load(path)
        assert [r["rec"] for r in records] == ["run"]


class TestConcurrentJournalAppenders:
    """The same promises for attempt records, read back per point."""

    def test_two_writers_lose_no_entries(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        _run_writers(tmp_path, _JOURNAL_WRITER, path)
        last = last_attempts(RunLedger.load(path))
        assert len(last) == 100
        assert all(record["state"] == "done" for record in last.values())

    def test_torn_tail_keeps_prior_entries(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append(_attempt("alpha", "done"))
        ledger.append(_attempt("beta", "in_flight"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"rec": "attempt", "key": "beta", "state": "do')
        last = last_attempts(RunLedger.load(path))
        assert last["alpha"]["state"] == "done"
        # The torn update is dropped; beta keeps its last intact state.
        assert last["beta"]["state"] == "in_flight"

    def test_garbage_line_mid_file_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        RunLedger(path).append(_attempt("alpha", "done"))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("not json at all\n")
            fh.write(
                '{"rec": "attempt", "key": "gamma", "state": "unknown-state"}\n'
            )
        RunLedger(path).append(_attempt("delta", "done"))
        last = last_attempts(RunLedger.load(path))
        assert set(last) == {"alpha", "delta"}
