"""JSONL checkpoint journal: damage tolerance and header validation."""

import json

import pytest

from repro.campaign import CampaignCheckpoint
from repro.errors import CampaignError

HEADER = {"campaign": "test", "seed": 1}


def _journal(path, n_batches=3):
    ckpt = CampaignCheckpoint(path, HEADER)
    for index in range(n_batches):
        ckpt.record(index, {"value": index})
    return ckpt


class TestBasics:
    def test_fresh_journal_writes_header(self, tmp_path):
        path = tmp_path / "c.jsonl"
        CampaignCheckpoint(path, HEADER)
        first = json.loads(path.read_text().splitlines()[0])
        assert first["kind"] == "header"
        assert first["version"] == CampaignCheckpoint.VERSION
        assert first["campaign"] == "test"

    def test_record_and_replay(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _journal(path)
        resumed = CampaignCheckpoint(path, HEADER, resume=True)
        assert resumed.completed == {0: {"value": 0}, 1: {"value": 1},
                                     2: {"value": 2}}

    def test_decode_applied_on_load(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _journal(path, n_batches=1)
        resumed = CampaignCheckpoint(path, HEADER, resume=True,
                                     decode=lambda d: d["value"])
        assert resumed.completed == {0: 0}

    def test_no_resume_truncates(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _journal(path)
        fresh = CampaignCheckpoint(path, HEADER, resume=False)
        assert fresh.completed == {}
        assert len(path.read_text().splitlines()) == 1

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _journal(path)
        with pytest.raises(CampaignError):
            CampaignCheckpoint(path, {"campaign": "test", "seed": 2},
                               resume=True)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"not": "a header"}\n')
        with pytest.raises(CampaignError):
            CampaignCheckpoint(path, HEADER, resume=True)


class TestDamageTolerance:
    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _journal(path)
        # simulate a kill mid-write: chop the last line in half
        text = path.read_text()
        path.write_text(text[:len(text) - 25])
        with pytest.warns(UserWarning, match="corrupt checkpoint line"):
            resumed = CampaignCheckpoint(path, HEADER, resume=True)
        assert sorted(resumed.completed) == [0, 1]  # batch 2 re-runs

    def test_damaged_journal_compacted_once(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _journal(path)
        with path.open("a") as fh:
            fh.write('{"kind": "batch", "ind')  # torn write
        with pytest.warns(UserWarning):
            CampaignCheckpoint(path, HEADER, resume=True)
        # the journal was rewritten clean: a second resume must not warn
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resumed = CampaignCheckpoint(path, HEADER, resume=True)
        assert sorted(resumed.completed) == [0, 1, 2]

    def test_undecodable_record_skipped_with_warning(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ckpt = CampaignCheckpoint(path, HEADER)
        ckpt.record(0, {"value": 0})
        with path.open("a") as fh:
            fh.write(json.dumps({"kind": "batch", "index": 1,
                                 "report": {"wrong": "shape"}}) + "\n")

        def decode(payload):
            return payload["value"]

        with pytest.warns(UserWarning, match="undecodable"):
            resumed = CampaignCheckpoint(path, HEADER, resume=True,
                                         decode=decode)
        assert resumed.completed == {0: 0}

    def test_unterminated_last_record_is_kept_and_not_glued_onto(
            self, tmp_path):
        # a kill between a record's body and its newline leaves a line
        # that parses; the next record must not be appended onto it
        path = tmp_path / "c.jsonl"
        _journal(path, n_batches=2).close()
        path.write_text(path.read_text()[:-1])
        resumed = CampaignCheckpoint(path, HEADER, resume=True)
        assert sorted(resumed.completed) == [0, 1]
        resumed.record(2, {"value": 2})
        resumed.close()
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = CampaignCheckpoint(path, HEADER, resume=True)
        assert sorted(reopened.completed) == [0, 1, 2]

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _journal(path, n_batches=1)
        with path.open("a") as fh:
            fh.write("\n\n")
        resumed = CampaignCheckpoint(path, HEADER, resume=True)
        assert sorted(resumed.completed) == [0]


class TestDurability:
    def test_records_survive_a_hard_kill(self, tmp_path):
        """A SIGKILLed writer loses no *completed* record (issue fix).

        Before per-record flushing, records sat in the stdio buffer and
        a hard kill lost every unit since the last drain.
        """
        import subprocess
        import sys

        path = tmp_path / "c.jsonl"
        script = (
            "import os, sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.campaign import CampaignCheckpoint\n"
            "ckpt = CampaignCheckpoint(%r, {'campaign': 'test', 'seed': 1})\n"
            "for index in range(5):\n"
            "    ckpt.record(index, {'value': index})\n"
            "os._exit(1)  # hard kill: no close(), no atexit, no GC\n"
        ) % (str((__import__('pathlib').Path(__file__).resolve()
                  .parents[2] / 'src')), str(path))
        proc = subprocess.run([sys.executable, "-c", script])
        assert proc.returncode == 1
        resumed = CampaignCheckpoint(path, HEADER, resume=True)
        assert sorted(resumed.completed) == [0, 1, 2, 3, 4]

    def test_record_flushes_immediately(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ckpt = CampaignCheckpoint(path, HEADER)
        ckpt.record(0, {"value": 0})
        # visible to an independent reader before any close()
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["index"] == 0

    def test_close_is_idempotent_and_record_reopens(self, tmp_path):
        path = tmp_path / "c.jsonl"
        ckpt = CampaignCheckpoint(path, HEADER)
        ckpt.record(0, {"value": 0})
        ckpt.close()
        ckpt.close()
        ckpt.record(1, {"value": 1})  # lazily reopens in append mode
        ckpt.close()
        resumed = CampaignCheckpoint(path, HEADER, resume=True)
        assert sorted(resumed.completed) == [0, 1]

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignCheckpoint(path, HEADER) as ckpt:
            ckpt.record(0, {"value": 0})
        assert ckpt._fh.closed

    def test_resume_then_record_appends(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _journal(path, n_batches=2)
        resumed = CampaignCheckpoint(path, HEADER, resume=True)
        resumed.record(2, {"value": 2})
        resumed.close()
        again = CampaignCheckpoint(path, HEADER, resume=True)
        assert sorted(again.completed) == [0, 1, 2]
