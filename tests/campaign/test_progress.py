"""The engine's progress lines: one INFO event per finished work unit."""

import logging
import re

import pytest

from repro.adaptive import AdaptiveConfig, run_adaptive_pvf_campaign
from repro.apps import make_application
from repro.swfi import SingleBitFlip, run_pvf_campaign

ENGINE = "repro.campaign.engine"
STAGE = "pvf/MxM/single-bit-flip"
HEARTBEAT = r"\| [\d.]+ units/s( eta \d+s)? M/S/D \d+/\d+/\d+$"


def _pvf(**kwargs):
    return run_pvf_campaign(make_application("MxM", seed=1), SingleBitFlip(),
                            30, seed=1, batch_size=10, **kwargs)


def _lines(caplog):
    return [record.getMessage() for record in caplog.records
            if record.name == ENGINE]


@pytest.fixture
def unconfigured():
    """The ``repro`` logger as an application that configures no
    logging sees it: level unset, only the package's NullHandler."""
    logger = logging.getLogger("repro")
    saved = logger.level, logger.handlers[:]
    logger.setLevel(logging.NOTSET)
    logger.handlers = [logging.NullHandler()]
    yield
    logger.setLevel(saved[0])
    logger.handlers = saved[1]


class TestEngineProgressLines:
    def test_one_line_per_unit_with_stage_label_and_heartbeat(
            self, caplog):
        caplog.set_level(logging.INFO, logger="repro")
        _pvf()
        lines = _lines(caplog)
        assert len(lines) == 3
        for i, line in enumerate(lines):
            assert re.match(rf"\[{i + 1}/3\] {STAGE} batch {i} "
                            + HEARTBEAT, line), line
        assert all(record.levelno == logging.INFO
                   for record in caplog.records if record.name == ENGINE)

    def test_units_replayed_from_a_journal_are_marked_cached(
            self, caplog, tmp_path):
        journal = tmp_path / "pvf.jsonl"
        _pvf(checkpoint=journal)
        caplog.set_level(logging.INFO, logger="repro")
        _pvf(checkpoint=journal, resume=True)
        lines = _lines(caplog)
        assert len(lines) == 3
        for i, line in enumerate(lines):
            assert re.match(rf"\[{i + 1}/3\] {STAGE} batch {i} \(cached\) "
                            + HEARTBEAT, line), line

    def test_adaptive_rounds_count_on_without_a_total(self, caplog):
        caplog.set_level(logging.INFO, logger="repro")
        outcome = run_adaptive_pvf_campaign(
            make_application("MxM", seed=1), SingleBitFlip(), 60,
            AdaptiveConfig(target_ci=0.01, min_per_cell=10), seed=1,
            batch_size=10)
        assert outcome.rounds >= 2
        lines = _lines(caplog)
        assert len(lines) == outcome.report.n_injections // 10
        for i, line in enumerate(lines):
            assert re.match(rf"\[{i + 1}\] adaptive-{STAGE} batch {i} "
                            + HEARTBEAT, line), line
            assert " eta " not in line  # no total, no estimate

    def test_silent_when_logging_is_not_configured(self, capfd,
                                                   unconfigured):
        _pvf()
        captured = capfd.readouterr()
        assert captured.err == ""
        assert captured.out == ""
