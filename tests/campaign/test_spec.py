"""The engine invariant over campaign specs, as a property.

Whatever the batch size, however the plan is cut into worker shards,
wherever a journaled run was killed and however many processes resume
it, the merged reports serialise to the bytes of one uninterrupted run
of the same spec.  An adaptive run serialises to the bytes of the fixed
run cut at the horizon the service's journal replay settles on.
"""

import json
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import AdaptiveConfig
from repro.apps.base import GPUApplication
from repro.errors import CampaignError
from repro.gpu import Opcode
from repro.rtl import make_microbenchmark
from repro.rtl.campaign import cell_spec
from repro.swfi.campaign import _SwfiState, pvf_spec
from repro.swfi.models import SingleBitFlip

N = 12  # injections / faults per campaign: every batch size 1..N is drawn


class TinyApp(GPUApplication):
    """One FADD per lane, then a store: the cheapest PVF workload."""

    name = "tiny"

    def run(self, ops):
        data = np.arange(8, dtype=np.float32)
        return ops.gst(ops.fadd(data, np.float32(1.0)))


def _pvf(batch_size):
    app, model = TinyApp(), SingleBitFlip()
    return pvf_spec(app.name, model.name, N,
                    partial(_SwfiState, app, model), seed=3,
                    batch_size=batch_size)


def _rtl(batch_size):
    bench = make_microbenchmark(Opcode.FADD, "M", seed=5)
    return cell_spec(bench, "fp32", N, seed=5, batch_size=batch_size)


def _bytes(spec, results) -> str:
    return json.dumps([report.to_dict() for report in spec.merge(results)])


@settings(max_examples=12, deadline=None)
@given(level=st.sampled_from([_pvf, _rtl]),
       batch_size=st.integers(1, N), data=st.data())
def test_shards_and_resume_merge_to_the_one_shot_bytes(level, batch_size,
                                                       data):
    spec = level(batch_size)
    n_units = len(spec.units)
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "campaign.jsonl"
        expected = _bytes(spec, spec.run(checkpoint=journal))

        # fresh worker state per shard, as on a worker fleet
        cuts = data.draw(st.sets(st.integers(1, max(1, n_units - 1)),
                                 max_size=3), label="cuts")
        bounds = [0, *sorted(c for c in cuts if c < n_units), n_units]
        sharded = {}
        for lo, hi in zip(bounds, bounds[1:]):
            sharded.update(spec.run(lo, hi))
        assert _bytes(spec, sharded) == expected

        # a run killed after k journaled units resumes to the same bytes,
        # serially or on a process pool
        k = data.draw(st.integers(0, n_units), label="journaled units")
        n_jobs = data.draw(st.sampled_from([1, 2]), label="n_jobs")
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:1 + k]) + "\n")
        resumed = spec.run(checkpoint=journal, resume=True, n_jobs=n_jobs)
        assert _bytes(spec, resumed) == expected
        assert len(journal.read_text().splitlines()) == 1 + n_units


@settings(max_examples=12, deadline=None)
@given(level=st.sampled_from([_pvf, _rtl]),
       batch_size=st.integers(1, N),
       target_ci=st.floats(0.2, 0.95),
       min_per_cell=st.integers(1, N), data=st.data())
def test_adaptive_run_merges_to_the_replayed_horizon(level, batch_size,
                                                     target_ci,
                                                     min_per_cell, data):
    spec = level(batch_size)
    config = AdaptiveConfig(target_ci=target_ci, min_per_cell=min_per_cell)
    full = spec.run()

    # the service's view: a fresh controller replaying complete results
    replayed = spec.controller(config)
    assert replayed.replay(full) is True
    horizon = {unit.index: full[unit.index]
               for unit in replayed.planned_units}
    expected = _bytes(spec, horizon)

    controller = spec.controller(config)
    assert _bytes(spec, spec.run(adaptive=controller)) == expected
    assert controller.summary() == replayed.summary()
    assert controller.rounds == replayed.rounds

    # an adaptive run killed after k journaled units resumes to the
    # same bytes and decisions, serially or on a process pool
    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "adaptive.jsonl"
        spec.run(adaptive=spec.controller(config), checkpoint=journal)
        lines = journal.read_text().splitlines()
        assert len(lines) == 1 + len(horizon)
        k = data.draw(st.integers(0, len(horizon)), label="journaled units")
        n_jobs = data.draw(st.sampled_from([1, 2]), label="n_jobs")
        journal.write_text("\n".join(lines[:1 + k]) + "\n")
        resumed = spec.controller(config)
        results = spec.run(adaptive=resumed, checkpoint=journal,
                           resume=True, n_jobs=n_jobs)
        assert _bytes(spec, results) == expected
        assert resumed.summary() == replayed.summary()
        assert resumed.rounds == replayed.rounds


def test_an_adaptive_run_collects_its_reports():
    # the controller replays the collected reports: without them the
    # run would never stop
    spec = _pvf(4)
    with pytest.raises(CampaignError, match="collects"):
        spec.run(adaptive=spec.controller(AdaptiveConfig()), collect=False)
