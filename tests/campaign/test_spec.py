"""The engine invariant over campaign specs, as a property.

Whatever the batch size, however the plan is cut into worker shards and
wherever a journaled run was killed, the merged reports serialise to
the bytes of one uninterrupted run of the same spec.
"""

import json
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.base import GPUApplication
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

        # a run killed after k journaled units resumes to the same bytes
        k = data.draw(st.integers(0, n_units), label="journaled units")
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:1 + k]) + "\n")
        resumed = spec.run(checkpoint=journal, resume=True)
        assert _bytes(spec, resumed) == expected
        assert len(journal.read_text().splitlines()) == 1 + n_units
