"""Serde edge cases: non-finite floats, empty artifacts, codec semantics."""

from __future__ import annotations

import json
import math

import pytest

from repro.artifacts import codec_for, dump_body, load_artifact
from repro.artifacts.serde import (
    Coerced,
    EnumCodec,
    OptionalCodec,
    Rounded,
    SequenceCodec,
    SortedIntMapCodec,
    derive,
)
from repro.errors import ArtifactError
from repro.outcomes import Outcome
from repro.rtl.classify import CorruptedValue
from repro.rtl.reports import (
    CampaignReport,
    DetailedRecord,
    FaultDescriptor,
    GeneralRecord,
)
from repro.swfi.campaign import PVFReport
from repro.syndrome.database import SyndromeDatabase
from repro.syndrome.records import SyndromeEntry, SyndromeKey

F32_INF = 0x7F800000
F32_NAN = 0x7FC00000


def _fault(i: int = 0) -> FaultDescriptor:
    return FaultDescriptor("fp32", "result", lane=i, bit=3, cycle=10 + i)


class TestNonFiniteFloats:
    """NaN/inf reach detailed data via zero-golden relative errors and
    non-finite f32 bit patterns; serialisation must not mangle them."""

    def _report_with_nonfinite_sdc(self) -> CampaignReport:
        report = CampaignReport("FADD", "M", "fp32", n_injections=1)
        record = DetailedRecord(
            fault=_fault(), opcode="FADD", input_range="M",
            value_kind="f32",
            corrupted=(CorruptedValue(0, 64, 0x00000000, F32_INF),
                       CorruptedValue(1, 65, 0x3F800000, F32_NAN)))
        report.general.append(GeneralRecord(_fault(), Outcome.SDC, 2, True))
        report.detailed.append(record)
        return report

    def test_detailed_record_round_trips(self):
        report = self._report_with_nonfinite_sdc()
        clone = CampaignReport.from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()
        # the NaN/inf bit patterns survive exactly ...
        corrupted = clone.detailed[0].corrupted
        assert corrupted[0].faulty_bits == F32_INF
        assert corrupted[1].faulty_bits == F32_NAN
        # ... and both classify as non-finite (relative_error maps
        # non-finite observations to inf so callers can bucket them)
        errors = clone.detailed[0].relative_errors()
        assert math.isinf(errors[0])
        assert math.isinf(errors[1])

    def test_syndrome_entry_keeps_nan_and_inf(self):
        entry = SyndromeEntry(
            key=SyndromeKey("FADD", "M", "fp32"),
            relative_errors=[0.5, float("inf"), float("nan")],
            thread_counts=[1, 1, 1])
        payload = entry.to_dict()
        # json round-trip uses the non-strict literals NaN/Infinity
        clone = SyndromeEntry.from_dict(json.loads(json.dumps(payload)))
        assert clone.relative_errors[0] == 0.5
        assert math.isinf(clone.relative_errors[1])
        assert math.isnan(clone.relative_errors[2])
        # a finalize over non-finite samples must not crash or fit them
        clone.finalize()


class TestEmptyArtifacts:
    def test_empty_rtl_report(self):
        report = CampaignReport("FADD", "M", "fp32")
        clone = CampaignReport.from_dict(report.to_dict())
        assert len(clone.general) == 0
        assert len(clone.detailed) == 0
        assert clone.avf() == 0.0
        assert clone.mean_corrupted_threads() == 0.0
        assert clone.to_dict() == report.to_dict()

    def test_empty_pvf_report(self):
        report = PVFReport(app_name="MxM", model_name="bitflip")
        clone = PVFReport.from_dict(report.to_dict())
        assert clone.pvf == 0.0
        assert clone.to_dict() == report.to_dict()

    def test_empty_dict_loads_as_empty_syndrome_db(self):
        db = SyndromeDatabase.from_dict({})
        assert db.entries() == []
        assert db.tmxm_entries() == []

    def test_empty_report_merge(self):
        merged = CampaignReport.merge(
            [CampaignReport("FADD", "M", "fp32"),
             CampaignReport("FADD", "M", "fp32")])
        assert merged.n_injections == 0
        assert len(merged.general) == 0


class TestCodecSemantics:
    def test_missing_required_field_raises_keyerror(self):
        with pytest.raises(KeyError):
            codec_for(FaultDescriptor).load({"module": "fp32"})

    def test_absent_defaulted_field_uses_dataclass_default(self):
        payload = {"module": "fp32", "register": "r", "lane": 1,
                   "bit": 2, "cycle": 3}
        fault = codec_for(FaultDescriptor).load(payload)
        assert fault.kind == "data"      # default, key absent

    def test_dump_preserves_declaration_order(self):
        payload = codec_for(FaultDescriptor).dump(_fault())
        assert list(payload) == ["module", "register", "lane", "bit",
                                 "cycle", "kind"]

    def test_enum_codec(self):
        codec = EnumCodec(Outcome)
        assert codec.dump(Outcome.SDC) == "sdc"
        assert codec.load("due") is Outcome.DUE

    def test_optional_codec_passes_none(self):
        codec = OptionalCodec(Coerced(int, int))
        assert codec.dump(None) is None
        assert codec.load(None) is None
        assert codec.load("7") == 7

    def test_sequence_codec_rebuilds_container(self):
        codec = SequenceCodec(Coerced(int, int), tuple)
        assert codec.load([1, 2]) == (1, 2)
        assert codec.dump((1, 2)) == [1, 2]

    def test_sorted_int_map_codec(self):
        codec = SortedIntMapCodec()
        assert list(codec.dump({"sdc": 2, "due": 1.0})) == ["due", "sdc"]
        assert codec.dump({"due": 1.0})["due"] == 1

    def test_rounded_codec(self):
        assert Rounded(2).dump(1.23456) == 1.23

    def test_derive_rejects_non_dataclass(self):
        with pytest.raises(ArtifactError, match="not a dataclass"):
            derive(int)

    def test_derive_rejects_underivable_hint(self):
        import dataclasses

        @dataclasses.dataclass
        class Odd:
            weird: complex

        with pytest.raises(ArtifactError, match="cannot derive"):
            derive(Odd)

    def test_general_record_round_trip_with_due_reason(self):
        record = GeneralRecord(_fault(), Outcome.DUE, 0, False,
                               due_reason="hang")
        payload = codec_for(GeneralRecord).dump(record)
        assert payload["outcome"] == "due"
        assert codec_for(GeneralRecord).load(payload) == record


class TestLoadBytesUnchanged:
    """dump_body must reproduce legacy bytes for live-built objects."""

    def test_live_report_add_path(self):
        from repro.rtl.classify import RunClassification

        report = CampaignReport("FADD", "M", "fp32")
        report.add(_fault(0),
                   RunClassification(Outcome.MASKED, fault_fired=False),
                   opcode="FADD", value_kind="f32")
        report.add(_fault(1),
                   RunClassification(
                       Outcome.SDC,
                       corrupted=[CorruptedValue(0, 64, 1, 3)]),
                   opcode="FADD", value_kind="f32")
        payload = report.to_dict()
        assert payload["n_injections"] == 2
        assert payload["general"][0]["fault_fired"] is False
        assert payload["general"][1]["outcome"] == "sdc"
        assert payload["detailed"][0]["corrupted"][0] == {
            "thread": 0, "address": 64,
            "golden_bits": 1, "faulty_bits": 3}
        assert load_artifact("rtl-report", payload).to_dict() == payload
        assert dump_body("rtl-report", report) == payload
