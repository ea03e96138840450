"""Tests for repro.noc.recorder (the Fig. 8 BT recording scheme)."""

from __future__ import annotations

import pytest

from repro.noc.recorder import LinkRecorder, TransitionLedger


class TestLinkRecorder:
    def test_first_flit_free(self):
        rec = LinkRecorder("R0.EAST")
        assert rec.record(0xFFFF) == 0
        assert rec.transitions == 0
        assert rec.flits == 1

    def test_second_flit_counts(self):
        rec = LinkRecorder("R0.EAST")
        rec.record(0b1100)
        assert rec.record(0b1010) == 2
        assert rec.transitions == 2

    def test_flit_pre_register_updates(self):
        rec = LinkRecorder("R0.EAST")
        rec.record(0xFF)
        rec.record(0x00)
        assert rec.previous == 0x00
        assert rec.record(0x00) == 0

    def test_accumulation(self):
        rec = LinkRecorder("x")
        for payload in [0x0, 0xF, 0x0, 0xF]:
            rec.record(payload)
        assert rec.transitions == 12


class TestTransitionLedger:
    def test_lazy_recorder_creation(self):
        ledger = TransitionLedger()
        rec = ledger.recorder_for("R3.WEST")
        assert rec is ledger.recorder_for("R3.WEST")
        assert rec.name == "R3.WEST"

    def test_total_sums_all_links(self):
        ledger = TransitionLedger()
        a = ledger.recorder_for("a")
        b = ledger.recorder_for("b")
        a.record(0x0)
        a.record(0x3)
        b.record(0x0)
        b.record(0x1)
        assert ledger.total_transitions == 3
        assert ledger.total_flit_traversals == 4

    def test_per_link_snapshot(self):
        ledger = TransitionLedger()
        ledger.recorder_for("a").record(0)
        ledger.recorder_for("a").record(7)
        assert ledger.per_link() == {"a": 3}


class TestRunningTotals:
    """Ledger totals always equal the sum of the per-link counts."""

    def test_totals_track_incrementally(self):
        ledger = TransitionLedger()
        rec = ledger.recorder_for("a")
        rec.record(0x0)
        assert ledger.total_transitions == 0
        assert ledger.total_flit_traversals == 1
        rec.record(0x7)
        assert ledger.total_transitions == 3
        assert ledger.total_flit_traversals == 2
        ledger.recorder_for("b").record(0xF)
        assert ledger.total_transitions == 3
        assert ledger.total_flit_traversals == 3

    def test_totals_equal_per_link_sum(self):
        ledger = TransitionLedger()
        for i, payload in enumerate([0x0, 0x3, 0x5, 0xF, 0x0]):
            ledger.recorder_for(f"l{i % 2}").record(payload)
        assert ledger.total_transitions == sum(
            ledger.per_link().values()
        )

    def test_adopt_folds_existing_history(self):
        rec = LinkRecorder("ext")
        rec.record(0x0)
        rec.record(0x3)
        ledger = TransitionLedger()
        ledger.adopt(rec)
        assert ledger.total_transitions == 2
        assert ledger.total_flit_traversals == 2
        rec.record(0x1)
        assert ledger.total_transitions == 3

    def test_adopt_rejects_double_ownership(self):
        rec = LinkRecorder("ext")
        a = TransitionLedger()
        a.adopt(rec)
        b = TransitionLedger()
        with pytest.raises(ValueError, match="another ledger"):
            b.adopt(rec)

    def test_construction_with_recorders_adopts(self):
        rec = LinkRecorder("x")
        rec.record(0x0)
        rec.record(0x1)
        ledger = TransitionLedger(recorders={"x": rec})
        assert ledger.total_transitions == 1
        assert ledger.total_flit_traversals == 2
