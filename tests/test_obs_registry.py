"""Tests for the span recorder."""

import pytest

from repro.obs import SpanRecorder


class TestSpanRecorder:
    def test_record_aggregates(self):
        sp = SpanRecorder()
        sp.record("tick", 0.1)
        sp.record("tick", 0.3)
        stats = sp.stats()["tick"]
        assert stats["count"] == 2
        assert stats["total_s"] == pytest.approx(0.4)
        assert stats["mean_s"] == pytest.approx(0.2)
        assert stats["max_s"] == pytest.approx(0.3)

    def test_span_context_manager_times_block(self):
        sp = SpanRecorder()
        with sp.span("work"):
            pass
        assert sp.stats()["work"]["count"] == 1
        assert sp.stats()["work"]["total_s"] >= 0.0

    def test_len_and_reset(self):
        sp = SpanRecorder()
        sp.record("a", 1.0)
        assert len(sp) == 1
        sp.reset()
        assert len(sp) == 0
