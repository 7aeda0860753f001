"""Tests for analysis statistics and plain-text reporting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    ecdf,
    format_heatmap,
    format_table,
    normalized_cdf,
    relative_error_matrix_stats,
    sparkline,
    tail_ratio,
)


class TestStats:
    def test_ecdf_values(self):
        x, p = ecdf([3.0, 1.0, 2.0])
        assert list(x) == [1.0, 2.0, 3.0]
        assert p[-1] == pytest.approx(1.0)

    def test_ecdf_empty(self):
        x, p = ecdf([])
        assert x.size == 0 and p.size == 0

    def test_normalized_cdf_mean_is_one(self):
        x, _ = normalized_cdf([2.0, 4.0, 6.0])
        assert np.average(x) == pytest.approx(1.0)

    def test_normalized_cdf_nonpositive_mean(self):
        with pytest.raises(ValueError):
            normalized_cdf([-1.0, 1.0, 0.0])

    def test_tail_ratio(self):
        vals = np.ones(90).tolist() + [100.0] * 10
        r = tail_ratio(vals, q=0.99)
        assert r == pytest.approx(100.0 / np.mean(vals), rel=0.01)

    def test_tail_ratio_empty(self):
        assert tail_ratio([]) == 0.0

    def test_relative_error_matrix_stats(self):
        m = np.array([[1.0, 2.0], [3.0, 1.0]])
        s = relative_error_matrix_stats(m)
        assert s["diag_mean"] == pytest.approx(1.0)
        assert s["offdiag_mean"] == pytest.approx(2.5)
        assert s["offdiag_max"] == pytest.approx(3.0)
        assert s["worst_pair"] == (1, 0)

    def test_relative_error_matrix_validation(self):
        with pytest.raises(ValueError):
            relative_error_matrix_stats(np.zeros((2, 3)))


class TestReporting:
    def test_format_table_alignment(self):
        out = format_table(["name", "value"], [["a", 1.5], ["bb", 2.25]], "{:.2f}")
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in out and "2.25" in out
        assert len(lines) == 4

    def test_format_heatmap_shape_validation(self):
        with pytest.raises(ValueError):
            format_heatmap(np.zeros((2, 2)), ["r1"], ["c1", "c2"])

    def test_format_heatmap_contains_values(self):
        out = format_heatmap(np.array([[1.5, 2.5]]), ["row"], ["a", "b"])
        assert "1.50" in out and "2.50" in out

    def test_sparkline_monotone(self):
        s = sparkline([0, 1, 2, 3], width=4)
        assert s == "▁▃▆█"

    def test_sparkline_constant(self):
        assert sparkline([5, 5, 5], width=3) == "▁▁▁"

    def test_sparkline_resamples_long_series(self):
        s = sparkline(np.sin(np.linspace(0, 6, 1000)), width=40)
        assert len(s) == 40

    def test_sparkline_empty(self):
        assert sparkline([]) == ""


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_property_ecdf_is_nondecreasing_distribution(values):
    x, p = ecdf(values)
    assert np.all(np.diff(x) >= 0)
    assert np.all(np.diff(p) > 0)
    assert p[-1] == pytest.approx(1.0)
