"""Plain-text rendering for benchmark output and EXPERIMENTS.md tables.

The benches run headless (no matplotlib offline), so every figure is
re-expressed as the table/series the plot encodes: text tables, text
heatmaps and unicode sparklines make the *shape* inspectable in a
terminal and diffable in a file.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

__all__ = ["format_table", "format_heatmap", "sparkline"]

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence],
    float_fmt: str = "{:.3f}",
) -> str:
    """Fixed-width text table.

    Examples
    --------
    >>> print(format_table(["a", "b"], [[1, 2.5]], float_fmt="{:.1f}"))
    a  b
    -----
    1  2.5
    """
    def fmt(x):
        if isinstance(x, float):
            return float_fmt.format(x)
        return str(x)

    str_rows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("-" * len(lines[0]))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_heatmap(
    matrix: np.ndarray,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    cell_fmt: str = "{:5.2f}",
) -> str:
    """Numeric text heatmap (Fig 2-style matrices)."""
    m = np.asarray(matrix, dtype=float)
    if m.shape != (len(row_labels), len(col_labels)):
        raise ValueError("label counts must match matrix shape")
    col_w = max(max(len(c) for c in col_labels), len(cell_fmt.format(0.0)))
    row_w = max(len(r) for r in row_labels)
    lines = [" " * row_w + " " + " ".join(c.rjust(col_w) for c in col_labels)]
    for i, rl in enumerate(row_labels):
        cells = " ".join(cell_fmt.format(m[i, j]).rjust(col_w) for j in range(m.shape[1]))
        lines.append(rl.rjust(row_w) + " " + cells)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Unicode sparkline of a series, resampled to ``width`` columns.

    Examples
    --------
    >>> sparkline([0, 1, 2, 3], width=4)
    '▁▃▅█'
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        return ""
    if v.size > width:
        # average-pool to the target width
        edges = np.linspace(0, v.size, width + 1).astype(int)
        v = np.array([v[a:b].mean() if b > a else v[min(a, v.size - 1)] for a, b in zip(edges[:-1], edges[1:])])
    lo, hi = float(v.min()), float(v.max())
    if hi - lo < 1e-12:
        return _SPARK_CHARS[0] * v.size
    idx = ((v - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1)).round().astype(int)
    return "".join(_SPARK_CHARS[i] for i in idx)
