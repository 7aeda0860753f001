"""Analysis helpers: statistics and plain-text reporting."""

from .queueing import MmcQueue, erlang_c, mdc_mean_wait, mg1_mean_wait
from .reporting import format_heatmap, format_table, sparkline
from .stats import ecdf, normalized_cdf, relative_error_matrix_stats, tail_ratio

__all__ = [
    "erlang_c",
    "MmcQueue",
    "mg1_mean_wait",
    "mdc_mean_wait",
    "ecdf",
    "normalized_cdf",
    "tail_ratio",
    "relative_error_matrix_stats",
    "format_table",
    "format_heatmap",
    "sparkline",
]
