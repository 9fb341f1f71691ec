"""Benchmark harness helpers: timing, algorithm registry and reporting."""

from .runner import AlgorithmResult, host_record, run_algorithms, time_call
from .report import format_relative_table, format_series, format_table

__all__ = [
    "AlgorithmResult",
    "host_record",
    "run_algorithms",
    "time_call",
    "format_table",
    "format_relative_table",
    "format_series",
]
