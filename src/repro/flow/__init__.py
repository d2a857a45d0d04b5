"""End-to-end FDR estimation flow (the paper's Fig. 1) plus text rendering."""

from .estimation import FdrEstimator, FlowReport, run_reference_flow
from .textview import ascii_series_plot, ascii_xy_plot, format_table, series_to_csv

__all__ = [
    "FdrEstimator",
    "FlowReport",
    "run_reference_flow",
    "ascii_series_plot",
    "ascii_xy_plot",
    "format_table",
    "series_to_csv",
]
