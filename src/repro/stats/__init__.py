"""Metrics (substrate S10): goodput, Jain fairness, time series."""

from .fairness import jain_index, worst_case_index
from .throughput import goodput_kbps
from .timeseries import differentiate, resample, time_average, value_at

__all__ = [
    "differentiate",
    "goodput_kbps",
    "jain_index",
    "resample",
    "time_average",
    "value_at",
    "worst_case_index",
]
