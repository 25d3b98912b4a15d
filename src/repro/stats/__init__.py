"""Metrics (substrate S10): Jain fairness, time series.

Goodput is :meth:`repro.traffic.FtpFlow.goodput_kbps`; periodic sampling is
:class:`repro.obs.probe.TimeseriesProbe`, whose cumulative delivered-bytes
series :func:`~repro.stats.timeseries.differentiate` turns into the
Fig. 5.19–5.22 dynamics.
"""

from .fairness import jain_index
from .timeseries import differentiate, resample, time_average, value_at

__all__ = [
    "differentiate",
    "jain_index",
    "resample",
    "time_average",
    "value_at",
]
