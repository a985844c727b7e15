"""Measurement and reporting helpers for experiments.

The telemetry model (see :mod:`.telemetry`): producers register
instruments in one :class:`MetricsRegistry` per world, histograms
stream log-bucketed samples in O(1), and phase windows slice any run
into before/during/after deltas.
"""

from .metrics import Series, percentile
from .tables import Table, format_bytes, format_rate, format_seconds
from .telemetry import (Counter, Gauge, Histogram, MetricsRegistry,
                        PhaseWindow, TelemetryError)

__all__ = ["Series", "percentile", "Table",
           "format_bytes", "format_rate", "format_seconds",
           "Counter", "Gauge", "Histogram", "MetricsRegistry",
           "PhaseWindow", "TelemetryError"]
