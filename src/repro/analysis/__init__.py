"""Measurement and reporting helpers for experiments.

The telemetry model (see :mod:`.telemetry`): producers register
instruments in one :class:`MetricsRegistry` per world, histograms
stream log-bucketed samples in O(1), and phase windows slice any run
into before/during/after deltas.
"""
