"""Tests of the benchmark itself; tier 1 collects them from the repo root."""
