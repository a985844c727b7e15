"""Baseline systems the GDN is evaluated against (§1, §3.1)."""
