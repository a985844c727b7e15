"""Simulation substrate: kernel, topology, network, transport, RPC.

This package replaces the real Internet that the GDN paper deployed on
with a deterministic discrete-event model: a run is a pure function of
its seed, which no deployment on real networks can offer.
"""
