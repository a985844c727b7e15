"""Workload generators: popularity, packages, populations, load."""
