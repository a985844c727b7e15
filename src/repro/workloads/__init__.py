"""Workload generators: popularity, packages, populations, load."""

from .cohort import AggregatedPopulation, CohortScenario, DiurnalProfile
from .loadgen import (Arrival, ArrivalSchedule, BurstSchedule,
                      FlashCrowdSchedule, LoadStats, PoissonSchedule,
                      UniformSchedule)
from .packages import PackageSpec, generate_corpus, synthetic_file
from .population import ClientPopulation, RequestStream
from .scenario import (ClosedLoopScenario, HybridScenario, OpenLoopScenario,
                       RequestMix, Scenario, Soak, SoakReport, TraceScenario)
from .webtrace import WebDocument, make_web_trace
from .zipf import ZipfSampler

__all__ = [
    "AggregatedPopulation", "CohortScenario", "DiurnalProfile",
    "Arrival", "ArrivalSchedule", "BurstSchedule", "FlashCrowdSchedule",
    "LoadStats", "PoissonSchedule", "UniformSchedule",
    "PackageSpec", "generate_corpus", "synthetic_file",
    "ClientPopulation", "RequestStream",
    "ClosedLoopScenario", "HybridScenario", "OpenLoopScenario",
    "RequestMix", "Scenario", "Soak", "SoakReport", "TraceScenario",
    "WebDocument", "make_web_trace", "ZipfSampler",
]
