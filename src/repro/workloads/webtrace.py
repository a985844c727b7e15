"""Synthetic departmental web trace (the Pierre et al. study, §3.1).

The paper's evidence for per-object replication scenarios: "We analyzed
the retrieval and update patterns of our department's Web pages and
found that, if we assign a replication scenario to each Web page that
reflects that page's individual usage and update patterns, we get
significant improvements … less wide-area network traffic … and the
response time for the end-user improved."

We cannot redistribute the VU trace, so this generator reproduces the
*heterogeneity* the study exploits (a documented substitution):
document popularity is Zipf; most documents change rarely while a
minority changes often; readership is regionally skewed per document.
The experiment then compares uniform strategies against per-document
assignment on exactly this trace.
"""

from __future__ import annotations

import random
from typing import List

from ..sim.topology import Topology
from .population import ClientPopulation, RequestStream

__all__ = ["WebDocument", "make_web_trace"]


class WebDocument:
    """One page of the departmental site."""

    __slots__ = ("index", "path", "size", "update_class")

    def __init__(self, index: int, path: str, size: int, update_class: str):
        self.index = index
        self.path = path
        self.size = size
        self.update_class = update_class  # "static" | "occasional" | "hot"

    def __repr__(self) -> str:
        return ("WebDocument(%s, %dB, %s)"
                % (self.path, self.size, self.update_class))


def make_web_trace(topology: Topology, rng: random.Random,
                   document_count: int = 60,
                   request_count: int = 3000,
                   alpha: float = 0.9,
                   home_share: float = 0.75,
                   hot_fraction: float = 0.10,
                   occasional_fraction: float = 0.25):
    """Build (documents, request stream) for the E5 experiment.

    Update classes give per-document write fractions: static pages
    never change, occasional ones rarely, hot ones (home pages, news)
    often — the heterogeneity that makes one-size-fits-all lose.
    """
    documents: List[WebDocument] = []
    write_fraction: List[float] = []
    for index in range(document_count):
        draw = rng.random()
        if draw < hot_fraction:
            update_class, fraction = "hot", 0.15
        elif draw < hot_fraction + occasional_fraction:
            update_class, fraction = "occasional", 0.02
        else:
            update_class, fraction = "static", 0.0
        size = max(512, int(rng.lognormvariate(9.2, 1.0)))  # ~10 KB median
        documents.append(WebDocument(
            index, "/www/doc%03d.html" % index, size, update_class))
        write_fraction.append(fraction)
    population = ClientPopulation(
        topology, document_count, rng, alpha=alpha, home_share=home_share,
        write_fraction=write_fraction)
    stream: RequestStream = population.generate(request_count,
                                                request_rate=20.0)
    return documents, stream
