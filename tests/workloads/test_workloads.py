"""Unit tests for workload generators."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.topology import Topology
from repro.workloads.packages import generate_corpus, synthetic_file
from repro.workloads.population import ClientPopulation
from repro.workloads.webtrace import make_web_trace
from repro.workloads.zipf import ZipfSampler


# -- Zipf ---------------------------------------------------------------------


def test_zipf_determinism():
    a = ZipfSampler(100, 1.0, random.Random(5))
    b = ZipfSampler(100, 1.0, random.Random(5))
    assert [a.sample() for _ in range(50)] == [b.sample() for _ in range(50)]


def test_zipf_skew():
    sampler = ZipfSampler(100, 1.2, random.Random(7))
    draws = [sampler.sample() for _ in range(5000)]
    top = sum(1 for rank in draws if rank < 10)
    assert top > len(draws) * 0.5  # head dominates


def _probabilities(sampler):
    """P(rank) for every rank, read off the sampler's CDF."""
    cdf = sampler._cdf
    return [high - low for low, high in zip([0.0] + cdf, cdf)]


def test_zipf_alpha_zero_is_uniform():
    sampler = ZipfSampler(10, 0.0, random.Random(3))
    assert _probabilities(sampler) == pytest.approx([0.1] * 10)


def test_zipf_probabilities_sum_to_one():
    sampler = ZipfSampler(50, 0.8, random.Random(1))
    weights = [1.0 / (rank + 1) ** 0.8 for rank in range(50)]
    assert _probabilities(sampler) == pytest.approx(
        [weight / sum(weights) for weight in weights])
    assert sum(_probabilities(sampler)) == pytest.approx(1.0)


def test_zipf_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0, random.Random(1))
    with pytest.raises(ValueError):
        ZipfSampler(10, -1.0, random.Random(1))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.0, max_value=3.0))
def test_zipf_samples_in_range_property(n, alpha):
    sampler = ZipfSampler(n, alpha, random.Random(11))
    for _ in range(20):
        assert 0 <= sampler.sample() < n


# -- packages --------------------------------------------------------------------


def test_synthetic_file_deterministic_and_sized():
    assert synthetic_file("a", 100) == synthetic_file("a", 100)
    assert synthetic_file("a", 100) != synthetic_file("b", 100)
    assert len(synthetic_file("x", 10)) == 10
    assert len(synthetic_file("x", 100_000)) == 100_000


def test_corpus_names_unique_and_hierarchical():
    corpus = generate_corpus(40, random.Random(2))
    names = [spec.name for spec in corpus]
    assert len(set(names)) == 40
    assert all(name.startswith("/apps/") for name in names)
    assert any("gimp" in name for name in names)


def test_corpus_materialization_matches_spec():
    spec = generate_corpus(3, random.Random(4))[0]
    files = spec.materialize()
    assert set(files) == set(spec.file_sizes)
    for path, data in files.items():
        assert len(data) == spec.file_sizes[path]
    assert spec.total_size == sum(len(d) for d in files.values())
    assert spec.largest_file in files


# -- populations -------------------------------------------------------------------


@pytest.fixture
def topology():
    return Topology.balanced(regions=3, countries=2, cities=1, sites=2)


def test_request_stream_sorted_and_typed(topology):
    population = ClientPopulation(topology, 10, random.Random(5),
                                  write_fraction=[0.5] * 10)
    stream = population.generate(200)
    times = [request.time for request in stream]
    assert times == sorted(times)
    kinds = {request.kind for request in stream}
    assert kinds == {"read", "write"}


def test_home_region_concentration(topology):
    population = ClientPopulation(topology, 1, random.Random(9),
                                  home_share=0.9)
    stream = population.generate(500)
    home = population.home_region[0].path
    by_region = stream.reads_by_region(0)
    assert by_region[home] > sum(by_region.values()) * 0.7


def test_writes_counted_per_object(topology):
    population = ClientPopulation(topology, 5, random.Random(6),
                                  write_fraction=[1.0, 0, 0, 0, 0])
    stream = population.generate(300)
    assert stream.writes(0) > 0
    assert stream.writes(1) == 0


# -- web trace -----------------------------------------------------------------------


def test_web_trace_shape(topology):
    documents, stream = make_web_trace(topology, random.Random(8),
                                       document_count=30,
                                       request_count=500)
    assert len(documents) == 30
    assert len(stream) == 500
    classes = {doc.update_class for doc in documents}
    assert "static" in classes
    # Hot documents actually receive writes; static ones never do.
    hot = [doc.index for doc in documents if doc.update_class == "hot"]
    static = [doc.index for doc in documents
              if doc.update_class == "static"]
    assert sum(stream.writes(index) for index in hot) > 0
    assert all(stream.writes(index) == 0 for index in static)


def test_web_trace_deterministic(topology):
    docs_a, stream_a = make_web_trace(topology, random.Random(3),
                                      document_count=10, request_count=100)
    docs_b, stream_b = make_web_trace(topology, random.Random(3),
                                      document_count=10, request_count=100)
    assert [d.size for d in docs_a] == [d.size for d in docs_b]
    assert [(r.time, r.kind, r.rank) for r in stream_a] == \
        [(r.time, r.kind, r.rank) for r in stream_b]


def test_request_region_derived_defensively():
    # Regression: a request's region hard-indexed ancestors()[3], which
    # raised IndexError for sites on shallower-than-5-level
    # hierarchies.  It must use the defensive region lookup instead.
    from repro.sim.topology import Domain, Level
    from repro.workloads.loadgen import Arrival
    from repro.workloads.population import RequestStream

    full = Topology.balanced(2, 1, 1, 2).site("r1/c0/m0/s1")
    city = Domain("metropolis", Level.CITY)
    shallow = Domain("campus", Level.SITE, city)
    stream = RequestStream([Arrival(0, 0.0, full, 0),
                            Arrival(1, 1.0, shallow, 0),  # must not raise
                            Arrival(2, 2.0, shallow, 0, "write")])
    assert stream.reads_by_region(0) == {"r1": 1,
                                         shallow.region().path: 1}
    assert stream.writes(0) == 1 and stream.writes(1) == 0


def test_request_stream_skips_sort_when_already_ordered():
    # RequestStream keeps already-ordered input in its order (a stable
    # sort) and sorts unordered input.
    from repro.workloads.loadgen import Arrival
    from repro.workloads.population import RequestStream

    site = Topology.balanced(1, 1, 1, 1).site("r0/c0/m0/s0")
    ordered = [Arrival(i, float(i), site, i) for i in range(10)]
    stream = RequestStream(ordered)
    assert [request.time for request in stream] == [float(i)
                                                    for i in range(10)]
    # Ties count as ordered (stable either way).
    tied = [Arrival(i, 1.0, site, i) for i in range(4)]
    assert [request.rank for request in RequestStream(tied)] \
        == [0, 1, 2, 3]

    shuffled = [Arrival(i, float(t), site, i)
                for i, t in enumerate([5, 2, 9, 1, 7])]
    resorted = RequestStream(shuffled)
    assert [request.time for request in resorted] == [1.0, 2.0, 5.0, 7.0, 9.0]


class _FixedDraws(random.Random):
    """A stream whose every ``random()`` draw is ``draw`` (and every
    document size 10 kB: a normal variate from a fixed draw may never
    be accepted)."""

    def __init__(self, draw):
        super().__init__(1)
        self.draw = draw

    def random(self):
        return self.draw

    def lognormvariate(self, mu, sigma):
        return 10_000.0


def test_a_draw_equal_to_a_share_falls_outside_it():
    topology = Topology.balanced(4, 1, 1, 1)
    population = ClientPopulation(topology, 4, _FixedDraws(0.75),
                                  home_share=0.75)
    stream = population.generate(5)
    assert all(request.site.region()
               is not population.home_region[request.rank]
               for request in stream)
    never = ClientPopulation(topology, 4, _FixedDraws(0.0),
                             write_fraction=[0.0] * 4)
    assert {request.kind for request in never.generate(5)} == {"read"}


def test_a_web_document_draw_on_a_class_bound_takes_the_next_class():
    from repro.workloads.webtrace import HOT_FRACTION, OCCASIONAL_FRACTION

    topology = Topology.balanced(2, 1, 1, 1)
    for draw, update_class in (
            (HOT_FRACTION, "occasional"),
            (HOT_FRACTION + OCCASIONAL_FRACTION, "static")):
        documents, _stream = make_web_trace(topology, _FixedDraws(draw),
                                            document_count=2,
                                            request_count=2)
        assert {document.update_class for document in documents} \
            == {update_class}


def test_zipf_draws_the_last_rank_when_float_drift_leaves_the_cdf_short():
    # Seven equal weights sum to 1 - 2**-52; the largest draw is above.
    sampler = ZipfSampler(7, alpha=0.0)
    assert sampler.sample(_FixedDraws(1.0 - 2.0 ** -53)) == 6
