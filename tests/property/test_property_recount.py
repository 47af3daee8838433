"""Property tests (hypothesis): ``recount()`` agrees with both static counts.

On an interned graph ``recount()`` runs ``A @ A`` on the kernel the
dispatcher picks and reads the trace formula off its stored entries; on an
``interned=False`` graph it runs the dense trace formula.  Under every
backend it must equal wedge enumeration and the dense trace formula, on
random graphs, on the empty graph, and on a graph whose interned vertices
have all lost their edges.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import counter_spec
from repro.graph.static_counts import count_four_cycles_trace, count_four_cycles_wedges
from repro.graph.updates import EdgeUpdate

BACKENDS = ("auto", "dense", "csr")


def _counter(backend: str, interned: bool = True):
    return counter_spec("brute-force").create(backend=backend, interned=interned)


def _assert_recount_exact(counter) -> None:
    graph = counter.graph
    assert counter.recount() == count_four_cycles_wedges(graph) == count_four_cycles_trace(graph)
    assert counter.is_consistent()


@st.composite
def graphs(draw):
    """A random simple graph on up to 12 vertices, plus a deletion subset."""
    n = draw(st.integers(min_value=2, max_value=12))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    deleted = draw(st.lists(st.sampled_from(edges), unique=True)) if edges else []
    return edges, deleted


@settings(max_examples=40, deadline=None)
@given(graph=graphs(), backend=st.sampled_from(BACKENDS), interned=st.booleans())
def test_recount_matches_static_counts(graph, backend, interned):
    edges, deleted = graph
    counter = _counter(backend, interned)
    for u, v in edges:
        counter.insert_edge(u, v)
    _assert_recount_exact(counter)
    counter.apply_batch([EdgeUpdate.delete(u, v) for u, v in deleted])
    _assert_recount_exact(counter)


@pytest.mark.parametrize("interned", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
def test_recount_of_the_empty_graph(backend, interned):
    counter = _counter(backend, interned)
    assert counter.recount() == 0
    _assert_recount_exact(counter)


@pytest.mark.parametrize("interned", [True, False])
@pytest.mark.parametrize("backend", BACKENDS)
def test_recount_after_every_edge_is_deleted(backend, interned):
    counter = _counter(backend, interned)
    edges = list(itertools.combinations(range(6), 2))
    counter.apply_batch([EdgeUpdate.insert(u, v) for u, v in edges])
    assert counter.recount() == 45  # K6: C(6, 4) * 3
    counter.apply_batch([EdgeUpdate.delete(u, v) for u, v in edges])
    assert counter.num_vertices == 6 and counter.num_edges == 0
    assert counter.recount() == 0
    _assert_recount_exact(counter)
