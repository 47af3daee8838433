"""The batch rebuilds build the same state on the dense and the CSR kernel.

Every rebuild-style ``_batch_hook`` dispatches its whole-graph products to
dense BLAS or to the CSR SpGEMM kernel.  The kernel is a performance choice
only: after the same windows, every maintained :class:`CountMatrix` must be
equal under ``backend="dense"`` and ``backend="csr"``, and the operation
charges of each backend must stay at their recorded values (a dense product
charges ``n^3``, a CSR product its expansion size).
"""

from __future__ import annotations

import pytest

from repro.api import counter_spec
from repro.graph.updates import EdgeUpdate

from tests.conftest import random_dynamic_stream

#: Maintained matrices per counter, read off the counter (``oracle.`` reads
#: off its 3-path oracle).
MATRICES = {
    "wedge": ("_wedges",),
    "hhh22": ("_wedges_low", "_wedges_high", "_paths_ll"),
    "phase-fmm": ("oracle._product_ab", "oracle._product_bc", "oracle._product_abc"),
    "assadi-shah": (
        "oracle._product_ab",
        "oracle._product_bc",
        "oracle._product_abc",
        "oracle._wedges_a_sparse_b",
        "oracle._wedges_b_sparse_c",
    ),
}

OPTIONS = {"wedge": {"incremental": False}}

#: ``(batch_rebuild, batch_recount)`` after both windows, per backend.
GOLDEN_CHARGES = {
    ("wedge", "dense"): (54000, 0),
    ("wedge", "csr"): (2222, 0),
    ("hhh22", "dense"): (216000, 0),
    ("hhh22", "csr"): (8387, 0),
    ("phase-fmm", "dense"): (108000, 54000),
    ("phase-fmm", "csr"): (9527, 2222),
    ("assadi-shah", "dense"): (162000, 54000),
    ("assadi-shah", "csr"): (11749, 2222),
}


def _windows():
    stream = list(random_dynamic_stream(num_vertices=30, num_updates=320, seed=14))
    return [stream[:224], stream[224:]]


def _run(name: str, backend: str):
    counter = counter_spec(name).create(backend=backend, **OPTIONS.get(name, {}))
    for window in _windows():
        counter.apply_batch(window)
    return counter


def _matrix(counter, path: str):
    owner = counter
    for attribute in path.split("."):
        owner = getattr(owner, attribute)
    return owner


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_rebuilt_state_is_equal_across_backends(name):
    dense = _run(name, "dense")
    csr = _run(name, "csr")
    assert dense.count == csr.count == dense.recount()
    for path in MATRICES[name]:
        assert _matrix(dense, path).nnz > 0, path
        assert _matrix(dense, path) == _matrix(csr, path), path


@pytest.mark.parametrize("name, backend", sorted(GOLDEN_CHARGES))
def test_rebuild_charges_match_recorded_values(name, backend):
    counter = _run(name, backend)
    charges = (counter.cost.get("batch_rebuild"), counter.cost.get("batch_recount"))
    assert charges == GOLDEN_CHARGES[(name, backend)]


@pytest.mark.parametrize(
    "name, dense_rebuild", [("phase-fmm", 2), ("assadi-shah", 3)]
)
@pytest.mark.parametrize("backend", ["auto", "csr", "dense"])
def test_window_that_empties_the_graph(name, dense_rebuild, backend):
    """An emptied graph costs nothing on CSR; dense still charges its cubes."""
    counter = counter_spec(name).create(backend=backend)
    edges = [EdgeUpdate.insert(u, v) for u in range(10) for v in range(u + 1, 10)]
    counter.apply_batch(edges)
    before = (counter.cost.get("batch_rebuild"), counter.cost.get("batch_recount"))
    counter.apply_batch([EdgeUpdate.delete(update.u, update.v) for update in edges])
    spent = (
        counter.cost.get("batch_rebuild") - before[0],
        counter.cost.get("batch_recount") - before[1],
    )
    cube = 10 ** 3
    assert spent == ((dense_rebuild * cube, cube) if backend == "dense" else (0, 0))
    assert counter.count == 0 and counter.is_consistent()
