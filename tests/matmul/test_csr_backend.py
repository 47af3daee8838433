"""Tests for the CSR SpGEMM kernel, its backend, and the dispatcher.

The load-bearing property: ``CsrBackend``, ``SparseBackend`` and
``DenseBackend`` compute the *same product* on any pair of integer matrices —
the CSR path is a pure acceleration, never an approximation.  Hypothesis
drives the equivalence over random matrices including empty operands,
single-row shapes, negative/cancelling values, and high-collision middles
(many entries sharing one middle label); unit tests pin the kernel mechanics
(row blocking, merge-strategy selection, COO coalescing) and the
density-aware dispatcher.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.kernels import dense_product
from repro.matmul.engine import (
    CountMatrix,
    CsrBackend,
    CsrMatrix,
    DenseBackend,
    MatmulEngine,
    SparseBackend,
    csr_linear_combination,
    csr_spgemm,
    spgemm_work,
)
from repro.matmul.scheduler import ProductDispatcher

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def entries_strategy(row_prefix: str, column_prefix: str, max_dim: int = 7):
    """Random (row, column) -> value maps over small label universes."""
    coordinate = st.tuples(
        st.integers(0, max_dim - 1), st.integers(0, max_dim - 1)
    )
    return st.dictionaries(
        coordinate, st.integers(-4, 4).filter(bool), max_size=30
    ).map(
        lambda entries: CountMatrix(
            {
                (f"{row_prefix}{i}", f"{column_prefix}{j}"): value
                for (i, j), value in entries.items()
            }
        )
    )


@PROPERTY_SETTINGS
@given(left=entries_strategy("r", "m"), right=entries_strategy("m", "c"))
def test_backends_agree_on_random_matrices(left, right):
    sparse_result, sparse_stats = SparseBackend().multiply(left, right)
    csr_result, csr_stats = CsrBackend().multiply(left, right)
    dense_result, _ = DenseBackend().multiply(left, right)
    assert csr_result == sparse_result
    assert dense_result == sparse_result
    # The expansion work is backend-independent.
    assert csr_stats.multiplications == sparse_stats.multiplications
    assert csr_stats.output_nnz == sparse_result.nnz


@PROPERTY_SETTINGS
@given(
    left=entries_strategy("r", "m"),
    right=entries_strategy("m", "c"),
    block_entries=st.sampled_from([1, 3, 17, 1 << 22]),
)
def test_row_blocking_never_changes_the_product(left, right, block_entries):
    expected, _ = SparseBackend().multiply(left, right)
    blocked, _ = CsrBackend(block_entries=block_entries).multiply(left, right)
    assert blocked == expected


def _positional(matrix: CountMatrix, rows: int, columns: int) -> CsrMatrix:
    """``matrix`` (labels ``<prefix><index>``) as a ``rows x columns`` CsrMatrix."""
    triples = [(int(r[1:]), int(c[1:]), value) for r, c, value in matrix.items()]
    if not triples:
        return CsrMatrix.empty(rows, columns)
    row_ids, col_ids, data = (np.array(part, dtype=np.int64) for part in zip(*triples))
    return CsrMatrix.from_coo(row_ids, col_ids, data, rows, columns)


@PROPERTY_SETTINGS
@given(
    left=entries_strategy("r", "m", max_dim=5),
    right=entries_strategy("m", "c", max_dim=7),
)
def test_dense_product_matches_spgemm(left, right):
    """The dense kernel takes and returns CSR: same product, cube work."""
    left_csr, right_csr = _positional(left, 5, 7), _positional(right, 7, 7)
    product, work = dense_product(left_csr, right_csr)
    expected, _ = csr_spgemm(left_csr, right_csr)
    assert work == 5 * 7 * 7
    for field in ("indptr", "cols", "data"):
        assert np.array_equal(getattr(product, field), getattr(expected, field)), field
    assert product.num_cols == expected.num_cols
    with pytest.raises(DimensionMismatchError):
        dense_product(left_csr, left_csr)


@PROPERTY_SETTINGS
@given(entries=entries_strategy("m", "c", max_dim=5))
def test_high_collision_middles(entries):
    """Every left entry funnels through one middle label: maximal collisions."""
    left = CountMatrix({(f"r{i}", "m0"): i + 1 for i in range(6)})
    right = CountMatrix()
    for _, column, value in entries.items():
        right.add("m0", column, value)
    expected, _ = SparseBackend().multiply(left, right)
    result, _ = CsrBackend().multiply(left, right)
    assert result == expected


class TestCsrBackendEdgeCases:
    def test_empty_operands(self):
        empty = CountMatrix()
        result, stats = CsrBackend().multiply(empty, empty)
        assert result.nnz == 0 and stats.multiplications == 0
        result, _ = CsrBackend().multiply(empty, CountMatrix({(1, 2): 1}))
        assert result.nnz == 0
        result, _ = CsrBackend().multiply(CountMatrix({(1, 2): 1}), empty)
        assert result.nnz == 0

    def test_single_row_and_column(self):
        left = CountMatrix({("r", "m"): 3})
        right = CountMatrix({("m", "c"): -2})
        result, stats = CsrBackend().multiply(left, right)
        assert result.get("r", "c") == -6
        assert stats.multiplications == 1
        assert stats.backend == "csr"

    def test_disjoint_middles_produce_nothing(self):
        left = CountMatrix({("r", "m1"): 1})
        right = CountMatrix({("m2", "c"): 1})
        result, _ = CsrBackend().multiply(left, right)
        assert result.nnz == 0

    def test_cancellation_drops_entries(self):
        left = CountMatrix({("r", "a"): 1, ("r", "b"): 1})
        right = CountMatrix({("a", "c"): 5, ("b", "c"): -5})
        result, _ = CsrBackend().multiply(left, right)
        assert result.nnz == 0

    def test_large_values_stay_exact(self):
        # Above the float64-exact window (2^53) but inside int64 — the
        # bincount merge must step aside for the exact sort-reduce path.
        big = 1 << 29
        left = CountMatrix({("r", f"m{k}"): big for k in range(8)})
        right = CountMatrix({(f"m{k}", "c"): big for k in range(8)})
        result, _ = CsrBackend().multiply(left, right)
        assert result.get("r", "c") == 8 * big * big  # 2^61, not float64-exact

    def test_engine_accepts_csr_backend(self):
        engine = MatmulEngine()
        left = CountMatrix({("a", "m"): 2})
        right = CountMatrix({("m", "b"): 3})
        assert engine.multiply(left, right, backend="csr").get("a", "b") == 6
        with pytest.raises(ConfigurationError):
            engine.multiply(left, right, backend="quantum")


class TestCsrMatrix:
    def _random_pair(self, seed):
        rng = np.random.default_rng(seed)
        dense = rng.integers(-3, 4, size=(11, 9))
        dense[rng.random((11, 9)) < 0.5] = 0
        rows, cols = np.nonzero(dense)
        return dense, CsrMatrix.from_coo(rows, cols, dense[rows, cols], 11, 9)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coo_round_trip_and_helpers(self, seed):
        dense, matrix = self._random_pair(seed)
        assert (matrix.to_dense() == dense).all()
        assert (matrix.transpose().to_dense() == dense.T).all()
        assert (matrix.row_sums() == dense.sum(axis=1)).all()
        column_mask = np.arange(9) % 2 == 0
        assert (matrix.filter_columns(column_mask).to_dense() == dense * column_mask).all()
        row_mask = np.arange(11) < 5
        assert (matrix.filter_rows(row_mask).to_dense() == dense * row_mask[:, None]).all()
        scale = np.arange(11, dtype=np.int64) % 3
        assert (matrix.scale_rows(scale).to_dense() == dense * scale[:, None]).all()

    def test_from_coo_coalesces_and_cancels(self):
        rows = np.array([0, 0, 1, 1])
        cols = np.array([2, 2, 0, 0])
        data = np.array([3, 4, 5, -5])
        matrix = CsrMatrix.from_coo(rows, cols, data, 2, 3)
        assert matrix.nnz == 1
        assert matrix.to_dense()[0, 2] == 7

    def test_without_diagonal(self):
        dense = np.array([[1, 2], [3, 4]])
        rows, cols = np.nonzero(dense)
        matrix = CsrMatrix.from_coo(rows, cols, dense[rows, cols], 2, 2)
        trimmed = matrix.without_diagonal().to_dense()
        assert trimmed.tolist() == [[0, 2], [3, 0]]

    def test_linear_combination(self):
        dense_a, a = self._random_pair(3)
        dense_b, b = self._random_pair(4)
        combined = csr_linear_combination([(2, a), (-1, b)], 11, 9)
        assert (combined.to_dense() == 2 * dense_a - dense_b).all()
        with pytest.raises(DimensionMismatchError):
            csr_linear_combination([(1, a)], 5, 5)

    def test_spgemm_matches_dense_and_reports_work(self):
        dense_a, a = self._random_pair(5)
        dense_b = np.arange(9 * 6).reshape(9, 6) % 4 - 1
        rows, cols = np.nonzero(dense_b)
        b = CsrMatrix.from_coo(rows, cols, dense_b[rows, cols], 9, 6)
        for block in (1, 4, 1 << 22):
            product, work = csr_spgemm(a, b, block_entries=block)
            assert (product.to_dense() == dense_a @ dense_b).all()
            assert work == spgemm_work(a, b)
        with pytest.raises(DimensionMismatchError):
            csr_spgemm(a, a)


class TestDispatcher:
    def test_explicit_backends_are_pinned(self):
        assert ProductDispatcher(backend="dense").decide(10, 10, 10, 10 ** 9).backend == "dense"
        assert ProductDispatcher(backend="csr").decide(10, 10, 10, 0).backend == "csr"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ProductDispatcher(backend="quantum")

    def test_auto_prefers_csr_on_sparse_and_dense_on_dense(self):
        dispatcher = ProductDispatcher()
        n = 4096
        sparse_work = 10 * n  # a few entries per row
        assert dispatcher.decide_square(n, sparse_work).backend == "csr"
        dense_work = n * n * 64  # dense-ish operands
        assert dispatcher.decide_square(256, 256 * 256 * 64).backend == "dense"
        assert dispatcher.decide_square(n, dense_work).costs["dense"] > 0

    def test_memory_cap_forces_csr(self):
        dispatcher = ProductDispatcher(dense_cells_limit=1 << 10)
        # Tiny work but a huge dense footprint: the cap must win.
        assert dispatcher.decide_square(10 ** 6, 100).backend == "csr"


class TestDenseBackendAlignment:
    def test_aligned_middle_orders_skip_remap(self):
        """Chained products share the middle label order; the cached dense
        backend must produce the same product through its aligned fast path."""
        left = CountMatrix()
        right = CountMatrix()
        for k in range(6):
            left.add("r", f"m{k}", k + 1)
            right.add(f"m{k}", "c", 2 * k + 1)
        assert left.csr().col_order == right.csr().row_order
        result, _ = DenseBackend().multiply(left, right)
        expected, _ = SparseBackend().multiply(left, right)
        assert result == expected

    def test_misaligned_orders_still_agree(self):
        left = CountMatrix({("r", "m1"): 2, ("r", "m0"): 3})
        right = CountMatrix({("m0", "c"): 5, ("m1", "c"): 7, ("mX", "c"): 11})
        result, _ = DenseBackend().multiply(left, right)
        expected, _ = SparseBackend().multiply(left, right)
        assert result == expected


class TestAddRow:
    def test_add_row_matches_pointwise_adds(self):
        bulk = CountMatrix({("a", "x"): 1})
        pointwise = bulk.copy()
        columns = ["x", "y", "z", "y"]
        deltas = [-1, 2, 3, 4]
        bulk.add_row("a", columns, deltas)
        for column, delta in zip(columns, deltas):
            pointwise.add("a", column, delta)
        assert bulk == pointwise
        assert bulk.nnz == pointwise.nnz
        assert bulk.column_labels() == pointwise.column_labels()

    def test_add_row_scalar_delta_and_row_cleanup(self):
        matrix = CountMatrix()
        matrix.add_row("a", ["x", "y"], 2)
        assert matrix.get("a", "x") == 2 and matrix.get("a", "y") == 2
        matrix.add_row("a", ["x", "y"], -2)
        assert matrix.nnz == 0
        assert not matrix.row_labels()

    def test_add_row_noops(self):
        matrix = CountMatrix({("a", "x"): 1})
        version = matrix.version
        matrix.add_row("a", [], [1])
        matrix.add_row("a", ["x"], 0)
        assert matrix.version == version
        assert matrix.get("a", "x") == 1
