"""Spreading old-phase matrix products over the updates of a phase.

Section 5.1 of the paper: a phase is ``m^{1-delta}`` updates, long enough that
the full product of the old-phase matrices (dimension ``m^{2/3+2eps}``) can be
computed within the phase while only doing ``O(m^{2/3-eps})`` work per update.
That is what turns an amortized argument into a *worst-case* bound: the matrix
product is started when a phase begins and advanced a bounded amount on every
update ("Continue the matrix multiplication computation for O(m^{2/3-eps})
steps" — Algorithm 2, Step 2).

This module provides the machinery:

* :class:`IncrementalMatrixProduct` — one product ``L · R`` computed row block
  by row block, with explicit operation accounting.  The accounting is the
  combinatorial cost of the sparse row-times-matrix product (one unit per
  multiply-add, whole rows in ``repr`` order); the execution is one
  Gustavson CSR SpGEMM call (:func:`repro.matmul.engine.csr_spgemm`) per
  :meth:`~IncrementalMatrixProduct.advance`, over the block of rows that the
  budget covers.
* :class:`ChainProductJob` — a chain ``M1 · M2 · ... · Mk`` computed as a
  sequence of incremental products (the second product starts once the first
  is complete).  Intermediate products stay in CSR form
  (:class:`LabelledCsr`); only the final one becomes a :class:`CountMatrix`,
  when it is read.  A single-matrix chain is complete on submission, which
  is how products a bulk rebuild has already computed enter a phase.
* :class:`PhaseScheduler` — a queue of jobs advanced by a fixed per-update
  work budget; the counters call :meth:`PhaseScheduler.work` once per update.
* :class:`ProductDispatcher` — the density-aware dense-BLAS versus CSR-SpGEMM
  decision, built on the constant-aware cost model of
  :mod:`repro.matmul.omega`.  Each batch rebuild and each ``recount()``
  makes one decision for ``A @ A`` and runs every product it needs on the
  chosen kernel; the operands are CSR either way
  (:func:`repro.kernels.dense_product` is the dense kernel).

The scheduler is deliberately agnostic about what the products mean; the
counters decide which snapshots to multiply and read the results once
:meth:`ChainProductJob.is_complete` is true (i.e. at the phase boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterator, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError, CounterStateError
from repro.kernels import CsrMatrix
from repro.matmul.engine import CountMatrix, csr_spgemm, middle_positions
from repro.matmul.omega import product_cost_estimates

Label = Hashable


@dataclass(frozen=True)
class LabelledCsr:
    """A positional :class:`CsrMatrix` plus the labels naming its axes.

    The form a chain stage's product takes on its way to the next stage:
    ``row_labels[i]``/``col_labels[j]`` name row ``i``/column ``j``, every
    row is non-empty, and rows follow the scheduler's ``repr`` order.  Only a
    product that is read as a :class:`CountMatrix` is ever converted.
    """

    matrix: CsrMatrix
    row_labels: List[Label]
    col_labels: List[Label]

    def to_count_matrix(self) -> CountMatrix:
        return CountMatrix.from_csr(self.matrix, self.row_labels, self.col_labels)


class IncrementalMatrixProduct:
    """Computes ``left · right`` one block of rows at a time with work accounting.

    The unit of work is one scalar multiply-add of the sparse row-times-matrix
    product: a row costs ``sum over its entries of max(nnz(right row), 1)``
    (at least 1), so a left column with no matching right row still costs one
    probe.  Rows are processed in ``repr`` order of their labels, and
    :meth:`advance` takes whole rows until ``budget`` units are used or
    exceeded.  Rows whose work exceeds the remaining budget are still finished
    atomically (a single row is the smallest indivisible step), which at most
    doubles the per-call work — the same slack the paper's big-O analysis
    absorbs.

    The accounting is combinatorial, the execution is not: the rows one
    :meth:`advance` covers are found by ``searchsorted`` over a prefix sum of
    per-row work and multiplied in one :func:`csr_spgemm` call over the
    operands' interned CSR exports, so a call costs a few numpy passes rather
    than one interpreted multiply-add per unit.  ``left`` is a
    :class:`CountMatrix` or the :class:`LabelledCsr` product of an earlier
    chain stage; the exports are built on the first :meth:`advance`, not at
    construction.
    """

    def __init__(self, left: CountMatrix | LabelledCsr, right: CountMatrix) -> None:
        self._left = left
        self._right = right
        self._num_rows = (
            left.num_row_labels if isinstance(left, CountMatrix) else len(left.row_labels)
        )
        self._position = 0
        self._operations_done = 0
        # Built by _prepare() on the first advance.
        self._row_work: Optional[np.ndarray] = None
        self._left_matrix: Optional[CsrMatrix] = None
        self._right_matrix: Optional[CsrMatrix] = None
        self._row_labels: List[Label] = []
        self._col_labels: List[Label] = []
        self._blocks: List[CsrMatrix] = []
        self._product: Optional[LabelledCsr] = None
        self._result: Optional[CountMatrix] = None

    @property
    def result(self) -> CountMatrix:
        """The (possibly partial) product computed so far."""
        if self._result is not None:
            return self._result
        if self._product is not None:
            self._result = self._product.to_count_matrix()
            return self._result
        if self._left_matrix is None:
            return CountMatrix()
        partial = _stack_row_blocks(
            self._blocks, self._left_matrix.num_rows, len(self._col_labels)
        )
        return CountMatrix.from_csr(partial, self._row_labels, self._col_labels)

    @property
    def product(self) -> LabelledCsr:
        """The finished product in CSR form; only valid once complete."""
        if not self.is_complete:
            raise CounterStateError("the incremental product is not complete yet")
        if self._product is None:
            # Only an empty left operand completes without an advance.
            self._product = LabelledCsr(CsrMatrix.empty(0, 0), [], [])
        return self._product

    @property
    def operations_done(self) -> int:
        return self._operations_done

    @property
    def is_complete(self) -> bool:
        return self._position >= self._num_rows

    def remaining_rows(self) -> int:
        return self._num_rows - self._position

    def advance(self, budget: int) -> int:
        """Perform up to ``budget`` multiply-adds; return the amount done."""
        if budget < 0:
            raise ConfigurationError(f"budget must be non-negative, got {budget}")
        if budget == 0 or self._position >= self._num_rows:
            return 0
        if self._row_work is None:
            self._prepare()
        row_work = self._row_work
        left = self._left_matrix
        assert row_work is not None and left is not None and self._right_matrix is not None
        start = self._position
        stop = min(int(np.searchsorted(row_work, row_work[start] + budget)), self._num_rows)
        first, last = int(left.indptr[start]), int(left.indptr[stop])
        block = CsrMatrix.from_parts(
            left.indptr[start:stop + 1] - first,
            left.cols[first:last],
            left.data[first:last],
            left.num_cols,
        )
        self._blocks.append(csr_spgemm(block, self._right_matrix)[0])
        self._position = stop
        if stop == self._num_rows:
            self._product = _compress_rows(
                _stack_row_blocks(self._blocks, stop, len(self._col_labels)),
                self._row_labels,
                self._col_labels,
            )
            self._blocks = []
        done = int(row_work[stop] - row_work[start])
        self._operations_done += done
        return done

    def run_to_completion(self) -> int:
        """Finish the whole product immediately; return the work performed."""
        done = 0
        while not self.is_complete:
            done += self.advance(1 << 30)
        return done

    def _prepare(self) -> None:
        """Export both operands to CSR and price every left row.

        The left rows are put in ``repr`` order of their labels, the middle
        axis is aligned onto the right operand's row positions, and left
        entries with no matching right row are priced at one unit and then
        dropped (they multiply an all-zero row).
        """
        right = self._right.csr()
        if isinstance(self._left, CountMatrix):
            exported = self._left.csr()
            left, self._row_labels = _rows_in_repr_order(
                CsrMatrix.from_parts(
                    exported.indptr, exported.col_ids, exported.data, len(exported.col_order)
                ),
                exported.row_order,
            )
            left_columns = exported.col_order
        else:
            left = self._left.matrix
            self._row_labels = self._left.row_labels
            left_columns = self._left.col_labels
        self._col_labels = right.col_order
        middles = len(right.row_order)
        mapping = middle_positions(left_columns, right.row_order)
        mapped = left.cols if mapping is None else mapping[left.cols]
        # A missing middle row (position -1) reads the trailing 1.
        entry_work = np.append(np.diff(right.indptr), 1)[mapped]
        entry_prefix = np.zeros(len(mapped) + 1, dtype=np.int64)
        np.cumsum(entry_work, out=entry_prefix[1:])
        row_work = np.maximum(entry_prefix[left.indptr[1:]] - entry_prefix[left.indptr[:-1]], 1)
        self._row_work = np.zeros(len(row_work) + 1, dtype=np.int64)
        np.cumsum(row_work, out=self._row_work[1:])
        self._left_matrix = CsrMatrix.from_parts(
            left.indptr, mapped, left.data, middles
        ).filter_entries(mapped >= 0)
        self._right_matrix = CsrMatrix.from_parts(
            right.indptr, right.col_ids, right.data, len(right.col_order)
        )


class ChainProductJob:
    """A chain product ``M1 · M2 · ... · Mk`` computed incrementally.

    The chain is evaluated left to right: the product of the first two
    matrices is computed incrementally; when it completes, an incremental
    product of the partial result with the next matrix starts, and so on.
    Partial products pass from stage to stage in CSR form; only the final
    product is converted to a :class:`CountMatrix`, on the first read of
    :attr:`result`.  A single-matrix chain is complete from the start — it is
    how a product that is already known enters the scheduler.  ``name``
    identifies the job (e.g. ``"A_old*B_old*C_old"``) for diagnostics.
    """

    def __init__(self, matrices: List[CountMatrix], name: str = "chain") -> None:
        if not matrices:
            raise ConfigurationError("ChainProductJob requires at least one matrix")
        self.name = name
        self._matrices = list(matrices)
        self._stage_index = 0
        self._operations_done = 0
        self._final: Optional[LabelledCsr] = None
        self._result: Optional[CountMatrix] = None
        if len(self._matrices) == 1:
            self._current: Optional[IncrementalMatrixProduct] = None
            self._result = self._matrices[0]
        else:
            self._current = IncrementalMatrixProduct(self._matrices[0], self._matrices[1])

    @property
    def operations_done(self) -> int:
        return self._operations_done

    @property
    def is_complete(self) -> bool:
        return self._current is None

    @property
    def estimated_operations(self) -> int:
        """A crude upper estimate of the chain's total work, for budgeting:
        each product is charged ``nnz(left) * nnz(right)``, with the left nnz
        of later stages taken as the largest operand nnz so far."""
        total = 0
        previous_nnz = self._matrices[0].nnz
        for matrix in self._matrices[1:]:
            nnz = matrix.nnz
            total += max(previous_nnz, 1) * max(nnz, 1)
            previous_nnz = max(previous_nnz, nnz)
        return max(total, 1)

    @property
    def result(self) -> CountMatrix:
        """The final product; only valid once :attr:`is_complete` is true."""
        if not self.is_complete:
            raise CounterStateError(
                f"chain product {self.name!r} is not complete yet; "
                "the result can only be read at the phase boundary"
            )
        if self._result is None:
            assert self._final is not None
            self._result = self._final.to_count_matrix()
            self._final = None
        return self._result

    def advance(self, budget: int) -> int:
        """Advance the chain by up to ``budget`` units of work."""
        done = 0
        while self._current is not None and done < budget:
            done += self._current.advance(budget - done)
            if self._current.is_complete:
                partial = self._current.product
                next_index = self._stage_index + 2
                if next_index < len(self._matrices):
                    self._current = IncrementalMatrixProduct(partial, self._matrices[next_index])
                    self._stage_index += 1
                else:
                    self._final = partial
                    self._current = None
        self._operations_done += done
        return done

    def run_to_completion(self) -> int:
        """Finish the whole chain immediately; return the work performed."""
        done = 0
        while not self.is_complete:
            done += self.advance(budget=1 << 30)
        return done


def _rows_in_repr_order(
    matrix: CsrMatrix, labels: List[Label]
) -> tuple[CsrMatrix, List[Label]]:
    """``matrix`` with its rows permuted into ``repr`` order of their
    ``labels``, and the labels in that order."""
    keys = [repr(label) for label in labels]
    positions = sorted(range(len(keys)), key=keys.__getitem__)
    order = np.array(positions, dtype=np.int64)
    lengths = np.diff(matrix.indptr)[order]
    indptr = np.zeros(len(order) + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    entries = np.repeat(matrix.indptr[:-1][order] - indptr[:-1], lengths)
    entries += np.arange(matrix.nnz, dtype=np.int64)
    permuted = CsrMatrix.from_parts(
        indptr, matrix.cols[entries], matrix.data[entries], matrix.num_cols
    )
    return permuted, [labels[i] for i in positions]


def _stack_row_blocks(blocks: List[CsrMatrix], num_rows: int, num_cols: int) -> CsrMatrix:
    """Stack consecutive row blocks (from row 0 on) into one ``num_rows``-row
    matrix; rows past the last block are empty."""
    indptrs = [np.zeros(1, dtype=np.int64)]
    nnz = 0
    for block in blocks:
        indptrs.append(block.indptr[1:] + nnz)
        nnz += block.nnz
    covered = sum(block.num_rows for block in blocks)
    indptrs.append(np.full(num_rows - covered, nnz, dtype=np.int64))
    empty = np.empty(0, dtype=np.int64)
    return CsrMatrix.from_parts(
        np.concatenate(indptrs),
        np.concatenate([empty] + [block.cols for block in blocks]),
        np.concatenate([empty] + [block.data for block in blocks]),
        num_cols,
    )


def _compress_rows(
    matrix: CsrMatrix, row_labels: List[Label], col_labels: List[Label]
) -> LabelledCsr:
    """Drop the empty rows of ``matrix`` along with their labels."""
    nonempty = np.flatnonzero(np.diff(matrix.indptr))
    if len(nonempty) == matrix.num_rows:
        return LabelledCsr(matrix, row_labels, col_labels)
    indptr = np.concatenate((np.zeros(1, dtype=np.int64), matrix.indptr[1:][nonempty]))
    return LabelledCsr(
        CsrMatrix.from_parts(indptr, matrix.cols, matrix.data, matrix.num_cols),
        [row_labels[i] for i in nonempty.tolist()],
        col_labels,
    )


@dataclass
class PhaseScheduler:
    """A queue of chain-product jobs advanced by a per-update work budget.

    The counters register the old-phase products at a phase boundary with
    :meth:`submit` and call :meth:`work` once per update with the budget
    ``O(m^{2/3 - eps})``; :meth:`all_complete` reports whether every job has
    finished (which the paper's phase-length constraint, Eq. (9), guarantees
    by the end of the phase).
    """

    budget_per_update: int = 0
    _jobs: List[ChainProductJob] = field(default_factory=list)
    total_operations: int = 0
    updates_seen: int = 0

    def submit(self, job: ChainProductJob) -> None:
        """Register a job to be advanced by subsequent :meth:`work` calls."""
        self._jobs.append(job)

    def clear(self) -> None:
        """Drop all jobs (used when a phase is abandoned, e.g. on reset)."""
        self._jobs.clear()

    def jobs(self) -> Iterator[ChainProductJob]:
        return iter(self._jobs)

    def pending_jobs(self) -> List[ChainProductJob]:
        return [job for job in self._jobs if not job.is_complete]

    def all_complete(self) -> bool:
        return all(job.is_complete for job in self._jobs)

    def work(self, budget: Optional[int] = None) -> int:
        """Advance pending jobs by ``budget`` units (default: the per-update
        budget set at construction time); return the work performed."""
        allowance = self.budget_per_update if budget is None else budget
        if allowance < 0:
            raise ConfigurationError(f"budget must be non-negative, got {allowance}")
        self.updates_seen += 1
        done = 0
        for job in self._jobs:
            if done >= allowance:
                break
            if not job.is_complete:
                done += job.advance(allowance - done)
        self.total_operations += done
        return done

    def finish_all(self) -> int:
        """Run every pending job to completion (used at phase boundaries when
        the remaining work must be flushed, and in tests)."""
        done = 0
        for job in self._jobs:
            if not job.is_complete:
                done += job.run_to_completion()
        self.total_operations += done
        return done


# ---------------------------------------------------------------------------
# Density-aware product dispatch
# ---------------------------------------------------------------------------
#: Backend names a dispatcher (and the counters' ``backend`` option) accepts.
PRODUCT_BACKENDS = ("auto", "dense", "csr")


@dataclass(frozen=True)
class ProductDecision:
    """Outcome of one dispatch: the chosen kernel and its cost estimates."""

    backend: str
    costs: Dict[str, float]

    @property
    def cost(self) -> float:
        """The estimated cost of the chosen backend, in dense-flop units."""
        return self.costs[self.backend]


@dataclass(frozen=True)
class ProductDispatcher:
    """Chooses dense BLAS or CSR SpGEMM for a whole-graph matrix product.

    The counters' batched rebuild hooks describe each product by its trimmed
    dimensions and the exact SpGEMM expansion size (``nnz``-weighted work,
    :func:`repro.matmul.engine.spgemm_work`) and dispatch through
    :meth:`decide`.  The decision applies Claim 3.4 beyond empty rows: the
    dense cube ``rows * middles * columns`` is compared against the expansion
    work at calibrated per-operation constants
    (:func:`repro.matmul.omega.product_cost_estimates`), so sparse graphs run
    the Gustavson kernel and dense ones keep BLAS.  ``dense_cells_limit``
    caps the dense operand/product sizes the automatic mode may materialize —
    beyond it the CSR path is forced regardless of estimated speed, bounding
    peak memory at million-vertex scale.  ``backend`` pins the choice
    (``"dense"``/``"csr"``); ``"auto"`` compares costs.

    ``workers > 1`` marks the CSR kernel as shard-parallel (see
    :class:`repro.matmul.sharding.ShardExecutor`): its estimate is divided by
    the parallelism the host can actually grant the pool, tilting the
    automatic choice toward the kernel that scales out.  The dense BLAS path
    keeps its serial estimate — its threading (if any) belongs to the BLAS
    library, not to this dispatcher.
    """

    backend: str = "auto"
    #: Never densify matrices with more cells than this in automatic mode
    #: (2^24 int64 cells = 128 MB per operand).
    dense_cells_limit: int = 1 << 24
    #: Shard-parallel worker count backing the CSR kernel (1 = serial).
    workers: int = 1

    def __post_init__(self) -> None:
        if self.backend not in PRODUCT_BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {', '.join(PRODUCT_BACKENDS)}, "
                f"got {self.backend!r}"
            )
        if self.workers < 1:
            raise ConfigurationError(f"workers must be positive, got {self.workers}")

    def _csr_parallelism(self) -> int:
        """How much the host can actually divide the CSR estimate by."""
        from repro.matmul.sharding import available_cores

        return max(1, min(self.workers, available_cores()))

    def decide(
        self, rows: int, middles: int, columns: int, expansion_work: int
    ) -> ProductDecision:
        """Pick the kernel for one ``rows x middles · middles x columns``
        product whose exact SpGEMM expansion size is ``expansion_work``."""
        costs = product_cost_estimates(rows, middles, columns, expansion_work)
        if self.workers > 1:
            costs = dict(costs, csr=costs["csr"] / self._csr_parallelism())
        if self.backend != "auto":
            return ProductDecision(backend=self.backend, costs=costs)
        largest_cells = max(rows * middles, middles * columns, rows * columns)
        if largest_cells > self.dense_cells_limit:
            return ProductDecision(backend="csr", costs=costs)
        if costs["csr"] <= costs["dense"]:
            return ProductDecision(backend="csr", costs=costs)
        return ProductDecision(backend="dense", costs=costs)

    def decide_square(self, size: int, expansion_work: int) -> ProductDecision:
        """Dispatch for a square ``size x size`` product (the adjacency case)."""
        return self.decide(size, size, size, expansion_work)
