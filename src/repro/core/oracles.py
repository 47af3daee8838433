"""Dynamic 3-path oracles over a chain of three relations.

The equivalent problem the paper solves (Section 2.2): maintain three binary
relations forming a chain ``L1 -A-> L2 -B-> L3 -C-> L4`` under tuple
insertions/deletions, and answer queries ``(u in L1, v in L4)`` asking for the
number of layered 3-paths from ``u`` to ``v`` — i.e. the entry
``(A · B · C)[u, v]``.  Both the layered 4-cycle counter (four oracle copies,
one per query relation) and the general-graph counters (one oracle via the
Section 8 reduction) are thin wrappers around such an oracle.

This module defines:

* :class:`ThreePathOracle` — the oracle interface plus the shared relation
  storage (forward/backward adjacency per chain position).
* :class:`NaiveThreePathOracle` — answers queries by neighborhood enumeration;
  the simplest exact oracle, used for cross-validation.
* :class:`PhaseThreePathOracle` — the phase + fast-matrix-multiplication
  decomposition at the core of the paper's main algorithm: old-phase products
  are precomputed with (fast) matrix multiplication spread over the phase, and
  queries combine them with the signed delta edges of the recent phases.
* :class:`OracleBackedCounter` — a general-graph 4-cycle counter driven by any
  oracle through the Section 8 reduction.

Batch rebuilds are written once, on CSR operands: the counter computes
``A @ A`` on the kernel the dispatcher picks (dense BLAS or CSR SpGEMM) and
:meth:`ThreePathOracle.rebuild_from_mirrored` runs its own products on it.
"""

from __future__ import annotations

import abc
import math
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Set

from repro.core.base import DynamicFourCycleCounter
from repro.exceptions import ConfigurationError, InvalidUpdateError
from repro.graph.static_counts import four_cycles_from_csr_square
from repro.instrumentation.cost_model import CostModel
from repro.kernels import dense_product
from repro.matmul.engine import CountMatrix, CsrMatrix, csr_spgemm
from repro.matmul.scheduler import ChainProductJob, PhaseScheduler
from repro.theory.parameters import solve_main_parameters

if TYPE_CHECKING:  # imported lazily to avoid a runtime cycle
    from repro.graph.dynamic_graph import DynamicGraph

Vertex = Hashable

#: Chain positions: 1 connects L1 to L2, 2 connects L2 to L3, 3 connects L3 to L4.
CHAIN_POSITIONS = (1, 2, 3)


class _ChainRelation:
    """Forward/backward adjacency for one position of the chain."""

    __slots__ = ("forward", "backward", "size")

    def __init__(self) -> None:
        self.forward: Dict[Vertex, Set[Vertex]] = {}
        self.backward: Dict[Vertex, Set[Vertex]] = {}
        self.size = 0

    def has(self, left: Vertex, right: Vertex) -> bool:
        neighbors = self.forward.get(left)
        return neighbors is not None and right in neighbors

    def apply(self, left: Vertex, right: Vertex, sign: int) -> None:
        if sign == +1:
            if self.has(left, right):
                raise InvalidUpdateError(
                    f"tuple ({left!r}, {right!r}) is already present in the chain relation"
                )
            self.forward.setdefault(left, set()).add(right)
            self.backward.setdefault(right, set()).add(left)
            self.size += 1
        elif sign == -1:
            if not self.has(left, right):
                raise InvalidUpdateError(
                    f"tuple ({left!r}, {right!r}) is not present in the chain relation"
                )
            self.forward[left].discard(right)
            self.backward[right].discard(left)
            self.size -= 1
        else:
            raise InvalidUpdateError(f"sign must be +1 or -1, got {sign}")

    def to_count_matrix(self) -> CountMatrix:
        matrix = CountMatrix()
        for left, rights in self.forward.items():
            for right in rights:
                matrix.add(left, right, 1)
        return matrix


class ThreePathOracle(abc.ABC):
    """Interface and shared state of dynamic 3-path oracles."""

    #: Short machine-readable name.
    name: str = "abstract-oracle"

    def __init__(self, cost: Optional[CostModel] = None) -> None:
        self.cost = cost if cost is not None else CostModel()
        self._relations: Dict[int, _ChainRelation] = {
            position: _ChainRelation() for position in CHAIN_POSITIONS
        }
        self._updates_processed = 0
        #: Shard-parallel SpGEMM executor for the bulk-rebuild products;
        #: installed by :class:`OracleBackedCounter` (which owns the worker
        #: configuration).  ``None`` means the plain serial kernel.
        self.shard_executor = None

    def _spgemm(
        self, left: CsrMatrix, right: CsrMatrix, backend: str = "csr"
    ) -> tuple[CsrMatrix, int]:
        """``left @ right`` on dense BLAS for ``backend="dense"``, else through
        the counter-installed shard executor (the serial kernel when none is
        installed).  Every path is bit-identical; the choice is pure speed."""
        if backend == "dense":
            return dense_product(left, right)
        if self.shard_executor is None:
            return csr_spgemm(left, right)
        return self.shard_executor.spgemm(left, right)

    # -- shared relation access -------------------------------------------------
    def relation(self, position: int) -> _ChainRelation:
        rel = self._relations.get(position)
        if rel is None:
            raise ConfigurationError(f"chain position must be 1, 2 or 3, got {position}")
        return rel

    @property
    def num_edges(self) -> int:
        """Total number of tuples over the three chain relations."""
        return sum(rel.size for rel in self._relations.values())

    @property
    def updates_processed(self) -> int:
        return self._updates_processed

    # -- update / query -----------------------------------------------------------
    def update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """Apply a signed tuple update at the given chain position."""
        relation = self.relation(position)
        self._before_relation_update(position, left, right, sign)
        relation.apply(left, right, sign)
        self._after_relation_update(position, left, right, sign)
        self._updates_processed += 1

    def insert(self, position: int, left: Vertex, right: Vertex) -> None:
        self.update(position, left, right, +1)

    def delete(self, position: int, left: Vertex, right: Vertex) -> None:
        self.update(position, left, right, -1)

    # -- batch deferral -----------------------------------------------------------
    def begin_batch(self) -> None:
        """Start of a batched update window: oracles may defer amortized
        bookkeeping (phase rebuilds, class transitions) until
        :meth:`end_batch`.  The default does nothing — plain oracles have no
        deferrable work."""

    def end_batch(self) -> None:
        """End of a batched update window: flush any deferred bookkeeping.
        Exactness never depends on these checks running per update, only the
        amortized cost accounting does, so deferring them to the boundary is
        safe."""

    def rebuild_from_mirrored(
        self,
        graph: "DynamicGraph",
        adjacency: CsrMatrix,
        labels: List[Vertex],
        square: CsrMatrix,
        square_work: int,
        backend: str,
    ) -> None:
        """Reset the oracle to mirror ``graph`` under the Section 8 reduction.

        The batched fast path of :class:`OracleBackedCounter` applies a whole
        window to the graph in bulk and then calls this instead of replaying
        the per-tuple hooks: all three chain relations are rebuilt to equal
        the graph's adjacency (both orientations), and subclasses extend it to
        rebuild their auxiliary structures.  ``adjacency`` is the interned CSR
        adjacency (``labels`` order) and ``square`` its self-product, computed
        at cost ``square_work`` on ``backend``, the dispatched kernel that
        subclasses reuse.  Only valid in the mirrored setting ``A = B = C``.
        """
        del adjacency, labels, square, square_work, backend  # used by subclasses
        for position in CHAIN_POSITIONS:
            relation = _ChainRelation()
            # Forward and backward maps (and each relation) need independent
            # sets: later per-tuple updates mutate them one direction and one
            # relation at a time.
            relation.forward = {
                vertex: set(graph.neighbors(vertex)) for vertex in graph.vertices()
            }
            relation.backward = {
                vertex: set(graph.neighbors(vertex)) for vertex in graph.vertices()
            }
            relation.size = 2 * graph.num_edges
            self._relations[position] = relation

    @abc.abstractmethod
    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        """The number of chain 3-paths from ``u`` (L1) to ``v`` (L4)."""

    # -- subclass hooks -------------------------------------------------------------
    def _before_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """Hook called before the relation storage changes."""

    def _after_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        """Hook called after the relation storage changed."""

    # -- validation helpers -----------------------------------------------------------
    def count_three_paths_naive(self, u: Vertex, v: Vertex) -> int:
        """Reference enumeration used by tests to validate any oracle."""
        first = self.relation(1).forward.get(u, _EMPTY_SET)
        third = self.relation(3).backward.get(v, _EMPTY_SET)
        second_forward = self.relation(2).forward
        total = 0
        for x in first:
            middle = second_forward.get(x, _EMPTY_SET)
            if len(middle) <= len(third):
                total += sum(1 for y in middle if y in third)
            else:
                total += sum(1 for y in third if y in middle)
        return total

    def __repr__(self) -> str:
        return f"{type(self).__name__}(edges={self.num_edges}, updates={self._updates_processed})"


class NaiveThreePathOracle(ThreePathOracle):
    """Answers queries by direct neighborhood enumeration (no extra state)."""

    name = "naive-oracle"

    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        first = self.relation(1).forward.get(u, _EMPTY_SET)
        third = self.relation(3).backward.get(v, _EMPTY_SET)
        second_forward = self.relation(2).forward
        total = 0
        for x in first:
            self.cost.charge("neighborhood_scan")
            middle = second_forward.get(x, _EMPTY_SET)
            smaller, larger = (middle, third) if len(middle) <= len(third) else (third, middle)
            for y in smaller:
                self.cost.charge("adjacency_probe")
                if y in larger:
                    total += 1
        return total


class PhaseThreePathOracle(ThreePathOracle):
    """Phase + fast-matrix-multiplication oracle (the paper's core mechanism).

    The update stream is split into *phases*.  At the start of each phase the
    current relations are snapshotted and the products ``A_o · B_o``,
    ``B_o · C_o`` and ``A_o · B_o · C_o`` of that snapshot are submitted to a
    :class:`~repro.matmul.scheduler.PhaseScheduler`, which advances them by a
    bounded amount of work on every update so the products are ready by the end
    of the phase (Section 5.1 / Algorithm 2, Step 2).  Consequently the
    products available during a phase describe the snapshot taken one phase
    earlier, and the "new" edges span at most the current and previous phase —
    exactly the paper's ``P_new = P_{j+1} ∪ P_j``.

    A query ``(u, v)`` expands ``(A_o + dA)(B_o + dB)(C_o + dC)[u, v]`` exactly:

    * ``A_o B_o C_o`` — one lookup in the precomputed triple product;
    * ``dA · (B_o C_o)`` — iterate the new ``A``-edges incident to ``u``;
    * ``(A_o B_o) · dC`` — iterate the new ``C``-edges incident to ``v``;
    * ``dA · B_o · dC`` — iterate the new ``A``/``C`` edges at both endpoints;
    * ``A · dB · C`` — iterate the new ``B``-edges (at most two phases' worth)
      with O(1) adjacency probes; this is the lazy evaluation the paper applies
      to new-phase edges, refined by its class-based data structures.

    Every term is exact, so the oracle is exact at all times, including before
    the first phase completes (the old products are then empty and the deltas
    carry everything).
    """

    name = "phase-oracle"

    def __init__(
        self,
        phase_length: Optional[int] = None,
        delta: Optional[float] = None,
        min_phase_length: int = 16,
        cost: Optional[CostModel] = None,
    ) -> None:
        super().__init__(cost=cost)
        if phase_length is not None and phase_length <= 0:
            raise ConfigurationError(f"phase_length must be positive, got {phase_length}")
        self._fixed_phase_length = phase_length
        self._delta = delta if delta is not None else solve_main_parameters().delta
        self._min_phase_length = max(1, min_phase_length)
        self._phase_length = phase_length if phase_length is not None else self._min_phase_length
        self._updates_in_phase = 0
        self._phases_completed = 0
        # Products of the *active* old snapshot (one phase behind).
        self._product_ab = CountMatrix()
        self._product_bc = CountMatrix()
        self._product_abc = CountMatrix()
        # Signed deltas since the active old snapshot, indexed for queries.
        self._delta_a_by_left: Dict[Vertex, Dict[Vertex, int]] = {}
        self._delta_b: Dict[tuple[Vertex, Vertex], int] = {}
        self._delta_c_by_right: Dict[Vertex, Dict[Vertex, int]] = {}
        # Signed deltas since the *pending* snapshot (the one being multiplied).
        self._pending_delta_a: Dict[Vertex, Dict[Vertex, int]] = {}
        self._pending_delta_b: Dict[tuple[Vertex, Vertex], int] = {}
        self._pending_delta_c: Dict[Vertex, Dict[Vertex, int]] = {}
        self._scheduler = PhaseScheduler(budget_per_update=max(1, self._min_phase_length))
        self._pending_jobs: Dict[str, ChainProductJob] = {}
        self._defer_phase_end = False
        self._start_phase()

    # -- introspection ---------------------------------------------------------------
    @property
    def phase_length(self) -> int:
        return self._phase_length

    @property
    def phases_completed(self) -> int:
        return self._phases_completed

    @property
    def scheduler(self) -> PhaseScheduler:
        return self._scheduler

    def new_edge_count(self) -> int:
        """Number of signed delta edges currently handled lazily."""
        return (
            sum(len(entries) for entries in self._delta_a_by_left.values())
            + len(self._delta_b)
            + sum(len(entries) for entries in self._delta_c_by_right.values())
        )

    # -- update hooks ------------------------------------------------------------------
    def _after_relation_update(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        self._record_delta(position, left, right, sign)
        worked = self._scheduler.work()
        self.cost.charge("matmul_ops", worked)
        self._updates_in_phase += 1
        if self._updates_in_phase >= self._phase_length and not self._defer_phase_end:
            self._end_phase()

    def begin_batch(self) -> None:
        """Defer phase rollovers to the batch boundary.

        Phase ends only swap which snapshot the precomputed products describe;
        the query is exact against *any* snapshot plus its deltas, so letting a
        phase run past its nominal length during a batch never changes an
        answer — it only postpones the rebuild to :meth:`end_batch`.
        """
        self._defer_phase_end = True

    def end_batch(self) -> None:
        self._defer_phase_end = False
        if self._updates_in_phase >= self._phase_length:
            self._end_phase()

    def _record_delta(self, position: int, left: Vertex, right: Vertex, sign: int) -> None:
        self.cost.charge("structure_update")
        if position == 1:
            _add_nested(self._delta_a_by_left, left, right, sign)
            _add_nested(self._pending_delta_a, left, right, sign)
        elif position == 2:
            _add_flat(self._delta_b, (left, right), sign)
            _add_flat(self._pending_delta_b, (left, right), sign)
        else:
            _add_nested(self._delta_c_by_right, right, left, sign)
            _add_nested(self._pending_delta_c, right, left, sign)

    # -- phase machinery -----------------------------------------------------------------
    def _start_phase(
        self, products: Optional[tuple[CountMatrix, CountMatrix, CountMatrix]] = None
    ) -> None:
        """Snapshot the current relations and submit their products.

        ``products`` — ``(A·B, B·C, A·B·C)`` of the current relations — lets a
        bulk rebuild that has just computed them submit them as finished
        single-matrix jobs, so the phase re-multiplies nothing and its end
        promotes the same matrices again.
        """
        if products is None:
            snapshot_a = self.relation(1).to_count_matrix()
            snapshot_b = self.relation(2).to_count_matrix()
            snapshot_c = self.relation(3).to_count_matrix()
            chains = (
                [snapshot_a, snapshot_b],
                [snapshot_b, snapshot_c],
                [snapshot_a, snapshot_b, snapshot_c],
            )
        else:
            chains = tuple([product] for product in products)
        self._pending_jobs = {
            key: ChainProductJob(chain, name=name)
            for (key, name), chain in zip(_PHASE_JOBS, chains)
        }
        self._pending_delta_a = {}
        self._pending_delta_b = {}
        self._pending_delta_c = {}
        self._scheduler.clear()
        for job in self._pending_jobs.values():
            self._scheduler.submit(job)
        self._phase_length = self._compute_phase_length()
        self._scheduler.budget_per_update = self._compute_budget()
        self._updates_in_phase = 0

    def _end_phase(self) -> None:
        """Finish the pending products and promote them to the active ones."""
        flushed = self._scheduler.finish_all()
        self.cost.charge("matmul_ops", flushed)
        self._product_ab = self._pending_jobs["ab"].result
        self._product_bc = self._pending_jobs["bc"].result
        self._product_abc = self._pending_jobs["abc"].result
        self._delta_a_by_left = {left: dict(entries) for left, entries in self._pending_delta_a.items()}
        self._delta_b = dict(self._pending_delta_b)
        self._delta_c_by_right = {
            right: dict(entries) for right, entries in self._pending_delta_c.items()
        }
        self._phases_completed += 1
        self._start_phase()

    def rebuild_from_mirrored(
        self,
        graph: "DynamicGraph",
        adjacency: CsrMatrix,
        labels: List[Vertex],
        square: CsrMatrix,
        square_work: int,
        backend: str,
    ) -> None:
        """Bulk mirror rebuild plus an immediate phase synchronization.

        Instead of letting the scheduler spread the old-phase products over
        the next phase, the products of the *current* snapshot are computed
        immediately (in the mirrored setting ``A = B = C``, so
        ``AB = BC = A^2`` and ``ABC = A^3``) and promoted, and every delta
        store is cleared: queries right after the batch boundary answer from
        the triple product alone.  This is a legal phase boundary — the
        oracle is exact against *any* snapshot plus its deltas, and here the
        deltas are simply empty.
        """
        super().rebuild_from_mirrored(graph, adjacency, labels, square, square_work, backend)
        cube, cube_work = self._spgemm(square, adjacency, backend)
        product_square = CountMatrix.from_csr(square, labels)
        product_cube = CountMatrix.from_csr(cube, labels)
        self._product_ab = product_square
        self._product_bc = product_square
        self._product_abc = product_cube
        self._delta_a_by_left = {}
        self._delta_b = {}
        self._delta_c_by_right = {}
        self._phases_completed += 1
        # The new phase's snapshot is the one just multiplied: its products
        # enter the scheduler finished, and the phase end re-promotes them.
        self._start_phase(products=(product_square, product_square, product_cube))
        self.cost.charge("batch_rebuild", square_work + cube_work)

    def _compute_phase_length(self) -> int:
        if self._fixed_phase_length is not None:
            return self._fixed_phase_length
        m = max(self.num_edges, 1)
        return max(self._min_phase_length, int(math.ceil(float(m) ** (1.0 - self._delta))))

    def _compute_budget(self) -> int:
        """Per-update work budget that finishes the pending products in time."""
        estimated = 0
        for job in self._pending_jobs.values():
            estimated += _estimate_chain_cost(job)
        return max(1, int(math.ceil(2.0 * estimated / max(self._phase_length, 1))))

    # -- query ----------------------------------------------------------------------------
    def count_three_paths(self, u: Vertex, v: Vertex) -> int:
        total = 0
        # Old * old * old.
        self.cost.charge("structure_lookup")
        total += self._product_abc.get(u, v)
        # dA * (B_old * C_old).
        delta_a = self._delta_a_by_left.get(u, _EMPTY_DICT)
        for x, a_sign in delta_a.items():
            self.cost.charge("structure_lookup")
            total += a_sign * self._product_bc.get(x, v)
        # (A_old * B_old) * dC.
        delta_c = self._delta_c_by_right.get(v, _EMPTY_DICT)
        for y, c_sign in delta_c.items():
            self.cost.charge("structure_lookup")
            total += self._product_ab.get(u, y) * c_sign
        # dA * B_old * dC.
        if delta_a and delta_c:
            b_relation = self.relation(2)
            for x, a_sign in delta_a.items():
                for y, c_sign in delta_c.items():
                    self.cost.charge("adjacency_probe")
                    total += a_sign * c_sign * self._old_b_entry(b_relation, x, y)
        # A * dB * C  (all combinations that use a new B edge).
        if self._delta_b:
            a_forward = self.relation(1).forward.get(u, _EMPTY_SET)
            c_backward = self.relation(3).backward.get(v, _EMPTY_SET)
            for (x, y), b_sign in self._delta_b.items():
                self.cost.charge("adjacency_probe", 2)
                if x in a_forward and y in c_backward:
                    total += b_sign
        return total

    def _old_b_entry(self, b_relation: _ChainRelation, x: Vertex, y: Vertex) -> int:
        current = 1 if b_relation.has(x, y) else 0
        return current - self._delta_b.get((x, y), 0)


class OracleBackedCounter(DynamicFourCycleCounter):
    """A general-graph 4-cycle counter driven by a 3-path oracle.

    Implements the Section 8 reduction: every general edge ``{u, v}`` is
    mirrored (in both orientations) into all three chain relations, whose
    matrices therefore all equal the graph's adjacency matrix, and the number
    of 4-cycles through ``{u, v}`` is the oracle's 3-path count ``(u, v)``.
    """

    name = "oracle-backed"

    def __init__(
        self,
        oracle: ThreePathOracle,
        record_metrics: bool = False,
        interned: bool = True,
        backend: str = "auto",
        workers: int = 1,
        shard_policy: str = "auto",
        block_entries: Optional[int] = None,
    ) -> None:
        super().__init__(
            record_metrics=record_metrics,
            interned=interned,
            backend=backend,
            workers=workers,
            shard_policy=shard_policy,
            block_entries=block_entries,
        )
        self._oracle = oracle
        # Share one cost model so oracle work shows up in the counter's totals,
        # and one shard executor so the oracle's rebuild products parallelize
        # under the same worker configuration (and share the same pools).
        self._oracle.cost = self.cost
        self._oracle.shard_executor = self.shard_executor

    @property
    def oracle(self) -> ThreePathOracle:
        return self._oracle

    def _batch_hook(self, batch) -> bool:
        """Batch fast path: bulk-apply the window, then one vectorized rebuild.

        The per-update path mirrors every edge into six relation updates, each
        firing the oracle's Python maintenance hooks.  For a large window it
        is cheaper to apply the net updates to the graph in bulk, compute
        ``A @ A`` once on the kernel the density-aware dispatcher picks,
        rebuild the oracle from it (:meth:`ThreePathOracle.rebuild_from_mirrored`,
        whose own products run on the same kernel), and take the exact
        boundary count from the closed-walk trace formula over the same
        square.
        """
        if len(batch) < self.batch_fast_path_threshold or not self._graph.is_interned:
            return False
        graph = self._graph
        graph.apply_batch(batch)
        backend = self._adjacency_product_decision().backend
        adjacency = graph.csr_matrix()
        square, work = self._spgemm(adjacency, adjacency, backend)
        self._oracle.rebuild_from_mirrored(
            graph, adjacency, graph.interner.labels, square, work, backend
        )
        self._count = four_cycles_from_csr_square(
            square, adjacency.row_lengths(), graph.num_edges
        )
        self.cost.charge("batch_recount", work)
        return True

    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        return self._oracle.count_three_paths(u, v)

    def _apply_structure_delta(self, u: Vertex, v: Vertex, sign: int) -> None:
        for position in CHAIN_POSITIONS:
            self._oracle.update(position, u, v, sign)
            self._oracle.update(position, v, u, sign)

    def _begin_batch(self, batch) -> None:
        self._oracle.begin_batch()

    def _end_batch(self, batch) -> None:
        self._oracle.end_batch()


def _add_nested(
    store: Dict[Vertex, Dict[Vertex, int]], key: Vertex, subkey: Vertex, sign: int
) -> None:
    inner = store.get(key)
    if inner is None:
        inner = {}
        store[key] = inner
    value = inner.get(subkey, 0) + sign
    if value == 0:
        inner.pop(subkey, None)
        if not inner:
            store.pop(key, None)
    else:
        inner[subkey] = value


def _add_flat(store: Dict[tuple, int], key: tuple, sign: int) -> None:
    value = store.get(key, 0) + sign
    if value == 0:
        store.pop(key, None)
    else:
        store[key] = value


def _estimate_chain_cost(job: ChainProductJob) -> int:
    """A crude upper estimate of a chain job's total work (used for budgeting)."""
    return max(1, job.operations_done) if job.is_complete else job.estimated_operations


#: The pending products of a phase: job key and diagnostic name.
_PHASE_JOBS = (("ab", "A_old*B_old"), ("bc", "B_old*C_old"), ("abc", "A_old*B_old*C_old"))

#: Shared immutable empties.
_EMPTY_SET: frozenset = frozenset()
_EMPTY_DICT: Dict[Vertex, int] = {}
