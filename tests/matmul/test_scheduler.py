"""Tests for the incremental products and the phase work scheduler."""

from __future__ import annotations

import random

import pytest

from repro.exceptions import ConfigurationError, CounterStateError
from repro.matmul.engine import CountMatrix, SparseBackend
from repro.matmul.scheduler import ChainProductJob, IncrementalMatrixProduct, PhaseScheduler


def random_matrix(rng: random.Random, rows: int, columns: int, density: float = 0.5) -> CountMatrix:
    matrix = CountMatrix()
    for i in range(rows):
        for j in range(columns):
            if rng.random() < density:
                matrix.add(f"r{i}", f"m{j}", 1)
    return matrix


class TestIncrementalMatrixProduct:
    def test_partial_then_complete(self):
        rng = random.Random(0)
        left = random_matrix(rng, 10, 8)
        right = CountMatrix()
        for j in range(8):
            for k in range(6):
                if rng.random() < 0.5:
                    right.add(f"m{j}", f"c{k}", 1)
        job = IncrementalMatrixProduct(left, right)
        assert not job.is_complete
        job.advance(5)
        assert job.remaining_rows() < 10 or job.operations_done > 0
        job.run_to_completion()
        assert job.is_complete
        expected, _ = SparseBackend().multiply(left, right)
        assert job.result == expected

    def test_advance_respects_budget_roughly(self):
        rng = random.Random(1)
        left = random_matrix(rng, 20, 10)
        right = random_matrix(rng, 10, 10)
        # Row labels of right must match columns of left.
        right = CountMatrix()
        for j in range(10):
            for k in range(10):
                if rng.random() < 0.5:
                    right.add(f"m{j}", f"c{k}", 1)
        job = IncrementalMatrixProduct(left, right)
        done = job.advance(3)
        # A single row is atomic, so the overshoot is bounded by one full row's
        # work (up to 10 middles, each with up to 10 right-hand entries).
        assert done <= 3 + 10 * 10

    def test_negative_budget_rejected(self):
        job = IncrementalMatrixProduct(CountMatrix(), CountMatrix())
        with pytest.raises(ConfigurationError):
            job.advance(-1)

    def test_empty_product(self):
        job = IncrementalMatrixProduct(CountMatrix(), CountMatrix())
        assert job.is_complete
        assert job.result.nnz == 0


class TestChainProductJob:
    def test_triple_chain_matches_direct_product(self):
        rng = random.Random(2)
        a = random_matrix(rng, 6, 5)
        b = CountMatrix()
        for j in range(5):
            for k in range(7):
                if rng.random() < 0.5:
                    b.add(f"m{j}", f"y{k}", 1)
        c = CountMatrix()
        for k in range(7):
            for l in range(4):
                if rng.random() < 0.5:
                    c.add(f"y{k}", f"v{l}", 1)
        job = ChainProductJob([a, b, c], name="abc")
        job.run_to_completion()
        backend = SparseBackend()
        expected, _ = backend.multiply(a, b)
        expected, _ = backend.multiply(expected, c)
        assert job.result == expected

    def test_result_before_completion_raises(self):
        a = CountMatrix({(1, 2): 1})
        b = CountMatrix({(2, 3): 1})
        job = ChainProductJob([a, b])
        with pytest.raises(CounterStateError):
            _ = job.result

    def test_single_matrix_chain(self):
        matrix = CountMatrix({(1, 2): 5})
        job = ChainProductJob([matrix])
        assert job.is_complete
        assert job.result == matrix

    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigurationError):
            ChainProductJob([])

    def test_incremental_advance_eventually_completes(self):
        rng = random.Random(3)
        a = random_matrix(rng, 8, 8)
        b = CountMatrix()
        for j in range(8):
            for k in range(8):
                if rng.random() < 0.5:
                    b.add(f"m{j}", f"z{k}", 1)
        job = ChainProductJob([a, b])
        steps = 0
        while not job.is_complete and steps < 10_000:
            job.advance(2)
            steps += 1
        assert job.is_complete


class TestPhaseScheduler:
    def test_work_spreads_over_updates(self):
        rng = random.Random(4)
        a = random_matrix(rng, 10, 10)
        b = CountMatrix()
        for j in range(10):
            for k in range(10):
                if rng.random() < 0.5:
                    b.add(f"m{j}", f"w{k}", 1)
        scheduler = PhaseScheduler(budget_per_update=4)
        job = ChainProductJob([a, b])
        scheduler.submit(job)
        updates = 0
        while not scheduler.all_complete() and updates < 10_000:
            scheduler.work()
            updates += 1
        assert scheduler.all_complete()
        assert scheduler.updates_seen == updates
        assert scheduler.total_operations == job.operations_done

    def test_finish_all(self):
        scheduler = PhaseScheduler(budget_per_update=1)
        job = ChainProductJob([CountMatrix({(1, 2): 1}), CountMatrix({(2, 3): 1})])
        scheduler.submit(job)
        scheduler.finish_all()
        assert scheduler.all_complete()
        assert job.result.get(1, 3) == 1

    def test_clear(self):
        scheduler = PhaseScheduler()
        scheduler.submit(ChainProductJob([CountMatrix({(1, 2): 1}), CountMatrix()]))
        scheduler.clear()
        assert scheduler.all_complete()
        assert list(scheduler.jobs()) == []

    def test_negative_budget_rejected(self):
        scheduler = PhaseScheduler()
        with pytest.raises(ConfigurationError):
            scheduler.work(budget=-5)

    def test_pending_jobs(self):
        scheduler = PhaseScheduler(budget_per_update=0)
        job = ChainProductJob([CountMatrix({(1, 2): 1}), CountMatrix({(2, 3): 1})])
        scheduler.submit(job)
        assert scheduler.pending_jobs() == [job]


# ---------------------------------------------------------------------------
# The CSR implementation against the original dict loop
# ---------------------------------------------------------------------------
class ReferenceProduct:
    """The original dict-loop ``IncrementalMatrixProduct``: one
    ``CountMatrix.add`` per multiply-add, rows taken one at a time in
    ``repr`` order.  The CSR implementation must match its results and its
    per-call work exactly."""

    def __init__(self, left: CountMatrix, right: CountMatrix) -> None:
        self._left = left
        self._right = right
        self._pending_rows = sorted(left.row_labels(), key=repr)
        self.result = CountMatrix()

    @property
    def is_complete(self) -> bool:
        return not self._pending_rows

    def remaining_rows(self) -> int:
        return len(self._pending_rows)

    def advance(self, budget: int) -> int:
        done = 0
        while self._pending_rows and done < budget:
            done += self._process_row(self._pending_rows.pop(0))
        return done

    def _process_row(self, row) -> int:
        operations = 0
        for middle, left_value in self._left.row(row).items():
            right_row = self._right.row(middle)
            operations += max(len(right_row), 1)
            for column, right_value in right_row.items():
                self.result.add(row, column, left_value * right_value)
        return max(operations, 1)


class ReferenceChain:
    """The original ``ChainProductJob`` over :class:`ReferenceProduct` stages."""

    def __init__(self, matrices) -> None:
        self._matrices = list(matrices)
        self._stage_index = 0
        self._current = (
            ReferenceProduct(self._matrices[0], self._matrices[1])
            if len(self._matrices) > 1
            else None
        )
        self.result = self._matrices[0] if self._current is None else None

    @property
    def is_complete(self) -> bool:
        return self._current is None

    def advance(self, budget: int) -> int:
        done = 0
        while self._current is not None and done < budget:
            done += self._current.advance(budget - done)
            if self._current.is_complete:
                partial = self._current.result
                next_index = self._stage_index + 2
                if next_index < len(self._matrices):
                    self._current = ReferenceProduct(partial, self._matrices[next_index])
                    self._stage_index += 1
                else:
                    self.result = partial
                    self._current = None
        return done


def labelled_matrix(rng, rows, columns, density=0.4, values=(1,)):
    """A random matrix over the given row and column labels."""
    matrix = CountMatrix()
    for row in rows:
        for column in columns:
            if rng.random() < density:
                matrix.add(row, column, rng.choice(values))
    return matrix


SIGNED = (-3, -2, -1, 1, 2, 3)


def _operands(case: str, rng: random.Random):
    """``(left, right)`` for one labelled-product scenario."""
    if case == "string-labels":
        middles = [f"m{j}" for j in range(9)]
        return (
            labelled_matrix(rng, [f"r{i}" for i in range(12)], middles),
            labelled_matrix(rng, middles, [f"c{k}" for k in range(10)]),
        )
    if case == "int-labels":
        # Integers sort by repr as strings: 10 < 2 < 3 ...
        return (
            labelled_matrix(rng, range(15), range(20, 32)),
            labelled_matrix(rng, range(20, 32), range(40, 49)),
        )
    if case == "tuple-labels":
        middles = [(j, "m") for j in range(8)]
        return (
            labelled_matrix(rng, [(i, "r") for i in range(11)], middles),
            labelled_matrix(rng, middles, [("c", k) for k in range(7)]),
        )
    if case == "mixed-labels":
        rows = [0, "a", (1, 2), 7, "b", (0,)]
        middles = ["x", 3, (4, 5), "y"]
        return (
            labelled_matrix(rng, rows, middles, density=0.6),
            labelled_matrix(rng, middles, [9, "z", (6,)], density=0.6),
        )
    if case == "negative-values":
        # Signed entries: contributions cancel, and rows whose products all
        # cancel must vanish from the result.
        middles = [f"m{j}" for j in range(6)]
        return (
            labelled_matrix(rng, [f"r{i}" for i in range(14)], middles, 0.5, SIGNED),
            labelled_matrix(rng, middles, [f"c{k}" for k in range(4)], 0.5, SIGNED),
        )
    if case == "unmatched-middles":
        # Half the left columns have no right row: each such entry costs 1.
        return (
            labelled_matrix(rng, [f"r{i}" for i in range(10)], [f"m{j}" for j in range(10)], 0.5),
            labelled_matrix(rng, [f"m{j}" for j in range(5)], [f"c{k}" for k in range(6)], 0.5),
        )
    if case == "no-middles-match":
        return (
            labelled_matrix(rng, range(6), ["p", "q"], 0.7),
            labelled_matrix(rng, ["s", "t"], range(3), 0.7),
        )
    if case == "empty-left":
        return CountMatrix(), labelled_matrix(rng, range(4), range(4))
    if case == "empty-right":
        return labelled_matrix(rng, range(5), range(4), 0.6), CountMatrix()
    if case == "both-empty":
        return CountMatrix(), CountMatrix()
    raise AssertionError(case)


PRODUCT_CASES = (
    "string-labels",
    "int-labels",
    "tuple-labels",
    "mixed-labels",
    "negative-values",
    "unmatched-middles",
    "no-middles-match",
    "empty-left",
    "empty-right",
    "both-empty",
)
BUDGETS = (0, 1, 7, 1 << 30)


def _drive_in_lockstep(job, reference, budget: int, check=None) -> int:
    """Advance both by ``budget`` until the reference is complete, asserting
    identical return values (and running ``check`` after every call); a zero
    budget gets a few no-op calls and then both are finished in one call.
    Returns the total work done."""
    total = 0
    calls = 0
    while not reference.is_complete and calls < (3 if budget == 0 else 100_000):
        expected = reference.advance(budget)
        assert job.advance(budget) == expected
        assert job.is_complete == reference.is_complete
        if check is not None:
            check()
        total += expected
        calls += 1
    if budget == 0:
        assert total == 0
        flushed = reference.advance(1 << 30)
        assert job.advance(1 << 30) == flushed
        total += flushed
    assert job.is_complete and reference.is_complete
    return total


class TestIncrementalProductMatchesDictLoop:
    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("case", PRODUCT_CASES)
    def test_work_sequence_and_result(self, case, budget):
        left, right = _operands(case, random.Random(PRODUCT_CASES.index(case)))
        job = IncrementalMatrixProduct(left, right)
        reference = ReferenceProduct(left, right)
        assert job.is_complete == reference.is_complete

        def check():
            # The partial product covers exactly the rows done so far.
            assert job.remaining_rows() == reference.remaining_rows()
            assert job.result == reference.result

        total = _drive_in_lockstep(job, reference, budget, check)
        assert job.operations_done == total
        assert job.result == reference.result
        expected, _ = SparseBackend().multiply(left, right)
        assert job.result == expected

    def test_unmatched_middle_entries_cost_one_each(self):
        left = CountMatrix({("r", "a"): 1, ("r", "b"): 2, ("r", "c"): 1})
        right = CountMatrix({("a", "x"): 1, ("a", "y"): 3})
        job = IncrementalMatrixProduct(left, right)
        # "a" has two right entries, "b" and "c" have no right row.
        assert job.run_to_completion() == 2 + 1 + 1
        assert job.result == CountMatrix({("r", "x"): 1, ("r", "y"): 3})


class TestChainProductMatchesDictLoop:
    @staticmethod
    def _chain(rng: random.Random, signed: bool):
        values = SIGNED if signed else (1,)
        a = labelled_matrix(rng, range(10), [f"m{j}" for j in range(8)], 0.4, values)
        # Some middles of b have no row in c, and some rows of b no column in a.
        b_rows = [f"m{j}" for j in range(10)]
        b = labelled_matrix(rng, b_rows, [(k,) for k in range(9)], 0.4, values)
        c = labelled_matrix(rng, [(k,) for k in range(6)], ["u", "v", "w", 5], 0.5, values)
        return [a, b, c]

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("signed", (False, True))
    def test_three_matrix_chain(self, budget, signed):
        matrices = self._chain(random.Random(11), signed)
        job = ChainProductJob(matrices, name="abc")
        reference = ReferenceChain(matrices)
        total = _drive_in_lockstep(job, reference, budget)
        assert job.operations_done == total
        assert job.result == reference.result
        backend = SparseBackend()
        expected, _ = backend.multiply(matrices[0], matrices[1])
        expected, _ = backend.multiply(expected, matrices[2])
        assert job.result == expected

    @pytest.mark.parametrize("budget", (1, 7))
    def test_chain_with_an_empty_intermediate(self, budget):
        a = CountMatrix({(1, "p"): 1, (2, "q"): 1})
        b = CountMatrix({("z", 3): 1})  # no middle matches: a·b is empty
        c = CountMatrix({(3, 4): 1})
        job = ChainProductJob([a, b, c])
        reference = ReferenceChain([a, b, c])
        _drive_in_lockstep(job, reference, budget)
        assert job.result == reference.result == CountMatrix()

    @pytest.mark.parametrize("budget", BUDGETS[1:])
    def test_scheduler_work_sequence(self, budget):
        """PhaseScheduler.work returns the same values over the CSR jobs as
        over the dict-loop jobs (the cost model's per-update figures)."""
        matrices = self._chain(random.Random(5), signed=False)
        scheduler = PhaseScheduler(budget_per_update=budget)
        reference_scheduler = PhaseScheduler(budget_per_update=budget)
        chains = (matrices[:2], matrices[1:], matrices)
        jobs = [ChainProductJob(chain) for chain in chains]
        for job, chain in zip(jobs, chains):
            scheduler.submit(job)
            reference_scheduler.submit(ReferenceChain(chain))
        while not reference_scheduler.all_complete():
            assert scheduler.work() == reference_scheduler.work()
        assert scheduler.all_complete()
        assert scheduler.work() == 0
        for job, reference in zip(jobs, reference_scheduler.jobs()):
            assert job.result == reference.result

    def test_estimated_operations(self):
        a = CountMatrix({(0, 1): 1, (0, 2): 1})
        b = CountMatrix({(1, 3): 1, (2, 3): 1, (2, 4): 1})
        c = CountMatrix({(3, 5): 1})
        # nnz(a) * nnz(b) + max(nnz(a), nnz(b)) * nnz(c)
        assert ChainProductJob([a, b, c]).estimated_operations == 2 * 3 + 3 * 1
        assert ChainProductJob([CountMatrix(), CountMatrix()]).estimated_operations == 1
