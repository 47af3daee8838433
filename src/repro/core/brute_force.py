"""Brute-force reference counter.

Answers every query by enumerating the neighborhoods of the two endpoints and
checking adjacency of the middle pair.  Worst-case update time
``O(deg(u) * deg(v))`` — far from the paper's bound, but trivially correct, so
it is the ground truth the test suite and the cross-validation experiment (E4)
measure every other counter against.
"""

from __future__ import annotations

from typing import Hashable

from repro.core.base import DynamicFourCycleCounter
from repro.graph.updates import UpdateBatch

Vertex = Hashable


class BruteForceCounter(DynamicFourCycleCounter):
    """Reference counter: no auxiliary structures, quadratic-in-degree queries."""

    name = "brute-force"

    def _batch_hook(self, batch: UpdateBatch) -> bool:
        """Batch fast path: apply the net updates in bulk, then recount once.

        The per-update path pays ``O(deg(u) * deg(v))`` Python-level probes per
        update; for a window it is far cheaper to mutate the graph in bulk and
        run a single trace-formula recount (:meth:`recount`, one dispatched
        ``A @ A``) at the batch boundary — which is also exactly where the
        batch contract requires the count to be exact.
        """
        if len(batch) < self.batch_fast_path_threshold:
            return False
        self._graph.apply_batch(batch)
        n = self._graph.num_vertices
        # tr(A^4) costs two dense n x n products (A^2, then squared): ~2 n^3
        # multiply-adds, so the ops columns stay comparable across batch sizes.
        self.cost.charge("batch_recount", 2 * n * n * n)
        self._count = self.recount()
        return True

    def _three_paths(self, u: Vertex, v: Vertex) -> int:
        graph = self._graph
        total = 0
        neighbors_u = graph.neighbors(u)
        neighbors_v = graph.neighbors(v)
        # Enumerate from the smaller side first; the inner membership test is
        # O(1) either way, but charging reflects the actual scan sizes.
        for x in neighbors_u:
            if x == v:
                continue
            self.cost.charge("neighborhood_scan")
            for y in neighbors_v:
                if y == u or y == x:
                    continue
                self.cost.charge("adjacency_probe")
                if graph.has_edge(x, y):
                    total += 1
        return total
