"""Seeded graph inputs: a preloaded edge set plus a churn stream.

Inputs are generated here, from the seed alone and before any timing, so the
program under test only ever sees finished update lists.  The generator keeps
its own live-edge set, which is also how every workload knows the final edge
set the reference count is taken on.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

Edge = Tuple[int, int]
#: One update as ``(kind, u, v)`` with kind ``"insert"`` or ``"delete"``.
Update = Tuple[str, int, int]


@dataclass(frozen=True)
class GraphInput:
    """A preload edge list and a churn stream that keeps ``m`` near its target."""

    num_vertices: int
    preload: List[Edge]
    churn: List[Update]
    #: Inclusive range the live edge count must stay in; the run fails outside it.
    live_range: Tuple[int, int]


class _EdgeSampler:
    """Draws absent edges; endpoints weighted ``(i + 1) ** -skew`` (0 = uniform)."""

    def __init__(self, rng: random.Random, num_vertices: int, skew: float) -> None:
        self._rng = rng
        self._n = num_vertices
        self._cumulative = (
            list(itertools.accumulate((i + 1) ** -skew for i in range(num_vertices)))
            if skew
            else None
        )

    def _vertex(self) -> int:
        if self._cumulative is None:
            return self._rng.randrange(self._n)
        return bisect.bisect(self._cumulative, self._rng.random() * self._cumulative[-1])

    def absent_edge(self, live: set) -> Edge:
        while True:
            u, v = self._vertex(), self._vertex()
            if u != v:
                edge = (u, v) if u < v else (v, u)
                if edge not in live:
                    return edge


def make_input(
    seed: int, num_vertices: int, num_edges: int, churn_length: int, skew: float
) -> GraphInput:
    """``num_edges`` sampled edges, then churn that deletes a uniformly random
    live edge with probability ``0.5 * m / num_edges`` and otherwise inserts a
    sampled absent edge, so ``m`` hovers at ``num_edges``."""
    rng = random.Random(seed)
    sampler = _EdgeSampler(rng, num_vertices, skew)
    live: List[Edge] = []
    live_set: set = set()
    while len(live) < num_edges:
        edge = sampler.absent_edge(live_set)
        live.append(edge)
        live_set.add(edge)
    preload = list(live)
    churn: List[Update] = []
    for _ in range(churn_length):
        if rng.random() < 0.5 * len(live) / num_edges:
            index = rng.randrange(len(live))
            edge = live[index]
            live[index] = live[-1]
            live.pop()
            live_set.discard(edge)
            churn.append(("delete", edge[0], edge[1]))
        else:
            edge = sampler.absent_edge(live_set)
            live.append(edge)
            live_set.add(edge)
            churn.append(("insert", edge[0], edge[1]))
    margin = max(num_edges // 10, 50)
    return GraphInput(num_vertices, preload, churn, (num_edges - margin, num_edges + margin))


class EdgeSetTracker:
    """Replays applied updates on a plain set: the input's own view of the graph.

    It records the statistics the run reports about its input (live edges at
    start and end, degrees, delete share, cancelling share per window) and
    checks the live edge count stays inside the input's stated range.
    """

    def __init__(self, graph_input: GraphInput) -> None:
        self._input = graph_input
        self.edges = set(graph_input.preload)
        self.start_edges = len(self.edges)
        self.min_edges = self.max_edges = self.start_edges
        self.start_degrees = self._degree_summary()
        self.applied = 0
        self.deletes = 0
        self.window_updates = 0
        self.window_cancelled = 0

    def apply(self, updates: Sequence[Update], window: bool = False) -> None:
        """Record ``updates`` as applied; ``window`` marks one ``apply_batch``."""
        for kind, u, v in updates:
            if kind == "insert":
                self.edges.add((u, v))
            else:
                self.edges.discard((u, v))
                self.deletes += 1
        self.applied += len(updates)
        size = len(self.edges)
        self.min_edges = min(self.min_edges, size)
        self.max_edges = max(self.max_edges, size)
        if window:
            net: Dict[Edge, int] = {}
            for kind, u, v in updates:
                net[(u, v)] = net.get((u, v), 0) + (1 if kind == "insert" else -1)
            self.window_updates += len(updates)
            self.window_cancelled += len(updates) - sum(abs(delta) for delta in net.values())

    def _degree_summary(self) -> Dict[str, float]:
        degrees: Dict[int, int] = {}
        for u, v in self.edges:
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
        n = self._input.num_vertices
        return {"max_degree": max(degrees.values(), default=0), "mean_degree": 2 * len(self.edges) / n}

    def in_range(self) -> bool:
        low, high = self._input.live_range
        return low <= self.min_edges and self.max_edges <= high

    def summary(self) -> Dict[str, object]:
        end = self._degree_summary()
        return {
            "live_edges_start": self.start_edges,
            "live_edges_end": len(self.edges),
            "live_edges_min": self.min_edges,
            "live_edges_max": self.max_edges,
            "live_range": list(self._input.live_range),
            "max_degree_start": self.start_degrees["max_degree"],
            "mean_degree_start": self.start_degrees["mean_degree"],
            "max_degree_end": end["max_degree"],
            "mean_degree_end": end["mean_degree"],
            "delete_share": self.deletes / self.applied if self.applied else 0.0,
            "window_cancel_share": (
                self.window_cancelled / self.window_updates if self.window_updates else 0.0
            ),
        }
