"""What every workload shares: run context, outcome, gates, process figures."""

from __future__ import annotations

import gc
import resource
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Optional, Sequence, Tuple

from spans import Tracer, layer_metrics, span_cost_s

#: The run length, in seconds, the workloads' counts of timed work are sized for.
NOMINAL_SECONDS = 25.0


class GateError(Exception):
    """A correctness gate failed: the run is wrong, not slow."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass
class Outcome:
    metrics: Dict[str, float]
    layers: Dict[str, float]
    attempted: int
    failed: int
    details: dict = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    profile: str
    workdir: Path

    def work(self, count: int) -> int:
        """``count`` units of timed work, sized for :data:`NOMINAL_SECONDS`,
        scaled to ``--seconds``.  Work is fixed before timing starts and never
        depends on the clock, so every run of a seed times the same operations."""
        return max(1, round(count * self.seconds / NOMINAL_SECONDS))

    def freeze_inputs(self) -> None:
        """Move everything allocated so far (the generated inputs above all)
        out of the collector's view, so the program's collections do not
        rescan the benchmark's own objects; ``run.py`` unfreezes after the run."""
        gc.collect()
        gc.freeze()

    def start_tracer(self) -> Optional[Tracer]:
        if not self.trace:
            return None
        tracer = Tracer()
        tracer.install()
        return tracer

    def finish_tracer(
        self, tracer: Optional[Tracer], window: Tuple[float, float], wall_s: float,
        exclude: Sequence[Tuple[float, float]] = (),
    ) -> Dict[str, float]:
        """Per-layer metrics of an in-process run; ``{}`` when untraced."""
        if tracer is None:
            return {}
        tracer.uninstall()
        layers = layer_metrics(
            tracer.dump(), window, wall_s=wall_s, span_cost=span_cost_s(),
            caller_thread=threading.get_ident(), exclude=exclude,
        )
        layers["client.late_p99_ms"] = 0.0  # no load generator in process
        layers["proc.cpu_s"] = process_cpu_s()
        return layers


def peak_rss_mb() -> float:
    """Peak resident set size of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def reference_count(edges: Iterable[Tuple[int, int]]) -> int:
    """4-cycles of ``edges`` by wedge enumeration, independent of every counter."""
    from repro.graph.dynamic_graph import DynamicGraph
    from repro.graph.static_counts import count_four_cycles_wedges

    graph = DynamicGraph(interned=False)
    for u, v in edges:
        graph.insert_edge(u, v)
    return count_four_cycles_wedges(graph)
