"""Span tracing of the program's public layer boundaries, from outside.

:class:`Tracer` replaces a fixed list of public functions with wrappers that
record one span per call — name, start, end, parent span, thread and request
ID — in memory.  Each function is patched where its callers look it up: the
class attribute for methods, and every loaded ``repro`` module global bound
to the function for module-level functions (``from x import f`` copies the
binding, so patching only the defining module would miss those callers).

Only coarse boundaries are wrapped.  Hot inner functions such as
``CountMatrix.add`` (about twenty million calls a run) are never wrapped;
their work is read from the return value of the boundary above them (the op
count :meth:`PhaseScheduler.work` returns).  :func:`layer_metrics` turns the
recorded spans into the per-layer metrics the benchmark prints.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span id, name, start, end, parent span id or 0, thread ident, request id)
Span = Tuple[int, str, float, float, int, int, int]

#: Rate steps of the service workload, named in ``service.writer_busy_ratio.<step>``.
SERVICE_STEPS = ("x1", "x2", "x4", "x8")

#: Every wrapped function ``F`` of layer ``L`` yields ``L.F.calls``, ``L.F.s``
#: (summed span time) and ``L.F.self_s`` (span time not covered by child spans).
WRAPPED = (
    "api.apply",
    "api.apply_batch",
    "api.checkpoint",
    "api.restore",
    "graph.normalize_batch",
    "graph.csr_view",
    "core.apply",
    "core.apply_batch",
    "core.is_consistent",
    "matmul.phase_work",
    "matmul.phase_finish",
    "matmul.dispatch",
    "matmul.spgemm",
    "matmul.from_csr",
    "kernels.exact_integer_matmul",
    "durability.wal_append",
    "durability.fsync",
    "durability.scan_wal",
    "durability.recover",
    "io.save_engine_snapshot",
    "service.decode",
    "service.render",
    "service.apply_updates",
)

#: Metrics derived from counts, return values and span arithmetic: (name, unit).
DERIVED = (
    ("graph.normalize_batch.net_ratio", "ratio"),
    ("core.phase_rebuilds", "count"),
    ("core.phase_rebuild_update.s", "s"),
    ("matmul.phase_work.ops", "count"),
    ("matmul.dispatch.dense_share", "ratio"),
    ("durability.wal_records", "count"),
    ("durability.wal_bytes_per_update", "B/update"),
    ("durability.replayed_records", "count"),
    ("io.snapshot_bytes", "B"),
    ("service.queue_wait.s", "s"),
) + tuple((f"service.writer_busy_ratio.{step}", "ratio") for step in SERVICE_STEPS) + (
    ("client.late_p99_ms", "ms"),
    ("proc.cpu_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unattributed_share", "ratio"),
)


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in print order."""
    units = []
    for name in WRAPPED:
        units += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
    return units + list(DERIVED)


class _FsyncCountingOs:
    """Stands in for the ``os`` module inside the WAL module: ``fsync`` is
    wrapped, every other attribute is the real ``os`` one."""

    def __init__(self, fsync: Callable) -> None:
        self.fsync = fsync

    def __getattr__(self, name: str):
        return getattr(os, name)


class Tracer:
    """Records spans around the program's public boundaries while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: ``(name, value, time)`` entries summed at the end; a list append is
        #: atomic under the interpreter lock, a ``+=`` on a shared dict is not.
        self.counts: List[Tuple[str, float, float]] = []
        self.thread_names: Dict[int, str] = {}
        #: Span IDs of the ``api.apply``/``api.apply_batch`` calls during which
        #: the engine emitted a phase-rebuild event.
        self.rebuild_spans: List[int] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar("span", default=None)
        self._request: contextvars.ContextVar = contextvars.ContextVar("request", default=0)
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _open(self) -> Tuple[int, int, int, contextvars.Token]:
        parent = self._current.get()
        span_id = next(self._ids)
        if parent is None:
            parent_id, request_id = 0, self._request.get() or span_id
        else:
            parent_id, request_id = parent
        token = self._current.set((span_id, request_id))
        ident = threading.get_ident()
        if ident not in self.thread_names:
            self.thread_names[ident] = threading.current_thread().name
        return span_id, parent_id, request_id, token

    def wrap(self, name: str, function: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``function`` recording a span ``name`` per call; ``on_result(result,
        args)`` runs after a call that returned."""
        spans, current = self.spans, self._current

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span_id, parent_id, request_id, token = self._open()
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append((span_id, name, start, end, parent_id, threading.get_ident(), request_id))
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def wrap_async(self, name: str, function: Callable) -> Callable:
        """The coroutine-function form of :meth:`wrap`: the span covers every
        await until the coroutine returns."""
        spans, current = self.spans, self._current

        @functools.wraps(function)
        async def traced(*args, **kwargs):
            span_id, parent_id, request_id, token = self._open()
            start = time.perf_counter()
            try:
                return await function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                current.reset(token)
                spans.append((span_id, name, start, end, parent_id, threading.get_ident(), request_id))

        return traced

    def count(self, name: str, value: float) -> None:
        self.counts.append((name, value, time.perf_counter()))

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def patch_method(self, cls, attribute: str, name: str, on_result=None, is_async=False) -> None:
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            self._set(cls, attribute, classmethod(self.wrap(name, raw.__func__, on_result)))
        elif is_async:
            self._set(cls, attribute, self.wrap_async(name, raw))
        else:
            self._set(cls, attribute, self.wrap(name, raw, on_result))

    def patch_function(self, function: Callable, replacement: Callable) -> None:
        """Rebind every loaded ``repro`` module global that holds ``function``."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._patches.append((module, attribute, value))
                    setattr(module, attribute, replacement)

    def install(self) -> None:
        """Wrap every boundary in :data:`WRAPPED` (and the counting hooks)."""
        import repro.durability.wal as wal_module
        import repro.kernels
        import repro.service.app as app_module
        from repro.api.engine import EVENT_PHASE_REBUILD, FourCycleEngine
        from repro.core.base import DynamicFourCycleCounter
        from repro.durability.recovery import recover
        from repro.durability.wal import WriteAheadLog, encode_wal_record, scan_wal
        from repro.graph.dynamic_graph import DynamicGraph
        from repro.graph.updates import normalize_batch
        from repro.io.serialization import save_engine_snapshot
        from repro.matmul.engine import CountMatrix, csr_spgemm
        from repro.matmul.scheduler import PhaseScheduler, ProductDispatcher
        from repro.service.http import HttpRequest, render_response
        from repro.service.registry import ManagedEngine

        count = self.count
        self.patch_method(FourCycleEngine, "apply", "api.apply")
        self.patch_method(FourCycleEngine, "apply_batch", "api.apply_batch")
        self.patch_method(FourCycleEngine, "checkpoint", "api.checkpoint")
        self.patch_method(FourCycleEngine, "restore", "api.restore")

        original_init = FourCycleEngine.__init__

        def on_phase_rebuild(event) -> None:
            current = self._current.get()
            if current is not None:
                self.rebuild_spans.append(current[0])

        @functools.wraps(original_init)
        def init_watching_phases(engine, *args, **kwargs):
            original_init(engine, *args, **kwargs)
            if getattr(engine.counter, "phases_completed", None) is not None:
                engine.subscribe(on_phase_rebuild, kinds=[EVENT_PHASE_REBUILD])

        self._set(FourCycleEngine, "__init__", init_watching_phases)

        def on_batch(batch, args) -> None:
            count("graph.normalize_batch.raw", batch.raw_size)
            count("graph.normalize_batch.net", len(batch))

        self.patch_function(normalize_batch, self.wrap("graph.normalize_batch", normalize_batch, on_batch))
        self.patch_method(DynamicGraph, "csr_view", "graph.csr_view")

        self.patch_method(DynamicFourCycleCounter, "apply", "core.apply")
        self.patch_method(DynamicFourCycleCounter, "apply_batch", "core.apply_batch")
        self.patch_method(DynamicFourCycleCounter, "is_consistent", "core.is_consistent")

        self.patch_method(
            PhaseScheduler, "work", "matmul.phase_work",
            on_result=lambda ops, args: count("matmul.phase_work.ops", ops),
        )
        self.patch_method(PhaseScheduler, "finish_all", "matmul.phase_finish")
        self.patch_method(
            ProductDispatcher, "decide", "matmul.dispatch",
            on_result=lambda decision, args: count("matmul.dispatch.dense", decision.backend == "dense"),
        )
        self.patch_function(csr_spgemm, self.wrap("matmul.spgemm", csr_spgemm))
        self.patch_method(CountMatrix, "from_csr", "matmul.from_csr")

        self.patch_function(
            repro.kernels.exact_integer_matmul,
            self.wrap("kernels.exact_integer_matmul", repro.kernels.exact_integer_matmul),
        )

        self.patch_method(WriteAheadLog, "append", "durability.wal_append")

        @functools.wraps(encode_wal_record)
        def encode_counting_bytes(*args, **kwargs):  # once per record: a count, no span
            data = encode_wal_record(*args, **kwargs)
            count("durability.wal_bytes", len(data))
            return data

        self.patch_function(encode_wal_record, encode_counting_bytes)
        self._set(wal_module, "os", _FsyncCountingOs(self.wrap("durability.fsync", os.fsync)))
        self.patch_function(scan_wal, self.wrap("durability.scan_wal", scan_wal))
        self.patch_function(
            recover,
            self.wrap(
                "durability.recover", recover,
                on_result=lambda pair, args: count("durability.replayed_records", pair[1].replayed_records),
            ),
        )

        def on_snapshot(result, args) -> None:
            count("io.snapshot_bytes", os.path.getsize(args[1]))

        self.patch_function(
            save_engine_snapshot,
            self.wrap("io.save_engine_snapshot", save_engine_snapshot, on_snapshot),
        )

        self.patch_method(HttpRequest, "json", "service.decode")
        self.patch_function(render_response, self.wrap("service.render", render_response))
        self.patch_method(ManagedEngine, "apply_updates", "service.apply_updates", is_async=True)
        read_request = app_module.read_request

        async def read_request_starting_a_request(*args, **kwargs):
            request = await read_request(*args, **kwargs)
            self._request.set(next(self._ids))  # spans until the next read share this ID
            return request

        self._set(app_module, "read_request", read_request_starting_a_request)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- export --------------------------------------------------------------
    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "thread_names": {str(ident): name for ident, name in self.thread_names.items()},
            "rebuild_spans": self.rebuild_spans,
        }


def span_cost_s(samples: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""
    tracer = Tracer()

    def noop(value):
        return value

    traced = tracer.wrap("calibration", noop)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for index in range(samples):
            noop(index)
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for index in range(samples):
            traced(index)
        best = min(best, (time.perf_counter() - start - plain) / samples)
        tracer.spans.clear()
    return max(best, 0.0)


def _covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total, reach = 0.0, low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


class _ThreadBusy:
    """Sorted, disjoint busy intervals of one thread, for fast clipping."""

    def __init__(self, intervals: Iterable[Tuple[float, float]]) -> None:
        self._intervals = sorted(intervals)
        self._ends = [end for _, end in self._intervals]

    def within(self, low: float, high: float) -> List[Tuple[float, float]]:
        """The intervals overlapping ``[low, high]``."""
        found = []
        for start, end in self._intervals[bisect.bisect_right(self._ends, low):]:
            if start >= high:
                break
            found.append((start, end))
        return found

    def covered(self, low: float, high: float) -> float:
        return _covered(self.within(low, high), low, high)


def layer_metrics(
    trace: dict,
    window: Tuple[float, float],
    steps: Sequence[Tuple[str, float, float]] = (),
    wall_s: float = 0.0,
    span_cost: float = 0.0,
    caller_thread: Optional[int] = None,
    exclude: Sequence[Tuple[float, float]] = (),
) -> Dict[str, float]:
    """Per-layer metrics from a :meth:`Tracer.dump` restricted to ``window``.

    ``steps`` are the service rate steps ``(name, start, end)``;
    ``caller_thread`` is the thread whose uncovered time counts as
    unattributed for an in-process run (the service run uses its request
    windows instead); ``wall_s`` is the measured time the overhead is
    relative to.  Spans and counts that start inside an ``exclude``
    interval (the set-ups timed between the measured operations) are left out.
    """
    low, high = window
    excluded = sorted(exclude)

    def measured(at: float) -> bool:
        if not low <= at <= high:
            return False
        index = bisect.bisect_right(excluded, (at, math.inf)) - 1
        return index < 0 or excluded[index][1] < at

    spans = [span for span in trace["spans"] if measured(span[2])]
    counts: Dict[str, float] = defaultdict(float)
    for name, value, at in trace["counts"]:
        if measured(at):
            counts[name] += value
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[4] in by_id:
            children[span[4]].append((span[2], span[3]))
    metrics: Dict[str, float] = {}
    for name in WRAPPED:
        mine = [span for span in spans if span[1] == name]
        metrics[f"{name}.calls"] = len(mine)
        metrics[f"{name}.s"] = sum(end - start for _, _, start, end, *_ in mine)
        metrics[f"{name}.self_s"] = sum(
            (span[3] - span[2]) - _covered(children[span[0]], span[2], span[3]) for span in mine
        )
    raw = counts["graph.normalize_batch.raw"]
    metrics["graph.normalize_batch.net_ratio"] = counts["graph.normalize_batch.net"] / raw if raw else 0.0
    rebuilt = [by_id[span_id] for span_id in trace["rebuild_spans"] if span_id in by_id]
    metrics["core.phase_rebuilds"] = len(rebuilt)
    metrics["core.phase_rebuild_update.s"] = (
        sum(span[3] - span[2] for span in rebuilt) / len(rebuilt) if rebuilt else 0.0
    )
    metrics["matmul.phase_work.ops"] = counts["matmul.phase_work.ops"]
    decisions = metrics["matmul.dispatch.calls"]
    metrics["matmul.dispatch.dense_share"] = counts["matmul.dispatch.dense"] / decisions if decisions else 0.0
    records = metrics["durability.wal_append.calls"]
    metrics["durability.wal_records"] = records
    metrics["durability.wal_bytes_per_update"] = counts["durability.wal_bytes"] / records if records else 0.0
    metrics["durability.replayed_records"] = counts["durability.replayed_records"]
    metrics["io.snapshot_bytes"] = counts["io.snapshot_bytes"]

    names = {int(ident): name for ident, name in trace["thread_names"].items()}
    writer_roots = [
        span for span in spans
        if span[4] == 0 and names.get(span[5], "").startswith("engine-writer")
    ]
    writer = _ThreadBusy((span[2], span[3]) for span in writer_roots)
    applies = [span for span in spans if span[1] == "service.apply_updates"]
    metrics["service.queue_wait.s"] = sum(
        (span[3] - span[2]) - writer.covered(span[2], span[3]) for span in applies
    )
    busy = {step: [0.0, 0.0] for step in SERVICE_STEPS}
    for step, start, end in steps:  # a step may run in several rounds
        busy[step][0] += writer.covered(start, end)
        busy[step][1] += end - start
    for step, (covered, length) in busy.items():
        metrics[f"service.writer_busy_ratio.{step}"] = covered / length if length else 0.0

    metrics["trace.overhead_ratio"] = len(spans) * span_cost / wall_s if wall_s else 0.0
    if caller_thread is not None:
        roots = [(span[2], span[3]) for span in spans if span[4] == 0 and span[5] == caller_thread]
        span_s = (high - low) - _covered(excluded, low, high)
        uncovered = (high - low) - _covered(roots + excluded, low, high)
        metrics["trace.unattributed_share"] = uncovered / span_s
    else:
        # Tenant creation, recovery and close run on the loop's default
        # executor threads, engine commands on the writer threads.
        workers = _ThreadBusy(
            (span[2], span[3]) for span in spans
            if span[4] == 0 and names.get(span[5], "").startswith(("engine-writer", "asyncio_"))
        )
        metrics["trace.unattributed_share"] = _service_unattributed(spans, workers)
    return metrics


def _service_unattributed(spans: Sequence[Span], workers: _ThreadBusy) -> float:
    """Share of the server's request handling time no span covers.

    A request runs on the event-loop thread from the first span carrying its
    request ID to its ``service.render`` span; the part of that interval
    covered by neither a loop-thread span of the request nor worker-thread
    engine work is routing and framing glue.
    """
    requests: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        requests[span[6]].append(span)
    total = uncovered = 0.0
    for members in requests.values():
        if not any(span[1] == "service.render" for span in members):
            continue
        start = min(span[2] for span in members)
        end = max(span[3] for span in members)
        covered = _covered(
            [(span[2], span[3]) for span in members] + workers.within(start, end), start, end
        )
        total += end - start
        uncovered += (end - start) - covered
    return uncovered / total if total else 0.0
