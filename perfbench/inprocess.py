"""The in-process workloads: ``paper-updates`` and ``durable-batches``.

Both drive ``assadi-shah`` through :class:`repro.api.FourCycleEngine` (and
``durable-batches`` through :func:`repro.durability.recover`) in this
process.  There is no queue in front of the engine here, so an "ingest" is the
service time of a write (8 consecutive updates on ``paper-updates``, one
64-update window on ``durable-batches``) and a "read" is one ``checkpoint()``:
the consistent read view the service publishes after every command.
"""

from __future__ import annotations

import gc
import itertools
import shutil
import statistics
import time
from pathlib import Path
from typing import List, Sequence

from common import Context, Outcome, peak_rss_mb, process_cpu_s, reference_count, require
from inputs import EdgeSetTracker, make_input
from stats import percentile

#: Sizes per profile; ``tiny`` is the self-check's.  Counts of timed work
#: (``phases``, ``windows``) are for a 25 s run and scale with ``--seconds``
#: (:meth:`Context.work`); they never depend on how fast the run goes, so every
#: run of a seed times the same updates.  Every ``sample_every`` updates
#: (paper-updates) or windows (durable-batches), and once at the end, the run
#: times one recount, one set-up and one restore or recovery between the
#: measured updates (:class:`_SideSamples`).
PAPER_PROFILES = {
    "full": {"n": 2000, "m": 9000, "skew": 0.6, "churn": 100_000, "phases": 3,
             "sample_every": 4000},
    "tiny": {"n": 200, "m": 600, "skew": 0.6, "churn": 6000, "phases": 2,
             "sample_every": 2500},
}
#: The recovery tail (``tail_windows`` of 64) stays under ``snapshot_every``
#: so no automatic snapshot lands inside it and every ``recover()`` replays it
#: whole.  A snapshot every 256 records puts one in a quarter of the 64-update
#: windows: far from both the p50 and the p95 rank, so neither percentile sits
#: on the edge between windows with and without one.
DURABLE_PROFILES = {
    "full": {"n": 1000, "m": 3000, "churn": 100_000, "windows": 200, "sample_every": 20,
             "snapshot_every": 256, "tail_windows": 3},
    "tiny": {"n": 150, "m": 400, "churn": 8000, "windows": 200, "sample_every": 8,
             "snapshot_every": 128, "tail_windows": 1},
}
BATCH = 64
INGEST = 8
#: paper-updates times one checkpoint after every this many updates.
READ_EVERY = 12


def _edge_updates(updates):
    from repro.graph.updates import EdgeUpdate

    return [
        EdgeUpdate.insert(u, v) if kind == "insert" else EdgeUpdate.delete(u, v)
        for kind, u, v in updates
    ]


def _window_sums(latencies: Sequence[float], size: int) -> List[float]:
    return [sum(latencies[start:start + size]) for start in range(0, len(latencies) - size + 1, size)]


class _SideSamples:
    """Set-up, restore or recovery and recount timings taken between the
    measured updates rather than back to back: on one shared 2-core host the
    speed of a fixed CPU loop swung by up to 1.5x between stretches of a few
    seconds, so a figure taken from one such stretch carried all of it."""

    def __init__(self) -> None:
        self.setup: List[float] = []
        self.recover: List[float] = []
        self.consistency: List[float] = []
        #: ``(start, end)`` of the interleaved set-ups, left out of the traced window.
        self.setup_spans: List[tuple] = []

    def time_setup(self, set_up) -> object:
        """Run and time ``set_up()``; return what it built."""
        start = time.perf_counter()
        built = set_up()
        end = time.perf_counter()
        self.setup.append(end - start)
        self.setup_spans.append((start, end))
        return built

    def time_recount(self, engine) -> None:
        """Time one ``is_consistent()`` (a from-scratch recount), which must hold."""
        start = time.perf_counter()
        require(engine.is_consistent(), "is_consistent() is false")
        self.consistency.append(time.perf_counter() - start)

    def time_recover(self, recover) -> None:
        start = time.perf_counter()
        recover()
        self.recover.append(time.perf_counter() - start)


def paper_updates(ctx: Context) -> Outcome:
    """assadi-shah in memory, one ``apply`` per update, skewed churn at steady m."""
    from repro.api import EngineConfig, FourCycleEngine

    profile = PAPER_PROFILES[ctx.profile]
    graph_input = make_input(ctx.seed, profile["n"], profile["m"], profile["churn"], profile["skew"])
    tracker = EdgeSetTracker(graph_input)
    preload = _edge_updates(("insert", u, v) for u, v in graph_input.preload)
    churn = _edge_updates(graph_input.churn)
    config = EngineConfig(counter="assadi-shah")
    ctx.freeze_inputs()
    tracer = ctx.start_tracer()

    def set_up():
        engine = FourCycleEngine(config)
        engine.apply_batch(preload)
        return engine

    side = _SideSamples()
    engine = side.time_setup(set_up)

    def side_samples() -> None:
        side.time_recount(engine)
        side.time_setup(set_up)
        gc.collect()  # the throwaway engine, before the restore is timed
        snapshot, expected = engine.checkpoint(), engine.count

        def restore() -> None:
            clone = FourCycleEngine.restore(snapshot)
            require(clone.count == expected, f"restored count {clone.count} != {expected}")

        side.time_recover(restore)
        gc.collect()

    # The counter spends most of its time in bursts of de-amortized product
    # work right after each phase rollover, so the churn covers a fixed
    # number of phase rollovers: the phase length is set by m, so a seed
    # always times the same updates.
    counter = engine.counter
    target = counter.phases_completed + ctx.work(profile["phases"])
    window_start = time.perf_counter()
    latencies: List[float] = []
    reads: List[float] = []
    applied = 0
    clock = time.perf_counter
    while counter.phases_completed < target:
        require(applied < len(churn), f"the churn ended before {target} phases completed")
        start = clock()
        engine.apply(churn[applied])
        latencies.append(clock() - start)
        applied += 1
        if applied % READ_EVERY == 0:
            start = clock()
            engine.checkpoint()
            reads.append(clock() - start)
        if applied % profile["sample_every"] == 0:
            side_samples()
    if applied % profile["sample_every"]:
        side_samples()
    final_count = engine.count
    window_end = time.perf_counter()
    rss = peak_rss_mb()
    layers = ctx.finish_tracer(tracer, (window_start, window_end), wall_s=window_end - window_start,
                               exclude=side.setup_spans)
    engine = None

    tracker.apply(graph_input.churn[:applied])
    require(tracker.in_range(), f"live edges left {graph_input.live_range}")
    expected = reference_count(tracker.edges)
    require(final_count == expected, f"final count {final_count} != wedge reference {expected}")

    batches = _window_sums(latencies, BATCH)
    ingests = _window_sums(latencies, INGEST)
    metrics = {
        "setup_s": statistics.median(side.setup),
        "updates_per_s": applied / sum(latencies),
        "update_p50_us": percentile(latencies, 50) * 1e6,
        "update_p99_us": percentile(latencies, 99) * 1e6,
        "batch_p50_ms": percentile(batches, 50) * 1e3,
        "batch_p95_ms": percentile(batches, 95) * 1e3,
        "recover_s": statistics.median(side.recover),
        "ingest_p50_ms": percentile(ingests, 50) * 1e3,
        "ingest_p99_ms": percentile(ingests, 99) * 1e3,
        "read_p50_ms": percentile(reads, 50) * 1e3,
        "read_p99_ms": percentile(reads, 99) * 1e3,
        "ingest_sustained_rps": len(ingests) / sum(ingests),
        "consistency_s": statistics.median(side.consistency),
        "peak_rss_mb": rss,
    }
    samples = {
        "setup_s": len(side.setup), "update": applied, "batch": len(batches),
        "ingest": len(ingests), "read": len(reads), "recover_s": len(side.recover),
        "consistency_s": len(side.consistency),
    }
    details = {"input": tracker.summary(), "samples": samples, "final_count": final_count,
               "phases": ctx.work(profile["phases"]), "cpu_s": process_cpu_s()}
    return Outcome(metrics, layers, attempted=applied + len(reads), failed=0, details=details)


def durable_batches(ctx: Context) -> Outcome:
    """assadi-shah with a WAL, ``apply_batch`` windows of 64, then ``recover()``."""
    from repro.api import EngineConfig, FourCycleEngine
    import repro.durability

    profile = DURABLE_PROFILES[ctx.profile]
    graph_input = make_input(ctx.seed, profile["n"], profile["m"], profile["churn"], skew=0.0)
    tracker = EdgeSetTracker(graph_input)
    preload = _edge_updates(("insert", u, v) for u, v in graph_input.preload)
    churn = _edge_updates(graph_input.churn)
    ctx.freeze_inputs()
    tracer = ctx.start_tracer()
    directories = (ctx.workdir / f"engine-{index}" for index in itertools.count())

    def set_up(directory=None):
        directory = directory or next(directories)
        directory.mkdir(parents=True)
        engine = FourCycleEngine(EngineConfig(
            counter="assadi-shah", batch_size=BATCH, wal_path=str(directory / "updates.wal"),
            fsync_policy="batch", snapshot_every=profile["snapshot_every"],
        ))
        engine.apply_batch(preload)
        return engine

    # The log the timed recoveries replay: the preload, a forced snapshot,
    # then a fixed tail of whole windows (the start of the churn, which
    # applies to the preloaded edge set).
    tail_records = profile["tail_windows"] * BATCH
    logged = set_up(ctx.workdir / "recovery")
    logged.compact_wal()
    for offset in range(0, tail_records, BATCH):
        logged.apply_batch(churn[offset:offset + BATCH])
    logged_count, logged_wal = logged.count, logged.config.wal_path
    logged.close()
    logged = None

    def recover() -> None:
        recovered, report = repro.durability.recover(logged_wal, attach=False)
        require(recovered.count == logged_count, f"recovered count {recovered.count} != {logged_count}")
        require(report.replayed_records == tail_records > 0,
                f"replayed {report.replayed_records} records, expected a tail of {tail_records}")
        recovered.close()

    side = _SideSamples()
    engine = side.time_setup(set_up)

    def side_samples() -> None:
        side.time_recount(engine)
        spare = side.time_setup(set_up)
        spare.close()
        shutil.rmtree(Path(spare.config.wal_path).parent)
        spare = None
        gc.collect()  # the throwaway engine, before the recovery is timed
        side.time_recover(recover)
        gc.collect()

    # Every update goes through a 64-update apply_batch window (the batch
    # hook); smaller windows and single applies would fall back to per-update
    # replay and run the phase scheduler, which this workload leaves idle.
    measured = ctx.work(profile["windows"]) * BATCH
    if measured > len(churn):
        raise ValueError(f"--seconds {ctx.seconds} asks for more windows than the churn holds")
    windows: List[Sequence] = []
    batches: List[float] = []
    reads: List[float] = []
    window_start = time.perf_counter()
    for position in range(0, measured, BATCH):
        window = churn[position:position + BATCH]
        start = time.perf_counter()
        engine.apply_batch(window)
        batches.append(time.perf_counter() - start)
        windows.append(graph_input.churn[position:position + BATCH])
        start = time.perf_counter()
        engine.checkpoint()
        reads.append(time.perf_counter() - start)
        if len(batches) % profile["sample_every"] == 0:
            side_samples()
    if len(batches) % profile["sample_every"]:
        side_samples()
    window_end = time.perf_counter()
    rss = peak_rss_mb()
    layers = ctx.finish_tracer(tracer, (window_start, window_end), wall_s=window_end - window_start,
                               exclude=side.setup_spans)

    count_before = engine.count
    last_seq = engine.last_durable_seq
    wal_path = engine.config.wal_path
    engine.close()
    engine = None
    records = len(preload) + measured
    require(last_seq == records - 1, f"last durable seq {last_seq} does not cover {records} records")
    recovered, _ = repro.durability.recover(wal_path, attach=False)
    require(recovered.count == count_before, f"recovered count {recovered.count} != {count_before}")
    require(recovered.is_consistent(), "the recovered engine's is_consistent() is false")
    recovered.close()

    for window in windows:
        tracker.apply(window, window=True)
    require(tracker.in_range(), f"live edges left {graph_input.live_range}")
    expected = reference_count(tracker.edges)
    require(count_before == expected, f"final count {count_before} != wedge reference {expected}")

    # One write path: an update's latency is that of the window carrying it,
    # and an ingest is one window, so update_* and ingest_* time the windows.
    metrics = {
        "setup_s": statistics.median(side.setup),
        "updates_per_s": measured / sum(batches),
        "update_p50_us": percentile(batches, 50) * 1e6,
        "update_p99_us": percentile(batches, 99) * 1e6,
        "batch_p50_ms": percentile(batches, 50) * 1e3,
        "batch_p95_ms": percentile(batches, 95) * 1e3,
        "recover_s": statistics.median(side.recover),
        "ingest_p50_ms": percentile(batches, 50) * 1e3,
        "ingest_p99_ms": percentile(batches, 99) * 1e3,
        "read_p50_ms": percentile(reads, 50) * 1e3,
        "read_p99_ms": percentile(reads, 99) * 1e3,
        "ingest_sustained_rps": len(batches) / sum(batches),
        "consistency_s": statistics.median(side.consistency),
        "peak_rss_mb": rss,
    }
    samples = {
        "setup_s": len(side.setup), "batch": len(batches), "read": len(reads),
        "recover_s": len(side.recover), "consistency_s": len(side.consistency),
    }
    details = {
        "input": tracker.summary(), "samples": samples, "final_count": count_before,
        "measured_updates": measured, "recovery_tail_records": tail_records,
        "cpu_s": process_cpu_s(),
    }
    return Outcome(metrics, layers, attempted=len(batches) + len(reads), failed=0, details=details)
