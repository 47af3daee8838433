"""The ``service-mixed`` workload: reads beside writes over HTTP.

``repro-4cycles serve`` runs in its own process (started through
``perfbench/serve.py``) with one durable ``wedge`` tenant.  This process is
the load generator: one asyncio loop, two keep-alive connections (never more
than ``nproc``).  The ingest connection sends 8-update requests open loop at
fixed rate steps while the read connection polls ``/counts`` and per-vertex
stats open loop; latency is taken from each request's due time, so a stall
also charges the requests queued behind it.  Closed-loop phases time
single-update and 64-update requests, a pipelined phase measures the ingest
capacity, and timed ``/consistency`` calls, tenant set-ups and tenant
recoveries run beside them in interleaved rounds.  Every count of requests
is fixed before timing starts.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Set, Tuple

from common import Context, GateError, Outcome, reference_count, require
from httpclient import Connection, ConnectionBroken
from inputs import EdgeSetTracker, make_input
from spans import SERVICE_STEPS, layer_metrics, span_cost_s
from stats import percentile

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The tenant takes no periodic snapshots: with one every few hundred records
#: the snapshot write, and the requests queued behind it, land right at the
#: p99 rank of the base step.  ``durable-batches`` covers periodic snapshots;
#: here ``POST /compact`` forces the one snapshot the recovery tail starts from.
#: ``singles``, ``batches`` and ``pipelined`` count the requests of the
#: closed-loop and capacity phases for a 25 s run (:meth:`Context.work`).
PROFILES = {
    "full": {"n": 1000, "m": 3000, "churn": 150_000,
             "base_rate": 60.0, "read_rate": 60.0, "tail_requests": 256,
             "singles": 1500, "batches": 250, "pipelined": 600},
    "tiny": {"n": 150, "m": 400, "churn": 20_000,
             "base_rate": 40.0, "read_rate": 40.0, "tail_requests": 16,
             "singles": 200, "batches": 100, "pipelined": 200},
}
#: Offered ingest rate of each step as a multiple of the base rate, and the
#: share of ``--seconds`` each step sends for.  The base step is the longest
#: because the base-rate percentiles come from it.
STEP_MULTIPLIERS = (1, 2, 4, 8)
STEP_SHARES = (0.70, 0.05, 0.04, 0.04)
#: An unmeasured lead-in at the base rate: requests in the first seconds
#: after set-up ran several times slower than the steady state.
WARMUP_SHARE = 0.06
#: Interleaved rounds of the base step and the closed-loop, capacity and
#: recount phases.  With 3 rounds the per-round p50 of one run still moved by
#: up to 40% (and the capacity by 2x) between rounds: each phase of a round
#: lasts about a second, shorter than the host's swings in speed.
ROUNDS = 10
INGEST = 8
BATCH = 64
PRELOAD_CHUNK = 500
#: The ingest p99 limit each step is checked against (reported per step).
INGEST_P99_LIMIT_MS = 100.0
TENANT = "main"
#: A throwaway tenant for the timed set-ups, and the tenant whose closed log
#: the timed recoveries replay.
SCRATCH_TENANT = "setup"
RECOVERY_TENANT = "recovery"
SERVER_START_TIMEOUT_S = 60.0


class _Server:
    """The server process; always stopped by :meth:`stop`."""

    def __init__(self, trace_out: Path | None, cpus: Set[int]) -> None:
        command = [sys.executable, str(HERE / "serve.py"), str(SRC)]
        if trace_out is not None:
            command.append(str(trace_out))
        self.process = subprocess.Popen(
            command, cwd=str(HERE.parent), stdout=subprocess.PIPE, text=True,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus),
        )
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 1.0)
            if ready:
                line = self.process.stdout.readline()
                if not line:
                    break
                if "listening on http://" in line:
                    return int(line.strip().rsplit(":", 1)[1])
        raise RuntimeError("the service did not report its address")

    def stop(self) -> dict:
        """SIGINT, wait, and return the launcher's final JSON line."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            output, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise
        lines = [line for line in output.splitlines() if line.startswith("{")]
        return json.loads(lines[-1]) if lines else {}


def _payload(updates: Sequence[Tuple[str, int, int]]) -> dict:
    return {"updates": [{"kind": kind, "u": u, "v": v} for kind, u, v in updates]}


class _LoadGenerator:
    """The load generator's state: connections, input position, outcomes."""

    def __init__(self, ctx: Context, profile: dict, port: int) -> None:
        self.ctx = ctx
        self.profile = profile
        self.port = port
        self.graph_input = make_input(ctx.seed, profile["n"], profile["m"], profile["churn"], skew=0.0)
        self.position = 0
        self.windows: List[Sequence] = []
        self.attempted = 0
        self.failed = 0
        rng = random.Random(ctx.seed + 1)
        endpoints = sorted({u for edge in self.graph_input.preload for u in edge})
        self.read_vertices = [rng.choice(endpoints) for _ in range(1024)]
        self.read_index = 0
        self.preload = [("insert", u, v) for u, v in self.graph_input.preload]
        #: ``(start, end)`` of the interleaved set-ups, left out of the traced window.
        self.setup_spans: List[Tuple[float, float]] = []
        self.recovery_config: dict = {}

    # -- input ---------------------------------------------------------------
    def take(self, size: int):
        """The next ``size`` churn updates."""
        if self.position + size > len(self.graph_input.churn):
            raise ValueError(f"--seconds {self.ctx.seconds} asks for more updates than the churn holds")
        window = self.graph_input.churn[self.position:self.position + size]
        self.position += size
        self.windows.append(window)
        return window

    def _check(self, status: int) -> bool:
        self.attempted += 1
        ok = 200 <= status < 300
        if not ok:
            self.failed += 1
        return ok

    async def request(self, conn: Connection, method: str, path: str, payload=None) -> dict:
        status, body = await conn.request(method, path, payload)
        if not self._check(status):
            raise GateError(f"{method} {path} answered {status}: {body}")
        return body

    # -- phases --------------------------------------------------------------
    async def create(self, conn: Connection, name: str, directory: Path,
                     updates: Sequence[Tuple[str, int, int]]) -> Tuple[dict, float]:
        """Create a durable ``wedge`` tenant in ``directory`` and load
        ``updates`` in 500-update requests; return its config and the time."""
        directory.mkdir()
        config = {"counter": "wedge", "wal_path": str(directory / "updates.wal"),
                  "fsync_policy": "batch"}
        start = time.perf_counter()
        await self.request(conn, "POST", "/engines", {"name": name, "config": config})
        for offset in range(0, len(updates), PRELOAD_CHUNK):
            await self.request(conn, "POST", f"/engines/{name}/updates",
                               _payload(updates[offset:offset + PRELOAD_CHUNK]))
        return config, time.perf_counter() - start

    async def setup(self, conn: Connection) -> float:
        """One timed set-up (tenant creation plus preload) of a throwaway tenant."""
        start = time.perf_counter()
        directory = self.ctx.workdir / f"setup-{len(self.setup_spans)}"
        _, seconds = await self.create(conn, SCRATCH_TENANT, directory, self.preload)
        await self.request(conn, "DELETE", f"/engines/{SCRATCH_TENANT}")
        self.setup_spans.append((start, time.perf_counter()))
        shutil.rmtree(directory)
        return seconds

    async def prepare_recovery(self, conn: Connection) -> int:
        """Leave a closed log for the timed recoveries: the preload, a forced
        snapshot, then a fixed tail of ``tail_requests`` 8-update requests
        (the start of the churn, which applies to the preloaded edge set).
        Return the count the recovered tenant must report."""
        updates = self.graph_input.churn[:self.profile["tail_requests"] * INGEST]
        self.recovery_config, _ = await self.create(
            conn, RECOVERY_TENANT, self.ctx.workdir / "recovery", self.preload)
        path = f"/engines/{RECOVERY_TENANT}"
        await self.request(conn, "POST", f"{path}/compact")
        for offset in range(0, len(updates), INGEST):
            await self.request(conn, "POST", f"{path}/updates", _payload(updates[offset:offset + INGEST]))
        counts = await self.request(conn, "GET", f"{path}/counts")
        await self.request(conn, "DELETE", path)
        return counts["count"]

    async def recover(self, conn: Connection, expected: int) -> float:
        """One timed tenant re-creation with ``recover: "always"`` from the
        closed log, which must report ``expected``; the tenant is then closed."""
        start = time.perf_counter()
        body = await self.request(conn, "POST", "/engines", {
            "name": RECOVERY_TENANT, "config": self.recovery_config, "recover": "always"})
        seconds = time.perf_counter() - start
        require(body["recovered"] is True and body["count"] == expected,
                f"recovered tenant reports count {body['count']}, expected {expected}")
        await self.request(conn, "DELETE", f"/engines/{RECOVERY_TENANT}")
        return seconds

    async def open_loop(self, conn: Connection, rate: float, start: float, seconds: float,
                        make: Callable[[], Tuple[str, str, object]]) -> List[Tuple[float, float, float]]:
        """Send ``make()`` requests due every ``1 / rate`` s from ``start``;
        return ``(due, sent, answered)`` per request."""
        total = int(seconds * rate)
        inflight: asyncio.Queue = asyncio.Queue()
        records: List[Tuple[float, float, float]] = []
        clock = time.perf_counter

        async def sender() -> None:
            for index in range(total):
                due = start + index / rate
                delay = due - clock()
                if delay > 0:
                    await asyncio.sleep(delay)
                conn.send(*make())
                inflight.put_nowait((due, clock()))
                await conn.drain()
            inflight.put_nowait(None)

        async def receiver() -> None:
            while True:
                entry = await inflight.get()
                if entry is None:
                    return
                status, body = await conn.receive()
                records.append((entry[0], entry[1], clock()))
                if not self._check(status):
                    raise GateError(f"open-loop request answered {status}: {body}")

        await asyncio.gather(sender(), receiver())
        return records

    async def step(self, ingest: Connection, reads: Connection, name: str, multiplier: int,
                   share: float) -> tuple:
        """One open-loop rate step: ingest at ``multiplier`` times the base
        rate beside reads at the read rate, for ``share`` of ``--seconds``."""
        path = f"/engines/{TENANT}/updates"

        def make_ingest():
            return ("POST", path, _payload(self.take(INGEST)))

        def make_read():
            self.read_index += 1
            if self.read_index % 2:
                return ("GET", f"/engines/{TENANT}/counts", None)
            vertex = self.read_vertices[self.read_index % len(self.read_vertices)]
            return ("GET", f"/engines/{TENANT}/vertices/{vertex}", None)

        rate = self.profile["base_rate"] * multiplier
        seconds = share * self.ctx.seconds
        start = time.perf_counter() + 0.05
        ingest_records, read_records = await asyncio.gather(
            self.open_loop(ingest, rate, start, seconds, make_ingest),
            self.open_loop(reads, self.profile["read_rate"], start, seconds, make_read),
        )
        return (name, rate, start, start + seconds, ingest_records, read_records)

    async def consistency(self, conn: Connection, count: int) -> List[float]:
        """``count`` timed ``GET /consistency`` calls, each of which must hold."""
        times = []
        for _ in range(count):
            start = time.perf_counter()
            body = await self.request(conn, "GET", f"/engines/{TENANT}/consistency")
            times.append(time.perf_counter() - start)
            require(body["consistent"] is True, f"/consistency answered {body}")
        return times

    async def closed_loop(self, conn: Connection, size: int, count: int) -> List[float]:
        """``count`` requests of ``size`` updates, each sent when the last one
        was answered; return their latencies."""
        latencies = []
        path = f"/engines/{TENANT}/updates"
        for _ in range(count):
            payload = _payload(self.take(size))
            start = time.perf_counter()
            await self.request(conn, "POST", path, payload)
            latencies.append(time.perf_counter() - start)
        return latencies

    async def pipelined(self, conn: Connection, count: int) -> float:
        """Send ``count`` 8-update requests back to back without waiting for
        answers; return the seconds from the first send to the last answer.
        The service never waits on the client here, so count over that time
        is its ingest capacity on one connection."""
        path = f"/engines/{TENANT}/updates"
        payloads = [_payload(self.take(INGEST)) for _ in range(count)]

        async def sender() -> None:
            for payload in payloads:
                conn.send("POST", path, payload)
                await conn.drain()

        async def receiver() -> None:
            for _ in range(count):
                status, body = await conn.receive()
                if not self._check(status):
                    raise GateError(f"pipelined request answered {status}: {body}")

        start = time.perf_counter()
        await asyncio.gather(sender(), receiver())
        return time.perf_counter() - start


def service_mixed(ctx: Context) -> Outcome:
    profile = PROFILES[ctx.profile]
    trace_out = ctx.workdir / "server-spans.json" if ctx.trace else None
    # Server and load generator each get a core of their own when there are
    # two: left to migrate, the closed-loop request latency switched between
    # two levels (about 2.9 and 4.1 ms) from one run to the next.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpus, client_cpus = ({cpus[-1]}, {cpus[0]}) if len(cpus) > 1 else (set(cpus), set(cpus))
    server = _Server(trace_out, server_cpus)
    os.sched_setaffinity(0, client_cpus)
    try:
        load = _LoadGenerator(ctx, profile, server.port)
        ctx.freeze_inputs()
        # The load generator's own collections would stall its sends and
        # receives and read as server latency; its garbage is acyclic.
        gc.disable()
        try:
            phases = asyncio.run(_drive(load))
        finally:
            gc.enable()
    finally:
        os.sched_setaffinity(0, cpus)
        server_figures = server.stop()

    tracker = EdgeSetTracker(load.graph_input)
    for window in load.windows:
        tracker.apply(window, window=len(window) > 1)
    require(tracker.in_range(), f"live edges left {load.graph_input.live_range}")
    expected = reference_count(tracker.edges)
    require(phases["count"] == expected, f"served count {phases['count']} != wedge reference {expected}")

    # Each step's records, its rounds merged; an answered rate is requests
    # over the summed time from each round's start to its last answer.
    merged: Dict[str, list] = {}
    for name, rate, start, _, records, read_records in phases["steps"]:
        row = merged.setdefault(name, [rate, [], [], 0.0])
        row[1] += records
        row[2] += read_records
        row[3] += max(answered for _, _, answered in records) - start
    base_ingest, base_reads = merged[SERVICE_STEPS[0]][1:3]
    ingest = [answered - due for due, _, answered in base_ingest]
    reads = [answered - due for due, _, answered in base_reads]
    late = [sent - due for due, sent, _ in base_ingest + base_reads]
    step_details = [
        {"step": name, "rate": rate, "sent": len(records), "reads": len(read_records),
         "ingest_p50_ms": percentile([a - d for d, _, a in records], 50) * 1e3,
         "ingest_p99_ms": percentile([a - d for d, _, a in records], 99) * 1e3,
         "late_p99_ms": percentile([s - d for d, s, _ in records], 99) * 1e3,
         "achieved_rps": len(records) / busy_s}
        for name, (rate, records, read_records, busy_s) in merged.items()
    ]
    meeting = [row["rate"] for row in step_details if row["ingest_p99_ms"] <= INGEST_P99_LIMIT_MS]
    singles, batches = phases["singles"], phases["batches"]
    metrics = {
        "setup_s": statistics.median(phases["setup"]),
        "updates_per_s": len(batches) * BATCH / sum(batches),
        "update_p50_us": percentile(singles, 50) * 1e6,
        "update_p99_us": percentile(singles, 99) * 1e6,
        "batch_p50_ms": percentile(batches, 50) * 1e3,
        "batch_p95_ms": percentile(batches, 95) * 1e3,
        "recover_s": statistics.median(phases["recover"]),
        "ingest_p50_ms": percentile(ingest, 50) * 1e3,
        "ingest_p99_ms": percentile(ingest, 99) * 1e3,
        "read_p50_ms": percentile(reads, 50) * 1e3,
        "read_p99_ms": percentile(reads, 99) * 1e3,
        "ingest_sustained_rps": phases["pipelined_rps"],
        "consistency_s": statistics.median(phases["consistency"]),
        "peak_rss_mb": server_figures["peak_rss_mb"],
    }
    layers: Dict[str, float] = {}
    if trace_out is not None:
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        window = phases["window"]
        layers = layer_metrics(
            trace, window,
            steps=[(name, start, end) for name, _, start, end, _, _ in phases["steps"]],
            wall_s=window[1] - window[0], span_cost=span_cost_s(), exclude=load.setup_spans,
        )
        layers["client.late_p99_ms"] = percentile(late, 99) * 1e3
        layers["proc.cpu_s"] = server_figures["cpu_s"]
    details = {
        "input": tracker.summary(),
        "samples": {"setup_s": len(phases["setup"]), "ingest": len(ingest), "read": len(reads),
                    "update": len(singles), "batch": len(batches),
                    "ingest_sustained_rps": phases["pipelined"],
                    "recover_s": len(phases["recover"]), "consistency_s": len(phases["consistency"])},
        "steps": step_details, "ingest_p99_limit_ms": INGEST_P99_LIMIT_MS,
        "highest_step_meeting_limit_rps": max(meeting, default=0.0),
        "final_count": phases["count"], "late_p99_ms": percentile(late, 99) * 1e3,
        "server": server_figures,
    }
    return Outcome(metrics, layers, load.attempted, load.failed, details)


async def _drive(load: _LoadGenerator) -> dict:
    ingest = await Connection.open("127.0.0.1", load.port)
    reads = await Connection.open("127.0.0.1", load.port)
    try:
        return await _phases(load, ingest, reads)
    except ConnectionBroken as error:
        load.failed += 1
        raise GateError(f"connection to the service broke: {error}") from error
    finally:
        await ingest.close()
        await reads.close()


async def _phases(load: _LoadGenerator, ingest: Connection, reads: Connection) -> dict:
    ctx, profile = load.ctx, load.profile
    _, seconds = await load.create(ingest, TENANT, ctx.workdir / "main", load.preload)
    setup = [seconds]
    expected_recovered = await load.prepare_recovery(ingest)
    window_start = time.perf_counter()
    await load.step(ingest, reads, "warmup", 1, WARMUP_SHARE)
    # The base step and every other timed phase, set-up and recovery
    # included, run in interleaved rounds, so each figure samples the host
    # over the whole run rather than over one stretch of a few seconds: this
    # host's speed swung by up to 1.5x between stretches of that length.
    steps, singles, batches, consistency, recover = [], [], [], [], []
    pipelined_count, pipelined_s = 0, 0.0

    def per_round(key: str) -> int:
        return max(1, ctx.work(profile[key]) // ROUNDS)

    for _ in range(ROUNDS):
        steps.append(await load.step(ingest, reads, SERVICE_STEPS[0], 1, STEP_SHARES[0] / ROUNDS))
        singles += await load.closed_loop(ingest, 1, per_round("singles"))
        batches += await load.closed_loop(ingest, BATCH, per_round("batches"))
        count = per_round("pipelined")
        pipelined_s += await load.pipelined(ingest, count)
        pipelined_count += count
        consistency += await load.consistency(ingest, 1)
        setup.append(await load.setup(ingest))
        recover.append(await load.recover(ingest, expected_recovered))
    for name, multiplier, share in zip(SERVICE_STEPS[1:], STEP_MULTIPLIERS[1:], STEP_SHARES[1:]):
        steps.append(await load.step(ingest, reads, name, multiplier, share))

    counts = await load.request(ingest, "GET", f"/engines/{TENANT}/counts")
    sent = len(load.graph_input.preload) + load.position
    require(counts["updates_processed"] == sent,
            f"updates_processed {counts['updates_processed']} != {sent} updates sent")
    require(counts["last_durable_seq"] >= sent - 1,
            f"last_durable_seq {counts['last_durable_seq']} does not cover {sent} updates")
    consistency += await load.consistency(ingest, 1)
    window_end = time.perf_counter()
    return {
        "setup": setup, "steps": steps, "singles": singles, "batches": batches,
        "consistency": consistency, "recover": recover, "count": counts["count"],
        "pipelined_rps": pipelined_count / pipelined_s, "pipelined": pipelined_count,
        "window": (window_start, window_end),
    }
