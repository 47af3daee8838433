"""The repository benchmark: one command, three named workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-updates --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selfcheck

With ``--trace 0`` the last line of standard output is one JSON object with
every end-to-end metric; with ``--trace 1`` it carries every per-layer metric
instead.  The line before it holds the run's details (input statistics and
the sample count behind every timing).  A failed correctness gate prints
``"correct": false`` and exits 1.  ``--selfcheck`` runs a tiny profile of
every workload, traced and untraced, through the same gates.  See
``perfbench/README.md`` for what each metric means on each workload.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "updates/s",
    "update_p50_us": "us",
    "update_p99_us": "us",
    "batch_p50_ms": "ms",
    "batch_p95_ms": "ms",
    "recover_s": "s",
    "ingest_p50_ms": "ms",
    "ingest_p99_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "ingest_sustained_rps": "req/s",
    "consistency_s": "s",
    "peak_rss_mb": "MB",
}

WORKLOADS = ("paper-updates", "durable-batches", "service-mixed")


def run_workload(name: str, seed: int, seconds: float, trace: bool, profile: str) -> dict:
    """Run one workload and return the result object (the printed last line)."""
    from common import Context, GateError
    from spans import per_layer_units

    workdir = ROOT / ".perfbench_run" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    ctx = Context(seed=seed, seconds=seconds, trace=trace, profile=profile, workdir=workdir)
    try:
        if name == "service-mixed":
            from service import service_mixed as workload
        elif name == "durable-batches":
            from inprocess import durable_batches as workload
        else:
            from inprocess import paper_updates as workload
        try:
            outcome = workload(ctx)
        except GateError as error:
            print(f"correctness gate failed: {error}", file=sys.stderr)
            return {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    units = dict(per_layer_units()) if trace else END_TO_END
    values = outcome.layers if trace else outcome.metrics
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"{name} did not measure {', '.join(missing)}")
    bad = [key for key in units if not math.isfinite(values[key])]
    if bad:
        raise RuntimeError(f"{name} measured non-finite {', '.join(bad)}")
    print(json.dumps({"workload": name, "seed": seed, "trace": trace, **outcome.details}))
    return {
        "correct": True,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }


def selfcheck() -> int:
    """Tiny profile of every workload, untraced then traced, gates included."""
    failures = 0
    for name in WORKLOADS:
        for trace in (False, True):
            started = time.perf_counter()
            result = run_workload(name, seed=7, seconds=2.0, trace=trace, profile="tiny")
            ok = result["correct"] and result["failed"] == 0
            failures += not ok
            print(
                f"selfcheck {name:16s} trace={int(trace)} "
                f"{'ok' if ok else 'FAILED'} ({time.perf_counter() - started:.1f}s, "
                f"{len(result['metrics'])} metrics)",
                file=sys.stderr,
            )
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    # One BLAS thread: on a 2-core host a second BLAS thread makes the dense
    # recount's time depend on whatever else holds the other core (it moved
    # consistency_s by a third between runs).  The service inherits this.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, str(SRC))
    if args.selfcheck:
        return selfcheck()
    if args.workload is None:
        parser.error("--workload is required unless --selfcheck is given")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
