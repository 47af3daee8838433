"""Unified, typed entry point for running the dynamic 4-cycle counters.

The subsystem has four pieces:

* :class:`~repro.api.config.EngineConfig` — a validated description of a run
  (counter, options, batch size, interning/metrics/cost switches) with
  ``from_dict``/``to_dict`` round-trips.
* :class:`~repro.api.registry.CounterSpec` — capability descriptors for the
  registered counters (options, batch-hook support, oracle use, asymptotics).
* :mod:`repro.api.sources` — the :class:`UpdateSource` protocol and adapters
  for generated, replayed, and database-tuple update feeds.
* :class:`~repro.api.engine.FourCycleEngine` — the facade that owns a counter,
  drives sources through it, snapshots/restores state, and publishes events.

Quickstart::

    from repro.api import EngineConfig, FourCycleEngine

    engine = FourCycleEngine(EngineConfig(counter="assadi-shah", batch_size=64))
    engine.insert("a", "b")
    final = engine.run(stream)          # any UpdateSource
    snapshot = engine.checkpoint()      # restorable, JSON-serializable
    clone = FourCycleEngine.restore(snapshot)
"""

from repro.api.config import EngineConfig
from repro.api.engine import (
    EVENT_BATCH_APPLIED,
    EVENT_CHECKPOINT,
    EVENT_EXECUTOR_DEGRADED,
    EVENT_KINDS,
    EVENT_PHASE_REBUILD,
    EVENT_UPDATE_APPLIED,
    EngineEvent,
    EngineSnapshot,
    FourCycleEngine,
)
from repro.api.registry import (
    BUILTIN_COUNTER_NAMES,
    CounterSpec,
    OptionSpec,
    available_counter_names,
    available_specs,
    counter_spec,
    register_spec,
)
from repro.api.sources import (
    GENERATOR_CATALOGUE,
    GeneratorSource,
    ReplaySource,
    TupleFeedSource,
    UpdateSource,
    as_update_source,
    iter_windows,
)

__all__ = [
    "EngineConfig",
    "FourCycleEngine",
    "EngineEvent",
    "EngineSnapshot",
    "EVENT_KINDS",
    "EVENT_UPDATE_APPLIED",
    "EVENT_BATCH_APPLIED",
    "EVENT_PHASE_REBUILD",
    "EVENT_CHECKPOINT",
    "EVENT_EXECUTOR_DEGRADED",
    "BUILTIN_COUNTER_NAMES",
    "CounterSpec",
    "OptionSpec",
    "register_spec",
    "counter_spec",
    "available_specs",
    "available_counter_names",
    "UpdateSource",
    "GeneratorSource",
    "ReplaySource",
    "TupleFeedSource",
    "GENERATOR_CATALOGUE",
    "as_update_source",
    "iter_windows",
]
