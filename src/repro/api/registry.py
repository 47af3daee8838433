"""Capability-aware counter registry — the facade's view of it.

The registry itself lives in :mod:`repro.core.specs`, in the core layer next
to the counters it describes, so core modules never import upward into
:mod:`repro.api`; this module re-exports it as the facade's public surface.
See :mod:`repro.core.specs` for the full documentation.
"""

from __future__ import annotations

from repro.core.specs import (
    BUILTIN_COUNTER_NAMES,
    COMMON_OPTIONS,
    CounterFactory,
    CounterSpec,
    OptionSpec,
    available_counter_names,
    available_specs,
    counter_spec,
    register_spec,
)

__all__ = [
    "BUILTIN_COUNTER_NAMES",
    "COMMON_OPTIONS",
    "CounterFactory",
    "CounterSpec",
    "OptionSpec",
    "available_counter_names",
    "available_specs",
    "counter_spec",
    "register_spec",
]
