"""Golden per-update ``matmul_ops`` figures of the phase-FMM counter.

The phase scheduler's cost model charges every old-phase product by its
combinatorial work: one unit per multiply-add of the row-times-matrix
product, at least one per left entry and per row, with whole rows taken in
``repr`` order until the per-update budget is used.  How the products are
*computed* may change; these figures may not — E5, E6 and E9 report them.
The sequences below were recorded from the original dict-loop scheduler.
"""

from __future__ import annotations

import pytest

from repro.api import EngineConfig, FourCycleEngine

from tests.conftest import random_dynamic_stream

#: Per-update ``matmul_ops`` with the default (m-derived) phase length.
DEFAULT_PHASES = [
    0, 0, 6, 2, 0, 18, 0, 0, 16, 0, 4, 4, 0, 18, 0, 0, 32, 0, 0, 76, 35, 0, 0, 0, 46,
    100, 0, 0, 0, 0, 0, 102, 0, 0, 0, 0, 0, 137, 0, 0, 0, 0, 0, 0, 0, 30, 0, 25, 31, 0,
    0, 24, 0, 0, 24, 0, 32, 0, 0, 74, 0, 0, 0, 46, 10, 0, 0, 44, 0, 0, 43, 0, 0, 0, 138,
    0, 0, 0, 0, 0, 0, 70, 0, 0, 0, 0, 164, 0, 0, 0, 0, 0, 0, 354, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 106, 449, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 102, 460, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 1068, 221, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 666, 1189, 0, 0,
]

#: Per-update ``matmul_ops`` with ``phase_length=8`` (a rollover every 8
#: chain updates, i.e. every few graph updates).
SHORT_PHASES = [
    0, 12, 8, 0, 16, 18, 24, 0, 16, 2, 6, 2, 16, 18, 24, 0, 32, 42, 66, 0, 124, 98, 92,
    0, 120, 158, 140, 0, 150, 130, 109, 0, 74, 110, 107, 0, 122, 137, 96, 0, 84, 53, 53,
    0, 40, 24, 29, 0, 56, 26, 32, 0, 16, 13, 44, 0, 24, 41, 83, 0, 50, 52, 42, 0, 60,
    39, 45, 0, 50, 36, 53, 0, 104, 126, 115, 0, 136, 98, 112, 0, 86, 74, 108, 0, 130,
    174, 179, 0, 202, 250, 323, 0, 392, 365, 386, 0, 418, 392, 432, 0, 514, 598, 575, 0,
    612, 564, 672, 0, 800, 734, 765, 0, 686, 709, 598, 0, 627, 696, 609, 0, 552, 623,
    722, 0, 689, 771, 857, 0, 966, 1065, 1174, 0, 1099, 1231, 1334, 0, 1300, 1351, 1321,
    0, 1440, 1562, 1692, 0, 1622, 1487, 1488, 0, 1603, 1480, 1489, 0, 1611, 1735, 1878,
    0, 1807, 1892, 1887, 0,
]


@pytest.mark.parametrize(
    "options, expected, final_count, phases",
    [
        ({}, DEFAULT_PHASES, 74, 27),
        ({"phase_length": 8}, SHORT_PHASES, 74, 120),
    ],
    ids=["default-phases", "short-phases"],
)
def test_per_update_matmul_ops_sequence(options, expected, final_count, phases):
    engine = FourCycleEngine(EngineConfig(counter="phase-fmm", options=options))
    observed = []
    for update in random_dynamic_stream(num_vertices=12, num_updates=160, seed=11):
        before = engine.counter.cost.get("matmul_ops")
        engine.apply(update)
        observed.append(engine.counter.cost.get("matmul_ops") - before)
    assert observed == expected
    assert engine.count == final_count
    assert engine.counter.phases_completed == phases
