"""The benchmark's workloads: which simulation cases make up one round.

An operation is one case: one bundled scenario under one algorithm
combination at one seed, run for the scenario's full duration. A round runs
every case of a workload once, at the round's seed. This module holds plain
data only, so the launcher can read the workload names without importing the
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CaseSpec:
    label: str
    scenario: str  # bundled scenario name
    acronym: str | None  # None keeps the scenario's own algorithms
    agent_measurements: bool | None  # None keeps the scenario's setting
    focus_node: int | None  # node the criterion scores; None scores every agent
    scored: bool  # counted in the workload's accuracy figures


WORKLOADS = {
    # Criterion-06: carrier sensing against threshold activation.
    "activation": (
        CaseSpec("three_agent_activation/BP-CS-UN", "three_agent_activation",
                 "BP-CS-UN", None, None, False),
        CaseSpec("three_agent_activation/BP-HT-UN", "three_agent_activation",
                 "BP-HT-UN", None, None, True),
    ),
    # Criteria 07 and 08: convex measurement allocation.
    "allocation": (
        CaseSpec("multi_floor/BP-HT-CP", "multi_floor", "BP-HT-CP", None, 10, True),
        CaseSpec("prioritization_multipath/own", "prioritization_multipath",
                 None, None, 10, True),
    ),
    # Criteria 04 and 05: the LS baseline and agent-to-agent cooperation.
    "cooperation": (
        CaseSpec("single_floor_inference/LS-AL-UN", "single_floor_inference",
                 "LS-AL-UN", None, 10, True),
        CaseSpec("single_floor_inference/BP-AL-UN", "single_floor_inference",
                 "BP-AL-UN", None, 10, True),
        CaseSpec("two_agent_cooperation/cooperative", "two_agent_cooperation",
                 None, None, 11, True),
        CaseSpec("two_agent_cooperation/anchors-only", "two_agent_cooperation",
                 None, False, 11, True),
    ),
}


def round_seed(seed: int, round_index: int) -> int:
    """Simulation seed of one round: runs at different --seed values share none."""
    return seed * 1000 + round_index
