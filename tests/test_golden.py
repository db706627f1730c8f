"""Golden fingerprints of short simulation runs.

Each case runs one bundled scenario under one algorithm combination that the
acceptance criteria 04-08 use, at seed 1 with the duration capped at 5 s, and
hashes the records CSV, the trace CSV, the counters and the link counts. A
change that only makes the simulator faster must leave every hash unchanged;
a change that alters behaviour must re-baseline the affected hashes and say
why in CHANGES.md.

Every bundled scenario's communication range (60 m) covers its whole room,
so no frame in those runs is ever out of range. SHORT_RANGE pins the range
branch of the channel too: the two cooperative scenarios under all five
acronyms with the range cut to 9 m, where many receptions, interferers and
carrier senses fall out of range.

FULL_DURATION hashes four whole runs at seed 1 (without the trace), so that
state which builds up over a run beyond 5 s is pinned as well; the LS run
pins the baseline's warm-started estimates over a whole run.
"""

import dataclasses
import hashlib
import json

import pytest

from coopnav.config import bundled_scenario_path, load_scenario
from coopnav.simkernel import run

SEED = 1
DURATION_S = 5.0

# (scenario, acronym or None for the scenario's own algorithms,
#  allow_agent_measurements override or None) -> sha256
GOLDEN = {
    ("single_floor_inference", "LS-AL-UN", None):
        "c689e37df7acc0c629284da2a3f238ec60b6b09d095a66919741061771f5baa9",
    ("single_floor_inference", "BP-AL-UN", None):
        "91c743adaef251134f8cb1df809b50542f92f11cf44c79ec438db6a1f7335d1e",
    ("two_agent_cooperation", None, None):
        "9f7b707aa5cd4a27efc0a41470987e41f0fdba8dfb8687003380aed6f172c879",
    ("two_agent_cooperation", None, False):
        "6c66de8e8f174d04c2561a2c117df1ff8d05de2ad0cbc0e1b2910c567df0c317",
    ("three_agent_activation", "BP-CS-UN", None):
        "e40a02b94195f517b0f763f48310290a0a4e0c1c1780a31881178dcaf1275cd2",
    ("three_agent_activation", "BP-HT-UN", None):
        "04c0e0a6863f8515f5994155290098c3c6ad642c611a9187f0e1757198378dd9",
    ("prioritization_multipath", None, None):
        "911f31a385a98b6b2a7ed1f98d95dea031171243c8934222432f8d2fd2f68e63",
    ("prioritization_multipath", "BP-AL-UN", None):
        "bb7f435ccb004c56d57d45c1c96bbb0a5fef57deef8af0f4ae55223c31bbf418",
    ("multi_floor", "BP-HT-UN", None):
        "c9c162e2895b0cd01a3acb79ac5f2c979fae853b72b66d0fa05c21a5191c5eea",
    ("multi_floor", "BP-HT-CP", None):
        "a3101b8e3fa66474b6d332e4e6ec080453aedcaf0922aa944598db0b42d7c5f8",
}


def fingerprint(result) -> str:
    h = hashlib.sha256()
    h.update(result.records_csv().encode())
    h.update(result.trace_csv().encode())
    h.update(json.dumps(result.counters, sort_keys=True).encode())
    h.update(repr(sorted(result.link_counts.items())).encode())
    return h.hexdigest()


def golden_run(name, acronym, allow_agent):
    scen = load_scenario(bundled_scenario_path(name))
    if acronym is not None:
        scen = scen.with_algorithms(acronym)
    if allow_agent is not None:
        scen = dataclasses.replace(
            scen,
            parameters=dataclasses.replace(
                scen.parameters, allow_agent_measurements=allow_agent
            ),
        )
    scen = dataclasses.replace(scen, duration_s=min(scen.duration_s, DURATION_S))
    return run(scen, seed=SEED, collect_trace=True)


@pytest.mark.parametrize("case", sorted(GOLDEN, key=repr), ids=repr)
def test_fingerprint_unchanged(case):
    got = fingerprint(golden_run(*case))
    assert got == GOLDEN[case], f"GOLDEN[{case!r}] is now {got}"


SHORT_RANGE_M = 9.0

# (scenario, acronym) -> sha256, at comm_range_m = SHORT_RANGE_M
SHORT_RANGE = {
    ("three_agent_activation", "LS-AL-UN"):
        "c9a18aacc7e051d2975160e466410337165cd0ca0816f6f0abdc73d4bfd1f774",
    ("three_agent_activation", "BP-AL-UN"):
        "93f198b83ca9d92a7b1d35310f5de4e2a35799a2bf67d691749f15b2f1290ded",
    ("three_agent_activation", "BP-CS-UN"):
        "d1d9c40acce46d4ac6b1fa1da2b8b131397d67cdc3b5c3311fddf945b5f48ce5",
    ("three_agent_activation", "BP-HT-UN"):
        "997edc3c9c8cb2a6db8a200e95e76b83ba1107de0a56491c7e01f9f8d895f6de",
    ("three_agent_activation", "BP-HT-CP"):
        "2d053293d55ecab945d91f2c51da5fbd39f7183a10d353386821addb42eb8fca",
    ("two_agent_cooperation", "LS-AL-UN"):
        "4896aaf5aaffa9b84878e390b45eede7b36c7455ae1ea9e66c8cd5a6ed9a6282",
    ("two_agent_cooperation", "BP-AL-UN"):
        "6d28f32dd6cedf004d3170c0394fdb6ab57abae3282e29d4aee60aad83cd9d38",
    ("two_agent_cooperation", "BP-CS-UN"):
        "518cce361523f8a5760b072e7959da7df2ff61a7f661ca0a60015e986a84863c",
    ("two_agent_cooperation", "BP-HT-UN"):
        "e639faf75fee51075b621512e57dd94588c1390359192d5ef46ccaebc79aba6a",
    ("two_agent_cooperation", "BP-HT-CP"):
        "e4a7344045435096b288a1b779d3d528a7e28de867588ddb7edeb40bd668b13b",
}


def short_range_run(name, acronym):
    scen = load_scenario(bundled_scenario_path(name)).with_algorithms(acronym)
    scen = dataclasses.replace(
        scen,
        duration_s=min(scen.duration_s, DURATION_S),
        link_truth=dataclasses.replace(scen.link_truth, comm_range_m=SHORT_RANGE_M),
    )
    return run(scen, seed=SEED, collect_trace=True)


@pytest.mark.parametrize("case", sorted(SHORT_RANGE), ids=repr)
def test_short_range_fingerprint_unchanged(case):
    got = fingerprint(short_range_run(*case))
    assert got == SHORT_RANGE[case], f"SHORT_RANGE[{case!r}] is now {got}"


# (scenario, acronym) -> sha256 of a whole run's records, counters and link
# counts, at SEED
FULL_DURATION = {
    ("three_agent_activation", "BP-CS-UN"):
        "9af0d43267db01b2ec60393d2bd220159692cbc9ba54ae861839ec3a3fa0f9ec",
    ("three_agent_activation", "BP-HT-UN"):
        "77a370a4da585b335b3462953c41a71dc91110c0cbed1abd5f865401a67fea62",
    ("multi_floor", "BP-HT-CP"):
        "7aeed6ad8d712ffc0797f07253b783fd0020fe2d1b98e8b595d0da0ab6b7978d",
    ("single_floor_inference", "LS-AL-UN"):
        "d2cdc4ac2665f17007698892df991922d644a2640e7a07dc99bc93e0b75f34d4",
}


@pytest.mark.parametrize("case", sorted(FULL_DURATION), ids=repr)
def test_full_duration_fingerprint_unchanged(case):
    name, acronym = case
    scen = load_scenario(bundled_scenario_path(name)).with_algorithms(acronym)
    got = fingerprint(run(scen, seed=SEED))
    assert got == FULL_DURATION[case], f"FULL_DURATION[{case!r}] is now {got}"
