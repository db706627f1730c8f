"""Each output check of the benchmark passes a real run and rejects a
corrupted one; the tracer reproduces untraced runs and restores the program.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import copy
import dataclasses

import numpy as np
import pytest

from coopnav import harness, inference, operation, simkernel
from coopnav.config import bundled_scenario_path, load_scenario

import checks
import progress
import spans


def short(name, acronym=None, duration=4.0):
    scen = load_scenario(bundled_scenario_path(name))
    if acronym is not None:
        scen = scen.with_algorithms(acronym)
    return dataclasses.replace(scen, duration_s=duration)


@pytest.fixture(scope="module")
def coop():
    scen = short("two_agent_cooperation")
    return scen, simkernel.run(scen, seed=3)


@pytest.fixture(scope="module")
def activation_pair():
    runs = [simkernel.run(short("three_agent_activation", acr, 3.0), seed=3)
            for acr in ("BP-CS-UN", "BP-HT-UN")]
    return runs


def test_real_run_passes(coop):
    scen, result = coop
    assert checks.run_failures(scen, result) == []
    report = harness.evaluate(result, node_id=11, burn_in_s=1.0)
    assert checks.accuracy_failures(result, report, 11, 1.0) == []


def test_accuracy_recomputed_from_records(coop):
    _, result = coop
    report = harness.evaluate(result, node_id=None, burn_in_s=0.0)
    rmse, e_th = checks.accuracy(result, None, 0.0)
    assert rmse == pytest.approx(report.rmse_m, rel=1e-12)
    assert e_th == report.e_th_80_m


def test_swapped_estimate_rejected(coop):
    _, result = coop
    report = harness.evaluate(result, node_id=11, burn_in_s=1.0)
    bad = copy.deepcopy(result)
    mine = next(r for r in bad.records if r.node_id == 11 and r.time_s >= 1.0)
    other = next(r for r in bad.records if r.node_id == 10)
    mine.est_pos, other.est_pos = other.est_pos, mine.est_pos
    assert checks.accuracy_failures(bad, report, 11, 1.0)


def corrupted(result, change):
    bad = copy.deepcopy(result)
    change(bad)
    return bad


@pytest.mark.parametrize("change", [
    pytest.param(lambda r: r.counters.__setitem__("delivered", r.counters["delivered"] - 1),
                 id="conservation"),
    pytest.param(lambda r: r.records.insert(5, copy.deepcopy(r.records[5])),
                 id="two-records-one-epoch"),
    pytest.param(lambda r: r.records.reverse(), id="times-decrease"),
    pytest.param(lambda r: r.records.__setitem__(
        slice(None), [x for x in r.records if x.node_id != 10]), id="agent-without-records"),
    pytest.param(lambda r: r.link_counts.__setitem__(
        next(iter(r.link_counts)), r.link_counts[next(iter(r.link_counts))] + 1),
                 id="link-counts"),
    pytest.param(lambda r: setattr(
        next(x for x in r.records if x.n_meas > 0), "activated", 0),
                 id="measured-without-activation"),
    pytest.param(lambda r: setattr(r.records[3], "est_pos", np.array([np.nan, 0.0, 0.0])),
                 id="non-finite-estimate"),
    pytest.param(lambda r: setattr(r.records[3], "cov_trace", -1e-6),
                 id="negative-covariance-trace"),
])
def test_corrupted_run_rejected(coop, change):
    scen, result = coop
    assert checks.run_failures(scen, corrupted(result, change))


def test_activation_pair(activation_pair):
    carrier_sense, threshold = activation_pair
    assert checks.activation_pair_failures(carrier_sense, threshold) == []
    assert checks.activation_pair_failures(threshold, carrier_sense)


def test_clean_link_ratio():
    scen = load_scenario(bundled_scenario_path("prioritization_multipath"))
    result = simkernel.RunResult("p", 0, 1.0, [], {(10, 1): 40, (10, 2): 10, (10, 4): 10}, {})
    assert checks.clean_link_ratio(scen, result, 10) == 2.0
    assert checks.prioritization_failures(scen, result, 10) == []
    result.link_counts[(10, 4)] = 11
    assert checks.prioritization_failures(scen, result, 10)


@pytest.fixture(scope="module")
def allocation():
    links = (
        operation.LinkInfo(1, np.array([1.0, 0.0, 0.0]), 90.0, np.zeros((3, 3))),
        operation.LinkInfo(2, np.array([0.0, 1.0, 0.0]), 20.0, np.zeros((3, 3))),
        operation.LinkInfo(3, np.array([0.6, 0.0, 0.8]), 50.0, np.diag([0.02, 0.01, 0.03])),
        operation.LinkInfo(4, np.array([0.0, -0.6, 0.8]), 70.0, np.zeros((3, 3))),
    )
    problem = operation.AllocationProblem(np.diag([0.05, 0.02, 0.08]), links, 12)
    return problem, operation.cpnp_allocate(problem)


def test_allocation_passes(allocation):
    problem, result = allocation
    assert checks.allocation_failures(problem, result) == []


def test_allocation_objective_off_rejected(allocation):
    problem, result = allocation
    off = dataclasses.replace(result, objective=result.objective * (1 + 1e-7))
    assert "objective" in checks.allocation_failures(problem, off)[0]


def test_infeasible_allocation_rejected(allocation):
    problem, result = allocation
    over = result.m.copy()
    over[0] += 1
    bad = operation.AllocationResult(over, checks.allocation_objective(problem, over))
    assert "infeasible" in checks.allocation_failures(problem, bad)[0]


def test_improvable_allocation_rejected(allocation):
    problem, result = allocation
    worse = result.m.copy()
    a = int(np.argmax(worse))
    b = (a + 1) % worse.size
    worse[a] -= 1
    worse[b] += 1
    bad = operation.AllocationResult(worse, checks.allocation_objective(problem, worse))
    assert "lowers the objective" in checks.allocation_failures(problem, bad)[0]


def test_tracer_reproduces_run_and_restores_bindings():
    scen = short("multi_floor", "BP-HT-CP", 3.0)
    before = [getattr(mod, attr) for mod, attr, _ in spans.TARGETS] + [simkernel.heapq]
    tracer = spans.Tracer()
    with tracer.installed():
        traced = tracer.run(simkernel.Simulation(scen, seed=2))
    after = [getattr(mod, attr) for mod, attr, _ in spans.TARGETS] + [simkernel.heapq]
    assert all(a is b for a, b in zip(before, after))
    plain = simkernel.run(scen, seed=2)
    assert traced.records_csv() == plain.records_csv()
    assert traced.counters == plain.counters
    totals = tracer.layer_totals()
    assert totals[spans.CPNP][1] == len(tracer.allocations) > 0
    assert totals["simkernel.arbitrate"][1] == plain.counters["transmissions"]
    assert tracer.heap.pops > plain.counters["transmissions"]
    for problem, result in tracer.allocations:
        assert checks.allocation_failures(problem, result) == []


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans[:] = [
        (spans.RUN, 0.0, 10.0, -1, False),
        (spans.CPNP, 1.0, 5.0, 0, False),
        (spans.PREDICTED_COV, 2.0, 3.0, 1, False),
        (spans.PREDICTED_COV, 6.0, 6.5, 0, False),
        ("inference.ls_estimate", 7.0, 8.0, 0, True),
    ]
    totals = tracer.layer_totals()
    assert totals[spans.RUN] == [pytest.approx(4.5), 1, 0]
    assert totals[spans.CPNP] == [pytest.approx(3.0), 1, 0]
    assert totals[spans.PREDICTED_COV] == [pytest.approx(1.5), 2, 0]
    assert totals["inference.ls_estimate"] == [pytest.approx(1.0), 1, 1]
    assert tracer.calls_under(spans.PREDICTED_COV, spans.CPNP) == 1


def test_failed_call_recorded_and_reraised():
    tracer = spans.Tracer()
    with tracer.installed():
        with pytest.raises(Exception):
            inference.ls_estimate(np.zeros(3), inference.MeasurementBatch(()))
    assert tracer.layer_totals()["inference.ls_estimate"] == [pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1]), 1, 1]


def test_reference_seconds_remove_the_loop_and_its_slowdown():
    loop = np.full(12, 2 * progress.REFERENCE_LOOP_S)  # twice as slow throughout
    wall = np.cumsum(np.full(12, 0.01) + loop)  # each reading follows its loop
    cpu = np.cumsum(np.full(12, 0.008) + loop)
    w, c = progress.reference_seconds(np.column_stack([wall, cpu, loop]))
    assert w == pytest.approx(11 * 0.01 / 2)
    assert c == pytest.approx(11 * 0.008 / 2)


def test_sampled_run_matches_plain_run():
    scen = short("single_floor_inference", "BP-AL-UN", 3.0)
    result, samples = progress.sampled_run(simkernel.Simulation(scen, seed=4))
    assert result.records_csv() == simkernel.run(scen, seed=4).records_csv()
    samples = np.array(samples)
    assert len(samples) > 2 and (np.diff(samples[:, :2], axis=0) >= 0).all()
    assert progress.reference_seconds(samples)[0] > 0
