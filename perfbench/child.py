"""One workload run in a fresh process; launched by run.py.

Set-up (importing coopnav, loading each scenario, constructing the first
round's simulations) is timed from the launcher's spawn time. With
--setup-only the process stops there. Otherwise it runs whole rounds, every
case of the workload at the round's seed, back to back in one thread, until
--seconds have passed, checks every output, and prints one JSON object.
Set-up and run times are reported at the reference speed of progress.py.

With --trace 1 each case runs twice at the same seed, once plain and once
traced, in alternating order; the traced run must reproduce the plain one
exactly, the per-layer numbers come from the traced runs, and the tracing
overhead is the traced time over the plain time.
"""

from __future__ import annotations

import time

import progress  # standard library only, so it can time the imports below

# This file only runs as a script: set-up timing starts before the imports.
STARTED = time.monotonic()
SETUP = progress.Sampler()
SETUP.start()

import argparse
import dataclasses
import json
import resource
import statistics
import sys
import traceback

from coopnav import config, harness, simkernel

import cases
import checks
from spans import CPNP, HTNA, PREDICTED_COV, RUN, Tracer


@dataclasses.dataclass
class Case:
    spec: cases.CaseSpec
    scenario: config.ScenarioConfig

    @property
    def burn_in_s(self) -> float:
        return self.scenario.parameters.metrics_burn_in_s


def load_cases(workload: str):
    """Each case's scenario config, and the time of each load_scenario call."""
    loaded, load_s = {}, []
    out = []
    for spec in cases.WORKLOADS[workload]:
        if spec.scenario not in loaded:
            path = config.bundled_scenario_path(spec.scenario)
            t0 = time.perf_counter()
            loaded[spec.scenario] = config.load_scenario(path)
            load_s.append(time.perf_counter() - t0)
        scen = loaded[spec.scenario]
        if spec.acronym is not None:
            scen = scen.with_algorithms(spec.acronym)
        if spec.agent_measurements is not None:
            scen = dataclasses.replace(scen, parameters=dataclasses.replace(
                scen.parameters, allow_agent_measurements=spec.agent_measurements))
        out.append(Case(spec, scen))
    return out, load_s


def case_failures(case: Case, result) -> list:
    report = harness.evaluate(result, node_id=case.spec.focus_node, burn_in_s=case.burn_in_s)
    return (checks.run_failures(case.scenario, result)
            + checks.accuracy_failures(result, report, case.spec.focus_node, case.burn_in_s))


def round_failures(workload: str, round_cases, results) -> list:
    """Checks across the cases of one round; each returns [(case index, message)]."""
    out = []
    if workload == "activation" and None not in results:
        out += [(1, m) for m in checks.activation_pair_failures(results[0], results[1])]
    for i, (case, result) in enumerate(zip(round_cases, results)):
        if result is not None and case.spec.scenario == "prioritization_multipath":
            out += [(i, m) for m in checks.prioritization_failures(
                case.scenario, result, case.spec.focus_node)]
    return out


class Tally:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed_cases = set()  # (round, case index)

    def fail(self, rnd, idx, label, message):
        print(f"FAILED round {rnd} {label}: {message}", file=sys.stderr)
        self.failed_cases.add((rnd, idx))


def score(tally, rnd, all_cases, results) -> list:
    """Check one round; return (case index, rmse, e_th) of each case that passed."""
    for (i, message) in round_failures(tally.workload, all_cases, results):
        tally.fail(rnd, i, all_cases[i].spec.label, message)
    scored = []
    for i, (case, result) in enumerate(zip(all_cases, results)):
        if result is None:
            continue
        try:
            problems = case_failures(case, result)
        except Exception:
            problems = [traceback.format_exc()]
        for message in problems:
            tally.fail(rnd, i, case.spec.label, message)
        if (rnd, i) not in tally.failed_cases:
            scored.append((i, *checks.accuracy(result, case.spec.focus_node, case.burn_in_s)))
    return scored


def timed_run(sim, tracer=None):
    w0, c0 = time.perf_counter(), time.process_time()
    result = sim.run() if tracer is None else tracer.run(sim)
    return result, time.perf_counter() - w0, time.process_time() - c0


def measure(args, all_cases, first_sims):
    tally = Tally(args.workload)
    runs = [[] for _ in all_cases]  # per case: the samples of each round's run
    accuracy = {c.spec.label: [] for c in all_cases}  # (rmse, e_th) of each passed case
    deadline = time.perf_counter() + args.seconds
    rnd = 0
    while True:
        seed = cases.round_seed(args.seed, rnd)
        results = []
        for i, case in enumerate(all_cases):
            sim = first_sims[i] if rnd == 0 else simkernel.Simulation(case.scenario, seed=seed)
            tally.attempted += 1
            try:
                result, samples = progress.sampled_run(sim)
                runs[i].append(samples)
            except Exception:
                tally.fail(rnd, i, case.spec.label, traceback.format_exc())
                result = None
            results.append(result)
        for i, case_rmse, case_e_th in score(tally, rnd, all_cases, results):
            accuracy[all_cases[i].spec.label].append((case_rmse, case_e_th))
        rnd += 1
        if time.perf_counter() >= deadline:
            break
    times = [[progress.reference_seconds(s) for s in r] for r in runs]
    # As the criteria do, each case's median over seeds (rounds); then the
    # mean over the scored cases.
    scored = [accuracy[c.spec.label] for c in all_cases if c.spec.scored]
    rmse = statistics.mean(_median([a[0] for a in acc]) for acc in scored)
    e_th = statistics.mean(_median([a[1] for a in acc]) for acc in scored)
    wall = sum(_median([w for w, _ in t]) for t in times)
    cpu = sum(_median([c for _, c in t]) for t in times)
    metrics = {
        "sim_s_per_s": (sum(c.scenario.duration_s for c in all_cases) / wall, "s/s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "rmse_m": (rmse, "m"),
        "e_th80_m": (e_th, "m"),
    }
    labels = [c.spec.label for c in all_cases]
    detail = {
        "case_wall_s": {k: [s[-1][0] - s[0][0] for s in r] for k, r in zip(labels, runs)},
        "case_cpu_s": {k: [s[-1][1] - s[0][1] for s in r] for k, r in zip(labels, runs)},
        "case_reference_wall_cpu_s": dict(zip(labels, times)),
        "case_rmse_e_th_m": accuracy,
    }
    return tally, rnd, metrics, detail


def _median(values):
    return statistics.median(values) if values else float("nan")


def outputs_equal(a, b) -> bool:
    return (a.records_csv() == b.records_csv() and a.counters == b.counters
            and a.link_counts == b.link_counts)


class Layers:
    """Per-layer sums over the traced runs."""

    def __init__(self):
        self.totals = {}  # span name -> [self s, calls, raised]
        self.events = 0
        self.delivered = self.collided = 0
        self.measurements = self.failed_exchanges = 0
        self.pc_in_cpnp = 0
        self.activations = 0
        self.relaxed_above = 0

    def add(self, tracer: Tracer, totals: dict, result):
        for name, (self_s, calls, raised) in totals.items():
            t = self.totals.setdefault(name, [0.0, 0, 0])
            t[0] += self_s
            t[1] += calls
            t[2] += raised
        self.events += tracer.heap.pops
        c = result.counters
        self.delivered += c["delivered"]
        self.collided += c["collided"]
        self.measurements += result.total_measurements()
        self.failed_exchanges += c["failed_exchanges"]
        self.pc_in_cpnp += tracer.calls_under(PREDICTED_COV, CPNP)
        self.activations += sum(bool(d) for d in tracer.decisions)
        self.relaxed_above += sum(
            1 for _p, r in tracer.allocations
            if r.relaxed_objective is not None and r.relaxed_objective > r.objective)

    def metrics(self, rounds: int, overhead_pct: float, load_ms: float) -> dict:
        def s(name):
            return self.totals.get(name, [0.0, 0, 0])[0] / rounds

        def calls(name):
            return self.totals.get(name, [0.0, 0, 0])[1] / rounds

        def per_call_us(name):
            t = self.totals.get(name, [0.0, 0, 0])
            return t[0] / t[1] * 1e6 if t[1] else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        frames = calls("simkernel.arbitrate")
        return {
            "config.load_scenario_ms": (load_ms, "ms"),
            "simkernel.events": (self.events / rounds, "count"),
            "simkernel.frames": (frames, "count"),
            "simkernel.deliveries": (self.delivered / rounds, "count"),
            "simkernel.self_s": (s(RUN), "s"),
            "simkernel.arbitrate_s": (s("simkernel.arbitrate"), "s"),
            "simkernel.arbitrate_us_per_frame": (per_call_us("simkernel.arbitrate"), "us"),
            "simkernel.delivery_ratio": (
                ratio(self.delivered, self.delivered + self.collided), "ratio"),
            "protocol.neighbor_update_s": (s("protocol.neighbor_update"), "s"),
            "protocol.neighbor_update_calls": (calls("protocol.neighbor_update"), "count"),
            "protocol.ranging_fsm_step_s": (s("protocol.ranging_fsm_step"), "s"),
            "protocol.ranging_fsm_step_calls": (calls("protocol.ranging_fsm_step"), "count"),
            "protocol.measurements": (self.measurements / rounds, "count"),
            "protocol.exchange_success": (ratio(
                self.measurements, self.measurements + self.failed_exchanges), "ratio"),
            "model.predict_belief_s": (s("model.predict_belief"), "s"),
            "model.predict_belief_calls": (calls("model.predict_belief"), "count"),
            "inference.spbp_update_s": (s("inference.spbp_update"), "s"),
            "inference.spbp_update_calls": (calls("inference.spbp_update"), "count"),
            "inference.spbp_update_us": (per_call_us("inference.spbp_update"), "us"),
            "inference.ls_estimate_s": (s("inference.ls_estimate"), "s"),
            "inference.ls_estimate_calls": (calls("inference.ls_estimate"), "count"),
            "inference.ls_failures": (
                self.totals.get("inference.ls_estimate", [0, 0, 0])[2] / rounds, "count"),
            "operation.cpnp_allocate_s": (s(CPNP), "s"),
            "operation.cpnp_allocate_calls": (calls(CPNP), "count"),
            "operation.cpnp_allocate_us": (per_call_us(CPNP), "us"),
            "operation.predicted_covariance_s": (s(PREDICTED_COV), "s"),
            "operation.predicted_covariance_calls": (calls(PREDICTED_COV), "count"),
            "operation.pc_per_allocation": (
                ratio(self.pc_in_cpnp, self.totals.get(CPNP, [0, 0, 0])[1]), "count"),
            "operation.relaxed_above_integer": (self.relaxed_above / rounds, "count"),
            "operation.htna_decide_s": (s(HTNA), "s"),
            "operation.htna_decide_calls": (calls(HTNA), "count"),
            "operation.htna_activation_ratio": (
                ratio(self.activations, self.totals.get(HTNA, [0, 0, 0])[1]), "ratio"),
            "operation.degenerate_links": (
                self.totals.get("operation.unit_direction", [0, 0, 0])[2] / rounds, "count"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }


def measure_traced(args, all_cases, first_sims, load_ms):
    tally = Tally(args.workload)
    layers = Layers()
    by_case = {}  # case label -> span name -> [self s, calls, raised], all rounds
    plain_s = traced_s = 0.0
    deadline = time.perf_counter() + args.seconds
    rnd = 0
    while True:
        seed = cases.round_seed(args.seed, rnd)
        results = []
        for i, case in enumerate(all_cases):
            tally.attempted += 1
            tracer = Tracer()
            try:
                runs = {}  # traced? -> (result, wall s, cpu s)
                for traced in ((False, True) if (rnd + i) % 2 == 0 else (True, False)):
                    sim = (first_sims[i] if rnd == 0 and not runs
                           else simkernel.Simulation(case.scenario, seed=seed))
                    if traced:
                        with tracer.installed():
                            runs[True] = timed_run(sim, tracer)
                    else:
                        runs[False] = timed_run(sim)
                plain, traced_run = runs[False][0], runs[True][0]
                problems = [] if outputs_equal(plain, traced_run) else [
                    "traced run differs from the plain run"]
                for problem, alloc in tracer.allocations:
                    problems += checks.allocation_failures(problem, alloc)
                totals = tracer.layer_totals()
                if case.scenario.algorithms.inference == "SPBP":
                    # One prediction per epoch, and one record per epoch.
                    predicted = totals["model.predict_belief"][1]
                    if predicted != len(plain.records):
                        problems.append(f"{predicted} predictions for "
                                        f"{len(plain.records)} epoch records")
                for message in problems:
                    tally.fail(rnd, i, case.spec.label, message)
                plain_s += runs[False][1]
                traced_s += runs[True][1]
                layers.add(tracer, totals, traced_run)
                per_case = by_case.setdefault(case.spec.label, {})
                for name, t in totals.items():
                    acc = per_case.setdefault(name, [0.0, 0, 0])
                    for k in range(3):
                        acc[k] += t[k]
            except Exception:
                tally.fail(rnd, i, case.spec.label, traceback.format_exc())
                plain = None
            results.append(plain)
        score(tally, rnd, all_cases, results)
        rnd += 1
        if time.perf_counter() >= deadline:
            break
    overhead = (traced_s / plain_s - 1.0) * 100.0 if plain_s else float("nan")
    detail = {"plain_s": plain_s, "traced_s": traced_s, "spans_by_case": by_case}
    return tally, rnd, layers.metrics(rnd, overhead, load_ms), detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() of the launcher when it started this process")
    p.add_argument("--load-ms", type=float, default=float("nan"),
                   help="median load_scenario time of the set-up runs, reported when tracing")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    all_cases, load_s = load_cases(args.workload)
    seed0 = cases.round_seed(args.seed, 0)
    first_sims = [simkernel.Simulation(c.scenario, seed=seed0) for c in all_cases]
    setup_s = STARTED - args.spawned_at + progress.reference_seconds(SETUP.stop())[0]
    out = {"setup_s": setup_s, "load_ms": [t * 1e3 for t in load_s]}
    if not args.setup_only:
        if args.trace:
            tally, rounds, metrics, detail = measure_traced(
                args, all_cases, first_sims, args.load_ms)
        else:
            tally, rounds, metrics, detail = measure(args, all_cases, first_sims)
        out.update(attempted=tally.attempted, failed=len(tally.failed_cases), rounds=rounds,
                   metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   detail=detail)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
