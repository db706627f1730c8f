"""Output checks of the benchmark.

Each check either recomputes a result from the raw records with its own
numpy code, or tests a property the method must have. None compares with a
stored copy of earlier output. Every function returns a list of failure
messages; an empty list means the check passed.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

REL_TOL = 1e-9  # recomputed metrics and allocation objectives


def accuracy(result, node_id, burn_in_s):
    """(RMSE, 20%-outage error threshold) of the position errors, as the
    criteria score a run: records of `node_id` (every agent if None) from
    `burn_in_s` on."""
    recs = [r for r in result.records
            if (node_id is None or r.node_id == node_id) and r.time_s >= burn_in_s]
    if not recs:
        raise ValueError("no records to score")
    diff = np.array([r.est_pos for r in recs]) - np.array([r.true_pos for r in recs])
    errors = np.sqrt((diff * diff).sum(axis=1))
    rmse = float(np.sqrt(np.mean(errors * errors)))
    # Smallest error e with P(error > e) <= 0.2, found by counting.
    ordered = np.sort(errors)
    exceed = ordered.size - np.searchsorted(ordered, ordered, side="right")
    e_th = float(ordered[np.argmax(exceed <= 0.2 * ordered.size)])
    return rmse, e_th


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def accuracy_failures(result, report, node_id, burn_in_s) -> list:
    rmse, e_th = accuracy(result, node_id, burn_in_s)
    out = []
    if not _close(rmse, report.rmse_m):
        out.append(f"RMSE {report.rmse_m!r} differs from recomputed {rmse!r}")
    if not _close(e_th, report.e_th_80_m):
        out.append(f"e_th@0.2 {report.e_th_80_m!r} differs from recomputed {e_th!r}")
    return out


def run_failures(scenario, result) -> list:
    """Properties every run of `scenario` must have."""
    out = []
    n_nodes = len(scenario.anchors) + len(scenario.agents)
    c = result.counters
    outcomes = c["delivered"] + c["collided"] + c["out-of-range"]
    if outcomes != c["transmissions"] * (n_nodes - 1):
        out.append(f"{outcomes} receiver outcomes for {c['transmissions']} "
                   f"transmissions to {n_nodes - 1} receivers each")

    par = scenario.parameters
    min_gap = par.epoch_period_s * (1.0 - par.epoch_jitter) * (1.0 - 1e-9)
    agents = {a.id for a in scenario.agents}
    times = defaultdict(list)
    for r in result.records:
        times[r.node_id].append(r.time_s)
    if set(times) != agents:
        out.append(f"records for nodes {sorted(times)}, agents are {sorted(agents)}")
    for nid, ts in times.items():
        if ts[0] != 0.0:
            out.append(f"node {nid}: first epoch at {ts[0]!r}, not 0")
        if ts[-1] >= scenario.duration_s:
            out.append(f"node {nid}: epoch at {ts[-1]!r} after the end")
        gaps = np.diff(ts)
        if gaps.size and gaps.min() < min_gap:
            # Epochs are at least one (jittered) period apart, so a shorter
            # gap means a repeated or out-of-order record.
            out.append(f"node {nid}: records {gaps.min()!r} s apart, "
                       f"epochs are >= {min_gap!r} s apart")

    total = sum(result.link_counts.values())
    if total != result.total_measurements():
        out.append(f"link counts sum to {total}, records to {result.total_measurements()}")
    if any(r.n_meas > 0 and r.activated != 1 for r in result.records):
        out.append("a record has measurements but was not activated")

    est = np.array([r.est_pos for r in result.records], dtype=float)
    if not np.isfinite(est).all():
        out.append("non-finite position estimate")
    if scenario.algorithms.inference == "SPBP":
        traces = np.array([r.cov_trace for r in result.records])
        if not (np.isfinite(traces) & (traces >= 0.0)).all():
            out.append("SPBP covariance trace negative or non-finite")
    return out


def activation_pair_failures(carrier_sense, threshold) -> list:
    """Threshold activation must measure less often than carrier sensing."""
    cs = carrier_sense.total_measurements() / carrier_sense.duration_s
    ht = threshold.total_measurements() / threshold.duration_s
    if ht < cs:
        return []
    return [f"BP-HT-UN made {ht:.1f} measurements/s, BP-CS-UN {cs:.1f}/s"]


def clean_link_ratio(scenario, result, agent: int) -> float:
    """Measurements over clean anchor links per measurement over NLOS ones."""
    nlos = {b if a == agent else a for a, b in scenario.link_truth.nlos_pairs
            if agent in (a, b)}
    anchors = {a.id for a in scenario.anchors}
    clean = sum(v for (j, k), v in result.link_counts.items()
                if j == agent and k in anchors - nlos)
    degraded = sum(v for (j, k), v in result.link_counts.items()
                   if j == agent and k in nlos)
    return clean / max(degraded, 1)


def prioritization_failures(scenario, result, agent: int) -> list:
    ratio = clean_link_ratio(scenario, result, agent)
    return [] if ratio >= 2.0 else [f"clean:degraded measurements {ratio:.2f}:1 < 2:1"]


def allocation_objective(problem, m) -> float:
    """tr([C^-1 + sum_k c_k(m_k) u_k u_k^T]^-1), written out from the model."""
    info = np.linalg.inv(np.asarray(problem.c_pj, dtype=float))
    for mk, link in zip(m, problem.links):
        u = np.asarray(link.u, dtype=float)
        rho = link.xi * float(u @ np.asarray(link.c_pk, dtype=float) @ u)
        info = info + (mk * link.xi / (1.0 + mk * rho)) * np.outer(u, u)
    return float(np.trace(np.linalg.inv(info)))


def allocation_failures(problem, result) -> list:
    """A CPNP allocation is feasible, its objective is the predicted trace
    of its counts, and no single-unit exchange between links improves it."""
    m = np.asarray(result.m)
    if (m.shape != (len(problem.links),) or m.dtype.kind not in "iu"
            or (m < 0).any() or m.sum() > problem.budget):
        return [f"allocation {m.tolist()} infeasible for budget {problem.budget}"]
    obj = allocation_objective(problem, m)
    if not _close(obj, result.objective):
        return [f"objective {result.objective!r}, trace of the allocation is {obj!r}"]
    for a in range(m.size):
        for b in range(m.size):
            if a == b or m[a] == 0:
                continue
            moved = m.copy()
            moved[a] -= 1
            moved[b] += 1
            better = allocation_objective(problem, moved)
            if better < obj * (1.0 - REL_TOL):
                return [f"moving one unit of {m.tolist()} from link {a} to {b} "
                        f"lowers the objective {obj!r} to {better!r}"]
    return []
