"""End-to-end acceptance gate.

Each test checks one headline claim of the stack at a stated tolerance and
prints a single PASS/FAIL line. Tests are ordered from pure math up to full
multi-node scenario comparisons.
"""

import dataclasses
import time

import numpy as np
from hypothesis import given, settings, strategies as st

from coopnav.config import bundled_scenario_path, load_scenario
from coopnav.harness import compare, replicate
from coopnav.inference import (
    MeasurementBatch,
    MeasurementEntry,
    spbp_update,
)
from coopnav.model import GaussianBelief, symmetrize
from coopnav.operation import (
    AllocationProblem,
    LinkInfo,
    cpnp_allocate,
)
from coopnav.protocol import ClockModel, SPEED_OF_LIGHT, twr_range
from coopnav.simkernel import run
from oracles import brute_force_allocate, is_psd, sigma_point_update


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


BOOTSTRAP_RESAMPLES = 4000
BOOTSTRAP_SEED = 1993  # fixed, so every run prints the same intervals


def median(x):
    """Median over the last (seed) axis."""
    return np.median(x, axis=-1)


def drop_pct(base, other):
    """How far the median of `other` lies below that of `base`, in percent."""
    return (median(base) - median(other)) / median(base) * 100.0


def seed_interval(stat, *per_seed, fmt=".1f") -> str:
    """95% seed-bootstrap interval of `stat` over per-seed values, as text.

    Draws BOOTSTRAP_RESAMPLES resamples of the seeds, with replacement, from
    a fixed generator. Columns measured on the same seeds share each
    resample, so a comparison stays paired (Efron & Tibshirani, An
    Introduction to the Bootstrap, 1993). `stat` maps columns of shape
    (resamples, seeds) to one value per resample. No run is repeated: the
    gate stays the point estimate against its bound.
    """
    cols = [np.asarray(c, dtype=float) for c in per_seed]
    n = len(cols[0])
    idx = np.random.default_rng(BOOTSTRAP_SEED).integers(n, size=(BOOTSTRAP_RESAMPLES, n))
    lo, hi = np.percentile(stat(*(c[idx] for c in cols)), [2.5, 97.5])
    return f"95% CI {lo:{fmt}} to {hi:{fmt}}"


def consistency_line(criterion: str, runs: dict) -> None:
    """Print, ungated, the median MetricReport.consistency (err^2/cov_trace,
    about 0.79 for a consistent filter) of each run's per-seed SPBP reports,
    by name, with its seed interval."""
    parts = []
    for name, reports in runs.items():
        values = [r.consistency for r in reports]
        ci = seed_interval(median, values, fmt=".2f")
        parts.append(f"{name} {float(median(values)):.2f} ({ci})")
    print(f"[INFO] {criterion} consistency: {', '.join(parts)}", flush=True)


def random_spd(rng, n, scale=1.0):
    a = rng.normal(size=(n, n))
    return symmetrize(scale * (a @ a.T + n * np.eye(n)))


def test_01_sigma_point_linear_exactness():
    """Unscented update reproduces the Kalman update on linear systems."""
    rng = np.random.default_rng(100)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        dim = int(rng.integers(1, 13))
        mdim = int(rng.integers(1, dim + 1))
        mean = rng.normal(size=dim)
        cov = random_spd(rng, dim)
        hmat = rng.normal(size=(mdim, dim))
        r = random_spd(rng, mdim, 0.1)
        z = rng.normal(size=mdim)
        got_mean, got_cov, _ = sigma_point_update(mean, cov, lambda x: hmat @ x, z, r)
        s = hmat @ cov @ hmat.T + r
        k = cov @ hmat.T @ np.linalg.inv(s)
        want_mean = mean + k @ (z - hmat @ mean)
        want_cov = symmetrize(cov - k @ s @ k.T)
        scale_m = max(1.0, float(np.max(np.abs(want_mean))))
        scale_c = max(1.0, float(np.max(np.abs(want_cov))))
        worst = max(
            worst,
            float(np.max(np.abs(got_mean - want_mean))) / scale_m,
            float(np.max(np.abs(got_cov - want_cov))) / scale_c,
        )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    report(
        "criterion-01 linear exactness",
        ok,
        f"200 systems dim<=12, worst rel err {worst:.2e} (tol 1e-8), {elapsed:.2f}s (<5s)",
    )


def test_02_allocation_matches_brute_force():
    """Relaxed allocation is near-optimal and lower-bounds the integer optimum."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_gap, lb_ok = 0.0, True
    for _ in range(100):
        n = int(rng.integers(2, 5))
        links = []
        for i in range(n):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            xi = float(rng.uniform(16, 100))
            if rng.random() < 0.5:
                c = np.zeros((3, 3))
            else:
                a = rng.normal(size=(3, 3)) * 0.3
                c = a @ a.T
            links.append(LinkInfo(i, u, xi, c))
        a = rng.normal(size=(3, 3))
        cov = 0.5 * (a @ a.T + 3 * np.eye(3))
        problem = AllocationProblem(cov, tuple(links), int(rng.integers(2, 9)))
        bf = brute_force_allocate(problem)
        cp = cpnp_allocate(problem)
        worst_gap = max(worst_gap, (cp.objective - bf.objective) / bf.objective)
        lb_ok = lb_ok and cp.relaxed_objective <= bf.objective + 1e-9
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 0.05 and lb_ok and elapsed < 30.0
    report(
        "criterion-02 allocation optimality",
        ok,
        f"100 instances, worst gap {worst_gap * 100:.2f}% (tol 5%), "
        f"lower bound {'held' if lb_ok else 'VIOLATED'}, {elapsed:.2f}s (<30s)",
    )


def test_03_twr_accuracy():
    """Double-sided TWR: exact with ideal clocks, <=2cm at 10m under drift."""

    def stamps(d, clk_i, clk_r, t0=0.002, reply_r=0.001, reply_i=0.0012):
        tof = d / SPEED_OF_LIGHT
        return (
            clk_i.ticks(t0),
            clk_r.ticks(t0 + tof),
            clk_r.ticks(t0 + tof + reply_r),
            clk_i.ticks(t0 + 2 * tof + reply_r),
            clk_i.ticks(t0 + 2 * tof + reply_r + reply_i),
            clk_r.ticks(t0 + 3 * tof + reply_r + reply_i),
        )

    ideal = ClockModel()
    worst_ideal = max(
        abs(twr_range(*stamps(d, ideal, ideal)) - d) for d in (0.5, 3.0, 10.0, 42.0)
    )
    drift_err = abs(
        twr_range(
            *stamps(10.0, ClockModel(0.3, 20.0), ClockModel(-0.7, -20.0), t0=5.0)
        )
        - 10.0
    )
    ok = worst_ideal <= 1e-9 and drift_err <= 0.02
    report(
        "criterion-03 ranging accuracy",
        ok,
        f"ideal clocks worst err {worst_ideal:.2e}m (tol 1e-9), "
        f"+/-20ppm drift at 10m: {drift_err * 100:.3f}cm (tol 2cm)",
    )


def test_04_inference_beats_least_squares():
    """Filtered inference beats per-epoch least squares on the walker scenario."""
    scen = load_scenario(bundled_scenario_path("single_floor_inference"))
    t0 = time.perf_counter()
    c = compare(scen, "LS-AL-UN", "BP-AL-UN", seeds=range(20), node_id=10)
    elapsed = time.perf_counter() - t0
    reduction = -c.rmse_change_pct
    ci = seed_interval(drop_pct, [r.rmse_m for r in c.baseline_reports],
                       [r.rmse_m for r in c.candidate_reports])
    consistency_line("criterion-04", {"BP-AL-UN": c.candidate_reports})
    ok = reduction >= 10.0 and elapsed < 120.0
    report(
        "criterion-04 inference vs LS",
        ok,
        f"20 seeds, median RMSE {c.baseline_rmse_m:.3f}m -> {c.candidate_rmse_m:.3f}m, "
        f"reduction {reduction:.1f}% ({ci}%) (need >=10%), {elapsed:.1f}s (<2min)",
    )


def test_05_cooperation_gain():
    """Ranging to a peer cuts the two-anchor agent's outage threshold >=40%."""
    scen = load_scenario(bundled_scenario_path("two_agent_cooperation"))
    solo = dataclasses.replace(
        scen,
        parameters=dataclasses.replace(scen.parameters, allow_agent_measurements=False),
    )
    t0 = time.perf_counter()
    _, coop = replicate(scen, seeds=range(15), node_id=11)
    _, non = replicate(solo, seeds=range(15), node_id=11)
    elapsed = time.perf_counter() - t0
    coop_eth = float(np.median([r.e_th_80_m for r in coop]))
    solo_eth = float(np.median([r.e_th_80_m for r in non]))
    improvement = (solo_eth - coop_eth) / solo_eth * 100.0
    ci = seed_interval(drop_pct, [r.e_th_80_m for r in non], [r.e_th_80_m for r in coop])
    consistency_line("criterion-05", {"cooperative": coop, "solo": non})
    ok = improvement >= 40.0 and elapsed < 120.0
    report(
        "criterion-05 cooperation gain",
        ok,
        f"15 seeds, e_th@0.2 {solo_eth:.3f}m -> {coop_eth:.3f}m, "
        f"improvement {improvement:.1f}% ({ci}%) (need >=40%), {elapsed:.1f}s (<2min)",
    )


def test_06_activation_saves_measurements():
    """Threshold activation cuts channel use >=30% without hurting accuracy."""
    scen = load_scenario(bundled_scenario_path("three_agent_activation"))
    t0 = time.perf_counter()
    c = compare(scen, "BP-CS-UN", "BP-HT-UN", seeds=range(15))
    elapsed = time.perf_counter() - t0
    rate_reduction = -c.rate_change_pct
    rmse_ratio = c.candidate_rmse_m / c.baseline_rmse_m
    rate_ci = seed_interval(lambda b, x: -drop_pct(b, x),
                            [r.meas_rate_hz for r in c.baseline_reports],
                            [r.meas_rate_hz for r in c.candidate_reports])
    ratio_ci = seed_interval(lambda b, x: median(x) / median(b),
                             [r.rmse_m for r in c.baseline_reports],
                             [r.rmse_m for r in c.candidate_reports], fmt=".2f")
    consistency_line("criterion-06", {"BP-CS-UN": c.baseline_reports,
                                      "BP-HT-UN": c.candidate_reports})
    ok = rate_reduction >= 30.0 and rmse_ratio <= 1.10 and elapsed < 120.0
    report(
        "criterion-06 threshold activation",
        ok,
        f"15 seeds, rate {c.baseline_rate_hz:.0f} -> {c.candidate_rate_hz:.0f}/s "
        f"(-{rate_reduction:.1f}%, {rate_ci}%, need >=30%), RMSE ratio {rmse_ratio:.2f} "
        f"({ratio_ci}, need <=1.10), {elapsed:.1f}s (<2min)",
    )


def test_07_prioritization_prefers_good_links():
    """Allocation concentrates measurements on clean links and never hurts RMSE."""
    scen = load_scenario(bundled_scenario_path("prioritization_multipath"))
    los_anchors, nlos_anchors = {1, 3, 5, 6}, {2, 4}
    t0 = time.perf_counter()
    seeds = range(5)
    cp_results, cp_reports = replicate(scen, seeds, node_id=10)
    _, un_reports = replicate(scen.with_algorithms("BP-AL-UN"), seeds, node_id=10)
    elapsed = time.perf_counter() - t0
    ratios = []
    for r in cp_results:
        los = sum(v for (_, n), v in r.link_counts.items() if n in los_anchors)
        nlos = sum(v for (_, n), v in r.link_counts.items() if n in nlos_anchors)
        ratios.append(los / max(nlos, 1))
    ratio = float(np.median(ratios))
    cp_rmse = float(np.median([x.rmse_m for x in cp_reports]))
    un_rmse = float(np.median([x.rmse_m for x in un_reports]))
    ratio_ci = seed_interval(median, ratios)
    cp_ci = seed_interval(median, [x.rmse_m for x in cp_reports], fmt=".3f")
    un_ci = seed_interval(median, [x.rmse_m for x in un_reports], fmt=".3f")
    consistency_line("criterion-07", {"CPNP": cp_reports, "uniform": un_reports})
    ok = ratio >= 2.0 and cp_rmse <= un_rmse and elapsed < 60.0
    report(
        "criterion-07 link prioritization",
        ok,
        f"5 seeds, clean:degraded measurement ratio {ratio:.1f}:1 ({ratio_ci}) (need >=2:1), "
        f"RMSE {cp_rmse:.3f}m ({cp_ci}m) vs uniform {un_rmse:.3f}m ({un_ci}m) (need <=), "
        f"{elapsed:.1f}s (<1min)",
    )


def test_08_multi_floor_prioritization():
    """On the two-floor layout, allocation beats uniform by >=40% in e_th@0.2."""
    scen = load_scenario(bundled_scenario_path("multi_floor"))
    t0 = time.perf_counter()
    c = compare(scen, "BP-HT-UN", "BP-HT-CP", seeds=range(10), node_id=10)
    elapsed = time.perf_counter() - t0
    improvement = -c.e_th_change_pct
    ci = seed_interval(drop_pct, [r.e_th_80_m for r in c.baseline_reports],
                       [r.e_th_80_m for r in c.candidate_reports])
    consistency_line("criterion-08", {"BP-HT-UN": c.baseline_reports,
                                      "BP-HT-CP": c.candidate_reports})
    ok = improvement >= 40.0 and elapsed < 180.0
    report(
        "criterion-08 multi-floor prioritization",
        ok,
        f"10 seeds, e_th@0.2 {c.baseline_e_th_m:.3f}m -> {c.candidate_e_th_m:.3f}m, "
        f"improvement {improvement:.1f}% ({ci}%) (need >=40%), {elapsed:.1f}s (<3min)",
    )


def test_09_determinism():
    """Identical scenario and seed give byte-identical outputs."""
    scen = load_scenario(bundled_scenario_path("single_floor_inference"))
    short = dataclasses.replace(scen, duration_s=6.0)
    a = run(short, seed=42, collect_trace=True)
    b = run(short, seed=42, collect_trace=True)
    same = (
        a.records_csv() == b.records_csv()
        and a.trace_csv() == b.trace_csv()
        and a.counters == b.counters
    )
    differs = run(short, seed=43).records_csv() != a.records_csv()
    ok = same and differs
    report(
        "criterion-09 determinism",
        ok,
        f"repeat run byte-identical: {same}; different seed differs: {differs}",
    )


def test_10_invariants():
    """Randomized invariants: PSD posteriors, feasible allocations, bounds."""

    @given(st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def posterior_psd(n, seed):
        rng = np.random.default_rng(seed)
        prior = GaussianBelief(rng.normal(size=6), random_spd(rng, 6))
        entries = tuple(
            MeasurementEntry(
                i,
                float(rng.uniform(0.5, 15)),
                float(rng.uniform(1e-4, 1.0)),
                rng.uniform(-10, 10, size=3),
                np.zeros((3, 3)),
            )
            for i in range(n)
        )
        assert is_psd(spbp_update(prior, MeasurementBatch(entries)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def allocation_feasible_and_bounded(seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        links = tuple(
            LinkInfo(
                i,
                (lambda v: v / np.linalg.norm(v))(rng.normal(size=3)),
                float(rng.uniform(16, 100)),
                np.zeros((3, 3)),
            )
            for i in range(n)
        )
        budget = int(rng.integers(0, 10))
        res = cpnp_allocate(AllocationProblem(random_spd(rng, 3), links, budget))
        assert res.total <= budget and np.all(res.m >= 0)
        if not res.fallback:
            assert res.relaxed_objective <= res.objective + 1e-9

    failures = []
    for check in (posterior_psd, allocation_feasible_and_bounded):
        try:
            check()
        except Exception as exc:  # record which invariant broke
            failures.append(f"{check.__name__}: {exc}")
    ok = not failures
    report(
        "criterion-10 invariants",
        ok,
        "posterior PSD + allocation feasibility/bounds over 200 random cases"
        + ("" if ok else f"; failures: {failures}"),
    )
