"""Experiment harness: error metrics over simulation runs, multi-seed
replication, and side-by-side comparison of algorithm combinations.

All metrics operate on the per-epoch position records produced by the
simulator. Errors are Euclidean distances between estimated and true
positions, optionally after a burn-in period that excludes the initial
convergence transient.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict

import numpy as np

from .config import ACRONYMS, ScenarioConfig
from .errors import InvalidArgumentError, NoRecordsError
from .simkernel import RunResult, run


def _selected(result: RunResult, node_id: int | None, burn_in_s: float | None) -> list:
    """The run's records of one node (all nodes if None) from the burn-in on."""
    return [
        r for r in result.records
        if (node_id is None or r.node_id == node_id)
        and (burn_in_s is None or r.time_s >= burn_in_s)
    ]


def _errors(records) -> np.ndarray:
    """Euclidean position errors of the records, in one pass over their
    stacked positions; empty for no records."""
    if not records:
        return np.empty(0)
    est = np.array([r.est_pos for r in records])
    true = np.array([r.true_pos for r in records])
    return np.linalg.norm(est - true, axis=1)


def position_errors(result: RunResult, node_id: int | None = None,
                    burn_in_s: float | None = None) -> np.ndarray:
    """Per-record localization errors [m], optionally for one node only."""
    return _errors(_selected(result, node_id, burn_in_s))


def rmse(errors) -> float:
    """Root-mean-square of the given errors."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise InvalidArgumentError("rmse requires at least one error sample")
    return float(np.sqrt(np.mean(errors * errors)))


def outage_probability(errors, e_th: float) -> float:
    """Fraction of errors strictly exceeding the threshold e_th."""
    errors = np.asarray(errors, dtype=float)
    if errors.size == 0:
        raise InvalidArgumentError("outage requires at least one error sample")
    return float(np.mean(errors > e_th))


def outage_threshold(errors, p_out: float) -> float:
    """Smallest e_th with outage probability <= p_out (error quantile).

    For p_out = 0.2 this is the 80th percentile of the error distribution.
    """
    errors = np.sort(np.asarray(errors, dtype=float))
    if errors.size == 0:
        raise InvalidArgumentError("outage threshold requires at least one sample")
    if not 0.0 <= p_out <= 1.0:
        raise InvalidArgumentError("outage probability must be in [0, 1]")
    # Outage of candidate errors[i] is (n - 1 - i) / n; pick the first index
    # where that is <= p_out.
    n = errors.size
    idx = int(np.ceil(n * (1.0 - p_out))) - 1
    idx = min(max(idx, 0), n - 1)
    return float(errors[idx])


def measurement_rate(result: RunResult) -> float:
    """Completed single range measurements per second over the run."""
    if result.duration_s <= 0:
        raise InvalidArgumentError("measurement rate requires a positive duration")
    return result.total_measurements() / result.duration_s


def percent_change(base: float, other: float) -> float:
    """Relative change of `other` versus `base`, in percent (negative = lower)."""
    if base == 0:
        raise InvalidArgumentError("percent change undefined for a zero baseline")
    return (other - base) / base * 100.0


@dataclass(frozen=True)
class MetricReport:
    """Metrics for one run (or one node within a run)."""

    scenario: str
    seed: int
    node_id: int | None
    n_samples: int
    rmse_m: float
    e_th_80_m: float  # error threshold at 20% outage
    meas_rate_hz: float
    activation_fraction: float
    # Median of err^2 / cov_trace: about 0.79 (median of chi2(3) / 3) for a
    # consistent filter, far above for an overconfident one; NaN for LS.
    consistency: float

    def to_dict(self) -> dict:
        return asdict(self)


def evaluate(result: RunResult, node_id: int | None = None,
             burn_in_s: float | None = None) -> MetricReport:
    recs = _selected(result, node_id, burn_in_s)
    if not recs:
        raise NoRecordsError(
            f"no records to evaluate in {result.scenario!r} seed {result.seed}"
            + ("" if node_id is None else f" for node {node_id}")
            + ("" if not burn_in_s else f" after the {burn_in_s:g} s burn-in")
        )
    errors = _errors(recs)
    cov_traces = np.array([r.cov_trace for r in recs])
    activated = sum(r.activated for r in recs)
    return MetricReport(
        scenario=result.scenario,
        seed=result.seed,
        node_id=node_id,
        n_samples=int(errors.size),
        rmse_m=rmse(errors),
        e_th_80_m=outage_threshold(errors, 0.2),
        meas_rate_hz=measurement_rate(result),
        activation_fraction=activated / len(recs),
        consistency=float(np.median(errors * errors / cov_traces)),
    )


def _run_one(args) -> RunResult:
    scenario, seed = args
    return run(scenario, seed=seed)


def replicate(scenario: ScenarioConfig, seeds, node_id: int | None = None,
              workers: int | None = None, burn_in_s: float | None = None):
    """Run the scenario once per seed and evaluate each run.

    Results are returned ordered by the position in `seeds` regardless of
    worker completion order, so replication is deterministic. `workers`, if
    given, must be at least 1; a process pool runs the seeds when it is more.
    Its workers are spawned, not forked from a process that may hold BLAS
    threads; the pool's modules load only here, so importing coopnav stays
    cheap.
    """
    seeds = list(seeds)
    if not seeds:
        raise InvalidArgumentError("replicate requires at least one seed")
    if workers is not None and workers < 1:
        raise InvalidArgumentError(f"workers must be >= 1, got {workers}")
    burn = scenario.parameters.metrics_burn_in_s if burn_in_s is None else burn_in_s
    if workers is not None and workers > 1 and len(seeds) > 1:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=workers, mp_context=spawn) as pool:
            results = list(pool.map(_run_one, [(scenario, s) for s in seeds]))
    else:
        results = [run(scenario, seed=s) for s in seeds]
    reports = [evaluate(r, node_id=node_id, burn_in_s=burn) for r in results]
    return results, reports


@dataclass(frozen=True)
class Comparison:
    """Aggregate comparison of one algorithm combination against a baseline."""

    scenario: str
    baseline: str
    candidate: str
    seeds: tuple
    baseline_rmse_m: float  # median across seeds
    candidate_rmse_m: float
    rmse_change_pct: float
    baseline_e_th_m: float
    candidate_e_th_m: float
    e_th_change_pct: float
    baseline_rate_hz: float
    candidate_rate_hz: float
    rate_change_pct: float

    def to_dict(self) -> dict:
        d = asdict(self)
        d["seeds"] = list(self.seeds)
        return d


def compare(scenario: ScenarioConfig, baseline_acronym: str, candidate_acronym: str,
            seeds, node_id: int | None = None, workers: int | None = None,
            burn_in_s: float | None = None) -> Comparison:
    """Run both algorithm combinations over the same seeds and compare medians."""
    seeds = tuple(seeds)  # both runs read it, so a one-shot iterable is kept
    for acr in (baseline_acronym, candidate_acronym):
        if acr not in ACRONYMS:
            raise InvalidArgumentError(f"unknown algorithm acronym {acr!r}")
    _, base_reports = replicate(
        scenario.with_algorithms(baseline_acronym), seeds, node_id=node_id,
        workers=workers, burn_in_s=burn_in_s,
    )
    _, cand_reports = replicate(
        scenario.with_algorithms(candidate_acronym), seeds, node_id=node_id,
        workers=workers, burn_in_s=burn_in_s,
    )
    b_rmse = float(np.median([r.rmse_m for r in base_reports]))
    c_rmse = float(np.median([r.rmse_m for r in cand_reports]))
    b_eth = float(np.median([r.e_th_80_m for r in base_reports]))
    c_eth = float(np.median([r.e_th_80_m for r in cand_reports]))
    b_rate = float(np.median([r.meas_rate_hz for r in base_reports]))
    c_rate = float(np.median([r.meas_rate_hz for r in cand_reports]))
    return Comparison(
        scenario=scenario.name,
        baseline=baseline_acronym,
        candidate=candidate_acronym,
        seeds=seeds,
        baseline_rmse_m=b_rmse,
        candidate_rmse_m=c_rmse,
        rmse_change_pct=percent_change(b_rmse, c_rmse),
        baseline_e_th_m=b_eth,
        candidate_e_th_m=c_eth,
        e_th_change_pct=percent_change(b_eth, c_eth),
        baseline_rate_hz=b_rate,
        candidate_rate_hz=c_rate,
        rate_change_pct=percent_change(b_rate, c_rate),
    )


def reports_csv(reports) -> str:
    """Seed-level metric reports as CSV text."""
    header = ("scenario,seed,node_id,n_samples,rmse_m,e_th_80_m,meas_rate_hz,"
              "activation_fraction,consistency")
    lines = [header]
    for r in reports:
        lines.append(
            ",".join(
                [
                    r.scenario,
                    str(r.seed),
                    "" if r.node_id is None else str(r.node_id),
                    str(r.n_samples),
                    f"{r.rmse_m:.9f}",
                    f"{r.e_th_80_m:.9f}",
                    f"{r.meas_rate_hz:.9f}",
                    f"{r.activation_fraction:.9f}",
                    f"{r.consistency:.9f}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def summary_json(obj) -> str:
    """Stable JSON serialization for reports and comparisons."""
    if hasattr(obj, "to_dict"):
        obj = obj.to_dict()
    elif isinstance(obj, (list, tuple)):
        obj = [o.to_dict() if hasattr(o, "to_dict") else o for o in obj]
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
