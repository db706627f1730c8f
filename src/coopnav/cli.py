"""Command-line interface.

Subcommands:
    run        execute one scenario and write record (and optional trace) CSVs
    replicate  execute a scenario over several seeds and summarize metrics
    compare    run two algorithm combinations over shared seeds and compare
    validate   parse and check a scenario file without running it

Exit codes: 0 on success, 2 on configuration errors (a run with no record to
evaluate included), 3 on simulation failures (any other coopnav error a run
raises, a numeric one included).
The default output directory can be set via the COOPNAV_OUTPUT_DIR
environment variable (falling back to the current directory).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import harness, simkernel
from .config import (
    ACRONYMS,
    ScenarioConfig,
    bundled_scenario_path,
    load_scenario,
)
from .errors import ConfigError, CoopnavError, NoRecordsError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SIMULATION = 3

OUTPUT_DIR_ENV = "COOPNAV_OUTPUT_DIR"


def _output_dir(arg: str | None) -> Path:
    path = Path(arg or os.environ.get(OUTPUT_DIR_ENV, "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(name_or_path: str) -> ScenarioConfig:
    path = Path(name_or_path)
    if path.suffix == ".json" or path.exists():
        return load_scenario(path)
    return load_scenario(bundled_scenario_path(name_or_path))


def _apply_acronym(scenario: ScenarioConfig, acronym: str | None) -> ScenarioConfig:
    if acronym is None:
        return scenario
    return scenario.with_algorithms(acronym)


def _parse_seeds(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            seeds = list(range(int(lo), int(hi)))
        else:
            seeds = [int(x) for x in text.split(",") if x]
    except ValueError:
        raise ConfigError(f"invalid seed list {text!r}; use N, 'a,b,c', or 'lo:hi'") from None
    if not seeds:
        raise ConfigError("seed list is empty")
    if min(seeds) < 0:  # checked before any seed runs
        raise ConfigError(f"seeds must be >= 0, got {min(seeds)}")
    return seeds


def _check_workers(workers: int | None) -> None:
    if workers is not None and workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {workers}")


def _check_node(scenario: ScenarioConfig, node: int | None) -> None:
    """Reject a --node that keeps no records before running any seed."""
    agents = [a.id for a in scenario.agents]
    if node is not None and node not in agents:
        raise ConfigError(f"--node {node} is not an agent of {scenario.name!r} (agents {agents})")


def cmd_run(args) -> int:
    scenario = _apply_acronym(_load(args.scenario), args.acronym)
    out = _output_dir(args.output_dir)
    result = simkernel.run(scenario, seed=args.seed, collect_trace=args.trace)
    stem = f"{scenario.name}_seed{result.seed}"
    records_path = out / f"{stem}_records.csv"
    records_path.write_text(result.records_csv())
    written = [records_path]
    if args.trace:
        trace_path = out / f"{stem}_trace.csv"
        trace_path.write_text(result.trace_csv())
        written.append(trace_path)
    report = harness.evaluate(result, burn_in_s=scenario.parameters.metrics_burn_in_s)
    print(
        f"{scenario.name} seed={result.seed}: {len(result.records)} records, "
        f"rmse={report.rmse_m:.3f} m, e_th(0.2)={report.e_th_80_m:.3f} m, "
        f"rate={report.meas_rate_hz:.1f} /s"
    )
    for p in written:
        print(f"wrote {p}")
    return EXIT_OK


def cmd_replicate(args) -> int:
    scenario = _apply_acronym(_load(args.scenario), args.acronym)
    seeds = _parse_seeds(args.seeds)
    _check_node(scenario, args.node)
    _check_workers(args.workers)
    out = _output_dir(args.output_dir)
    _, reports = harness.replicate(
        scenario, seeds, node_id=args.node, workers=args.workers
    )
    path = out / f"{scenario.name}_replicate.csv"
    path.write_text(harness.reports_csv(reports))

    med = float(np.median([r.rmse_m for r in reports]))
    print(
        f"{scenario.name}: {len(seeds)} seeds, median rmse={med:.3f} m; wrote {path}"
    )
    return EXIT_OK


def cmd_compare(args) -> int:
    scenario = _load(args.scenario)
    seeds = _parse_seeds(args.seeds)
    _check_node(scenario, args.node)
    _check_workers(args.workers)
    out = _output_dir(args.output_dir)
    cmp = harness.compare(
        scenario, args.baseline, args.candidate, seeds,
        node_id=args.node, workers=args.workers,
    )
    path = out / f"{scenario.name}_{args.baseline}_vs_{args.candidate}.json"
    path.write_text(harness.summary_json(cmp))
    print(
        f"{scenario.name}: {args.candidate} vs {args.baseline} over {len(seeds)} seeds: "
        f"rmse {cmp.rmse_change_pct:+.1f}%, e_th(0.2) {cmp.e_th_change_pct:+.1f}%, "
        f"rate {cmp.rate_change_pct:+.1f}%; wrote {path}"
    )
    return EXIT_OK


def cmd_validate(args) -> int:
    scenario = _load(args.scenario)
    n_anchor = len(scenario.anchors)
    n_agent = len(scenario.agents)
    print(
        f"{scenario.name}: OK ({n_anchor} anchors, {n_agent} agents, "
        f"{scenario.duration_s:g} s, algorithms "
        f"{scenario.algorithms.inference}/{scenario.algorithms.activation}/"
        f"{scenario.algorithms.prioritization})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coopnav",
        description="Cooperative network localization simulator and experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeds=False):
        p.add_argument(
            "scenario",
            help="scenario JSON path or bundled scenario name",
        )
        p.add_argument("--output-dir", default=None,
                       help=f"output directory (default: ${OUTPUT_DIR_ENV} or '.')")
        if seeds:
            p.add_argument("--seeds", default="0:10",
                           help="seed list 'a,b,c' or range 'lo:hi' (default 0:10)")
            p.add_argument("--workers", type=int, default=None,
                           help="process-pool workers, at least 1 (default: sequential)")
            p.add_argument("--node", type=int, default=None,
                           help="restrict metrics to one agent id")

    p_run = sub.add_parser("run", help="execute one scenario")
    add_common(p_run)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--acronym", choices=sorted(ACRONYMS),
                       help="override the algorithm combination")
    p_run.add_argument("--trace", action="store_true",
                       help="also write the per-message trace CSV")
    p_run.set_defaults(fn=cmd_run)

    p_rep = sub.add_parser("replicate", help="run a scenario over several seeds")
    add_common(p_rep, seeds=True)
    p_rep.add_argument("--acronym", choices=sorted(ACRONYMS),
                       help="override the algorithm combination")
    p_rep.set_defaults(fn=cmd_replicate)

    p_cmp = sub.add_parser("compare", help="compare two algorithm combinations")
    add_common(p_cmp, seeds=True)
    p_cmp.add_argument("--baseline", required=True, choices=sorted(ACRONYMS))
    p_cmp.add_argument("--candidate", required=True, choices=sorted(ACRONYMS))
    p_cmp.set_defaults(fn=cmd_compare)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario", help="scenario JSON path or bundled scenario name")
    p_val.set_defaults(fn=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, NoRecordsError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CoopnavError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_SIMULATION


if __name__ == "__main__":
    sys.exit(main())
