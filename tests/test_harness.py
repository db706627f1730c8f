"""Tests for metrics, replication, comparison, and scenario configuration."""

import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from coopnav.config import (
    ACRONYMS,
    AgentSpec,
    Algorithms,
    AnchorSpec,
    LinkTruthConfig,
    Parameters,
    ScenarioConfig,
    Waypoint,
    bundled_scenario_path,
    load_scenario,
    save_scenario,
    scenario_from_dict,
)
from coopnav.errors import ConfigError, InvalidArgumentError
from coopnav.harness import (
    compare,
    evaluate,
    measurement_rate,
    outage_threshold,
    percent_change,
    replicate,
    reports_csv,
    rmse,
    summary_json,
)
from coopnav.simkernel import RunRecord, RunResult, run
from oracles import outage_probability, position_errors


def make_result(errors, times=None, node_id=10, duration=10.0, n_meas=4):
    records = []
    for i, e in enumerate(errors):
        t = times[i] if times is not None else float(i)
        true = np.array([1.0, 2.0, 0.5])
        records.append(
            RunRecord(t, node_id, true, true + np.array([e, 0.0, 0.0]),
                      0.1, n_meas, 1, "ALOHA")
        )
    return RunResult("unit", 0, duration, records, {}, {})


class TestMetrics:
    def test_position_errors_and_filters(self):
        res = make_result([0.1, 0.2, 0.3], times=[0.0, 1.0, 2.0])
        assert np.allclose(position_errors(res), [0.1, 0.2, 0.3])
        assert np.allclose(position_errors(res, burn_in_s=1.0), [0.2, 0.3])
        assert position_errors(res, node_id=99).size == 0

    def test_errors_are_root_sum_of_squares(self):
        # One formula for every error: the square root of the summed squared
        # coordinate differences of each record, as the benchmark recomputes it.
        rng = np.random.default_rng(5)
        res = make_result(list(rng.uniform(0.0, 3.0, size=50)))
        for r in res.records:
            r.est_pos = r.true_pos + rng.normal(size=3)
        diff = (np.array([r.est_pos for r in res.records])
                - np.array([r.true_pos for r in res.records]))
        got = position_errors(res)
        assert got.tobytes() == np.sqrt((diff * diff).sum(axis=1)).tobytes()
        empty = position_errors(make_result([]))
        assert empty.shape == (0,) and empty.dtype == float

    def test_rmse(self):
        assert rmse([3.0, 4.0]) == pytest.approx(np.sqrt(12.5))
        with pytest.raises(InvalidArgumentError):
            rmse([])

    def test_outage_probability_strict(self):
        errors = [0.1, 0.2, 0.3, 0.4]
        assert outage_probability(errors, 0.2) == pytest.approx(0.5)
        assert outage_probability(errors, 0.4) == 0.0

    def test_outage_threshold_is_quantile(self):
        errors = np.linspace(0.01, 1.0, 100)
        e_th = outage_threshold(errors, 0.2)
        assert e_th == pytest.approx(0.80)
        assert outage_probability(errors, e_th) <= 0.2
        # any smaller sample value violates the outage target
        smaller = errors[errors < e_th]
        assert outage_probability(errors, smaller[-1]) > 0.2

    def test_outage_threshold_edges(self):
        errors = [0.5, 0.1, 0.9]
        assert outage_threshold(errors, 0.0) == pytest.approx(0.9)
        assert outage_threshold(errors, 1.0) == pytest.approx(0.1)
        for bad in (1.5, -0.1, np.nan, np.inf, -np.inf, "abc", True):
            with pytest.raises(InvalidArgumentError):
                outage_threshold(errors, bad)

    def test_measurement_rate(self):
        res = make_result([0.1, 0.1], duration=10.0, n_meas=5)
        assert measurement_rate(res) == pytest.approx(1.0)

    def test_percent_change(self):
        assert percent_change(2.0, 1.0) == pytest.approx(-50.0)
        assert percent_change(2.0, 3.0) == pytest.approx(50.0)
        with pytest.raises(InvalidArgumentError):
            percent_change(0.0, 1.0)

    def test_evaluate_report(self):
        res = make_result([0.1] * 10, duration=5.0, n_meas=2)
        rep = evaluate(res, node_id=10)
        assert rep.n_samples == 10
        assert rep.rmse_m == pytest.approx(0.1)
        assert rep.e_th_80_m == pytest.approx(0.1)
        assert rep.meas_rate_hz == pytest.approx(4.0)
        assert rep.activation_fraction == pytest.approx(1.0)

    def test_evaluate_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            evaluate(make_result([]))


class TestConsistency:
    """`MetricReport.consistency` is the median of err^2 / cov_trace. For an
    unbiased 3-D error with the covariance the filter reports, err^2 /
    cov_trace is chi2(3) / 3 when the error is isotropic, whose median is
    2.366 / 3 = 0.789."""

    def test_consistent_isotropic_errors(self):
        rng = np.random.default_rng(3)
        sigma = 0.4
        true = np.array([1.0, 2.0, 0.5])
        records = [RunRecord(float(i), 10, true, true + rng.normal(0.0, sigma, 3),
                             3 * sigma**2, 4, 1, "ALOHA") for i in range(20000)]
        rep = evaluate(RunResult("unit", 0, 10.0, records, {}, {}))
        assert rep.consistency == pytest.approx(2.366 / 3, abs=0.02)

    def test_ls_reads_none(self):
        res = make_result([0.1, 0.2])
        for r in res.records:
            r.cov_trace = float("nan")
        assert evaluate(res).consistency is None
        assert reports_csv([evaluate(res)]).splitlines()[1].endswith(",")

    def test_ls_reports_compare_equal_and_serialize(self):
        # An LS run records no covariance; a NaN consistency made two reports
        # of one run unequal and summary_json write the non-JSON NaN.
        scen = load_scenario(bundled_scenario_path("single_floor_inference"))
        scen = dataclasses.replace(scen.with_algorithms("LS-AL-UN"), duration_s=2.0)
        result = run(scen, seed=0)
        assert evaluate(result, node_id=10) == evaluate(result, node_id=10)

        def no_constant(name):
            raise AssertionError(f"summary_json wrote {name}")

        data = json.loads(summary_json(evaluate(result, node_id=10)),
                          parse_constant=no_constant)
        assert data["consistency"] is None

    def test_cooperative_spbp_is_overconfident(self):
        # Each agent stacks its neighbour's belief as an independent prior,
        # so shared information counts twice: seed 11 reads about 98 at node
        # 10 and 1,042 at node 11. ROADMAP direction 10 is the change that
        # should bring both near 0.79.
        scen = load_scenario(bundled_scenario_path("two_agent_cooperation"))
        result = run(scen, seed=11)
        burn = scen.parameters.metrics_burn_in_s
        assert burn == 10.0
        for node in (10, 11):
            assert evaluate(result, node_id=node, burn_in_s=burn).consistency > 50


class TestReplication:
    @staticmethod
    def scenario(duration_s=None):
        import dataclasses

        scen = load_scenario(bundled_scenario_path("single_floor_inference"))
        if duration_s is None:
            return scen
        return dataclasses.replace(
            scen,
            duration_s=duration_s,
            parameters=dataclasses.replace(scen.parameters, metrics_burn_in_s=0.0),
        )

    def test_ordered_by_seed_and_deterministic(self):
        scen = self.scenario(duration_s=2.0)
        _, reports = replicate(scen, seeds=[3, 1], node_id=10)
        assert [r.seed for r in reports] == [3, 1]
        _, again = replicate(scen, seeds=[3, 1], node_id=10)
        assert reports == again

    def test_process_pool_matches_sequential(self):
        scen = self.scenario(duration_s=2.0)
        _, sequential = replicate(scen, seeds=[3, 1], node_id=10)
        _, pooled = replicate(scen, seeds=[3, 1], node_id=10, workers=2)
        assert [r.seed for r in pooled] == [3, 1]
        assert pooled == sequential

    def test_import_leaves_out_multiprocessing(self):
        # The process pool's modules load only when replicate makes a pool.
        code = ("import sys, coopnav; "
                "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
                "if m in sys.modules))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out == "[]\n"

    def test_requires_seeds(self):
        with pytest.raises(InvalidArgumentError):
            replicate(self.scenario(), seeds=[])

    def test_compare_reads_seeds_once(self):
        # Both combinations run over the seeds, so a one-shot iterable must
        # give what the equal list gives.
        scen = self.scenario(duration_s=1.0)
        want = compare(scen, "LS-AL-UN", "BP-AL-UN", seeds=[0, 1], node_id=10)
        got = compare(scen, "LS-AL-UN", "BP-AL-UN", seeds=(s for s in [0, 1]), node_id=10)
        assert got == want
        assert got.seeds == (0, 1)
        # The per-seed reports come back in seed order, and stay out of the JSON.
        assert [r.seed for r in got.candidate_reports] == [0, 1]
        assert "candidate_reports" not in got.to_dict()

    def test_compare_rejects_unknown_acronym(self):
        with pytest.raises(InvalidArgumentError):
            compare(self.scenario(), "BP-AL-UN", "NOT-AN-ALGO", seeds=[0])

    def test_reports_csv_shape(self):
        scen = self.scenario(duration_s=2.0)
        _, reports = replicate(scen, seeds=[0], node_id=10)
        lines = reports_csv(reports).splitlines()
        assert lines[0].startswith("scenario,seed,node_id")
        assert lines[0].endswith(",consistency")
        assert len(lines) == 2

    def test_summary_json_stable(self):
        res = make_result([0.1] * 4)
        rep = evaluate(res)
        assert summary_json(rep) == summary_json(rep)
        assert '"rmse_m"' in summary_json([rep])


MINIMAL = {
    "name": "t",
    "duration_s": 1.0,
    "anchors": [{"id": 1, "position": [0, 0, 0]}],
    "agents": [{"id": 10, "initial_position": [1, 1, 1]}],
}

BUNDLED = ["single_floor_inference", "two_agent_cooperation", "three_agent_activation",
           "prioritization_multipath", "multi_floor"]


class TestScenarioConfig:
    def test_minimal_parses(self):
        scen = scenario_from_dict(dict(MINIMAL))
        assert scen.name == "t" and len(scen.anchors) == 1
        # A first waypoint at 0 s loads where it is the initial position.
        assert AgentSpec(10, (8, 6, 1), (Waypoint((8.0, 6.0, 1.0), 0.0),)).trajectory

    def test_duplicate_ids_rejected(self):
        bad = dict(MINIMAL)
        bad["agents"] = [{"id": 1, "initial_position": [1, 1, 1]}]
        with pytest.raises(ConfigError, match="unique"):
            scenario_from_dict(bad)

    def test_unknown_key_named(self):
        bad = dict(MINIMAL)
        bad["surprise"] = 1
        with pytest.raises(ConfigError, match="surprise"):
            scenario_from_dict(bad)

    def test_dangling_link_reference_named(self):
        bad = dict(MINIMAL)
        bad["link_truth"] = {"nlos_pairs": [[1, 99]]}
        with pytest.raises(ConfigError, match="99"):
            scenario_from_dict(bad)

    def test_self_pair_named(self):
        for field in ("nlos_pairs", "blocked_pairs"):
            bad = dict(MINIMAL)
            bad["link_truth"] = {field: [[1, 10], [10, 10]]}
            with pytest.raises(ConfigError, match=rf"link_truth\.{field}\[1\]"):
                scenario_from_dict(bad)

    def test_initial_velocity_rejected(self):
        # Agents move along their waypoints; an initial velocity would be ignored.
        bad = dict(MINIMAL)
        bad["agents"] = [{"id": 10, "initial_position": [1, 1, 1],
                          "initial_velocity": [0, 0, 0]}]
        with pytest.raises(ConfigError, match="initial_velocity"):
            scenario_from_dict(bad)

    @pytest.mark.parametrize("key", [
        "sigma_x2", "sigma_y2", "sigma_z2", "pos_sigma", "vel_sigma",
        "default_belief_mean", "m_per_neighbor", "nlos_bias_mean_m",
        "turnaround_s", "exchange_gap_s", "ranging_timeout_s", "chirp_air_s",
        "neighbor_expiry_s", "aloha_mean_delay_s", "csma_sense_s",
        "csma_backoff_base_s", "csma_max_attempts", "htna_window_lo",
        "htna_window_hi",
    ])
    def test_fixed_constant_rejected(self, key):
        # Model and protocol constants live in simkernel and protocol; a
        # scenario cannot set them.
        bad = dict(MINIMAL)
        bad["parameters"] = {key: 1}
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict(bad)

    @pytest.mark.parametrize("patch, key", [
        # A period <= 0 never advances the clock: the run loops at one time.
        ({"parameters": {"epoch_period_s": 0}}, "epoch_period_s"),
        ({"parameters": {"epoch_jitter": 1.0}}, "epoch_jitter"),
        ({"parameters": {"epoch_jitter": -0.1}}, "epoch_jitter"),
        # Values that parse and then fail inside Simulation.
        ({"parameters": {"chirp_mean_interval_s": 0}}, "chirp_mean_interval_s"),
        ({"parameters": {"budget": -1}}, "budget"),
        ({"parameters": {"clock_drift_ppm": 150}}, "clock_drift_ppm"),
        ({"parameters": {"los_sigma_m": -0.1}}, "los_sigma_m"),
        ({"parameters": {"msg_air_s": 0}}, "msg_air_s"),
        ({"seed": -1}, "seed"),
        # Malformed values.
        ({"agents": [{"id": "x", "initial_position": [1, 1, 1]}]}, r"agents\[0\]\.id"),
        ({"link_truth": {"blocked_pairs": [5]}}, "blocked_pairs"),
        ({"agents": [5]}, r"agents\[0\]"),
        ({"agents": [{"id": 10, "initial_position": [1, 1, 1],
                      "trajectory": [{"position": [2, 2, 1], "arrival_s": "x"}]}]},
         "arrival_s"),
        ({"parameters": None}, "parameters"),
        # Values that would be silently misread.
        ({"parameters": {"allow_agent_measurements": "false"}}, "allow_agent_measurements"),
        ({"parameters": {"budget": 12.7}}, "budget"),
        ({"parameters": {"erc_noise_sigma": -0.1}}, "erc_noise_sigma"),
        ({"link_truth": {"comm_range_m": -1}}, "comm_range_m"),
        ({"duration_s": "1"}, "duration_s"),
        ({"name": None}, "name"),
        ({"name": ["a"]}, "name"),
        ({"anchors": [{"id": 1, "position": [0, 0, 0], "label": 7}]}, r"anchors\[0\]\.label"),
        ({"agents": [{"id": 10, "initial_position": [1, 1, 1], "label": {"x": 1}}]},
         r"agents\[0\]\.label"),
        # A waypoint left at or after the next arrival (a long dwell, or
        # arrivals out of order) would make the position jump.
        ({"agents": [{"id": 10, "initial_position": [1, 1, 1], "trajectory": [
            {"position": [1, 1, 1], "arrival_s": 0},
            {"position": [2, 2, 1], "arrival_s": 2, "dwell_s": 5},
            {"position": [3, 1, 1], "arrival_s": 4}]}]},
         r"agents\[0\]\.trajectory\[1\]: arrival_s \+ dwell_s"),
        ({"agents": [{"id": 10, "initial_position": [1, 1, 1], "trajectory": [
            {"position": [1, 1, 1], "arrival_s": 3},
            {"position": [2, 2, 1], "arrival_s": 2}]}]},
         r"agents\[0\]\.trajectory\[0\]: arrival_s \+ dwell_s"),
        # The run starts at a first waypoint at 0 s, so another initial
        # position would be ignored.
        ({"agents": [{"id": 10, "initial_position": [1, 1, 1], "trajectory": [
            {"position": [8, 6, 1], "arrival_s": 0}]}]},
         r"agents\[0\]\.trajectory\[0\]: a waypoint at 0 s must be at initial_position"),
    ])
    def test_unusable_value_named(self, patch, key):
        with pytest.raises(ConfigError, match=key):
            scenario_from_dict({**MINIMAL, **patch})

    def test_overlapping_dwell_rejected_through_api(self):
        # The rule holds for agents built in code too, not only for JSON: this
        # dwell (2 s + 5 s) outlasts the next arrival at 4 s.
        with pytest.raises(ConfigError, match=r"^trajectory\[0\]: arrival_s \+ dwell_s"):
            AgentSpec(10, (4.7, 2.3, 1.1), trajectory=(
                Waypoint((0.1, 0.2, 0.3), 2.0, 5.0),
                Waypoint((1.1, 4.7, 0.3), 4.0, 1.0),
                Waypoint((2.3, 0.1, 0.2), 8.0, 2.0),
            ))

    @pytest.mark.parametrize("key,value", [
        ("epoch_period_s", 0.0), ("epoch_jitter", 1.0), ("budget", 12.5)])
    def test_parameter_rule_through_api(self, key, value):
        # Parameters built in code obey the file's rules: a period of 0
        # would never advance the clock, and a fractional budget would
        # crash the allocation's rounding.
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            Parameters(**{key: value})
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            dataclasses.replace(Parameters(), **{key: value})

    @pytest.mark.parametrize("build, match", [
        # An agent sharing an anchor's id would replace it in the run's nodes.
        (lambda: ScenarioConfig("t", 1.0, anchors=(AnchorSpec(1, (0, 0, 0)),),
                                agents=(AgentSpec(1, (1, 1, 1)),)),
         r"^node ids must be unique across anchors and agents, got \[1\]"),
        # An unknown inference would run the LS branch on an SPBP prior.
        (lambda: Algorithms(inference="FOO"), r"^inference must be one of"),
        (lambda: ScenarioConfig("t", float("nan")), "^duration_s must be"),
        (lambda: LinkTruthConfig(comm_range_m=-1), "^comm_range_m must be"),
        (lambda: Waypoint((0, 0, 0), -1.0), "^arrival_s must be"),
        (lambda: Waypoint((0, 0, 0), 1.0, -0.5), "^dwell_s must be"),
        (lambda: LinkTruthConfig(nlos_pairs=((1, 1),)), r"^nlos_pairs\[0\] pairs node 1"),
        (lambda: LinkTruthConfig(blocked_pairs=((1, 2), (2, 2))),
         r"^blocked_pairs\[1\] pairs node 2"),
        (lambda: ScenarioConfig("t", 1.0, anchors=(AnchorSpec(1, (0, 0, 0)),),
                                link_truth=LinkTruthConfig(nlos_pairs=((1, 99),))),
         r"^link_truth\.nlos_pairs\[0\] references unknown node id 99"),
        (lambda: ScenarioConfig("t", 1.0, link_truth=LinkTruthConfig(blocked_pairs=((1, 2),))),
         r"^link_truth\.blocked_pairs\[0\] references unknown node id"),
        (lambda: Parameters(budget=True), "^budget must be"),
        (lambda: Parameters(epoch_period_s=float("inf")), "^epoch_period_s must be"),
        (lambda: Parameters(epoch_period_s="0.1"), "^epoch_period_s must be"),
    ], ids=["duplicate-id", "unknown-inference", "nan-duration", "negative-range",
            "negative-arrival", "negative-dwell", "nlos-self-pair", "blocked-self-pair",
            "nlos-unknown-id", "blocked-unknown-id", "boolean-budget", "infinite-period",
            "string-period"])
    def test_rule_through_api(self, build, match):
        # A scenario built in code obeys the rules of a scenario file.
        with pytest.raises(ConfigError, match=match):
            build()

    def test_bad_vector_named(self):
        bad = dict(MINIMAL)
        bad["agents"] = [{"id": 10, "initial_position": [1, 1]}]
        with pytest.raises(ConfigError, match="initial_position"):
            scenario_from_dict(bad)

    def test_bad_algorithm_enum(self):
        bad = dict(MINIMAL)
        bad["algorithms"] = {"inference": "MAGIC"}
        with pytest.raises(ConfigError, match="inference"):
            scenario_from_dict(bad)

    def test_with_algorithms(self):
        scen = scenario_from_dict(dict(MINIMAL))
        for acronym, (inf, act, pri) in ACRONYMS.items():
            out = scen.with_algorithms(acronym)
            assert (out.algorithms.inference, out.algorithms.activation,
                    out.algorithms.prioritization) == (inf, act, pri)
        with pytest.raises(ConfigError):
            scen.with_algorithms("BOGUS")

    @pytest.mark.parametrize("name", BUNDLED)
    def test_round_trip(self, tmp_path, name):
        scen = load_scenario(bundled_scenario_path(name))
        p = tmp_path / "s.json"
        save_scenario(scen, p)
        again = load_scenario(p)
        assert again == scen

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_scenario(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_scenario(p)

    def test_all_bundled_scenarios_parse(self):
        names = [
            "single_floor_inference",
            "two_agent_cooperation",
            "three_agent_activation",
            "prioritization_multipath",
            "multi_floor",
        ]
        for name in names:
            scen = load_scenario(bundled_scenario_path(name))
            assert scen.duration_s > 0 and scen.anchors and scen.agents

    def test_bundled_labels(self):
        scen = load_scenario(bundled_scenario_path("single_floor_inference"))
        assert [a.label for a in scen.anchors] == ["A1", "A2", "A3", "A4"]

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            bundled_scenario_path("missing")
