"""Tests for the command-line interface."""

import json

import pytest

from coopnav import harness, simkernel
from coopnav.cli import EXIT_CONFIG, EXIT_OK, EXIT_SIMULATION, _parse_seeds, main
from coopnav.config import load_scenario
from coopnav.errors import (
    ConfigError,
    EstimationFailureError,
    InvalidArgumentError,
    NumericFailureError,
    SimulationError,
)
from coopnav.harness import replicate


class TestSeedParsing:
    def test_comma_list(self):
        assert _parse_seeds("1,2,5") == [1, 2, 5]

    def test_range(self):
        assert _parse_seeds("0:4") == [0, 1, 2, 3]

    def test_single(self):
        assert _parse_seeds("7") == [7]

    def test_invalid(self):
        with pytest.raises(ConfigError):
            _parse_seeds("a,b")
        with pytest.raises(ConfigError):
            _parse_seeds(",")


class TestCommands:
    def test_validate_bundled(self, capsys):
        assert main(["validate", "multi_floor"]) == EXIT_OK
        assert "multi_floor: OK" in capsys.readouterr().out

    def test_validate_unknown_name(self, capsys):
        assert main(["validate", "never_heard_of_it"]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_validate_broken_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x"}')
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert "duration_s" in capsys.readouterr().err

    def test_run_writes_records(self, tmp_path, capsys):
        import dataclasses

        from coopnav.config import load_scenario, bundled_scenario_path, save_scenario

        scen = load_scenario(bundled_scenario_path("single_floor_inference"))
        short = dataclasses.replace(
            scen,
            duration_s=2.0,
            parameters=dataclasses.replace(scen.parameters, metrics_burn_in_s=0.0),
        )
        path = tmp_path / "short.json"
        save_scenario(short, path)
        code = main(
            ["run", str(path), "--seed", "1", "--output-dir", str(tmp_path), "--trace"]
        )
        assert code == EXIT_OK
        records = tmp_path / "single_floor_inference_seed1_records.csv"
        trace = tmp_path / "single_floor_inference_seed1_trace.csv"
        assert records.exists() and trace.exists()
        assert records.read_text().startswith("time_s,node_id,true_x")

    def test_compare_writes_json(self, tmp_path):
        import dataclasses

        from coopnav.config import load_scenario, bundled_scenario_path, save_scenario

        scen = load_scenario(bundled_scenario_path("single_floor_inference"))
        short = dataclasses.replace(
            scen,
            duration_s=2.0,
            parameters=dataclasses.replace(scen.parameters, metrics_burn_in_s=0.0),
        )
        path = tmp_path / "short.json"
        save_scenario(short, path)
        code = main(
            [
                "compare", str(path), "--baseline", "LS-AL-UN",
                "--candidate", "BP-AL-UN", "--seeds", "0,1",
                "--output-dir", str(tmp_path), "--node", "10",
            ]
        )
        assert code == EXIT_OK
        out = json.loads(
            (tmp_path / "single_floor_inference_LS-AL-UN_vs_BP-AL-UN.json").read_text()
        )
        assert out["baseline"] == "LS-AL-UN" and out["seeds"] == [0, 1]


def _short_scenario(tmp_path, parameters=(), **over):
    """single_floor_inference cut to 2 s with no burn-in, saved as JSON with
    `parameters` and then `over` (top-level keys) applied; returns the file
    path."""
    from coopnav.config import bundled_scenario_path, load_scenario, scenario_to_dict

    d = scenario_to_dict(load_scenario(bundled_scenario_path("single_floor_inference")))
    d["duration_s"] = 2.0
    d["parameters"]["metrics_burn_in_s"] = 0.0
    d["parameters"].update(parameters)
    d.update(over)
    path = tmp_path / "short.json"
    path.write_text(json.dumps(d))
    return str(path)


class TestUnusableArguments:
    """Arguments that select nothing to run or evaluate exit with EXIT_CONFIG
    and a one-line message, not a traceback."""

    @pytest.mark.parametrize("argv, key", [
        (["run", "{path}", "--seed", "-1"], "seed"),
        (["replicate", "{path}", "--seeds=-1,2"], "seed"),
        (["replicate", "{path}", "--seeds", "0", "--node", "99"], "--node 99"),
        (["replicate", "{path}", "--seeds", "0", "--node", "1"], "--node 1"),
        (["compare", "{path}", "--baseline", "LS-AL-UN", "--candidate", "BP-AL-UN",
          "--seeds", "0", "--node", "1"], "--node 1"),
        (["replicate", "{path}", "--seeds", "0,1", "--workers", "0"], "--workers must be >= 1"),
        (["compare", "{path}", "--baseline", "LS-AL-UN", "--candidate", "BP-AL-UN",
          "--seeds", "0,1", "--workers=-3"], "--workers must be >= 1"),
    ], ids=["run-negative-seed", "replicate-negative-seed", "unknown-node",
            "anchor-node", "compare-anchor-node", "replicate-zero-workers",
            "compare-negative-workers"])
    def test_bad_argument(self, tmp_path, capsys, argv, key):
        path = _short_scenario(tmp_path)
        argv = [a.format(path=path) for a in argv] + ["--output-dir", str(tmp_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and key in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("content", [None, b"\xff\xfe{}"], ids=["directory", "not-utf8"])
    def test_unreadable_scenario_file(self, tmp_path, capsys, content):
        path = tmp_path
        if content is not None:
            path = tmp_path / "latin.json"
            path.write_bytes(content)
        assert main(["validate", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and str(path) in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("workers", [0, -3])
    def test_replicate_rejects_unusable_workers(self, tmp_path, workers):
        scenario = load_scenario(_short_scenario(tmp_path))
        with pytest.raises(InvalidArgumentError, match="workers must be >= 1"):
            replicate(scenario, [0, 1], workers=workers)

    @pytest.mark.parametrize("over", [
        {"agents": []},
        {"duration_s": 0},
        # Epochs start at 0.0, 0.1, ..., 0.9 s: the burn-in leaves none.
        {"duration_s": 0.95, "parameters": {"metrics_burn_in_s": 0.92, "epoch_jitter": 0.0}},
    ], ids=["no-agents", "zero-duration", "burn-in-past-last-epoch"])
    @pytest.mark.parametrize("command", ["run", "replicate"])
    def test_nothing_to_evaluate(self, tmp_path, capsys, over, command):
        path = _short_scenario(tmp_path, **over)
        argv = [command, path, "--output-dir", str(tmp_path)]
        if command == "replicate":
            argv += ["--seeds", "0"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: no records to evaluate")
        assert err.count("\n") == 1


class TestRunFailures:
    """An error a run raises that is not about the configuration exits with
    EXIT_SIMULATION and a one-line message, not a traceback."""

    @pytest.mark.parametrize("error", [
        NumericFailureError("matrix square root of a non-PSD matrix", min_eigenvalue=-1.0),
        EstimationFailureError("diverged"),
        SimulationError("event times must be nondecreasing"),
    ], ids=lambda e: type(e).__name__)
    @pytest.mark.parametrize("command", ["run", "replicate"])
    def test_exit_code(self, tmp_path, capsys, monkeypatch, error, command):
        def failing(*args, **kwargs):
            raise error

        # cli runs one seed through simkernel.run, replicate through harness.run
        monkeypatch.setattr(simkernel if command == "run" else harness, "run", failing)
        argv = [command, _short_scenario(tmp_path), "--output-dir", str(tmp_path)]
        if command == "replicate":
            argv += ["--seeds", "0"]
        assert main(argv) == EXIT_SIMULATION
        err = capsys.readouterr().err
        assert err == f"simulation error: {error}\n"
