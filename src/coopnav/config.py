"""Declarative scenario configuration: schema, validation, (de)serialization.

Scenario files are JSON. Parsing is strict: unknown keys, bad enum values,
and dangling node references raise ConfigError naming the offending field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict, replace
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .protocol import MAX_CLOCK_DRIFT_PPM

INFERENCE_KINDS = ("LS", "SPBP")
ACTIVATION_KINDS = ("ALOHA", "CSMA", "HTNA")
PRIORITIZATION_KINDS = ("UNIFORM", "CPNP")

# Algorithm-combination acronyms: inference-activation-prioritization.
ACRONYMS = {
    "LS-AL-UN": ("LS", "ALOHA", "UNIFORM"),
    "BP-AL-UN": ("SPBP", "ALOHA", "UNIFORM"),
    "BP-CS-UN": ("SPBP", "CSMA", "UNIFORM"),
    "BP-HT-UN": ("SPBP", "HTNA", "UNIFORM"),
    "BP-HT-CP": ("SPBP", "HTNA", "CPNP"),
}


@dataclass(frozen=True)
class AnchorSpec:
    id: int
    position: tuple
    label: str | None = None


@dataclass(frozen=True)
class Waypoint:
    position: tuple
    arrival_s: float
    dwell_s: float = 0.0


@dataclass(frozen=True)
class AgentSpec:
    id: int
    initial_position: tuple
    trajectory: tuple = ()  # Waypoints; empty means static at initial_position
    belief_mean: tuple | None = None  # 6-vector; None -> initial truth-free default
    pos_sigma: float | None = None
    vel_sigma: float | None = None
    label: str | None = None

    def __post_init__(self):
        traj = self.trajectory
        for i, (w, nxt) in enumerate(zip(traj, traj[1:])):
            if w.arrival_s + w.dwell_s >= nxt.arrival_s:  # no time left for the leg
                raise ConfigError(f"trajectory[{i}]: arrival_s + dwell_s must come "
                                  f"before the next waypoint's arrival_s ({nxt.arrival_s})")


@dataclass(frozen=True)
class LinkTruthConfig:
    comm_range_m: float = 60.0
    nlos_pairs: tuple = ()  # pairs of node ids
    blocked_pairs: tuple = ()  # pairs that can never communicate
    nlos_cross_z: float | None = None  # links crossing this z plane are NLOS


@dataclass(frozen=True)
class Algorithms:
    inference: str = "SPBP"
    activation: str = "ALOHA"
    prioritization: str = "UNIFORM"


@dataclass(frozen=True)
class Parameters:
    """The settable scenario parameters. Fixed model and protocol constants
    live in the modules that read them (simkernel, protocol)."""

    # measurement allocation
    budget: int = 12
    allow_agent_measurements: bool = True
    # epochs
    epoch_period_s: float = 0.1
    epoch_jitter: float = 0.1
    # channel / protocol timing
    t_m_s: float = 0.002  # airtime equivalent of one full measurement
    msg_air_s: float = 0.0004
    chirp_mean_interval_s: float = 1.0
    # radio error model
    los_sigma_m: float = 0.10
    erc_noise_sigma: float = 0.1
    clock_drift_ppm: float = 20.0
    clock_offset_max_s: float = 0.01
    # metrics
    metrics_burn_in_s: float = 0.0

    def __post_init__(self):
        for key, (ok, what) in _PARAMETER_RULES.items():
            v = getattr(self, key)
            if not ok(v):
                raise ConfigError(f"{key} must be {what}, got {v!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    duration_s: float
    seed: int = 0
    anchors: tuple = ()
    agents: tuple = ()
    link_truth: LinkTruthConfig = field(default_factory=LinkTruthConfig)
    algorithms: Algorithms = field(default_factory=Algorithms)
    parameters: Parameters = field(default_factory=Parameters)

    def with_algorithms(self, acronym: str) -> "ScenarioConfig":
        if acronym not in ACRONYMS:
            raise ConfigError(f"unknown algorithm acronym {acronym!r}")
        inf, act, pri = ACRONYMS[acronym]
        return replace(
            self,
            algorithms=Algorithms(inference=inf, activation=act, prioritization=pri),
        )


# Rules on numbers: (predicate, what the number must be).
_NONNEGATIVE = (lambda x: x >= 0, ">= 0")
_POSITIVE = (lambda x: x > 0, "> 0")

# The rule of every numeric parameter. A value outside it means nothing: a
# run hangs (a period <= 0 never advances the clock), crashes, or misreads it.
_PARAMETER_RULES = {
    "budget": (lambda x: isinstance(x, int) and x >= 0, "an integer >= 0"),
    "epoch_period_s": _POSITIVE,
    "epoch_jitter": (lambda x: 0 <= x < 1, "in [0, 1)"),  # keeps every period > 0
    "t_m_s": _NONNEGATIVE,
    "msg_air_s": _POSITIVE,
    "chirp_mean_interval_s": _POSITIVE,
    "los_sigma_m": _NONNEGATIVE,
    "erc_noise_sigma": _NONNEGATIVE,
    "clock_drift_ppm": (lambda x: 0 <= x <= MAX_CLOCK_DRIFT_PPM,
                        f"in [0, {MAX_CLOCK_DRIFT_PPM:g}]"),
    "clock_offset_max_s": _NONNEGATIVE,
    "metrics_burn_in_s": _NONNEGATIVE,
}


def _require_keys(d, allowed: set, where: str) -> None:
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def _list(v, where: str):
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {v!r}")
    return v


def _number(v, where: str, rule=None, integer: bool = False):
    """A finite JSON number as a float (an int if `integer`) that satisfies
    `rule`; anything else, booleans and strings included, is a ConfigError
    naming `where`."""
    if (isinstance(v, bool) or not isinstance(v, (int, float))
            or (isinstance(v, float) and not math.isfinite(v))):
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    if integer and v != int(v):
        raise ConfigError(f"{where} must be an integer, got {v!r}")
    out = int(v) if integer else float(v)
    if rule is not None and not rule[0](out):
        raise ConfigError(f"{where} must be {rule[1]}, got {v!r}")
    return out


def _string(v, where: str, optional: bool = False):
    """A JSON string (or null, if `optional`); anything else is a ConfigError
    naming `where`."""
    if not isinstance(v, str) and not (optional and v is None):
        raise ConfigError(f"{where} must be a string, got {v!r}")
    return v


def _vec(v, n, where) -> tuple:
    out = tuple(_number(x, f"{where}[{i}]") for i, x in enumerate(_list(v, where)))
    if len(out) != n:
        raise ConfigError(f"{where} must have {n} components, got {len(out)}")
    return out


def _pairs(v, where) -> tuple:
    out = []
    for i, pair in enumerate(_list(v, where)):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"{where}[{i}] must be a pair of node ids")
        a, b = (_number(x, f"{where}[{i}]", integer=True) for x in pair)
        if a == b:
            raise ConfigError(f"{where}[{i}] pairs node {a} with itself")
        out.append((a, b))
    return tuple(out)


def _parse_anchor(d: dict, idx: int) -> AnchorSpec:
    where = f"anchors[{idx}]"
    _require_keys(d, {"id", "position", "label"}, where)
    if "id" not in d or "position" not in d:
        raise ConfigError(f"{where} requires 'id' and 'position'")
    return AnchorSpec(
        _number(d["id"], f"{where}.id", integer=True),
        _vec(d["position"], 3, f"{where}.position"),
        _string(d.get("label"), f"{where}.label", optional=True),
    )


def _parse_waypoint(d: dict, where: str) -> Waypoint:
    _require_keys(d, {"position", "arrival_s", "dwell_s"}, where)
    if "position" not in d or "arrival_s" not in d:
        raise ConfigError(f"{where} requires 'position' and 'arrival_s'")
    return Waypoint(
        _vec(d["position"], 3, f"{where}.position"),
        _number(d["arrival_s"], f"{where}.arrival_s", _NONNEGATIVE),
        _number(d.get("dwell_s", 0.0), f"{where}.dwell_s", _NONNEGATIVE),
    )


def _parse_agent(d: dict, idx: int) -> AgentSpec:
    where = f"agents[{idx}]"
    _require_keys(
        d,
        {"id", "initial_position", "trajectory",
         "belief_mean", "pos_sigma", "vel_sigma", "label"},
        where,
    )
    if "id" not in d or "initial_position" not in d:
        raise ConfigError(f"{where} requires 'id' and 'initial_position'")
    traj = tuple(
        _parse_waypoint(w, f"{where}.trajectory[{i}]")
        for i, w in enumerate(_list(d.get("trajectory", []), f"{where}.trajectory"))
    )
    belief_mean = d.get("belief_mean")
    pos_sigma, vel_sigma = (
        None if d.get(key) is None else _number(d[key], f"{where}.{key}", _NONNEGATIVE)
        for key in ("pos_sigma", "vel_sigma")
    )
    fields = dict(
        id=_number(d["id"], f"{where}.id", integer=True),
        initial_position=_vec(d["initial_position"], 3, f"{where}.initial_position"),
        trajectory=traj,
        belief_mean=None if belief_mean is None else _vec(belief_mean, 6, f"{where}.belief_mean"),
        pos_sigma=pos_sigma,
        vel_sigma=vel_sigma,
        label=_string(d.get("label"), f"{where}.label", optional=True),
    )
    try:
        return AgentSpec(**fields)
    except ConfigError as err:  # the trajectory check, named within the file
        raise ConfigError(f"{where}.{err}") from None


def _parse_enum(value, allowed, where) -> str:
    if value not in allowed:
        raise ConfigError(f"{where} must be one of {list(allowed)}, got {value!r}")
    return value


def scenario_from_dict(d: dict) -> ScenarioConfig:
    _require_keys(
        d,
        {"name", "duration_s", "seed", "anchors", "agents", "link_truth",
         "algorithms", "parameters"},
        "scenario",
    )
    if "name" not in d or "duration_s" not in d:
        raise ConfigError("scenario requires 'name' and 'duration_s'")
    duration = _number(d["duration_s"], "duration_s", _NONNEGATIVE)
    anchors = tuple(
        _parse_anchor(a, i) for i, a in enumerate(_list(d.get("anchors", []), "anchors"))
    )
    agents = tuple(
        _parse_agent(a, i) for i, a in enumerate(_list(d.get("agents", []), "agents"))
    )
    ids = [a.id for a in anchors] + [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise ConfigError("node ids must be unique across anchors and agents")

    lt = d.get("link_truth", {})
    _require_keys(
        lt, {"comm_range_m", "nlos_pairs", "blocked_pairs", "nlos_cross_z"}, "link_truth"
    )
    link_truth = LinkTruthConfig(
        comm_range_m=_number(lt.get("comm_range_m", 60.0), "link_truth.comm_range_m",
                             _NONNEGATIVE),
        nlos_pairs=_pairs(lt.get("nlos_pairs", []), "link_truth.nlos_pairs"),
        blocked_pairs=_pairs(lt.get("blocked_pairs", []), "link_truth.blocked_pairs"),
        nlos_cross_z=(None if lt.get("nlos_cross_z") is None
                      else _number(lt["nlos_cross_z"], "link_truth.nlos_cross_z")),
    )
    known = set(ids)
    for label, pairs in (
        ("nlos_pairs", link_truth.nlos_pairs),
        ("blocked_pairs", link_truth.blocked_pairs),
    ):
        for pair in pairs:
            for nid in pair:
                if nid not in known:
                    raise ConfigError(f"link_truth.{label} references unknown node id {nid}")

    alg = d.get("algorithms", {})
    _require_keys(alg, {"inference", "activation", "prioritization"}, "algorithms")
    algorithms = Algorithms(
        inference=_parse_enum(alg.get("inference", "SPBP"), INFERENCE_KINDS, "algorithms.inference"),
        activation=_parse_enum(
            alg.get("activation", "ALOHA"), ACTIVATION_KINDS, "algorithms.activation"
        ),
        prioritization=_parse_enum(
            alg.get("prioritization", "UNIFORM"), PRIORITIZATION_KINDS,
            "algorithms.prioritization",
        ),
    )

    par = d.get("parameters", {})
    par_fields = {f for f in Parameters.__dataclass_fields__}
    _require_keys(par, par_fields, "parameters")
    kwargs = {}
    for key, value in par.items():
        where = f"parameters.{key}"
        default = getattr(Parameters(), key)
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{where} must be true or false, got {value!r}")
            kwargs[key] = value
        else:
            kwargs[key] = _number(value, where, integer=isinstance(default, int))
    try:
        parameters = Parameters(**kwargs)
    except ConfigError as err:  # a rule of _PARAMETER_RULES, named within the file
        raise ConfigError(f"parameters.{err}") from None

    return ScenarioConfig(
        name=_string(d["name"], "name"),
        duration_s=duration,
        seed=_number(d.get("seed", 0), "seed", _NONNEGATIVE, integer=True),
        anchors=anchors,
        agents=agents,
        link_truth=link_truth,
        algorithms=algorithms,
        parameters=parameters,
    )


def scenario_to_dict(s: ScenarioConfig) -> dict:
    d = asdict(s)
    # asdict turns nested dataclasses into dicts already; normalize tuples.
    return json.loads(json.dumps(d))


def load_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return scenario_from_dict(raw)


def save_scenario(s: ScenarioConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2, sort_keys=True)
        fh.write("\n")


def bundled_scenario_path(name: str) -> Path:
    """Path to a scenario shipped with the package (name without extension)."""
    ref = resources.files("coopnav.scenarios") / f"{name}.json"
    if not ref.is_file():
        raise ConfigError(f"no bundled scenario named {name!r}")
    return Path(str(ref))
