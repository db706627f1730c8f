"""Declarative scenario configuration: schema, validation, (de)serialization.

The dataclasses check their own fields, so a scenario built in code obeys
the same rules as a scenario file: a value the run would ignore, misread or
fail on (a bad enum, a dangling node reference, a negative range) raises
ConfigError naming the field. Scenario files are JSON; the reader also
rejects unknown keys and names the offending field by its path in the file.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import partial
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .model import NONNEGATIVE, POSITIVE, finite_number
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


# Numbers follow the package's one rule, raising ConfigError naming the field.
_number = partial(finite_number, error=ConfigError)

# The rule of every numeric parameter. A value outside it means nothing: a
# run hangs (a period <= 0 never advances the clock), crashes, or misreads it.
_PARAMETER_RULES = {
    "budget": NONNEGATIVE,
    "epoch_period_s": POSITIVE,
    "epoch_jitter": (lambda x: 0 <= x < 1, "in [0, 1)"),  # keeps every period > 0
    "t_m_s": NONNEGATIVE,
    "msg_air_s": POSITIVE,
    "chirp_mean_interval_s": POSITIVE,
    "los_sigma_m": NONNEGATIVE,
    "erc_noise_sigma": NONNEGATIVE,
    "clock_drift_ppm": (lambda x: 0 <= x <= MAX_CLOCK_DRIFT_PPM,
                        f"in [0, {MAX_CLOCK_DRIFT_PPM:g}]"),
    "clock_offset_max_s": NONNEGATIVE,
    "metrics_burn_in_s": NONNEGATIVE,
}


def _set(obj, **values) -> None:
    """Store checked field values on a frozen dataclass."""
    for key, value in values.items():
        object.__setattr__(obj, key, value)


def _list(v, where: str):
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {v!r}")
    return v


def _optional(v, where: str, rule=None):
    return None if v is None else _number(v, where, rule)


def _string(v, where: str, optional: bool = False):
    """A string (or None, if `optional`); anything else is a ConfigError
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


def _instance(v, cls, where):
    if not isinstance(v, cls):
        raise ConfigError(f"{where} must be of type {cls.__name__}, got {v!r}")
    return v


def _instances(v, cls, where) -> tuple:
    return tuple(_instance(x, cls, f"{where}[{i}]") for i, x in enumerate(_list(v, where)))


# Each dataclass's errors name the field relative to the dataclass; the JSON
# reader prefixes where the object sits in the file.


@dataclass(frozen=True)
class AnchorSpec:
    id: int
    position: tuple
    label: str | None = None

    def __post_init__(self):
        _set(self, id=_number(self.id, "id", integer=True),
             position=_vec(self.position, 3, "position"),
             label=_string(self.label, "label", optional=True))


@dataclass(frozen=True)
class Waypoint:
    position: tuple
    arrival_s: float
    dwell_s: float = 0.0

    def __post_init__(self):
        _set(self, position=_vec(self.position, 3, "position"),
             arrival_s=_number(self.arrival_s, "arrival_s", NONNEGATIVE),
             dwell_s=_number(self.dwell_s, "dwell_s", NONNEGATIVE))


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
        start = _vec(self.initial_position, 3, "initial_position")
        traj = _instances(self.trajectory, Waypoint, "trajectory")
        if traj and traj[0].arrival_s == 0 and traj[0].position != start:  # the run starts there
            raise ConfigError("trajectory[0]: a waypoint at 0 s must be at initial_position")
        for i, (w, nxt) in enumerate(zip(traj, traj[1:])):
            if w.arrival_s + w.dwell_s >= nxt.arrival_s:  # no time left for the leg
                raise ConfigError(f"trajectory[{i}]: arrival_s + dwell_s must come "
                                  f"before the next waypoint's arrival_s ({nxt.arrival_s})")
        _set(self, id=_number(self.id, "id", integer=True),
             initial_position=start,
             trajectory=traj,
             belief_mean=(None if self.belief_mean is None
                          else _vec(self.belief_mean, 6, "belief_mean")),
             pos_sigma=_optional(self.pos_sigma, "pos_sigma", NONNEGATIVE),
             vel_sigma=_optional(self.vel_sigma, "vel_sigma", NONNEGATIVE),
             label=_string(self.label, "label", optional=True))


@dataclass(frozen=True)
class LinkTruthConfig:
    comm_range_m: float = 60.0
    nlos_pairs: tuple = ()  # pairs of node ids
    blocked_pairs: tuple = ()  # pairs that can never communicate
    nlos_cross_z: float | None = None  # links crossing this z plane are NLOS

    def __post_init__(self):
        _set(self, comm_range_m=_number(self.comm_range_m, "comm_range_m", NONNEGATIVE),
             nlos_pairs=_pairs(self.nlos_pairs, "nlos_pairs"),
             blocked_pairs=_pairs(self.blocked_pairs, "blocked_pairs"),
             nlos_cross_z=_optional(self.nlos_cross_z, "nlos_cross_z"))


@dataclass(frozen=True)
class Algorithms:
    inference: str = "SPBP"
    activation: str = "ALOHA"
    prioritization: str = "UNIFORM"

    def __post_init__(self):
        for key, allowed in (("inference", INFERENCE_KINDS), ("activation", ACTIVATION_KINDS),
                             ("prioritization", PRIORITIZATION_KINDS)):
            if getattr(self, key) not in allowed:
                raise ConfigError(
                    f"{key} must be one of {list(allowed)}, got {getattr(self, key)!r}")


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
        # Each field's annotation is its type; numbers also obey _PARAMETER_RULES.
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type != "bool":
                _set(self, **{f.name: _number(v, f.name, _PARAMETER_RULES[f.name],
                                              integer=f.type == "int")})
            elif not isinstance(v, bool):
                raise ConfigError(f"{f.name} must be true or false, got {v!r}")


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

    def __post_init__(self):
        anchors = _instances(self.anchors, AnchorSpec, "anchors")
        agents = _instances(self.agents, AgentSpec, "agents")
        _set(self, name=_string(self.name, "name"),
             duration_s=_number(self.duration_s, "duration_s", NONNEGATIVE),
             seed=_number(self.seed, "seed", NONNEGATIVE, integer=True),
             anchors=anchors, agents=agents,
             link_truth=_instance(self.link_truth, LinkTruthConfig, "link_truth"),
             algorithms=_instance(self.algorithms, Algorithms, "algorithms"),
             parameters=_instance(self.parameters, Parameters, "parameters"))
        ids = [a.id for a in anchors + agents]
        repeated = sorted({i for i in ids if ids.count(i) > 1})
        if repeated:
            raise ConfigError(f"node ids must be unique across anchors and agents, "
                              f"got {repeated} more than once")
        for key in ("nlos_pairs", "blocked_pairs"):
            for i, pair in enumerate(getattr(self.link_truth, key)):
                for nid in pair:
                    if nid not in ids:
                        raise ConfigError(
                            f"link_truth.{key}[{i}] references unknown node id {nid}")

    def with_algorithms(self, acronym: str) -> "ScenarioConfig":
        if acronym not in ACRONYMS:
            raise ConfigError(f"unknown algorithm acronym {acronym!r}")
        inf, act, pri = ACRONYMS[acronym]
        return replace(
            self,
            algorithms=Algorithms(inference=inf, activation=act, prioritization=pri),
        )


def _read(cls, d, where: str, **nested):
    """Build `cls` from the JSON object `d` found at `where` ("" for the
    scenario itself): reject unknown keys, require the fields without a
    default, read each field named in `nested` with its reader
    `(value, where) -> value`, and prefix `where` onto the ConfigError of
    the dataclass's own checks."""
    name = where or "scenario"
    if not isinstance(d, dict):
        raise ConfigError(f"{name} must be an object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {name}")
    missing = [f.name for f in fields(cls)
               if f.name not in d and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigError(f"{name} requires {', '.join(map(repr, missing))}")
    prefix = f"{where}." if where else ""
    kwargs = {k: nested[k](v, prefix + k) if k in nested else v for k, v in d.items()}
    try:
        return cls(**kwargs)
    except ConfigError as err:
        raise ConfigError(f"{prefix}{err}") from None


def _reader(cls, **nested):
    """The reader of one JSON object of `cls`."""
    return lambda v, where: _read(cls, v, where, **nested)


def _list_reader(cls, **nested):
    """The reader of a JSON list of objects of `cls`."""
    return lambda v, where: tuple(
        _read(cls, x, f"{where}[{i}]", **nested) for i, x in enumerate(_list(v, where)))


def scenario_from_dict(d: dict) -> ScenarioConfig:
    return _read(
        ScenarioConfig, d, "",
        anchors=_list_reader(AnchorSpec),
        agents=_list_reader(AgentSpec, trajectory=_list_reader(Waypoint)),
        link_truth=_reader(LinkTruthConfig),
        algorithms=_reader(Algorithms),
        parameters=_reader(Parameters),
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
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from None
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
