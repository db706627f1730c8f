"""Deterministic seeded discrete-event simulator.

Single global event queue ordered by (time, sequence); one shared radio
channel with collision semantics; per-node free-running clocks; waypoint
mobility; per-agent asynchronous inference epochs. Identical (scenario,
seed) pairs produce bit-identical output.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from . import inference, operation, protocol
from .config import ScenarioConfig
from .errors import DegenerateGeometryError, EstimationFailureError, SimulationError
from .model import (
    GaussianBelief,
    MotionModel,
    anchor_belief,
    measurement_variance,
    predict_belief,
)
from .protocol import (
    ClockModel,
    Message,
    MsgKind,
    NeighborTable,
    Phase,
    RangingSession,
    StateSummary,
    TIMEOUT,
    begin_ranging,
    chirp_scheduler,
    erc_estimate,
    neighbor_update,
    ranging_fsm_step,
)

# Motion model: per-axis acceleration noise variances.
SIGMA_X2 = 0.06**2
SIGMA_Y2 = 0.06**2
SIGMA_Z2 = 0.02**2
# Initial belief of an agent whose spec sets none: a coarse deployment-area
# prior, centered in the room, near walking height.
DEFAULT_BELIEF_MEAN = (6.0, 4.0, 1.5, 0.0, 0.0, 0.0)
POS_SIGMA = 3.0
VEL_SIGMA = 1.0
M_PER_NEIGHBOR = 4  # measurements per epoch under uniform prioritization
NLOS_BIAS_MEAN_M = 0.6  # mean of the exponential excess path of an NLOS link
# A link with a moving end is fixed as heard only if its farthest waypoints
# are this much inside the range: far more than the rounding of positions.
FIXED_LINK_MARGIN_M = 1e-6


@dataclass(frozen=True)
class Trajectory:
    """Waypoints (position, arrival time, dwell); linear interpolation between."""

    waypoints: tuple  # of ((x, y, z), arrival_s, dwell_s)

    def __post_init__(self):
        # Plain float tuples: positions are computed per frame, and scalar
        # arithmetic on them is much cheaper than on small numpy arrays.
        object.__setattr__(self, "waypoints", tuple(
            (tuple(float(c) for c in p), float(a), float(d)) for p, a, d in self.waypoints
        ))


def _trajectory_piece(traj: Trajectory, t: float) -> tuple:
    """The piece of a waypoint trajectory that holds time t, as
    (lo, hi, p0, start, span, delta): for every time s with lo < s <= hi the
    position is p0 + (s - start) / span * delta, or p0 itself where delta is
    None (before the first waypoint, at a dwell, after the last waypoint)."""
    wps = traj.waypoints
    if not wps:
        raise SimulationError("trajectory has no waypoints")
    # lo is the latest bound that t has passed: the scan below reaches a
    # piece exactly for the times above every earlier piece's end.
    lo = wps[0][1]
    if t <= lo:
        return (-math.inf, lo, wps[0][0], None, None, None)
    for (p0, a0, d0), (p1, a1, _d1) in zip(wps, wps[1:]):
        start = a0 + d0
        if t <= start:
            return (lo, start, p0, None, None, None)
        lo = max(lo, start)
        if t <= a1:
            delta = (p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2])
            return (lo, a1, p0, start, a1 - start, delta)
        lo = max(lo, a1)
    return (lo, math.inf, wps[-1][0], None, None, None)


def _piece_position(piece: tuple, t: float) -> tuple:
    _lo, _hi, p0, start, span, delta = piece
    if delta is None:
        return p0
    frac = (t - start) / span
    return (p0[0] + frac * delta[0], p0[1] + frac * delta[1], p0[2] + frac * delta[2])


def mobility_position(traj: Trajectory, t: float) -> tuple:
    """Position (x, y, z) along a waypoint trajectory at time t (clamped at the
    ends), linear between a waypoint's departure and the next one's arrival."""
    return _piece_position(_trajectory_piece(traj, t), t)


def _dist(a, b) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def link_key(a: int, b: int) -> tuple:
    """Order-free key of the link between two nodes: the sorted id pair."""
    return (a, b) if a <= b else (b, a)


def hears(a: int, b: int, dist: float, comm_range: float, blocked) -> bool:
    """The link rule: nodes a and b, `dist` apart, hear each other iff their
    pair is not in `blocked` (link_key pairs) and dist is within comm_range."""
    return dist <= comm_range and (not blocked or link_key(a, b) not in blocked)


@dataclass(slots=True)
class Transmission:
    src: int
    start: float
    end: float
    src_pos: tuple  # (x, y, z) at the start of the frame
    msg: Message


class ChannelState:
    """Shared-channel bookkeeping used for collision arbitration."""

    def __init__(self):
        self.recent: deque[Transmission] = deque()  # in start order

    def add(self, tx: Transmission) -> None:
        self.recent.append(tx)

    def prune(self, now: float, horizon: float) -> None:
        """Forget the leading frames that ended `horizon` or more before
        `now`. A horizon of at least the longest airtime keeps every frame
        that overlaps one still in the air. A frame that has ended but sits
        behind an earlier, longer frame stays until that frame goes: it
        overlaps no frame still in the air and no later one either."""
        recent = self.recent
        cutoff = now - horizon
        while recent and recent[0].end <= cutoff:
            recent.popleft()

    def overlapping(self, tx: Transmission) -> list[Transmission]:
        return [
            t
            for t in self.recent
            if t is not tx and t.start < tx.end and t.end > tx.start
        ]


def arbitrate(channel: ChannelState, tx: Transmission, links: dict, positions: dict,
              comm_range: float, blocked=frozenset(), clear=None) -> Mapping:
    """Per-receiver outcome of a finished transmission.

    links is a fixed-link table: node id -> {other node id: heard}, where
    heard is whether the two hear each other (see `hears`) wherever the run
    cannot change it, and None where it depends on their positions. The
    receivers are the sender's row, in its order. positions maps node id ->
    position at the end of the frame; only the entries of nodes on an
    undecided link are read. Returns node id -> outcome. A reception
    succeeds iff the receiver hears the sender and no other overlapping
    frame that it hears. Radios are half duplex: a receiver's own
    overlapping frame always collides.

    clear, if given, is the sender's clear-frame outcome map: its fully
    decided row, with "delivered" where heard and "out-of-range" elsewhere.
    With no overlapping frame the rule reduces to exactly that, and the map
    itself (the same object) is returned, so a caller can tell.
    """
    overlaps = channel.overlapping(tx)
    if clear is not None and not overlaps:
        return clear
    src = tx.src
    out = {}
    for nid, heard in links[src].items():
        if heard is None:
            heard = hears(nid, src, _dist(positions[nid], tx.src_pos), comm_range, blocked)
        if not heard:
            out[nid] = "out-of-range"
            continue
        outcome = "delivered"
        for o in overlaps:
            if o.src == nid:
                outcome = "collided"
                break
            jams = links[o.src][nid]
            if jams is None:
                jams = hears(nid, o.src, _dist(positions[nid], o.src_pos), comm_range, blocked)
            if jams:
                outcome = "collided"
                break
        out[nid] = outcome
    return out


@dataclass(frozen=True, slots=True)
class _FanOut:
    """How a frame settles, from its per-receiver outcomes."""

    outcomes: Mapping  # receiver id -> outcome, in receiver order
    delivered: tuple  # the _Nodes that receive the frame, in receiver order
    collided: int
    out_of_range: int
    agents: tuple  # (index in delivered, _Node) of each delivered agent
    by_id: Mapping  # node id -> _Node of each delivered node, read-only


@dataclass
class RunRecord:
    time_s: float
    node_id: int
    true_pos: np.ndarray
    est_pos: np.ndarray
    cov_trace: float
    n_meas: int
    activated: int
    policy: str


RECORD_HEADER = (
    "time_s,node_id,true_x,true_y,true_z,est_x,est_y,est_z,cov_trace,"
    "n_meas,activated,policy"
)
TRACE_HEADER = "time_s,kind,src,dst,outcome"


def _fmt(v: float) -> str:
    return f"{v:.9f}"


def record_row(r: RunRecord) -> str:
    return ",".join(
        [
            _fmt(r.time_s),
            str(r.node_id),
            _fmt(r.true_pos[0]),
            _fmt(r.true_pos[1]),
            _fmt(r.true_pos[2]),
            _fmt(r.est_pos[0]),
            _fmt(r.est_pos[1]),
            _fmt(r.est_pos[2]),
            _fmt(r.cov_trace),
            str(r.n_meas),
            str(r.activated),
            r.policy,
        ]
    )


@dataclass
class RunResult:
    scenario: str
    seed: int
    duration_s: float
    records: list
    link_counts: dict  # (agent id, neighbor id) -> completed single measurements
    counters: dict
    trace: list | None = None

    def records_csv(self) -> str:
        lines = [RECORD_HEADER]
        lines.extend(record_row(r) for r in self.records)
        return "\n".join(lines) + "\n"

    def trace_csv(self) -> str:
        lines = [TRACE_HEADER]
        for t, kind, src, dst, outcome in self.trace or []:
            lines.append(f"{_fmt(t)},{kind},{src},{'' if dst is None else dst},{outcome}")
        return "\n".join(lines) + "\n"

    def total_measurements(self) -> int:
        return sum(r.n_meas for r in self.records)


# An LS agent's belief: its position estimate, shared with unit position
# covariance, since the LS baseline tracks no uncertainty.
LS_COV = np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
LS_COV.setflags(write=False)


class _Node:
    def __init__(self, nid, is_anchor, traj, clock, belief):
        self.nid = nid
        self.is_anchor = is_anchor
        self.traj = traj
        self.clock = clock
        self.belief = belief
        self.table = NeighborTable()
        self.session: RangingSession | None = None
        # epoch bookkeeping (agents only)
        self.period = 0.0
        self.epoch_t0 = 0.0
        self.in_hold = False
        self.csma_attempt = 0
        self.exchange_queue: deque = deque()
        self.static_pos = traj.waypoints[0][0] if len(traj.waypoints) == 1 else None
        self.piece = None  # the _trajectory_piece of the last position asked
        self.timer_pending = False  # a _session_timeout event is queued
        self._summary = None  # (belief, its StateSummary)
        self.collected: dict = {}
        # This epoch's links, (neighbor id, u, xi, neighbor position cov), as
        # prioritization saw them, and their AllocationProblem once built.
        self.links: list = []
        self.problem = None
        self.proposal = None
        self.warm_alloc: dict = {}

    def summary(self) -> StateSummary:
        # Beliefs are immutable (read-only arrays), so every message sent
        # under one belief carries one summary, and receivers share its arrays.
        belief = self.belief
        memo = self._summary
        if memo is None or memo[0] is not belief:
            memo = self._summary = (belief, StateSummary(belief.mean[:3], belief.covariance))
        return memo[1]

    def busy_for_ranging(self) -> bool:
        return (self.session is not None and self.session.active) or self.in_hold


class Simulation:
    """One scenario execution. All state is owned by the single event loop."""

    def __init__(self, scenario: ScenarioConfig, seed: int | None = None,
                 collect_trace: bool = False):
        if seed is not None:  # the override obeys the scenario's seed rule
            scenario = replace(scenario, seed=seed)
        self.scenario = scenario
        self.seed = scenario.seed
        self.par = scenario.parameters
        self.collect_trace = collect_trace
        self.rng = np.random.default_rng(self.seed)
        self.motion = MotionModel(SIGMA_X2, SIGMA_Y2, SIGMA_Z2)
        self.duration = scenario.duration_s
        self.now = 0.0
        self._seq = itertools.count()
        self._queue: list = []
        self.channel = ChannelState()
        self._msg_air = self.par.msg_air_s
        self._channel_horizon = max(self._msg_air, protocol.CHIRP_AIR_S)
        self.records: list[RunRecord] = []
        self.link_counts: dict = {}
        self.trace: list | None = [] if collect_trace else None
        self.counters = {
            "transmissions": 0,
            "delivered": 0,
            "collided": 0,
            "out-of-range": 0,
            "subnet_violations": 0,
            "failed_exchanges": 0,
        }
        self._link_excess: dict = {}
        # Carrier sense: node id -> token of its open sense window; a window
        # whose token is gone was closed busy.
        self._sensing: dict = {}
        self._comm_range = scenario.link_truth.comm_range_m
        self._blocked = frozenset(link_key(*p) for p in scenario.link_truth.blocked_pairs)
        self._nlos_pairs = frozenset(link_key(*p) for p in scenario.link_truth.nlos_pairs)
        self._nlos_cross_z = scenario.link_truth.nlos_cross_z
        self._any_nlos = bool(self._nlos_pairs) or self._nlos_cross_z is not None
        self._build_nodes()
        self._ordered = [self.nodes[nid] for nid in sorted(self.nodes)]
        self._links = self._fixed_links()
        self._fanouts = self._clear_fanouts()
        # Positions at the last frame end, read only for undecided links: the
        # moving nodes that have one are refreshed at every frame end.
        self._frame_pos = {n.nid: n.static_pos for n in self._ordered}
        self._undecided_movers = [
            n for n in self._ordered
            if n.static_pos is None and None in self._links[n.nid].values()
        ]

    # -- construction --------------------------------------------------------

    def _build_nodes(self):
        self.nodes: dict[int, _Node] = {}
        par = self.par
        for a in self.scenario.anchors:
            traj = Trajectory(((a.position, 0.0, 0.0),))
            node = _Node(a.id, True, traj, self._draw_clock(), anchor_belief(a.position))
            self.nodes[a.id] = node
        for a in self.scenario.agents:
            wps = [(a.initial_position, 0.0, 0.0)]
            for w in a.trajectory:
                wps.append((w.position, w.arrival_s, w.dwell_s))
            if a.trajectory and a.trajectory[0].arrival_s == 0.0:
                wps = wps[1:]
            traj = Trajectory(tuple(wps))
            mean = np.array(
                a.belief_mean if a.belief_mean is not None else DEFAULT_BELIEF_MEAN,
                dtype=float,
            )
            if self.scenario.algorithms.inference == "LS":
                cov = LS_COV
            else:
                ps = POS_SIGMA if a.pos_sigma is None else a.pos_sigma
                vs = VEL_SIGMA if a.vel_sigma is None else a.vel_sigma
                cov = np.diag([ps * ps] * 3 + [vs * vs] * 3)
            node = _Node(a.id, False, traj, self._draw_clock(), GaussianBelief(mean, cov))
            self.nodes[a.id] = node
        # epoch periods and initial events, in sorted id order for determinism
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            if not node.is_anchor:
                jitter = par.epoch_jitter * self.rng.uniform(-1.0, 1.0)
                node.period = par.epoch_period_s * (1.0 + jitter)
                self._schedule(0.0, self._epoch, node)
        for nid in sorted(self.nodes):
            node = self.nodes[nid]
            first = chirp_scheduler(self.rng, par.chirp_mean_interval_s)
            if first < self.duration:
                self._schedule(first, self._chirp, node)

    def _fixed_links(self) -> dict:
        """The fixed-link table: node id -> {other node id: heard}, each row
        in id order. heard is `hears` wherever the run cannot change it:
        False for a blocked pair; for two static nodes, `hears` at their
        positions; True for a pair with a mover whose farthest waypoints are
        within the range less FIXED_LINK_MARGIN_M. Distance is convex, so no
        two points of the two waypoint hulls lie farther apart than their
        farthest vertices; the margin covers the rounding of interpolated
        positions. Every other pair is None, decided at each use."""
        comm_range, blocked = self._comm_range, self._blocked
        reach = comm_range - FIXED_LINK_MARGIN_M
        links = {n.nid: {} for n in self._ordered}
        for i, a in enumerate(self._ordered):
            for b in self._ordered[i + 1:]:
                if link_key(a.nid, b.nid) in blocked:
                    heard = False
                elif a.static_pos is not None and b.static_pos is not None:
                    dist = _dist(a.static_pos, b.static_pos)
                    heard = hears(a.nid, b.nid, dist, comm_range, blocked)
                elif all(_dist(p, q) <= reach for p, _a, _d in a.traj.waypoints
                         for q, _a, _d in b.traj.waypoints):
                    heard = True
                else:
                    heard = None
                links[a.nid][b.nid] = links[b.nid][a.nid] = heard
        return links

    def _clear_fanouts(self) -> dict:
        """Sender id -> _FanOut, for each sender whose fixed-link row is
        fully decided: a frame of it that overlaps no other frame settles
        from this alone (see `arbitrate`). A row with an undecided link gets
        none, since its outcome depends on positions."""
        fanouts = {}
        for src, row in self._links.items():
            if None in row.values():
                continue
            fanouts[src] = self._fan_out(MappingProxyType(
                {nid: "delivered" if heard else "out-of-range" for nid, heard in row.items()}))
        return fanouts

    def _fan_out(self, outcomes: Mapping) -> _FanOut:
        """The settle of a frame with these outcomes: its delivered nodes, the
        delivered agents each with its index among them (and so in the
        frame's gains), and an id -> node map of the delivered nodes."""
        nodes = self.nodes
        delivered = []
        collided = 0
        for nid, outcome in outcomes.items():
            if outcome == "delivered":
                delivered.append(nodes[nid])
            elif outcome == "collided":
                collided += 1
        agents = tuple((i, node) for i, node in enumerate(delivered) if not node.is_anchor)
        return _FanOut(outcomes, tuple(delivered), collided,
                       len(outcomes) - len(delivered) - collided, agents,
                       MappingProxyType({node.nid: node for node in delivered}))

    def _hears_now(self, a: _Node, b: int, b_pos: tuple, t: float) -> bool:
        """Whether node a hears node b, at b_pos, at time t: the fixed entry
        where the run decided it, else `hears` at a's position at t."""
        heard = self._links[a.nid][b]
        if heard is None:
            dist = _dist(self._position(a, t), b_pos)
            heard = hears(a.nid, b, dist, self._comm_range, self._blocked)
        return heard

    def _draw_clock(self) -> ClockModel:
        offset = float(self.rng.uniform(0.0, self.par.clock_offset_max_s))
        drift = float(self.rng.uniform(-self.par.clock_drift_ppm, self.par.clock_drift_ppm))
        return ClockModel(offset=offset, drift_ppm=drift)

    # -- infrastructure ------------------------------------------------------

    def _schedule(self, t: float, fn, *args) -> None:
        """Call fn(*args) at time t; events at one time run in scheduling
        order, since the sequence number breaks every tie."""
        heapq.heappush(self._queue, (t, next(self._seq), fn, args))

    def _position(self, node: _Node, t: float) -> tuple:
        """mobility_position(node.traj, t), from the node's cached piece of its
        trajectory while t stays inside it."""
        if node.static_pos is not None:
            return node.static_pos
        piece = node.piece
        if piece is None or not piece[0] < t <= piece[1]:
            piece = node.piece = _trajectory_piece(node.traj, t)
        return _piece_position(piece, t)

    def is_nlos(self, a: int, b: int, t: float) -> bool:
        if link_key(a, b) in self._nlos_pairs:
            return True
        boundary = self._nlos_cross_z
        if boundary is not None:
            za = self._position(self.nodes[a], t)[2]
            zb = self._position(self.nodes[b], t)[2]
            if (za - boundary) * (zb - boundary) < 0:
                return True
        return False

    def run(self) -> RunResult:
        grace = self.duration + 1.0
        last = -np.inf
        queue = self._queue
        while queue:
            t, _seq, fn, args = heapq.heappop(queue)
            if t > grace:
                break
            if t < last - 1e-12:
                raise SimulationError("event times must be nondecreasing")
            last = t
            self.now = t
            fn(*args)
        return RunResult(
            scenario=self.scenario.name,
            seed=self.seed,
            duration_s=self.duration,
            records=self.records,
            link_counts=dict(sorted(self.link_counts.items())),
            counters=dict(self.counters),
            trace=self.trace,
        )

    # -- channel -------------------------------------------------------------

    def _transmit(self, node: _Node, msg: Message, air: float):
        start = self.now
        msg.tx_ts = node.clock.ticks(start)
        pos = node.static_pos or self._position(node, start)  # a 3-tuple if static
        tx = Transmission(node.nid, start, start + air, pos, msg)
        # A frame still in the air started at or after start - horizon, so a
        # frame that ended by then overlaps no live or later frame and no sense
        # window: pruning from the front of the start-ordered frames is enough.
        channel = self.channel
        channel.prune(start, self._channel_horizon)
        channel.add(tx)
        self.counters["transmissions"] += 1
        # sensing nodes that hear the sender find the channel busy, in id order
        sensing = self._sensing
        for nid in self._links[node.nid] if sensing else ():
            if nid in sensing:
                agent = self.nodes[nid]
                if self._hears_now(agent, node.nid, tx.src_pos, start):
                    del sensing[nid]
                    self._sense_busy(agent)
        self._schedule(tx.end, self._tx_end, tx)
        return tx

    def _tx_end(self, tx: Transmission):
        end = tx.end
        msg = tx.msg
        positions = self._frame_pos
        for other in self._undecided_movers:
            positions[other.nid] = self._position(other, end)
        fan = self._fanouts.get(tx.src)
        outcomes = arbitrate(self.channel, tx, self._links, positions, self._comm_range,
                             self._blocked, None if fan is None else fan.outcomes)
        trace = self.trace
        if trace is not None:
            for nid, outcome in outcomes.items():
                trace.append((end, msg.kind.value, tx.src, msg.dst, f"{outcome}@{nid}"))
        if fan is None or outcomes is not fan.outcomes:  # contested, or an undecided row
            fan = self._fan_out(outcomes)
        n_delivered = len(fan.delivered)
        counters = self.counters
        counters["delivered"] += n_delivered
        counters["collided"] += fan.collided
        counters["out-of-range"] += fan.out_of_range
        if not n_delivered:
            return
        # Channel sounding draws one lognormal gain per delivery, in receiver
        # order. Deliveries draw nothing else from the generator, so one batch
        # yields the same stream as one draw per delivery.
        sigma = self.par.erc_noise_sigma
        if sigma > 0:
            gains = np.exp(self.rng.normal(0.0, sigma, size=n_delivered)).tolist()
        else:
            gains = [1.0] * n_delivered
        # Anchors never run epochs, so nothing reads their neighbor tables:
        # an anchor's delivery only takes its gain.
        any_nlos = self._any_nlos
        for i, node in fan.agents:
            xi = erc_estimate(any_nlos and self.is_nlos(node.nid, tx.src, end), gains[i])
            neighbor_update(node.table, msg, end, xi=xi)
        # Only the addressee of a unicast frame receives it (chirps have dst
        # None). Neither a table update nor a reception draws from the
        # generator or reads what the other changes, so the order is free.
        node = fan.by_id.get(msg.dst)
        if node is not None:
            pos = node.static_pos or self._position(node, end)  # a 3-tuple if static
            self._receive(node, tx, _dist(pos, tx.src_pos))

    def _receive(self, node: _Node, tx: Transmission, dist: float):
        """A unicast frame addressed to `node`, `dist` from its sender, arrived
        intact. Only the addressee reads the receive timestamp, so it is
        stamped in place. The session's reply leaves TURNAROUND_S later; an
        initiator's session that the report ends records its range."""
        msg = tx.msg
        excess = self._link_excess.get(link_key(node.nid, tx.src), 0.0)
        msg.rx_ts = node.clock.ticks(tx.start + (dist + excess) / protocol.SPEED_OF_LIGHT)
        session = node.session
        if session is None:
            if msg.kind is not MsgKind.RANGING_INIT or node.in_hold:
                return
            session = node.session = RangingSession(initiator=msg.src, responder=node.nid)
        reply = ranging_fsm_step(session, msg, node.nid)
        if reply is not None:
            self._schedule(self.now + protocol.TURNAROUND_S,
                           self._send_session_message, node, reply)
        elif session.phase is Phase.FAILED:  # a garbled final; DONE still sends its report
            node.session = None
        elif session.phase is Phase.DONE and session.initiator == node.nid:
            node.collected.setdefault(session.responder, []).append(msg.range_m)
            node.session = None
            self._schedule(self.now + protocol.EXCHANGE_GAP_S, self._next_exchange, node)

    def _send_session_message(self, node: _Node, msg: Message):
        session = node.session
        if session is None:
            return
        report = msg.kind is MsgKind.RANGING_REPORT
        if report:
            # Ranging noise is applied once, at the responder's computation,
            # so both parties share the identical measured value.
            msg.range_m += float(self.rng.normal(0.0, self.par.los_sigma_m))
        msg.payload = node.summary()
        self._transmit(node, msg, self._msg_air)
        if not report:
            self._arm_timeout(node, session)
        elif session.phase is Phase.DONE:
            node.session = None

    def _arm_timeout(self, node: _Node, session: RangingSession):
        """Fail `session` RANGING_TIMEOUT_S from now; a later send of it re-arms.
        A node has at most one timer event queued: arming only moves the
        deadline while one is pending, and the timer checks it when it pops."""
        session.deadline = self.now + protocol.RANGING_TIMEOUT_S
        if not node.timer_pending:
            node.timer_pending = True
            self._schedule(session.deadline, self._session_timeout, node)

    def _session_timeout(self, node: _Node):
        session = node.session
        if session is None or not session.active or session.deadline is None:
            node.timer_pending = False  # nothing awaits a reply; a send re-arms
            return
        if session.deadline > self.now:  # re-armed since this event was queued
            self._schedule(session.deadline, self._session_timeout, node)
            return
        node.timer_pending = False
        ranging_fsm_step(session, TIMEOUT, node.nid)
        node.session = None
        self.counters["failed_exchanges"] += 1
        if node.in_hold:
            # drop remaining repeats with the unresponsive neighbor
            node.exchange_queue = deque(
                x for x in node.exchange_queue if x != session.responder
            )
            self._schedule(self.now + protocol.EXCHANGE_GAP_S, self._next_exchange, node)

    # -- chirps --------------------------------------------------------------

    def _chirp(self, node: _Node):
        if node.busy_for_ranging():
            nxt = self.now + 0.1 * self.par.chirp_mean_interval_s
        else:
            msg = Message(
                kind=MsgKind.CHIRP, src=node.nid, dst=None,
                payload=node.summary(),
            )
            self._transmit(node, msg, protocol.CHIRP_AIR_S)
            nxt = self.now + chirp_scheduler(self.rng, self.par.chirp_mean_interval_s)
        if nxt < self.duration:
            self._schedule(nxt, self._chirp, node)

    # -- inference epochs ----------------------------------------------------

    def _epoch(self, agent: _Node):
        t0 = self.now
        if t0 >= self.duration:
            return
        dt = t0 - agent.epoch_t0
        agent.epoch_t0 = t0
        agent.csma_attempt = 0
        agent.collected = {}
        agent.exchange_queue = deque()
        if self.scenario.algorithms.inference == "SPBP":
            agent.belief = predict_belief(agent.belief, self.motion, dt)
        agent.table.purge(t0, protocol.NEIGHBOR_EXPIRY_S)
        agent.problem = None
        agent.proposal = proposal = self._prioritize(agent)
        if proposal is None or proposal.total == 0:
            self._finalize(agent)
            return
        activation = self.scenario.algorithms.activation
        if activation == "ALOHA":
            delay = protocol.aloha_delay(self.rng)
            self._schedule(t0 + delay, self._begin_hold, agent)
        elif activation == "CSMA":
            self._start_sense(agent, protocol.CSMA_SENSE_S)
        else:  # HTNA
            self._start_sense(agent, protocol.htna_sense_window(self.par.t_m_s, self.rng))

    def _eligible_neighbors(self, agent: _Node) -> list:
        out = []
        for nid in agent.table.neighbors():
            if not self.par.allow_agent_measurements and not self.nodes[nid].is_anchor:
                continue
            out.append(nid)
        return out

    def _prioritize(self, agent: _Node):
        """Snapshot the agent's links into agent.links and propose how many
        measurements to make on each, or return None if it has no link.
        CPNP builds the AllocationProblem here; under uniform prioritization
        only _htna_gate reads one, so it builds it from the snapshot."""
        mu_p = agent.belief.mean[:3]
        links = agent.links = []
        for nid in self._eligible_neighbors(agent):
            entry = agent.table.entries[nid]
            try:
                u = operation.unit_direction(mu_p, entry.mu_p)
            except DegenerateGeometryError:
                continue
            # The entry's arrays are read-only and never change, so the
            # snapshot holds what a later neighbor update replaces.
            links.append((nid, u, entry.xi, entry.cov[:3, :3]))
        if not links:
            return None
        if self.scenario.algorithms.prioritization == "UNIFORM":
            pick = int(self.rng.integers(len(links)))
            m = np.zeros(len(links), dtype=int)
            m[pick] = M_PER_NEIGHBOR
            return operation.AllocationResult(m, None)  # see _htna_gate
        problem = agent.problem = self._allocation_problem(agent, self.par.budget)
        warm = np.array(
            [agent.warm_alloc.get(l[0], self.par.budget / len(links)) for l in links]
        )
        result = operation.cpnp_allocate(problem, warm_start=warm)
        agent.warm_alloc = {
            l[0]: float(v) for l, v in zip(links, result.relaxed_m)
        }
        return result

    @staticmethod
    def _allocation_problem(agent: _Node, budget: int) -> operation.AllocationProblem:
        """The AllocationProblem of the agent's snapshot links. Its own
        covariance is the belief's: an epoch changes the belief only at its
        start and at _finalize. LinkInfo copies the snapshot's arrays and
        AllocationProblem symmetrizes the covariance into a new one."""
        links = tuple(operation.LinkInfo(*link) for link in agent.links)
        return operation.AllocationProblem(agent.belief.covariance[:3, :3], links, budget)

    def _start_sense(self, agent: _Node, window: float):
        """Open a sense window of the agent: busy at once if it hears a frame
        already in the air, else busy at the first frame that it hears
        starting (see `_transmit`), else idle when the window ends."""
        now = self.now
        for tx in self.channel.recent:  # a frame already in the air
            if tx.src == agent.nid or not tx.start <= now < tx.end:
                continue
            if self._hears_now(agent, tx.src, tx.src_pos, now):
                self._sense_busy(agent)
                return
        token = self._sensing[agent.nid] = object()
        self._schedule(now + window, self._sense_complete, agent, token)

    def _sense_busy(self, agent: _Node):
        """CSMA backs off and senses again, until its attempts run out; HTNA
        skips the epoch."""
        if self.scenario.algorithms.activation == "CSMA":
            delay = protocol.csma_backoff(agent.csma_attempt, self.rng)
            agent.csma_attempt += 1
            if delay is not None:
                self._schedule(self.now + delay, self._start_sense, agent, protocol.CSMA_SENSE_S)
                return
        self._finalize(agent)

    def _sense_complete(self, agent: _Node, token):
        """The window of `token` ends idle, unless it was closed busy."""
        if self._sensing.get(agent.nid) is not token:
            return
        del self._sensing[agent.nid]
        if self.scenario.algorithms.activation == "CSMA":
            self._begin_hold(agent)
        else:  # HTNA
            self._htna_gate(agent)

    def _htna_gate(self, agent: _Node):
        result = agent.proposal
        if result.objective is None:
            # Only this gate reads the allocation inputs and the predicted
            # trace of a uniform pick.
            agent.problem = self._allocation_problem(agent, M_PER_NEIGHBOR)
            obj = operation.predicted_covariance(agent.problem, result.m).trace()
            result = operation.AllocationResult(result.m, float(obj))
        dt_j = self.par.t_m_s * result.total
        covs = [agent.belief.covariance]
        for nid in agent.table.neighbors():
            if not self.nodes[nid].is_anchor:
                covs.append(agent.table.entries[nid].cov)
        if operation.htna_decide(agent.problem, result, covs, self.motion, dt_j):
            self._begin_hold(agent)
        else:
            self._finalize(agent)

    def _begin_hold(self, agent: _Node):
        if agent.busy_for_ranging():
            # responding to someone else right now; skip this epoch
            self._finalize(agent)
            return
        now, nodes = self.now, self.nodes
        for nid in self._links[agent.nid]:  # agent itself is not holding
            other = nodes[nid]
            if other.in_hold and self._hears_now(agent, nid, self._position(other, now), now):
                self.counters["subnet_violations"] += 1
                break
        agent.in_hold = True
        queue = deque()
        for link, m in zip(agent.links, agent.proposal.m):
            for _ in range(int(m)):
                queue.append(link[0])
        agent.exchange_queue = queue
        self._next_exchange(agent)

    def _next_exchange(self, agent: _Node):
        if not agent.exchange_queue:
            self._finalize(agent)
            return
        nbr = agent.exchange_queue.popleft()
        pair = link_key(agent.nid, nbr)
        if self.is_nlos(agent.nid, nbr, self.now):
            self._link_excess[pair] = float(
                self.rng.exponential(NLOS_BIAS_MEAN_M)
            )
        else:
            self._link_excess[pair] = 0.0
        agent.session = RangingSession(initiator=agent.nid, responder=nbr)
        self._schedule(self.now + protocol.TURNAROUND_S, self._send_session_message,
                       agent, begin_ranging(agent.session))

    def _finalize(self, agent: _Node):
        activated = agent.in_hold
        agent.in_hold = False
        entries = []
        n_meas = 0
        for nbr in sorted(agent.collected):
            # The table is purged only at the start of an epoch, so every
            # neighbor prioritized then still has its entry.
            ranges = agent.collected[nbr]
            e = agent.table.entries[nbr]
            count = len(ranges)
            entries.append(
                inference.MeasurementEntry(
                    neighbor=nbr,
                    z=float(np.add.reduce(np.array(ranges)) / count),  # np.mean's sum
                    variance=measurement_variance(count, e.xi),
                    mu_p=e.mu_p,
                    c_p=e.cov[:3, :3],
                )
            )
            key = (agent.nid, nbr)
            self.link_counts[key] = self.link_counts.get(key, 0) + count
            n_meas += count
        if self.scenario.algorithms.inference == "SPBP":
            if entries:
                agent.belief = inference.spbp_update(
                    agent.belief, inference.MeasurementBatch(tuple(entries))
                )
            cov_trace = float(agent.belief.covariance[:3, :3].trace())
        else:
            if entries:
                try:
                    p = inference.ls_estimate(
                        agent.belief.mean[:3], inference.MeasurementBatch(tuple(entries))
                    )
                except EstimationFailureError:
                    pass  # divergence: keep the previous estimate
                else:
                    agent.belief = GaussianBelief(
                        np.concatenate([p, agent.belief.mean[3:]]), LS_COV
                    )
            cov_trace = float("nan")
        truth = self._position(agent, agent.epoch_t0)
        self.records.append(
            RunRecord(
                time_s=agent.epoch_t0,
                node_id=agent.nid,
                true_pos=np.array(truth),
                est_pos=np.array(agent.belief.mean[:3]),
                cov_trace=cov_trace,
                n_meas=n_meas,
                activated=1 if activated else 0,
                policy=self.scenario.algorithms.activation,
            )
        )
        nxt = max(agent.epoch_t0 + agent.period, self.now)
        if nxt < self.duration:
            self._schedule(nxt, self._epoch, agent)


def run(scenario: ScenarioConfig, seed: int | None = None,
        collect_trace: bool = False) -> RunResult:
    """Execute one simulation; identical (scenario, seed) gives identical output."""
    return Simulation(scenario, seed=seed, collect_trace=collect_trace).run()
