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
    frozen,
    measurement_variance,
    predict_belief,
)
from .protocol import (
    ClockModel,
    Message,
    MsgKind,
    RangingSession,
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


def _trajectory_piece(wps: tuple, t: float) -> tuple:
    """The piece of a waypoint trajectory, ((x, y, z), arrival_s, dwell_s)
    float tuples, that holds time t, as (lo, hi, p0, start, span, delta): for
    every time s with lo < s <= hi the position is p0 + (s - start) / span *
    delta, or p0 itself where delta is None (before the first waypoint, at a
    dwell, after the last waypoint)."""
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


def arbitrate(channel: deque, frame: Message, receivers, heard,
              clear=None) -> Mapping:
    """Per-receiver outcome of a finished frame, among the channel's frames.

    receivers are the node ids that may receive it, in order (the sender's
    row of the fixed-link table). heard(nid, src, src_pos) is whether node
    nid hears the frame of node src sent from src_pos, at the frame's end.
    Returns node id -> outcome. A reception succeeds iff the receiver hears
    the sender and no other overlapping frame that it hears. Radios are half
    duplex: a receiver's own overlapping frame always collides.

    clear, if given, is the sender's clear-frame outcome map: its fully
    decided row, with "delivered" where heard and "out-of-range" elsewhere.
    With no overlapping frame the rule reduces to exactly that, and the map
    itself (the same object) is returned, so a caller can tell.
    """
    start, end = frame.start, frame.end
    overlaps = [f for f in channel if f is not frame and f.start < end and f.end > start]
    if clear is not None and not overlaps:
        return clear
    src, src_pos = frame.src, frame.src_pos
    out = {}
    for nid in receivers:
        if not heard(nid, src, src_pos):
            out[nid] = "out-of-range"
            continue
        outcome = "delivered"
        for o in overlaps:
            if o.src == nid or heard(nid, o.src, o.src_pos):
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
LS_COV = frozen(np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))


class _Node:
    def __init__(self, nid, is_anchor, waypoints, clock, belief):
        self.nid = nid
        self.is_anchor = is_anchor
        self.waypoints = waypoints  # ((x, y, z), arrival_s, dwell_s) float tuples
        self.clock = clock
        self.belief = belief
        self.table: dict = {}  # neighbor id -> protocol.NeighborEntry
        self.session: RangingSession | None = None
        # epoch bookkeeping (agents only)
        self.period = 0.0
        self.epoch_t0 = 0.0
        self.in_hold = False
        self.csma_attempt = 0
        self.exchange_queue: deque = deque()
        self.static_pos = waypoints[0][0] if len(waypoints) == 1 else None
        self.piece = None  # the _trajectory_piece of the last position asked
        self.timer_pending = False  # a _session_timeout event is queued
        self.collected: dict = {}
        # This epoch's links as prioritization saw them: (neighbor id, u, xi, its position cov).
        self.links: list = []
        self.proposal = None
        self.warm_alloc: dict = {}

    def busy_for_ranging(self) -> bool:
        return (self.session is not None and self.session.awaits is not None) or self.in_hold


class Simulation:
    """One scenario execution. All state is owned by the single event loop."""

    def __init__(self, scenario: ScenarioConfig, seed: int | None = None,
                 collect_trace: bool = False):
        if seed is not None:  # the override obeys the scenario's seed rule
            scenario = replace(scenario, seed=seed)
        self.scenario = scenario
        self.seed = scenario.seed
        self.par = scenario.parameters
        self.rng = np.random.default_rng(self.seed)
        self.motion = MotionModel(SIGMA_X2, SIGMA_Y2, SIGMA_Z2)
        self.duration = scenario.duration_s
        self.now = 0.0
        self._seq = itertools.count()
        self._queue: list = []
        self.channel: deque[Message] = deque()  # recent frames, in start order
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

    # -- construction --------------------------------------------------------

    def _build_nodes(self):
        self.nodes: dict[int, _Node] = {}
        par = self.par
        for a in self.scenario.anchors:
            wps = ((a.position, 0.0, 0.0),)
            node = _Node(a.id, True, wps, self._draw_clock(), anchor_belief(a.position))
            self.nodes[a.id] = node
        for a in self.scenario.agents:
            wps = [(a.initial_position, 0.0, 0.0)]
            for w in a.trajectory:
                wps.append((w.position, w.arrival_s, w.dwell_s))
            if a.trajectory and a.trajectory[0].arrival_s == 0.0:
                wps = wps[1:]
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
            node = _Node(a.id, False, tuple(wps), self._draw_clock(), GaussianBelief(mean, cov))
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
                elif all(_dist(p, q) <= reach for p, _a, _d in a.waypoints
                         for q, _a, _d in b.waypoints):
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
        """The settle of a frame with these outcomes: its delivered nodes and
        the delivered agents each with its index among them (and so in the
        frame's gains)."""
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
                       len(outcomes) - len(delivered) - collided, agents)

    def _hears_now(self, a: int, b: int, b_pos: tuple) -> bool:
        """Whether node a hears node b, at b_pos, now: the fixed entry where
        the run decided it, else `hears` at a's position now."""
        heard = self._links[a][b]
        if heard is None:
            dist = _dist(self._position(self.nodes[a], self.now), b_pos)
            heard = hears(a, b, dist, self._comm_range, self._blocked)
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
        """The node's position at time t along its waypoints, from its cached
        trajectory piece while t stays inside it."""
        if node.static_pos is not None:
            return node.static_pos
        piece = node.piece
        if piece is None or not piece[0] < t <= piece[1]:
            piece = node.piece = _trajectory_piece(node.waypoints, t)
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
        """Put msg on the air now: the one place a frame leaves a node."""
        start = msg.start = self.now
        msg.end = start + air
        msg.tx_ts = node.clock.ticks(start)
        msg.payload = node.belief  # immutable, so receivers share it as sent
        msg.src_pos = self._position(node, start)
        # A frame still in the air started at or after start - horizon, so a
        # frame that ended by then overlaps no live or later frame and no sense
        # window: pruning from the front of the start-ordered frames is enough.
        channel = self.channel
        cutoff = start - self._channel_horizon
        while channel and channel[0].end <= cutoff:
            channel.popleft()
        channel.append(msg)
        self.counters["transmissions"] += 1
        # sensing nodes that hear the sender find the channel busy, in id order
        sensing = self._sensing
        for nid in self._links[node.nid] if sensing else ():
            if nid in sensing and self._hears_now(nid, node.nid, msg.src_pos):
                del sensing[nid]
                self._sense_busy(self.nodes[nid])
        self._schedule(msg.end, self._tx_end, msg)

    def _tx_end(self, msg: Message):
        end, src = msg.end, msg.src
        fan = self._fanouts.get(src)
        outcomes = arbitrate(self.channel, msg, self._links[src], self._hears_now,
                             None if fan is None else fan.outcomes)
        trace = self.trace
        if trace is not None:
            for nid, outcome in outcomes.items():
                trace.append((end, msg.kind.value, src, msg.dst, f"{outcome}@{nid}"))
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
            xi = erc_estimate(any_nlos and self.is_nlos(node.nid, src, end), gains[i])
            neighbor_update(node.table, msg, end, xi=xi)
        # Only the addressee of a unicast frame receives it (chirps have dst
        # None). Neither a table update nor a reception draws from the
        # generator or reads what the other changes, so the order is free.
        if fan.outcomes.get(msg.dst) == "delivered":
            self._receive(self.nodes[msg.dst], msg)

    def _receive(self, node: _Node, msg: Message):
        """A unicast frame addressed to `node` arrived intact now. Only the
        addressee reads the receive timestamp, so it is stamped in place. The
        session's reply leaves TURNAROUND_S later; a frame that ends the
        exchange unanswered clears the session, and the initiator's report
        records its range."""
        dist = _dist(self._position(node, self.now), msg.src_pos)
        excess = self._link_excess.get(link_key(node.nid, msg.src), 0.0)
        msg.rx_ts = node.clock.ticks(msg.start + (dist + excess) / protocol.SPEED_OF_LIGHT)
        session = node.session
        if session is None:
            if msg.kind is not MsgKind.RANGING_INIT or node.in_hold:
                return
            session = node.session = RangingSession(initiator=msg.src, responder=node.nid)
        awaited = session.awaits
        reply = ranging_fsm_step(session, msg, node.nid)
        if reply is not None:
            self._schedule(self.now + protocol.TURNAROUND_S,
                           self._send_session_message, node, reply)
        elif awaited is not None and session.awaits is None:
            node.session = None
            if session.initiator == node.nid:
                node.collected.setdefault(session.responder, []).append(msg.range_m)
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
        self._transmit(node, msg, self._msg_air)
        if not report:
            self._arm_timeout(node, session)
        elif session.awaits is None:  # the node has begun no exchange since
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
        if session is None or session.awaits is None or session.deadline is None:
            node.timer_pending = False  # nothing awaits a reply; a send re-arms
            return
        if session.deadline > self.now:  # re-armed since this event was queued
            self._schedule(session.deadline, self._session_timeout, node)
            return
        node.timer_pending = False
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
            self._transmit(node, Message(MsgKind.CHIRP, node.nid, None), protocol.CHIRP_AIR_S)
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
        if self.scenario.algorithms.inference == "SPBP":
            agent.belief = predict_belief(agent.belief, self.motion, dt)
        protocol.purge_neighbors(agent.table, t0, protocol.NEIGHBOR_EXPIRY_S)
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

    def _prioritize(self, agent: _Node):
        """Snapshot the agent's links into agent.links and propose how many
        measurements to make on each, or return None if it has no link.
        CPNP builds the AllocationProblem here; under uniform prioritization
        only _htna_gate reads one, so it builds it from the snapshot."""
        mu_p = agent.belief.mean[:3]
        links = agent.links = []
        for nid in sorted(agent.table):
            if not self.par.allow_agent_measurements and not self.nodes[nid].is_anchor:
                continue
            entry = agent.table[nid]
            try:
                u = operation.unit_direction(mu_p, entry.belief.mean[:3])
            except DegenerateGeometryError:
                continue
            # Beliefs are immutable, so the snapshot holds what a later
            # neighbor update replaces.
            links.append((nid, u, entry.xi, entry.belief.covariance[:3, :3]))
        if not links:
            return None
        if self.scenario.algorithms.prioritization == "UNIFORM":
            pick = int(self.rng.integers(len(links)))
            m = np.zeros(len(links), dtype=int)
            m[pick] = M_PER_NEIGHBOR
            return operation.AllocationResult(m, None)  # see _htna_gate
        problem = self._allocation_problem(agent, self.par.budget)
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
        for frame in self.channel:  # a frame already in the air
            if frame.src == agent.nid or not frame.start <= now < frame.end:
                continue
            if self._hears_now(agent.nid, frame.src, frame.src_pos):
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
        proposal = agent.proposal
        objective = proposal.objective
        if objective is None:  # only this gate reads a uniform pick's problem and trace
            problem = self._allocation_problem(agent, M_PER_NEIGHBOR)
            objective = operation.predicted_covariance(problem, proposal.m).trace()
        own = agent.belief.covariance
        reduction = float(own[:3, :3].trace() - objective)
        covs = [own]
        for nid in sorted(agent.table):
            if not self.nodes[nid].is_anchor:
                covs.append(agent.table[nid].belief.covariance)
        dt_j = self.par.t_m_s * proposal.total
        if operation.htna_decide(reduction, covs, self.motion, dt_j):
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
            if other.in_hold and self._hears_now(agent.nid, nid, self._position(other, now)):
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
            e = agent.table[nbr]
            count = len(ranges)
            entries.append(
                inference.MeasurementEntry(
                    neighbor=nbr,
                    z=float(np.add.reduce(np.array(ranges)) / count),  # np.mean's sum
                    variance=measurement_variance(count, e.xi),
                    mu_p=e.belief.mean[:3],
                    c_p=e.belief.covariance[:3, :3],
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
