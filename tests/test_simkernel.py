"""Tests for the discrete-event simulation kernel: mobility, channel
arbitration and sensing, determinism, and end-to-end estimation sanity."""

import dataclasses
import inspect
import math
import random
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopnav import inference, operation, protocol, simkernel
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
)
from coopnav.errors import (
    ConfigError,
    DegenerateGeometryError,
    EstimationFailureError,
    RangingError,
    SimulationError,
)
from coopnav.operation import AllocationProblem, AllocationResult, LinkInfo
from coopnav.protocol import (
    CHIRP_AIR_S,
    CSMA_MAX_ATTEMPTS,
    CSMA_SENSE_S,
    RANGING_TIMEOUT_S,
    TURNAROUND_S,
    Message,
    MsgKind,
)
from coopnav.simkernel import (
    LS_COV,
    RunRecord,
    Simulation,
    arbitrate,
    hears,
    link_key,
    record_row,
    run,
)
from oracles import is_psd, mobility_position
from test_golden import SHORT_RANGE, SHORT_RANGE_M

ANCHORS = (
    AnchorSpec(1, (0.0, 0.0, 2.5), "A1"),
    AnchorSpec(2, (12.0, 0.0, 0.5), "A2"),
    AnchorSpec(3, (12.0, 8.0, 2.5), "A3"),
    AnchorSpec(4, (0.0, 8.0, 0.5), "A4"),
)


def small_scenario(**over):
    par = over.pop("parameters", Parameters())
    return ScenarioConfig(
        name=over.pop("name", "unit"),
        duration_s=over.pop("duration_s", 5.0),
        anchors=ANCHORS,
        agents=over.pop(
            "agents",
            (AgentSpec(10, (3.0, 3.0, 1.0), belief_mean=(3.5, 3.5, 1.2, 0, 0, 0)),),
        ),
        algorithms=over.pop("algorithms", Algorithms()),
        link_truth=over.pop("link_truth", LinkTruthConfig()),
        parameters=par,
        **over,
    )


class TestMobility:
    TRAJ = (((0.0, 0.0, 0.0), 1.0, 2.0), ((4.0, 0.0, 0.0), 5.0, 0.0))

    def test_before_first_waypoint(self):
        assert np.allclose(mobility_position(self.TRAJ, 0.0), [0, 0, 0])

    def test_dwell_holds_position(self):
        assert np.allclose(mobility_position(self.TRAJ, 2.9), [0, 0, 0])

    def test_linear_interpolation(self):
        # moving from t=3 (end of dwell) to t=5; midpoint at t=4
        assert np.allclose(mobility_position(self.TRAJ, 4.0), [2, 0, 0])

    def test_clamped_after_last(self):
        assert np.allclose(mobility_position(self.TRAJ, 99.0), [4, 0, 0])

    def test_empty_trajectory_rejected(self):
        with pytest.raises(SimulationError):
            mobility_position((), 0.0)


def _scan_position(wps, t):
    """Reference: the position at t by a direct scan of the waypoints."""
    if t <= wps[0][1]:
        return wps[0][0]
    for (p0, a0, d0), (p1, a1, _d1) in zip(wps, wps[1:]):
        if t <= a0 + d0:
            return p0
        if t <= a1:
            frac = (t - (a0 + d0)) / (a1 - (a0 + d0))
            return tuple(p0[i] + frac * (p1[i] - p0[i]) for i in range(3))
    return wps[-1][0]


class TestPositionCache:
    """Simulation._position serves a moving node from the trajectory piece of
    its last query. Asked at any time in any order, it equals
    mobility_position (and the direct scan) bit for bit."""

    @staticmethod
    def bits(pos):
        return tuple(float(c).hex() for c in pos)

    @pytest.mark.parametrize("sim", [
        # multi_floor's agent: six waypoints with dwells, across two floors
        lambda: Simulation(load_scenario(bundled_scenario_path("multi_floor")), seed=0),
        # Dwells and legs with coordinates where p0 + (p1 - p0) != p1 in
        # floating point (the y of the second leg).
        lambda: Simulation(small_scenario(agents=(AgentSpec(10, (4.7, 2.3, 1.1), trajectory=(
            Waypoint((0.1, 0.2, 0.3), 2.0, 1.5),
            Waypoint((1.1, 4.7, 0.3), 4.0, 1.0),
            Waypoint((2.3, 0.1, 0.2), 8.0, 2.0),
        )),)), seed=0),
    ], ids=["multi_floor", "float-legs"])
    def test_matches_mobility_position(self, sim):
        sim = sim()
        node = sim.nodes[10]
        wps = node.waypoints
        rng = random.Random(7)
        times = [-1.0, wps[0][1] - 0.5, wps[-1][1] + wps[-1][2] + 5.0]
        times += [rng.uniform(-1.0, wps[-1][1] + 5.0) for _ in range(300)]
        rng.shuffle(times)
        times.insert(150, times[149])  # the same time twice in a row
        for _p, a, d in wps:
            for b in (a, a + d):
                # each piece end, asked right after a time just past it
                times += [math.nextafter(b, math.inf), b, math.nextafter(b, -math.inf), b]
        for t in times:
            want = self.bits(mobility_position(wps, t))
            assert self.bits(sim._position(node, t)) == want, t
            assert self.bits(_scan_position(wps, t)) == want, t


def _tx(src, start, end, pos):
    """A chirp frame of node src, on the air from start to end, sent from pos."""
    return Message(MsgKind.CHIRP, src, None, start=start, end=end,
                   src_pos=np.asarray(pos, dtype=float))


def _frames_only(scenario, frames, **kw):
    """A Simulation whose queue holds only the given (time, node id, airtime)
    chirp frames, without the epochs and chirps it schedules itself."""
    sim = Simulation(scenario, seed=0, **kw)
    sim._queue.clear()
    for t, nid, air in frames:
        sim._schedule(t, lambda n=sim.nodes[nid], a=air: sim._transmit(
            n, Message(MsgKind.CHIRP, n.nid, None), a))
    return sim


def _links(ids, fixed=None):
    """A fixed-link table over the node ids, every link undecided (None)
    except the {(a, b): heard} entries of `fixed`, in both directions."""
    table = {a: {b: None for b in ids if b != a} for a in ids}
    for (a, b), heard in (fixed or {}).items():
        table[a][b] = table[b][a] = heard
    return table


def _table_rule(links, positions, comm_range, blocked):
    """A `heard` rule for arbitrate: the fixed-link table's entry where it
    decides a link, else `hears` at the receiver's entry of `positions`."""
    def heard(nid, src, src_pos):
        h = links[nid][src]
        if h is None:
            h = hears(nid, src, simkernel._dist(positions[nid], src_pos), comm_range, blocked)
        return h
    return heard


class TestArbitrate:
    """Outcomes from the fixed-link table where it decides a link, and from
    the positions at the frame's end where it does not. A decided link reads
    no position: the positions below hold only what must be read."""

    @staticmethod
    def arbitrate(frames, links, positions, comm_range=10.0, blocked=frozenset(), clear=None):
        """Outcomes of the first of the (src, start, end, position) frames,
        with all of them on the channel, to the sender's row of `links`."""
        txs = [_tx(*f) for f in frames]
        rule = _table_rule(links, positions, comm_range, blocked)
        return arbitrate(deque(txs), txs[0], links.get(txs[0].src, {}), rule, clear)

    def test_delivery_in_range(self):
        out = self.arbitrate([(1, 0.0, 0.001, [0, 0, 0])], _links([1, 2]), {2: (5.0, 0, 0)})
        assert out == {2: "delivered"}

    def test_out_of_range(self):
        out = self.arbitrate([(1, 0.0, 0.001, [0, 0, 0])], _links([1, 2]), {2: (50.0, 0, 0)})
        assert out == {2: "out-of-range"}

    def test_undecided_link_at_range_limit(self):
        # hears: a distance equal to the range is in range.
        frames = [(1, 0.0, 0.001, [0, 0, 0])]
        assert self.arbitrate(frames, _links([1, 2]), {2: (10.0, 0, 0)}) == {2: "delivered"}
        far = {2: (math.nextafter(10.0, math.inf), 0, 0)}
        assert self.arbitrate(frames, _links([1, 2]), far) == {2: "out-of-range"}

    def test_blocked_pair_is_out_of_range(self):
        # The table decides node 3's blocked link and node 2's fixed one
        # without a position (with none given, a read would raise); an
        # undecided link is blocked by `hears`.
        frames = [(1, 0.0, 0.001, [0, 0, 0])]
        links = _links([1, 2, 3], {(1, 2): True, (1, 3): False})
        assert self.arbitrate(frames, links, {}) == {2: "delivered", 3: "out-of-range"}
        out = self.arbitrate(frames, _links([1, 2]), {2: (5.0, 0, 0)}, blocked={link_key(2, 1)})
        assert out == {2: "out-of-range"}

    def test_overlap_collides(self):
        frames = [(1, 0.0, 0.001, [0, 0, 0]), (3, 0.0005, 0.0015, [1.0, 0, 0])]
        out = self.arbitrate(frames, _links([1, 2, 3], {(1, 3): True}), {2: (5.0, 0, 0)})
        assert out == {2: "collided", 3: "collided"}  # 3 is half duplex

    def test_distant_interferer_ignored(self):
        frames = [(1, 0.0, 0.001, [0, 0, 0]), (3, 0.0, 0.001, [100.0, 0, 0])]
        out = self.arbitrate(frames, _links([1, 2, 3], {(1, 3): False}), {2: (5.0, 0, 0)})
        assert out == {2: "delivered", 3: "out-of-range"}

    def test_blocked_interferer_does_not_jam(self):
        frames = [(1, 0.0, 0.001, [0, 0, 0]), (3, 0.0, 0.001, [1.0, 0, 0])]
        fixed = {(1, 2): True, (1, 3): False, (2, 3): False}
        assert self.arbitrate(frames, _links([1, 2, 3], fixed), {}) == {
            2: "delivered", 3: "out-of-range"}

    def test_interferer_decided_through_table(self):
        # The table, not the interferer's distance, decides.
        frames = [(1, 0.0, 0.001, [0, 0, 0]), (3, 0.0, 0.001, [100.0, 0, 0])]
        fixed = {(1, 2): True, (1, 3): False, (2, 3): True}
        assert self.arbitrate(frames, _links([1, 2, 3], fixed), {}) == {
            2: "collided", 3: "out-of-range"}

    def test_sender_not_a_receiver(self):
        # In the row's order; the sender has no entry of its own.
        links = _links([1, 2, 3, 4], {(1, 4): True, (1, 2): False, (1, 3): True})
        out = self.arbitrate([(1, 0.0, 0.001, [0, 0, 0])], links, {})
        assert list(out) == [2, 3, 4]
        links[1] = {4: True, 2: False, 3: True}
        assert list(self.arbitrate([(1, 0.0, 0.001, [0, 0, 0])], links, {})) == [4, 2, 3]

    def test_receivers_own_frame_collides(self):
        # Half duplex: node 2 cannot hear while its own frame is on the air,
        # whatever the table says of it; node 3's link is decided by distance.
        frames = [(1, 0.0, 0.001, [0, 0, 0]), (2, 0.0009, 0.0013, [5.0, 0, 0])]
        links = _links([1, 2, 3], {(1, 2): True, (2, 3): False})
        out = self.arbitrate(frames, links, {3: (0, 50.0, 0)})
        assert out == {2: "collided", 3: "out-of-range"}

    def test_clear_frame_returns_its_fan_out(self):
        # A frame that overlaps nothing settles from the sender's clear map
        # alone: the empty table would raise on any read, and give no
        # receiver. A frame that ends as this one starts does not overlap it.
        clear = {2: "delivered", 3: "out-of-range"}
        for frames in ([(1, 0.0, 0.001, [0, 0, 0])],
                       [(1, 0.001, 0.002, [0, 0, 0]), (2, 0.0, 0.001, [5.0, 0, 0])]):
            assert self.arbitrate(frames, {}, {}, clear=clear) is clear

    def test_overlapped_frame_ignores_clear(self):
        # One overlapping frame that node 2 hears: the per-receiver rule
        # decides, with node 3 half duplex.
        frames = [(1, 0.0, 0.001, [0, 0, 0]), (3, 0.0005, 0.0015, [1.0, 0, 0])]
        links = _links([1, 2, 3], {(1, 2): True, (1, 3): True, (2, 3): True})
        clear = {2: "delivered", 3: "delivered"}
        out = self.arbitrate(frames, links, {}, clear=clear)
        assert out == {2: "collided", 3: "collided"}

    def test_long_frame_keeps_early_interferer(self):
        # A 10 ms frame from anchor 1 overlaps a short frame from anchor 2 at
        # its start. A frame from far-away anchor 3, sent after the short one
        # ended, prunes the channel; the overlap must still count at the end.
        par = dataclasses.replace(Parameters(), msg_air_s=0.01)
        anchors = (
            AnchorSpec(1, (0.0, 0.0, 1.0)),
            AnchorSpec(2, (4.0, 0.0, 1.0)),
            AnchorSpec(3, (200.0, 0.0, 1.0)),
        )
        agents = (AgentSpec(10, (4.5, 0.0, 1.0)),)
        scen = dataclasses.replace(
            small_scenario(parameters=par, agents=agents), anchors=anchors
        )
        frames = ((0.0, 1, par.msg_air_s), (0.0005, 2, 0.0005), (0.0065, 3, CHIRP_AIR_S))
        result = _frames_only(scen, frames, collect_trace=True).run()
        ends = {(src, outcome) for t, _k, src, _d, outcome in result.trace if t == 0.01}
        assert ends == {(1, "collided@2"), (1, "collided@10"), (1, "out-of-range@3")}

    def test_open_link_decided_at_frame_end(self):
        # Agent 10 walks out of anchor 1's 9 m range at 1 s, so the table
        # leaves their link open. Each chirp is decided with the receiver
        # where it is at the chirp's end: the last one starts in range and
        # ends out of it.
        agents = (AgentSpec(10, (8.9, 0.0, 2.5), trajectory=(Waypoint((9.1, 0.0, 2.5), 2.0),)),)
        scen = dataclasses.replace(
            small_scenario(agents=agents, link_truth=LinkTruthConfig(comm_range_m=9.0)),
            anchors=ANCHORS[:1])
        frames = ((0.998, 10, CHIRP_AIR_S), (0.999, 1, CHIRP_AIR_S), (0.9999, 1, CHIRP_AIR_S))
        sim = _frames_only(scen, frames, collect_trace=True)
        assert sim._links[1][10] is None
        outcomes = [outcome for _t, _k, _s, _d, outcome in sim.run().trace]
        assert outcomes == ["delivered@1", "delivered@10", "out-of-range@10"]


class TestChannelSounding:
    def test_batched_gains_match_scalar_draws(self):
        # The kernel draws a frame's k sounding gains in one call; the values
        # and the generator state afterwards must equal k scalar draws.
        for k in (1, 2, 5, 9):
            a, b = np.random.default_rng(k), np.random.default_rng(k)
            batch = np.exp(a.normal(0.0, 0.1, size=k)).tolist()
            one_by_one = [float(np.exp(b.normal(0.0, 0.1))) for _ in range(k)]
            assert batch == one_by_one
            assert a.random() == b.random()


def _record_sense(sim, calls):
    """Stub the ends of every sense window: append ("busy", time) where one
    is closed busy and ("idle", time) where one ends idle (CSMA's hold and
    HTNA's gate) to calls."""
    sim._sense_busy = lambda agent: calls.append(("busy", sim.now))
    sim._begin_hold = sim._htna_gate = lambda agent: calls.append(("idle", sim.now))


def _eager_prune(sim):
    """Make sim forget every expired frame, wherever it sits in the channel,
    before each frame goes on the air; the kernel prunes only from the front."""
    transmit = sim._transmit

    def eager(node, msg, air):
        cutoff = sim.now - sim._channel_horizon
        sim.channel = deque(f for f in sim.channel if f.end > cutoff)
        transmit(node, msg, air)

    sim._transmit = eager


def _on_air(sim, t, into):
    """Append to `into` the senders of the channel's frames at time t, after
    the events already queued for t."""
    sim._schedule(t, lambda: into.append([f.src for f in sim.channel]))


class TestChannelState:
    """`_transmit` prunes the channel, the simulation's deque of frames in
    start order, from its front, with a horizon of the longest airtime: here
    `msg_air_s`, longer than a chirp's."""

    @staticmethod
    def sim(horizon, frames):
        par = dataclasses.replace(Parameters(), msg_air_s=horizon)
        sim = _frames_only(small_scenario(parameters=par), frames)
        assert sim._channel_horizon == horizon
        return sim

    def test_prune_keeps_recent(self):
        sim = self.sim(0.005, ((0.0, 1, 0.001), (1.0, 2, 0.001)))
        on_air = []
        _on_air(sim, 1.0, on_air)
        sim.run()
        assert on_air == [[2]]

    def test_prune_stops_at_first_live_frame(self):
        # Frame 2 ends long before frame 1. Frame 3 prunes at 0.012 and
        # frame 4 at 0.0201, each before it goes on the air.
        frames = ((0.0, 1, 0.01), (0.0005, 2, 0.0002), (0.012, 3, 0.0002), (0.0201, 4, 0.0002))
        sim = self.sim(0.01, frames)
        on_air = []
        _on_air(sim, 0.012, on_air)
        _on_air(sim, 0.0201, on_air)
        sim.run()
        assert on_air == [[1, 2, 3], [3, 4]]  # at 0.0201 frames 1 and 2 are both gone

    @staticmethod
    def run_frames(eager):
        """Anchor 1 sends a 10 ms frame at 0 and anchor 2 a chirp inside it;
        anchors 3 and 4 send overlapping chirps once that chirp has expired
        but frame 1 has not, and anchor 2 chirps again once both have.
        Agent 10 senses across the overlap and later in a quiet window.
        Returns the trace, the sense outcomes and the senders on the
        channel just after anchor 4's chirp went out."""
        par = dataclasses.replace(Parameters(), msg_air_s=0.01)
        a = CHIRP_AIR_S
        frames = ((0.0, 1, par.msg_air_s), (0.0005, 2, a), (0.0115, 3, a),
                  (0.0116, 4, a), (0.0205, 2, a))
        sim = _frames_only(small_scenario(parameters=par), frames, collect_trace=True)
        if eager:
            _eager_prune(sim)
        calls, on_air = [], []
        _record_sense(sim, calls)
        for start, window in ((0.0112, 0.002), (0.018, 0.001)):
            sim._schedule(start, sim._start_sense, sim.nodes[10], window)
        _on_air(sim, 0.01165, on_air)
        return sim.run().trace, calls, on_air

    def test_ended_chirp_behind_long_frame_changes_no_outcome(self):
        trace, calls, on_air = self.run_frames(eager=False)
        eager_trace, eager_calls, eager_on_air = self.run_frames(eager=True)
        assert on_air == [[1, 2, 3, 4]]  # the ended chirp waits behind frame 1
        assert eager_on_air == [[1, 3, 4]]
        assert trace == eager_trace
        assert calls == eager_calls == [("busy", 0.0115), ("idle", 0.019)]
        outcomes = {(src, outcome) for _t, _k, src, _d, outcome in trace}
        assert {(1, "collided@10"), (3, "collided@10"), (2, "delivered@10")} <= outcomes


class TestChannelSense:
    """The kernel's sensing path: agent 10 senses while anchors transmit."""

    @staticmethod
    def sense(frames, start=0.001, window=0.002, **over):
        """Run only the given (time, anchor id, airtime) frames and one sense
        window of agent 10; return its (outcome, time) ends."""
        sim = _frames_only(small_scenario(**over), frames)
        calls = []
        _record_sense(sim, calls)
        sim._schedule(start, sim._start_sense, sim.nodes[10], window)
        sim.run()
        return calls

    def test_busy_reports_first_arrival(self):
        calls = self.sense([(0.0015, 1, 0.0004), (0.002, 2, 0.0004)])
        assert calls == [("busy", 0.0015)]

    def test_busy_when_frame_already_live(self):
        assert self.sense([(0.0008, 1, 0.0004)]) == [("busy", 0.001)]

    def test_idle(self):
        # Frames live at the start and starting inside the window, all from
        # senders agent 10 cannot hear: blocked, or beyond the comm range.
        frames = [(0.0008, 1, 0.0004), (0.0015, 1, 0.0004)]
        blocked = LinkTruthConfig(blocked_pairs=((10, 1),))
        assert self.sense(frames, link_truth=blocked) == [("idle", 0.003)]
        near = LinkTruthConfig(comm_range_m=1.0)
        assert self.sense(frames, link_truth=near) == [("idle", 0.003)]

    def test_zero_window_idle(self):
        assert self.sense([], window=0.0) == [("idle", 0.001)]


class TestSenseWindowToken:
    """A window closed busy loses its token, so its end, still queued, ends
    nothing: not even a window that a CSMA backoff opened before it."""

    def test_stale_end_spares_reopened_window(self, monkeypatch):
        # Window k opens at k * (offset + backoff) and a short frame of anchor
        # 1 closes it busy `offset` later. Each window lasts CSMA_SENSE_S, so
        # window 0 ends while window 2 is open.
        offset, backoff, air = 1.2e-4, 1e-4, 1e-5
        assert 2 * (offset + backoff) < CSMA_SENSE_S < 2 * (offset + backoff) + offset
        monkeypatch.setattr(protocol, "csma_backoff", lambda attempt, _rng: (
            None if attempt >= CSMA_MAX_ATTEMPTS else backoff))
        sim = _idle_sim(algorithms=Algorithms("SPBP", "CSMA", "UNIFORM"))
        agent, anchor = sim.nodes[10], sim.nodes[1]
        held, ends = [], []
        sim._begin_hold = held.append
        sense_complete = sim._sense_complete

        def recording(node, token):
            open_token = sim._sensing.get(node.nid)
            ends.append("none" if open_token is None
                        else "own" if open_token is token else "other")
            sense_complete(node, token)

        sim._sense_complete = recording
        sim._schedule(0.0, sim._start_sense, agent, CSMA_SENSE_S)
        for k in range(CSMA_MAX_ATTEMPTS + 1):
            sim._schedule(k * (offset + backoff) + offset, sim._transmit, anchor,
                          Message(MsgKind.CHIRP, 1, None), air)
        result = sim.run()
        assert held == []
        assert len(ends) == CSMA_MAX_ATTEMPTS + 1  # every window was closed busy
        assert "own" not in ends and "other" in ends
        assert agent.csma_attempt == CSMA_MAX_ATTEMPTS + 1
        assert [(r.node_id, r.activated, r.n_meas) for r in result.records] == [(10, 0, 0)]


TWO_AGENTS = (
    AgentSpec(10, (3.0, 3.0, 1.0), belief_mean=(3.5, 3.5, 1.2, 0, 0, 0)),
    AgentSpec(11, (5.0, 3.0, 1.0), belief_mean=(5.5, 3.5, 1.2, 0, 0, 0)),
)


def _idle_sim(collect_trace=False, **over):
    """A Simulation of anchors 1-4 and agents 10 and 11 with an empty queue
    and no epochs after the current one (a period beyond the run)."""
    sim = Simulation(small_scenario(agents=TWO_AGENTS, duration_s=1.0, **over), seed=0,
                     collect_trace=collect_trace)
    sim._queue.clear()
    for nid in (10, 11):
        sim.nodes[nid].period = 10.0
    return sim


def _exchange_at(sim, t, initiator, responder):
    """Schedule a hold of `initiator` at t with one exchange with `responder`."""
    agent = sim.nodes[initiator]

    def start():
        agent.in_hold = True
        agent.collected = {}
        agent.exchange_queue = deque([responder])
        sim._next_exchange(agent)

    sim._schedule(t, start)


class TestSessionTimeout:
    """A node's finished session leaves its last timer pending. A session it
    starts before that timer expires must not be failed by it. Each send of a
    session that awaits a reply re-arms its timer."""

    @pytest.mark.parametrize("role", ["responder", "initiator"])
    def test_old_timer_spares_next_session(self, role):
        sim = _idle_sim()
        ta, air = TURNAROUND_S, sim.par.msg_air_s
        # Agent 11 ranges with node 10 (an agent) at 0. Node 10's reply goes
        # out at 2 ta + air and arms a timer that the finished exchange (done
        # by 4 (ta + air)) leaves pending until `stale`.
        stale = 2 * ta + air + RANGING_TIMEOUT_S
        assert 4 * (ta + air) < stale - 2 * ta - air
        _exchange_at(sim, 0.0, 11, 10)
        if role == "responder":
            # Agent 11 ranges with node 10 again: the init arrives ta / 2
            # before `stale`, and node 10's reply leaves ta / 2 after it.
            _exchange_at(sim, stale - 1.5 * ta - air, 11, 10)
        else:
            # Node 10 starts its own exchange ta / 2 before `stale`; its init
            # message leaves ta / 2 after it.
            _exchange_at(sim, stale - 0.5 * ta, 10, 1)
        result = sim.run()
        assert result.counters["failed_exchanges"] == 0
        expected = {(11, 10): 2} if role == "responder" else {(10, 1): 1, (11, 10): 1}
        assert result.link_counts == expected

    def test_one_timer_queued_per_node(self):
        sim = Simulation(load_scenario(bundled_scenario_path("three_agent_activation")), seed=0)
        queued, most = {}, {}
        schedule = sim._schedule

        def counting_schedule(t, fn, *args):
            if fn != sim._session_timeout:
                schedule(t, fn, *args)
                return
            # A timer event; its argument is the node it belongs to.
            nid = args[0].nid
            queued[nid] = queued.get(nid, 0) + 1
            most[nid] = max(most.get(nid, 0), queued[nid])

            def popped(*args):
                queued[nid] -= 1
                fn(*args)

            schedule(t, popped, *args)

        sim._schedule = counting_schedule
        result = sim.run()
        assert result.counters["failed_exchanges"] > 0
        assert set(most) == set(sim.nodes)
        assert set(most.values()) == {1}

    def test_lost_report_fails_after_final(self):
        sim = _idle_sim(collect_trace=True)
        ta, air = TURNAROUND_S, sim.par.msg_air_s
        # Agent 11 ranges with node 10 at 0: its init leaves at ta, its final
        # at 3 ta + 2 air, and node 10's report is on the air from 4 ta + 3 air
        # to 4 ta + 4 air. A chirp of anchor 1 over the report loses it.
        init_deadline = ta + RANGING_TIMEOUT_S
        final_deadline = 3 * ta + 2 * air + RANGING_TIMEOUT_S
        _exchange_at(sim, 0.0, 11, 10)
        anchor = sim.nodes[1]
        sim._schedule(4 * ta + 3.5 * air, lambda: sim._transmit(
            anchor, Message(MsgKind.CHIRP, 1, None), CHIRP_AIR_S))
        failed = []
        for t in (init_deadline + ta, final_deadline - ta, final_deadline + ta):
            sim._schedule(t, lambda: failed.append(sim.counters["failed_exchanges"]))
        result = sim.run()
        assert (MsgKind.RANGING_REPORT.value, 10, "collided@11") in {
            (kind, src, outcome) for _t, kind, src, _d, outcome in result.trace}
        # The init's timer is superseded: the session fails at the final's.
        assert failed == [0, 0, 1]
        assert result.link_counts == {}

    def test_stray_frame_spares_pending_report(self):
        sim = _idle_sim()
        ta, air = TURNAROUND_S, sim.par.msg_air_s
        # Agent 11 ranges with node 10 at 0: node 10 receives the final at
        # 3 ta + 3 air and sends its report ta later. A frame of anchor 1 to
        # node 10 ends inside that turnaround; the lockout drops it, and the
        # report must still go out.
        _exchange_at(sim, 0.0, 11, 10)
        anchor = sim.nodes[1]
        stray = Message(MsgKind.RANGING_INIT, 1, 10)
        sim._schedule(3 * ta + 3 * air + ta / 4, sim._transmit, anchor, stray, ta / 4)
        result = sim.run()
        assert result.counters["failed_exchanges"] == 0
        assert result.counters["collided"] == 0
        assert result.link_counts == {(11, 10): 1}


class TestAlohaOracle:
    """The channel against pure-ALOHA theory (Abramson, 1970): N nodes that
    all hear each other send Poisson chirps of rate lam and airtime tau, and a
    chirp is delivered when no other frame starts within tau of it. The kernel
    lets a node start a chirp over its own last one, so all N nodes interfere:
    today's law is exp(-2 N lam tau). Once a radio sends one frame at a time
    (ROADMAP direction 11(b)), this test moves to the N - 1 law."""

    def test_chirp_delivery_follows_n_node_law(self):
        interval = 0.01
        par = Parameters(chirp_mean_interval_s=interval)
        sim = Simulation(small_scenario(agents=TWO_AGENTS, duration_s=100.0, parameters=par),
                         seed=0)
        sim._queue.clear()  # no epochs: only chirps on the air
        for node in sim.nodes.values():
            sim._schedule(protocol.chirp_scheduler(sim.rng, interval), sim._chirp, node)
        counters = sim.run().counters
        n = len(sim.nodes)
        assert n == 6 and counters["out-of-range"] == 0
        frames = counters["transmissions"]  # 59,686
        receptions = counters["delivered"] + counters["collided"]
        assert receptions == (n - 1) * frames
        delivered = counters["delivered"] / receptions  # 0.78737
        lam_tau = CHIRP_AIR_S / interval
        law = math.exp(-2 * n * lam_tau)  # 0.7866
        # Receptions of one frame share its fate, so the standard error is
        # taken over frames: 3 of them are about 0.005.
        tolerance = 3 * math.sqrt(law * (1 - law) / frames)
        assert abs(delivered - law) < tolerance
        # The N - 1 law lies far outside it.
        assert math.exp(-2 * (n - 1) * lam_tau) - delivered > 5 * tolerance


class TestEventOrder:
    def test_same_time_events_run_in_scheduling_order(self):
        # Ties on time break on scheduling order, also for an event that a
        # callback at that time schedules: it runs after those queued.
        sim = _idle_sim()
        ran = []
        sim._schedule(0.5, lambda: sim._schedule(0.5, ran.append, "nested"))
        for i in range(5):
            sim._schedule(0.5, ran.append, i)
        sim._schedule(0.25, ran.append, "early")
        sim.run()
        assert ran == ["early", 0, 1, 2, 3, 4, "nested"]


class TestSubnetViolations:
    """Two agents holding the channel at once violate the subnetwork rule
    only if they hear each other."""

    @staticmethod
    def violations(**over):
        sim = _idle_sim(**over)
        for nid in (10, 11):
            agent = sim.nodes[nid]
            # One pending exchange each, so both are still holding.
            agent.links = [(1, np.array([1.0, 0.0, 0.0]), 100.0, np.zeros((3, 3)))]
            agent.proposal = AllocationResult(np.array([1]), None)
            sim._begin_hold(agent)
        return sim.counters["subnet_violations"]

    def test_agents_in_range_violate(self):
        assert self.violations() == 1

    def test_blocked_agents_do_not_violate(self):
        blocked = LinkTruthConfig(blocked_pairs=((10, 11),))
        assert self.violations(link_truth=blocked) == 0

    def test_agents_out_of_range_do_not_violate(self):
        assert self.violations(link_truth=LinkTruthConfig(comm_range_m=1.0)) == 0


class TestRecordFormatting:
    def test_fixed_width_row(self):
        r = RunRecord(1.5, 10, np.array([1.0, 2.0, 3.0]), np.array([1.1, 2.1, 3.1]),
                      0.25, 12, 1, "HTNA")
        row = record_row(r)
        assert row == (
            "1.500000000,10,1.000000000,2.000000000,3.000000000,"
            "1.100000000,2.100000000,3.100000000,0.250000000,12,1,HTNA"
        )


class TestSimulationRuns:
    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_override_obeys_seed_rule(self, seed):
        # The override is checked like a scenario's own seed: numpy would
        # reject -1 and 1.5 with its own errors and read True as seed 1.
        with pytest.raises(ConfigError, match="^seed must be"):
            Simulation(small_scenario(), seed=seed)

    def test_no_agents_produces_no_records(self):
        result = run(small_scenario(agents=()), seed=0)
        assert result.records == []
        assert result.total_measurements() == 0

    def test_epoch_cadence(self):
        par = dataclasses.replace(Parameters(), epoch_jitter=0.0, epoch_period_s=0.1)
        result = run(small_scenario(duration_s=4.0, parameters=par), seed=1)
        times = [r.time_s for r in result.records]
        assert len(times) == pytest.approx(40, abs=3)
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_counter_conservation(self):
        result = run(small_scenario(duration_s=5.0), seed=2, collect_trace=True)
        c = result.counters
        others = len(ANCHORS)  # one agent: each frame has 4 potential receivers
        assert c["transmissions"] > 0
        assert c["delivered"] + c["collided"] + c["out-of-range"] == (
            c["transmissions"] * others
        )
        assert len(result.trace) == c["transmissions"] * others

    def test_measurements_recorded(self):
        result = run(small_scenario(duration_s=5.0), seed=3)
        assert result.total_measurements() > 0
        assert all(k[0] == 10 for k in result.link_counts)
        assert sum(result.link_counts.values()) == result.total_measurements()

    def test_noise_free_static_agent_converges(self):
        par = dataclasses.replace(
            Parameters(),
            los_sigma_m=0.0,
            erc_noise_sigma=0.0,
            clock_drift_ppm=0.0,
            clock_offset_max_s=0.0,
        )
        agents = (
            AgentSpec(10, (3.0, 3.0, 1.0), belief_mean=(3.5, 3.5, 1.2, 0, 0, 0),
                      pos_sigma=1.0),
        )
        result = run(
            small_scenario(duration_s=8.0, parameters=par, agents=agents), seed=4
        )
        last = result.records[-1]
        err = float(np.linalg.norm(last.est_pos - last.true_pos))
        assert err < 0.05

    def test_csv_headers(self):
        result = run(small_scenario(duration_s=1.0), seed=5, collect_trace=True)
        assert result.records_csv().splitlines()[0] == (
            "time_s,node_id,true_x,true_y,true_z,est_x,est_y,est_z,cov_trace,"
            "n_meas,activated,policy"
        )
        assert result.trace_csv().splitlines()[0] == "time_s,kind,src,dst,outcome"


class _CheckedSim(Simulation):
    """Counts, per agent, the epochs the kernel runs (those before the end).
    After every handler that changes a node's session, checks the session
    rule: a stored session that awaits nothing is a responder's whose last
    sent message is its report, still to go out. Checks that every message
    goes on the air once: a frame's times live on its message, so a message
    sent again would rewrite a frame still in the channel. At each frame's
    end, checks that the frames the channel holds as overlapping it, which
    `arbitrate` reads, are all those among every frame of the run: the
    kernel's front-only prune drops none that counts."""

    def __init__(self, *args, **kw):
        self.epochs = {}
        self.sent = []  # every frame of the run, in start order
        self.max_air = 0.0
        super().__init__(*args, **kw)

    def _epoch(self, agent):
        if self.now < self.duration:
            self.epochs[agent.nid] = self.epochs.get(agent.nid, 0) + 1
        super()._epoch(agent)

    def _check_session(self, node):
        s = node.session
        assert s is None or s.awaits is not None or (
            s.responder == node.nid and s.sent.kind is MsgKind.RANGING_REPORT
            and s.sent.tx_ts is None), (node.nid, s)

    def _transmit(self, node, msg, air):
        assert msg.start is None and msg.tx_ts is None, (node.nid, msg.kind, msg.start)
        super()._transmit(node, msg, air)
        self.sent.append(msg)
        self.max_air = max(self.max_air, air)

    def _tx_end(self, msg):
        def overlaps(f):
            return f is not msg and f.start < msg.end and f.end > msg.start

        want = []
        for f in reversed(self.sent):
            if f.start + self.max_air <= msg.start:
                break  # f, and every frame sent before it, ended by msg's start
            if overlaps(f):
                want.append(f)
        seen = [f for f in self.channel if overlaps(f)]
        assert list(map(id, seen)) == list(map(id, reversed(want))), (msg.src, msg.start)
        super()._tx_end(msg)

    def _receive(self, node, *args):
        super()._receive(node, *args)
        self._check_session(node)

    def _send_session_message(self, node, msg):
        super()._send_session_message(node, msg)
        self._check_session(node)

    def _session_timeout(self, node):
        super()._session_timeout(node)
        self._check_session(node)

    def _next_exchange(self, agent):
        super()._next_exchange(agent)
        self._check_session(agent)


class TestKernelEdgeCases:
    """Runs at the edges of the kernel keep its bookkeeping invariants."""

    @staticmethod
    def run_checked(scen, acronym, seed=0):
        sim = _CheckedSim(scen.with_algorithms(acronym), seed=seed)
        result = sim.run()
        c = result.counters
        assert c["delivered"] + c["collided"] + c["out-of-range"] == (
            c["transmissions"] * (len(sim.nodes) - 1)
        )
        per_agent = {}
        for r in result.records:
            per_agent[r.node_id] = per_agent.get(r.node_id, 0) + 1
        assert per_agent == sim.epochs
        assert sum(result.link_counts.values()) == result.total_measurements()
        for node in sim.nodes.values():
            assert is_psd(node.belief)
        if sim.scenario.algorithms.inference == "SPBP":
            assert all(r.cov_trace >= 0 for r in result.records)
        return result

    @pytest.mark.parametrize("name,acronym", sorted(SHORT_RANGE))
    def test_short_range(self, name, acronym):
        # The 9 m variants of the golden runs, where receptions, interferers
        # and carrier senses fall out of range.
        scen = dataclasses.replace(load_scenario(bundled_scenario_path(name)), duration_s=5.0)
        assert self.run_checked(_short_range(scen), acronym).counters["out-of-range"] > 0

    @pytest.mark.parametrize("acronym", sorted(ACRONYMS))
    def test_agent_that_hears_no_one(self, acronym):
        scen = small_scenario(duration_s=2.0, link_truth=LinkTruthConfig(comm_range_m=0.5))
        result = self.run_checked(scen, acronym)
        c = result.counters
        assert c["transmissions"] > 0 and c["delivered"] == c["collided"] == 0
        assert result.total_measurements() == 0

    @pytest.mark.parametrize("acronym", sorted(ACRONYMS))
    def test_duration_shorter_than_one_epoch(self, acronym):
        result = self.run_checked(small_scenario(agents=TWO_AGENTS, duration_s=0.05), acronym)
        assert [(r.time_s, r.node_id) for r in result.records] == [(0.0, 10), (0.0, 11)]

    @pytest.mark.parametrize("acronym", sorted(ACRONYMS))
    def test_agents_with_equal_belief_means(self, acronym, monkeypatch):
        # Without anchors nothing moves either mean, so every direction
        # between the two agents is degenerate and the link is skipped.
        degenerate = []
        unit_direction = operation.unit_direction

        def counting(mu_j, mu_k):
            try:
                return unit_direction(mu_j, mu_k)
            except DegenerateGeometryError:
                degenerate.append(mu_k)
                raise

        monkeypatch.setattr(operation, "unit_direction", counting)
        mean = (6.0, 4.0, 1.2, 0.0, 0.0, 0.0)
        agents = (
            AgentSpec(10, (3.0, 3.0, 1.0), belief_mean=mean),
            AgentSpec(11, (5.0, 3.0, 1.0), belief_mean=mean),
        )
        scen = dataclasses.replace(
            small_scenario(agents=agents, duration_s=3.0), anchors=()
        )
        result = self.run_checked(scen, acronym)
        assert degenerate
        assert result.total_measurements() == 0


_ROOM = st.tuples(st.floats(0.0, 12.0), st.floats(0.0, 8.0), st.floats(0.0, 3.0))


@st.composite
def _fuzz_scenarios(draw):
    """Small scenarios: 1-4 agents, 0-6 anchors, random blocked and NLOS
    pairs, a range short enough to leave links out of range, runs <= 2 s."""
    anchors = tuple(
        AnchorSpec(i, draw(_ROOM)) for i in range(1, draw(st.integers(0, 6)) + 1)
    )
    agents = []
    for nid in range(10, 10 + draw(st.integers(1, 4))):
        trajectory = ()
        if draw(st.booleans()):
            trajectory = (Waypoint(draw(_ROOM), draw(st.floats(0.1, 2.0))),)
        mean = (*draw(_ROOM), 0.0, 0.0, 0.0) if draw(st.booleans()) else None
        agents.append(AgentSpec(nid, draw(_ROOM), trajectory, belief_mean=mean))
    ids = [a.id for a in anchors] + [a.id for a in agents]
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    some_pairs = st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([])
    link_truth = LinkTruthConfig(
        comm_range_m=draw(st.floats(1.0, 15.0)),
        nlos_pairs=tuple(draw(some_pairs)),
        blocked_pairs=tuple(draw(some_pairs)),
    )
    par = dataclasses.replace(
        Parameters(), allow_agent_measurements=draw(st.booleans())
    )
    return ScenarioConfig(
        name="fuzz", duration_s=draw(st.floats(0.0, 2.0)), anchors=anchors,
        agents=tuple(agents), link_truth=link_truth, parameters=par,
    )


class TestKernelProperties:
    """The invariants of TestKernelEdgeCases and more, over generated scenarios."""

    @settings(max_examples=200, deadline=None)
    @given(scen=_fuzz_scenarios(), acronym=st.sampled_from(sorted(ACRONYMS)),
           seed=st.integers(0, 2**32 - 1))
    def test_invariants(self, scen, acronym, seed):
        result = TestKernelEdgeCases.run_checked(scen, acronym, seed)
        times = {}
        for r in result.records:
            times.setdefault(r.node_id, []).append(r.time_s)
            assert np.all(np.isfinite(r.est_pos))
            assert r.activated or r.n_meas == 0
        assert all(ts == sorted(ts) for ts in times.values())


def _piece_end_times(wps):
    """Times before and after a whole trajectory, and each end of its pieces
    (arrivals and departures) with its nextafter neighbours."""
    times = [wps[0][1] - 1.0, wps[-1][1] + wps[-1][2] + 1.0]
    for _p, a, d in wps:
        for b in (a, a + d):
            times += [math.nextafter(b, -math.inf), b, math.nextafter(b, math.inf)]
    return times


def _short_range(scen):
    return dataclasses.replace(
        scen, link_truth=dataclasses.replace(scen.link_truth, comm_range_m=SHORT_RANGE_M))


class TestFixedLinks:
    """Every link that the fixed-link table decides is `hears` at every pair
    of the two nodes' positions: sampled at each piece end of their
    trajectories and its nextafter neighbours, each node at its own time."""

    @staticmethod
    def check(sim):
        links, nodes = sim._links, sim.nodes
        ids = sorted(nodes)
        assert list(links) == ids
        comm_range, blocked = sim._comm_range, sim._blocked
        decided = 0
        for a in ids:
            assert list(links[a]) == [b for b in ids if b != a]  # rows in id order
            for b, heard in links[a].items():
                assert links[b][a] is heard
                if heard is None or b < a:
                    continue
                decided += 1
                pa, pb = ({mobility_position(nodes[n].waypoints, t)
                           for t in _piece_end_times(nodes[n].waypoints)} for n in (a, b))
                for p in pa:
                    for q in pb:
                        assert hears(a, b, simkernel._dist(p, q), comm_range, blocked) is heard
        return decided

    BUNDLED = [
        "multi_floor", "prioritization_multipath", "single_floor_inference",
        "three_agent_activation", "two_agent_cooperation",
    ]

    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled(self, name):
        scen = load_scenario(bundled_scenario_path(name))
        sim = Simulation(scen, seed=0)
        n = len(sim.nodes)
        # Every bundled room lies within the range: all links are decided.
        assert self.check(sim) == n * (n - 1) // 2
        assert all(None not in row.values() for row in sim._links.values())

    @pytest.mark.parametrize("name", sorted({name for name, _acronym in SHORT_RANGE}))
    def test_short_range(self, name):
        sim = Simulation(_short_range(load_scenario(bundled_scenario_path(name))), seed=0)
        assert self.check(sim) > 0
        # the range cuts across a walk
        assert any(None in row.values() for row in sim._links.values())

    @settings(max_examples=200, deadline=None)
    @given(scen=_fuzz_scenarios())
    def test_generated(self, scen):
        self.check(Simulation(scen, seed=0))

    @pytest.mark.parametrize("inside,decided", [(0.5e-6, None), (2e-6, True)])
    def test_margin(self, inside, decided):
        # Agent 10 walks from next to anchor 1 to a point `inside` metres
        # within the range of it; static agent 11 is that far inside too.
        r = 9.0
        agents = (
            AgentSpec(10, (1.0, 0.0, 2.5), trajectory=(Waypoint((r - inside, 0.0, 2.5), 1.0),)),
            AgentSpec(11, (0.0, r - inside, 2.5)),
        )
        sim = Simulation(small_scenario(agents=agents, link_truth=LinkTruthConfig(
            comm_range_m=r)), seed=0)
        assert sim._links[1][10] is decided
        assert sim._links[1][11] is True  # static: `hears` at the positions


class TestClearFanOut:
    """A sender whose fixed-link row is fully decided has a clear-frame
    fan-out: the settle of a frame that overlaps nothing, with outcomes as
    `hears` per receiver gives them. A settle holds the delivered nodes, the
    collided and out-of-range counts and the agent slots (each delivered
    agent with its index among the delivered nodes, so in the frame's
    gains). A frame overlapped by one other frame falls back to the
    per-receiver rule, collisions and half duplex included, and settles
    through `_fan_out` of its outcomes. A row with an undecided link gets no
    fan-out."""

    @staticmethod
    def assert_settles(fan, outcomes, nodes):
        """fan is the settle of the plain outcome map `outcomes`."""
        assert list(fan.outcomes.items()) == list(outcomes.items())
        heard_ids = [nid for nid, outcome in outcomes.items() if outcome == "delivered"]
        assert fan.delivered == tuple(nodes[nid] for nid in heard_ids)
        assert fan.collided == list(outcomes.values()).count("collided")
        assert fan.out_of_range == list(outcomes.values()).count("out-of-range")
        assert fan.agents == tuple((i, nodes[nid]) for i, nid in enumerate(heard_ids)
                                   if not nodes[nid].is_anchor)

    @staticmethod
    def check(sim):
        links, nodes = sim._links, sim.nodes
        comm_range, blocked = sim._comm_range, sim._blocked
        # Any positions will do: a decided link is `hears` at all of them
        # (TestFixedLinks), and the link rule reads these for undecided ones.
        pos = {nid: mobility_position(n.waypoints, 0.0) for nid, n in nodes.items()}
        rule = _table_rule(links, pos, comm_range, blocked)

        def heard(a, b):
            return hears(a, b, simkernel._dist(pos[a], pos[b]), comm_range, blocked)

        fanouts = 0
        for src, row in links.items():
            fan = sim._fanouts.get(src)
            if None in row.values():
                assert fan is None
                continue
            fanouts += 1
            want = {nid: "delivered" if heard(nid, src) else "out-of-range" for nid in row}
            assert fan.collided == 0
            TestClearFanOut.assert_settles(fan, want, nodes)
            lone = _tx(src, 0.0, 0.001, pos[src])
            ch = deque([lone])
            assert arbitrate(ch, lone, row, rule, fan.outcomes) is fan.outcomes
            assert arbitrate(ch, lone, row, rule) == want
            for o in row:  # one overlapping frame from each other node
                ch = deque([lone, _tx(o, 0.0005, 0.0015, pos[o])])
                out = arbitrate(ch, lone, row, rule, fan.outcomes)
                assert out is not fan.outcomes
                contested = {
                    nid: "out-of-range" if not heard(nid, src)
                    else "collided" if nid == o or heard(nid, o)
                    else "delivered"
                    for nid in row
                }
                assert out == contested
                settle = sim._fan_out(out)
                assert settle.outcomes is out
                TestClearFanOut.assert_settles(settle, contested, nodes)
        return fanouts

    @pytest.mark.parametrize("name", TestFixedLinks.BUNDLED)
    def test_bundled(self, name):
        sim = Simulation(load_scenario(bundled_scenario_path(name)), seed=0)
        assert self.check(sim) == len(sim.nodes)  # every row is decided

    @pytest.mark.parametrize("name", sorted({name for name, _acronym in SHORT_RANGE}))
    def test_short_range(self, name):
        sim = Simulation(_short_range(load_scenario(bundled_scenario_path(name))), seed=0)
        assert 0 < self.check(sim) < len(sim.nodes)

    @settings(max_examples=200, deadline=None)
    @given(scen=_fuzz_scenarios())
    def test_generated(self, scen):
        self.check(Simulation(scen, seed=0))

    @pytest.mark.parametrize("name", TestFixedLinks.BUNDLED)
    def test_run_matches_per_receiver_rule(self, name):
        # A traced run settles every clear frame through its fan-out; without
        # fan-outs every frame takes the per-receiver rule and settles through
        # `_fan_out` of its outcomes.
        scen = dataclasses.replace(load_scenario(bundled_scenario_path(name)), duration_s=3.0)
        fast = Simulation(scen, seed=1, collect_trace=True)
        slow = Simulation(scen, seed=1, collect_trace=True)
        slow._fanouts = {}
        a, b = fast.run(), slow.run()
        assert a.counters == b.counters
        assert a.trace == b.trace
        assert a.records_csv() == b.records_csv()


class TestSessionLifecycle:
    """A node's session lives from its first frame to the end of its part of
    the exchange; `_CheckedSim` checks the session rule after every handler
    that changes a session."""

    @pytest.mark.parametrize("acronym", sorted(ACRONYMS))
    @pytest.mark.parametrize("name", TestFixedLinks.BUNDLED)
    def test_bundled(self, name, acronym):
        scen = dataclasses.replace(load_scenario(bundled_scenario_path(name)), duration_s=5.0)
        assert TestKernelEdgeCases.run_checked(scen, acronym).total_measurements() > 0

    def test_garbled_final_ends_responder_session(self, monkeypatch):
        # Every final is garbled, so no report is built: the rule leaves no
        # stored session awaiting nothing, and the responder's goes at the
        # final. Only the initiators' sessions time out, one per exchange.
        def garbled(*_stamps):
            raise RangingError("garbled exchange")

        monkeypatch.setattr(protocol, "twr_range", garbled)
        scen = load_scenario(bundled_scenario_path("two_agent_cooperation"))
        sim = _CheckedSim(dataclasses.replace(scen, duration_s=3.0), seed=0)
        result = sim.run()
        assert result.total_measurements() == 0
        assert result.counters["failed_exchanges"] == 60


class TestClosureFreeEvents:
    """Every event the kernel queues is a bound method of the simulation
    with plain arguments: no closure and no callback."""

    @pytest.mark.parametrize("acronym", ["BP-AL-UN", "BP-CS-UN", "BP-HT-UN"])
    def test_events_are_bound_methods(self, acronym, monkeypatch):
        queued = []
        schedule = Simulation._schedule

        def recording(self, t, fn, *args):
            queued.append((self, fn, args))
            schedule(self, t, fn, *args)

        monkeypatch.setattr(Simulation, "_schedule", recording)
        scen = load_scenario(bundled_scenario_path("three_agent_activation"))
        sim = Simulation(dataclasses.replace(scen, duration_s=2.0).with_algorithms(acronym),
                         seed=0)
        sim.run()
        for owner, fn, args in queued:
            assert owner is sim
            assert inspect.ismethod(fn) and fn.__self__ is sim, fn
            assert not any(callable(arg) for arg in args), (fn, args)
        names = {fn.__name__ for _owner, fn, _args in queued}
        assert {"_epoch", "_chirp", "_tx_end", "_send_session_message"} <= names
        assert ("_sense_complete" in names) is (acronym != "BP-AL-UN")


class TestSharedBeliefs:
    """A frame leaves carrying its sender's belief object, and each receiver's
    neighbor entry keeps the object the last frame carried: shared, not copied."""

    def test_tables_hold_sent_beliefs(self, monkeypatch):
        sent = {}
        transmit = Simulation._transmit

        def checking(self, node, msg, air):
            transmit(self, node, msg, air)
            assert msg.payload is node.belief
            sent.setdefault(node.nid, []).append(node.belief)

        monkeypatch.setattr(Simulation, "_transmit", checking)
        sim = Simulation(small_scenario(agents=TWO_AGENTS, duration_s=2.0), seed=3)
        sim.run()
        assert len({id(b) for b in sent[11]}) > 1  # the agent's belief moved
        for nid, other in ((10, 11), (11, 10)):
            table = sim.nodes[nid].table
            assert other in table and len(table) > 1  # the other agent and an anchor
            for src, entry in table.items():
                assert any(entry.belief is b for b in sent[src]), (nid, src)


class TestLsBelief:
    """An LS agent's estimate is its belief, with unit position covariance,
    and both inputs of its HTNA gate read that covariance."""

    def test_belief_is_last_estimate(self):
        scen = small_scenario(agents=TWO_AGENTS, duration_s=3.0).with_algorithms("LS-AL-UN")
        sim = Simulation(scen, seed=0)
        result = sim.run()
        assert result.total_measurements() > 0
        for nid in (10, 11):
            belief = sim.nodes[nid].belief
            last = [r for r in result.records if r.node_id == nid][-1]
            assert np.array_equal(belief.covariance, LS_COV)
            assert np.array_equal(belief.mean[:3], last.est_pos)

    def test_htna_reads_unit_covariance(self, monkeypatch):
        calls = _record_gates(monkeypatch)
        scen = small_scenario(duration_s=2.0, algorithms=Algorithms("LS", "HTNA", "UNIFORM"))
        run(scen, seed=1)
        own = [(problem.c_pj, args[1][0]) for problem, args in _gates(calls)]
        assert own
        for c_pj, cov in own:
            assert np.array_equal(c_pj, LS_COV[:3, :3])
            assert np.array_equal(cov, LS_COV)


def _record_gates(monkeypatch):
    """Record, in call order, ("predicted_covariance", args) and
    ("htna_decide", args) for each call of those two operation bindings.
    Under uniform prioritization only the HTNA gate calls either."""
    calls = []

    def recording(name):
        fn = getattr(operation, name)

        def wrapper(*args):
            calls.append((name, args))
            return fn(*args)
        monkeypatch.setattr(operation, name, wrapper)

    recording("predicted_covariance")
    recording("htna_decide")
    return calls


def _gates(calls):
    """(problem, htna_decide args) of each gate recorded by _record_gates,
    after checking that each gate predicted from one problem and decided once."""
    names = [name for name, _args in calls]
    assert names == ["predicted_covariance", "htna_decide"] * (len(calls) // 2), names
    return [(calls[i][1][0], calls[i + 1][1]) for i in range(0, len(calls), 2)]


class _EagerProblemSim(Simulation):
    """Builds the AllocationProblem of a uniform pick eagerly at every
    prioritization, from the live neighbor table, and checks that each HTNA
    gate's problem, the one `operation.predicted_covariance` receives there
    (recorded into `calls` by _record_gates), equals it."""

    def __init__(self, *args, **kw):
        self.eager, self.gates, self.calls = {}, 0, None
        super().__init__(*args, **kw)

    def _prioritize(self, agent):
        mu_p = agent.belief.mean[:3]
        links = []
        for nid in sorted(agent.table):
            if not self.par.allow_agent_measurements and not self.nodes[nid].is_anchor:
                continue
            entry = agent.table[nid]
            try:
                u = operation.unit_direction(mu_p, entry.belief.mean[:3])
            except DegenerateGeometryError:
                continue
            links.append(LinkInfo(nid, u, entry.xi, entry.belief.covariance[:3, :3]))
        self.eager[agent.nid] = AllocationProblem(
            agent.belief.covariance[:3, :3], tuple(links), simkernel.M_PER_NEIGHBOR)
        return super()._prioritize(agent)

    def _htna_gate(self, agent):
        eager = self.eager[agent.nid]
        start = len(self.calls)
        super()._htna_gate(agent)
        ((gate, _decided),) = _gates(self.calls[start:])
        assert [l.neighbor for l in gate.links] == [l.neighbor for l in eager.links]
        assert gate.budget == eager.budget
        for name in ("c_pj", "us", "xis", "rhos"):
            a, b = getattr(gate, name), getattr(eager, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        self.gates += 1


class TestLazyAllocationInputs:
    """Under uniform prioritization, an epoch keeps snapshots of its links
    and builds their AllocationProblem only where the HTNA gate reads it."""

    SCEN = small_scenario(agents=TWO_AGENTS, duration_s=2.0)

    @staticmethod
    def counting(monkeypatch):
        built = []

        class Counting(AllocationProblem):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(operation, "AllocationProblem", Counting)
        return built

    @pytest.mark.parametrize("acronym", ["BP-AL-UN", "BP-CS-UN", "LS-AL-UN"])
    def test_aloha_and_csma_build_no_problem(self, acronym, monkeypatch):
        built = self.counting(monkeypatch)
        result = run(self.SCEN.with_algorithms(acronym), seed=3)
        assert result.total_measurements() > 0
        assert built == []

    def test_htna_builds_one_problem_per_gate(self, monkeypatch):
        built = self.counting(monkeypatch)
        calls = _record_gates(monkeypatch)
        result = run(self.SCEN.with_algorithms("BP-HT-UN"), seed=3)
        assert result.total_measurements() > 0
        decided = [problem for problem, _args in _gates(calls)]
        assert decided and [id(p) for p in built] == [id(p) for p in decided]

    def test_gate_problem_equals_eager_one(self, monkeypatch):
        sim = _EagerProblemSim(self.SCEN.with_algorithms("BP-HT-UN"), seed=3)
        sim.calls = _record_gates(monkeypatch)
        assert sim.run().total_measurements() > 0
        assert sim.gates > 0


class TestTracedBindings:
    """Per-layer tracing swaps these module globals for wrappers, so the
    kernel must call each through its binding; a call past it (say through
    the module that defines the function) would go untraced."""

    BINDINGS = [
        (simkernel, "arbitrate"),
        (simkernel, "neighbor_update"),
        (simkernel, "ranging_fsm_step"),
        (simkernel, "predict_belief"),
        (inference, "spbp_update"),
        (inference, "ls_estimate"),
        (operation, "cpnp_allocate"),
        (operation, "predicted_covariance"),
        (operation, "htna_decide"),
        (operation, "unit_direction"),
    ]
    ACRONYMS = ("LS-AL-UN", "BP-CS-UN", "BP-HT-CP")

    @staticmethod
    def runs():
        scen = small_scenario(agents=TWO_AGENTS, duration_s=2.0)
        out = []
        for acronym in TestTracedBindings.ACRONYMS:
            result = run(scen.with_algorithms(acronym), seed=3)
            out.append((result.records_csv(), result.counters, result.link_counts))
        return out

    def test_every_binding_is_called(self, monkeypatch):
        plain = self.runs()
        calls = {}

        def counting(key, fn):
            def wrapper(*args, **kw):
                calls[key] = calls.get(key, 0) + 1
                return fn(*args, **kw)
            return wrapper

        for module, name in self.BINDINGS:
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, counting(name, fn))
            home = sys.modules[fn.__module__]
            if home is not module:  # a call here bypasses the binding
                monkeypatch.setattr(home, name, counting(f"{fn.__module__}.{name}", fn))

        class CountingHeapq:
            heappush = staticmethod(counting("heappush", simkernel.heapq.heappush))
            heappop = staticmethod(counting("heappop", simkernel.heapq.heappop))

        monkeypatch.setattr(simkernel, "heapq", CountingHeapq)
        traced = self.runs()
        expected = {name for _module, name in self.BINDINGS} | {"heappush", "heappop"}
        assert set(calls) == expected
        assert traced == plain


class TestUnexpectedErrorsPropagate:
    """The kernel skips a degenerate link and keeps the last LS estimate on
    divergence; any other error from those calls is a fault and propagates."""

    CALLEES = [
        (operation, "unit_direction", "BP-AL-UN", DegenerateGeometryError),
        (inference, "ls_estimate", "LS-AL-UN", EstimationFailureError),
    ]
    CALLEE_IDS = ["unit_direction", "ls_estimate"]

    @staticmethod
    def run_raising(monkeypatch, module, name, acronym, exc):
        def raise_exc(*_args, **_kw):
            raise exc("injected")

        monkeypatch.setattr(module, name, raise_exc)
        return run(small_scenario(duration_s=2.0).with_algorithms(acronym), seed=0)

    @pytest.mark.parametrize("module,name,acronym,_expected", CALLEES, ids=CALLEE_IDS)
    def test_unrelated_error_propagates(self, monkeypatch, module, name, acronym, _expected):
        with pytest.raises(ZeroDivisionError):
            self.run_raising(monkeypatch, module, name, acronym, ZeroDivisionError)

    @pytest.mark.parametrize("module,name,acronym,expected", CALLEES, ids=CALLEE_IDS)
    def test_expected_error_is_caught(self, monkeypatch, module, name, acronym, expected):
        result = self.run_raising(monkeypatch, module, name, acronym, expected)
        assert result.records  # the run went on to the end


class TestDeterminism:
    def test_byte_identical_repeat(self):
        scen = small_scenario(
            duration_s=4.0,
            agents=(
                AgentSpec(
                    10,
                    (2.0, 2.0, 1.0),
                    trajectory=(Waypoint((8.0, 6.0, 1.0), 4.0),),
                    belief_mean=(2.5, 2.5, 1.2, 0, 0, 0),
                ),
            ),
        )
        a = run(scen, seed=11, collect_trace=True)
        b = run(scen, seed=11, collect_trace=True)
        assert a.records_csv() == b.records_csv()
        assert a.trace_csv() == b.trace_csv()
        assert a.counters == b.counters

    def test_seed_changes_outcome(self):
        scen = small_scenario(duration_s=4.0)
        a = run(scen, seed=1)
        b = run(scen, seed=2)
        assert a.records_csv() != b.records_csv()
