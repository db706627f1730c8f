"""Tests for the simulated radio firmware: ranging math and state machine,
discovery, sounding, clocks, and channel-access policies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coopnav.errors import InvalidArgumentError, RangingError
from coopnav.model import ERC_MAX, ERC_MIN, GaussianBelief
from coopnav.protocol import (
    DEFAULT_TICK_S,
    SPEED_OF_LIGHT,
    CSMA_BACKOFF_BASE_S,
    CSMA_MAX_ATTEMPTS,
    ClockModel,
    Message,
    MsgKind,
    RangingSession,
    aloha_delay,
    begin_ranging,
    chirp_scheduler,
    csma_backoff,
    erc_estimate,
    htna_sense_window,
    neighbor_update,
    purge_neighbors,
    ranging_fsm_step,
    twr_range,
)


def six_timestamps(distance_m, clk_i, clk_r, reply_r=0.001, reply_i=0.0012, t0=5.0):
    """Physical-time schedule of one exchange, stamped through two clocks."""
    tof = distance_m / SPEED_OF_LIGHT
    t1 = clk_i.ticks(t0)
    t2 = clk_r.ticks(t0 + tof)
    t3 = clk_r.ticks(t0 + tof + reply_r)
    t4 = clk_i.ticks(t0 + 2 * tof + reply_r)
    t5 = clk_i.ticks(t0 + 2 * tof + reply_r + reply_i)
    t6 = clk_r.ticks(t0 + 3 * tof + reply_r + reply_i)
    return t1, t2, t3, t4, t5, t6


class TestTwrRange:
    def test_exact_with_ideal_clocks(self):
        ideal = ClockModel()
        for d in (0.5, 3.0, 10.0, 42.0):
            got = twr_range(*six_timestamps(d, ideal, ideal, t0=0.002))
            assert got == pytest.approx(d, abs=1e-9)

    def test_drift_error_below_two_centimeters(self):
        # The symmetric double-sided formula cancels first-order drift error.
        clk_i = ClockModel(offset=0.3, drift_ppm=20.0)
        clk_r = ClockModel(offset=-0.7, drift_ppm=-20.0)
        got = twr_range(*six_timestamps(10.0, clk_i, clk_r))
        assert abs(got - 10.0) < 0.02

    def test_offset_alone_is_harmless(self):
        got = twr_range(
            *six_timestamps(7.0, ClockModel(offset=1e-4), ClockModel(offset=-2e-4), t0=0.002)
        )
        assert got == pytest.approx(7.0, abs=1e-9)

    def test_non_monotone_rejected(self):
        with pytest.raises(RangingError):
            twr_range(10.0, 5.0, 6.0, 9.0, 11.0, 7.0)  # t4 < t1

    def test_garbled_negative_tof_rejected(self):
        # replies much longer than the rounds force a negative ToF estimate
        with pytest.raises(RangingError):
            twr_range(0.0, 0.0, 10.0, 1.0, 20.0, 11.0)

    @given(
        st.floats(0.1, 80.0),
        st.floats(-20.0, 20.0),
        st.floats(-20.0, 20.0),
        st.floats(1e-4, 5e-3),
        st.floats(1e-4, 5e-3),
    )
    @settings(max_examples=300)
    def test_accuracy_under_random_drift(self, d, ppm_i, ppm_r, reply_r, reply_i):
        clk_i = ClockModel(drift_ppm=ppm_i)
        clk_r = ClockModel(drift_ppm=ppm_r)
        got = twr_range(*six_timestamps(d, clk_i, clk_r, reply_r, reply_i))
        assert abs(got - d) < 0.05


class TestClockModel:
    def test_ticks_scale(self):
        clk = ClockModel()
        assert clk.ticks(DEFAULT_TICK_S) == pytest.approx(1.0)

    def test_drift_limit(self):
        with pytest.raises(InvalidArgumentError):
            ClockModel(drift_ppm=150.0)


def run_exchange(distance_m=6.0, tamper=None):
    """Drive both FSM halves through a full exchange with physical timestamps.
    Returns both sessions and the range each side produced: the report's
    range at the initiator's last step and at the responder's send."""
    tof = distance_m / SPEED_OF_LIGHT
    clk = ClockModel()
    s_i = RangingSession("I", "R")
    s_r = RangingSession("I", "R")
    t = 1.0
    send = begin_ranging(s_i)
    results = {"I": None, "R": None}
    guard = 0
    while send is not None and guard < 10:
        guard += 1
        sender, receiver = ("I", "R") if send.dst == "R" else ("R", "I")
        sess_tx = s_i if sender == "I" else s_r
        sess_rx = s_r if sender == "I" else s_i
        assert send.src == sender and sess_tx.sent is send
        send.tx_ts = clk.ticks(t)  # stamped in place, as the channel does
        t += tof
        msg = Message(send.kind, sender, send.dst, tx_ts=send.tx_ts, rx_ts=clk.ticks(t),
                      t1=send.t1, t4=send.t4, range_m=send.range_m)
        if tamper:
            msg = tamper(msg) or msg
        awaited = sess_rx.awaits
        send = ranging_fsm_step(sess_rx, msg, receiver)
        assert send is None or isinstance(send, Message)
        if (send is None and awaited is MsgKind.RANGING_REPORT
                and sess_rx.awaits is None):
            assert receiver == "I"  # only the initiator collects
            results[receiver] = msg.range_m
        elif send is not None and send.kind is MsgKind.RANGING_REPORT:
            results["R"] = send.range_m
        t += 0.001  # turnaround before the next transmission
    return s_i, s_r, results


class TestRangingFsm:
    def test_happy_path_both_sides_agree(self):
        s_i, s_r, results = run_exchange(6.0)
        assert s_i.awaits is None and s_r.awaits is None
        assert results["I"] == pytest.approx(6.0, abs=1e-6)
        assert results["R"] == results["I"]

    def test_kickoff_emits_init(self):
        s = RangingSession("I", "R")
        out = begin_ranging(s)
        assert s.awaits is MsgKind.RANGING_RESP
        assert isinstance(out, Message) and out.kind is MsgKind.RANGING_INIT
        assert (out.src, out.dst) == ("I", "R")
        assert s.sent is out

    def test_double_kickoff_rejected(self):
        s = RangingSession("I", "R")
        begin_ranging(s)
        with pytest.raises(InvalidArgumentError):
            begin_ranging(s)

    def test_lockout_drops_third_party_messages(self):
        s = RangingSession("I", "R")
        begin_ranging(s)
        intruder = Message(MsgKind.RANGING_RESP, "X", "I", tx_ts=1.0, rx_ts=2.0)
        outs = ranging_fsm_step(s, intruder, "I")
        assert s.awaits is MsgKind.RANGING_RESP and outs is None

    def test_wrong_kind_for_phase_dropped(self):
        s = RangingSession("I", "R")
        begin_ranging(s)
        stray = Message(MsgKind.RANGING_REPORT, "R", "I", range_m=3.0)
        outs = ranging_fsm_step(s, stray, "I")
        assert s.awaits is MsgKind.RANGING_RESP and outs is None

    def test_garbled_final_fails_responder(self):
        def tamper(msg):
            if msg.kind is MsgKind.RANGING_FINAL:
                msg.t1 = msg.t1 + 1e9  # corrupt: t4 < t1
            return msg

        _, s_r, results = run_exchange(tamper=tamper)
        # Over with no report built: the last message it sent is its response.
        assert s_r.awaits is None and s_r.sent.kind is MsgKind.RANGING_RESP
        assert results["R"] is None


def _chirp(src, belief=None):
    return Message(MsgKind.CHIRP, src, None, payload=belief)


def _observe(table, src, now, xi=50.0):
    neighbor_update(table, _chirp(src), now, xi)


class TestNeighborTable:
    """A neighbor table is a dict, node id -> NeighborEntry; each reception
    replaces the sender's entry."""

    def test_observe_and_expiry(self):
        table = {}
        belief = GaussianBelief(np.ones(6), np.eye(6))
        neighbor_update(table, _chirp("A", belief), 1.0, 50.0)
        assert "A" in table and len(table) == 1
        assert table["A"].belief is belief  # shared, not copied
        assert np.allclose(table["A"].belief.mean[:3], 1.0)
        # Later message from B; A has gone stale in the meantime, but only
        # the owner's purge drops it.
        neighbor_update(table, _chirp("B"), 7.0, 50.0)
        assert sorted(table) == ["A", "B"]
        purge_neighbors(table, 7.0, 5.0)
        assert "A" not in table and "B" in table

    def test_refresh_keeps_entry_alive(self):
        table = {}
        for t in (0.0, 3.0, 6.0):
            _observe(table, "A", t)
            purge_neighbors(table, t, 5.0)
        assert "A" in table

    def test_xi_update(self):
        table = {}
        _observe(table, "A", 0.0, xi=90.0)
        first = table["A"]
        assert first.xi == 90.0
        _observe(table, "A", 1.0, xi=40.0)
        assert table["A"].xi == 40.0 and table["A"].last_heard == 1.0
        # Replaced, not updated in place: a snapshot of the old entry holds.
        assert table["A"] is not first and first.xi == 90.0

    def test_sorted_neighbor_listing(self):
        table = {}
        for nid in (3, 1, 2):
            _observe(table, nid, 0.0)
        assert sorted(table) == [1, 2, 3]


class TestNeighborTableExpiry:
    """An entry is dropped exactly when last_heard < now - expiry at a purge,
    however purges are spaced."""

    def test_goes_stale_between_observes_of_other_nodes(self):
        table = {}
        for nid, now in (("A", 0.0), ("B", 3.0), ("B", 5.0)):
            _observe(table, nid, now)
        # The cutoff 5.0 - 5.0 equals A's last_heard: not yet stale.
        purge_neighbors(table, 5.0, 5.0)
        assert sorted(table) == ["A", "B"]
        _observe(table, "B", 5.5)
        purge_neighbors(table, 5.5, 5.0)
        assert sorted(table) == ["B"]

    def test_refresh_keeps_entry_alive(self):
        table = {}
        _observe(table, "A", 0.0)
        _observe(table, "B", 1.0)
        _observe(table, "A", 4.0)
        purge_neighbors(table, 8.0, 5.0)  # cutoff 3: B (1) goes, refreshed A (4) stays
        assert sorted(table) == ["A"]
        purge_neighbors(table, 9.0, 5.0)
        assert sorted(table) == ["A"]
        purge_neighbors(table, 9.5, 5.0)
        assert sorted(table) == []

    def test_direct_purge(self):
        table = {}
        _observe(table, "A", 0.0)
        _observe(table, "B", 2.0)
        purge_neighbors(table, 6.0, 5.0)
        assert sorted(table) == ["B"]
        purge_neighbors(table, 7.0, 5.0)  # cutoff == last_heard of B
        assert sorted(table) == ["B"]
        purge_neighbors(table, 7.25, 5.0)
        assert sorted(table) == []
        _observe(table, "C", 8.0)
        purge_neighbors(table, 8.0, 5.0)
        assert sorted(table) == ["C"]


def noisy_erc(nlos, rng, sigma):
    """One channel-quality estimate under a lognormal gain, drawn as the kernel does."""
    return erc_estimate(nlos, float(np.exp(rng.normal(0.0, sigma))))


class TestSoundChannel:
    def test_noise_free_endpoints(self):
        assert erc_estimate(nlos=False) == ERC_MAX
        assert erc_estimate(nlos=True) == ERC_MIN

    def test_noisy_estimates_stay_in_range(self):
        rng = np.random.default_rng(0)
        vals = [noisy_erc(n, rng, 0.5) for n in (True, False) for _ in range(200)]
        assert all(ERC_MIN <= v <= ERC_MAX for v in vals)

    @pytest.mark.parametrize("nlos", [False, True])
    def test_clamp_matches_min_max(self, nlos):
        gains = [0.0, -1.0, 0.16, 0.999999, 1.0, 1.000001, 6.25, 6.3, 1e300,
                 math.inf, -math.inf, math.nan, np.float64(0.5), np.float64(7.0)]
        gains += list(np.exp(np.random.default_rng(2).normal(0.0, 1.0, 200)))
        for gain in gains:
            base = (ERC_MIN if nlos else ERC_MAX) * gain
            want = float(min(ERC_MAX, max(ERC_MIN, base)))
            got = erc_estimate(nlos, gain)
            assert type(got) is float and got == want, gain

    def test_los_beats_nlos_on_average(self):
        rng = np.random.default_rng(1)
        los = np.mean([noisy_erc(False, rng, 0.3) for _ in range(300)])
        nlos = np.mean([noisy_erc(True, rng, 0.3) for _ in range(300)])
        assert los > nlos


class TestPolicies:
    def test_chirp_scheduler_mean(self):
        rng = np.random.default_rng(2)
        waits = [chirp_scheduler(rng, 0.5) for _ in range(20000)]
        assert np.mean(waits) == pytest.approx(0.5, rel=0.05)
        assert min(waits) >= 0.0

    def test_chirp_scheduler_rejects_bad_interval(self):
        with pytest.raises(InvalidArgumentError):
            chirp_scheduler(np.random.default_rng(0), 0.0)

    def test_aloha_delay_positive(self):
        rng = np.random.default_rng(3)
        assert all(aloha_delay(rng) >= 0 for _ in range(100))

    def test_csma_backoff_grows_then_gives_up(self):
        rng = np.random.default_rng(4)
        for attempt in range(CSMA_MAX_ATTEMPTS):
            b = csma_backoff(attempt, rng)
            assert b is not None and 0 <= b <= CSMA_BACKOFF_BASE_S * 2**attempt
        assert csma_backoff(CSMA_MAX_ATTEMPTS, rng) is None

    def test_htna_sense_window_bounds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = htna_sense_window(0.002, rng)
            assert 0.001 <= w <= 0.004
