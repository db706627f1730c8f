"""Simulated radio firmware behaviors.

Covers the four-message symmetric double-sided two-way ranging exchange,
chirp-based neighbor discovery, the channel-quality estimate, and the three
channel-access policies. State machines here are pure with respect to
the channel: the simulation kernel stamps timestamps and moves messages.

Ranging exchange layout (initiator I, responder R), with the `Message`
fields each frame carries beside its own `tx_ts` and `rx_ts`:

    frame             timestamps              fields
    I --init-->  R    t1 = I tx, t2 = R rx    -
    I <--resp--  R    t3 = R tx, t4 = I rx    -
    I --final--> R    t5 = I tx, t6 = R rx    t1, t4
    I <-report-- R    -                       range_m, computed by R from t1..t6

Only the responder holds all six timestamps; the report gives the initiator
the same value. Each side reads its own transmit time (I's t1, R's t3) from
the last message its session sent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, RangingError
from .model import ERC_MAX, ERC_MIN

SPEED_OF_LIGHT = 299792458.0  # m/s

# DW1000-style timestamp granularity: 1 / (128 * 499.2 MHz).
DEFAULT_TICK_S = 1.0 / (128 * 499.2e6)

# Protocol timing [s].
TURNAROUND_S = 0.0001  # from a reception to the reply it triggers
EXCHANGE_GAP_S = 0.0001  # between consecutive exchanges of one hold
RANGING_TIMEOUT_S = 0.01  # a session waits this long for its partner
CHIRP_AIR_S = 0.0002  # airtime of a discovery chirp
NEIGHBOR_EXPIRY_S = 5.0  # a neighbor not heard for this long is forgotten

# Channel-access policies.
ALOHA_MEAN_DELAY_S = 0.02
CSMA_SENSE_S = 0.0005
CSMA_BACKOFF_BASE_S = 0.001
CSMA_MAX_ATTEMPTS = 6
HTNA_WINDOW_LO = 0.5  # HTNA sense window bounds, in units of t_m_s
HTNA_WINDOW_HI = 2.0


class MsgKind(enum.Enum):
    RANGING_INIT = "ranging-init"
    RANGING_RESP = "ranging-resp"
    RANGING_FINAL = "ranging-final"
    RANGING_REPORT = "ranging-report"
    CHIRP = "chirp"


@dataclass(frozen=True, slots=True)
class StateSummary:
    """Position mean plus full-state covariance, as carried in message payloads.
    Both are read-only float arrays, which every receiver's table shares."""

    mu_p: np.ndarray  # (3,)
    cov: np.ndarray  # (N_x, N_x)


@dataclass(slots=True)
class Message:
    kind: MsgKind
    src: object  # node id
    dst: object | None  # None for chirp broadcast
    tx_ts: float | None = None  # local-clock ticks at the sender
    rx_ts: float | None = None  # local-clock ticks at the receiver
    payload: StateSummary | None = None
    t1: float | None = None  # on a final: the init's tx_ts
    t4: float | None = None  # on a final: the response's rx_ts
    range_m: float | None = None  # on a report: the responder's range


def twr_range(t1, t2, t3, t4, t5, t6) -> float:
    """Symmetric double-sided TWR range from six local timestamps [ticks].

    ToF = (Tround1 Tround2 - Treply1 Treply2) / (Tround1 + Tround2 + Treply1 + Treply2)
    with Tround1 = t4-t1, Treply1 = t3-t2, Tround2 = t6-t3, Treply2 = t5-t4.
    """
    round1 = t4 - t1
    reply1 = t3 - t2
    round2 = t6 - t3
    reply2 = t5 - t4
    if round1 <= 0 or round2 <= 0 or reply1 < 0 or reply2 < 0:
        raise RangingError("non-monotone ranging timestamps")
    denom = round1 + round2 + reply1 + reply2
    tof_ticks = (round1 * round2 - reply1 * reply2) / denom
    if tof_ticks < 0:
        raise RangingError("negative time of flight (garbled exchange)")
    return tof_ticks * DEFAULT_TICK_S * SPEED_OF_LIGHT


class Phase(enum.Enum):
    IDLE = "idle"
    AWAITING_RESP = "awaiting-resp"
    AWAITING_FINAL = "awaiting-final"
    AWAITING_REPORT = "awaiting-report"
    DONE = "done"
    FAILED = "failed"


TIMEOUT = object()  # sentinel event for ranging_fsm_step


@dataclass(slots=True)
class RangingSession:
    """One node's view of an exchange: the responder keeps t2, and both sides
    keep the last message they sent, whose tx_ts the channel stamps."""

    initiator: object
    responder: object
    phase: Phase = Phase.IDLE
    t2: float | None = None
    sent: Message | None = None
    # Simulation time at which the session fails unless its partner replies;
    # each send that awaits a reply moves it.
    deadline: float | None = None

    @property
    def active(self) -> bool:
        return self.phase in (
            Phase.AWAITING_RESP,
            Phase.AWAITING_FINAL,
            Phase.AWAITING_REPORT,
        )


def begin_ranging(session: RangingSession) -> Message:
    """Initiator kickoff: return the init message and await the response."""
    if session.phase is not Phase.IDLE:
        raise InvalidArgumentError("session already started")
    session.phase = Phase.AWAITING_RESP
    session.sent = Message(MsgKind.RANGING_INIT, session.initiator, session.responder)
    return session.sent


def ranging_fsm_step(session: RangingSession, event, node) -> Message | None:
    """Deterministic transition table for one node's view of a ranging session;
    returns the one message the node sends in reply, or None.

    `event` is a received Message or the TIMEOUT sentinel. Unexpected messages
    (wrong sender during lockout, wrong kind for the phase) are dropped and
    leave the session unchanged. The initiator's session ends DONE on the
    report, whose `range_m` is the exchange's range.
    """
    if event is TIMEOUT:
        if session.active:
            session.phase = Phase.FAILED
        return None
    msg = event
    if msg.src != (session.responder if node == session.initiator else session.initiator):
        return None  # lockout: only accept messages from the partner

    if node == session.responder:
        if session.phase is Phase.IDLE and msg.kind is MsgKind.RANGING_INIT:
            session.t2 = msg.rx_ts
            session.phase = Phase.AWAITING_FINAL
            session.sent = Message(MsgKind.RANGING_RESP, node, session.initiator)
            return session.sent
        if session.phase is Phase.AWAITING_FINAL and msg.kind is MsgKind.RANGING_FINAL:
            try:
                value = twr_range(msg.t1, session.t2, session.sent.tx_ts,
                                  msg.t4, msg.tx_ts, msg.rx_ts)
            except RangingError:
                session.phase = Phase.FAILED
                return None
            session.phase = Phase.DONE
            session.sent = Message(MsgKind.RANGING_REPORT, node, session.initiator,
                                   range_m=value)
            return session.sent
        return None

    # Initiator side.
    if session.phase is Phase.AWAITING_RESP and msg.kind is MsgKind.RANGING_RESP:
        session.phase = Phase.AWAITING_REPORT
        session.sent = Message(MsgKind.RANGING_FINAL, node, session.responder,
                               t1=session.sent.tx_ts, t4=msg.rx_ts)
        return session.sent
    if session.phase is Phase.AWAITING_REPORT and msg.kind is MsgKind.RANGING_REPORT:
        session.phase = Phase.DONE
    return None


# --- neighbor discovery ------------------------------------------------------


@dataclass(slots=True)
class NeighborEntry:
    last_heard: float
    mu_p: np.ndarray  # (3,)
    cov: np.ndarray  # (N_x, N_x)
    xi: float  # latest channel-quality estimate


class NeighborTable:
    """Per-node map of recently heard neighbors and their state summaries.
    Observing never drops an entry: the owner purges it once per epoch."""

    def __init__(self):
        self.entries: dict = {}

    def purge(self, now: float, expiry: float) -> None:
        """Drop every entry last heard more than `expiry` before `now`."""
        cutoff = now - expiry
        stale = [k for k, e in self.entries.items() if e.last_heard < cutoff]
        for k in stale:
            del self.entries[k]

    def observe(self, src, summary: StateSummary | None, now: float, xi: float | None = None):
        entry = self.entries.get(src)
        if entry is None:
            entry = NeighborEntry(now, np.zeros(3), np.zeros((6, 6)), (ERC_MIN + ERC_MAX) / 2)
            self.entries[src] = entry
        entry.last_heard = now
        if summary is not None:
            entry.mu_p = summary.mu_p
            entry.cov = summary.cov
        if xi is not None:
            entry.xi = xi
        return entry

    def neighbors(self) -> list:
        return sorted(self.entries)

    def __contains__(self, nid) -> bool:
        return nid in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def neighbor_update(
    table: NeighborTable, msg: Message, now: float, xi: float | None = None
) -> NeighborTable:
    """Upsert the sender of any received message."""
    table.observe(msg.src, msg.payload, now, xi)
    return table


# --- channel sounding --------------------------------------------------------


def erc_estimate(nlos: bool, gain: float = 1.0) -> float:
    """Channel-quality estimate for a link of the given kind under a drawn
    multiplicative noise gain, clamped to the usable coefficient range
    [ERC_MIN, ERC_MAX]; a NaN gain gives ERC_MIN. Compared, not passed
    through min and max: this runs once per delivery to an agent."""
    base = float((ERC_MIN if nlos else ERC_MAX) * gain)
    if not base > ERC_MIN:
        return ERC_MIN
    return base if base < ERC_MAX else ERC_MAX


# --- clocks ------------------------------------------------------------------

MAX_CLOCK_DRIFT_PPM = 100.0


@dataclass(frozen=True, slots=True)
class ClockModel:
    """Free-running local clock: offset [s] plus frequency drift [ppm]."""

    offset: float = 0.0
    drift_ppm: float = 0.0

    def __post_init__(self):
        if abs(self.drift_ppm) > MAX_CLOCK_DRIFT_PPM:
            raise InvalidArgumentError(f"clock drift limited to {MAX_CLOCK_DRIFT_PPM:g} ppm")

    def ticks(self, t: float) -> float:
        return (t * (1.0 + self.drift_ppm * 1e-6) + self.offset) / DEFAULT_TICK_S


# --- channel-access policies -------------------------------------------------


def chirp_scheduler(rng, mean_interval: float) -> float:
    """Next inter-chirp wait: exponential with the given mean (Poisson process)."""
    if mean_interval <= 0:
        raise InvalidArgumentError("mean chirp interval must be > 0")
    return float(rng.exponential(mean_interval))


def aloha_delay(rng) -> float:
    """ALOHA: transmit without sensing, after an exponential delay."""
    return float(rng.exponential(ALOHA_MEAN_DELAY_S))


def csma_backoff(attempt: int, rng) -> float | None:
    """CSMA backoff before retry `attempt` (0-based) after a busy sense of
    CSMA_SENSE_S; None when giving up."""
    if attempt >= CSMA_MAX_ATTEMPTS:
        return None
    return float(CSMA_BACKOFF_BASE_S * (2**attempt) * rng.random())


def htna_sense_window(t_m_s: float, rng) -> float:
    """HTNA: random sense window; if idle, the transmission is gated on the
    trace-reduction-vs-increase threshold (see operation.htna_decide)."""
    return float(rng.uniform(HTNA_WINDOW_LO, HTNA_WINDOW_HI) * t_m_s)
