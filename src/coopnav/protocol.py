"""Simulated radio firmware behaviors.

Covers the four-message symmetric double-sided two-way ranging exchange,
chirp-based neighbor discovery, the channel-quality estimate, and the three
channel-access policies. State machines here are pure with respect to
the channel: the simulation kernel stamps timestamps and moves messages.
A frame is its `Message`, sent once: as it leaves, the kernel stamps `tx_ts`,
`start`, `end`, `src_pos` and `payload`, the sender's belief, which each
receiver's neighbor table keeps as it is (beliefs are immutable), so a node's
neighbors share one belief per send.

Ranging exchange layout (initiator I, responder R), with the `Message`
fields each frame carries beside its own `tx_ts` and `rx_ts`, and the kind
of message each side awaits once the frame is received:

    frame             timestamps              fields    then I, R await
    I --init-->  R    t1 = I tx, t2 = R rx    -         resp, final
    I <--resp--  R    t3 = R tx, t4 = I rx    -         report, final
    I --final--> R    t5 = I tx, t6 = R rx    t1, t4    report, None
    I <-report-- R    -                       range_m   None, None

A new session awaits the init; the kickoff makes the initiator's await the
response. A session that awaits None is over for its node. Only the
responder holds all six timestamps: it computes range_m, or on a garbled
final ends its session with no report. Each side reads its own transmit
time (I's t1, R's t3) from the last message its session sent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import InvalidArgumentError, RangingError
from .model import ERC_MAX, ERC_MIN, POSITIVE, GaussianBelief, finite_number

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


@dataclass(slots=True)
class Message:
    kind: MsgKind
    src: object  # node id
    dst: object | None  # None for chirp broadcast
    tx_ts: float | None = None  # local-clock ticks at the sender, stamped at send
    rx_ts: float | None = None  # local-clock ticks at the receiver
    payload: GaussianBelief | None = None  # the sender's belief, stamped at send
    start: float | None = None  # simulation time on the air [s], stamped at send
    end: float | None = None  # simulation time off the air [s], stamped at send
    src_pos: tuple | None = None  # the sender's (x, y, z) at start, stamped at send
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


@dataclass(slots=True)
class RangingSession:
    """One node's view of an exchange: the kind of message it accepts next
    from its partner (None once the exchange is over for it), the responder's
    t2, and the last message it sent, whose tx_ts the channel stamps."""

    initiator: object
    responder: object
    awaits: MsgKind | None = MsgKind.RANGING_INIT
    t2: float | None = None
    sent: Message | None = None
    # Simulation time at which the session fails unless its partner replies;
    # each send that awaits a reply moves it.
    deadline: float | None = None


def begin_ranging(session: RangingSession) -> Message:
    """Initiator kickoff: return the init message and await the response."""
    if session.sent is not None:
        raise InvalidArgumentError("session already started")
    session.awaits = MsgKind.RANGING_RESP
    session.sent = Message(MsgKind.RANGING_INIT, session.initiator, session.responder)
    return session.sent


def ranging_fsm_step(session: RangingSession, msg: Message, node) -> Message | None:
    """One node's step of a ranging session on a received message; returns
    the one message the node sends in reply, or None. A message that is not
    the kind the session awaits from the partner is dropped and leaves the
    session unchanged. The report carries the exchange's range (`range_m`)."""
    kind = msg.kind
    if kind is not session.awaits or msg.src != (
            session.responder if node == session.initiator else session.initiator):
        return None
    if kind is MsgKind.RANGING_INIT:
        session.t2 = msg.rx_ts
        session.awaits = MsgKind.RANGING_FINAL
        session.sent = Message(MsgKind.RANGING_RESP, node, session.initiator)
        return session.sent
    if kind is MsgKind.RANGING_RESP:
        session.awaits = MsgKind.RANGING_REPORT
        session.sent = Message(MsgKind.RANGING_FINAL, node, session.responder,
                               t1=session.sent.tx_ts, t4=msg.rx_ts)
        return session.sent
    session.awaits = None  # the final or the report: the exchange is over here
    if kind is MsgKind.RANGING_REPORT:
        return None
    try:
        value = twr_range(msg.t1, session.t2, session.sent.tx_ts,
                          msg.t4, msg.tx_ts, msg.rx_ts)
    except RangingError:
        return None
    session.sent = Message(MsgKind.RANGING_REPORT, node, session.initiator, range_m=value)
    return session.sent


# --- neighbor discovery ------------------------------------------------------


@dataclass(slots=True)
class NeighborEntry:
    """What a node knows of one neighbor: when it was last heard, the belief
    its last frame carried (shared with the sender, never copied) and the
    channel-quality estimate of that reception."""

    last_heard: float
    belief: GaussianBelief
    xi: float


def neighbor_update(table: dict, msg: Message, now: float, xi: float) -> None:
    """Replace the sender's entry in `table` (node id -> NeighborEntry).
    Receiving never drops an entry: the owner purges once per epoch."""
    table[msg.src] = NeighborEntry(now, msg.payload, xi)


def purge_neighbors(table: dict, now: float, expiry: float) -> None:
    """Drop every entry last heard more than `expiry` before `now`."""
    cutoff = now - expiry
    for nid in [k for k, e in table.items() if e.last_heard < cutoff]:
        del table[nid]


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
_DRIFT = (lambda x: abs(x) <= MAX_CLOCK_DRIFT_PPM, f"within {MAX_CLOCK_DRIFT_PPM:g} ppm")


@dataclass(frozen=True, slots=True)
class ClockModel:
    """Free-running local clock: offset [s] plus frequency drift [ppm]."""

    offset: float = 0.0
    drift_ppm: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "offset", finite_number(self.offset, "offset"))
        object.__setattr__(self, "drift_ppm", finite_number(self.drift_ppm, "drift_ppm", _DRIFT))

    def ticks(self, t: float) -> float:
        return (t * (1.0 + self.drift_ppm * 1e-6) + self.offset) / DEFAULT_TICK_S


# --- channel-access policies -------------------------------------------------


def chirp_scheduler(rng, mean_interval: float) -> float:
    """Next inter-chirp wait: exponential with the given mean (Poisson process)."""
    mean_interval = finite_number(mean_interval, "mean chirp interval", POSITIVE)
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
