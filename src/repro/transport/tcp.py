"""TCP: the RFC 793 subset that TCP hole punching depends on (paper §4).

Implemented behaviours:

* three-way handshake, active and passive open;
* **simultaneous open** (§4.4): a socket in SYN_SENT that receives a raw SYN
  moves to SYN_RCVD and replies with a SYN-ACK whose SYN part replays the
  original sequence number — exactly the wire behaviour the paper describes;
* both application-visible dispatch styles of §4.3, selected by
  :class:`TcpStyle`:

  - ``BSD``: an inbound SYN matching a SYN_SENT socket's 4-tuple is handled
    on that socket, so the application's asynchronous ``connect()`` succeeds;
  - ``LISTEN_PREFERRED`` (Linux / Windows per the paper): if a listen socket
    exists on the port, the SYN spawns a *new* passive connection delivered
    via ``accept()``, and the original ``connect()`` fails with an
    "address in use" error.  The passive connection adopts the doomed active
    connection's initial sequence number — modelling the kernel owning one
    sequence-number state per 4-tuple — which makes crossed-SYN simultaneous
    open converge to working accept()-side streams on both ends, the outcome
    §4.4 reports ("as if the stream created itself on the wire");

* SYN retransmission with exponential backoff and a connect timeout;
* RST handling: an RST against SYN_SENT surfaces as a retryable
  ``ConnectionError_("reset")`` (paper §4.2 step 4);
* ICMP errors attributed to connecting sockets surface as
  ``ConnectionError_("unreachable")``;
* reliable ordered byte-stream transfer with cumulative ACKs, out-of-order
  buffering, and retransmission;
* FIN teardown and abort-with-RST, giving NATs on the path the standard
  session-lifetime signal the paper highlights (§4 intro).

Deliberate simplifications (documented in DESIGN.md): no flow/congestion
control (infinite window), no checksum (the simulator does not corrupt),
TIME_WAIT shortened to 1 s of virtual time.
"""

from __future__ import annotations

import enum
import struct
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.netsim.addresses import Endpoint
from repro.netsim.clock import Timer
from repro.netsim.node import Host
from repro.netsim.packet import (
    ACK_BIT,
    FIN_ACK,
    FIN_BIT,
    RST_ACK,
    SYN_ACK,
    IcmpError,
    Packet,
    TcpFlags,
    tcp_packet,
)
from repro.obs.metrics import Counter
from repro.util.errors import BindError, ConnectionError_
from repro.util.rng import SeededRng

SEQ_MOD = 1 << 32
_SEQ_HALF = 1 << 31

#: Initial SYN retransmission timeout (paper §4.2 step 4 suggests ~1 s retry).
SYN_RTO = 1.0
#: Maximum SYN (re)transmissions before the connect fails with "timeout".
SYN_MAX_TRIES = 6
#: Data/FIN retransmission timeout.
DATA_RTO = 0.5
#: Maximum data retransmissions before the connection errors out.
DATA_MAX_TRIES = 8
#: Shortened 2*MSL for TIME_WAIT (virtual seconds).
TIME_WAIT_SECONDS = 1.0

_U16 = struct.Struct("!H")


def seq_add(seq: int, n: int) -> int:
    return (seq + n) % SEQ_MOD


def seq_diff(a: int, b: int) -> int:
    """(a - b) mod 2^32; values < 2^31 mean a is at-or-after b."""
    return (a - b) % SEQ_MOD


def seq_ge(a: int, b: int) -> bool:
    return seq_diff(a, b) < _SEQ_HALF


class FrameBuffer:
    """Reassembles a byte stream of u16 big-endian length-prefixed frames.

    Feed arbitrary chunks; get back every frame they complete, passed
    through *decode*.  Both protocols that run over these streams frame
    this way and differ only in *decode*: the rendezvous and punching
    messages (``repro.core.protocol.decode``) and NAT Check's
    (``repro.natcheck.messages.unpack``).  Whatever *decode* raises on
    garbage propagates, the frame already consumed — callers on
    authenticated streams treat that as a hostile or stray peer and drop
    the stream.
    """

    def __init__(self, decode: Callable[[bytes], Any]) -> None:
        self._decode = decode
        self._buffer = bytearray()

    def feed(self, chunk: bytes) -> List[Any]:
        buffer = self._buffer
        buffer.extend(chunk)
        messages = []
        while len(buffer) >= 2:
            end = 2 + _U16.unpack_from(buffer)[0]
            if len(buffer) < end:
                break
            raw = bytes(buffer[2:end])
            del buffer[:end]
            messages.append(self._decode(raw))
        return messages


class TcpState(enum.Enum):
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FIN_WAIT_1 = "fin-wait-1"
    FIN_WAIT_2 = "fin-wait-2"
    CLOSE_WAIT = "close-wait"
    CLOSING = "closing"
    LAST_ACK = "last-ack"
    TIME_WAIT = "time-wait"


class TcpStyle(enum.Enum):
    """§4.3 dispatch style for a SYN matching an in-progress connect()."""

    BSD = "bsd"
    LISTEN_PREFERRED = "listen-preferred"


class _SegmentKind(enum.Enum):
    """Retransmit-queue entry kinds; flags are recomputed at (re)send time so
    a queued SYN is replayed as SYN-ACK once the peer's SYN has been seen."""

    SYN = "syn"
    DATA = "data"
    FIN = "fin"


class _QueuedSegment:
    __slots__ = ("kind", "seq", "payload", "tries", "length")

    def __init__(self, kind: _SegmentKind, seq: int, payload: bytes = b"") -> None:
        self.kind = kind
        self.seq = seq
        self.payload = payload
        self.tries = 0
        #: Sequence space consumed: SYN and FIN each take one number.
        self.length = len(payload) if kind is _SegmentKind.DATA else 1


ConnectedHandler = Callable[["TcpConnection"], None]
ErrorHandler = Callable[[ConnectionError_], None]
DataHandler = Callable[[bytes], None]
CloseHandler = Callable[[], None]
AcceptHandler = Callable[["TcpConnection"], None]


class TcpConnection:
    """One TCP connection (active or passive).

    Applications receive instances from :meth:`TcpStack.connect` or via a
    listener's accept callback, then use :meth:`send`, :meth:`close`, and the
    ``on_data`` / ``on_close`` / ``on_error`` callbacks.
    """

    def __init__(
        self,
        stack: "TcpStack",
        local: Endpoint,
        remote: Endpoint,
        iss: int,
        passive: bool,
        listener: Optional["TcpListener"] = None,
    ) -> None:
        self.stack = stack
        self.local = local
        self.remote = remote
        self.passive = passive
        self.listener = listener
        self.state = TcpState.CLOSED
        self.iss = iss
        self.snd_nxt = iss
        self.snd_una = iss
        self.rcv_nxt: Optional[int] = None  # unknown until peer's SYN seen
        # callbacks
        self.on_connected: Optional[ConnectedHandler] = None
        self.on_error: Optional[ErrorHandler] = None
        self.on_data: Optional[DataHandler] = None
        self.on_close: Optional[CloseHandler] = None
        # retransmission: unacknowledged segments in ``snd_nxt`` order
        self._queue: List[_QueuedSegment] = []
        self._rtx_timer: Optional[Timer] = None
        # reassembly
        self._ooo: Dict[int, bytes] = {}
        self._pending_send: List[bytes] = []
        self._time_wait_timer: Optional[Timer] = None
        self.error: Optional[ConnectionError_] = None
        self.bytes_sent = 0
        self.bytes_received = 0

    # -- public API ----------------------------------------------------------

    @property
    def established(self) -> bool:
        return self.state is TcpState.ESTABLISHED

    def send(self, data: bytes) -> None:
        """Queue *data* for reliable in-order delivery to the peer.

        Legal before establishment; bytes are buffered and flushed when the
        handshake completes.
        """
        if not data:
            return
        if self.state in (
            TcpState.CLOSED,
            TcpState.FIN_WAIT_1,
            TcpState.FIN_WAIT_2,
            TcpState.CLOSING,
            TcpState.LAST_ACK,
            TcpState.TIME_WAIT,
        ):
            raise ConnectionError_("closed", "send on closed/closing connection")
        if self.state is not TcpState.ESTABLISHED and self.state is not TcpState.CLOSE_WAIT:
            self._pending_send.append(data)
            return
        self._transmit_data(data)

    def close(self) -> None:
        """Orderly close: send FIN after queued data; idempotent."""
        if self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT):
            next_state = (
                TcpState.FIN_WAIT_1
                if self.state is TcpState.ESTABLISHED
                else TcpState.LAST_ACK
            )
            self._enqueue_and_send(_QueuedSegment(_SegmentKind.FIN, self.snd_nxt))
            self.snd_nxt = seq_add(self.snd_nxt, 1)
            self.state = next_state
        elif self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            self._teardown(notify_close=False)

    def abort(self) -> None:
        """Reset the connection (RST to peer, immediate local teardown)."""
        if self.state not in (TcpState.CLOSED, TcpState.TIME_WAIT):
            self._send_flags(RST_ACK)
        self._teardown(notify_close=True)

    # -- segment construction --------------------------------------------------

    def _send_flags(self, flags: TcpFlags, seq: Optional[int] = None, payload: bytes = b"") -> None:
        ack = self.rcv_nxt if (flags._value_ & ACK_BIT and self.rcv_nxt is not None) else 0
        self.stack.host.send(
            tcp_packet(
                self.local,
                self.remote,
                flags,
                seq=self.snd_nxt if seq is None else seq,
                ack=ack,
                payload=payload,
            )
        )

    def _send_queued(self, entry: _QueuedSegment) -> None:
        entry.tries += 1
        if entry.tries > 1:
            self.stack.retransmits += 1
        # Every segment acknowledges once the peer's SYN has been seen.
        acking = self.rcv_nxt is not None
        if entry.kind is _SegmentKind.SYN:
            flags = SYN_ACK if acking else TcpFlags.SYN
        elif entry.kind is _SegmentKind.FIN:
            flags = FIN_ACK if acking else TcpFlags.FIN
        else:
            flags = TcpFlags.ACK if acking else TcpFlags.NONE
        self._send_flags(flags, seq=entry.seq, payload=entry.payload)

    def _enqueue_and_send(self, entry: _QueuedSegment) -> None:
        self._queue.append(entry)
        self._send_queued(entry)
        self._arm_rtx_timer()

    def _transmit_data(self, data: bytes) -> None:
        self.bytes_sent += len(data)
        entry = _QueuedSegment(_SegmentKind.DATA, self.snd_nxt, data)
        self.snd_nxt = seq_add(self.snd_nxt, len(data))
        self._enqueue_and_send(entry)

    # -- retransmission -----------------------------------------------------------

    def _rto_for(self, entry: _QueuedSegment) -> float:
        base = SYN_RTO if entry.kind is _SegmentKind.SYN else DATA_RTO
        return base * (2 ** max(0, entry.tries - 1))

    def _arm_rtx_timer(self) -> None:
        if self._rtx_timer is not None and self._rtx_timer.active:
            return
        if not self._queue:
            return
        entry = self._queue[0]
        self._rtx_timer = self.stack.scheduler.call_later(
            self._rto_for(entry), self._on_rtx_timeout
        )

    def _cancel_rtx_timer(self) -> None:
        if self._rtx_timer is not None:
            self._rtx_timer.cancel()
            self._rtx_timer = None

    def _on_rtx_timeout(self) -> None:
        self._rtx_timer = None
        if not self._queue or self.state is TcpState.CLOSED:
            return
        self.stack.rto_fires += 1
        entry = self._queue[0]
        limit = SYN_MAX_TRIES if entry.kind is _SegmentKind.SYN else DATA_MAX_TRIES
        if entry.tries >= limit:
            self._fail(ConnectionError_("timeout", f"{entry.kind.value} retransmission limit"))
            return
        self._send_queued(entry)
        self._arm_rtx_timer()

    # -- error/teardown --------------------------------------------------------

    def _fail(self, error: ConnectionError_) -> None:
        if self.state in (TcpState.SYN_SENT, TcpState.SYN_RCVD):
            self.stack._count_syn_outcome(error.reason)
        self.error = error
        callback = self.on_error
        self._teardown(notify_close=False)
        if callback is not None:
            callback(error)

    def _teardown(self, notify_close: bool) -> None:
        self._cancel_rtx_timer()
        if self._time_wait_timer is not None:
            self._time_wait_timer.cancel()
        previous = self.state
        self.state = TcpState.CLOSED
        if self.listener is not None:
            self.listener._half_open.discard(self)
        self.stack._remove_connection(self)
        if notify_close and previous is not TcpState.CLOSED and self.on_close is not None:
            self.on_close()

    def _enter_time_wait(self) -> None:
        self.state = TcpState.TIME_WAIT
        self._cancel_rtx_timer()
        self._time_wait_timer = self.stack.scheduler.call_later(
            TIME_WAIT_SECONDS, self._teardown, True
        )

    # -- establishment ------------------------------------------------------------

    def _begin_active_open(self) -> None:
        self.state = TcpState.SYN_SENT
        self._enqueue_and_send(_QueuedSegment(_SegmentKind.SYN, self.iss))
        self.snd_nxt = seq_add(self.iss, 1)

    def _begin_passive_open(self, syn: Packet) -> None:
        """Enter SYN_RCVD in response to *syn* and send our SYN-ACK."""
        self.rcv_nxt = seq_add(syn.tcp.seq, 1)
        self.state = TcpState.SYN_RCVD
        self._enqueue_and_send(_QueuedSegment(_SegmentKind.SYN, self.iss))
        self.snd_nxt = seq_add(self.iss, 1)

    def _become_established(self) -> None:
        self.stack._count_syn_outcome("connected")
        self.state = TcpState.ESTABLISHED
        if self.listener is not None:
            self.listener._half_open.discard(self)
        pending, self._pending_send = self._pending_send, []
        for chunk in pending:
            self._transmit_data(chunk)
        if self.passive and self.listener is not None:
            self.listener._deliver(self)
        elif self.on_connected is not None:
            self.on_connected(self)

    # -- segment processing ----------------------------------------------------------

    def handle_segment(self, packet: Packet) -> None:
        """RFC-793-style per-state processing of one inbound segment."""
        header = packet.tcp
        if header.is_rst:
            self._handle_rst(header)
            return
        handler = _SEGMENT_HANDLERS.get(self.state)
        if handler is not None:
            handler(self, packet)

    def _handle_rst(self, header) -> None:
        if self.state is TcpState.CLOSED:
            return
        if self.stack.rst_seq_validation and not self._rst_acceptable(header):
            flight = getattr(self.stack.host, "flight", None)
            if flight is not None:
                # Context-free: a rejected spoof is evidence for whichever
                # session attempt it lands inside (spoofed-reset taxonomy).
                flight.record_global(
                    "tcp.rst_rejected",
                    host=self.stack.host.name,
                    local=str(self.local),
                    remote=str(self.remote),
                    seq=header.seq,
                )
            return
        if self.state is TcpState.SYN_SENT:
            self._fail(ConnectionError_("reset", "connection refused/reset during connect"))
        else:
            self._fail(ConnectionError_("reset", "connection reset by peer"))

    def _rst_acceptable(self, header) -> bool:
        """RFC 5961-style check: is this RST plausibly from our real peer?

        In SYN_SENT a legitimate refusal acknowledges our SYN (ack == ISS+1);
        synchronized states require the RST to sit exactly at ``rcv_nxt``.
        Before the peer's sequence space is known (``rcv_nxt`` is None) there
        is nothing to validate against, so the RST is accepted.
        """
        if self.state is TcpState.SYN_SENT:
            return header.has(TcpFlags.ACK) and header.ack == seq_add(self.iss, 1)
        return self.rcv_nxt is None or header.seq == self.rcv_nxt

    def _acceptable_ack(self, header) -> bool:
        return header.has(TcpFlags.ACK) and seq_ge(header.ack, seq_add(self.iss, 1)) and seq_ge(
            self.snd_nxt, header.ack
        )

    def _segment_in_syn_sent(self, packet: Packet) -> None:
        header = packet.tcp
        if header.is_syn_ack:
            if header.ack != seq_add(self.iss, 1):
                # Ghost of an old connection: refuse it (RFC 793 page 72).
                self._send_flags(TcpFlags.RST, seq=header.ack)
                return
            self.rcv_nxt = seq_add(header.seq, 1)
            self._ack_queue(header.ack)
            self._send_flags(TcpFlags.ACK)
            self._become_established()
            return
        if header.is_syn_only:
            # Simultaneous open (§4.4): reply SYN-ACK replaying our ISS.
            self.rcv_nxt = seq_add(header.seq, 1)
            self.state = TcpState.SYN_RCVD
            if self._queue and self._queue[0].kind is _SegmentKind.SYN:
                self._send_queued(self._queue[0])  # now carries ACK
                self._arm_rtx_timer()
            return
        # Pure ACKs and data in SYN_SENT are ignored (no RST: could be a
        # retransmission race through a NAT).

    def _segment_in_syn_rcvd(self, packet: Packet) -> None:
        header = packet.tcp
        if header.is_syn_only:
            # Peer retransmitted its SYN: replay our SYN-ACK.
            if self._queue and self._queue[0].kind is _SegmentKind.SYN:
                self._send_queued(self._queue[0])
            return
        if self._acceptable_ack(header):
            self._ack_queue(header.ack)
            if header.is_syn_ack:
                # Crossed simultaneous open: their SYN-ACK both acks us and
                # requires our ACK.
                self._send_flags(TcpFlags.ACK)
            self._become_established()
            # Re-process any data/FIN piggybacked on the establishing segment.
            if packet.payload or header.has(TcpFlags.FIN):
                self._segment_in_established(packet)

    def _segment_in_established(self, packet: Packet) -> None:
        header = packet.tcp
        bits = header.flags._value_
        if bits & ACK_BIT:
            self._ack_queue(header.ack)
        if packet.payload:
            self._receive_data(header.seq, packet.payload)
        if bits & FIN_BIT:
            # The FIN sits after any bytes the segment carries (RFC 793).
            self._receive_fin(seq_add(header.seq, len(packet.payload)))

    def _segment_in_time_wait(self, packet: Packet) -> None:
        if packet.tcp.has(TcpFlags.FIN):
            self._send_flags(TcpFlags.ACK)

    def _ack_queue(self, ack: int) -> None:
        if (ack - self.snd_una) % SEQ_MOD >= _SEQ_HALF:
            return
        self.snd_una = ack
        # Entries were queued in ``snd_nxt`` order, so the ones a cumulative
        # ACK covers (``seq_ge(ack, seq + length)``) are a prefix, and the
        # scan can stop at the first survivor.
        queue = self._queue
        covered = 0
        for entry in queue:
            if (ack - entry.seq - entry.length) % SEQ_MOD >= _SEQ_HALF:
                break
            covered += 1
        if covered:
            del queue[:covered]
            self._cancel_rtx_timer()
            self._arm_rtx_timer()
        if not queue:
            self._on_all_acked()

    def _on_all_acked(self) -> None:
        if self.state is TcpState.FIN_WAIT_1:
            self.state = TcpState.FIN_WAIT_2
        elif self.state is TcpState.CLOSING:
            self._enter_time_wait()
        elif self.state is TcpState.LAST_ACK:
            self._teardown(notify_close=True)

    def _receive_data(self, seq: int, payload: bytes) -> None:
        if self.rcv_nxt is None:
            return
        if seq_ge(self.rcv_nxt, seq_add(seq, len(payload))):
            self._send_flags(TcpFlags.ACK)  # pure duplicate
            return
        if seq != self.rcv_nxt:
            if seq_ge(seq, self.rcv_nxt):
                self._ooo[seq] = payload
            self._send_flags(TcpFlags.ACK)
            return
        self._deliver(payload)
        while self.rcv_nxt in self._ooo:
            self._deliver(self._ooo.pop(self.rcv_nxt))
        self._send_flags(TcpFlags.ACK)

    def _deliver(self, payload: bytes) -> None:
        self.rcv_nxt = seq_add(self.rcv_nxt, len(payload))
        self.bytes_received += len(payload)
        if self.on_data is not None:
            self.on_data(payload)

    def _receive_fin(self, fin_seq: int) -> None:
        if self.rcv_nxt is None or fin_seq != self.rcv_nxt:
            return  # FIN not yet in order
        self.rcv_nxt = seq_add(self.rcv_nxt, 1)
        self._send_flags(TcpFlags.ACK)
        if self.state is TcpState.ESTABLISHED:
            self.state = TcpState.CLOSE_WAIT
            if self.on_close is not None:
                self.on_close()
        elif self.state is TcpState.FIN_WAIT_1:
            # Our FIN unacked yet: simultaneous close.
            self.state = TcpState.CLOSING
        elif self.state is TcpState.FIN_WAIT_2:
            self._enter_time_wait()
            if self.on_close is not None:
                self.on_close()

    def _icmp_error(self, error: IcmpError) -> None:
        """ICMP error attributed to this connection's traffic."""
        if self.state is TcpState.SYN_SENT and not self.stack.icmp_validation:
            self._fail(ConnectionError_("unreachable", f"icmp {error.icmp_type.value}"))
        # Soft error otherwise (always, when hardened — RFC 1122 4.2.3.9):
        # ignored, retransmission recovers; a spoofed ICMP cannot kill the
        # connect race.

    def __repr__(self) -> str:
        return (
            f"TcpConnection({self.local} <-> {self.remote}, {self.state.value},"
            f" {'passive' if self.passive else 'active'})"
        )


#: Per-state segment processing for :meth:`TcpConnection.handle_segment`.
#: CLOSED and LISTEN are absent: a connection object in either state ignores
#: segments (the stack answers for closed ports).
_SEGMENT_HANDLERS: Dict[TcpState, Callable[[TcpConnection, Packet], None]] = {
    TcpState.SYN_SENT: TcpConnection._segment_in_syn_sent,
    TcpState.SYN_RCVD: TcpConnection._segment_in_syn_rcvd,
    TcpState.ESTABLISHED: TcpConnection._segment_in_established,
    TcpState.FIN_WAIT_1: TcpConnection._segment_in_established,
    TcpState.FIN_WAIT_2: TcpConnection._segment_in_established,
    TcpState.CLOSE_WAIT: TcpConnection._segment_in_established,
    TcpState.CLOSING: TcpConnection._segment_in_established,
    TcpState.LAST_ACK: TcpConnection._segment_in_established,
    TcpState.TIME_WAIT: TcpConnection._segment_in_time_wait,
}


class TcpListener:
    """A listening socket: accepts inbound connections on a local port."""

    def __init__(self, stack: "TcpStack", port: int, on_accept: Optional[AcceptHandler], backlog: int) -> None:
        self.stack = stack
        self.port = port
        self.backlog = backlog
        self.on_accept = on_accept
        self.closed = False
        self._accept_queue: List[TcpConnection] = []
        #: Children spawned by this listener that are still in SYN_RCVD.
        self._half_open: Set[TcpConnection] = set()
        self.accepted_count = 0

    def _deliver(self, conn: TcpConnection) -> None:
        self.accepted_count += 1
        if self.on_accept is not None:
            self.on_accept(conn)
        else:
            self._accept_queue.append(conn)

    @property
    def pending(self) -> int:
        """Half-open (SYN_RCVD) connections this listener spawned."""
        return len(self._half_open)

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self.stack._remove_listener(self)

    def __repr__(self) -> str:
        return f"TcpListener(port={self.port}, accepted={self.accepted_count})"


class _PortBinding:
    __slots__ = ("reuse", "users")

    def __init__(self, reuse: bool) -> None:
        self.reuse = reuse
        self.users = 0


class TcpStack:
    """Per-host TCP: port registry, demultiplexer, and connection factory.

    Args:
        host: the simulated host this stack serves.
        style: §4.3 dispatch style (BSD vs. listen-preferred).
        rng: source of initial sequence numbers.
    """

    def __init__(
        self,
        host: Host,
        style: TcpStyle = TcpStyle.BSD,
        rng: Optional[SeededRng] = None,
        simultaneous_open_supported: bool = True,
    ) -> None:
        self.host = host
        self.style = style
        #: RFC 5961-flavoured hardening: only honour an RST whose sequence
        #: number is exactly what we expect next (``rcv_nxt``, or in SYN_SENT
        #: an ACK of our ISS+1).  Off-path spoofed RSTs with guessed sequence
        #: numbers are ignored, each leaving a ``tcp.rst_rejected`` flight
        #: record when a flight recorder is attached.  Every in-sim
        #: legitimate RST producer passes this check, so turning it on only
        #: ever filters forged traffic.
        self.rst_seq_validation = False
        #: RFC 1122 4.2.3.9 "soft error" hardening: with this on, ICMP errors
        #: never abort a SYN_SENT connect — retransmission decides — so a
        #: spoofed ICMP cannot tear down the connect race.
        self.icmp_validation = False
        #: §4.5: "Windows hosts prior to XP Service Pack 2 did not correctly
        #: implement simultaneous TCP open".  When False, a raw SYN arriving
        #: for a socket in SYN_SENT is answered with RST instead of entering
        #: the simultaneous-open path — the breakage that motivated the
        #: sequential hole punching variant.
        self.simultaneous_open_supported = simultaneous_open_supported
        self._rng = rng or SeededRng(0, f"tcp/{host.name}")
        #: Keyed on ``(local._key, remote._key)``: plain ints hash and compare
        #: in C, where Endpoint keys cost a Python ``__hash__`` per half and,
        #: for a NAT-rewritten (equal but not identical) endpoint, ``__eq__``.
        self._connections: Dict[Tuple[int, int], TcpConnection] = {}
        self._listeners: Dict[int, TcpListener] = {}
        self._ports: Dict[int, _PortBinding] = {}
        self._next_ephemeral = 49152
        self.segments_dropped = 0
        self.rsts_sent = 0
        #: Segments re-sent after their first transmission (SYN, data, FIN).
        self.retransmits = 0
        #: Retransmission timer expiries that found live work to retry.
        self.rto_fires = 0
        # Pre-bound per-outcome counter handles ("connected", "reset",
        # "timeout", "unreachable", "address-in-use"); feeds the
        # ``tcp.syn_outcomes`` metric via :attr:`syn_outcomes`.
        self._syn_outcome_handles: Dict[str, Counter] = {}

    def _count_syn_outcome(self, outcome: str) -> None:
        handle = self._syn_outcome_handles.get(outcome)
        if handle is None:
            handle = self._syn_outcome_handles[outcome] = Counter(
                "tcp.syn_outcomes", (("outcome", outcome),)
            )
        handle.inc()

    @property
    def syn_outcomes(self) -> Dict[str, int]:
        """How connect attempts ended (outcome -> count)."""
        return {outcome: h.value for outcome, h in self._syn_outcome_handles.items()}

    @property
    def scheduler(self):
        return self.host.scheduler

    @property
    def connections(self) -> List[TcpConnection]:
        return list(self._connections.values())

    # -- port management ------------------------------------------------------

    def _bind_port(self, port: int, reuse: bool) -> int:
        if port == 0:
            port = self._allocate_ephemeral()
        binding = self._ports.get(port)
        if binding is None:
            self._ports[port] = binding = _PortBinding(reuse)
        elif not (binding.reuse and reuse):
            raise BindError(
                f"{self.host.name}: TCP port {port} in use and SO_REUSEADDR not "
                f"set on all sockets (paper §4.1)"
            )
        binding.users += 1
        return port

    def _bind_port_internal(self, port: int) -> None:
        """Reference a port on behalf of a kernel-spawned passive connection,
        which (like a real accept()ed socket) is exempt from REUSE checks."""
        binding = self._ports.get(port)
        if binding is None:
            self._ports[port] = binding = _PortBinding(reuse=True)
        binding.users += 1

    def _release_port(self, port: int) -> None:
        binding = self._ports.get(port)
        if binding is None:
            return
        binding.users -= 1
        if binding.users <= 0:
            del self._ports[port]

    def _allocate_ephemeral(self) -> int:
        for _ in range(65535 - 49152 + 1):
            port = self._next_ephemeral
            self._next_ephemeral += 1
            if self._next_ephemeral > 65535:
                self._next_ephemeral = 49152
            if port not in self._ports:
                return port
        raise BindError(f"{self.host.name}: TCP ephemeral ports exhausted")

    def port_census(self, port: int) -> Dict[str, int]:
        """Socket census for Figure 7: how many sockets share *port*."""
        conns = [c for c in self._connections.values() if c.local.port == port]
        return {
            "listeners": 1 if port in self._listeners else 0,
            "connections": len(conns),
            "active": sum(1 for c in conns if not c.passive),
            "passive": sum(1 for c in conns if c.passive),
        }

    # -- public API --------------------------------------------------------------

    def listen(
        self,
        port: int,
        on_accept: Optional[AcceptHandler] = None,
        reuse: bool = False,
        backlog: int = 16,
    ) -> TcpListener:
        """Open a listening socket on *port* (0 = ephemeral)."""
        port = self._bind_port(port, reuse)
        if port in self._listeners:
            self._release_port(port)
            raise BindError(f"{self.host.name}: TCP port {port} already listening")
        listener = TcpListener(self, port, on_accept, backlog)
        self._listeners[port] = listener
        return listener

    def connect(
        self,
        remote: Endpoint,
        local_port: int = 0,
        reuse: bool = False,
        on_connected: Optional[ConnectedHandler] = None,
        on_error: Optional[ErrorHandler] = None,
        on_data: Optional[DataHandler] = None,
    ) -> TcpConnection:
        """Begin an asynchronous active open toward *remote*.

        Returns the connection immediately; outcome arrives via callbacks.
        """
        local_port = self._bind_port(local_port, reuse)
        local = Endpoint(self.host.primary_ip, local_port)
        key = (local._key, remote._key)
        if key in self._connections:
            self._release_port(local_port)
            raise ConnectionError_(
                "address-in-use", f"connection {local}->{remote} already exists"
            )
        conn = TcpConnection(
            self, local, remote, iss=self._rng.nonce32(), passive=False
        )
        conn.on_connected = on_connected
        conn.on_error = on_error
        conn.on_data = on_data
        self._connections[key] = conn
        conn._begin_active_open()
        return conn

    # -- demultiplexing -------------------------------------------------------------

    def handle_packet(self, packet: Packet) -> None:
        header = packet.tcp
        conn = self._connections.get((packet.dst._key, packet.src._key))
        if conn is not None:
            if header.is_syn_only and conn.state is TcpState.SYN_SENT:
                if (
                    self.style is TcpStyle.LISTEN_PREFERRED
                    and self._find_listener(packet.dst.port) is not None
                ):
                    self._listen_preferred_takeover(conn, packet)
                    return
                if not self.simultaneous_open_supported:
                    # Pre-XP-SP2 behaviour (§4.5): the stack chokes on the
                    # crossing SYN and resets the nascent connection.
                    self._send_rst_for(packet)
                    conn._fail(
                        ConnectionError_(
                            "reset", "stack cannot handle simultaneous open"
                        )
                    )
                    return
            conn.handle_segment(packet)
            return
        if header.is_syn_only:
            listener = self._find_listener(packet.dst.port)
            if listener is not None and listener.pending < listener.backlog:
                self._spawn_passive(listener, packet)
                return
        if not header.is_rst:
            self._send_rst_for(packet)
        else:
            self.segments_dropped += 1

    def _find_listener(self, port: int) -> Optional[TcpListener]:
        listener = self._listeners.get(port)
        if listener is not None and not listener.closed:
            return listener
        return None

    def _spawn_passive(self, listener: TcpListener, syn: Packet, iss: Optional[int] = None) -> None:
        local = Endpoint(self.host.primary_ip, syn.dst.port)
        conn = TcpConnection(
            self,
            local,
            syn.src,
            iss=self._rng.nonce32() if iss is None else iss,
            passive=True,
            listener=listener,
        )
        self._bind_port_internal(local.port)  # kernel-spawned: bypasses REUSE check
        self._connections[(local._key, syn.src._key)] = conn
        listener._half_open.add(conn)
        conn._begin_passive_open(syn)

    def _listen_preferred_takeover(self, active: TcpConnection, syn: Packet) -> None:
        """§4.3 behaviour 2: the listener claims the 4-tuple; the in-flight
        connect() fails with "address in use".

        The passive connection adopts the active one's ISS so the SYN-ACK
        on the wire replays the same sequence number (see module docstring).
        """
        listener = self._find_listener(syn.dst.port)
        adopted_iss = active.iss
        error = ConnectionError_(
            "address-in-use",
            "endpoint pair claimed by accepted connection (paper §4.3)",
        )
        callback = active.on_error
        active.error = error
        self._count_syn_outcome(error.reason)
        active._teardown(notify_close=False)
        self._spawn_passive(listener, syn, iss=adopted_iss)
        if callback is not None:
            callback(error)

    def _send_rst_for(self, packet: Packet) -> None:
        """RFC 793: refuse a segment for a non-existent connection."""
        self.rsts_sent += 1
        header = packet.tcp
        if header.has(TcpFlags.ACK):
            rst = tcp_packet(packet.dst, packet.src, TcpFlags.RST, seq=header.ack)
        else:
            ack = seq_add(header.seq, (1 if header.has(TcpFlags.SYN) else 0) + len(packet.payload))
            rst = tcp_packet(packet.dst, packet.src, RST_ACK, seq=0, ack=ack)
        self.host.send(rst)

    def handle_icmp(self, error: IcmpError) -> None:
        conn = self._connections.get(
            (error.original_src._key, error.original_dst._key)
        )
        if conn is not None:
            conn._icmp_error(error)

    # -- bookkeeping ----------------------------------------------------------------

    def _remove_connection(self, conn: TcpConnection) -> None:
        key = (conn.local._key, conn.remote._key)
        if self._connections.get(key) is conn:
            del self._connections[key]
            self._release_port(conn.local.port)

    def _remove_listener(self, listener: TcpListener) -> None:
        if self._listeners.get(listener.port) is listener:
            del self._listeners[listener.port]
            self._release_port(listener.port)
