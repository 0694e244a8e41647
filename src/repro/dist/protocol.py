"""The coordinator/worker wire: length-prefixed JSON frames over TCP.

One frame is a 4-byte big-endian unsigned header giving the payload's
length, followed by that many payload bytes: UTF-8 JSON encoding one
message object.  Messages are plain dicts with a ``type`` field:

worker -> coordinator
    ``hello``       {type, worker, protocol}
    ``request``     {type}                      ask for a lease
    ``heartbeat``   {type, lease}               this connection is
                                                alive: extends every
                                                lease it holds
    ``result-part`` {type, lease,               a completed unit's
                     records: [RunRecord JSON]}    record, streamed
                                                   mid-lease
    ``result``      {type, lease,               settle the lease
                     failed: [{key, error}, ...], elapsed_s}
    ``release``     {type, lease}               hand back an unstarted
                                                prefetched lease
                                                (drain/bye)
    ``bye``         {type}                      leaving voluntarily

coordinator -> worker
    ``welcome``    {type, protocol, units_total}
    ``lease``      {type, lease, deadline_s, units: [WorkUnit JSON, ...]}
    ``beat``       {type, lease, held}          heartbeat reply for the
                                                named lease;
                                                held=False means the
                                                lease expired and was
                                                reassigned — the worker
                                                must discard in-flight
                                                work for it
    ``wait``       {type, retry_s}              no work *right now*
    ``done``       {type}                       campaign complete
    ``error``      {type, message}              fatal, close connection

There is one protocol version, :data:`PROTOCOL_VERSION`, and no
negotiation: ``hello`` and ``welcome`` each carry it, a coordinator
answers any other ``protocol`` value (or none) with ``error`` and
drops the connection, and a worker refuses any other ``welcome``.
Each thing is sent once: records travel only in ``result-part``, a
lease settles in one ``result``, and one heartbeat per completed unit
keeps every lease of its connection alive.

All correctness still lives in content keys — a frame can be lost,
duplicated or replayed and the merge stays exact.

Version history: v1 had fire-and-forget heartbeats and no ``failed``
list; v2 acknowledged every heartbeat with ``beat`` and reported
per-unit failures; v3 added frame compression, incremental
``result-part`` streaming, pipelined lease prefetch with explicit
``release``, and a worker-reported ``elapsed_s`` feeding the
coordinator's adaptive lease sizing; v4 (current) dropped compression
and the ``records`` field of ``result``, and lets a heartbeat extend
every lease its connection holds, so a worker no longer heartbeats its
buffered prefetched lease separately.  Only v4 is served.

The framing primitives are fault-injection sites (see
:mod:`repro.faults`): ``socket.send`` can drop a frame, send a partial
frame then reset, delay, or write garbage; ``socket.recv`` can reset,
delay, or feed garbage into the decoder.  Injected failures surface as
the same exceptions real ones do, so the hardening they exercise is
exactly the production code path.
"""

from __future__ import annotations

import json
import socket
import struct
import time
from dataclasses import dataclass

from ..errors import ProtocolError
from ..faults.runtime import fault_at

#: The one version both ends speak; bump on any incompatible message
#: change.
PROTOCOL_VERSION = 4

#: Hard per-frame ceiling on the payload length.  It is below 2**31, so
#: a header with its top bit set is refused as oversized.
MAX_FRAME = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")

#: Bytes injected by the ``garbage`` fault kinds: a length prefix far
#: beyond MAX_FRAME, so the receiving decoder rejects the stream with a
#: typed ProtocolError instead of stalling on a bogus frame.
_GARBAGE = b"\xff\xff\xff\xff\xfe\xed\xfa\xce"


@dataclass
class WireStats:
    """Frame and byte accounting for one endpoint.

    ``raw`` counts payload bytes (what the protocol *means*); ``wire``
    counts header+payload bytes actually moved (what the network
    *carries*): 4 bytes more per frame, unless a ``garbage`` fault
    replaced the frame.  The coordinator aggregates one of these across
    all connections for the ``--dist`` progress UI; benchmarks read
    them directly.
    """

    frames_out: int = 0
    frames_in: int = 0
    raw_out: int = 0
    wire_out: int = 0
    raw_in: int = 0
    wire_in: int = 0

    def note_out(self, raw: int, wire: int) -> None:
        self.frames_out += 1
        self.raw_out += raw
        self.wire_out += wire

    def note_in(self, raw: int, wire: int) -> None:
        self.frames_in += 1
        self.raw_in += raw
        self.wire_in += wire

    def summary(self) -> str:
        frames = self.frames_out + self.frames_in
        wire = self.wire_out + self.wire_in
        return f"{frames} frames, {wire / 1024.0:.1f} KiB"


def speaks_protocol(message: dict) -> bool:
    """Whether a ``hello`` or ``welcome`` carries exactly
    :data:`PROTOCOL_VERSION`.  The check is by type as well as value:
    ``True`` and ``4.0`` compare equal to an int but are not one."""
    version = message.get("protocol")
    return type(version) is int and version == PROTOCOL_VERSION


def nodelay(sock: socket.socket) -> socket.socket:
    """Turn off Nagle's algorithm on a dist TCP socket; returns it.

    Each unit a worker completes goes out as two small writes (its
    ``result-part``, then a ``heartbeat``) followed by a blocking read
    of the ``beat`` ack.  With Nagle on, the second write waits for the
    first one's ACK, which the peer's delayed-ACK timer may hold for
    tens of milliseconds: one idle stall per unit.  Called wherever the
    dist layer opens a TCP connection (accept, connect, reconnect);
    AF_UNIX socketpairs have no Nagle and do not accept the option.
    """
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def encode_frame(message: dict) -> bytes:
    """One message as bytes ready for ``sendall``."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds MAX_FRAME "
            f"({MAX_FRAME})"
        )
    return _HEADER.pack(len(payload)) + payload


def send_message(
    sock: socket.socket,
    message: dict,
    stats: WireStats | None = None,
) -> None:
    """Send one framed message (blocking).

    Fault site ``socket.send`` (token: the message ``type``): ``drop``
    loses the frame silently, ``partial`` writes half the frame then
    resets the connection, ``delay`` sleeps ``delay_s`` before sending,
    ``garbage`` replaces the frame with undecodable bytes.
    """
    frame = encode_frame(message)
    raw = len(frame) - _HEADER.size
    event = fault_at("socket.send", token=message.get("type"))
    if event is not None:
        if event.kind == "drop":
            return
        if event.kind == "partial":
            with _ignore_oserror():
                sock.sendall(frame[: max(1, len(frame) // 2)])
                sock.shutdown(socket.SHUT_RDWR)
            raise ConnectionResetError(
                f"injected partial frame ({event.site}, token "
                f"{event.token!r})"
            )
        if event.kind == "delay":
            time.sleep(float(event.param("delay_s", 0.05)))
        elif event.kind == "garbage":
            frame = _GARBAGE
    if stats is not None:
        stats.note_out(raw, len(frame))
    sock.sendall(frame)


class _ignore_oserror:
    """Tiny context manager: best-effort socket teardown during an
    injected reset must not mask the injection itself."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is not None and issubclass(exc_type, OSError)


class FrameDecoder:
    """Incremental frame decoder for one connection.

    Feed raw bytes as they arrive; complete messages come back in
    order.  Tolerates frames split across arbitrarily many reads and
    multiple frames per read.
    """

    def __init__(self, stats: WireStats | None = None) -> None:
        self._buffer = bytearray()
        self.stats = stats
        #: Frames decoded but not yet consumed by :func:`recv_message`
        #: (a peer may legitimately send two frames back-to-back, e.g. a
        #: lease reply followed by a broadcast ``done``).
        self.pending: list[dict] = []

    def feed(self, data: bytes) -> list[dict]:
        self._buffer.extend(data)
        messages = []
        while True:
            if len(self._buffer) < _HEADER.size:
                return messages
            (length,) = _HEADER.unpack_from(self._buffer)
            if length > MAX_FRAME:
                raise ProtocolError(
                    f"frame length {length} exceeds MAX_FRAME "
                    f"({MAX_FRAME}); stream is garbage or hostile"
                )
            end = _HEADER.size + length
            if len(self._buffer) < end:
                return messages
            payload = bytes(self._buffer[_HEADER.size:end])
            del self._buffer[:end]
            if self.stats is not None:
                self.stats.note_in(length, end)
            try:
                message = json.loads(payload.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(
                    f"undecodable frame payload: {exc}"
                ) from exc
            if not isinstance(message, dict) or "type" not in message:
                raise ProtocolError(
                    f"frame is not a typed message: {message!r}"
                )
            messages.append(message)


def recv_message(
    sock: socket.socket, decoder: FrameDecoder
) -> dict | None:
    """Block until one complete message arrives (None on clean EOF).

    The worker-side convenience: reads into ``decoder`` until it yields
    a frame.  Frames beyond the first queue on ``decoder.pending`` and
    are returned by subsequent calls without touching the socket.

    Fault site ``socket.recv``: ``drop`` resets the connection,
    ``delay`` sleeps before reading, ``garbage`` feeds undecodable
    bytes to the decoder (surfacing as a ProtocolError).
    """
    if decoder.pending:
        return decoder.pending.pop(0)
    event = fault_at("socket.recv")
    if event is not None:
        if event.kind == "drop":
            raise ConnectionResetError(
                f"injected connection reset on recv (draw {event.draw})"
            )
        if event.kind == "delay":
            time.sleep(float(event.param("delay_s", 0.05)))
        elif event.kind == "garbage":
            decoder.feed(_GARBAGE)  # raises ProtocolError
    while True:
        try:
            data = sock.recv(65536)
        except (TimeoutError, socket.timeout) as exc:
            raise ProtocolError(
                "timed out waiting for a frame"
            ) from exc
        if not data:
            return None
        messages = decoder.feed(data)
        if messages:
            decoder.pending.extend(messages[1:])
            return messages[0]
