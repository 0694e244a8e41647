"""The socket worker: lease, execute, stream, prefetch — and survive.

``run_worker`` connects to a coordinator, executes whatever work units
it is leased (through the same executor registry the local pool uses,
so any machine with the library importable can serve any unit kind),
and streams the records back.  The loop is *pipelined*: as soon as a
lease's units begin executing the worker requests the next lease, so
the grant's network latency overlaps compute instead of serialising
with it — one prefetched lease at most, heartbeats covering both held
leases, and an explicit ``release`` handing an unstarted prefetch back
on drain.  Each completed unit ships immediately as a ``result-part``
frame (cutting peak frame size and tail latency); the final ``result``
frame carries the failures and the lease's ``elapsed_s``, which feeds
the coordinator's adaptive lease sizing.

One heartbeat round-trip happens per completed unit: the coordinator
acknowledges with ``beat`` and ``held=False`` means the lease expired
and was reassigned, in which case the worker **discards its in-flight
work** — the reassignment already owns those units, and reporting
stale results would only burn bandwidth on duplicates the merge drops
anyway.

Failure handling is explicit at every layer:

* a unit whose executor raises is reported in the result's ``failed``
  list (charging its coordinator-side attempt budget) instead of
  killing the worker — one poison unit costs one attempt, not a fleet
  member;
* a lost connection (coordinator crash, injected reset, garbage on the
  wire) triggers reconnect with exponential backoff and deterministic
  jitter, re-hello, and resumed leasing; results that were in flight
  when the connection died are resent after the handshake and merge
  idempotently.  ``reconnect_timeout`` bounds the total outage ridden
  out (0 disables reconnection: any loss is immediately fatal);
* ``drain_check`` (wired to SIGTERM by :func:`main`) requests a
  graceful exit: the worker stops starting units, reports what it
  finished, releases its prefetched lease and leaves the rest of the
  current lease unreported — the coordinator re-pends those *without*
  charging their budgets — and says ``bye``.  A worker in reconnect
  backoff has no connection to say it on and simply returns.

Fault sites here: ``worker.heartbeat`` (kind ``drop``) loses a beat on
the floor, and ``worker.prefetch`` can ``skip`` the pipelined request
(falling back to the blocking path) or ``delay`` it.

:func:`main` is the worker's command line, run as ``python -m
repro.dist`` (what :func:`~repro.dist.submit.worker_command` spawns)
and as the ``repro worker`` subcommand.
"""

from __future__ import annotations

import argparse
import math
import os
import select
import signal
import socket
import sys
import time
from typing import Callable, Sequence

from ..errors import (
    ProtocolError,
    ReproError,
    ResultHookError,
    WorkerExitError,
)
from ..faults.runtime import PLAN_ENV, ROLE_ENV, fault_at
from ..parallel.executor import SERIAL, ParallelConfig, jobs_arg
from ..parallel.plan import WorkUnit, execute_unit, run_units
from ..rng import derive_seed
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    WireStats,
    nodelay,
    recv_message,
    send_message,
    speaks_protocol,
)

#: Blocking-socket timeout; also the hang detector for a coordinator
#: that stops responding entirely.
SOCKET_TIMEOUT_S = 60.0

#: Ceiling on a server-supplied ``wait`` retry interval.  The value
#: arrives over the network; a corrupted or hostile frame must not be
#: able to park a worker for an hour (or forever, via ``inf``/``nan``).
RETRY_MAX_S = 5.0

#: Reconnect backoff: base * 2**attempt, capped, then jittered.
BACKOFF_BASE_S = 0.1
BACKOFF_CAP_S = 5.0

_CONNECT_RETRY_S = 0.1

#: Default total outage a worker rides out before giving up.
RECONNECT_TIMEOUT_S = 30.0

#: How often a worker in reconnect backoff polls ``drain_check``.
_DRAIN_POLL_S = 0.1


class _ConnectionLost(Exception):
    """Internal: the coordinator connection died mid-session.  The
    outer loop decides whether that means reconnect or fatal exit."""


def clamp_retry_s(value: object) -> float:
    """Validate a server-supplied ``retry_s`` (satellite of the fault
    plane: every network-supplied number gets bounds).  Non-numeric or
    non-finite values raise :class:`~repro.errors.ProtocolError`;
    finite values clamp into ``[0, RETRY_MAX_S]``."""
    try:
        retry = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(
            f"non-numeric retry_s {value!r} in wait message"
        ) from exc
    if not math.isfinite(retry):
        raise ProtocolError(
            f"non-finite retry_s {retry!r} in wait message"
        )
    return min(max(retry, 0.0), RETRY_MAX_S)


def backoff_delay(name: str, attempt: int) -> float:
    """Reconnect pause before ``attempt`` (0-based): exponential in the
    attempt, capped, with deterministic jitter derived from the worker
    name — a fleet sharing one dead coordinator fans out instead of
    thundering back in lockstep, yet every run of the same worker
    produces the same schedule (the chaos determinism contract)."""
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** attempt))
    jitter = derive_seed(0, "worker-backoff", name, attempt) / float(2 ** 64)
    return base * (0.5 + 0.5 * jitter)


def _connect_retry(
    host: str, port: int, connect_timeout: float
) -> socket.socket:
    """Dial the coordinator, retrying refused connections until
    ``connect_timeout`` elapses (workers routinely start before the
    coordinator has bound)."""
    deadline = time.monotonic() + connect_timeout
    while True:
        try:
            return nodelay(
                socket.create_connection((host, port), timeout=connect_timeout)
            )
        except OSError as exc:
            if time.monotonic() >= deadline:
                raise WorkerExitError(
                    f"could not reach coordinator at {host}:{port} "
                    f"within {connect_timeout:g}s: {exc}"
                ) from exc
            time.sleep(_CONNECT_RETRY_S)


def _drain_during(
    pause: float, drain_check: Callable[[], bool] | None
) -> bool:
    """Sleep ``pause`` seconds unless a drain is requested first;
    True when it was.  The flag is read before, during and at the end
    of the pause, so a reconnect attempt never starts after a drain
    request."""
    deadline = time.monotonic() + pause
    while True:
        if drain_check is not None and drain_check():
            return True
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return False
        time.sleep(min(remaining, _DRAIN_POLL_S))


class _WorkerState:
    """What survives a reconnect: progress count and unconfirmed
    result messages awaiting resend."""

    def __init__(self) -> None:
        self.executed = 0
        self.resend: list[dict] = []


class WorkerStats:
    """Observable counters one ``run_worker`` call accumulates across
    reconnects — what the protocol benchmark measures.

    ``blocking_grants`` counts request round-trips the worker had to
    *wait* for (idle on the wire); ``prefetched_grants`` counts grants
    whose request was pipelined behind execution.  ``wait_sleeps``
    counts ``wait`` grants: each parks the worker on its socket for up
    to ``retry_s``, and a ``done`` (or a closed connection) ends the
    park early.  The name predates the socket wait and is kept because
    it is a key of the protocol benchmark's records.  ``wire`` carries
    the raw-vs-compressed byte accounting for every frame either way.
    """

    def __init__(self) -> None:
        self.executed = 0
        self.blocking_grants = 0
        self.prefetched_grants = 0
        self.wait_sleeps = 0
        self.parts_sent = 0
        self.leases_served = 0
        self.wire = WireStats()


def run_worker(
    host: str,
    port: int,
    name: str = "worker",
    jobs: int = 1,
    max_units: int | None = None,
    delay: float = 0.0,
    connect_timeout: float = 10.0,
    reconnect_timeout: float = RECONNECT_TIMEOUT_S,
    drain_check: Callable[[], bool] | None = None,
    log: Callable[[str], None] | None = None,
    stats: WorkerStats | None = None,
) -> int:
    """Serve one coordinator until it says ``done``; returns the number
    of units this worker executed.

    * ``jobs`` — process-pool width for executing each lease's units
      (1 = in the worker process itself);
    * ``max_units`` — leave voluntarily (``bye``) after this many units,
      for exercising worker churn;
    * ``delay`` — sleep this long before each lease's execution, for
      simulating stragglers in tests;
    * ``connect_timeout`` — how long to keep retrying the initial
      connect;
    * ``reconnect_timeout`` — total mid-campaign outage to ride out via
      backoff-and-reconnect before giving up (0 = fail immediately on
      any loss);
    * ``drain_check`` — polled between units and during reconnect
      backoff; True requests a graceful drain (finish nothing new,
      release the leases, say ``bye``; in backoff, just return);
    * ``stats`` — a :class:`WorkerStats` to fill with grant/wire
      counters (benchmarks and tests).

    A connection irrecoverably lost before ``done`` raises
    :class:`~repro.errors.WorkerExitError` — the coordinator crashed or
    fenced this worker off; either way the worker cannot know the
    campaign finished.
    """
    log = log or (lambda message: None)
    config = SERIAL if jobs <= 1 else ParallelConfig(jobs=jobs)
    state = _WorkerState()
    stats = stats if stats is not None else WorkerStats()
    first = True
    outage_start: float | None = None
    attempt = 0
    try:
        while True:
            try:
                if first:
                    sock = _connect_retry(host, port, connect_timeout)
                    first = False
                else:
                    try:
                        sock = nodelay(
                            socket.create_connection(
                                (host, port), timeout=SOCKET_TIMEOUT_S
                            )
                        )
                    except OSError as exc:
                        raise _ConnectionLost(
                            f"reconnect refused: {exc}"
                        ) from exc

                def connected() -> None:
                    nonlocal outage_start, attempt
                    if outage_start is not None:
                        log(
                            f"{name}: reconnected after {attempt} "
                            "attempt(s)"
                        )
                    outage_start = None
                    attempt = 0

                session = _Session(
                    sock,
                    name=name,
                    config=config,
                    state=state,
                    max_units=max_units,
                    delay=delay,
                    drain_check=drain_check,
                    connected=connected,
                    log=log,
                    stats=stats,
                )
                return session.run()
            except _ConnectionLost as exc:
                if reconnect_timeout <= 0:
                    raise WorkerExitError(
                        f"{name}: coordinator vanished mid-campaign "
                        f"(connection closed without done): {exc}"
                    ) from exc
                now = time.monotonic()
                if outage_start is None:
                    outage_start = now
                if now - outage_start >= reconnect_timeout:
                    raise WorkerExitError(
                        f"{name}: coordinator unreachable for "
                        f"{reconnect_timeout:g}s ({attempt} reconnect "
                        f"attempt(s)): {exc}"
                    ) from exc
                pause = backoff_delay(name, attempt)
                attempt += 1
                log(
                    f"{name}: connection lost ({exc}); reconnect attempt "
                    f"{attempt} in {pause:.2f}s"
                )
                if _drain_during(pause, drain_check):
                    log(
                        f"{name}: draining on request while reconnecting; "
                        f"executed {state.executed} units"
                    )
                    return state.executed
    finally:
        stats.executed = state.executed


class _Session:
    """One connection's lifetime: handshake, resend, pipelined lease
    loop.

    The session owns the pipelining state:

    * ``prefetch`` — a granted-but-unstarted ``lease`` message,
      buffered while the current lease executes (at most one);
    * ``prefetch_pending`` — a ``request`` is on the wire and its reply
      has not been read yet (it will be routed off the socket by
      whichever read sees it first);
    * ``done_seen`` — a ``done`` arrived out-of-band (broadcast, or in
      place of a grant): the campaign is complete, nothing further may
      be sent.

    :meth:`run` raises :class:`_ConnectionLost` on any socket-level
    failure so the caller can reconnect, and
    :class:`~repro.errors.WorkerExitError` on deliberate refusal.
    """

    def __init__(
        self,
        sock: socket.socket,
        name: str = "worker",
        config: ParallelConfig = SERIAL,
        state: _WorkerState | None = None,
        max_units: int | None = None,
        delay: float = 0.0,
        drain_check: Callable[[], bool] | None = None,
        connected: Callable[[], None] | None = None,
        log: Callable[[str], None] | None = None,
        stats: WorkerStats | None = None,
    ) -> None:
        self.sock = sock
        self.name = name
        self.config = config
        self.state = state if state is not None else _WorkerState()
        self.max_units = max_units
        self.delay = delay
        self.drain_check = drain_check
        self.connected = connected or (lambda: None)
        self.log = log or (lambda message: None)
        self.stats = stats if stats is not None else WorkerStats()
        self.decoder = FrameDecoder(stats=self.stats.wire)
        self.prefetch: dict | None = None
        self.prefetch_pending = False
        self.done_seen = False

    # -- wire helpers ---------------------------------------------------
    def _send(self, message: dict) -> None:
        send_message(self.sock, message, stats=self.stats.wire)

    def _recv(self) -> dict:
        reply = recv_message(self.sock, self.decoder)
        if reply is None:
            raise _ConnectionLost("connection closed by coordinator")
        return reply

    # -- lifecycle ------------------------------------------------------
    def run(self) -> int:
        try:
            self.sock.settimeout(SOCKET_TIMEOUT_S)
            self._handshake()
            self._resend_stash()
            return self._lease_loop()
        except (WorkerExitError, _ConnectionLost):
            raise
        except ProtocolError as exc:
            # Garbage on the wire (real or injected): this connection
            # is unusable, but a fresh one may be fine.
            raise _ConnectionLost(f"protocol failure: {exc}") from exc
        except OSError as exc:
            raise _ConnectionLost(str(exc)) from exc
        finally:
            self.sock.close()

    def _handshake(self) -> None:
        self._send(
            {"type": "hello", "worker": self.name, "protocol": PROTOCOL_VERSION}
        )
        welcome = recv_message(self.sock, self.decoder)
        if welcome is None:
            raise _ConnectionLost(
                "coordinator closed the connection during handshake"
            )
        if welcome["type"] == "error":
            raise WorkerExitError(
                f"coordinator refused {self.name}: "
                f"{welcome.get('message')}"
            )
        if welcome["type"] != "welcome":
            raise ProtocolError(
                f"expected welcome, got {welcome['type']!r}"
            )
        if not speaks_protocol(welcome):
            raise ProtocolError(
                f"coordinator speaks protocol {welcome.get('protocol')!r}, "
                f"not {PROTOCOL_VERSION}"
            )
        self.connected()
        self.log(
            f"{self.name}: connected to coordinator "
            f"({welcome.get('units_total')} units in plan)"
        )

    def _resend_stash(self) -> None:
        while self.state.resend:
            # Unconfirmed results from before a reconnect: the merge is
            # idempotent, so resending can only fill holes, never harm.
            message = self.state.resend[0]
            self.log(
                f"{self.name}: resending result for lease "
                f"{message.get('lease')} after reconnect"
            )
            self._send(message)
            self.state.resend.pop(0)

    def _lease_loop(self) -> int:
        while True:
            if self.drain_check is not None and self.drain_check():
                return self._retire(
                    f"draining on request; executed "
                    f"{self.state.executed} units"
                )
            if (
                self.max_units is not None
                and self.state.executed >= self.max_units
            ):
                return self._retire(
                    f"leaving after {self.state.executed} units "
                    "(--max-units)"
                )
            grant = self._obtain_grant()
            kind = grant["type"]
            if kind == "done":
                self.done_seen = True
            elif kind == "wait":
                self.stats.wait_sleeps += 1
                self._park(clamp_retry_s(grant.get("retry_s", 0.5)))
            elif kind == "lease":
                self.state.executed += self._serve_lease(grant)
            else:
                raise ProtocolError(f"unexpected message {kind!r}")
            if self.done_seen:
                self.log(
                    f"{self.name}: campaign complete; executed "
                    f"{self.state.executed} units"
                )
                return self.state.executed

    def _retire(self, reason: str) -> int:
        """Graceful exit: flush the outstanding prefetch (releasing an
        unstarted grant so the coordinator re-pends it immediately and
        without charge) and say ``bye``."""
        if self.prefetch_pending:
            self.prefetch_pending = False
            reply = self._await_grant()
            if reply["type"] == "lease":
                self.prefetch = reply
            elif reply["type"] == "done":
                self.done_seen = True
        if self.prefetch is not None:
            if not self.done_seen:
                self._send(
                    {"type": "release", "lease": self.prefetch["lease"]}
                )
                self.log(
                    f"{self.name}: released unstarted prefetched lease "
                    f"{self.prefetch['lease']}"
                )
            self.prefetch = None
        if not self.done_seen:
            self._send({"type": "bye"})
        self.log(f"{self.name}: {reason}")
        return self.state.executed

    # -- grants ---------------------------------------------------------
    def _obtain_grant(self) -> dict:
        """The next lease/wait/done, consuming the pipelined request
        when one is outstanding instead of paying a fresh round trip."""
        if self.prefetch is not None:
            grant = self.prefetch
            self.prefetch = None
            self.stats.prefetched_grants += 1
            return grant
        if self.prefetch_pending:
            # The request went out while the last lease executed; only
            # the reply read blocks here.
            self.prefetch_pending = False
            self.stats.prefetched_grants += 1
            return self._await_grant()
        self._send({"type": "request"})
        self.stats.blocking_grants += 1
        return self._await_grant()

    def _await_grant(self) -> dict:
        while True:
            reply = self._recv()
            kind = reply["type"]
            if kind in ("lease", "wait", "done"):
                return reply
            if kind == "beat":
                continue  # stale ack from an already-settled lease
            if kind == "error":
                raise WorkerExitError(
                    f"coordinator error: {reply.get('message')}"
                )
            raise ProtocolError(
                f"unexpected message {kind!r} while awaiting a lease"
            )

    def _park(self, retry_s: float) -> None:
        """Honour a ``wait`` grant by waiting on the socket, not asleep:
        a ``done`` broadcast ends the wait at once (``done_seen``) and a
        closed connection raises :class:`_ConnectionLost`; ``retry_s``
        of silence means the lease loop asks again.

        No request is outstanding and every heartbeat ack preceded the
        ``wait`` on the stream, so ``done`` is the only frame that can
        arrive here."""
        if self.decoder.pending or select.select(
            [self.sock], [], [], retry_s
        )[0]:
            kind = self._recv()["type"]
            if kind != "done":
                raise ProtocolError(
                    f"unexpected message {kind!r} while waiting to retry"
                )
            self.done_seen = True

    def _maybe_prefetch(self, lease_id: int) -> None:
        """Pipeline the next request behind the current lease's
        execution (at most one outstanding).

        Fault site ``worker.prefetch``: ``skip`` falls back to the
        blocking request path for this lease, ``delay`` stalls the
        request send."""
        if self.prefetch is not None or self.prefetch_pending:
            return
        event = fault_at("worker.prefetch", token=lease_id)
        if event is not None:
            if event.kind == "skip":
                self.log(
                    f"{self.name}: prefetch after lease {lease_id} "
                    "skipped (injected)"
                )
                return
            if event.kind == "delay":
                time.sleep(float(event.param("delay_s", 0.05)))
        self._send({"type": "request"})
        self.prefetch_pending = True

    # -- heartbeats -----------------------------------------------------
    def _send_heartbeat(self, lease_id: int) -> bool:
        """Send one heartbeat; False when it was lost on the floor and
        no ack will come.

        Fault site ``worker.heartbeat`` (kind ``drop``) loses the beat
        entirely — the worker believes the lease is alive while the
        coordinator watches it expire, which is exactly the split-brain
        the ``held=False`` discard protocol exists for.
        """
        event = fault_at("worker.heartbeat", token=lease_id)
        if event is not None and event.kind == "drop":
            self.log(
                f"{self.name}: heartbeat for lease {lease_id} dropped "
                "(injected)"
            )
            return False
        self._send({"type": "heartbeat", "lease": lease_id})
        return True

    def _heartbeat(self, lease_id: int) -> bool:
        """One heartbeat round-trip; False means this lease is gone (or
        the campaign finished) and in-flight work for it must be
        discarded.  A dropped beat reads as held."""
        if not self._send_heartbeat(lease_id):
            return True
        return self._await_beat(lease_id)

    def _await_beat(self, lease_id: int) -> bool:
        """Read until the ack for ``lease_id`` arrives, routing
        whatever else the coordinator interleaved: the pipelined grant
        reply is buffered, a ``done`` broadcast ends the campaign
        (returned as lease-lost so in-flight work stops)."""
        while True:
            reply = self._recv()
            kind = reply["type"]
            if kind == "beat":
                if reply.get("lease", lease_id) == lease_id:
                    return bool(reply.get("held", True))
                continue  # ack for the other held lease, already acted on
            if kind == "done":
                self.done_seen = True
                return False
            if kind in ("lease", "wait") and self.prefetch_pending:
                self._route_prefetch_reply(reply)
                continue
            if kind == "error":
                raise WorkerExitError(
                    f"coordinator error: {reply.get('message')}"
                )
            raise ProtocolError(
                f"unexpected message {kind!r} while awaiting heartbeat "
                "ack"
            )

    def _route_prefetch_reply(self, reply: dict) -> None:
        self.prefetch_pending = False
        if reply["type"] == "lease":
            self.prefetch = reply
        # ``wait``: nothing pending coordinator-side right now; the
        # lease loop will issue a fresh (blocking) request when the
        # current lease finishes.

    def _beat_both(self, lease_id: int) -> bool:
        """Heartbeat the executing lease and, when granted, the
        buffered prefetched lease; False means the *current* lease is
        gone.  A prefetched grant that expired is silently dropped —
        its units were already reassigned."""
        if not self._heartbeat(lease_id):
            return False
        if self.prefetch is not None and not self.done_seen:
            prefetched_id = self.prefetch.get("lease", -1)
            if not self._heartbeat(prefetched_id):
                if not self.done_seen:
                    self.log(
                        f"{self.name}: prefetched lease "
                        f"{prefetched_id} lost while buffered; "
                        "discarding the grant"
                    )
                self.prefetch = None
        return True

    # -- lease execution ------------------------------------------------
    def _stream(self, lease_id: int, record) -> None:
        """Ship one completed unit's record as a ``result-part``."""
        self._send(
            {
                "type": "result-part",
                "lease": lease_id,
                "records": [record.to_json()],
            }
        )
        self.stats.parts_sent += 1

    def _serve_lease(self, message: dict) -> int:
        """Execute one lease; returns how many of its units produced a
        record.  A lease lost mid-way sends no ``result`` and counts
        only the records already streamed, which merged; the rest
        belongs to the lease's new holder."""
        lease_id = message["lease"]
        units = [WorkUnit.from_json(obj) for obj in message["units"]]
        started = time.monotonic()
        self._maybe_prefetch(lease_id)
        if self.delay > 0:
            time.sleep(self.delay)
        parts_before = self.stats.parts_sent
        if not self.config.serial and len(units) > 1:
            outcome = self._execute_pooled(lease_id, units)
        else:
            outcome = self._execute_serial(lease_id, units)
        streamed = self.stats.parts_sent - parts_before
        if outcome is None:
            if not self.done_seen:
                # Campaign not over: the lease expired and was
                # reassigned, so its failure reports are stale.
                self.log(
                    f"{self.name}: lease {lease_id} no longer held; "
                    "discarding its in-flight work"
                )
            return streamed
        records, failed = outcome
        result = {
            "type": "result",
            "lease": lease_id,
            "records": [record.to_json() for record in records],
            "failed": failed,
            "elapsed_s": time.monotonic() - started,
        }
        try:
            self._send(result)
        except OSError as exc:
            # The coordinator will re-pend this lease on EOF; stash the
            # result so the reconnect resends it (idempotent merge).
            self.state.resend.append(result)
            raise _ConnectionLost(
                f"connection lost sending result for lease {lease_id}: "
                f"{exc}"
            ) from exc
        self.stats.leases_served += 1
        self.log(
            f"{self.name}: lease {lease_id} done "
            f"({streamed + len(records)} records, {len(failed)} failed)"
        )
        return streamed + len(records)

    def _execute_serial(
        self, lease_id: int, units: list[WorkUnit]
    ) -> tuple[list, list[dict]] | None:
        """Execute a lease unit by unit in this process, streaming each
        record and heartbeating after each unit.  Returns the records
        for the final ``result`` (none: all streamed) and the failure
        reports, or None when the lease was lost.  A drain request
        stops before the next unit; the coordinator re-pends the
        unreported rest without charge."""
        failed: list[dict] = []
        for position, unit in enumerate(units):
            if self.drain_check is not None and self.drain_check():
                self.log(
                    f"{self.name}: draining; releasing "
                    f"{len(units) - position} unexecuted unit(s) of "
                    f"lease {lease_id}"
                )
                break
            try:
                record = execute_unit(unit)
            except Exception as exc:
                failed.append(_failure(unit, exc))
                self.log(f"{self.name}: unit {unit.key!r} failed: {exc}")
            else:
                self._stream(lease_id, record)
            if not self._beat_both(lease_id):
                return None
        return [], failed

    def _execute_pooled(
        self, lease_id: int, units: list[WorkUnit]
    ) -> tuple[list, list[dict]] | None:
        """Execute a lease through the process pool (``jobs > 1``).

        Each completed unit streams a ``result-part`` and a heartbeat;
        the acks are drained afterwards (the socket buffers them).  A
        pool failure cannot name the culprit unit, so the lease falls
        back to per-unit in-process execution to attribute it; those
        records ride in the final ``result``.  Returns what
        :meth:`_execute_serial` does.
        """
        beats_sent = 0

        def beat(_index: int, record) -> None:
            nonlocal beats_sent
            self._stream(lease_id, record)
            if self._send_heartbeat(lease_id):
                beats_sent += 1

        records: list = []
        failed: list[dict] = []
        try:
            run_units(units, self.config, on_record=beat)
        except (ResultHookError, OSError) as exc:
            # The beat hook is the only on_record here, so a hook
            # failure is a send failure: the connection is gone.
            raise _ConnectionLost(str(exc)) from exc
        except Exception as exc:
            self.log(
                f"{self.name}: pooled lease {lease_id} failed ({exc}); "
                "re-running per unit to attribute"
            )
            for unit in units:
                try:
                    records.append(execute_unit(unit))
                except Exception as unit_exc:
                    failed.append(_failure(unit, unit_exc))
        for _ in range(beats_sent):
            if not self._await_beat(lease_id):
                return None  # later acks drain as stale beats, if ever read
        return records, failed


def _failure(unit: WorkUnit, exc: Exception) -> dict:
    """One ``failed`` entry of a ``result``: the unit and what it raised."""
    return {"key": unit.key, "error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# Command line


def _stderr_log(message: str) -> None:
    """Worker progress goes to stderr, prefixed like every other
    ``gpu-wmm`` message."""
    print(f"gpu-wmm: {message}", file=sys.stderr)


def _parse_connect(value: str) -> tuple[str, int]:
    """Parse a ``host:port`` target."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ReproError(
            f"--connect expects host:port, got {value!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise ReproError(
            f"--connect expects a numeric port, got {port!r}"
        ) from None


def add_worker_arguments(parser: argparse.ArgumentParser) -> None:
    """Define the worker's options on ``parser``; ``python -m
    repro.dist`` and the ``repro worker`` subcommand share them."""
    parser.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="coordinator address (as printed by gpu-wmm coordinate)",
    )
    parser.add_argument(
        "--name",
        default="worker",
        help="worker name shown in coordinator logs",
    )
    parser.add_argument(
        "--max-units",
        type=int,
        default=None,
        metavar="N",
        help="leave voluntarily after executing N units",
    )
    parser.add_argument(
        "--delay",
        type=float,
        default=0.0,
        metavar="S",
        help="sleep S seconds before each lease (straggler simulation)",
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        metavar="S",
        help="keep retrying the initial connect for S seconds",
    )
    parser.add_argument(
        "--jobs",
        type=jobs_arg,
        default=None,
        metavar="N",
        help="process-pool width for executing each lease (default: 1)",
    )
    parser.add_argument(
        "--reconnect-timeout",
        type=float,
        default=RECONNECT_TIMEOUT_S,
        metavar="S",
        help=(
            "ride out a coordinator outage for up to S seconds via "
            "backoff-and-reconnect before giving up (default: 30; "
            "0 = fail immediately on any connection loss)"
        ),
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help=(
            "arm this worker (and its pool children) with a "
            "fault-injection plan for chaos testing"
        ),
    )


def main(argv: Sequence[str] | argparse.Namespace | None = None) -> int:
    """Run one worker from the command line; returns the exit status.

    ``argv`` is parsed against :func:`add_worker_arguments`; the
    ``repro worker`` subcommand passes the namespace its own parser
    made from the same options.  SIGTERM requests a graceful drain.
    ``--faults`` is exported rather than installed, so the plan arms
    this process *and* every pool child it spawns (see
    :mod:`repro.faults.runtime`).
    """
    if isinstance(argv, argparse.Namespace):
        args = argv
    else:
        parser = argparse.ArgumentParser(
            prog="python -m repro.dist",
            description="Join a coordinator and execute leased work units.",
        )
        add_worker_arguments(parser)
        args = parser.parse_args(argv)
    if args.faults:
        os.environ[PLAN_ENV] = args.faults
        os.environ.setdefault(ROLE_ENV, "worker")
    draining = False

    def request_drain(signum, frame) -> None:
        nonlocal draining
        if not draining:
            _stderr_log(
                f"{args.name}: SIGTERM received; draining (starting "
                "nothing new, releasing held leases, then bye)"
            )
        draining = True

    try:
        signal.signal(signal.SIGTERM, request_drain)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass
    try:
        host, port = _parse_connect(args.connect)
        run_worker(
            host,
            port,
            name=args.name,
            jobs=args.jobs if args.jobs is not None else 1,
            max_units=args.max_units,
            delay=args.delay,
            connect_timeout=args.connect_timeout,
            reconnect_timeout=args.reconnect_timeout,
            drain_check=lambda: draining,
            log=_stderr_log,
        )
    except ReproError as exc:
        print(f"gpu-wmm: error: {exc}", file=sys.stderr)
        return 2
    return 0
