"""The campaign coordinator: leases out units, merges results exactly.

One coordinator serves one plan (a sequence of
:class:`~repro.parallel.plan.WorkUnit`).  Workers connect over TCP
(:mod:`repro.dist.protocol`), request leases, and stream back one
:class:`~repro.store.records.RunRecord` per unit.  The coordinator is a
single-threaded ``selectors`` event loop — no locks, no threads — and
every failure mode reduces to the same two moves: a lease whose worker
vanished (EOF) or hung (deadline passed) re-pends its units for the
next requester, and every such loss — like every worker-reported
execution failure — charges the unit's attempt budget.  A unit that
exhausts the budget is *quarantined* (see
:class:`~repro.dist.leases.LeaseTable`): the campaign completes around
it and :meth:`Coordinator.serve` raises
:class:`~repro.errors.QuarantineError` carrying both the parked keys
and every healthy record, so one poison unit can neither crash-loop
the fleet nor silently punch a hole in the merge.

Every worker speaks protocol v4, the only one served: a ``hello`` with
any other version is refused.  Records arrive only in ``result-part``
frames; a ``result`` settles its lease with the failures and an
``elapsed_s`` that feeds adaptive lease sizing.  A ``heartbeat``
extends every lease its connection holds, and pipelined workers hand
unstarted leases back with ``release``.  A frame that is well formed
but carries a malformed field (a non-integer lease id, a ``records``
or ``failed`` entry of the wrong shape, a ``result`` with records) is
a :class:`~repro.errors.ProtocolError` that costs only its sender's
connection: it gets an ``error`` frame and is dropped, and its leases
re-pend.

The merge is by content key and idempotent: a reassigned lease coming
back twice folds to one record when payloads agree and raises
:class:`~repro.errors.LedgerConflictError` when they disagree (which,
under the determinism contract, can only mean corruption).  Coverage is
validated exactly — :meth:`Coordinator.serve` returns records for *all*
units in unit order, or raises a typed error distinguishing
"incomplete" (:class:`~repro.errors.DistError`, a bug) from
"quarantined" (poison units, reported) — so a distributed campaign is
provably the same bytes as a serial one.

Fault site ``coordinator.merge`` (kind ``restart``) simulates a
coordinator crash immediately after a ``result-part`` merges: every
client is dropped, the listener rebinds on the same port, and the
lease table is rebuilt from merged records exactly as a real restart
resumes from the run ledger.  Workers ride it out via
reconnect-with-backoff.  Records that merged before the crash survive
it, exactly as ledger-checkpointed records would.
"""

from __future__ import annotations

import selectors
import socket
from collections import deque
from typing import Callable, Sequence

from ..errors import (
    DistError,
    LedgerConflictError,
    ProtocolError,
    QuarantineError,
)
from ..faults.runtime import fault_at
from ..parallel.plan import WorkUnit
from ..store.records import RunRecord
from .leases import DEFAULT_TARGET_LEASE_S, MAX_ATTEMPTS, LeaseTable
from .protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    WireStats,
    nodelay,
    send_message,
    speaks_protocol,
)

#: Idle-worker retry when no lease deadline bounds the wait (cannot
#: happen while work is outstanding, kept as a defensive fallback).
WAIT_RETRY_S = 0.5

#: Bounds on the adaptive ``wait`` retry: never tell a worker to come
#: back sooner than the floor (hammering an empty queue) or later than
#: the ceiling (sleeping past a re-pend it could have picked up).
WAIT_RETRY_MIN_S = 0.05
WAIT_RETRY_MAX_S = 2.0

#: Ceiling on one select() sleep, so expiry and stop checks stay timely.
_POLL_CAP_S = 1.0


class _Client:
    """Per-connection state: decoder buffer plus the worker identity."""

    def __init__(
        self,
        sock: socket.socket,
        ident: str,
        stats: WireStats | None = None,
    ):
        self.sock = sock
        self.decoder = FrameDecoder(stats=stats)
        #: Unique per-connection identity (two workers may share a
        #: ``--name``; leases must not).
        self.ident = ident
        self.helloed = False
        #: Units this connection has completed (progress UI).
        self.units_done = 0


class Coordinator:
    """Serve one work plan to any number of socket workers.

    Parameters mirror the lease model: ``lease_timeout`` is how long a
    silent worker holds its units, ``units_per_lease`` fixes the batch
    size (None, the default, enables the adaptive controller targeting
    ``lease_target_s`` of compute per lease), ``max_attempts`` is the
    per-unit failure budget before quarantine.  ``on_record(index,
    record)`` streams each *fresh* merged record back in completion
    order — the same checkpointing hook the local pool backend uses, so
    :func:`~repro.store.resume.submit_units` works unchanged on top.

    ``stop_check`` (also assignable after construction) is polled every
    loop iteration and returns a reason string to abort — the
    self-spawning local backend uses it to fail fast when every worker
    subprocess has died rather than wait forever for a connect.
    """

    def __init__(
        self,
        units: Sequence[WorkUnit],
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout: float = 60.0,
        units_per_lease: int | None = None,
        max_attempts: int = MAX_ATTEMPTS,
        lease_target_s: float = DEFAULT_TARGET_LEASE_S,
        on_record: Callable[[int, RunRecord], None] | None = None,
        stop_check: Callable[[], str | None] | None = None,
        log: Callable[[str], None] | None = None,
    ):
        self.units = list(units)
        self.host = host
        self.port = port
        self.lease_timeout = lease_timeout
        self.units_per_lease = units_per_lease
        self.max_attempts = max_attempts
        self.lease_target_s = lease_target_s
        self.on_record = on_record
        self.stop_check = stop_check
        self.log = log or (lambda message: None)
        #: Raw-vs-wire byte accounting across every connection.
        self.wire = WireStats()
        self._table = self._fresh_table()
        self._key_to_index = {
            unit.key: i for i, unit in enumerate(self.units)
        }
        if len(self._key_to_index) != len(self.units):
            raise DistError(
                "work plan has duplicate content keys; every unit must "
                "be uniquely keyed for the merge to be exact"
            )
        self._records: dict[int, RunRecord] = {}
        #: lease id -> indices already merged via ``result-part``.
        self._partial: dict[int, set[int]] = {}
        self._listener: socket.socket | None = None
        self._conn_count = 0
        self._restart_requested = False
        self._started: float | None = None

    def _fresh_table(self) -> LeaseTable:
        return LeaseTable(
            n_units=len(self.units),
            timeout=self.lease_timeout,
            units_per_lease=self.units_per_lease,
            max_attempts=self.max_attempts,
            target_lease_s=self.lease_target_s,
        )

    # -- lifecycle ------------------------------------------------------
    def bind(self) -> tuple[str, int]:
        """Bind the listening socket; returns ``(host, port)`` with the
        OS-assigned port resolved (``port=0`` requests an ephemeral
        one).  Idempotent."""
        if self._listener is None:
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self.host, self.port))
            listener.listen(16)
            self._listener = listener
            self.port = listener.getsockname()[1]
        return self.host, self.port

    def serve(self) -> list[RunRecord]:
        """Run the event loop to completion; records in unit order.

        Returns only when every unit's record has merged.  Units parked
        in quarantine raise :class:`~repro.errors.QuarantineError`
        (carrying all healthy records); a coverage hole without
        quarantine (impossible unless the loop is aborted) raises
        :class:`~repro.errors.DistError`.
        """
        self.bind()
        assert self._listener is not None
        selector = selectors.DefaultSelector()
        selector.register(self._listener, selectors.EVENT_READ, None)
        clients: dict[socket.socket, _Client] = {}
        if self._started is None:
            self._started = self._table.now()
        self.log(
            f"coordinator serving {len(self.units)} units "
            f"on {self.host}:{self.port}"
        )
        try:
            while not self._table.done:
                if self.stop_check is not None:
                    reason = self.stop_check()
                    if reason:
                        raise DistError(f"coordination aborted: {reason}")
                for key, _ in selector.select(self._poll_timeout()):
                    if key.data is None:
                        self._accept(selector, clients)
                    else:
                        self._service(key.data, selector, clients)
                    if self._restart_requested:
                        break
                if self._restart_requested:
                    self._restart(selector, clients)
                for lease in self._table.expire():
                    self.log(
                        f"lease {lease.lease_id} ({lease.worker}) "
                        f"expired; re-pending units {list(lease.indices)}"
                    )
                    self._partial.pop(lease.lease_id, None)
                    self._note_quarantines(lease.indices)
            for client in clients.values():
                try:
                    self._send(client, {"type": "done"})
                except OSError:  # pragma: no cover - racing disconnect
                    pass
            self.log(f"wire totals: {self.wire.summary()}")
        finally:
            for sock in list(clients):
                sock.close()
            selector.close()
            self._listener.close()
            self._listener = None
        return self._merged()

    def _restart(
        self,
        selector: selectors.BaseSelector,
        clients: dict[socket.socket, _Client],
    ) -> None:
        """Simulate a coordinator crash+restart in-process: sever every
        connection, rebind the same port, and rebuild lease state from
        merged records — exactly what a real restart recovers from the
        run ledger.  In-flight leases and attempt counts are lost, as
        they would be; records that already merged (including via
        ``result-part``) survive."""
        self._restart_requested = False
        self.log(
            f"injected coordinator restart: dropping {len(clients)} "
            f"connection(s), rebinding {self.host}:{self.port}"
        )
        for sock, client in list(clients.items()):
            selector.unregister(sock)
            sock.close()
        clients.clear()
        assert self._listener is not None
        selector.unregister(self._listener)
        self._listener.close()
        self._listener = None
        self.bind()  # self.port is already resolved: same address
        selector.register(self._listener, selectors.EVENT_READ, None)
        self._table = self._fresh_table()
        self._partial.clear()
        merged = set(self._records)
        self._table.pending = deque(
            i for i in range(len(self.units)) if i not in merged
        )
        self._table.completed = set(merged)

    # -- event handling -------------------------------------------------
    def _poll_timeout(self) -> float:
        deadline = self._table.next_deadline()
        if deadline is None:
            return _POLL_CAP_S
        return min(_POLL_CAP_S, max(0.0, deadline - self._table.now()))

    def _send(self, client: _Client, message: dict) -> None:
        send_message(client.sock, message, stats=self.wire)

    def _accept(
        self,
        selector: selectors.BaseSelector,
        clients: dict[socket.socket, _Client],
    ) -> None:
        assert self._listener is not None
        sock, addr = self._listener.accept()
        nodelay(sock)
        self._conn_count += 1
        client = _Client(
            sock, ident=f"conn-{self._conn_count}", stats=self.wire
        )
        clients[sock] = client
        selector.register(sock, selectors.EVENT_READ, client)
        self.log(f"worker connected from {addr[0]}:{addr[1]}")

    def _drop(
        self,
        client: _Client,
        selector: selectors.BaseSelector,
        clients: dict[socket.socket, _Client],
    ) -> None:
        """Close a connection and immediately re-pend its leases — the
        ``kill -9`` path (the OS closes the dead worker's sockets, so
        EOF arrives long before any lease deadline would)."""
        released = self._table.release_worker(client.ident)
        for lease in released:
            self.log(
                f"worker {client.ident} gone; re-pending lease "
                f"{lease.lease_id} units {list(lease.indices)}"
            )
            self._partial.pop(lease.lease_id, None)
            self._note_quarantines(lease.indices)
        selector.unregister(client.sock)
        del clients[client.sock]
        client.sock.close()

    def _note_quarantines(self, indices: tuple[int, ...]) -> None:
        """Log any of ``indices`` that the last charge just parked."""
        for index in indices:
            reason = self._table.quarantined.get(index)
            if reason is not None and index not in self._records:
                self.log(
                    f"unit {self.units[index].key!r} quarantined: {reason}"
                )

    def _service(
        self,
        client: _Client,
        selector: selectors.BaseSelector,
        clients: dict[socket.socket, _Client],
    ) -> None:
        try:
            data = client.sock.recv(65536)
        except (ConnectionResetError, OSError):
            data = b""
        if not data:
            self._drop(client, selector, clients)
            return
        try:
            for message in client.decoder.feed(data):
                self._handle(client, message, selector, clients)
                if client.sock not in clients or self._restart_requested:
                    break  # connection dropped (or restarting) mid-batch
        except ProtocolError as exc:
            # Undecodable bytes or a malformed field: this connection is
            # unusable, the campaign is not.
            self.log(f"protocol error from {client.ident}: {exc}")
            try:
                self._send(client, {"type": "error", "message": str(exc)})
            except OSError:
                pass
            self._drop(client, selector, clients)

    def _handle(
        self,
        client: _Client,
        message: dict,
        selector: selectors.BaseSelector,
        clients: dict[socket.socket, _Client],
    ) -> None:
        kind = message["type"]
        if kind == "hello":
            if not speaks_protocol(message):
                raise ProtocolError(
                    f"protocol {message.get('protocol')!r} refused; this "
                    f"coordinator speaks only v{PROTOCOL_VERSION}"
                )
            name = message.get("worker") or "worker"
            client.ident = f"{name}#{client.ident}"
            client.helloed = True
            self._send(
                client,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "units_total": len(self.units),
                },
            )
            self.log(f"{client.ident}: protocol v{PROTOCOL_VERSION}")
        elif not client.helloed:
            raise ProtocolError("first message must be hello")
        elif kind == "request":
            lease = self._table.grant(client.ident)
            if lease is not None:
                self._send(
                    client,
                    {
                        "type": "lease",
                        "lease": lease.lease_id,
                        "deadline_s": lease.deadline - lease.granted_at,
                        "units": [
                            self.units[i].to_json() for i in lease.indices
                        ],
                    },
                )
                if len(lease.indices) > 1:
                    estimate = self._table.estimate(client.ident)
                    self.log(
                        f"lease {lease.lease_id}: "
                        f"{len(lease.indices)} unit(s) -> {client.ident}"
                        + (
                            f" (est {estimate * 1e3:.1f} ms/unit)"
                            if estimate
                            else ""
                        )
                    )
            elif self._table.done:
                self._send(client, {"type": "done"})
            else:
                self._send(
                    client,
                    {"type": "wait", "retry_s": self._wait_retry_s()},
                )
        elif kind == "heartbeat":
            lease_id = _lease_id(message)
            held = self._table.heartbeat(client.ident, lease_id)
            if not held:
                self.log(
                    f"heartbeat from {client.ident} for lost lease "
                    f"{lease_id}; telling worker to discard it"
                )
            self._send(
                client,
                {"type": "beat", "lease": lease_id, "held": held},
            )
        elif kind == "result-part":
            self._merge_part(client, message)
        elif kind == "result":
            self._merge_result(client, message)
        elif kind == "release":
            self._release_lease(client, message)
        elif kind == "bye":
            self._drop(client, selector, clients)
        else:
            raise ProtocolError(f"unknown message {kind!r}")

    def _wait_retry_s(self) -> float:
        """Adaptive idle-worker retry: sleep until the soonest active
        deadline could re-pend units, bounded so a corrupted clock can
        neither hammer the coordinator nor park the worker."""
        deadline = self._table.next_deadline()
        if deadline is None:
            return WAIT_RETRY_S
        pause = deadline - self._table.now()
        return min(max(pause, WAIT_RETRY_MIN_S), WAIT_RETRY_MAX_S)

    def _merge_part(self, client: _Client, message: dict) -> None:
        """Incremental ``result-part``: merge now, settle at the lease's
        ``result``.  Every record parses before any merges.  A part
        proves its connection alive, as a heartbeat does; a part for a
        lease this connection no longer holds merges idempotently and
        is otherwise ignored."""
        lease_id = _lease_id(message)
        try:
            records = [
                RunRecord.from_json(obj)
                for obj in _list_field(message, "records")
            ]
        except ValueError as exc:
            raise ProtocolError(str(exc)) from exc
        covered: set[int] = set()
        for record in records:
            index = self._key_to_index.get(record.key)
            if index is None:
                raise DistError(
                    f"worker {client.ident} returned record for unknown "
                    f"content key {record.key!r}; plan/worker mismatch"
                )
            covered.add(index)
            existing = self._records.get(index)
            if existing is None:
                self._records[index] = record
                if self.on_record is not None:
                    self.on_record(index, record)
            elif (
                existing.kind != record.kind
                or existing.payload != record.payload
            ):
                raise LedgerConflictError(
                    record.key,
                    detail=(
                        f"worker {client.ident} disagrees with a "
                        "previously merged record"
                    ),
                )
            # identical duplicate (reassigned lease raced its original
            # holder): idempotent, drop silently.
        if self._table.heartbeat(client.ident, lease_id):
            self._partial.setdefault(lease_id, set()).update(covered)
        if covered and fault_at("coordinator.merge") is not None:
            self._restart_requested = True

    def _release_lease(self, client: _Client, message: dict) -> None:
        """A pipelined worker handing back an unstarted prefetched
        lease (drain/bye): every unit re-pends immediately and for free
        — voluntary return is not a failure."""
        lease_id = _lease_id(message)
        settlement = self._table.settle(lease_id)
        self._partial.pop(lease_id, None)
        if settlement is not None and settlement.abandoned:
            self.log(
                f"{client.ident} released unstarted lease {lease_id}; "
                f"re-pending {len(settlement.abandoned)} unit(s) "
                "without charge"
            )

    def _merge_result(self, client: _Client, message: dict) -> None:
        """Settle a lease: its records already merged from
        ``result-part`` frames, so a ``result`` carries only the
        failures and the worker's ``elapsed_s``."""
        lease_id = _lease_id(message)
        if "records" in message:
            raise ProtocolError(
                "result frame carries records; they travel only in "
                "result-part"
            )
        failed: dict[int, str] = {}
        for entry in _list_field(message, "failed"):
            key = entry.get("key") if isinstance(entry, dict) else None
            if not isinstance(key, str):
                raise ProtocolError(f"malformed failure report: {entry!r}")
            index = self._key_to_index.get(key)
            if index is None:
                raise DistError(
                    f"worker {client.ident} reported failure for unknown "
                    f"content key {key!r}; plan/worker mismatch"
                )
            failed[index] = str(entry.get("error") or "unspecified failure")
        completed = self._partial.pop(lease_id, set())
        processed = len(completed) + len(failed)
        if lease_id in self._table.active and processed:
            self._table.observe(
                client.ident, processed, message.get("elapsed_s")
            )
        settlement = self._table.settle(
            lease_id, completed=completed, failed=failed
        )
        if settlement is not None:
            for index in settlement.repended:
                self.log(
                    f"unit {self.units[index].key!r} failed on "
                    f"{client.ident} (attempt "
                    f"{self._table.attempts[index]}/"
                    f"{self._table.max_attempts}): {failed[index]}; "
                    "re-pended"
                )
            for index in settlement.quarantined:
                self.log(
                    f"unit {self.units[index].key!r} quarantined: "
                    f"{self._table.quarantined[index]}"
                )
            if settlement.abandoned:
                self.log(
                    f"{client.ident} abandoned "
                    f"{len(settlement.abandoned)} unit(s) (drain); "
                    "re-pended without charge"
                )
            if settlement.completed:
                client.units_done += len(settlement.completed)
                self._log_progress(client)

    def _log_progress(self, client: _Client) -> None:
        """One settlement's progress line: completion, per-worker
        share, fleet throughput, ETA and wire bytes — the ``--dist``
        progress UI."""
        done = len(self._table.completed)
        total = len(self.units)
        line = (
            f"{done}/{total} units complete "
            f"({client.ident}: {client.units_done} units)"
        )
        elapsed = (
            self._table.now() - self._started
            if self._started is not None
            else 0.0
        )
        if elapsed > 0 and done:
            rate = done / elapsed
            remaining = total - done - len(self._table.quarantined)
            line += (
                f"; {rate:.1f} units/s, ETA {remaining / rate:.0f}s, "
                f"wire {self.wire.summary()}"
            )
        self.log(line)

    # -- merge ----------------------------------------------------------
    def _merged(self) -> list[RunRecord]:
        # A quarantined unit whose record later arrived anyway (a slow
        # duplicate beat the budget) is healthy after all.
        quarantined = {
            self.units[index].key: reason
            for index, reason in sorted(self._table.quarantined.items())
            if index not in self._records
        }
        if quarantined:
            healthy = [
                self._records[i]
                for i in range(len(self.units))
                if i in self._records
            ]
            raise QuarantineError(quarantined, records=healthy)
        missing = [
            self.units[i].key
            for i in range(len(self.units))
            if i not in self._records
        ]
        if missing:
            raise DistError(
                f"coverage hole after coordination: {len(missing)} of "
                f"{len(self.units)} units never produced a record "
                f"(first missing key: {missing[0]!r})"
            )
        return [self._records[i] for i in range(len(self.units))]


def _lease_id(message: dict) -> int:
    """A frame's ``lease`` field, which must be an ``int`` (not a
    ``bool``, which JSON would otherwise let pass as 0 or 1)."""
    lease_id = message.get("lease")
    if type(lease_id) is not int:
        raise ProtocolError(
            f"{message['type']} frame carries lease {lease_id!r}, not an "
            "integer id"
        )
    return lease_id


def _list_field(message: dict, name: str) -> list:
    """A frame's optional list field (absent reads as empty)."""
    value = message.get(name, [])
    if not isinstance(value, list):
        raise ProtocolError(
            f"{message['type']} frame field {name!r} is a "
            f"{type(value).__name__}, not a list"
        )
    return value
