"""Protocol v4: adaptive leases, pipelining, streaming, one of each.

Covers the distributed protocol's features at every layer boundary:

* :class:`~repro.dist.LeaseTable` adaptive sizing under an injected
  clock (probe leases, EWMA convergence, tail shrink, deadline
  scaling, fleet fallback, the fixed-size override);
* the one-version handshake: a coordinator refuses a ``hello`` and a
  worker refuses a ``welcome`` with any protocol but
  :data:`~repro.dist.PROTOCOL_VERSION` (older or newer versions,
  ``True``, ``"4"``, ``4.0``, null or no field at all);
* lease pipelining and ``result-part`` streaming end to end, with the
  byte-identity contract checked against a serial run, each thing sent
  once (one ``result-part``, one ``heartbeat`` and one ``beat`` per
  unit, raw frames), and the worker's pooled lease path (``jobs > 1``)
  including its per-unit failure attribution;
* the idle-free wire: ``TCP_NODELAY`` on every dist TCP socket, and a
  worker parked on ``wait`` that wakes on ``done`` or a closed socket.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter

import pytest

from repro.dist import (
    Coordinator,
    FrameDecoder,
    LeaseTable,
    MAX_LEASE_UNITS,
    PROTOCOL_VERSION,
    WorkerStats,
    recv_message,
    run_worker,
    send_message,
)
from repro.dist import protocol
from repro.dist.coordinator import (
    WAIT_RETRY_MAX_S,
    WAIT_RETRY_MIN_S,
    WAIT_RETRY_S,
)
from repro.dist.leases import EWMA_ALPHA, TAIL_FACTOR
from repro.dist.worker import RETRY_MAX_S, _ConnectionLost, _Session
from repro.errors import DistError, ProtocolError, QuarantineError
from repro.faults import FaultPlan, FaultSpec, install, uninstall
from repro.litmus.units import litmus_unit
from repro.parallel import WorkUnit, run_units
from repro.parallel.executor import SERIAL
from repro.store import litmus_key
from repro.stress.strategies import NoStress


def _units(n=3, executions=8):
    tests = ["MP", "SB", "LB", "CoRR", "R", "S", "WRC", "IRIW"]
    units = []
    for i in range(n):
        test = tests[i % len(tests)]
        key = litmus_key("K20", test, "no-str", 64, executions, i)
        units.append(
            litmus_unit(key, "K20", test, 64, NoStress(), executions, seed=i)
        )
    return units


def _serve_in_thread(coordinator):
    box = {}

    def target():
        try:
            box["records"] = coordinator.serve()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


class _Clock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


# ---------------------------------------------------------------------------
# Adaptive lease sizing (LeaseTable controller, injected clock)


class TestAdaptiveSizing:
    def _table(self, n=100, timeout=60.0, **kwargs):
        clock = _Clock()
        return LeaseTable(n_units=n, timeout=timeout, now=clock, **kwargs), clock

    def test_no_history_grants_a_one_unit_probe(self):
        table, _ = self._table()
        lease = table.grant("w0")
        assert lease.indices == (0,)
        # No estimate -> no slack: the probe's deadline is exactly the
        # base timeout.
        assert lease.deadline == pytest.approx(60.0)

    def test_sizing_targets_the_lease_duration(self):
        table, _ = self._table()
        table.observe("w0", 10, 1.0)  # 0.1 s/unit
        lease = table.grant("w0")
        # target_lease_s=2.0 / 0.1 = 20 units.
        assert len(lease.indices) == 20

    def test_deadline_scales_with_granted_size(self):
        table, clock = self._table()
        clock.t = 5.0
        table.observe("w0", 10, 1.0)
        lease = table.grant("w0")
        # now + timeout + per_unit * size slack, so a big lease is not
        # punished for being big.
        assert lease.deadline == pytest.approx(5.0 + 60.0 + 0.1 * 20)
        assert lease.granted_at == pytest.approx(5.0)

    def test_ewma_converges_on_the_recent_rate(self):
        table, _ = self._table()
        table.observe("w0", 1, 1.0)
        assert table.service_ewma["w0"] == pytest.approx(1.0)
        table.observe("w0", 1, 0.0)
        assert table.service_ewma["w0"] == pytest.approx(1.0 - EWMA_ALPHA)
        for _ in range(40):
            table.observe("w0", 1, 0.1)
        assert table.service_ewma["w0"] == pytest.approx(0.1, rel=1e-3)

    def test_tail_shrink_caps_the_last_grants(self):
        table, _ = self._table(n=4)
        table.observe("w0", 100, 1.0)  # 0.01 s/unit -> wants 200 units
        lease = table.grant("w0")
        # Never more than ceil(pending / TAIL_FACTOR): one straggler
        # cannot hold every remaining unit hostage.
        assert len(lease.indices) == -(-4 // TAIL_FACTOR)

    def test_hard_ceiling_on_one_grant(self):
        table, _ = self._table(n=1000)
        table.observe("w0", 1000, 1e-6)
        lease = table.grant("w0")
        assert len(lease.indices) == MAX_LEASE_UNITS

    def test_fresh_worker_borrows_the_fleet_mean(self):
        table, _ = self._table()
        table.observe("veteran", 10, 1.0)
        assert table.estimate("rookie") == pytest.approx(0.1)
        lease = table.grant("rookie")
        assert len(lease.indices) == 20  # sized, not a probe

    def test_fixed_units_per_lease_disables_the_controller(self):
        table, _ = self._table(units_per_lease=3, timeout=10.0)
        table.observe("w0", 10, 1.0)
        lease = table.grant("w0")
        assert lease.indices == (0, 1, 2)
        assert lease.deadline == pytest.approx(10.0)  # no slack

    @pytest.mark.parametrize(
        "n_units, elapsed",
        [
            (0, 1.0),
            (-3, 1.0),
            (5, float("nan")),
            (5, float("inf")),
            (5, -1.0),
            (5, "bogus"),
            (5, None),
        ],
    )
    def test_junk_observations_are_ignored(self, n_units, elapsed):
        table, _ = self._table()
        table.observe("w0", n_units, elapsed)
        assert table.service_ewma == {}

    def test_target_lease_s_validated(self):
        with pytest.raises(DistError, match="target_lease_s"):
            LeaseTable(n_units=1, target_lease_s=0.0)
        with pytest.raises(DistError, match="target_lease_s"):
            LeaseTable(n_units=1, target_lease_s=float("inf"))

    def test_voluntary_release_costs_no_attempt_budget(self):
        table, _ = self._table(n=3, units_per_lease=3)
        lease = table.grant("w0")
        settlement = table.settle(lease.lease_id)  # nothing attempted
        assert settlement.abandoned == (0, 1, 2)
        assert table.attempts == {}
        assert list(table.pending) == [0, 1, 2]  # re-pended at the front


# ---------------------------------------------------------------------------
# Adaptive idle-worker retry (coordinator)


class TestAdaptiveWaitRetry:
    def _coordinator(self):
        coordinator = Coordinator([])
        clock = _Clock()
        coordinator._table = LeaseTable(n_units=2, timeout=10.0, now=clock)
        return coordinator, clock

    def test_no_active_lease_falls_back_to_the_constant(self):
        coordinator, _ = self._coordinator()
        assert coordinator._wait_retry_s() == WAIT_RETRY_S

    def test_far_deadline_clamped_to_the_ceiling(self):
        coordinator, _ = self._coordinator()
        coordinator._table.grant("w0")  # deadline in 10s
        assert coordinator._wait_retry_s() == WAIT_RETRY_MAX_S

    def test_near_deadline_tracks_it_above_the_floor(self):
        coordinator, clock = self._coordinator()
        coordinator._table.grant("w0")
        clock.t = 9.0  # 1s to deadline: inside the clamp window
        assert coordinator._wait_retry_s() == pytest.approx(1.0)
        clock.t = 9.999  # effectively due: floor stops the hammering
        assert coordinator._wait_retry_s() == WAIT_RETRY_MIN_S


# ---------------------------------------------------------------------------
# Handshake: one protocol version, anything else refused

#: Marks a ``protocol`` field left out of the frame (not sent as null).
_MISSING = object()

#: Every ``protocol`` value but the one spoken: older and newer
#: versions, and values that look like 4 without being the int.
_OTHER_VERSIONS = [
    1,
    2,
    3,
    5,
    True,
    "4",
    3.0,
    4.0,
    None,
    pytest.param(_MISSING, id="missing"),
]


def _with_protocol(message, version):
    if version is not _MISSING:
        message["protocol"] = version
    return message


class TestHandshakeDowngrade:
    """A peer offering any protocol but PROTOCOL_VERSION, a v3
    downgrade included, is refused on either side of the handshake."""

    @pytest.mark.parametrize("version", _OTHER_VERSIONS)
    def test_coordinator_refuses_any_other_version(self, version):
        units = _units(n=1)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10)
        decoder = FrameDecoder()
        try:
            send_message(
                sock,
                _with_protocol({"type": "hello", "worker": "other"}, version),
            )
            reply = recv_message(sock, decoder)
            assert reply["type"] == "error"
            assert "protocol" in reply["message"]
            assert recv_message(sock, decoder) is None  # dropped
        finally:
            sock.close()
        run_worker(host, port)  # a current worker still completes
        thread.join(timeout=30)
        assert [r.to_json() for r in box["records"]] == [
            r.to_json() for r in run_units(units, SERIAL)
        ]

    @pytest.mark.parametrize("version", _OTHER_VERSIONS)
    def test_worker_refuses_an_unusable_negotiation(self, version):
        # "Unusable" is any welcome but PROTOCOL_VERSION: there is
        # nothing to negotiate down to.
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        try:
            send_message(
                left,
                _with_protocol({"type": "welcome", "units_total": 0}, version),
            )
            session = _Session(right, name="w")
            with pytest.raises(ProtocolError, match="speaks protocol"):
                session._handshake()
            assert recv_message(left, FrameDecoder()) == {
                "type": "hello",
                "worker": "w",
                "protocol": PROTOCOL_VERSION,
            }
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# Pipelining, release, result-part streaming


class TestPipelining:
    def test_pipelined_campaign_is_byte_identical_to_serial(self):
        units = _units(n=12)
        reference = run_units(units, SERIAL)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        stats = WorkerStats()
        run_worker(host, port, name="pipeliner", stats=stats)
        thread.join(timeout=60)
        assert [r.to_json() for r in box["records"]] == [
            r.to_json() for r in reference
        ]
        assert stats.executed == len(units)
        # The probe lease pays one blocking round trip; at least one
        # later grant must have ridden the pipeline.
        assert stats.prefetched_grants >= 1
        assert stats.parts_sent == len(units)  # every record streamed
        assert coordinator.wire.frames_in > 0

    def test_each_thing_is_sent_once(self, monkeypatch):
        # One in-process worker on adaptive leases over loopback: each
        # unit sends one result-part and one heartbeat and gets one
        # beat back, and no frame header has its top bit set.
        sent = Counter()
        top_bits = []
        encode = protocol.encode_frame

        def counted(message):
            frame = encode(message)
            sent[message["type"]] += 1
            top_bits.append(frame[0] & 0x80)
            return frame

        monkeypatch.setattr(protocol, "encode_frame", counted)
        units = _units(n=12)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        stats = WorkerStats()
        run_worker(host, port, name="once", stats=stats)
        thread.join(timeout=60)
        assert [r.key for r in box["records"]] == [u.key for u in units]
        assert sent["result-part"] == len(units)
        assert sent["heartbeat"] == sent["beat"] == len(units)
        assert sent["result"] == stats.leases_served
        assert not any(top_bits)
        wire = coordinator.wire
        frames = wire.frames_out + wire.frames_in
        assert wire.wire_out + wire.wire_in == (
            wire.raw_out + wire.raw_in + 4 * frames
        )

    def test_heartbeat_keeps_the_buffered_prefetch_held(self):
        # A worker heartbeats only the lease it executes; the lease it
        # prefetched stays held past its own timeout, because every
        # heartbeat extends every lease of the connection.
        units = _units(n=2)
        coordinator = Coordinator(units, units_per_lease=1, lease_timeout=0.3)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10)
        decoder = FrameDecoder()
        try:
            send_message(
                sock,
                {
                    "type": "hello",
                    "worker": "beater",
                    "protocol": PROTOCOL_VERSION,
                },
            )
            assert recv_message(sock, decoder)["type"] == "welcome"
            send_message(sock, {"type": "request"})
            executing = recv_message(sock, decoder)["lease"]
            send_message(sock, {"type": "request"})
            prefetched = recv_message(sock, decoder)["lease"]
            until = time.monotonic() + 0.9
            while time.monotonic() < until:
                send_message(sock, {"type": "heartbeat", "lease": executing})
                assert recv_message(sock, decoder)["held"] is True
                time.sleep(0.05)
            send_message(sock, {"type": "heartbeat", "lease": prefetched})
            assert recv_message(sock, decoder) == {
                "type": "beat",
                "lease": prefetched,
                "held": True,
            }
        finally:
            sock.close()
        run_worker(host, port, name="closer")
        thread.join(timeout=30)
        assert [r.to_json() for r in box["records"]] == [
            r.to_json() for r in run_units(units, SERIAL)
        ]

    def test_retire_releases_a_buffered_prefetched_lease(self):
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        logs = []
        try:
            session = _Session(right, name="w", log=logs.append)
            session.prefetch = {"type": "lease", "lease": 9, "units": []}
            session._retire("drain test")
            decoder = FrameDecoder()
            assert recv_message(left, decoder) == {
                "type": "release",
                "lease": 9,
            }
            assert recv_message(left, decoder) == {"type": "bye"}
            assert any("released unstarted" in line for line in logs)
        finally:
            left.close()
            right.close()

    def test_retire_consumes_an_in_flight_prefetch_reply(self):
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        try:
            send_message(
                left, {"type": "lease", "lease": 4, "units": []}
            )
            session = _Session(right, name="w")
            session.prefetch_pending = True
            session._retire("drain test")
            decoder = FrameDecoder()
            assert recv_message(left, decoder) == {
                "type": "release",
                "lease": 4,
            }
            assert recv_message(left, decoder) == {"type": "bye"}
        finally:
            left.close()
            right.close()

    def test_retire_goes_quiet_after_done(self):
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        try:
            send_message(left, {"type": "done"})
            session = _Session(right, name="w")
            session.prefetch_pending = True
            session._retire("drain test")
            assert session.done_seen
            left.setblocking(False)
            with pytest.raises(BlockingIOError):
                left.recv(1)  # no release, no bye: campaign is over
        finally:
            left.close()
            right.close()


class TestResultPartStreaming:
    def test_parts_merge_idempotently_and_settle_at_result(self):
        units = _units(n=2)
        records = run_units(units, SERIAL)
        streamed = []
        coordinator = Coordinator(
            units,
            units_per_lease=2,
            on_record=lambda index, record: streamed.append(index),
        )
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10)
        decoder = FrameDecoder()
        try:
            send_message(
                sock,
                {
                    "type": "hello",
                    "worker": "streamer",
                    "protocol": PROTOCOL_VERSION,
                },
            )
            assert recv_message(sock, decoder) == {
                "type": "welcome",
                "protocol": PROTOCOL_VERSION,
                "units_total": 2,
            }
            send_message(sock, {"type": "request"})
            lease = recv_message(sock, decoder)
            lease_id = lease["lease"]
            part = {
                "type": "result-part",
                "lease": lease_id,
                "records": [records[0].to_json()],
            }
            send_message(sock, part)
            send_message(sock, part)  # duplicate part: idempotent
            send_message(
                sock,
                {
                    "type": "result-part",
                    "lease": lease_id,
                    "records": [records[1].to_json()],
                },
            )
            # The result carries no records, only the timing (and any
            # failures), yet settles the whole lease.
            send_message(
                sock,
                {"type": "result", "lease": lease_id, "elapsed_s": 0.5},
            )
            assert recv_message(sock, decoder)["type"] == "done"
        finally:
            sock.close()
        thread.join(timeout=30)
        assert [r.to_json() for r in box["records"]] == [
            r.to_json() for r in records
        ]
        assert streamed == [0, 1]  # fresh merges only, once each
        # The worker's self-reported timing fed the controller.
        assert coordinator._table.service_ewma  # noqa: SLF001


class TestPooledLeasePath:
    """``jobs > 1`` on a multi-unit lease: the units run through the
    process pool and each record streams from its ``on_record`` hook."""

    def test_pooled_lease_matches_serial(self):
        units = _units(n=4)
        reference = run_units(units, SERIAL)
        coordinator = Coordinator(units, units_per_lease=4)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        stats = WorkerStats()
        run_worker(host, port, name="pooled", jobs=2, stats=stats)
        thread.join(timeout=60)
        assert [r.to_json() for r in box["records"]] == [
            r.to_json() for r in reference
        ]
        assert stats.parts_sent == 4

    def test_pool_failure_is_attributed_to_the_failing_unit(self):
        # A unit no executor knows fails the pooled map, which cannot
        # say which unit it was: the worker re-runs the lease unit by
        # unit and reports only that one as failed.
        units = _units(n=4)
        bogus = WorkUnit(kind="bogus", key="bogus:0", spec={})
        coordinator = Coordinator(
            units + [bogus], units_per_lease=5, max_attempts=1
        )
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        run_worker(host, port, name="pooled", jobs=2)
        thread.join(timeout=60)
        error = box["error"]
        assert isinstance(error, QuarantineError)
        assert set(error.quarantined) == {"bogus:0"}
        assert [r.to_json() for r in error.records] == [
            r.to_json() for r in run_units(units, SERIAL)
        ]


# ---------------------------------------------------------------------------
# The idle-free wire: Nagle off, and a parked worker wakes on its socket


def _nodelay_flag(sock):
    return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)


class TestIdleFreeWire:
    def test_every_dist_tcp_socket_sets_nodelay(self, monkeypatch):
        accepted = []

        class ProbedCoordinator(Coordinator):
            def _accept(self, selector, clients):
                before = set(clients)
                super()._accept(selector, clients)
                accepted.extend(
                    _nodelay_flag(sock) for sock in set(clients) - before
                )

        dialled = []
        session_run = _Session.run

        def probed_run(session):
            dialled.append(_nodelay_flag(session.sock))
            return session_run(session)

        monkeypatch.setattr(_Session, "run", probed_run)
        # A coordinator restart after the second merge forces the
        # worker through its reconnect path.
        install(
            FaultPlan(
                name="restart-once",
                seed=0,
                specs=(
                    FaultSpec(
                        "coordinator.merge", "restart", skip=1,
                        max_fires=1, role="coordinator",
                    ),
                ),
            ),
            role="coordinator",
        )
        try:
            units = _units(n=4)
            coordinator = ProbedCoordinator(units)
            host, port = coordinator.bind()
            thread, box = _serve_in_thread(coordinator)
            run_worker(host, port, name="dialler", reconnect_timeout=20)
            thread.join(timeout=30)
        finally:
            uninstall()
        assert not thread.is_alive()
        assert [r.key for r in box["records"]] == [u.key for u in units]
        # The first connection, then at least one reconnect, on both
        # ends of the wire.
        assert len(dialled) >= 2 and len(accepted) >= 2
        assert dialled == [1] * len(dialled)
        assert accepted == [1] * len(accepted)

    def _start_parked(self, left, right):
        """Run a session's lease loop in a thread, its first grant a
        ``wait`` at the retry ceiling; returns once the worker parked."""
        send_message(left, {"type": "wait", "retry_s": RETRY_MAX_S})
        session = _Session(right, name="parked")
        box = {}

        def target():
            try:
                box["executed"] = session._lease_loop()
            except Exception as exc:  # noqa: BLE001 - surfaced by the test
                box["error"] = exc
            box["returned"] = time.monotonic()

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        assert recv_message(left, FrameDecoder()) == {"type": "request"}
        deadline = time.monotonic() + 10
        while not session.stats.wait_sleeps:
            assert time.monotonic() < deadline, "worker never parked"
            time.sleep(0.01)
        time.sleep(0.1)
        return thread, box

    def test_parked_worker_wakes_on_done(self):
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        try:
            thread, box = self._start_parked(left, right)
            sent = time.monotonic()
            send_message(left, {"type": "done"})
            thread.join(timeout=RETRY_MAX_S + 5)
        finally:
            left.close()
            right.close()
        assert not thread.is_alive()
        assert "error" not in box
        assert box["executed"] == 0
        assert box["returned"] - sent < 1.0

    def test_parked_worker_sees_a_closed_connection(self):
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        try:
            thread, box = self._start_parked(left, right)
            left.close()
            thread.join(timeout=RETRY_MAX_S + 5)
        finally:
            left.close()
            right.close()
        assert not thread.is_alive()
        assert isinstance(box.get("error"), _ConnectionLost)

    def test_drain_ends_the_reconnect_backoff(self):
        # The coordinator reads the hello and vanishes, listener and
        # all: every reconnect is refused, and without the drain check
        # the worker would retry until reconnect_timeout.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        drain = threading.Event()
        box = {}

        def vanish():
            conn, _ = listener.accept()
            with conn:
                conn.settimeout(10)
                box["hello"] = recv_message(conn, FrameDecoder())
            listener.close()
            box["requested"] = time.monotonic()
            drain.set()

        coordinator = threading.Thread(target=vanish, daemon=True)
        coordinator.start()
        logs = []

        def target():
            try:
                box["executed"] = run_worker(
                    "127.0.0.1",
                    port,
                    name="drainer",
                    reconnect_timeout=20,
                    drain_check=drain.is_set,
                    log=logs.append,
                )
            except Exception as exc:  # noqa: BLE001 - surfaced by the test
                box["error"] = exc
            box["returned"] = time.monotonic()

        worker = threading.Thread(target=target, daemon=True)
        worker.start()
        worker.join(timeout=2)
        assert not worker.is_alive(), "worker kept reconnecting"
        assert "error" not in box
        assert box["hello"]["type"] == "hello"
        assert box["executed"] == 0
        assert box["returned"] - box["requested"] < 1.0
        assert "draining on request while reconnecting" in logs[-1]


# ---------------------------------------------------------------------------
# CLI validation


class TestCliLeaseFlags:
    def _parser(self):
        from repro.cli import build_parser

        return build_parser()

    def test_units_per_lease_rejects_zero(self, capsys):
        with pytest.raises(SystemExit):
            self._parser().parse_args(
                ["coordinate", "table5", "--units-per-lease", "0"]
            )
        assert "must be >= 1" in capsys.readouterr().err

    def test_lease_target_rejects_non_positive_and_non_finite(self, capsys):
        for bad in ("0", "-2", "inf", "nan"):
            with pytest.raises(SystemExit):
                self._parser().parse_args(
                    ["coordinate", "table5", "--lease-target-seconds", bad]
                )
        assert "finite" in capsys.readouterr().err

    def test_defaults_are_adaptive(self):
        args = self._parser().parse_args(["experiment", "table5"])
        assert args.units_per_lease is None
        assert args.lease_target_s == pytest.approx(2.0)
