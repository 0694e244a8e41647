"""Protocol v3: adaptive leases, pipelining, streaming, compression.

Covers the four tentpole features of the distributed-protocol overhaul
at every layer boundary:

* :class:`~repro.dist.LeaseTable` adaptive sizing under an injected
  clock (probe leases, EWMA convergence, tail shrink, deadline
  scaling, fleet fallback, the fixed-size override);
* zlib frame compression (round trip, small-frame passthrough) and a
  hypothesis fuzz of the inflate path — bit flips, truncation, bombs
  and trailing bytes must all surface as typed
  :class:`~repro.errors.ProtocolError`, never anything else;
* the v3<->v2 handshake downgrade in both directions (old worker on a
  new coordinator, new worker told to speak v2);
* lease pipelining and ``result-part`` streaming end to end, with the
  byte-identity contract checked against a serial run;
* the idle-free wire: ``TCP_NODELAY`` on every dist TCP socket, and a
  worker parked on ``wait`` that wakes on ``done`` or a closed socket.
"""

from __future__ import annotations

import socket
import threading
import time
import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dist import (
    COMPRESS_FLAG,
    Coordinator,
    FrameDecoder,
    LeaseTable,
    MAX_FRAME,
    MAX_LEASE_UNITS,
    WorkerStats,
    encode_frame,
    recv_message,
    run_worker,
    send_message,
)
from repro.dist.coordinator import (
    WAIT_RETRY_MAX_S,
    WAIT_RETRY_MIN_S,
    WAIT_RETRY_S,
)
from repro.dist.leases import EWMA_ALPHA, TAIL_FACTOR
from repro.dist.worker import RETRY_MAX_S, _ConnectionLost, _Session
from repro.errors import DistError, ProtocolError
from repro.faults import FaultPlan, FaultSpec, install, uninstall
from repro.litmus.units import litmus_unit
from repro.parallel import run_units
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
# Frame compression


def _big_message(n=60):
    return {"type": "result", "records": ["payload-" * 16] * n}


class TestFrameCompression:
    def test_round_trip_sets_the_flag_and_shrinks(self):
        message = _big_message()
        raw = encode_frame(message)
        frame = encode_frame(message, compress=True)
        assert len(frame) < len(raw)
        (header,) = (int.from_bytes(frame[:4], "big"),)
        assert header & COMPRESS_FLAG
        assert FrameDecoder().feed(frame) == [message]

    def test_small_frames_ship_raw(self):
        message = {"type": "request"}
        frame = encode_frame(message, compress=True)
        assert frame == encode_frame(message)
        assert not int.from_bytes(frame[:4], "big") & COMPRESS_FLAG

    def test_compression_that_grows_a_frame_is_skipped(self, monkeypatch):
        # Deflate is only used when it actually shrinks the frame; an
        # incompressible payload must ship raw, unflagged.
        monkeypatch.setattr(
            "repro.dist.protocol.zlib.compress",
            lambda data, level=6: data + b"pad",
        )
        message = _big_message()
        frame = encode_frame(message, compress=True)
        assert frame == encode_frame(message)
        assert not int.from_bytes(frame[:4], "big") & COMPRESS_FLAG
        assert FrameDecoder().feed(frame) == [message]

    def test_wire_stats_count_the_saving(self):
        from repro.dist import WireStats

        left, right = socket.socketpair()
        out_stats, in_stats = WireStats(), WireStats()
        try:
            send_message(
                left, _big_message(), compress=True, stats=out_stats
            )
            decoder = FrameDecoder(stats=in_stats)
            assert recv_message(right, decoder) == _big_message()
        finally:
            left.close()
            right.close()
        assert out_stats.compressed_out == 1
        assert out_stats.wire_out < out_stats.raw_out
        assert in_stats.compressed_in == 1
        assert in_stats.raw_in == out_stats.raw_out
        assert "compressed frame(s)" in out_stats.summary()

    def test_decompression_bomb_refused(self):
        deflated = zlib.compress(b"\x00" * (MAX_FRAME + 1))
        frame = (
            (len(deflated) | COMPRESS_FLAG).to_bytes(4, "big") + deflated
        )
        with pytest.raises(ProtocolError, match="inflates past"):
            FrameDecoder().feed(frame)

    def test_trailing_bytes_after_deflate_stream_refused(self):
        payload = zlib.compress(b"x" * 4096) + b"extra"
        frame = (len(payload) | COMPRESS_FLAG).to_bytes(4, "big") + payload
        with pytest.raises(ProtocolError, match="trailing"):
            FrameDecoder().feed(frame)


class TestCompressedFrameFuzz:
    """The inflate path under hostile bytes: every corruption is a
    typed ProtocolError — never a hang, a crash, or silent garbage."""

    _FRAME = encode_frame(_big_message(), compress=True)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(position=st.integers(0, 2**31), flip=st.integers(1, 255))
    def test_bit_flipped_body_always_refused(self, position, flip):
        frame = bytearray(self._FRAME)
        index = 4 + position % (len(frame) - 4)
        frame[index] ^= flip
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(bytes(frame))

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(1, 2**31))
    def test_truncated_deflate_stream_always_refused(self, cut):
        body = self._FRAME[4:]
        keep = len(body) - (1 + cut % (len(body) - 1))
        truncated = body[:keep]
        frame = (
            (len(truncated) | COMPRESS_FLAG).to_bytes(4, "big") + truncated
        )
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(frame)

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(garbage=st.binary(min_size=1, max_size=256))
    def test_arbitrary_bytes_as_compressed_body_refused(self, garbage):
        frame = (len(garbage) | COMPRESS_FLAG).to_bytes(4, "big") + garbage
        decoder = FrameDecoder()
        try:
            messages = decoder.feed(frame)
        except ProtocolError:
            return
        # Vanishingly unlikely, but if random bytes are a valid deflate
        # stream they must still decode to a typed message to pass.
        assert all(isinstance(m, dict) and "type" in m for m in messages)


# ---------------------------------------------------------------------------
# Handshake negotiation / downgrade


class TestHandshakeDowngrade:
    def test_v2_worker_served_by_v3_coordinator(self):
        units = _units(n=1)
        coordinator = Coordinator(units, compress=True)
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
                    "worker": "legacy",
                    "protocol": 2,
                    "compress": True,  # v2 asking for it changes nothing
                },
            )
            welcome = recv_message(sock, decoder)
            assert welcome["type"] == "welcome"
            assert welcome["protocol"] == 2
            assert welcome["compress"] is False
            send_message(sock, {"type": "request"})
            lease = recv_message(sock, decoder)
            assert lease["type"] == "lease"
            records = run_units(units, SERIAL)
            send_message(
                sock,
                {
                    "type": "result",
                    "lease": lease["lease"],
                    "records": [r.to_json() for r in records],
                },
            )
            assert recv_message(sock, decoder)["type"] == "done"
        finally:
            sock.close()
        thread.join(timeout=30)
        assert [r.key for r in box["records"]] == [u.key for u in units]

    def test_v3_features_fenced_off_from_v2_connections(self):
        units = _units(n=1)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10)
        decoder = FrameDecoder()
        try:
            send_message(
                sock, {"type": "hello", "worker": "old", "protocol": 2}
            )
            assert recv_message(sock, decoder)["type"] == "welcome"
            # A v2 connection sending a v3-only frame is a protocol
            # violation, not a silent no-op.
            send_message(sock, {"type": "result-part", "lease": 1})
            reply = recv_message(sock, decoder)
            assert reply["type"] == "error"
            assert "result-part" in reply["message"]
        finally:
            sock.close()
        run_worker(host, port)  # a real worker finishes the campaign
        thread.join(timeout=30)
        assert "records" in box

    def test_worker_accepts_a_v2_downgrade(self):
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        try:
            send_message(
                left,
                {
                    "type": "welcome",
                    "protocol": 2,
                    "compress": True,  # lying coordinator: v2 wins
                    "units_total": 0,
                },
            )
            session = _Session(right, name="w", protocol=3, compress=True)
            session._handshake()
            assert session.negotiated == 2
            assert not session.v3
            assert session.send_compress is False
            hello = recv_message(left, FrameDecoder())
            assert hello["protocol"] == 3
            assert hello["compress"] is True
        finally:
            left.close()
            right.close()

    @pytest.mark.parametrize("negotiated", [5, 1, True, "3", None])
    def test_worker_refuses_an_unusable_negotiation(self, negotiated):
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        try:
            send_message(
                left,
                {
                    "type": "welcome",
                    "protocol": negotiated,
                    "units_total": 0,
                },
            )
            session = _Session(right, name="w", protocol=3)
            with pytest.raises(ProtocolError, match="negotiated"):
                session._handshake()
        finally:
            left.close()
            right.close()


# ---------------------------------------------------------------------------
# Pipelining, release, result-part streaming


class TestPipelining:
    def test_pipelined_campaign_is_byte_identical_to_serial(self):
        units = _units(n=12)
        reference = run_units(units, SERIAL)
        coordinator = Coordinator(units, compress=True)
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

    def test_retire_releases_a_buffered_prefetched_lease(self):
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        logs = []
        try:
            session = _Session(right, name="w", log=logs.append)
            session.negotiated = 3
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
            session.negotiated = 3
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
            session.negotiated = 3
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
                sock, {"type": "hello", "worker": "streamer", "protocol": 3}
            )
            assert recv_message(sock, decoder)["type"] == "welcome"
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
            # Final result carries no records — everything already
            # streamed — yet must settle the whole lease.
            send_message(
                sock,
                {
                    "type": "result",
                    "lease": lease_id,
                    "records": [],
                    "elapsed_s": 0.5,
                },
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
        session.negotiated = 3
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

    def test_legacy_lease_units_alias_still_parses(self):
        args = self._parser().parse_args(
            ["coordinate", "table5", "--lease-units", "4"]
        )
        assert args.units_per_lease == 4
