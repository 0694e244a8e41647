"""Tests for the distributed coordination layer (repro.dist).

Covers the wire protocol (framing, split reads, garbage rejection),
lease bookkeeping under an injected clock (expiry, reassignment,
heartbeats), the coordinator/worker loop end to end over real sockets
(in-thread workers and spawned subprocesses), and every failure mode
the lease model promises to absorb: worker death (EOF), silent hangs
(deadline expiry), voluntary churn (``bye``), duplicate results
(idempotent merge) and conflicting results (refused loudly).
"""

import dataclasses
import socket
import subprocess
import sys
import threading

import pytest

from repro.chips import get_chip
from repro.dist import (
    Coordinator,
    DistributedSubmit,
    FrameDecoder,
    LeaseTable,
    MAX_FRAME,
    PROTOCOL_VERSION,
    encode_frame,
    recv_message,
    run_worker,
    send_message,
    worker_command,
)
from repro.errors import (
    DistError,
    LedgerConflictError,
    ProtocolError,
    WorkerExitError,
)
from repro.litmus.units import execute_litmus_unit, litmus_unit
from repro.parallel import run_units
from repro.scale import SMOKE
from repro.store import litmus_key
from repro.stress.strategies import NoStress
from repro.testing.campaign import run_campaign


def _plan(n=4, executions=8):
    """A small all-unique litmus plan (fast to execute in-process)."""
    tests = ["MP", "SB", "LB", "CoRR", "R", "S", "WRC", "IRIW"]
    units = []
    for i, test in enumerate(tests[:n]):
        key = litmus_key("K20", test, "no-str", 64, executions, i)
        units.append(
            litmus_unit(
                key, "K20", test, 64, NoStress(), executions, seed=i
            )
        )
    return units


class TestFrameCodec:
    def test_round_trip_one_frame(self):
        decoder = FrameDecoder()
        message = {"type": "hello", "worker": "w", "protocol": 1}
        assert decoder.feed(encode_frame(message)) == [message]

    def test_frame_split_across_reads(self):
        decoder = FrameDecoder()
        frame = encode_frame({"type": "request"})
        for byte in frame[:-1]:
            assert decoder.feed(bytes([byte])) == []
        assert decoder.feed(frame[-1:]) == [{"type": "request"}]

    def test_multiple_frames_per_read(self):
        decoder = FrameDecoder()
        data = encode_frame({"type": "a"}) + encode_frame({"type": "b"})
        assert decoder.feed(data) == [{"type": "a"}, {"type": "b"}]

    def test_oversize_length_prefix_refused(self):
        decoder = FrameDecoder()
        bad = (MAX_FRAME + 1).to_bytes(4, "big") + b"x"
        with pytest.raises(ProtocolError):
            decoder.feed(bad)

    def test_undecodable_payload_refused(self):
        decoder = FrameDecoder()
        bad = (4).to_bytes(4, "big") + b"\xff\xfe\xfd\xfc"
        with pytest.raises(ProtocolError):
            decoder.feed(bad)

    def test_untyped_message_refused(self):
        decoder = FrameDecoder()
        payload = b"[1,2]"
        with pytest.raises(ProtocolError):
            decoder.feed(len(payload).to_bytes(4, "big") + payload)

    def test_recv_message_queues_pipelined_frames(self):
        # A peer may send two frames back to back (a lease reply then a
        # broadcast done); recv_message must hand them out one by one.
        left, right = socket.socketpair()
        try:
            left.sendall(
                encode_frame({"type": "lease"}) + encode_frame({"type": "done"})
            )
            left.close()
            decoder = FrameDecoder()
            assert recv_message(right, decoder) == {"type": "lease"}
            assert decoder.pending == [{"type": "done"}]
            assert recv_message(right, decoder) == {"type": "done"}
            assert recv_message(right, decoder) is None  # clean EOF
        finally:
            right.close()


class TestLeaseTable:
    def _table(self, n=4, timeout=10.0, per_lease=1):
        clock = [0.0]
        table = LeaseTable(
            n_units=n,
            timeout=timeout,
            units_per_lease=per_lease,
            now=lambda: clock[0],
        )
        return table, clock

    def test_grant_complete_done(self):
        table, _ = self._table(n=2)
        a = table.grant("w1")
        b = table.grant("w1")
        assert a.indices == (0,) and b.indices == (1,)
        assert table.grant("w1") is None
        table.complete(a.lease_id)
        assert not table.done
        table.complete(b.lease_id)
        assert table.done

    def test_units_per_lease_batches(self):
        table, _ = self._table(n=5, per_lease=3)
        assert table.grant("w").indices == (0, 1, 2)
        assert table.grant("w").indices == (3, 4)

    def test_heartbeat_extends_deadline(self):
        table, clock = self._table(timeout=10.0)
        lease = table.grant("w")
        clock[0] = 8.0
        assert table.heartbeat("w", lease.lease_id)
        clock[0] = 15.0  # would have expired without the heartbeat
        assert table.expire() == []
        assert table.heartbeat("w", 999) is False

    def test_heartbeat_extends_every_lease_of_its_worker(self):
        # One heartbeat proves the connection alive: it keeps the
        # buffered prefetched lease as well as the one it names.
        table, clock = self._table(n=3, timeout=10.0)
        executing = table.grant("w1")
        prefetched = table.grant("w1")
        other = table.grant("w2")
        clock[0] = 8.0
        assert table.heartbeat("w1", executing.lease_id)
        clock[0] = 15.0
        assert table.expire() == [other]
        assert set(table.active) == {executing.lease_id, prefetched.lease_id}
        # Held answers for this worker's leases only.
        assert table.heartbeat("w2", executing.lease_id) is False

    def test_expiry_repends_to_front(self):
        table, clock = self._table(n=3, timeout=5.0, per_lease=2)
        hung = table.grant("w1")  # units 0, 1
        assert hung.indices == (0, 1)
        clock[0] = 6.0
        expired = table.expire()
        assert [lease.lease_id for lease in expired] == [hung.lease_id]
        # Re-pended units come back first, in their original order.
        assert table.grant("w2").indices == (0, 1)
        assert table.grant("w2").indices == (2,)

    def test_release_worker_only_touches_that_worker(self):
        table, _ = self._table(n=4)
        w1 = table.grant("w1")
        w2 = table.grant("w2")
        table.release_worker("w1")
        assert w2.lease_id in table.active
        assert table.grant("w3").indices == w1.indices

    def test_completed_units_never_repend(self):
        table, clock = self._table(n=2, timeout=5.0, per_lease=2)
        lease = table.grant("w1")
        table.complete(lease.lease_id)
        # A stale handle to the same lease expiring must not resurrect
        # its units.
        clock[0] = 99.0
        assert table.expire() == []
        assert table.grant("w2") is None
        assert table.done

    def test_complete_unknown_lease_is_noop(self):
        table, clock = self._table(n=1, timeout=5.0)
        lease = table.grant("w1")
        clock[0] = 6.0
        table.expire()
        # The original holder reports in late: thanked and ignored.
        assert table.complete(lease.lease_id) == ()
        assert not table.done

    @pytest.mark.parametrize(
        "timeout", [float("nan"), float("inf"), 0.0, -1.0]
    )
    def test_timeout_must_be_finite_and_positive(self, timeout):
        # A NaN deadline never compares as passed, so such a lease
        # would never expire and a hung worker would keep its units.
        with pytest.raises(DistError, match="lease timeout"):
            LeaseTable(n_units=2, timeout=timeout)

    def test_validation(self):
        with pytest.raises(DistError):
            LeaseTable(n_units=1, units_per_lease=0)


def _serve_in_thread(coordinator):
    """Run ``coordinator.serve()`` in a daemon thread; returns the
    thread and a box that will hold ``records`` or ``error``."""
    box = {}

    def target():
        try:
            box["records"] = coordinator.serve()
        except Exception as exc:  # noqa: BLE001 - surfaced by the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def _fake_worker(host, port, name="fake"):
    """Handshake a raw protocol connection (for driving failure modes
    a well-behaved worker never exercises)."""
    sock = socket.create_connection((host, port), timeout=10)
    sock.settimeout(10)
    decoder = FrameDecoder()
    send_message(
        sock,
        {"type": "hello", "worker": name, "protocol": PROTOCOL_VERSION},
    )
    welcome = recv_message(sock, decoder)
    assert welcome["type"] == "welcome"
    return sock, decoder


class TestCoordinatorWorker:
    def test_single_worker_matches_local_execution(self):
        units = _plan()
        expected = run_units(units)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        executed = run_worker(host, port, name="solo")
        thread.join(timeout=30)
        assert executed == len(units)
        assert box["records"] == expected

    def test_two_workers_split_the_plan(self):
        units = _plan(n=6)
        expected = run_units(units)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        counts = []
        workers = [
            threading.Thread(
                target=lambda i=i: counts.append(
                    run_worker(host, port, name=f"w{i}")
                ),
                daemon=True,
            )
            for i in range(2)
        ]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
        thread.join(timeout=30)
        assert box["records"] == expected
        assert sum(counts) >= len(units)  # >= : a reassigned duplicate

    def test_duplicate_plan_keys_rejected(self):
        unit = _plan(n=1)[0]
        with pytest.raises(DistError):
            Coordinator([unit, unit])

    def test_worker_eof_reassigns_lease(self):
        # The kill -9 shape: a worker takes a lease and its connection
        # drops without a result.  The units re-pend immediately and the
        # next worker completes the full plan.
        units = _plan()
        expected = run_units(units)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock, decoder = _fake_worker(host, port, name="doomed")
        send_message(sock, {"type": "request"})
        lease = recv_message(sock, decoder)
        assert lease["type"] == "lease"
        sock.close()  # dies holding the lease
        run_worker(host, port, name="survivor")
        thread.join(timeout=30)
        assert box["records"] == expected

    def test_silent_worker_lease_expires(self):
        # A hung worker (connection alive, no heartbeats) loses its
        # lease at the deadline; a healthy worker finishes the plan.
        units = _plan(n=2)
        expected = run_units(units)
        coordinator = Coordinator(units, lease_timeout=0.3)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock, decoder = _fake_worker(host, port, name="hung")
        send_message(sock, {"type": "request"})
        assert recv_message(sock, decoder)["type"] == "lease"
        try:
            # ...and says nothing more.  The healthy worker drains the
            # other unit, waits, then picks up the expired one.
            run_worker(host, port, name="healthy")
            thread.join(timeout=30)
            assert box["records"] == expected
        finally:
            sock.close()

    def test_duplicate_result_merges_idempotently(self):
        units = _plan(n=1)
        record = execute_litmus_unit(units[0])
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock, decoder = _fake_worker(host, port)
        send_message(sock, {"type": "request"})
        lease = recv_message(sock, decoder)
        part = {
            "type": "result-part",
            "lease": lease["lease"],
            "records": [record.to_json()],
        }
        send_message(sock, part)
        send_message(sock, part)  # replayed frame: absorbed
        send_message(sock, {"type": "result", "lease": lease["lease"]})
        thread.join(timeout=30)
        sock.close()
        assert box["records"] == [record]

    def test_conflicting_result_refused(self):
        units = _plan(n=2)
        record = execute_litmus_unit(units[0])
        tampered = dataclasses.replace(
            record, payload={**record.payload, "weak": -1}
        )
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock, decoder = _fake_worker(host, port)
        send_message(sock, {"type": "request"})
        lease = recv_message(sock, decoder)
        send_message(
            sock,
            {
                "type": "result-part",
                "lease": lease["lease"],
                "records": [record.to_json(), tampered.to_json()],
            },
        )
        thread.join(timeout=30)
        sock.close()
        assert isinstance(box["error"], LedgerConflictError)

    def test_unknown_content_key_refused(self):
        units = _plan(n=1)
        record = execute_litmus_unit(units[0])
        alien = dataclasses.replace(record, key="litmus:not:in:plan")
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock, decoder = _fake_worker(host, port)
        send_message(sock, {"type": "request"})
        lease = recv_message(sock, decoder)
        send_message(
            sock,
            {
                "type": "result-part",
                "lease": lease["lease"],
                "records": [alien.to_json()],
            },
        )
        thread.join(timeout=30)
        sock.close()
        assert isinstance(box["error"], DistError)

    def test_worker_churn_via_max_units(self):
        # One worker joins, executes a single unit, leaves voluntarily;
        # a later worker finishes the rest.  The merge never notices.
        units = _plan()
        expected = run_units(units)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        first = run_worker(host, port, name="drifter", max_units=1)
        second = run_worker(host, port, name="closer")
        thread.join(timeout=30)
        assert first == 1
        assert second == len(units) - 1
        assert box["records"] == expected

    def test_protocol_mismatch_fenced_off(self):
        units = _plan(n=1)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10)
        decoder = FrameDecoder()
        send_message(
            sock, {"type": "hello", "worker": "old", "protocol": 999}
        )
        reply = recv_message(sock, decoder)
        assert reply["type"] == "error"
        assert "protocol" in reply["message"]
        sock.close()
        run_worker(host, port)  # a current worker still completes
        thread.join(timeout=30)
        assert "records" in box

    @pytest.mark.parametrize(
        "frame",
        [
            {"type": "heartbeat", "lease": [1]},
            {"type": "result", "lease": 1, "failed": ["x"]},
            {"type": "result", "lease": 1, "records": "zz"},
            {"type": "result", "lease": 1, "records": []},
            {"type": "release", "lease": {}},
            {"type": "result-part", "lease": 1, "records": [1]},
        ],
        ids=[
            "heartbeat-list-lease",
            "result-str-failure",
            "result-str-records",
            "result-carries-records",
            "release-dict-lease",
            "result-part-int-record",
        ],
    )
    def test_malformed_field_costs_only_its_connection(self, frame):
        # A well-framed message with one malformed field gets its
        # sender an error frame and a dropped connection; the campaign
        # carries on and a healthy worker finishes it.
        units = _plan()
        expected = run_units(units)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock, decoder = _fake_worker(host, port, name="sloppy")
        try:
            send_message(sock, {"type": "request"})
            assert recv_message(sock, decoder)["type"] == "lease"
            send_message(sock, frame)
            assert recv_message(sock, decoder)["type"] == "error"
            assert recv_message(sock, decoder) is None  # dropped
        finally:
            sock.close()
        run_worker(host, port, name="survivor")
        thread.join(timeout=30)
        assert box["records"] == expected

    def test_hello_required_first(self):
        units = _plan(n=1)
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        sock = socket.create_connection((host, port), timeout=10)
        sock.settimeout(10)
        decoder = FrameDecoder()
        send_message(sock, {"type": "request"})
        reply = recv_message(sock, decoder)
        assert reply["type"] == "error"
        sock.close()
        run_worker(host, port)
        thread.join(timeout=30)
        assert "records" in box

    def test_worker_raises_when_coordinator_vanishes(self):
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()

        def half_coordinator():
            conn, _ = listener.accept()
            decoder = FrameDecoder()
            assert recv_message(conn, decoder)["type"] == "hello"
            send_message(
                conn,
                {
                    "type": "welcome",
                    "protocol": PROTOCOL_VERSION,
                    "units_total": 1,
                },
            )
            conn.close()  # crash before serving any lease

        thread = threading.Thread(target=half_coordinator, daemon=True)
        thread.start()
        try:
            with pytest.raises(WorkerExitError):
                # reconnect_timeout=0 opts out of ride-it-out backoff so a
                # vanished coordinator is immediately fatal, as before v2.
                run_worker(host, port, connect_timeout=5, reconnect_timeout=0)
        finally:
            thread.join(timeout=10)
            listener.close()

    def test_connect_timeout_when_no_coordinator(self):
        # A port nobody is listening on: bind-then-close guarantees it
        # was recently free.
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(WorkerExitError):
            run_worker("127.0.0.1", port, connect_timeout=0.3)


TINY = dataclasses.replace(SMOKE, campaign_runs=6)


class TestDistributedSubmit:
    def test_worker_command_shape(self):
        argv = worker_command("10.0.0.5", 7077, "w3", jobs=2)
        assert argv[0] == sys.executable
        assert "--connect" in argv
        assert argv[argv.index("--connect") + 1] == "10.0.0.5:7077"
        assert argv[argv.index("--jobs") + 1] == "2"
        assert "--faults" not in argv
        assert "--reconnect-timeout" not in argv
        armed = worker_command(
            "10.0.0.5", 7077, "w3", fault_plan="/tmp/plan.json",
            reconnect_timeout=7.5,
        )
        assert armed[armed.index("--faults") + 1] == "/tmp/plan.json"
        assert armed[armed.index("--reconnect-timeout") + 1] == "7.5"

    def test_distributed_campaign_matches_serial(self, k20):
        # The tentpole acceptance shape, in-process: the same campaign
        # through two spawned socket workers is bit-identical to the
        # serial run.
        args = dict(
            chips=[k20],
            environments=["no-str-", "sys-str+"],
            scale=TINY,
            seed=3,
        )
        serial = run_campaign(**args)
        distributed = run_campaign(
            **args, submit=DistributedSubmit(workers=2)
        )
        assert distributed == serial

    def test_clean_run_reaps_workers_without_terminate(self, monkeypatch):
        # Every worker was sent ``done`` and is exiting by itself; a
        # SIGTERM on the success path would only make it log a drain.
        # The units are slow enough (~0.25 s each) that both workers
        # connect long before the campaign can finish.
        terminated = []
        real_terminate = subprocess.Popen.terminate

        def counting_terminate(proc):
            terminated.append(proc.pid)
            real_terminate(proc)

        monkeypatch.setattr(subprocess.Popen, "terminate", counting_terminate)
        units = _plan(n=8, executions=1000)
        submit = DistributedSubmit(workers=2)
        records = submit(units, None, None)
        assert [r.key for r in records] == [u.key for u in units]
        assert terminated == []
        assert [proc.returncode for proc in submit.procs] == [0, 0]

    def test_all_workers_dead_aborts(self, monkeypatch):
        import repro.dist.submit as submit_module

        monkeypatch.setattr(
            submit_module,
            "worker_command",
            lambda host, port, name, jobs=1, **kwargs: [
                sys.executable, "-c", "import sys; sys.exit(3)"
            ],
        )
        submit = DistributedSubmit(workers=2)
        with pytest.raises(DistError, match="spawned workers"):
            submit(_plan(n=1), None, None)

    def test_non_distributable_experiment_rejected(self):
        from repro.reporting.experiments import run_experiment

        with pytest.raises(ValueError, match="cannot run distributed"):
            run_experiment(
                "table1", scale=TINY, submit=DistributedSubmit(workers=1)
            )


def test_chip_fixture_sanity(k20):
    assert get_chip("K20") is k20
