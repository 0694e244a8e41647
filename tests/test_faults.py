"""Tests for the deterministic fault-injection plane (repro.faults)
and the hardening it drives.

Covers the plan/spec contract (validation, JSON round-trips), injector
determinism (same plan + seed + call sequence => identical trace),
runtime installation (explicit and via environment), every injection
site's behaviour (unit execution, socket frames, heartbeats, ledger
writes), the hardening each site exercises (attempt budgets and
quarantine, worker reconnect with backoff, coordinator restart,
held=False discard, ledger salvage), and the end-to-end chaos harness:
a distributed experiment under a hostile plan still renders output
byte-identical to a fault-free serial run.
"""

import dataclasses
import json
import socket
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dist import (
    Coordinator,
    FrameDecoder,
    LeaseTable,
    MAX_FRAME,
    PROTOCOL_VERSION,
    backoff_delay,
    clamp_retry_s,
    encode_frame,
    recv_message,
    run_worker,
    send_message,
)
from repro.dist.worker import (
    BACKOFF_BASE_S,
    BACKOFF_CAP_S,
    RETRY_MAX_S,
    _Session,
)
from repro.errors import (
    FaultInjected,
    LedgerCorruptError,
    LedgerError,
    ProtocolError,
    QuarantineError,
    ReproError,
    WorkerExitError,
)
from repro.faults import (
    ChaosReport,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    PLAN_ENV,
    ROLE_ENV,
    fault_at,
    install,
    run_chaos,
    suppress_faults,
    uninstall,
)
from repro.litmus.units import litmus_unit
from repro.parallel import run_units
from repro.parallel.executor import SERIAL
from repro.parallel.plan import execute_unit
from repro.scale import SMOKE
from repro.store import RunLedger, RunRecord, litmus_key
from repro.store.ledger import QUARANTINE_DIR, salvage_ledger, verify_ledger
from repro.stress.strategies import NoStress


@pytest.fixture(autouse=True)
def _clean_injector(monkeypatch):
    """Every test starts and ends with no plan installed and no plan
    environment leaking into spawned subprocesses."""
    monkeypatch.delenv(PLAN_ENV, raising=False)
    monkeypatch.delenv(ROLE_ENV, raising=False)
    uninstall()
    yield
    uninstall()


def _units(n=3, executions=8):
    """A small all-unique litmus plan (fast to execute in-process)."""
    tests = ["MP", "SB", "LB", "CoRR", "R", "S", "WRC", "IRIW"]
    units = []
    for i, test in enumerate(tests[:n]):
        key = litmus_key("K20", test, "no-str", 64, executions, i)
        units.append(
            litmus_unit(key, "K20", test, 64, NoStress(), executions, seed=i)
        )
    return units


def _plan(*specs, name="test", seed=1):
    return FaultPlan(name=name, seed=seed, specs=tuple(specs))


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


class TestFaultSpecValidation:
    def test_unknown_site_refused(self):
        with pytest.raises(ReproError, match="unknown fault site"):
            FaultSpec("socket.sendd", "drop")

    def test_unknown_kind_for_site_refused(self):
        with pytest.raises(ReproError, match="no fault kind"):
            FaultSpec("unit.execute", "garbage")

    def test_rate_bounds(self):
        with pytest.raises(ReproError, match="rate"):
            FaultSpec("socket.send", "drop", rate=1.5)
        with pytest.raises(ReproError, match="rate"):
            FaultSpec("socket.send", "drop", rate=-0.1)

    def test_unknown_role_refused(self):
        with pytest.raises(ReproError, match="role"):
            FaultSpec("socket.send", "drop", role="observer")

    def test_negative_skip_refused(self):
        with pytest.raises(ReproError, match="skip"):
            FaultSpec("socket.send", "drop", skip=-1)

    def test_zero_max_fires_refused(self):
        with pytest.raises(ReproError, match="max_fires"):
            FaultSpec("socket.send", "drop", max_fires=0)

    def test_unknown_json_field_refused(self):
        with pytest.raises(ReproError, match="unknown fields"):
            FaultSpec.from_json(
                {"site": "socket.send", "kind": "drop", "rat": 0.5}
            )

    def test_plan_round_trips_through_json_file(self, tmp_path):
        plan = _plan(
            FaultSpec("unit.execute", "raise", match="MP", role="worker"),
            FaultSpec(
                "coordinator.merge", "restart", skip=2, max_fires=1,
                role="coordinator",
            ),
            FaultSpec(
                "unit.execute", "hang", rate=0.25,
                params={"hang_s": 0.5},
            ),
            name="round-trip",
            seed=99,
        )
        path = tmp_path / "plan.json"
        plan.dump(path)
        assert FaultPlan.load(path) == plan
        # And the file is honest JSON a human can edit.
        obj = json.loads(path.read_text())
        assert obj["name"] == "round-trip"
        assert obj["faults"][0]["site"] == "unit.execute"

    def test_unreadable_plan_file_refused(self, tmp_path):
        path = tmp_path / "nope.json"
        with pytest.raises(ReproError, match="unreadable fault plan"):
            FaultPlan.load(path)
        path.write_text("{not json")
        with pytest.raises(ReproError, match="unreadable fault plan"):
            FaultPlan.load(path)


class TestInjectorDeterminism:
    SEQUENCE = [
        ("socket.send", "request"),
        ("unit.execute", "unit-a"),
        ("socket.send", "result"),
        ("unit.execute", "unit-b"),
        ("coordinator.merge", None),
        ("unit.execute", "unit-a"),
        ("coordinator.merge", None),
        ("ledger.checkpoint", "unit-a"),
    ]

    def _run(self, plan):
        injector = FaultInjector(plan)
        events = [injector.fault_at(s, t) for s, t in self.SEQUENCE]
        return events, injector.trace

    def test_same_plan_same_sequence_identical_trace(self):
        plan = _plan(
            FaultSpec("unit.execute", "raise", rate=0.6, match="unit"),
            FaultSpec("coordinator.merge", "restart", skip=1, max_fires=1),
            FaultSpec("socket.send", "drop", rate=0.5),
            FaultSpec("ledger.checkpoint", "corrupt"),
            seed=7,
        )
        events_a, trace_a = self._run(plan)
        events_b, trace_b = self._run(plan)
        assert events_a == events_b
        assert trace_a == trace_b
        # Every trace entry logs the site and draw index it fired at.
        for entry in trace_a:
            assert set(entry) == {"site", "kind", "token", "draw"}

    def test_different_seed_may_change_rate_draws_not_structure(self):
        spec = FaultSpec("unit.execute", "raise", rate=0.5)
        fires_by_seed = set()
        for seed in range(8):
            injector = FaultInjector(_plan(spec, seed=seed))
            fired = tuple(
                injector.fault_at("unit.execute", f"u{i}") is not None
                for i in range(16)
            )
            fires_by_seed.add(fired)
        # Rate draws are a function of the seed: different seeds give
        # different firing patterns, each individually reproducible.
        assert len(fires_by_seed) > 1

    def test_skip_and_max_fires(self):
        injector = FaultInjector(
            _plan(FaultSpec("socket.send", "drop", skip=2, max_fires=2))
        )
        fired = [
            injector.fault_at("socket.send") is not None for _ in range(6)
        ]
        assert fired == [False, False, True, True, False, False]
        assert [e["draw"] for e in injector.trace] == [2, 3]

    def test_match_selects_by_token_substring(self):
        injector = FaultInjector(
            _plan(FaultSpec("unit.execute", "raise", match="poison"))
        )
        assert injector.fault_at("unit.execute", "healthy-unit") is None
        event = injector.fault_at("unit.execute", "the-poison-unit")
        assert event is not None and event.kind == "raise"

    def test_stable_token_fires_placement_independently(self):
        # The same content key fires identically in two injectors that
        # reached it at different draw positions (two different workers).
        plan = _plan(FaultSpec("unit.execute", "raise", rate=0.5), seed=3)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        for i in range(5):
            b.fault_at("unit.execute", f"warmup-{i}")
        key = "litmus:K20:MP:no-str:d64"
        assert (a.fault_at("unit.execute", key) is None) == (
            b.fault_at("unit.execute", key) is None
        )

    def test_role_scoping(self):
        plan = _plan(FaultSpec("socket.send", "drop", role="worker"))
        assert (
            FaultInjector(plan, role="coordinator").fault_at("socket.send")
            is None
        )
        assert (
            FaultInjector(plan, role="worker").fault_at("socket.send")
            is not None
        )
        assert (
            FaultInjector(plan, role="any").fault_at("socket.send") is None
        )

    def test_rate_zero_never_fires_rate_one_always(self):
        never = FaultInjector(
            _plan(FaultSpec("socket.send", "drop", rate=0.0))
        )
        always = FaultInjector(
            _plan(FaultSpec("socket.send", "drop", rate=1.0))
        )
        assert all(
            never.fault_at("socket.send") is None for _ in range(20)
        )
        assert all(
            always.fault_at("socket.send") is not None for _ in range(20)
        )

    def test_event_params_reach_the_site(self):
        injector = FaultInjector(
            _plan(
                FaultSpec(
                    "unit.execute", "exit", params={"exit_code": 7}
                )
            )
        )
        event = injector.fault_at("unit.execute", "u")
        assert event.param("exit_code", 41) == 7
        assert event.param("absent", "fallback") == "fallback"


class TestRuntime:
    def test_no_plan_is_a_noop(self):
        assert fault_at("socket.send") is None

    def test_install_and_uninstall(self):
        install(_plan(FaultSpec("socket.send", "drop")))
        assert fault_at("socket.send") is not None
        uninstall()
        assert fault_at("socket.send") is None

    def test_suppress_faults_is_reentrant(self):
        install(_plan(FaultSpec("socket.send", "drop")))
        with suppress_faults():
            with suppress_faults():
                assert fault_at("socket.send") is None
            assert fault_at("socket.send") is None
        assert fault_at("socket.send") is not None

    def test_env_auto_install(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        _plan(FaultSpec("unit.execute", "raise", role="worker")).dump(path)
        monkeypatch.setenv(PLAN_ENV, str(path))
        uninstall()  # forget the env check so the variable is honoured
        event = fault_at("unit.execute", "u")
        assert event is not None  # default env role is worker
        uninstall()
        monkeypatch.setenv(ROLE_ENV, "coordinator")
        assert fault_at("unit.execute", "u") is None


class TestUnitExecutionFaults:
    def test_poisoned_unit_raises_fault_injected(self):
        units = _units(n=2)
        install(
            _plan(FaultSpec("unit.execute", "raise", match=units[0].key))
        )
        with pytest.raises(FaultInjected) as info:
            execute_unit(units[0])
        assert info.value.site == "unit.execute"
        assert info.value.token == units[0].key
        # The other unit is untouched.
        assert execute_unit(units[1]).key == units[1].key

    def test_suppressed_execution_is_clean(self):
        units = _units(n=1)
        expected = run_units(units)
        install(_plan(FaultSpec("unit.execute", "raise")))
        with suppress_faults():
            assert execute_unit(units[0]) == expected[0]

    def test_hang_delays_then_completes(self):
        units = _units(n=1)
        expected = run_units(units)
        install(
            _plan(
                FaultSpec(
                    "unit.execute", "hang", params={"hang_s": 0.01}
                )
            )
        )
        assert execute_unit(units[0]) == expected[0]


class TestSocketFaults:
    def _pair(self):
        left, right = socket.socketpair()
        left.settimeout(5)
        right.settimeout(5)
        return left, right

    def test_send_garbage_surfaces_as_protocol_error(self):
        install(
            _plan(FaultSpec("socket.send", "garbage", match="request"))
        )
        left, right = self._pair()
        try:
            send_message(left, {"type": "request"})
            with pytest.raises(ProtocolError):
                recv_message(right, FrameDecoder())
        finally:
            left.close()
            right.close()

    def test_send_drop_loses_the_frame(self):
        install(
            _plan(FaultSpec("socket.send", "drop", match="heartbeat"))
        )
        left, right = self._pair()
        try:
            send_message(left, {"type": "heartbeat", "lease": 1})
            with suppress_faults():
                send_message(left, {"type": "request"})
            # The dropped frame never arrives; the next one does.
            assert recv_message(right, FrameDecoder()) == {
                "type": "request"
            }
        finally:
            left.close()
            right.close()

    def test_send_partial_raises_connection_reset(self):
        install(
            _plan(FaultSpec("socket.send", "partial", match="result"))
        )
        left, right = self._pair()
        try:
            with pytest.raises(ConnectionResetError):
                send_message(
                    left, {"type": "result", "lease": 1, "failed": []}
                )
        finally:
            left.close()
            right.close()

    def test_recv_drop_raises_connection_reset(self):
        install(_plan(FaultSpec("socket.recv", "drop")))
        left, right = self._pair()
        try:
            with suppress_faults():
                send_message(left, {"type": "request"})
            with pytest.raises(ConnectionResetError):
                recv_message(right, FrameDecoder())
        finally:
            left.close()
            right.close()


class TestRetryClampAndBackoff:
    def test_clamp_passes_sane_values(self):
        assert clamp_retry_s(0.5) == 0.5
        assert clamp_retry_s("0.25") == 0.25
        assert clamp_retry_s(0) == 0.0

    def test_clamp_caps_large_and_negative(self):
        assert clamp_retry_s(3600) == RETRY_MAX_S
        assert clamp_retry_s(-7) == 0.0

    @pytest.mark.parametrize(
        "value", ["soon", None, [1], float("inf"), float("nan")]
    )
    def test_clamp_refuses_non_finite_and_non_numeric(self, value):
        with pytest.raises(ProtocolError, match="retry_s"):
            clamp_retry_s(value)

    def test_backoff_is_deterministic_per_worker(self):
        assert backoff_delay("w1", 3) == backoff_delay("w1", 3)
        assert backoff_delay("w1", 3) != backoff_delay("w2", 3)

    def test_backoff_grows_and_caps_with_jitter_bounds(self):
        for attempt in range(12):
            base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2 ** attempt))
            delay = backoff_delay("w", attempt)
            assert base * 0.5 <= delay <= base
        assert backoff_delay("w", 100) <= BACKOFF_CAP_S


class TestAttemptBudget:
    def _table(self, n=3, timeout=10.0, max_attempts=3):
        clock = [0.0]
        table = LeaseTable(
            n_units=n,
            timeout=timeout,
            max_attempts=max_attempts,
            now=lambda: clock[0],
        )
        return table, clock

    def test_expiry_boundary_is_inclusive(self):
        # An integer test clock stepping exactly onto the deadline must
        # expire the lease, not leave it straddling forever.
        table, clock = self._table(timeout=10.0)
        lease = table.grant("w")
        clock[0] = 10.0
        assert lease.deadline == 10.0
        expired = table.expire()
        assert [l.lease_id for l in expired] == [lease.lease_id]
        assert list(table.pending)[0] == lease.indices[0]

    def test_failed_unit_repends_to_back(self):
        table, _ = self._table(n=3)
        lease = table.grant("w")  # unit 0
        settlement = table.settle(
            lease.lease_id, failed={lease.indices[0]: "boom"}
        )
        assert settlement.repended == lease.indices
        # Healthy work (units 1, 2) drains before the flaky unit retries.
        assert list(table.pending) == [1, 2, 0]
        assert table.attempts[lease.indices[0]] == 1

    def test_abandoned_unit_repends_to_front_without_charge(self):
        table, _ = self._table(n=3)
        table.units_per_lease = 2
        lease = table.grant("w")  # units 0, 1
        settlement = table.settle(lease.lease_id, completed={0})
        assert settlement.completed == (0,)
        assert settlement.abandoned == (1,)
        assert list(table.pending) == [1, 2]
        assert 1 not in table.attempts

    def test_budget_exhaustion_quarantines(self):
        table, _ = self._table(n=2, max_attempts=3)
        lease = table.grant("w0")  # unit 0
        table.settle(lease.lease_id, failed={0: "boom 0"})
        lease = table.grant("w0")  # unit 1 (healthy work drains first)
        assert lease.indices == (1,)
        table.settle(lease.lease_id, completed={1})
        for attempt in (1, 2):
            lease = table.grant(f"w{attempt}")
            assert lease.indices == (0,)
            table.settle(lease.lease_id, failed={0: f"boom {attempt}"})
        assert 0 in table.quarantined
        reason = table.quarantined[0]
        assert "3 failed attempts" in reason
        assert "w0" in reason and "w2" in reason
        assert "boom 2" in reason  # the last failure is named
        assert table.done  # quarantined counts as resolved

    def test_connection_loss_charges_the_budget(self):
        # A unit that keeps taking workers down (executor exits the
        # process) must still hit quarantine via the EOF path.
        table, _ = self._table(n=1, max_attempts=2)
        for i in range(2):
            table.grant(f"w{i}")
            table.release_worker(f"w{i}")
        assert 0 in table.quarantined
        assert "connection lost" in table.quarantined[0]
        assert table.done


class TestHeartbeatDiscard:
    def test_injected_heartbeat_drop_skips_the_wire(self):
        install(_plan(FaultSpec("worker.heartbeat", "drop")))
        left, right = socket.socketpair()
        try:
            # The worker believes the lease is held...
            assert _Session(right, name="w")._heartbeat(5)
            # ...but nothing reached the coordinator.
            left.setblocking(False)
            with pytest.raises(BlockingIOError):
                left.recv(1)
        finally:
            left.close()
            right.close()

    def test_lost_lease_discards_in_flight_work(self):
        # held=False on a heartbeat ack means the lease was reassigned:
        # the worker stops executing it and sends no result.  Only the
        # record already streamed counts; it merged idempotently.
        left, right = socket.socketpair()
        left.settimeout(10)
        right.settimeout(10)
        units = _units(n=2)
        lease_msg = {
            "type": "lease",
            "lease": 7,
            "units": [u.to_json() for u in units],
        }
        logs = []
        box = {}

        def fake_coordinator():
            decoder = FrameDecoder()
            # The prefetch request, the first unit's record, its beat.
            box["frames"] = [recv_message(left, decoder) for _ in range(3)]
            send_message(
                left, {"type": "beat", "lease": 7, "held": False}
            )
            box["after"] = recv_message(left, decoder)

        thread = threading.Thread(target=fake_coordinator, daemon=True)
        thread.start()
        session = _Session(
            right, name="w", config=SERIAL, log=logs.append
        )
        executed = session._serve_lease(lease_msg)
        right.close()
        thread.join(timeout=10)
        left.close()
        request, part, beat = box["frames"]
        assert request == {"type": "request"}
        assert part["type"] == "result-part" and part["lease"] == 7
        assert [r["key"] for r in part["records"]] == [units[0].key]
        assert beat == {"type": "heartbeat", "lease": 7}
        assert executed == 1
        assert box["after"] is None  # no result frame was ever sent
        assert any("discarding" in line for line in logs)

    def test_coordinator_acks_lost_lease_with_held_false(self):
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
                {
                    "type": "hello",
                    "worker": "stale",
                    "protocol": PROTOCOL_VERSION,
                },
            )
            assert recv_message(sock, decoder)["type"] == "welcome"
            send_message(sock, {"type": "heartbeat", "lease": 999})
            reply = recv_message(sock, decoder)
            assert reply == {"type": "beat", "lease": 999, "held": False}
        finally:
            sock.close()
        run_worker(host, port)
        thread.join(timeout=30)
        assert "records" in box


class TestQuarantineEndToEnd:
    def test_poison_unit_quarantined_healthy_records_survive(self):
        units = _units(n=3)
        poison = units[1].key
        install(
            _plan(FaultSpec("unit.execute", "raise", match=poison)),
            role="worker",
        )
        coordinator = Coordinator(units, max_attempts=3)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        executed = run_worker(host, port, name="w")
        thread.join(timeout=30)
        assert executed == 2
        error = box["error"]
        assert isinstance(error, QuarantineError)
        assert set(error.quarantined) == {poison}
        assert "3 failed attempts" in error.quarantined[poison]
        assert "FaultInjected" in error.quarantined[poison]
        with suppress_faults():
            healthy = run_units([u for u in units if u.key != poison])
        assert error.records == healthy


class TestWorkerReconnect:
    def test_worker_rides_out_coordinator_restart(self):
        units = _units(n=4)
        with suppress_faults():
            expected = run_units(units)
        injector = install(
            _plan(
                FaultSpec(
                    "coordinator.merge", "restart", skip=1, max_fires=1,
                    role="coordinator",
                )
            ),
            role="coordinator",
        )
        coordinator = Coordinator(units)
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        run_worker(host, port, name="survivor", reconnect_timeout=20)
        thread.join(timeout=30)
        assert box["records"] == expected
        restarts = [
            e for e in injector.trace if e["site"] == "coordinator.merge"
        ]
        assert len(restarts) == 1 and restarts[0]["kind"] == "restart"

    def test_worker_gives_up_after_reconnect_timeout(self):
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
            conn.close()
            listener.close()  # gone for good: reconnects are refused

        thread = threading.Thread(target=half_coordinator, daemon=True)
        thread.start()
        try:
            with pytest.raises(WorkerExitError, match="unreachable"):
                run_worker(
                    host, port, connect_timeout=5, reconnect_timeout=0.5
                )
        finally:
            thread.join(timeout=10)

    def test_drain_check_releases_mid_lease_without_charge(self):
        units = _units(n=3)
        with suppress_faults():
            expected = run_units(units)
        logs = []
        coordinator = Coordinator(
            units, units_per_lease=3, log=logs.append
        )
        host, port = coordinator.bind()
        thread, box = _serve_in_thread(coordinator)
        polls = [0]

        def drain_check():
            # Polled once before the lease request, then before each
            # unit of the lease: let the first unit run, drain before
            # the second.
            polls[0] += 1
            return polls[0] >= 3

        drained = run_worker(
            host, port, name="quitter", drain_check=drain_check
        )
        finished = run_worker(host, port, name="finisher")
        thread.join(timeout=30)
        assert drained + finished == len(units)
        assert box["records"] == expected
        assert any("without charge" in line for line in logs)


class TestLedgerFaults:
    def _record(self, i):
        return RunRecord(
            key=f"unit:{i}", kind="mystery", payload={"value": i}
        )

    def test_checkpoint_corrupt_detected_and_salvaged(self, tmp_path):
        root = tmp_path / "ledger"
        ledger = RunLedger.create(root)
        install(
            _plan(
                FaultSpec("ledger.checkpoint", "corrupt", match="unit:1")
            )
        )
        with ledger.writer() as writer:
            for i in range(3):
                writer.write(self._record(i))
        uninstall()
        # The corrupted record never became durable and was not absorbed.
        assert "unit:1" not in ledger
        problems = verify_ledger(root)
        assert len(problems) == 1
        assert problems[0]["line"] == 2
        with pytest.raises(LedgerCorruptError):
            RunLedger.open(root)
        summary = salvage_ledger(root)
        assert summary["recovered"] == 2
        assert len(summary["quarantined_segments"]) == 1
        assert (root / QUARANTINE_DIR).is_dir()
        clean = RunLedger.open(root)
        assert clean.keys() == {"unit:0", "unit:2"}
        assert verify_ledger(root) == []

    def test_checkpoint_truncate_behaves_like_killed_writer(
        self, tmp_path
    ):
        root = tmp_path / "ledger"
        ledger = RunLedger.create(root)
        install(
            _plan(
                FaultSpec(
                    "ledger.checkpoint", "truncate", match="unit:2"
                )
            )
        )
        with ledger.writer() as writer:
            for i in range(3):
                writer.write(self._record(i))
        uninstall()
        # A truncated *tail* is the tolerated kill-mid-write shape.
        reopened = RunLedger.open(root)
        assert reopened.keys() == {"unit:0", "unit:1"}

    def test_append_fsync_error_raises_ledger_error(self, tmp_path):
        ledger = RunLedger.create(tmp_path / "ledger")
        install(_plan(FaultSpec("ledger.append", "fsync-error")))
        with pytest.raises(LedgerError, match="injected fsync"):
            ledger.append(self._record(0))

    def test_append_corrupt_mid_segment_salvages(self, tmp_path):
        root = tmp_path / "ledger"
        ledger = RunLedger.create(root)
        ledger.append(self._record(0))  # a healthy first segment
        install(
            _plan(
                FaultSpec("ledger.append", "corrupt", match="seg-000002")
            )
        )
        ledger.append(*[self._record(i) for i in range(1, 5)])
        uninstall()
        problems = verify_ledger(root)
        assert [p["segment"] for p in problems] == ["seg-000002.jsonl"]
        summary = salvage_ledger(root)
        # Every record around the corrupt line is recovered.
        assert summary["recovered"] == 4
        assert summary["dropped"] == []
        clean = RunLedger.open(root)
        assert clean.keys() == {f"unit:{i}" for i in range(5)}

    def test_salvage_of_clean_ledger_is_a_noop(self, tmp_path):
        root = tmp_path / "ledger"
        ledger = RunLedger.create(root)
        ledger.append(self._record(0))
        summary = salvage_ledger(root)
        assert summary == {
            "problems": [],
            "quarantined_segments": [],
            "recovered": 0,
            "dropped": [],
        }
        assert not (root / QUARANTINE_DIR).exists()

    def test_hand_damaged_segment_salvages(self, tmp_path):
        # Damage written by something other than the fault plane (a bad
        # disk, a partial rsync) salvages the same way.
        root = tmp_path / "ledger"
        ledger = RunLedger.create(root)
        ledger.append(*[self._record(i) for i in range(3)])
        segment = next(root.glob("seg-*.jsonl"))
        lines = segment.read_text().splitlines(keepends=True)
        lines[1] = "}{ definitely not json\n"
        segment.write_text("".join(lines))
        assert len(verify_ledger(root)) == 1
        summary = salvage_ledger(root)
        assert summary["recovered"] == 2
        assert RunLedger.open(root).keys() == {"unit:0", "unit:2"}


class TestFrameDecoderFuzz:
    """Satellite: the decoder must answer any byte stream with decoded
    messages or a typed ProtocolError — never a crash, never a hang."""

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.binary(max_size=256), chunk=st.integers(1, 9))
    def test_arbitrary_bytes_fed_in_chunks_never_crash(self, data, chunk):
        decoder = FrameDecoder()
        try:
            for i in range(0, len(data), chunk):
                messages = decoder.feed(data[i : i + chunk])
                assert all(isinstance(m, dict) for m in messages)
        except ProtocolError:
            pass

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        flip_at=st.integers(0, 10_000),
        flip_to=st.integers(0, 255),
    )
    def test_single_byte_corruption_of_valid_frame(self, flip_at, flip_to):
        frame = bytearray(
            encode_frame(
                {"type": "result-part", "lease": 3, "records": [{"k": "v"}]}
            )
        )
        frame[flip_at % len(frame)] = flip_to
        decoder = FrameDecoder()
        try:
            messages = decoder.feed(bytes(frame))
            assert all(isinstance(m, dict) for m in messages)
        except ProtocolError:
            pass

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        # Any header above MAX_FRAME must be refused, those with the top
        # bit set included.
        length=st.integers(MAX_FRAME + 1, 2**32 - 1)
    )
    @example(length=0x8000_0000 | 100)  # a v3 compressed-frame header
    def test_oversized_length_prefix_always_refused(self, length):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="exceeds"):
            decoder.feed(length.to_bytes(4, "big") + b"x")

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(garbage=st.binary(min_size=1, max_size=64))
    def test_mid_stream_garbage_after_valid_frames(self, garbage):
        decoder = FrameDecoder()
        assert decoder.feed(encode_frame({"type": "request"})) == [
            {"type": "request"}
        ]
        payload = b"\x00" + garbage  # never valid JSON
        try:
            decoder.feed(len(payload).to_bytes(4, "big") + payload)
        except ProtocolError:
            pass


TINY = dataclasses.replace(SMOKE, campaign_runs=6)


class TestChaosHarness:
    def test_rejects_non_distributable_experiment(self):
        with pytest.raises(ReproError, match="cannot run under chaos"):
            run_chaos("table1", _plan())

    def test_rejects_fewer_than_one_worker(self):
        # A chaos run spawns its own workers and has no external-worker
        # mode: with none it would wait forever after the reference.
        logs: list[str] = []
        with pytest.raises(ReproError, match="at least 1 worker"):
            run_chaos("table5", _plan(), workers=0, log=logs.append)
        assert logs == []  # refused before the serial reference render

    def test_chaos_campaign_byte_identical_end_to_end(self, tmp_path):
        """The tentpole acceptance: a table5 campaign under a plan that
        poisons one unit, restarts the coordinator mid-run and corrupts
        a ledger line still renders byte-identical output, with the
        poison quarantined-and-repaired and the ledger salvaged."""
        from repro.apps.registry import all_applications
        from repro.store.records import campaign_shard_key

        apps = [a.name for a in all_applications()]
        poison = campaign_shard_key(
            "K20", apps[0], "sys-str+", TINY.campaign_runs, 5, 0,
            TINY.campaign_runs,
        )
        corrupt = campaign_shard_key(
            "K20", apps[1], "no-str-", TINY.campaign_runs, 5, 0,
            TINY.campaign_runs,
        )
        plan = _plan(
            FaultSpec("unit.execute", "raise", match=poison, role="worker"),
            FaultSpec(
                "coordinator.merge", "restart", skip=2, max_fires=1,
                role="coordinator",
            ),
            FaultSpec(
                "ledger.checkpoint", "corrupt", match=corrupt,
                role="coordinator",
            ),
            name="full-chaos",
            seed=13,
        )
        out = tmp_path / "ledger"
        report = run_chaos(
            "table5",
            plan,
            scale=TINY,
            seed=5,
            workers=2,
            out=str(out),
            lease_timeout=20.0,
            chips=("K20",),
            environments=("no-str-", "sys-str+"),
        )
        assert report.identical, report.summary()
        assert report.chaos_text == report.serial_text
        assert report.final_text == report.serial_text
        assert set(report.quarantined) == {poison}
        sites = {e["site"] for e in report.trace}
        assert "coordinator.merge" in sites
        assert "ledger.checkpoint" in sites
        assert report.ledger_problems
        assert report.salvage is not None
        assert report.salvage["quarantined_segments"]
        assert (out / QUARANTINE_DIR).is_dir()
        summary = report.summary()
        assert "IDENTICAL" in summary
        assert poison in summary

    def test_summary_lists_quarantined_keys_not_reasons(self):
        """A quarantine reason names the failed workers by connection id
        in arrival order, which differs between runs; the printed
        summary carries the sorted keys only, so it is reproducible."""

        def summary(reason):
            return ChaosReport(
                experiment="table5",
                plan=_plan(),
                serial_text="table",
                chaos_text="table",
                final_text="table",
                identical=True,
                quarantined={"unit-b": reason, "unit-a": reason},
                trace=[],
                ledger_problems=[],
                salvage=None,
            ).summary()

        first = summary(
            "3 failed attempts across worker(s) "
            "[local-0#conn-4, local-1#conn-5]; last: boom"
        )
        second = summary(
            "3 failed attempts across worker(s) [local-0#conn-5]; "
            "last: boom"
        )
        assert first == second
        assert "unit-a" in first
        assert first.index("unit-a") < first.index("unit-b")
        assert "#conn-" not in first


class TestCLI:
    def test_chaos_parser_accepts_plan_and_knobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "chaos", "table5", "--plan", "plan.json", "--workers",
                "3", "--max-attempts", "2", "--out", "ledger",
            ]
        )
        assert args.id == "table5"
        assert args.plan == "plan.json"
        assert args.workers == 3
        assert args.max_attempts == 2

    def test_worker_parser_accepts_faults_and_reconnect(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "worker", "--connect", "h:1", "--faults", "p.json",
                "--reconnect-timeout", "7",
            ]
        )
        assert args.faults == "p.json"
        assert args.reconnect_timeout == 7.0

    def test_ledger_verify_and_salvage(self, tmp_path, capsys):
        from repro.cli import main

        root = tmp_path / "ledger"
        ledger = RunLedger.create(root)
        ledger.append(
            *[
                RunRecord(key=f"unit:{i}", kind="mystery", payload={})
                for i in range(3)
            ]
        )
        assert main(["ledger", "verify", str(root)]) == 0
        assert "clean" in capsys.readouterr().out
        segment = next(root.glob("seg-*.jsonl"))
        lines = segment.read_text().splitlines(keepends=True)
        lines[1] = "\x00broken\n"
        segment.write_text("".join(lines))
        assert main(["ledger", "verify", str(root)]) == 1
        assert main(["ledger", "salvage", str(root)]) == 0
        out = capsys.readouterr().out
        assert "recovered" in out
        assert main(["ledger", "verify", str(root)]) == 0

    def test_ledger_verify_missing_dir_fails_cleanly(self, tmp_path):
        from repro.cli import main

        assert main(["ledger", "verify", str(tmp_path / "absent")]) == 2
