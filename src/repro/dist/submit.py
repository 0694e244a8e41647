"""The distributed submit backend: coordinator + self-spawned workers.

:class:`DistributedSubmit` plugs into the same slot as the local pool —
``submit(units, config, on_record) -> records`` (see
:func:`repro.store.resume.submit_units`) — but serves the units through
a :class:`~repro.dist.coordinator.Coordinator` to worker subprocesses
it spawns on this machine (``repro worker --connect``).  Remote
machines join the same campaign by running that command against the
coordinator's address; ``workers=0`` spawns nothing and waits for
external workers only.

This is what ``--dist N`` on the CLI resolves to, and what CI uses to
prove byte-identity between distributed and serial runs without any
second machine.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..parallel.plan import WorkUnit
from .coordinator import Coordinator
from .leases import DEFAULT_TARGET_LEASE_S


def worker_command(
    host: str,
    port: int,
    name: str,
    jobs: int = 1,
    fault_plan: str | None = None,
    reconnect_timeout: float | None = None,
) -> list[str]:
    """The argv that joins a worker to a coordinator — the same command
    a remote machine runs by hand.  ``fault_plan`` (a plan JSON path)
    arms the worker's fault injector; ``reconnect_timeout`` overrides
    how long it rides out a coordinator outage."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--connect",
        f"{host}:{port}",
        "--name",
        name,
        "--jobs",
        str(jobs),
    ]
    if fault_plan is not None:
        argv += ["--faults", str(fault_plan)]
    if reconnect_timeout is not None:
        argv += ["--reconnect-timeout", str(reconnect_timeout)]
    return argv


def _worker_env() -> dict[str, str]:
    """Child environment with the library importable (the repo is used
    via PYTHONPATH=src, which subprocesses must inherit)."""
    env = dict(os.environ)
    package_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH", "")
    if package_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            package_root + (os.pathsep + existing if existing else "")
        )
    return env


@dataclass
class DistributedSubmit:
    """Submit backend that coordinates ``workers`` local subprocesses.

    ``worker_jobs`` is each worker's internal pool width;
    ``units_per_lease`` fixes the grant batch size (None, the default,
    lets the coordinator's adaptive controller size leases toward
    ``lease_target_s`` of compute each).  ``port=0`` binds an ephemeral
    port (the default, so parallel CI jobs never collide).
    """

    workers: int = 2
    host: str = "127.0.0.1"
    port: int = 0
    lease_timeout: float = 60.0
    units_per_lease: int | None = None
    #: Compute duration one adaptive lease targets (ignored when
    #: ``units_per_lease`` is fixed).
    lease_target_s: float = DEFAULT_TARGET_LEASE_S
    #: Offer zlib frame compression to v3 workers.
    compress: bool = True
    worker_jobs: int = 1
    #: Per-unit failure budget before quarantine (see
    #: :class:`~repro.dist.leases.LeaseTable`).
    max_attempts: int = 3
    #: Path to a fault-plan JSON armed in every spawned worker (chaos
    #: runs); None leaves workers fault-free.
    fault_plan: str | None = None
    #: Worker-side outage tolerance; None keeps the worker default.
    reconnect_timeout: float | None = None
    log: Callable[[str], None] | None = None
    #: Filled per call; exposed for tests that kill a worker mid-run.
    procs: list = field(default_factory=list)

    def __call__(
        self,
        units: Sequence[WorkUnit],
        config,
        on_record: Callable | None,
    ) -> list:
        coordinator = Coordinator(
            units,
            host=self.host,
            port=self.port,
            lease_timeout=self.lease_timeout,
            units_per_lease=self.units_per_lease,
            max_attempts=self.max_attempts,
            lease_target_s=self.lease_target_s,
            compress=self.compress,
            on_record=on_record,
            log=self.log,
        )
        host, port = coordinator.bind()
        self.procs = []
        try:
            env = _worker_env()
            for i in range(self.workers):
                self.procs.append(
                    subprocess.Popen(
                        worker_command(
                            host,
                            port,
                            f"local-{i}",
                            self.worker_jobs,
                            fault_plan=self.fault_plan,
                            reconnect_timeout=self.reconnect_timeout,
                        ),
                        env=env,
                    )
                )
            if self.procs:
                def all_dead() -> str | None:
                    if all(p.poll() is not None for p in self.procs):
                        codes = [p.returncode for p in self.procs]
                        return (
                            f"all {len(self.procs)} spawned workers "
                            f"exited (codes {codes}) before the "
                            "campaign completed"
                        )
                    return None

                coordinator.stop_check = all_dead
            records = coordinator.serve()
        except BaseException:
            self._reap(graceful=False)
            raise
        self._reap(graceful=True)
        return records

    def _reap(self, graceful: bool) -> None:
        """Stop the spawned workers, each within a 10 s bound.

        After a clean ``serve`` every worker was sent ``done`` and is
        already exiting, so ``graceful`` waits first and terminates only
        a worker still running after the bound (a SIGTERM would only
        make it log a drain it has no use for).  On failure the workers
        may hold leases of an aborted campaign: terminate first."""
        if graceful:
            deadline = time.monotonic() + 10
            for proc in self.procs:
                try:
                    proc.wait(timeout=max(0.0, deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    pass
        for proc in self.procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
