"""Distributed campaign execution with repro.dist.

The paper's campaigns ran for an hour per (chip, application,
environment) cell across seven GPUs — a scale that wants more than one
machine.  This walkthrough runs a Table 5 campaign through the
distributed coordinator three ways and checks the headline property
each time: the merged result is **byte-identical** to the serial run,
because every work unit seeds from its global grid coordinates and the
merge is exact by content key.

1. the one-liner: ``DistributedSubmit`` spawns two localhost socket
   workers (what ``gpu-wmm experiment table5 --dist 2`` does);
2. worker churn: a worker that executes one unit and leaves, another
   that is killed outright mid-lease — the coordinator reassigns and
   the campaign still completes exactly;
3. distributed + durable: the same coordinator streaming every merged
   record into a run ledger, then re-rendering with zero simulation.

Run with::

    python examples/distributed_campaign.py
"""

import dataclasses
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from pathlib import Path

from repro.chips import get_chip
from repro.dist import Coordinator, DistributedSubmit, worker_command
from repro.dist.submit import _worker_env
from repro.reporting.experiments import run_experiment
from repro.scale import SMOKE
from repro.store import RunLedger
from repro.testing.campaign import run_campaign

SCALE = dataclasses.replace(SMOKE, campaign_runs=8)
CHIPS = ("K20",)
ENVIRONMENTS = ("no-str-", "sys-str+")


def main() -> None:
    print("1. Serial reference run...")
    serial = run_experiment(
        "table5", scale=SCALE, seed=7, chips=CHIPS,
        environments=ENVIRONMENTS,
    )

    print("2. The same campaign through two localhost socket workers...")
    distributed = run_experiment(
        "table5", scale=SCALE, seed=7, chips=CHIPS,
        environments=ENVIRONMENTS, submit=DistributedSubmit(workers=2),
    )
    assert distributed == serial, "distributed must be byte-identical"
    print("   byte-identical to serial: yes")

    print("3. Worker churn: one dies mid-lease, one joins late...")
    chip = get_chip("K20")
    args = dict(
        chips=[chip], environments=list(ENVIRONMENTS), scale=SCALE, seed=7
    )
    reference = run_campaign(**args)

    def churny_submit(units, config, on_record):
        coordinator = Coordinator(
            units, on_record=on_record, log=lambda m: print(f"   [coord] {m}")
        )
        host, port = coordinator.bind()
        env = _worker_env()
        # A deliberately slow worker that will be SIGKILLed holding a
        # lease, and a healthy one that finishes the plan.
        doomed = subprocess.Popen(
            worker_command(host, port, "doomed")
            + ["--delay", "0.4"],
            env=env,
        )
        survivor = subprocess.Popen(
            worker_command(host, port, "survivor"), env=env
        )

        def assassinate():
            time.sleep(1.5)
            doomed.send_signal(signal.SIGKILL)
            print("   [demo] kill -9 sent to the doomed worker")

        killer = threading.Thread(target=assassinate, daemon=True)
        killer.start()
        try:
            return coordinator.serve()
        finally:
            killer.join()
            doomed.wait()
            if survivor.poll() is None:
                survivor.terminate()
            survivor.wait()

    churned = run_campaign(**args, submit=churny_submit)
    assert churned == reference, "reassigned leases must merge exactly"
    print("   campaign completed despite the kill; results exact: yes")

    print("4. Distributed + durable: streaming merges into a ledger...")
    root = Path(tempfile.mkdtemp(prefix="gpu-wmm-dist-"))
    try:
        ledger_dir = root / "ledger"
        ledgered = run_experiment(
            "table5", scale=SCALE, seed=7, chips=CHIPS,
            environments=ENVIRONMENTS, submit=DistributedSubmit(workers=2),
            out=str(ledger_dir),
        )
        assert ledgered == serial
        print(
            "   ledger after the distributed run: "
            f"{RunLedger.open(ledger_dir).counts_by_kind()}"
        )
        again = run_experiment(
            "table5", scale=SCALE, seed=7, chips=CHIPS,
            environments=ENVIRONMENTS, resume=str(ledger_dir),
        )
        assert again == serial
        print("   re-rendered from the ledger with zero runs: yes")
    finally:
        shutil.rmtree(root)

    print()
    print(serial)
    print("CLI equivalents:")
    print("  gpu-wmm experiment table5 --dist 2")
    print("  gpu-wmm coordinate table5 --host 0.0.0.0 --port 7077"
          " --out ledger/")
    print("  gpu-wmm worker --connect coordinator:7077 --jobs 0")
    # DistributedSubmit is the programmatic one-liner behind --dist:
    print("  (python)  run_campaign(..., submit=DistributedSubmit(workers=2))")
    assert DistributedSubmit(workers=2).workers == 2


if __name__ == "__main__":
    main()
