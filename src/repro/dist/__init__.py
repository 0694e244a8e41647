"""Scale-out execution: lease-based coordination over TCP workers.

The distributed layer moves :class:`~repro.parallel.plan.WorkUnit`
plans across machines without moving any correctness responsibility:
results are keyed and seeded identically wherever they run, so the
coordinator's content-key merge is provably byte-identical to a
single-machine run.  Every connection speaks the one wire protocol,
v3: lease pipelining, adaptive lease sizing, incremental result
streaming and frame compression are always on.
``python -m repro.dist`` runs one worker (:func:`repro.dist.worker.main`,
also the ``repro worker`` subcommand).  See ``docs/ARCHITECTURE.md``
("Distributed campaigns") for the frame format, the lease lifecycle,
and the merge invariants.
"""

from .coordinator import (
    WAIT_RETRY_MAX_S,
    WAIT_RETRY_MIN_S,
    Coordinator,
)
from .leases import (
    DEFAULT_TARGET_LEASE_S,
    MAX_ATTEMPTS,
    MAX_LEASE_UNITS,
    Lease,
    LeaseTable,
    Settlement,
)
from .protocol import (
    COMPRESS_FLAG,
    COMPRESS_MIN,
    MAX_FRAME,
    PROTOCOL_VERSION,
    FrameDecoder,
    WireStats,
    encode_frame,
    recv_message,
    send_message,
)
from .submit import DistributedSubmit, worker_command
from .worker import (
    WorkerStats,
    backoff_delay,
    clamp_retry_s,
    run_worker,
)

__all__ = [
    "COMPRESS_FLAG",
    "COMPRESS_MIN",
    "Coordinator",
    "DEFAULT_TARGET_LEASE_S",
    "DistributedSubmit",
    "FrameDecoder",
    "Lease",
    "LeaseTable",
    "MAX_ATTEMPTS",
    "MAX_FRAME",
    "MAX_LEASE_UNITS",
    "PROTOCOL_VERSION",
    "Settlement",
    "WAIT_RETRY_MAX_S",
    "WAIT_RETRY_MIN_S",
    "WireStats",
    "WorkerStats",
    "backoff_delay",
    "clamp_retry_s",
    "encode_frame",
    "recv_message",
    "run_worker",
    "send_message",
    "worker_command",
]
