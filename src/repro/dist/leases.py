"""Lease bookkeeping for the distributed coordinator.

The coordinator partitions a campaign's work units into *leases*: a
lease is a batch of unit indices granted to one worker together with a
deadline.  The worker heartbeats while it computes, and each heartbeat
extends every lease its connection holds, the executing one and a
buffered prefetched one alike.  When results come back the lease
settles; when the deadline passes (worker hung) or the connection
drops (worker died, e.g. ``kill -9``) the lease's unfinished units
return to the pending queue and the next requesting worker picks them
up.

Lease *size* is adaptive by default.  The table keeps a per-worker
EWMA of unit service time, fed by :meth:`LeaseTable.observe` from
result timings, and sizes each grant so one lease takes roughly
``target_lease_s`` of compute — big batches early (amortising the
request/grant round trip), shrinking toward the tail (a grant never
takes more than its fair share of what is left, so one straggler
cannot hold the last units hostage).  A worker with no history gets a
one-unit probe lease; a fleet-wide mean covers fresh workers once any
peer has reported.  The lease deadline scales with the granted size —
a 100-unit lease legitimately takes ~100x longer than a probe, and
must not expire mid-burn.  Passing an integer ``units_per_lease``
disables all of this and restores the fixed-size behaviour exactly.

Every failure a unit survives — an explicit worker-reported execution
failure, a lost connection, an expired deadline — spends one charge of
its *attempt budget*.  A unit that exhausts the budget is **poison**:
instead of crash-looping the fleet forever it is parked in the
quarantine list, reported at merge time, and the campaign completes
around it (``done`` counts quarantined units as resolved).  Voluntary
abandonment (a draining worker returning unexecuted units, or a
pipelined worker ``release``-ing an unstarted prefetched lease) costs
nothing — it is not the unit's fault.

Nothing here touches sockets or time directly — ``now`` is injected so
tests can drive expiry deterministically — and nothing here knows what
a unit *is* beyond its index.  Correctness of reassignment (the same
unit possibly executing twice) is carried entirely by content keys: the
merge is idempotent, so at-least-once delivery is enough.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from ..errors import DistError

#: Default per-unit attempt budget before quarantine.
MAX_ATTEMPTS = 3

#: Default compute duration one adaptive lease aims for.  Long enough
#: that the grant round trip is noise, short enough that losing a lease
#: (worker death) forfeits only a few seconds of work.
DEFAULT_TARGET_LEASE_S = 2.0

#: EWMA smoothing for per-worker unit service time: heavy enough to
#: converge within a few leases, light enough to ride out one outlier.
EWMA_ALPHA = 0.4

#: Hard ceiling on one adaptive grant, whatever the estimate says.
MAX_LEASE_UNITS = 256

#: Tail shrink: an adaptive grant never exceeds ceil(pending / this),
#: so near the end leases shrink and stragglers cannot monopolise the
#: last units.
TAIL_FACTOR = 2


@dataclass
class Lease:
    """One grant: which units, to whom, until when."""

    lease_id: int
    worker: str
    indices: tuple[int, ...]
    deadline: float
    #: When the grant was made (the table's injected clock); the
    #: ``lease`` frame's ``deadline_s`` counts from it.
    granted_at: float = 0.0


@dataclass
class Settlement:
    """What one lease settlement did, for logging and merge decisions."""

    completed: tuple[int, ...] = ()
    repended: tuple[int, ...] = ()
    quarantined: tuple[int, ...] = ()
    abandoned: tuple[int, ...] = ()


@dataclass
class LeaseTable:
    """Pending/active/completed/quarantined bookkeeping over
    ``n_units`` units.

    * ``pending`` — unit indices nobody holds (deque; *reassigned*
      units go to the front so a recovering campaign finishes
      stragglers first, while *failed* units go to the back so healthy
      work drains before a flaky unit is retried);
    * ``active`` — granted leases by id;
    * ``completed`` — unit indices whose results have merged;
    * ``quarantined`` — unit index -> reason, for units that exhausted
      ``max_attempts`` (never granted again; counted as resolved).

    ``units_per_lease=None`` (the default) enables adaptive sizing
    against ``target_lease_s``; an integer fixes every grant to that
    size and ignores the controller entirely.
    """

    n_units: int
    timeout: float = 60.0
    units_per_lease: int | None = None
    max_attempts: int = MAX_ATTEMPTS
    target_lease_s: float = DEFAULT_TARGET_LEASE_S
    now: Callable[[], float] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.now is None:
            import time

            self.now = time.monotonic
        if not math.isfinite(self.timeout) or self.timeout <= 0:
            raise DistError(
                "lease timeout must be a finite number of seconds > 0, "
                f"got {self.timeout}"
            )
        if self.units_per_lease is not None and self.units_per_lease < 1:
            raise DistError(
                f"units_per_lease must be >= 1, got {self.units_per_lease}"
            )
        if (
            not math.isfinite(self.target_lease_s)
            or self.target_lease_s <= 0
        ):
            raise DistError(
                f"target_lease_s must be a finite positive number, got "
                f"{self.target_lease_s}"
            )
        if self.max_attempts < 1:
            raise DistError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        self.pending: deque[int] = deque(range(self.n_units))
        self.active: dict[int, Lease] = {}
        self.completed: set[int] = set()
        self.quarantined: dict[int, str] = {}
        #: index -> number of attempt-budget charges spent.
        self.attempts: dict[int, int] = {}
        #: index -> distinct workers that charged it (for the report).
        self.failed_workers: dict[int, set[str]] = {}
        #: worker ident -> EWMA of seconds per unit (adaptive sizing).
        self.service_ewma: dict[str, float] = {}
        self._next_id = 1

    # -- adaptive sizing ------------------------------------------------
    def observe(self, worker: str, n_units: int, elapsed_s: float) -> None:
        """Feed one lease's timing into the worker's service-time EWMA.

        ``elapsed_s`` may arrive over the network (a worker reports its
        own execution time); junk — non-finite, negative, or a
        zero-unit report — is ignored rather than poisoning the
        estimate.
        """
        if n_units < 1:
            return
        try:
            elapsed = float(elapsed_s)
        except (TypeError, ValueError):
            return
        if not math.isfinite(elapsed) or elapsed < 0:
            return
        per_unit = elapsed / n_units
        previous = self.service_ewma.get(worker)
        if previous is None:
            self.service_ewma[worker] = per_unit
        else:
            self.service_ewma[worker] = (
                EWMA_ALPHA * per_unit + (1.0 - EWMA_ALPHA) * previous
            )

    def estimate(self, worker: str) -> float | None:
        """Seconds-per-unit estimate for ``worker``: its own EWMA, else
        the fleet mean, else None (no peer has reported yet)."""
        own = self.service_ewma.get(worker)
        if own is not None:
            return own
        if self.service_ewma:
            return sum(self.service_ewma.values()) / len(self.service_ewma)
        return None

    def _adaptive_size(self, worker: str) -> tuple[int, float]:
        """Grant size and per-unit time estimate for one adaptive
        lease.  No history anywhere -> a one-unit probe (its timing
        seeds the EWMA); otherwise ``target_lease_s`` worth of units,
        capped by :data:`MAX_LEASE_UNITS` and the tail-shrink share of
        what is pending."""
        per_unit = self.estimate(worker)
        if per_unit is None:
            return 1, 0.0
        if per_unit <= 0:
            size = MAX_LEASE_UNITS
        else:
            size = int(self.target_lease_s / per_unit)
        tail_cap = max(1, math.ceil(len(self.pending) / TAIL_FACTOR))
        return max(1, min(size, MAX_LEASE_UNITS, tail_cap)), per_unit

    # -- grants ---------------------------------------------------------
    def grant(self, worker: str) -> Lease | None:
        """Lease a batch of pending units to ``worker``.

        Returns None when nothing is pending (the worker should wait:
        active leases may yet expire and re-pend their units).  Batch
        size is ``units_per_lease`` when fixed, controller-chosen when
        adaptive; the adaptive deadline stretches by the predicted
        execution time so a big lease is not punished for being big.
        """
        if not self.pending:
            return None
        if self.units_per_lease is not None:
            size = self.units_per_lease
            slack = 0.0
        else:
            size, per_unit = self._adaptive_size(worker)
            slack = per_unit * size
        indices = []
        while self.pending and len(indices) < size:
            indices.append(self.pending.popleft())
        now = self.now()
        lease = Lease(
            lease_id=self._next_id,
            worker=worker,
            indices=tuple(indices),
            deadline=now + self.timeout + slack,
            granted_at=now,
        )
        self._next_id += 1
        self.active[lease.lease_id] = lease
        return lease

    def heartbeat(self, worker: str, lease_id: int) -> bool:
        """Extend the deadline of every lease ``worker`` holds: a
        heartbeat proves its connection alive.  True when ``lease_id``
        is one of those leases; False when it is no longer held
        (expired and reassigned — the worker should drop it)."""
        deadline = self.now() + self.timeout
        held = False
        for lease in self.active.values():
            if lease.worker == worker:
                lease.deadline = deadline
                held = held or lease.lease_id == lease_id
        return held

    def settle(
        self,
        lease_id: int,
        completed: set[int] | None = None,
        failed: dict[int, str] | None = None,
    ) -> Settlement | None:
        """Resolve a lease from its worker's result report.

        ``completed`` are indices whose records merged; ``failed`` maps
        indices the worker *tried and could not execute* to an error
        description (each charges the unit's attempt budget); any other
        lease index was abandoned without an attempt (a draining
        worker, or a pipelined worker releasing an unstarted prefetch)
        and re-pends for free.  Settling an unknown lease returns None —
        the lease expired, was reassigned, and its duplicate results
        merge idempotently by content key, so the late worker is simply
        thanked and ignored.
        """
        lease = self.active.pop(lease_id, None)
        if lease is None:
            return None
        completed = completed or set()
        failed = failed or {}
        done, repended, parked, abandoned = [], [], [], []
        for index in lease.indices:
            if index in self.completed or index in self.quarantined:
                continue
            if index in completed:
                self.completed.add(index)
                done.append(index)
            elif index in failed:
                if self._charge(index, lease.worker, failed[index]):
                    parked.append(index)
                else:
                    # Failed units go to the back: drain healthy work
                    # before retrying a flaky unit.
                    self.pending.append(index)
                    repended.append(index)
            else:
                abandoned.append(index)
        for index in reversed(abandoned):
            self.pending.appendleft(index)
        return Settlement(
            completed=tuple(done),
            repended=tuple(repended),
            quarantined=tuple(parked),
            abandoned=tuple(abandoned),
        )

    def complete(self, lease_id: int) -> tuple[int, ...]:
        """Mark a whole lease's units done; returns the indices
        completed (the no-failure fast path over :meth:`settle`)."""
        lease = self.active.get(lease_id)
        if lease is None:
            return ()
        settlement = self.settle(lease_id, completed=set(lease.indices))
        return settlement.completed if settlement else ()

    # -- failure paths --------------------------------------------------
    def _charge(self, index: int, worker: str, reason: str) -> bool:
        """Spend one attempt-budget charge; True when the unit just
        crossed into quarantine."""
        spent = self.attempts.get(index, 0) + 1
        self.attempts[index] = spent
        self.failed_workers.setdefault(index, set()).add(worker)
        if spent >= self.max_attempts:
            workers = ", ".join(sorted(self.failed_workers[index]))
            self.quarantined[index] = (
                f"{spent} failed attempts across worker(s) [{workers}]; "
                f"last: {reason}"
            )
            return True
        return False

    def expire(self) -> list[Lease]:
        """Re-pend every lease whose deadline has passed (hung worker).

        The boundary is inclusive: a lease expiring exactly *at* the
        injected clock's ``now`` is expired (integer test clocks step
        right onto deadlines).
        """
        now = self.now()
        expired = [
            lease for lease in self.active.values() if lease.deadline <= now
        ]
        for lease in expired:
            self._reassign(lease, "lease deadline expired")
        return expired

    def release_worker(self, worker: str) -> list[Lease]:
        """Re-pend every lease held by ``worker`` (connection dropped)."""
        dropped = [
            lease for lease in self.active.values() if lease.worker == worker
        ]
        for lease in dropped:
            self._reassign(lease, "worker connection lost")
        return dropped

    def _reassign(self, lease: Lease, reason: str) -> None:
        """A lost lease charges each unfinished unit's attempt budget —
        a unit that keeps taking workers down with it (a poison unit
        whose executor exits the process) must still hit quarantine."""
        del self.active[lease.lease_id]
        for index in reversed(lease.indices):
            if index in self.completed or index in self.quarantined:
                continue
            if not self._charge(index, lease.worker, reason):
                self.pending.appendleft(index)

    # -- queries --------------------------------------------------------
    def next_deadline(self) -> float | None:
        """The soonest active deadline (None when no lease is active)."""
        if not self.active:
            return None
        return min(lease.deadline for lease in self.active.values())

    @property
    def done(self) -> bool:
        return (
            len(self.completed) + len(self.quarantined) == self.n_units
        )
