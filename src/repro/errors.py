"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class UnknownChipError(ReproError):
    """Requested a chip that is not in the registry."""

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown chip {name!r}; known chips: {', '.join(known)}"
        )


class UnknownApplicationError(ReproError):
    """Requested an application case study that is not in the registry."""

    def __init__(self, name: str, known: list[str]):
        self.name = name
        self.known = known
        super().__init__(
            f"unknown application {name!r}; known: {', '.join(known)}"
        )


class KernelTimeoutError(ReproError):
    """A kernel exceeded the engine's tick budget (paper: 30s timeout)."""

    def __init__(self, ticks: int):
        self.ticks = ticks
        super().__init__(f"kernel did not terminate within {ticks} ticks")


class InvalidAccessError(ReproError):
    """A kernel accessed memory outside any allocated buffer."""


class PowerQueryUnsupportedError(ReproError):
    """NVML-style power query on a chip without power sensors.

    The paper could only measure power on K5200, Titan, K20 and C2075.
    """

    def __init__(self, chip: str):
        self.chip = chip
        super().__init__(f"chip {chip!r} does not support power queries")


class InvalidSequenceError(ReproError):
    """An access sequence string was not of the form (ld|st)+."""


class ConditionTooLargeError(ReproError, ValueError):
    """A forbidden outcome's disjunctive normal form would exceed its
    term bound (``repro.litmus.ir.condition_dnf`` never truncates)."""

    def __init__(self, condition: str, bound: int):
        self.condition = condition
        self.bound = bound
        super().__init__(
            f"condition {condition} has more than {bound} conjunctions "
            "in disjunctive normal form"
        )


class InvalidStressConfigError(ReproError):
    """A stress configuration was internally inconsistent."""


class FenceInsertionError(ReproError):
    """Empirical fence insertion could not converge (paper: 24h timeout)."""


class CostMeasurementError(ReproError):
    """Cost measurement could not gather enough passing native runs.

    Raised when the Sec. 6 retry loop exhausts its attempt budget before
    accumulating the requested number of post-condition-passing
    executions — the simulated analogue of a native binary that fails
    too often to be timed.
    """

    def __init__(self, app: str, chip: str, attempts: int, passing: int):
        self.app = app
        self.chip = chip
        self.attempts = attempts
        self.passing = passing
        super().__init__(
            f"too many erroneous native runs for {app} on {chip}: only "
            f"{passing} passing runs in {attempts} attempts; cannot "
            "measure cost"
        )


class ResultHookError(ReproError):
    """An ``on_result`` hook raised while a parallel map streamed back.

    The hook is how completed shards checkpoint into the run ledger, so
    a failure here means durability is compromised mid-campaign; the map
    aborts loudly with the shard index (and, when the caller knows it,
    the content key of the record being written) instead of surfacing a
    bare traceback from deep inside the pool drain loop.
    """

    def __init__(self, index: int, key: str | None = None,
                 detail: str | None = None):
        self.index = index
        self.key = key
        message = f"on_result hook failed for work item {index}"
        if key is not None:
            message += f" (content key {key})"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class LedgerError(ReproError):
    """A run-ledger operation failed (missing directory, bad manifest)."""


class LedgerCorruptError(LedgerError):
    """A ledger segment contains corruption beyond a truncated tail.

    A killed writer may leave a partial final line in its segment —
    readers tolerate that.  Anything else (garbage mid-file, a record
    without its required fields) indicates real damage and is refused
    rather than silently dropped.
    """


class LedgerConflictError(LedgerCorruptError):
    """Two records share one content key but carry different payloads.

    Content keys are pure functions of everything that determines a
    result, so two honest runs can never disagree under one key —
    identical duplicates are merged idempotently, but a conflicting
    payload means one side is wrong (a corrupted segment, a patched
    binary, a worker with a different library version) and must never
    silently overwrite the other.
    """

    def __init__(self, key: str, detail: str = ""):
        self.key = key
        message = (
            f"conflicting payloads under content key {key!r}; refusing "
            "to overwrite (identical duplicates merge idempotently, "
            "disagreement means corruption)"
        )
        if detail:
            message += f": {detail}"
        super().__init__(message)


class DistError(ReproError):
    """A distributed-execution operation failed (see :mod:`repro.dist`)."""


class ProtocolError(DistError):
    """A malformed or unexpected frame on the coordinator/worker wire."""


class WorkerExitError(DistError):
    """A worker lost its coordinator or was told to abort mid-session."""


class QuarantineError(DistError):
    """A campaign finished with units parked in quarantine.

    A unit whose execution fails ``LeaseTable.max_attempts`` times —
    explicit worker-reported failures, connection losses and lease
    expiries all count — is *quarantined* instead of re-pended forever,
    so one poison unit can never crash-loop a worker fleet.  The
    coordinator finishes every healthy unit, then raises this error
    instead of returning a silently incomplete merge: ``quarantined``
    maps each parked unit's content key to the reason it was parked,
    and ``records`` carries every record that *did* merge (unit order)
    so callers can salvage the healthy part of the campaign.
    """

    def __init__(self, quarantined: dict, records: list | None = None):
        self.quarantined = dict(quarantined)
        self.records = list(records or [])
        first = next(iter(self.quarantined), "?")
        super().__init__(
            f"{len(self.quarantined)} work unit(s) quarantined after "
            f"exhausting their attempt budgets (first: {first!r}); "
            f"{len(self.records)} healthy records merged"
        )


class FaultInjected(ReproError):
    """An error deliberately raised by the fault-injection plane.

    Only ever raised while a :class:`~repro.faults.FaultPlan` is
    installed (chaos runs and tests); production code paths never see
    it.  Carrying the site and draw token makes chaos traces
    self-describing.
    """

    def __init__(self, site: str, token: object, kind: str = "raise"):
        self.site = site
        self.token = token
        self.kind = kind
        super().__init__(
            f"injected fault at site {site!r} (token {token!r}, "
            f"kind {kind!r})"
        )
