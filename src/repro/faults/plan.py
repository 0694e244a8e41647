"""Deterministic, seedable fault plans.

A :class:`FaultPlan` is a declared failure model: a seed plus a list of
:class:`FaultSpec` entries, each naming an injection *site* threaded
through the library's hot paths (socket send/recv, work-unit execution,
ledger appends, heartbeats, the coordinator merge loop) and a fault
*kind* to fire there.  Whether a given evaluation fires is a pure
function of ``(plan seed, site, spec kind, draw token)`` through
:func:`repro.rng.derive_seed` — the same discipline every simulator
stream uses — so a chaos run is bit-reproducible: the same plan and
seed produce the identical injection trace, machine to machine.

Draw tokens come in two flavours, chosen by the call site:

* **stable tokens** (e.g. a work unit's content key) make the decision
  placement-independent — a poison unit fails on *every* worker that
  tries it, which is exactly what quarantine logic needs to see;
* **per-site counters** (the default) make stream faults like frame
  drops fire at deterministic positions in each process's own call
  sequence.

Plans are plain JSON (see :meth:`FaultPlan.load`)::

    {
      "name": "poison-and-restart",
      "seed": 7,
      "faults": [
        {"site": "unit.execute", "kind": "raise", "rate": 1.0,
         "match": "cbe-dot", "role": "worker"},
        {"site": "coordinator.merge", "kind": "restart", "rate": 1.0,
         "skip": 2, "max_fires": 1, "role": "coordinator"},
        {"site": "ledger.checkpoint", "kind": "corrupt", "rate": 1.0,
         "skip": 1, "max_fires": 1, "role": "coordinator"}
      ]
    }

This module is pure bookkeeping — nothing here touches sockets, files
or processes.  The site owners (``repro.dist``, ``repro.store``,
``repro.parallel.plan``) query :func:`repro.faults.runtime.fault_at`
and apply whatever event comes back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ..errors import ReproError
from ..rng import derive_seed

#: Every site the library threads injection through, with the fault
#: kinds each site understands.  Declared here so plans validate at
#: load time instead of silently never firing on a typo.
SITES: dict[str, tuple[str, ...]] = {
    # repro.dist.protocol.send_message (both peers)
    "socket.send": ("drop", "partial", "delay", "garbage"),
    # repro.dist.protocol.recv_message (worker side)
    "socket.recv": ("drop", "delay", "garbage"),
    # repro.dist.worker pipelined lease prefetch: skip falls back to
    # the blocking request path, delay stalls the prefetch send
    "worker.prefetch": ("skip", "delay"),
    # repro.parallel.plan.execute_unit (any backend, any process)
    "unit.execute": ("raise", "hang", "exit"),
    # repro.dist.worker per-unit heartbeat
    "worker.heartbeat": ("drop",),
    # repro.dist.coordinator result merge (simulated crash+restart)
    "coordinator.merge": ("restart",),
    # repro.store.ledger incremental checkpoint stream
    "ledger.checkpoint": ("truncate", "corrupt", "fsync-error"),
    # repro.store.ledger atomic batch append
    "ledger.append": ("truncate", "corrupt", "fsync-error"),
}

#: Where a spec applies: the coordinator process, worker processes (and
#: their pool children), or anywhere the plan is installed.
ROLES = ("any", "coordinator", "worker")

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """Full-avalanche 64-bit finalizer (splitmix64's).  ``derive_seed``
    alone is not enough here: its final step adds the last label's
    CRC32 into the low 32 bits only, so two draws differing solely in
    the token share their high bits — and a rate gate comparing
    ``value / 2**64`` against a threshold would fire identically for
    every token."""
    value &= _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value


def _u01(parent: int, *labels: object) -> float:
    """One deterministic draw in ``[0, 1)`` from the seed-derivation
    chain (no RNG object, no stream state to desynchronise)."""
    return _mix64(derive_seed(parent, *labels)) / float(_MASK64 + 1)


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: fire ``kind`` at ``site`` with probability
    ``rate`` per draw.

    * ``match`` — only fire when the draw token contains this substring
      (how a plan poisons one specific work unit by content key);
    * ``skip`` — ignore the first N draws at this site (lets a plan say
      "restart the coordinator after the third merged result");
    * ``max_fires`` — stop firing after N hits (None = unlimited);
    * ``role`` — restrict to the coordinator or worker side;
    * ``params`` — kind-specific knobs (``delay_s`` for delays/hangs,
      ``exit_code`` for exits).
    """

    site: str
    kind: str
    rate: float = 1.0
    match: str | None = None
    skip: int = 0
    max_fires: int | None = None
    role: str = "any"
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ReproError(
                f"unknown fault site {self.site!r}; known sites: "
                f"{', '.join(sorted(SITES))}"
            )
        if self.kind not in SITES[self.site]:
            raise ReproError(
                f"site {self.site!r} has no fault kind {self.kind!r}; "
                f"kinds: {', '.join(SITES[self.site])}"
            )
        if not (0.0 <= self.rate <= 1.0):
            raise ReproError(
                f"fault rate must be within [0, 1], got {self.rate}"
            )
        if self.role not in ROLES:
            raise ReproError(
                f"unknown fault role {self.role!r}; roles: "
                f"{', '.join(ROLES)}"
            )
        if self.skip < 0:
            raise ReproError(f"fault skip must be >= 0, got {self.skip}")
        if self.max_fires is not None and self.max_fires < 1:
            raise ReproError(
                f"max_fires must be >= 1 (or omitted), got {self.max_fires}"
            )

    def to_json(self) -> dict:
        out: dict = {"site": self.site, "kind": self.kind, "rate": self.rate}
        if self.match is not None:
            out["match"] = self.match
        if self.skip:
            out["skip"] = self.skip
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        if self.role != "any":
            out["role"] = self.role
        if self.params:
            out["params"] = self.params
        return out

    @classmethod
    def from_json(cls, obj: object) -> "FaultSpec":
        if not isinstance(obj, dict) or "site" not in obj or "kind" not in obj:
            raise ReproError(f"malformed fault spec: {obj!r}")
        known = {"site", "kind", "rate", "match", "skip", "max_fires",
                 "role", "params"}
        unknown = set(obj) - known
        if unknown:
            raise ReproError(
                f"fault spec has unknown fields {sorted(unknown)}: {obj!r}"
            )
        return cls(
            site=obj["site"],
            kind=obj["kind"],
            rate=float(obj.get("rate", 1.0)),
            match=obj.get("match"),
            skip=int(obj.get("skip", 0)),
            max_fires=obj.get("max_fires"),
            role=obj.get("role", "any"),
            params=dict(obj.get("params", {})),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of fault specs (see module docstring)."""

    name: str
    seed: int
    specs: tuple[FaultSpec, ...]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "faults": [spec.to_json() for spec in self.specs],
        }

    @classmethod
    def from_json(cls, obj: object) -> "FaultPlan":
        if not isinstance(obj, dict) or not isinstance(
            obj.get("faults"), list
        ):
            raise ReproError(
                f"malformed fault plan (need name/seed/faults): {obj!r}"
            )
        return cls(
            name=str(obj.get("name", "chaos")),
            seed=int(obj.get("seed", 0)),
            specs=tuple(
                FaultSpec.from_json(spec) for spec in obj["faults"]
            ),
        )

    @classmethod
    def load(cls, path: Path | str) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--plan`` / ``--faults``
        CLI currency)."""
        try:
            text = Path(path).read_text(encoding="utf-8")
            obj = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"unreadable fault plan at {path}: {exc}"
            ) from exc
        return cls.from_json(obj)

    def dump(self, path: Path | str) -> None:
        Path(path).write_text(
            json.dumps(self.to_json(), indent=2) + "\n", encoding="utf-8"
        )


@dataclass(frozen=True)
class FaultEvent:
    """One firing: what to do, where, and which draw triggered it."""

    site: str
    kind: str
    token: object
    draw: int
    params: dict

    def param(self, name: str, default):
        return self.params.get(name, default)


class FaultInjector:
    """Evaluates a plan's specs at each site query, deterministically.

    One injector lives per process (installed via
    :mod:`repro.faults.runtime`).  ``trace`` accumulates every firing
    as ``{"site", "kind", "token", "draw"}`` dicts — the determinism
    contract is that the same plan, seed and call sequence produce the
    identical trace.
    """

    def __init__(
        self,
        plan: FaultPlan,
        role: str = "any",
        log: Callable[[str], None] | None = None,
    ):
        if role not in ROLES:
            raise ReproError(
                f"unknown injector role {role!r}; roles: {', '.join(ROLES)}"
            )
        self.plan = plan
        self.role = role
        self.log = log
        self._by_site: dict[str, list[tuple[int, FaultSpec]]] = {}
        for index, spec in enumerate(plan.specs):
            self._by_site.setdefault(spec.site, []).append((index, spec))
        self._draws: dict[str, int] = {}
        self._fires: dict[int, int] = {}
        self.trace: list[dict] = []

    def fault_at(self, site: str, token: object = None) -> FaultEvent | None:
        """One evaluation of ``site``; the first matching spec that
        fires wins.  Every call consumes one draw index at the site
        whether or not anything fires (so traces stay aligned)."""
        specs = self._by_site.get(site)
        if not specs:
            return None
        draw = self._draws.get(site, 0)
        self._draws[site] = draw + 1
        for index, spec in specs:
            if spec.role != "any" and spec.role != self.role:
                continue
            if draw < spec.skip:
                continue
            fired = self._fires.get(index, 0)
            if spec.max_fires is not None and fired >= spec.max_fires:
                continue
            key = token if token is not None else draw
            if spec.match is not None and spec.match not in str(key):
                continue
            if spec.rate < 1.0 and not (
                _u01(self.plan.seed, site, spec.kind, key) < spec.rate
            ):
                continue
            self._fires[index] = fired + 1
            event = FaultEvent(
                site=site, kind=spec.kind, token=key, draw=draw,
                params=spec.params,
            )
            self.trace.append(
                {
                    "site": site,
                    "kind": spec.kind,
                    "token": str(key),
                    "draw": draw,
                }
            )
            if self.log is not None:
                self.log(
                    f"fault fired: site={site} kind={spec.kind} "
                    f"token={key} draw={draw}"
                )
            return event
        return None
