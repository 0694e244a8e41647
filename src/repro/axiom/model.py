"""Herd-style axiomatic model over litmus IR programs.

A *candidate execution* of a litmus test is a choice of

* ``rf`` (reads-from): for every read event, the write event (or the
  implicit initial write of ``0``) it reads its value from, and
* ``co`` (coherence): for every location, a total order over the writes
  to it, starting at the initial write.

From those two relations the model derives ``fr`` (from-reads:
``rf⁻¹ ; co``), and together with program order ``po`` and the
fence-induced order ``fo`` it applies three declarative axioms:

* **coherence** (uniproc / SC-per-location):
  ``acyclic(po_loc ∪ rf ∪ co ∪ fr)``;
* **atomicity**: a successful ``rmw`` event reads from the write that
  immediately precedes it in ``co`` — no foreign write intervenes;
* **fenced happens-before**: ``acyclic(fo ∪ rf ∪ co ∪ fr)`` where
  ``fo`` relates two memory events of a thread iff a fence instruction
  sits between them in program order.

An execution surviving all three is *weak-allowed*.  Replacing ``fo``
with the full per-thread program order turns the last axiom into
Shasha–Snir's criterion ``acyclic(po ∪ com)``, which holds exactly for
the SC-reachable executions — so the same enumeration also yields the
*SC-allowed* set, and the brute-force interleaver in
:mod:`repro.litmus.sc` becomes an independent cross-check rather than
the only oracle.

No simulation happens here: fences are not events, stress patterns and
timing do not exist, and every classification comes with a symbolic
witness (the ``rf``/``co`` choice) that can be printed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import factorial
from typing import NamedTuple

from ..litmus.ir import I_FENCE, I_LOAD, I_RMW, I_STORE, evaluate
from ..litmus.tests import LitmusTest

#: Fence modes accepted by :func:`axiom_outcomes`.  ``program`` keeps
#: the fences the program actually contains, ``full`` inserts one
#: between every program-ordered pair of memory events (≡ SC), and
#: ``none`` drops all fences (the weakest model expressible here).
FENCE_MODES = ("program", "full", "none")

VERDICT_SC = "sc"
VERDICT_WEAK = "weak"
VERDICT_FORBIDDEN = "forbidden"

#: Safety valve for the symbolic enumeration: candidate executions are
#: ``Π |rf options| × Π |writes(loc)|!`` before pruning, and synthesis
#: drives this function in a loop.
MAX_CANDIDATES = 4_000_000


class Event(NamedTuple):
    """One memory event.  ``kind`` is ``"W"`` (store), ``"R"`` (load)
    or ``"U"`` (rmw: a single event with both read and write roles).
    Initial writes use ``tid == -1``."""

    eid: int
    tid: int
    idx: int
    kind: str
    loc: str
    value: int
    reg: str


class _Universe(NamedTuple):
    events: tuple
    read_eids: tuple
    rf_options: tuple          # per read: candidate source write eids
    write_perms: tuple         # per written loc: program write eids
    written: tuple
    value_of: dict
    loc_of: dict
    po_pairs: tuple
    po_loc_pairs: tuple
    fence_pairs: tuple
    labels: dict
    n_candidates: int


def _label(ev: Event) -> str:
    if ev.tid < 0:
        return f"init {ev.loc}=0"
    if ev.kind == "W":
        return f"T{ev.tid}.{ev.idx} st {ev.loc}={ev.value}"
    if ev.kind == "R":
        return f"T{ev.tid}.{ev.idx} ld {ev.loc}->{ev.reg}"
    return f"T{ev.tid}.{ev.idx} rmw {ev.loc}->{ev.reg},={ev.value}"


def _build_universe(threads) -> _Universe:
    events = []
    by_thread = []          # per thread: list of (instr_index, eid)
    fence_at = []           # per thread: set of instruction indices
    for tid, program in enumerate(threads):
        mine = []
        fences = set()
        for idx, ins in enumerate(program):
            op = ins[0]
            if op == I_FENCE:
                fences.add(idx)
                continue
            eid = len(events)
            if op == I_STORE:
                events.append(Event(eid, tid, idx, "W", ins[1], ins[2], ""))
            elif op == I_LOAD:
                events.append(Event(eid, tid, idx, "R", ins[1], 0, ins[2]))
            elif op == I_RMW:
                events.append(Event(eid, tid, idx, "U", ins[1], ins[3], ins[2]))
            else:  # pragma: no cover - validate_test rejects these
                raise ValueError(f"unknown instruction {op!r}")
            mine.append((idx, eid))
        by_thread.append(mine)
        fence_at.append(fences)

    locations = []
    for ev in events:
        if ev.loc not in locations:
            locations.append(ev.loc)

    init_eid = {}
    for loc in locations:
        eid = len(events)
        events.append(Event(eid, -1, -1, "W", loc, 0, ""))
        init_eid[loc] = eid

    value_of = {ev.eid: ev.value for ev in events if ev.kind in ("W", "U")}
    loc_of = {ev.eid: ev.loc for ev in events}
    labels = {ev.eid: _label(ev) for ev in events}

    writes_by_loc = {loc: [] for loc in locations}
    for ev in events:
        if ev.tid >= 0 and ev.kind in ("W", "U"):
            writes_by_loc[ev.loc].append(ev.eid)
    written = tuple(loc for loc in locations if writes_by_loc[loc])

    read_eids = tuple(ev.eid for ev in events if ev.kind in ("R", "U"))
    rf_options = []
    for eid in read_eids:
        loc = loc_of[eid]
        opts = [init_eid[loc]]
        opts += [w for w in writes_by_loc[loc] if w != eid]
        rf_options.append(tuple(opts))
    rf_options = tuple(rf_options)

    po_pairs = []
    po_loc_pairs = []
    fence_pairs = []
    for tid, mine in enumerate(by_thread):
        fences = fence_at[tid]
        for i, (idx_a, a) in enumerate(mine):
            for idx_b, b in mine[i + 1:]:
                po_pairs.append((a, b))
                if loc_of[a] == loc_of[b]:
                    po_loc_pairs.append((a, b))
                if any(idx_a < f < idx_b for f in fences):
                    fence_pairs.append((a, b))

    n_candidates = 1
    for opts in rf_options:
        n_candidates *= len(opts)
    for loc in written:
        n_candidates *= factorial(len(writes_by_loc[loc]))

    return _Universe(
        events=tuple(events),
        read_eids=read_eids,
        rf_options=rf_options,
        write_perms=tuple(tuple(writes_by_loc[loc]) for loc in written),
        written=written,
        value_of=value_of,
        loc_of=loc_of,
        po_pairs=tuple(po_pairs),
        po_loc_pairs=tuple(po_loc_pairs),
        fence_pairs=tuple(fence_pairs),
        labels=labels,
        n_candidates=n_candidates,
    )


def _acyclic(n_events, edges) -> bool:
    indeg = [0] * n_events
    adj = [[] for _ in range(n_events)]
    for a, b in edges:
        adj[a].append(b)
        indeg[b] += 1
    stack = [v for v in range(n_events) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in adj[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return seen == n_events


@lru_cache(maxsize=4096)
def _enumerate(threads):
    """Enumerate axiom-consistent executions of ``threads``.

    Returns ``(universe, {mode: {state: (rf, co)}})`` mapping each
    fence mode to its allowed final states, each with one witness
    (the first ``rf``/``co`` choice that produced it).  A final state
    uses the same key shape as :func:`repro.litmus.sc.sc_outcomes`:
    ``(sorted register items, sorted memory items over written locs)``.
    """
    u = _build_universe(threads)
    if u.n_candidates > MAX_CANDIDATES:
        raise ValueError(
            f"litmus program has {u.n_candidates} candidate executions "
            f"(limit {MAX_CANDIDATES}); tighten the synthesis bounds"
        )
    n = len(u.events)
    modes = {mode: {} for mode in FENCE_MODES}
    fo_of = {"none": (), "program": u.fence_pairs, "full": u.po_pairs}

    co_choices = [
        tuple(permutations(writes)) if len(writes) > 1 else (writes,)
        for writes in u.write_perms
    ]
    init_of = {}
    for ev in u.events:
        if ev.tid < 0:
            init_of[ev.loc] = ev.eid

    for rf_sel in product(*u.rf_options):
        rf = dict(zip(u.read_eids, rf_sel))
        for co_sel in product(*co_choices):
            co = {
                loc: (init_of[loc],) + order
                for loc, order in zip(u.written, co_sel)
            }
            # Locations that are only read still have a (trivial)
            # coherence order: just the initial write.
            co_pos = {}
            for loc, order in co.items():
                for pos, w in enumerate(order):
                    co_pos[w] = pos

            # Atomicity: an rmw reads from its immediate co-predecessor.
            atomic = True
            for eid in u.read_eids:
                ev = u.events[eid]
                if ev.kind != "U":
                    continue
                if co_pos[eid] != co_pos[rf[eid]] + 1:
                    atomic = False
                    break
            if not atomic:
                continue

            com = [(w, r) for r, w in rf.items() if w != r]
            for loc, order in co.items():
                for i in range(len(order) - 1):
                    com.append((order[i], order[i + 1]))
            for r, w in rf.items():
                order = co.get(u.loc_of[r])
                if order is None:
                    continue
                for w2 in order[co_pos[w] + 1:]:
                    if w2 != r:
                        com.append((r, w2))          # fr edge

            if not _acyclic(n, list(u.po_loc_pairs) + com):
                continue

            regs = tuple(sorted(
                (u.events[r].reg, u.value_of[rf[r]]) for r in u.read_eids
            ))
            mem = tuple(sorted(
                (loc, u.value_of[co[loc][-1]]) for loc in u.written
            ))
            state = (regs, mem)

            for mode, fo in fo_of.items():
                if state in modes[mode]:
                    continue
                if _acyclic(n, com + list(fo)):
                    witness = (
                        tuple((u.labels[r], u.labels[rf[r]])
                              for r in u.read_eids),
                        tuple((loc, tuple(u.labels[w] for w in co[loc]))
                              for loc in u.written),
                    )
                    modes[mode][state] = witness
    return u, modes


def _as_test(test_or_threads):
    if isinstance(test_or_threads, LitmusTest):
        return test_or_threads.threads
    return tuple(test_or_threads)


def axiom_outcomes(test, fences: str = "program") -> frozenset:
    """Final states the axiomatic model allows for ``test``.

    ``fences`` selects the fence order composed into happens-before;
    see :data:`FENCE_MODES`.  With ``fences="full"`` the result is the
    SC-reachable set (Shasha–Snir), i.e. it must equal
    :func:`repro.litmus.sc.sc_outcomes`.
    """
    if fences not in FENCE_MODES:
        raise ValueError(f"unknown fence mode {fences!r}")
    _, modes = _enumerate(_as_test(test))
    return frozenset(modes[fences])


@dataclass(frozen=True)
class Witness:
    """One axiom-consistent execution: the reads-from choice and the
    per-location coherence order that realise an allowed state."""

    rf: tuple
    co: tuple

    def format(self) -> str:
        parts = [f"[{r}] <- [{w}]" for r, w in self.rf]
        for loc, chain in self.co:
            if len(chain) > 1:
                parts.append(f"co({loc}): " + " ; ".join(chain))
        return " | ".join(parts) if parts else "(empty)"


@dataclass(frozen=True)
class OutcomeVerdict:
    """Classification of one conceivable final state."""

    regs: tuple
    final: tuple
    verdict: str
    witness: Witness | None

    @property
    def state(self):
        return (self.regs, self.final)

    def format_state(self) -> str:
        parts = [f"{r}={v}" for r, v in self.regs]
        parts += [f"[{loc}]={v}" for loc, v in self.final]
        return " ".join(parts) if parts else "(empty)"


@dataclass(frozen=True)
class AxiomReport:
    """Full verdict table for one litmus test."""

    test: LitmusTest
    outcomes: tuple
    condition: str          # verdict for the test's forbidden predicate
    sc_agrees: bool         # full-fence set == litmus.sc enumeration

    @property
    def sc_states(self) -> frozenset:
        return frozenset(o.state for o in self.outcomes
                         if o.verdict == VERDICT_SC)

    @property
    def weak_states(self) -> frozenset:
        """All allowed states (SC ⊆ weak)."""
        return frozenset(o.state for o in self.outcomes
                         if o.verdict != VERDICT_FORBIDDEN)

    @property
    def forbidden_states(self) -> frozenset:
        return frozenset(o.state for o in self.outcomes
                         if o.verdict == VERDICT_FORBIDDEN)

    def verdict_of(self, regs: dict, final: dict) -> str:
        """Classify an observed outcome (e.g. from a backend run).

        ``final`` may mention extra locations; it is projected onto the
        model's written locations first.  States outside the allowed
        sets — including states outside the conceivable-value table —
        are forbidden.
        """
        state = observation_key(self.test, regs, final)
        if state in self.sc_states:
            return VERDICT_SC
        if state in self.weak_states:
            return VERDICT_WEAK
        return VERDICT_FORBIDDEN


def observation_key(test, regs: dict, final: dict):
    """Normalise an observed ``(regs, final)`` pair into the model's
    state-key shape, projecting ``final`` onto written locations."""
    return (
        tuple(sorted(regs.items())),
        tuple(sorted(
            (loc, final.get(loc, 0)) for loc in test.written_locations
        )),
    )


def _conceivable_states(u):
    """The full value table: every register bound to 0 or any value
    written to its location, every written location ending at any of
    its written values.  All allowed states fall inside it."""
    write_vals = {loc: [] for loc in u.written}
    for ev in u.events:
        if ev.tid >= 0 and ev.kind in ("W", "U"):
            if ev.value not in write_vals[ev.loc]:
                write_vals[ev.loc].append(ev.value)

    reg_axes = []
    for eid in u.read_eids:
        ev = u.events[eid]
        domain = [0]
        for v in write_vals.get(ev.loc, ()):
            if v not in domain:
                domain.append(v)
        reg_axes.append((ev.reg, tuple(sorted(domain))))
    loc_axes = [(loc, tuple(sorted(write_vals[loc]))) for loc in u.written]

    for reg_vals in product(*(vals for _, vals in reg_axes)):
        regs = tuple(sorted(zip((r for r, _ in reg_axes), reg_vals)))
        for loc_vals in product(*(vals for _, vals in loc_axes)):
            mem = tuple(sorted(zip((l2 for l2, _ in loc_axes), loc_vals)))
            yield (regs, mem)


def condition_verdict(test: LitmusTest) -> str:
    """How the test's *forbidden* predicate relates to the model:

    * ``"weak"`` — satisfiable in a weak-allowed execution but in no
      SC execution (a genuine relaxed-memory observable);
    * ``"forbidden"`` — satisfiable in no allowed execution at all
      (the test is a negative check: it must stay silent everywhere);
    * ``"sc-reachable"`` — satisfiable already under SC (the test
      would be vacuous as a weak-memory litmus).
    """
    _, modes = _enumerate(test.threads)
    weak = modes["program"]
    sc = modes["full"]
    for regs, mem in sc:
        if evaluate(test.forbidden, dict(regs), dict(mem)):
            return "sc-reachable"
    for regs, mem in weak:
        if evaluate(test.forbidden, dict(regs), dict(mem)):
            return VERDICT_WEAK
    return VERDICT_FORBIDDEN


def classify(test: LitmusTest) -> AxiomReport:
    """Build the full verdict table for ``test``: every conceivable
    final state classified SC / weak / forbidden, with a witness
    execution attached to each allowed state."""
    from ..litmus.sc import sc_outcomes

    u, modes = _enumerate(test.threads)
    weak = modes["program"]
    sc = modes["full"]

    outcomes = []
    for state in _conceivable_states(u):
        regs, mem = state
        if state in sc:
            verdict, witness = VERDICT_SC, Witness(*sc[state])
        elif state in weak:
            verdict, witness = VERDICT_WEAK, Witness(*weak[state])
        else:
            verdict, witness = VERDICT_FORBIDDEN, None
        outcomes.append(OutcomeVerdict(regs, mem, verdict, witness))

    return AxiomReport(
        test=test,
        outcomes=tuple(outcomes),
        condition=condition_verdict(test),
        sc_agrees=frozenset(sc) == frozenset(sc_outcomes(test)),
    )
