"""Lowering litmus IR onto the SIMT engine (the *compiled* backend).

The direct runner (:mod:`repro.litmus.runner`) drives the memory system
with scripted threads; this module instead compiles any IR test into a
real :class:`~repro.gpu.kernel.Kernel` — one block per litmus thread,
so the communicating threads land on distinct SMs exactly as the paper
configures its generated CUDA tests — and executes it on the
:class:`~repro.gpu.engine.Engine`.  The same memory subsystem underlies
both backends, so their weak-outcome rates must agree (the
cross-backend parity tests); the compiled path additionally exercises
the scheduler, fence-site machinery and deferred-load engine ops.

Lowering rules (each right-hand side is an op constructor the kernel
yields with a plain ``yield``):

* ``("st", loc, v)``    -> ``ctx.store(comm, idx(loc), v)``
* ``("ld", loc, r)``    -> ``ctx.issue_load`` now, ``ctx.await_load`` +
  a store of the value into the result buffer after the program —
  litmus kernels only read their registers at the end, which is what
  lets LB-shaped late resolution be observed;
* ``("fence",)``        -> ``ctx.fence_device()``
* ``("rmw", loc, r, v)``-> ``ctx.atomic_exch`` + result-buffer store.

Location ``i`` of the test sits ``i * max(distance, 1)`` words into the
communication buffer — the identical T_d layout the direct runner uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chips.profile import HardwareProfile
from ..gpu.addresses import Buffer
from ..gpu.engine import Engine
from ..gpu.kernel import Kernel, LaunchConfig
from ..gpu.memory import MemorySystem
from ..parallel import ParallelConfig
from ..rng import BufferedRNG, derive_seed, make_rng
from .results import LitmusResult
from .runner import _ROUNDS, LitmusInstance, _run_backend
from .tests import LitmusTest

#: Tick budget per compiled litmus round.  The programs are a handful
#: of operations, but heavily stressed drains and slow loads need room.
ENGINE_MAX_TICKS = 6_000


def _litmus_thread(ctx, programs, comm, out, reg_slots):
    """The compiled litmus kernel: one block (= one SM) per thread."""
    program = programs[ctx.block_id]
    pending = []  # (result slot, deferred-load handle)
    for ins in program:
        kind = ins[0]
        if kind == "st":
            yield ctx.store(comm, ins[1], ins[2])
        elif kind == "ld":
            handle = yield ctx.issue_load(comm, ins[1])
            pending.append((reg_slots[ins[2]], handle))
        elif kind == "fence":
            yield ctx.fence_device()
        else:  # rmw — atomic exchange; the old value is a register
            old = yield ctx.atomic_exch(comm, ins[1], ins[3])
            yield ctx.store(out, reg_slots[ins[2]], old)
    for slot, handle in pending:
        value = yield ctx.await_load(handle)
        yield ctx.store(out, slot, value)


@dataclass(frozen=True)
class CompiledLitmus:
    """A litmus test lowered to a kernel plus its memory layout.

    The geometry (communication area, T_d location spacing, stressing
    scratchpad) is the direct runner's :class:`LitmusInstance`, so the
    two backends can never drift onto different layouts; only the
    result buffer (one slot per register) is engine-specific.
    """

    instance: LitmusInstance
    kernel: Kernel
    config: LaunchConfig
    out: Buffer
    reg_slots: dict

    @property
    def test(self) -> LitmusTest:
        return self.instance.test

    @property
    def scratch_base(self) -> int:
        return self.instance.scratch_base

    @property
    def scratch_size(self) -> int:
        return self.instance.scratch_size

    def read_outcome(self, mem: MemorySystem) -> tuple[dict, dict]:
        """Final (registers, location values) after a kernel run."""
        get = mem.mem.get
        out_base = self.out.base
        regs = {
            reg: get(out_base + slot, 0)
            for reg, slot in self.reg_slots.items()
        }
        instance = self.instance
        final = {
            loc: get(instance.addr(loc), 0)
            for loc in instance.test.condition_locations
        }
        return regs, final

    def init_round(self, mem: MemorySystem) -> None:
        """Zero the communication locations and result slots."""
        for addr in self.instance.loc_addrs():
            mem.mem[addr] = 0
        out_base = self.out.base
        for slot in self.reg_slots.values():
            mem.mem[out_base + slot] = 0


def compile_test(
    profile: HardwareProfile,
    test: LitmusTest,
    distance: int,
    scratch_size: int = 4096,
) -> CompiledLitmus:
    """Lower ``test`` at ``distance`` to a kernel for ``profile``.

    The layout is taken verbatim from the direct runner
    (:meth:`LitmusInstance.layout`); the result buffer is appended
    after the scratchpad, outside every region the test or the stress
    field touches.
    """
    instance = LitmusInstance.layout(
        profile, test, distance, scratch_size=scratch_size
    )
    reg_slots = {reg: i for i, reg in enumerate(test.registers)}
    out = Buffer(
        name="out",
        base=instance.scratch_base + instance.scratch_size,
        size=max(1, len(reg_slots)),
    )
    # Resolve location names to comm-buffer indices once, at compile
    # time (the kernel then runs on plain integers).
    comm_base = instance.comm_base
    loc_addrs = instance.loc_addrs()
    comm = Buffer(
        name="comm",
        base=comm_base,
        size=loc_addrs[-1] - comm_base + 1,
    )
    loc_index = test.locations.index

    def resolve(program):
        resolved = []
        for ins in program:
            kind = ins[0]
            if kind == "fence":
                resolved.append(ins)
            elif kind == "rmw":
                resolved.append(
                    (
                        kind,
                        loc_addrs[loc_index(ins[1])] - comm_base,
                        ins[2],
                        ins[3],
                    )
                )
            else:
                resolved.append(
                    (kind, loc_addrs[loc_index(ins[1])] - comm_base, ins[2])
                )
        return tuple(resolved)

    programs = tuple(resolve(p) for p in test.threads)
    kernel = Kernel(
        name=f"litmus-{test.name}",
        fn=_litmus_thread,
        args=(programs, comm, out, reg_slots),
    )
    config = LaunchConfig(grid_dim=test.n_threads, block_dim=1)
    return CompiledLitmus(
        instance=instance,
        kernel=kernel,
        config=config,
        out=out,
        reg_slots=reg_slots,
    )


def _engine_span(
    profile: HardwareProfile,
    instance: LitmusInstance,
    stress_spec,
    seed: int,
    randomise: bool,
    start: int,
    stop: int,
    outcomes: dict | None = None,
) -> int:
    """Weak count over compiled executions ``[start, stop)``.

    Mirrors the direct runner's span contract: every execution seeds
    from its global index, so any partition yields identical statistics,
    and ``outcomes``, if given, receives every round's final state (all
    rounds then run; the engine raises on a kernel timeout, so no round
    is ever incomplete).  The engine backend derives from a distinct
    ``"engine"`` label — the two backends are statistically independent
    samples of the same model, not replays of one stream.
    """
    test = instance.test
    compiled = compile_test(profile, test, instance.distance)
    span_seed = derive_seed(
        seed, profile.short_name, test.name, instance.distance, "engine"
    )
    scratch_base = compiled.scratch_base
    scratch_size = compiled.scratch_size
    n_warps = compiled.config.grid_dim
    written = tuple(
        (loc, instance.addr(loc)) for loc in test.written_locations
    )
    weak = 0
    mem: MemorySystem | None = None
    engine: Engine | None = None
    for i in range(start, stop):
        rng = BufferedRNG(make_rng(span_seed, i))
        field = stress_spec.build(profile, scratch_base, scratch_size, rng)
        if mem is None:
            mem = MemorySystem(profile, field, rng)
            # A litmus kernel is a handful of operations; not finishing
            # inside the generous tick budget means the model (not the
            # test) is broken, so it raises KernelTimeoutError rather
            # than silently dropping observations and biasing the rate.
            engine = Engine(
                profile,
                mem,
                rng,
                max_ticks=ENGINE_MAX_TICKS,
                randomise=randomise,
                raise_on_timeout=True,
            )
        else:
            mem.reset(stress=field, rng=rng)
            engine.rng = rng
        engine.n_stress_units = stress_spec.stress_units(n_warps, rng)
        hit = False
        for _ in range(_ROUNDS):
            compiled.init_round(mem)
            engine.run(compiled.kernel, compiled.config)
            regs, final = compiled.read_outcome(mem)
            if outcomes is not None:
                get = mem.mem.get
                key = (
                    tuple(sorted(regs.items())),
                    tuple(sorted((loc, get(a, 0)) for loc, a in written)),
                )
                outcomes[key] = outcomes.get(key, 0) + 1
            if test.weak(regs, final or None):
                hit = True
                if outcomes is None:
                    break
        weak += hit
    return weak


def run_litmus_compiled(
    profile: HardwareProfile,
    test: LitmusTest,
    distance: int,
    stress_spec,
    executions: int,
    seed: int = 0,
    randomise: bool = False,
    parallel: ParallelConfig | None = None,
    outcomes: bool = False,
) -> LitmusResult:
    """Run ``executions`` compiled-backend runs of ``T_distance``.

    The signature mirrors :func:`repro.litmus.runner.run_litmus`; an
    execution is a batch of kernel launches and counts as weak when any
    round exhibits the forbidden outcome, exactly like the direct
    backend.
    """
    return _run_backend(
        _engine_span, "engine", profile, test, distance, stress_spec,
        executions, seed, randomise, parallel, outcomes,
    )


@dataclass(frozen=True)
class ParityReport:
    """Weak-outcome rates of one test under both execution backends."""

    direct: LitmusResult
    engine: LitmusResult

    @property
    def gap(self) -> float:
        """Absolute difference of the two weak rates."""
        return abs(self.direct.rate - self.engine.rate)

    def agree(self, tolerance: float = 0.2) -> bool:
        """True when the two backends' rates are within ``tolerance``."""
        return self.gap <= tolerance


def backend_parity(
    profile: HardwareProfile,
    test: LitmusTest,
    distance: int,
    stress_spec,
    executions: int,
    seed: int = 0,
    randomise: bool = False,
    parallel: ParallelConfig | None = None,
) -> ParityReport:
    """Run one test on both backends and report the weak-rate gap."""
    from .runner import run_litmus

    direct = run_litmus(
        profile, test, distance, stress_spec, executions,
        seed=seed, randomise=randomise, parallel=parallel,
    )
    engine = run_litmus_compiled(
        profile, test, distance, stress_spec, executions,
        seed=seed, randomise=randomise, parallel=parallel,
    )
    return ParityReport(direct=direct, engine=engine)
