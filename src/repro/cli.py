"""Command-line interface: ``gpu-wmm`` (or ``python -m repro``).

Subcommands:

* ``experiment <id>`` — regenerate a paper table/figure or the survey;
* ``litmus`` — run one litmus test under a stressing configuration;
* ``axiom`` — classify a test's final states against the axiomatic
  weak-memory model (verdict table with witness executions);
* ``synth`` — synthesize novel litmus tests from the model (bounded
  enumeration, symmetry dedup, soundness gate, cross-chip survey);
* ``test-app`` — run one application under a testing environment;
* ``harden`` — empirical fence insertion for one application/chip;
* ``coordinate`` — serve an experiment's work units to socket workers
  (scale-out across machines; ``--dist N`` self-spawns local workers);
* ``worker`` — join a coordinator and execute leased work units
  (SIGTERM drains gracefully: held leases release, nothing new starts);
* ``chaos`` — run a distributable experiment under a fault-injection
  plan and assert the output byte-identical to a serial run;
* ``ledger`` — ``verify`` (read-only integrity scan) or ``salvage``
  (quarantine corrupt segments, recover intact records) a run ledger;
* ``chips`` / ``apps`` / ``tests`` — list the registries.

An option that several subcommands take is defined once, in
``_OPTIONS``.  The run options change how a run executes, never what it
computes: ``--jobs N`` shards the run loops over worker processes
(results are identical at any job count), and ``--out DIR`` /
``--resume DIR`` attach a run ledger, so a resumed run replays only the
missing keys, bit-identically.  The filters (``--chips``,
``--environments``, ``--tests``, ``--backend``) fill the experiment
parameters of the same name, read off its signature; a filter the
experiment does not take is refused.  ``main`` is the one error
boundary: a ``ReproError`` or ``ValueError`` prints ``gpu-wmm: error:``
and exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

from .apps.registry import APP_ORDER, get_application
from .apps.registry import all_applications
from .chips.registry import CHIP_ORDER, all_chips, get_chip
from .dist.leases import DEFAULT_TARGET_LEASE_S
from .dist.worker import add_worker_arguments, main as worker_main
from .errors import ReproError
from .hardening.insertion import empirical_fence_insertion
from .litmus import BACKENDS
from .litmus.tests import ALL_TESTS, get_test, test_names
from .parallel import ParallelConfig, jobs_arg
from .reporting.experiments import (
    DISTRIBUTABLE,
    EXPERIMENTS,
    experiment_params,
    open_ledger,
    run_experiment,
)
from .store import cached_or_run, litmus_key, records as store_records, stress_token
from .scale import get_scale
from .stress.environment import ENVIRONMENT_ORDER, standard_environments
from .stress.sequences import parse_sequence
from .stress.strategies import FixedLocationStress, NoStress
from .testing.campaign import run_cell
from .tuning.pipeline import shipped_params

#: Canonical litmus-test names, straight from the registry (the CLI
#: never hardcodes the family; growing the registry grows the CLI).
_TEST_NAMES = test_names()
#: Chips selectable on the command line: the studied parts plus the
#: sequentially consistent reference chip.
_CHIP_NAMES = CHIP_ORDER + ("sc-ref",)


def _test_arg(value: str) -> str:
    """argparse type for litmus-test names: case-insensitive, canonical."""
    try:
        return get_test(value).name
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"unknown litmus test {value!r} "
            f"(choose from {', '.join(_TEST_NAMES)})"
        ) from None


def _checked(convert, ok, message: str):
    """argparse type: ``convert`` the string, then refuse a value that
    fails ``ok``.  It carries ``convert``'s name, so argparse reports a
    string ``convert`` rejects as, e.g., ``invalid int value``."""

    def parse(value: str):
        x = convert(value)
        if not ok(x):
            raise argparse.ArgumentTypeError(message)
        return x

    parse.__name__ = convert.__name__
    return parse


#: A count of at least one: units per lease, chaos workers and attempts.
_count_arg = _checked(int, lambda n: n >= 1, "count must be >= 1")
#: A lease duration: the adaptive lease target and the lease timeout.
_seconds_arg = _checked(
    float,
    lambda x: math.isfinite(x) and x > 0,
    "must be a finite number of seconds > 0",
)


#: Every option that more than one subcommand takes, defined once.  A
#: subcommand adds them by name (:func:`_add_options`) and may override
#: only their ``default`` and ``help``.
_OPTIONS: dict[str, dict] = {
    "--seed": dict(type=int, default=0),
    "--scale": dict(
        default="smoke", choices=["smoke", "default", "paper"],
        help="experiment scale preset (sample sizes; default: smoke)",
    ),
    "--jobs": dict(
        type=jobs_arg, metavar="N",
        help="worker processes for the run loops (default: serial; "
        "0 = one per CPU; results are identical at any job count)",
    ),
    "--out": dict(
        metavar="DIR",
        help="write completed results to a run ledger at DIR "
        "(created if missing; already-ledgered results are reused)",
    ),
    "--resume": dict(
        metavar="DIR",
        help="resume from the run ledger at DIR (must exist); only "
        "missing results are re-run, bit-identically to a cold run",
    ),
    "--chip": dict(
        default="K20", choices=_CHIP_NAMES,
        help=f"chip to run on ({', '.join(_CHIP_NAMES)}; default: K20)",
    ),
    "--chips": dict(
        nargs="+", choices=_CHIP_NAMES, metavar="CHIP",
        help=f"restrict to these chips (choices: {', '.join(_CHIP_NAMES)}; "
        "default: the experiment's own selection)",
    ),
    "--environments": dict(
        nargs="+", choices=ENVIRONMENT_ORDER, metavar="ENV",
        help="restrict table5 to these environments "
        f"(choices: {', '.join(ENVIRONMENT_ORDER)})",
    ),
    "--tests": dict(
        nargs="+", type=_test_arg, metavar="TEST",
        help="restrict the survey experiment to these litmus tests "
        f"(choices: {', '.join(_TEST_NAMES)})",
    ),
    "--backend": dict(
        choices=tuple(BACKENDS),
        help="litmus backend for the survey experiment "
        f"(choices: {', '.join(BACKENDS)}; default: the scale's "
        "litmus_backend knob)",
    ),
    "--dist": dict(
        type=jobs_arg, metavar="N",
        help="serve the experiment's work units to N local worker "
        "subprocesses through the lease coordinator (distributable "
        f"experiments: {', '.join(sorted(DISTRIBUTABLE))}; results are "
        "byte-identical to a local run)",
    ),
    "--units-per-lease": dict(
        aliases=("--lease-units",), dest="units_per_lease",
        type=_count_arg, metavar="N",
        help="fix the work units granted per lease (default: adaptive — "
        "the coordinator sizes each worker's leases from its measured "
        "per-unit service time)",
    ),
    "--lease-target-seconds": dict(
        dest="lease_target_s", type=_seconds_arg,
        default=DEFAULT_TARGET_LEASE_S, metavar="S",
        help="compute duration one adaptive lease targets (default: "
        f"{DEFAULT_TARGET_LEASE_S}; ignored with a fixed --units-per-lease)",
    ),
    "--lease-timeout": dict(
        type=_seconds_arg, default=60.0, metavar="S",
        help="seconds a silent worker holds a lease before its units are "
        "reassigned (default: 60)",
    ),
    "--executions": dict(type=int, default=200),
}

#: Options that change how a run executes, never what it computes, so
#: every run subcommand takes them.
_RUN = ("--seed", "--scale", "--jobs", "--out", "--resume")
#: Options that restrict what an experiment computes, each with the
#: experiment parameters it can fill (see :func:`_experiment_kwargs`).
_FILTERS = {
    "--chips": ("chips", "chip"),
    "--environments": ("environments",),
    "--tests": ("tests",),
    "--backend": ("backend",),
}
_LEASE_SIZING = ("--units-per-lease", "--lease-target-seconds")


def _add_options(
    parser: argparse.ArgumentParser, *names: str, **override
) -> None:
    """Add the shared options ``names`` to ``parser``; ``override``
    (``default=``, ``help=``) applies to each of them, so pass it with
    one name."""
    for name in names:
        kwargs = {**_OPTIONS[name], **override}
        aliases = kwargs.pop("aliases", ())
        parser.add_argument(name, *aliases, **kwargs)


def _parallel(args: argparse.Namespace) -> ParallelConfig | None:
    """The ParallelConfig implied by ``--jobs`` (None = serial default)."""
    return None if args.jobs is None else ParallelConfig(jobs=args.jobs)


def _experiment_kwargs(args: argparse.Namespace) -> dict[str, object]:
    """The experiment's keyword arguments from the filter options.

    Each filter fills the first of its parameters that the experiment
    declares (``--chips`` fills ``chip`` on an experiment centred on
    one chip).  Raises :class:`ReproError` for a filter the experiment
    does not take, naming the experiments that do take it.
    """
    params = experiment_params(args.id)
    kwargs: dict[str, object] = {}
    for option, fills in _FILTERS.items():
        value = getattr(args, option.removeprefix("--"))
        if value is None:
            continue
        param = next((p for p in fills if p in params), None)
        if param is None:
            takers = [
                name for name in sorted(EXPERIMENTS)
                if experiment_params(name).intersection(fills)
            ]
            raise ReproError(
                f"{option} only applies to {', '.join(takers)}, "
                f"not {args.id}"
            )
        if param == "chip":
            if len(value) > 1:
                raise ReproError(
                    f"experiment {args.id} runs on a single chip; "
                    f"got --chips {' '.join(value)}"
                )
            value = value[0]
        kwargs[param] = tuple(value) if isinstance(value, list) else value
    return kwargs


def _stderr_log(message: str) -> None:
    """Distributed-run progress goes to stderr so stdout stays exactly
    the experiment's table (diffable against a serial run)."""
    print(f"gpu-wmm: {message}", file=sys.stderr)


def _cmd_run(args: argparse.Namespace) -> int:
    """``experiment`` and ``coordinate``: render one artefact, its work
    units served to socket workers under ``coordinate`` or ``--dist
    N``."""
    kwargs = _experiment_kwargs(args)
    submit = None
    if args.command == "coordinate" or args.dist:
        from .dist import DistributedSubmit

        # Every coordinator setting this subcommand has an option for;
        # ``experiment`` keeps the defaults of the ones it lacks.
        settings = {
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(DistributedSubmit)
            if hasattr(args, f.name)
        }
        submit = DistributedSubmit(
            workers=args.dist, log=_stderr_log, **settings
        )
    print(run_experiment(
        args.id, scale=args.scale, seed=args.seed, jobs=args.jobs,
        out=args.out, resume=args.resume, submit=submit, **kwargs,
    ))
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults import FaultPlan
    from .faults.chaos import run_chaos

    kwargs = _experiment_kwargs(args)
    report = run_chaos(
        args.id,
        FaultPlan.load(args.plan),
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        out=args.out,
        lease_timeout=args.lease_timeout,
        reconnect_timeout=args.reconnect_timeout,
        max_attempts=args.max_attempts,
        log=_stderr_log,
        **kwargs,
    )
    print(report.summary())
    if not report.identical:
        print(
            "gpu-wmm: chaos output DIFFERS from the fault-free serial "
            "reference — the hardening contract is broken",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_ledger(args: argparse.Namespace) -> int:
    from .store.ledger import salvage_ledger, verify_ledger

    if args.action == "verify":
        problems = verify_ledger(args.dir)
        if not problems:
            print(f"ledger at {args.dir}: clean")
            return 0
        for problem in problems:
            line = f":{problem['line']}" if problem["line"] else ""
            print(f"{problem['segment']}{line}: {problem['error']}")
        print(
            f"{len(problems)} problem(s) found; repair with: "
            f"gpu-wmm ledger salvage {args.dir}"
        )
        return 1
    summary = salvage_ledger(args.dir, log=_stderr_log)
    print(
        f"ledger at {args.dir}: "
        f"{len(summary['quarantined_segments'])} segment(s) "
        f"quarantined, {summary['recovered']} record(s) recovered, "
        f"{len(summary['dropped'])} dropped"
    )
    if summary["quarantined_segments"]:
        print(
            "damaged segments kept under "
            f"{args.dir}/quarantine/; resume the campaign to re-run "
            "any records that were destroyed"
        )
    return 0


def _cmd_chips(_args: argparse.Namespace) -> int:
    for chip in all_chips(include_reference=True):
        print(
            f"{chip.short_name:8s} {chip.name:14s} "
            f"{chip.architecture:10s} {chip.released or '-'}"
        )
    return 0


def _cmd_apps(_args: argparse.Namespace) -> int:
    for app in all_applications():
        print(f"{app.name:13s} {app.description}")
    return 0


def _cmd_tests(_args: argparse.Namespace) -> int:
    for test in ALL_TESTS:
        print(f"{test.name:6s} {test.n_threads}T  {test.description}")
    return 0


def _cmd_axiom(args: argparse.Namespace) -> int:
    from .axiom.model import classify
    from .reporting.axiom import render_axiom_report, render_axiom_summary

    if args.test is None:
        print(render_axiom_summary(ALL_TESTS))
        return 0
    print(render_axiom_report(classify(get_test(args.test))))
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    from .axiom.synth import SynthConfig, synthesize
    from .reporting.axiom import render_synth_report, synth_survey
    from .testing.soundness import soundness_gate

    cfg = SynthConfig(
        threads=args.threads,
        max_ops=args.max_ops,
        locations=args.locations,
        values=args.values,
        rmw=not args.no_rmw,
        fences=not args.no_fences,
        limit=args.limit or 0,
    )
    report = synthesize(cfg)
    print(render_synth_report(report, show_ir=not args.no_ir))
    novel = tuple(s.test for s in report.novel)
    if not novel:
        return 0
    gate = soundness_gate(
        tests=novel,
        chip=args.chips[0] if args.chips else "K20",
        backends=("direct",),
        seed=args.seed,
        executions={"direct": args.executions},
        check_sc_reference=False,
    )
    print()
    print(
        f"soundness gate over {len(novel)} novel tests "
        f"({gate.chip}, direct backend, seed {gate.seed}): "
        + ("PASS" if gate.ok else "FAIL")
    )
    for violation in gate.violations:
        print(f"  {violation}")
    if args.no_survey:
        return 0 if gate.ok else 1
    chips = [get_chip(c) for c in (args.chips or CHIP_ORDER)]
    print()
    print(synth_survey(novel, chips, args.executions, seed=args.seed))
    return 0 if gate.ok else 1


def _cmd_litmus(args: argparse.Namespace) -> int:
    chip = get_chip(args.chip)
    test = get_test(args.test)
    if args.stress_at:
        locations = tuple(int(x) for x in args.stress_at.split(","))
        sequence = parse_sequence(args.sequence or "st ld")
        spec = FixedLocationStress(locations, sequence)
    else:
        spec = NoStress()
    key = litmus_key(
        chip.short_name, test.name, stress_token(spec), args.distance,
        args.executions, args.seed, backend=args.backend,
        randomise=args.randomise,
    )
    result = cached_or_run(
        open_ledger(args.out, args.resume),
        key,
        lambda: BACKENDS[args.backend](
            chip, test, args.distance, spec, args.executions,
            seed=args.seed, randomise=args.randomise,
            parallel=_parallel(args),
        ),
        lambda key, result: store_records.encode_litmus(
            key, result, chip=chip.short_name, seed=args.seed
        ),
        store_records.decode_litmus,
    )
    print(
        f"{test.name} d={args.distance} on {chip.short_name} "
        f"[{args.backend}]: {result.weak}/{result.executions} weak "
        f"({100 * result.rate:.1f}%)"
    )
    return 0


def _cmd_test_app(args: argparse.Namespace) -> int:
    chip = get_chip(args.chip)
    app = get_application(args.app)
    envs = {
        e.name: e
        for e in standard_environments(shipped_params(chip.short_name))
    }
    env = envs[args.environment]
    cell = run_cell(
        app, chip, env, args.runs, seed=args.seed,
        parallel=_parallel(args), ledger=open_ledger(args.out, args.resume),
    )
    rate = 100.0 * cell.error_rate
    effective = "effective" if rate > 5.0 else "not effective"
    print(
        f"{app.name} on {chip.short_name} under {env.name}: "
        f"{cell.errors}/{cell.runs} erroneous ({rate:.1f}%, {effective}), "
        f"{cell.timeouts} timeouts"
    )
    return 0


def _cmd_harden(args: argparse.Namespace) -> int:
    chip = get_chip(args.chip)
    app = get_application(args.app)
    result = empirical_fence_insertion(
        app,
        chip,
        scale=get_scale(args.scale),
        seed=args.seed,
        parallel=_parallel(args),
        ledger=open_ledger(args.out, args.resume),
    )
    print(
        f"{app.name} on {chip.short_name}: {result.initial_fences} "
        f"initial fences -> {len(result.reduced)} after reduction "
        f"({'converged' if result.converged else 'NOT converged'}, "
        f"{result.check_runs} check runs, {result.wall_seconds:.1f}s)"
    )
    for site in sorted(result.reduced):
        print(f"  fence after {site}")
    return 0


def _epilog() -> str:
    """Enumerate every valid name so users need not read the registries."""
    return "\n".join(
        [
            "valid names:",
            f"  chips         {', '.join(_CHIP_NAMES)}",
            f"  apps          {', '.join(APP_ORDER)}",
            f"  environments  {', '.join(ENVIRONMENT_ORDER)}",
            f"  litmus tests  {', '.join(_TEST_NAMES)}",
            f"  experiments   {', '.join(sorted(EXPERIMENTS))}",
            "",
            "parallel execution:",
            "  pass --jobs N to shard run loops across N worker",
            "  processes (0 = one per CPU).  Statistics are identical",
            "  at any job count; only wall-clock time changes.",
            "",
            "distributed campaigns:",
            "  pass --dist N to an experiment to serve its work units",
            "  to N local worker subprocesses via the lease",
            "  coordinator, or run 'gpu-wmm coordinate <id> --host",
            "  0.0.0.0 --port 7077' and join workers from any machine",
            "  with 'gpu-wmm worker --connect host:7077'.  Results are",
            "  byte-identical to a serial run at any worker count.",
            "  Leases are sized adaptively (per-worker service-time",
            "  EWMA, targeting --lease-target-seconds of compute each);",
            "  --units-per-lease N pins a fixed batch size instead.",
            "  Workers pipeline lease requests and large frames are",
            "  compressed, always: there is one wire protocol.",
            "",
            "persistent run ledger:",
            "  pass --out DIR to checkpoint completed results into an",
            "  append-only ledger as they finish, and --resume DIR to",
            "  continue an interrupted campaign: only missing results",
            "  are re-run, bit-identically to an uninterrupted run.  A",
            "  complete ledger regenerates its tables with zero",
            "  simulation runs.",
            "",
            "examples:",
            "  gpu-wmm tests                  # litmus registry",
            "  gpu-wmm axiom MP               # axiomatic verdict table",
            "  gpu-wmm axiom                  # whole-registry summary",
            "  gpu-wmm synth --max-ops 2 --chips K20 980",
            "  gpu-wmm litmus MP --chip K20 --stress-at 0,64",
            "  gpu-wmm litmus IRIW --chip K20 --stress-at 0,64 \\",
            "      --backend engine           # compiled SIMT path",
            "  gpu-wmm litmus SB --chip 980 --executions 100000 \\",
            "      --backend vector           # vectorized mega-batches",
            "  gpu-wmm experiment survey --scale smoke --chips K20 \\",
            "      --tests MP MP-FF IRIW",
            "  gpu-wmm experiment table5 --scale smoke --jobs 4 \\",
            "      --chips K20 --environments no-str- sys-str+",
            "  gpu-wmm experiment table5 --scale paper --out ledger/",
            "  gpu-wmm experiment table5 --scale paper --resume ledger/",
            "  gpu-wmm experiment table5 --dist 2   # 2 local workers",
            "  gpu-wmm coordinate table5 --host 0.0.0.0 --port 7077 \\",
            "      --scale paper --out ledger/",
            "  gpu-wmm worker --connect big-box:7077 --jobs 0",
            "  gpu-wmm chaos table5 --plan examples/fault-plan.json \\",
            "      --chips K20 --out chaos-ledger/",
            "  gpu-wmm ledger verify chaos-ledger/",
            "  gpu-wmm ledger salvage chaos-ledger/",
            "  gpu-wmm harden cbe-dot --chip Titan --jobs 0",
        ]
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpu-wmm",
        description=(
            "Reproduction of 'Exposing Errors Related to Weak Memory in "
            "GPU Applications' (PLDI 2016)"
        ),
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "experiment",
        help="regenerate a paper artefact (table1..table6, fig3..fig5)",
    )
    p.add_argument(
        "id",
        choices=sorted(EXPERIMENTS),
        help="paper table/figure to regenerate",
    )
    _add_options(p, *_FILTERS, "--dist", *_LEASE_SIZING, *_RUN)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "coordinate",
        help=(
            "serve an experiment's work units to socket workers "
            "(remote machines join with: gpu-wmm worker --connect)"
        ),
    )
    p.add_argument(
        "id",
        choices=sorted(DISTRIBUTABLE),
        help="distributable experiment to coordinate",
    )
    _add_options(p, *_FILTERS)
    p.add_argument(
        "--host",
        default="127.0.0.1",
        help=(
            "interface to listen on (default: 127.0.0.1; use 0.0.0.0 "
            "to accept workers from other machines)"
        ),
    )
    p.add_argument(
        "--port",
        type=int,
        default=0,
        help="port to listen on (default: 0 = OS-assigned ephemeral)",
    )
    _add_options(
        p,
        "--dist",
        default=0,
        help=(
            "also self-spawn N local worker subprocesses (default: 0 = "
            "wait for external workers only)"
        ),
    )
    _add_options(p, "--lease-timeout", *_LEASE_SIZING)
    p.add_argument(
        "--worker-jobs",
        type=jobs_arg,
        default=1,
        metavar="N",
        help="process-pool width inside each self-spawned worker",
    )
    _add_options(p, *_RUN)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser(
        "worker",
        help="join a coordinator and execute leased work units",
    )
    add_worker_arguments(p)
    p.set_defaults(fn=worker_main)

    p = sub.add_parser(
        "chaos",
        help=(
            "run a distributable experiment under a fault-injection "
            "plan and assert byte-identical output vs a serial run"
        ),
    )
    p.add_argument(
        "id",
        choices=sorted(DISTRIBUTABLE),
        help="distributable experiment to stress",
    )
    p.add_argument(
        "--plan",
        required=True,
        metavar="PLAN.json",
        help="fault plan JSON (see docs/ARCHITECTURE.md, Failure model)",
    )
    _add_options(p, *_FILTERS, "--seed")
    _add_options(p, "--scale", help="experiment scale preset (default: smoke)")
    p.add_argument(
        "--workers",
        type=_count_arg,
        default=2,
        metavar="N",
        help="local worker subprocesses to spawn (default: 2)",
    )
    _add_options(
        p,
        "--out",
        help=(
            "attach a run ledger at DIR (also exercises ledger "
            "verify/salvage/resume when the plan injects ledger damage)"
        ),
    )
    _add_options(
        p,
        "--lease-timeout",
        default=15.0,
        help="coordinator lease timeout under chaos (default: 15)",
    )
    p.add_argument(
        "--reconnect-timeout",
        type=float,
        default=30.0,
        metavar="S",
        help="worker outage tolerance under chaos (default: 30)",
    )
    p.add_argument(
        "--max-attempts",
        type=_count_arg,
        default=3,
        metavar="N",
        help=(
            "per-unit failure budget before quarantine (default: 3)"
        ),
    )
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser(
        "ledger",
        help="verify or salvage a run ledger's on-disk integrity",
    )
    p.add_argument(
        "action",
        choices=["verify", "salvage"],
        help=(
            "verify: read-only integrity scan (exit 1 on damage); "
            "salvage: quarantine corrupt segments and recover intact "
            "records"
        ),
    )
    p.add_argument("dir", help="ledger directory")
    p.set_defaults(fn=_cmd_ledger)

    p = sub.add_parser("chips", help="list the chip registry")
    p.set_defaults(fn=_cmd_chips)

    p = sub.add_parser("apps", help="list the application registry")
    p.set_defaults(fn=_cmd_apps)

    p = sub.add_parser(
        "tests",
        help="list the litmus-test registry with descriptions",
    )
    p.set_defaults(fn=_cmd_tests)

    p = sub.add_parser(
        "axiom",
        help=(
            "classify a litmus test's final states against the "
            "axiomatic weak-memory model (no simulation)"
        ),
    )
    p.add_argument(
        "test",
        type=_test_arg,
        nargs="?",
        default=None,
        help=(
            "litmus test to classify, case-insensitive "
            f"({', '.join(_TEST_NAMES)}); omit for a registry summary"
        ),
    )
    p.set_defaults(fn=_cmd_axiom)

    p = sub.add_parser(
        "synth",
        help=(
            "synthesize litmus tests from the axiomatic model "
            "(bounded enumeration, symmetry dedup, soundness gate, "
            "cross-chip survey)"
        ),
    )
    p.add_argument(
        "--threads", type=int, default=2,
        help="exact thread count (2 or 3; default: 2)",
    )
    p.add_argument(
        "--max-ops", type=int, default=2,
        help="memory operations per thread, fences excluded (default: 2)",
    )
    p.add_argument(
        "--locations", type=int, default=2,
        help="location alphabet size (default: 2)",
    )
    p.add_argument(
        "--values", type=int, default=1,
        help="store-value alphabet 1..N (default: 1)",
    )
    p.add_argument(
        "--no-rmw", action="store_true",
        help="exclude rmw from the instruction alphabet",
    )
    p.add_argument(
        "--no-fences", action="store_true",
        help="exclude fences from the enumeration",
    )
    p.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="stop after emitting N tests (default: all)",
    )
    _add_options(
        p,
        "--chips",
        help=(
            "chips for the cross-chip survey (default: all studied "
            "chips; the first chip also hosts the soundness gate)"
        ),
    )
    _add_options(
        p,
        "--executions",
        default=40,
        help="survey/gate executions per test (default: 40)",
    )
    _add_options(p, "--seed", default=7)
    p.add_argument(
        "--no-survey", action="store_true",
        help="skip the cross-chip survey (gate only)",
    )
    p.add_argument(
        "--no-ir", action="store_true",
        help="skip printing ready-to-register IR for novel tests",
    )
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser(
        "litmus", help="run a litmus test under a stressing configuration"
    )
    p.add_argument(
        "test",
        type=_test_arg,
        help=(
            "litmus test, case-insensitive "
            f"({', '.join(_TEST_NAMES)})"
        ),
    )
    _add_options(p, "--chip")
    p.add_argument(
        "--distance",
        type=int,
        default=64,
        help="words between the x and y communication locations",
    )
    _add_options(p, "--executions")
    p.add_argument(
        "--stress-at",
        default="",
        help="comma-separated scratchpad offsets to stress (e.g. 0,64)",
    )
    p.add_argument(
        "--sequence",
        default="",
        help="stressing access sequence in run-length notation, "
        "e.g. 'ld st2 ld'",
    )
    p.add_argument(
        "--randomise",
        action="store_true",
        help="randomise SM placement and issue rates per execution",
    )
    _add_options(
        p,
        "--backend",
        default="direct",
        help=(
            "execution backend: the direct memory-system fast path, the "
            "test compiled to a SIMT-engine kernel, or the vectorized "
            "mega-batch backend (default: direct)"
        ),
    )
    _add_options(p, *_RUN)
    p.set_defaults(fn=_cmd_litmus)

    p = sub.add_parser(
        "test-app", help="run an application campaign cell"
    )
    p.add_argument(
        "app",
        choices=APP_ORDER,
        help=f"application ({', '.join(APP_ORDER)})",
    )
    _add_options(p, "--chip")
    p.add_argument(
        "--environment",
        default="sys-str+",
        choices=ENVIRONMENT_ORDER,
        help=(
            "testing environment "
            f"({', '.join(ENVIRONMENT_ORDER)}; default: sys-str+)"
        ),
    )
    p.add_argument("--runs", type=int, default=40)
    _add_options(p, *_RUN)
    p.set_defaults(fn=_cmd_test_app)

    p = sub.add_parser("harden", help="empirical fence insertion")
    p.add_argument(
        "app",
        choices=APP_ORDER,
        help=f"application to harden ({', '.join(APP_ORDER)})",
    )
    _add_options(
        p,
        "--chip",
        default="Titan",
        help=f"chip to harden on ({', '.join(_CHIP_NAMES)}; default: Titan)",
    )
    _add_options(p, *_RUN)
    p.set_defaults(fn=_cmd_harden)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ReproError, ValueError) as exc:
        # What argparse cannot check: a filter the experiment does not
        # take, --resume at a directory without a ledger, tuning on
        # sc-ref (no weak behaviours, so patch finding fails), ...
        print(f"gpu-wmm: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
