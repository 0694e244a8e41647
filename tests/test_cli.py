"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main
from repro.reporting.experiments import DISTRIBUTABLE

#: Every subcommand's namespace for a minimal valid argv, as the
#: option table must reproduce it (``fn`` aside): one wrong default
#: override would show here.
DEFAULTS = {
    ("experiment", "table5"): dict(
        command="experiment", id="table5", chips=None, environments=None,
        tests=None, backend=None, dist=None, units_per_lease=None,
        lease_target_s=2.0, seed=0, scale="smoke", jobs=None, out=None,
        resume=None,
    ),
    ("coordinate", "table5"): dict(
        command="coordinate", id="table5", chips=None, environments=None,
        tests=None, backend=None, host="127.0.0.1", port=0, dist=0,
        lease_timeout=60.0, units_per_lease=None, lease_target_s=2.0,
        worker_jobs=1, seed=0, scale="smoke", jobs=None, out=None,
        resume=None,
    ),
    ("worker", "--connect", "h:1"): dict(
        command="worker", connect="h:1", name="worker", max_units=None,
        delay=0.0, connect_timeout=10.0, jobs=None, reconnect_timeout=30.0,
        faults=None,
    ),
    ("chaos", "table5", "--plan", "p.json"): dict(
        command="chaos", id="table5", plan="p.json", chips=None,
        environments=None, tests=None, backend=None, seed=0, scale="smoke",
        workers=2, out=None, lease_timeout=15.0, reconnect_timeout=30.0,
        max_attempts=3,
    ),
    ("ledger", "verify", "d"): dict(command="ledger", action="verify", dir="d"),
    ("chips",): dict(command="chips"),
    ("apps",): dict(command="apps"),
    ("tests",): dict(command="tests"),
    ("axiom",): dict(command="axiom", test=None),
    ("synth",): dict(
        command="synth", threads=2, max_ops=2, locations=2, values=1,
        no_rmw=False, no_fences=False, limit=None, chips=None,
        executions=40, seed=7, no_survey=False, no_ir=False,
    ),
    ("litmus", "MP"): dict(
        command="litmus", test="MP", chip="K20", distance=64,
        executions=200, stress_at="", sequence="", randomise=False,
        backend="direct", seed=0, scale="smoke", jobs=None, out=None,
        resume=None,
    ),
    ("test-app", "cbe-dot"): dict(
        command="test-app", app="cbe-dot", chip="K20", environment="sys-str+",
        runs=40, seed=0, scale="smoke", jobs=None, out=None, resume=None,
    ),
    ("harden", "cbe-dot"): dict(
        command="harden", app="cbe-dot", chip="Titan", seed=0, scale="smoke",
        jobs=None, out=None, resume=None,
    ),
}


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_validates_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table9"])

    @pytest.mark.parametrize("argv", list(DEFAULTS), ids=" ".join)
    def test_subcommand_defaults(self, argv):
        args = vars(build_parser().parse_args(list(argv)))
        assert {key: args[key] for key in DEFAULTS[argv]} == DEFAULTS[argv]

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "table5", "--plan", "p.json", "--workers", "0"],
            ["chaos", "table5", "--plan", "p.json", "--max-attempts", "0"],
            ["chaos", "table5", "--plan", "p.json", "--lease-timeout", "inf"],
            ["coordinate", "table5", "--lease-timeout", "nan"],
            ["coordinate", "table5", "--lease-timeout", "0"],
        ],
        ids=" ".join,
    )
    def test_counts_and_durations_refused_by_the_parser(self, argv):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2

    def test_distributable_read_off_the_signatures(self):
        assert DISTRIBUTABLE == {
            "survey", "fig3", "table2", "table3", "fig4", "table5",
        }


@pytest.mark.parametrize(
    "argv",
    [
        "litmus MP --stress-at a",
        "litmus MP --distance -1",
        "experiment survey --scale smoke --chips K20 --tests MP "
        "--environments no-str-",
        "experiment table1 --chips K20",
        "experiment table3 --chips K20 Titan",
    ],
)
def test_usage_errors_exit_2_without_traceback(argv, capsys):
    # main is the one error boundary: what argparse cannot check still
    # ends as a usage error, never a traceback or a silently dropped
    # filter.
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gpu-wmm: error:")
    assert "Traceback" not in captured.err


def test_refused_filter_names_the_experiments_that_take_it(capsys):
    assert main(["experiment", "survey", "--environments", "no-str-"]) == 2
    assert capsys.readouterr().err == (
        "gpu-wmm: error: --environments only applies to table5, "
        "not survey\n"
    )


class TestCommands:
    def test_chips(self, capsys):
        assert main(["chips"]) == 0
        out = capsys.readouterr().out
        assert "K20" in out and "Fermi" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "cbe-dot" in out and "ls-bh-nf" in out

    def test_tests_lists_registry(self, capsys):
        from repro.litmus import ALL_TESTS

        assert main(["tests"]) == 0
        out = capsys.readouterr().out
        for test in ALL_TESTS:
            assert test.name in out
        assert "IRIW" in out and "Coherence" in out

    def test_litmus_name_case_insensitive(self, capsys):
        code = main([
            "litmus", "corr", "--chip", "K20", "--distance", "64",
            "--executions", "10",
        ])
        assert code == 0
        assert "CoRR d=64 on K20" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spelling,canonical",
        [
            ("2.2w", "2+2W"),
            ("2-2W", "2+2W"),
            ("22w", "2+2W"),
            ("3lb", "3.LB"),
            ("3-LB", "3.LB"),
            ("mp-f0", "MP-F0"),
            ("MP.F0", "MP-F0"),
        ],
    )
    def test_litmus_name_punctuation_normalised(
        self, spelling, canonical, capsys
    ):
        # `+` and `.` names must resolve however the shell mangles the
        # separators (regression: `2.2w` and `3lb` used to be rejected).
        code = main([
            "litmus", spelling, "--chip", "K20", "--distance", "64",
            "--executions", "5",
        ])
        assert code == 0
        assert f"{canonical} d=64 on K20" in capsys.readouterr().out

    def test_survey_tests_filter_normalises_punctuation(self, capsys):
        code = main([
            "experiment", "survey", "--scale", "smoke",
            "--chips", "K20", "--tests", "2.2w", "3-lb",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2+2W" in out and "3.LB" in out

    def test_litmus_unknown_name_rejected(self):
        with pytest.raises(SystemExit):
            main(["litmus", "MP+lwsync", "--executions", "5"])

    def test_litmus_vector_backend(self, capsys):
        code = main([
            "litmus", "SB", "--chip", "K20", "--distance", "64",
            "--executions", "4096", "--backend", "vector",
        ])
        assert code == 0
        assert "[vector]" in capsys.readouterr().out

    def test_survey_vector_backend(self, capsys):
        code = main([
            "experiment", "survey", "--scale", "smoke",
            "--chips", "K20", "--tests", "MP", "--backend", "vector",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "vector backend" in out

    def test_backend_flag_rejected_outside_survey(self, capsys):
        code = main([
            "experiment", "table1", "--backend", "vector",
        ])
        assert code == 2
        assert "--backend" in capsys.readouterr().err

    def test_litmus_engine_backend(self, capsys):
        code = main([
            "litmus", "MP", "--chip", "K20", "--distance", "64",
            "--executions", "4", "--backend", "engine",
        ])
        assert code == 0
        assert "[engine]" in capsys.readouterr().out

    def test_experiment_survey_with_tests_filter(self, capsys):
        code = main([
            "experiment", "survey", "--scale", "smoke",
            "--chips", "K20", "--tests", "MP", "mp-ff",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MP-FF" in out and "Litmus survey" in out

    def test_tests_filter_rejected_outside_survey(self, capsys):
        code = main([
            "experiment", "table1", "--tests", "MP",
        ])
        assert code == 2
        assert "--tests" in capsys.readouterr().err

    def test_litmus_native(self, capsys):
        code = main([
            "litmus", "MP", "--chip", "K20", "--distance", "64",
            "--executions", "30",
        ])
        assert code == 0
        assert "MP d=64 on K20" in capsys.readouterr().out

    def test_litmus_stressed(self, capsys):
        code = main([
            "litmus", "SB", "--chip", "Titan", "--distance", "64",
            "--executions", "40", "--stress-at", "0,64",
            "--sequence", "ld st2 ld",
        ])
        assert code == 0
        assert "SB" in capsys.readouterr().out

    def test_test_app(self, capsys):
        code = main([
            "test-app", "cbe-dot", "--chip", "K20",
            "--environment", "no-str-", "--runs", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cbe-dot on K20" in out

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "GTX 980" in capsys.readouterr().out

    def test_harden_serial_equals_two_jobs(self, capsys):
        """Fence insertion end to end, serially and with its check
        shards in two worker processes: the same reduction and the same
        text apart from the seconds figure."""
        outs = []
        for jobs in ([], ["--jobs", "2"]):
            assert main([
                "harden", "cbe-dot", "--chip", "Titan", "--scale", "smoke",
                *jobs,
            ]) == 0
            outs.append(re.sub(r"\d+\.\ds\)", "s)",
                               capsys.readouterr().out))
        assert "4 initial fences -> 1 after reduction (converged" in outs[0]
        assert "\n  fence after cbe-dot:store-c\n" in outs[0]
        assert outs[0] == outs[1]
