"""The package's import surface: a lazy root and a lean worker entry.

``repro/__init__.py`` resolves its public names on first access, so a
spawned distributed worker (``python -m repro.dist``) imports only the
layers it executes.  These tests pin both halves: every public name
still resolves to its defining module's object, and the worker's
import graph stays out of the layers it never runs.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.dist.worker import add_worker_arguments

#: Layers a worker serving litmus or campaign units never imports at
#: start-up (campaign executors load ``repro.testing`` on first use).
WORKER_FREE_LAYERS = (
    "repro.apps",
    "repro.hardening",
    "repro.testing",
    "repro.tuning",
    "repro.costs",
    "repro.reporting",
    "repro.axiom",
    "repro.cli",
)

#: Public data (not classes or functions) and the module defining it.
DATA_ORIGINS = {
    "SC_REFERENCE": "repro.chips.registry",
    "MP": "repro.litmus.tests",
    "LB": "repro.litmus.tests",
    "SB": "repro.litmus.tests",
    "ALL_TESTS": "repro.litmus.tests",
    "TUNING_TESTS": "repro.litmus.tests",
    "SMOKE": "repro.scale",
    "DEFAULT": "repro.scale",
    "PAPER": "repro.scale",
}


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    package_root = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestLazyRoot:
    @pytest.mark.parametrize(
        "name", [n for n in repro.__all__ if n != "__version__"]
    )
    def test_public_name_is_the_defining_modules_object(self, name):
        namespace: dict = {}
        exec(f"from repro import {name}", namespace)
        obj = namespace[name]
        if inspect.isclass(obj) or inspect.isfunction(obj):
            origin = obj.__module__
        else:
            origin = DATA_ORIGINS[name]
        assert getattr(importlib.import_module(origin), name) is obj

    def test_version_and_dir(self):
        assert repro.__version__ == "1.0.0"
        assert set(repro.__all__) <= set(dir(repro))

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            repro.no_such_name  # noqa: B018 - the access is the test
        with pytest.raises(ImportError):
            exec("from repro import no_such_name", {})


class TestWorkerEntry:
    def test_worker_import_skips_layers_it_never_runs(self):
        done = _fresh_python(
            "-c",
            "import sys, repro.dist.worker; print(*sorted(sys.modules))",
        )
        assert done.returncode == 0, done.stderr
        loaded = [
            module
            for module in done.stdout.split()
            for layer in WORKER_FREE_LAYERS
            if module == layer or module.startswith(layer + ".")
        ]
        assert loaded == []

    def test_module_entry_help_exits_zero(self):
        done = _fresh_python("-m", "repro.dist", "--help")
        assert done.returncode == 0, done.stderr
        assert "python -m repro.dist" in done.stdout
        assert "--connect HOST:PORT" in done.stdout

    def test_cli_subcommand_shares_the_options_and_defaults(self):
        argv = ["--connect", "h:1"]
        parser = argparse.ArgumentParser()
        add_worker_arguments(parser)
        module_entry = vars(parser.parse_args(argv))
        subcommand = vars(build_parser().parse_args(["worker", *argv]))
        assert {
            key: subcommand[key] for key in module_entry
        } == module_entry
        assert module_entry["reconnect_timeout"] == 30.0
        assert module_entry["connect_timeout"] == 10.0
        assert module_entry["jobs"] is None
