"""repro — reproduction of "Exposing Errors Related to Weak Memory in
GPU Applications" (Tyler Sorensen and Alastair F. Donaldson, PLDI 2016).

The library rebuilds the paper's entire system on a simulated GPU with a
parameterised weak memory model:

* :mod:`repro.chips` — the seven studied GPUs as hidden-silicon profiles;
* :mod:`repro.gpu` — the SIMT execution engine and weak memory subsystem;
* :mod:`repro.litmus` — the litmus IR, the MP/LB/SB-rooted test family
  and its two execution backends (direct fast path, compiled SIMT);
* :mod:`repro.stress` — stressing strategies and testing environments;
* :mod:`repro.tuning` — the per-chip tuning pipeline (Sec. 3);
* :mod:`repro.apps` — the ten application case studies (Sec. 4, Tab. 4);
* :mod:`repro.testing` — the campaign runner and Table 5 summary;
* :mod:`repro.hardening` — empirical fence insertion (Sec. 5, Alg. 1);
* :mod:`repro.costs` — the fence runtime/energy cost study (Sec. 6);
* :mod:`repro.reporting` — regeneration of every paper table and figure.

Quickstart (the paper's cbe-dot story):

>>> from repro import get_chip, get_application, run_application
>>> from repro import TunedStress, shipped_params
>>> chip = get_chip("K20")
>>> app = get_application("cbe-dot")
>>> run_application(app, chip, seed=1).ok           # native: no errors
True
>>> stress = TunedStress(shipped_params("K20"))
>>> runs = [run_application(app, chip, stress_spec=stress,
...                         randomise=True, seed=i) for i in range(30)]
>>> sum(not r.ok for r in runs) > 0                 # stressed: errors
True
"""

from importlib import import_module

__version__ = "1.0.0"

#: Defining module of every public name.  Names resolve on first access
#: through the module ``__getattr__`` (PEP 562), so importing one
#: submodule loads only the layers that submodule imports: a spawned
#: distributed worker never loads the apps, tuning or reporting layers.
_EXPORTS = {
    ".apps.base": (
        "AppRun",
        "Application",
        "ApplicationBatch",
        "run_application",
        "run_application_batch",
    ),
    ".apps.registry": ("all_applications", "get_application"),
    ".chips.registry": ("SC_REFERENCE", "all_chips", "get_chip"),
    ".errors": ("ReproError",),
    ".gpu.engine": ("Engine", "ExecutionResult", "Outcome"),
    ".gpu.memory": ("MemorySystem",),
    ".gpu.pressure": ("StressField",),
    ".hardening.insertion": ("empirical_fence_insertion",),
    ".litmus.runner": ("run_litmus",),
    ".litmus.compile": ("run_litmus_compiled", "backend_parity"),
    ".litmus.tests": (
        "MP",
        "LB",
        "SB",
        "ALL_TESTS",
        "TUNING_TESTS",
        "LitmusTest",
        "get_test",
    ),
    ".scale": ("Scale", "SMOKE", "DEFAULT", "PAPER", "get_scale"),
    ".store.ledger": ("RunLedger",),
    ".stress.config": ("StressConfig",),
    ".stress.environment": ("TestingEnvironment", "standard_environments"),
    ".stress.strategies": (
        "NoStress",
        "TunedStress",
        "RandomStress",
        "CacheStress",
        "FixedLocationStress",
    ),
    ".testing.campaign": ("run_campaign",),
    ".testing.summary": ("table5_summary",),
    ".tuning.pipeline": ("shipped_params", "tune_chip"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_ORIGIN, "__version__"]


def __getattr__(name: str):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(import_module(module, __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
