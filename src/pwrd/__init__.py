"""Power-weighted aggregation of group effects from repeated measurement trials.

``import pwrd`` loads the data model: ``errors`` and ``panel``. The
estimators (``covariance``, ``effects``, ``mixed``, ``weights``) and the
analysis engine (``power``) load on the first lookup of one of their
public names (PEP 562). The generator (``simulate``) is registered in
``sys.modules`` at once but loads on its first use, so a command compiles
only the modules it runs.
"""

import importlib
import importlib.util
import sys

__version__ = "0.1.0"

from .errors import DegenerateDataError, InputError, NumericalError, PwrdError
from .panel import (
    GroupInfo,
    PanelDataset,
    PanelSchema,
    ThresholdRule,
    ingest_panel,
    persist_flags,
)


def _registered(name: str):
    """Submodule ``name``, put in ``sys.modules`` now and run on the first
    use of one of its attributes (``importlib.util.LazyLoader``)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The generator is in ``sys.modules`` and bound here from ``import pwrd`` on,
# as when it loaded eagerly, so code that patches it through
# ``sys.modules["pwrd.simulate"]``, as perfbench's calibration counter does,
# finds it there; its code still runs only when something uses it.
simulate = _registered("simulate")

# The modules that load on first use, each with the public names it defines.
_LAZY = {
    "covariance": ("CovarianceEstimate", "cluster_covariance", "satterthwaite_df"),
    "effects": (
        "ExitEstimate", "GroupEffects", "TestInProportions", "estimate_effects_diffmeans",
        "estimate_effects_peters_belson", "estimate_p0", "exit_observation_estimate",
    ),
    "mixed": ("MixedModelFit", "VarianceComponents", "fit_random_intercept"),
    "power": (
        "PowerCell", "PowerResult", "analyze_replicate", "estimate_power", "icc_sweep",
        "negative_effect_sweep",
    ),
    "simulate": (
        "CohortSpec", "EffectSpec", "Scenario", "apply_effect", "calibrate_thresholds",
        "default_scenario", "expected_group_testin", "expected_testin_profile", "generate_panel",
        "single_track_scenario", "spillover_scenario", "theoretical_covariance",
    ),
    "weights": (
        "AggregatedTest", "AggregationWeights", "aggregate_external", "aggregate_test",
        "flat_weights", "pitman_relative_efficiency", "pwrd_weights", "test_slope",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """A public name of a module that loads on first use: the first lookup
    imports the module and binds the name here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))


__all__ = sorted([
    "DegenerateDataError",
    "GroupInfo",
    "InputError",
    "NumericalError",
    "PanelDataset",
    "PanelSchema",
    "PwrdError",
    "ThresholdRule",
    "ingest_panel",
    "persist_flags",
    *_MODULE_OF,
])
