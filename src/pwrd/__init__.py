"""Power-weighted aggregation of group effects from repeated measurement trials.

``import pwrd`` loads the generator half of the package: ``errors``,
``panel``, ``simulate`` and ``tails``. The estimators (``covariance``,
``effects``, ``mixed``, ``weights``) and the analysis engine (``power``)
load on the first lookup of one of their public names (PEP 562).
"""

import importlib

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
from .simulate import (
    CohortSpec,
    EffectSpec,
    Scenario,
    apply_effect,
    calibrate_thresholds,
    default_scenario,
    expected_group_testin,
    expected_testin_profile,
    generate_panel,
    single_track_scenario,
    spillover_scenario,
    theoretical_covariance,
)

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
    "CohortSpec",
    "DegenerateDataError",
    "EffectSpec",
    "GroupInfo",
    "InputError",
    "NumericalError",
    "PanelDataset",
    "PanelSchema",
    "PwrdError",
    "Scenario",
    "ThresholdRule",
    "apply_effect",
    "calibrate_thresholds",
    "default_scenario",
    "expected_group_testin",
    "expected_testin_profile",
    "generate_panel",
    "ingest_panel",
    "persist_flags",
    "single_track_scenario",
    "spillover_scenario",
    "theoretical_covariance",
    *_MODULE_OF,
])
