"""Online hidden Markov model inference from a single streaming time series.

The pipeline is: a pluggable classifier maps each growing signal prefix to a
state; an automaton records, per state pair, the instants of every move; a
pair of statistical weight functions turns the automaton into a hidden Markov
model (discrete clustered events or continuous kernel-mixture emissions); the
model forecasts event distributions over a finite horizon.  Every structure
supports a constant-time per-observation update next to its from-scratch
construction.

Each public name is imported from its module on first access, so
``import sigauto`` loads no stage until one of its names is used.
"""

import importlib

# The public names of each module, each listed once.
_EXPORTS = {
    "automaton": ("BOTTOM_STATE", "InstantsMatrix", "Isa", "build_isa", "init_isa",
                  "is_new_state", "move", "next_isa", "step_stream", "unmove"),
    "bench": ("BenchPoint", "BenchReport", "run_bench"),
    "errors": ("ConfigError", "EmptyInputError", "InsufficientHistoryError",
               "RejectedInputError", "SigautoError", "SnapshotError", "StalenessError",
               "TemporalOrderError", "UnknownStateError"),
    "forecasting": ("FitReport", "Forecast", "fit", "forecast", "forecast_density_at",
                    "sample_event", "sample_observation", "score", "state_occupancies"),
    "hmm": ("DUMMY_STATE", "Hmm", "HmmContinuous", "isa_to_hmm", "isa_to_hmm_continuous",
            "next_hmm", "next_hmm_continuous", "transition_row"),
    "lookahead": ("FrontierEntry", "LookaheadFrontier", "lookahead_advance",
                  "lookahead_build"),
    "pipeline": ("StreamPipeline",),
    "plugins": ("DUMMY_EVENT", "Clusterer", "EmaGridClassifier", "Kernel",
                "LookaheadWordClassifier", "PluginParams", "StatAccumulator", "StatFn",
                "default_bandwidth", "rho_fn", "sigma_fn"),
    "signal": ("Signal", "as_observation"),
    "snapshot": ("load_snapshot", "save_snapshot"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF]
__version__ = "0.1.0"


def __getattr__(name):
    """Import a public name's module on first access and keep the name."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
