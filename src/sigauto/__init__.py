"""Online hidden Markov model inference from a single streaming time series.

The pipeline is: a pluggable classifier maps each growing signal prefix to a
state; an automaton records, per state pair, the instants of every move; a
pair of statistical weight functions turns the automaton into a hidden Markov
model (discrete clustered events or continuous kernel-mixture emissions); the
model forecasts event distributions over a finite horizon.  Every structure
supports a constant-time per-observation update next to its from-scratch
construction.
"""

from .automaton import (
    BOTTOM_STATE,
    InstantsMatrix,
    Isa,
    build_isa,
    init_isa,
    is_new_state,
    move,
    next_isa,
    replay,
    step_stream,
    unmove,
)
from .bench import BenchPoint, BenchReport, run_bench
from .errors import (
    ConfigError,
    EmptyInputError,
    InsufficientHistoryError,
    RejectedInputError,
    SigautoError,
    SnapshotError,
    StalenessError,
    TemporalOrderError,
    UnknownStateError,
)
from .forecasting import (
    FitReport,
    Forecast,
    fit,
    forecast,
    forecast_density_at,
    sample_event,
    sample_observation,
    score,
    state_occupancies,
)
from .hmm import (
    DUMMY_STATE,
    Hmm,
    HmmContinuous,
    SparseStochasticMatrix,
    isa_to_hmm,
    isa_to_hmm_continuous,
    next_hmm,
    next_hmm_continuous,
    transition_row,
)
from .lookahead import (
    FrontierEntry,
    LookaheadFrontier,
    lookahead_advance,
    lookahead_build,
)
from .pipeline import StreamPipeline
from .plugins import (
    DUMMY_EVENT,
    Clusterer,
    EmaGridClassifier,
    Kernel,
    LookaheadWordClassifier,
    PluginParams,
    StatAccumulator,
    StatFn,
    default_bandwidth,
    rho_fn,
    sigma_fn,
)
from .signal import Signal, as_observation
from .snapshot import load_snapshot, save_snapshot

__version__ = "0.1.0"
