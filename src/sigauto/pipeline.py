"""Streaming loop: classifier -> automaton -> model -> forecast record.

One pipeline owns one signal, one classifier, one clusterer and one model.
``advance`` performs the constant-time update path only: one
``step_stream``, which moves the automaton one instant and steps the model
with ``update``, for either emission kind; ``step`` also produces the
JSONL-ready forecast record for the new instant.  The first observation is
the same step, taken by an automaton and a model that start empty; before it,
``isa`` and ``hmm`` are None.  Only ``rebuild_from_scratch`` builds from
scratch.
"""

from __future__ import annotations

from .automaton import Isa, build_isa, step_stream
from .errors import ConfigError
from .forecasting import forecast, state_occupancies
from .hmm import Hmm, HmmContinuous, isa_to_hmm, isa_to_hmm_continuous
from .plugins import (
    Clusterer,
    EmaGridClassifier,
    Kernel,
    PluginParams,
    rho_fn,
    sigma_fn,
)
from .signal import Signal

EMISSION_MODES = ("discrete", "continuous")


class StreamPipeline:
    """Online model of a single stream with per-observation O(1) updates.

    ``score_floor`` is accepted and not read."""

    def __init__(self, params: PluginParams, emission: str = "discrete",
                 seed: int = 0, score_floor: float = 1e-12):
        if emission not in EMISSION_MODES:
            raise ConfigError(f"unknown emission mode {emission!r}")
        self.params = params
        self.emission = emission
        self.seed = seed
        self.signal = Signal()
        self.classifier = EmaGridClassifier(params)
        self.clusterer = Clusterer(params.grid_width)
        self.sigma = sigma_fn(params)
        # Only a discrete model reads rho, so only it has a fallback to tell.
        self.rho = rho_fn(params, notice=emission == "discrete")
        # Only a continuous model reads the kernel.
        self.kernel: Kernel | None = (
            Kernel(params.bandwidth)
            if emission == "continuous" and params.bandwidth != "scott" else None
        )
        self.isa: Isa | None = None
        self.hmm: Hmm | HmmContinuous | None = None

    @property
    def n(self) -> int:
        return self.signal.last_instant

    def advance(self, obs) -> int:
        """Consume one observation; returns its instant."""
        instant = self.signal.append(obs)
        if self.isa is None:
            isa = self.isa = Isa()
            if self.emission == "discrete":
                self.hmm = Hmm(self.sigma, self.rho, self.clusterer, isa)
            else:
                self.hmm = HmmContinuous(self.sigma, self.signal, self.kernel, isa)
        step_stream(self.isa, self.signal, self.classifier, (self.hmm,))
        return instant

    def forecast_record(self) -> dict:
        """JSONL-ready forecast record for the current instant."""
        h = self.params.horizon
        if self.emission == "discrete":
            return forecast(self.hmm, h).record(self.n, self.seed)
        # The continuous forecast is a density; records carry the state
        # occupancies from which densities are evaluated on demand.
        occupancies = state_occupancies(self.hmm, h)
        steps = [{"j": j, "states": occ} for j, occ in enumerate(occupancies, 1)]
        return {"i": self.n, "dummy": h > 0 and self.hmm.current_is_new, "steps": steps,
                "seed": self.seed}

    def step(self, obs) -> dict:
        self.advance(obs)
        return self.forecast_record()

    def rebuild_from_scratch(self) -> tuple:
        """Reference build of the current state, ignoring all caches."""
        isa = build_isa(self.signal, EmaGridClassifier(self.params))
        if self.emission == "discrete":
            clusterer = Clusterer(self.params.grid_width)
            return isa, isa_to_hmm(isa, self.signal, self.sigma, self.rho, clusterer)
        return isa, isa_to_hmm_continuous(isa, self.signal, self.sigma, self.kernel)
