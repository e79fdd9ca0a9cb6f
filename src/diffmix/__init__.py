"""Dynamic density estimation with Wright-Fisher stick-breaking mixtures.

A time-indexed random density is built from a stick-breaking random
measure whose sticks diffuse as one-dimensional Wright-Fisher processes,
mixed through a Gaussian kernel. The package provides the diffusion
engine (`wf`), the random-measure layer (`measure`), the renormalised
mixture density (`mixture`), a slice-augmented Gibbs sampler (`gibbs`),
posterior summaries and diagnostics (`estimation`), an analytic
self-validation battery (`validate`) and a command-line front end
(`cli`).
"""

from .data import TimeGridDataset
from .errors import (DataError, DiffmixError, NumericalError,
                     SeriesTruncationError, TruncationCapError, UsageError)
from .estimation import (CoverageReport, DensitySurface, coverage_report,
                         effective_sample_size, gelman_rubin, summarize)
from .gibbs import (ChainState, GammaPrior, PosteriorDraws, SamplerConfig,
                    gibbs_sweep, init_chain, run_chain)
from .measure import (MeasureProbability, MeasureState, StickConfig, evolve,
                      measure_eval, sample_marginal, sticks_to_weights,
                      theoretical_acf, weights_to_sticks)
from .mixture import (CenteringMeasure, density_eval, mean_functional,
                      simulate_toy)
from .wf import (WFParams, euler_path, invariant_density,
                 mean_reversion_rate, nb_weight, sample_transition,
                 series_transition_density, transition_density,
                 transition_mixture_component)

__version__ = "0.1.0"

__all__ = [
    "CenteringMeasure", "ChainState", "CoverageReport", "DataError",
    "DensitySurface", "DiffmixError", "GammaPrior",
    "MeasureProbability", "MeasureState", "NumericalError", "PosteriorDraws",
    "SamplerConfig", "SeriesTruncationError", "StickConfig",
    "TimeGridDataset", "TruncationCapError",
    "UsageError", "WFParams",
    "coverage_report", "density_eval", "effective_sample_size", "euler_path",
    "evolve", "gelman_rubin", "gibbs_sweep", "init_chain",
    "invariant_density", "mean_functional",
    "mean_reversion_rate", "measure_eval", "nb_weight", "run_chain",
    "sample_marginal", "sample_transition", "series_transition_density",
    "simulate_toy",
    "sticks_to_weights", "summarize", "theoretical_acf",
    "transition_density", "transition_mixture_component",
    "weights_to_sticks",
]
