"""Dynamic density estimation with Wright-Fisher stick-breaking mixtures.

A time-indexed random density is built from a stick-breaking random
measure whose sticks diffuse as one-dimensional Wright-Fisher processes,
mixed through a Gaussian kernel. The package provides the diffusion
engine (`wf`), the random-measure layer (`measure`), the renormalised
mixture density (`mixture`), a slice-augmented Gibbs sampler (`gibbs`),
posterior summaries and diagnostics (`estimation`), an analytic
self-validation battery (`validate`) and a command-line front end
(`cli`). The top level exports what a fit needs; everything else is
reached through these submodules.
"""

from .data import TimeGridDataset
from .errors import (DataError, DiffmixError, NumericalError,
                     SeriesTruncationError, TruncationCapError, UsageError)
from .estimation import summarize
from .gibbs import GammaPrior, PosteriorDraws, SamplerConfig, run_chain
from .measure import StickConfig
from .mixture import CenteringMeasure, simulate_toy

__version__ = "0.1.0"

__all__ = [
    "CenteringMeasure", "DataError", "DiffmixError", "GammaPrior",
    "NumericalError", "PosteriorDraws", "SamplerConfig",
    "SeriesTruncationError", "StickConfig", "TimeGridDataset",
    "TruncationCapError", "UsageError", "run_chain", "simulate_toy",
    "summarize",
]
