"""Discrete-event simulation substrate and the paper's stochastic model.

* :class:`Simulator` -- a generic event-list simulation engine.
* :class:`Topology` -- sites/links with failures and partition computation.
* :class:`Rates` / :class:`FailureRepairSampler` -- Poisson failure model.
* :class:`StochasticReplicaSystem` / :class:`AvailabilityAccumulator` --
  the Section VI model driving real protocol objects.
* :func:`estimate_availability` -- Monte-Carlo availability with error bars,
  over the scalar oracle or the vectorized structure-of-arrays backend.
* :class:`VectorizedReplicaBatch` / :func:`simulate_batch` -- the batched
  numpy backend itself (:mod:`repro.sim.vectorized`).
* :class:`PartitionScenario` / :func:`figure1_scenario` -- scripted
  partition-graph replay (Fig. 1).
* :class:`RandomStreams` -- reproducible named randomness.

The Monte-Carlo exports (:mod:`repro.sim.montecarlo` and the numpy backend
:mod:`repro.sim.vectorized`) resolve on first access (PEP 562), so netsim
and the model checker, which import :mod:`repro.sim.engine` and
:mod:`repro.sim.topology`, never load numpy.
"""

import importlib
from typing import TYPE_CHECKING

from .engine import EventHandle, Simulator
from .events import Event, EventKind
from .failures import FailureRepairSampler, PerSiteRates, Rates
from .model import AvailabilityAccumulator, StochasticReplicaSystem
from .rng import RandomStreams, derive_seed
from .scenario import (
    FIGURE1_SITES,
    Epoch,
    EpochResult,
    GroupDecision,
    PartitionScenario,
    ScenarioTrace,
    figure1_scenario,
    paper_order,
    paper_protocols,
)
from .topology import Topology

__all__ = [
    "Simulator",
    "EventHandle",
    "Event",
    "EventKind",
    "Rates",
    "PerSiteRates",
    "FailureRepairSampler",
    "StochasticReplicaSystem",
    "AvailabilityAccumulator",
    "MonteCarloResult",
    "RunningCI",
    "BACKENDS",
    "estimate_availability",
    "BatchOutcome",
    "VectorizedReplicaBatch",
    "simulate_batch",
    "supported_protocols",
    "RandomStreams",
    "derive_seed",
    "Topology",
    "PartitionScenario",
    "ScenarioTrace",
    "Epoch",
    "EpochResult",
    "GroupDecision",
    "figure1_scenario",
    "paper_order",
    "paper_protocols",
    "FIGURE1_SITES",
]

if TYPE_CHECKING:
    from .montecarlo import (
        BACKENDS,
        MonteCarloResult,
        RunningCI,
        estimate_availability,
    )
    from .vectorized import (
        BatchOutcome,
        VectorizedReplicaBatch,
        simulate_batch,
        supported_protocols,
    )

#: Exports whose modules import numpy, by name: loaded on first access.
_LAZY = {
    "BACKENDS": ".montecarlo",
    "MonteCarloResult": ".montecarlo",
    "RunningCI": ".montecarlo",
    "estimate_availability": ".montecarlo",
    "BatchOutcome": ".vectorized",
    "VectorizedReplicaBatch": ".vectorized",
    "simulate_batch": ".vectorized",
    "supported_protocols": ".vectorized",
}


def __getattr__(name: str) -> object:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(_LAZY[name], __name__), name)
