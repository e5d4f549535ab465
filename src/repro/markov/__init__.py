"""Stochastic availability analysis (Section VI).

* :class:`ChainSpec` / :class:`Arc` -- CTMCs with (lambda, mu)-linear rates
  and numeric / exact / symbolic steady states.
* :mod:`repro.markov.chains` -- the hand-built chain per protocol,
  including the paper's Fig. 2 hybrid chain.
* :func:`derive_chain` -- exact chains derived automatically from the
  protocol implementations (the validation harness).
* :func:`availability` and friends -- the unified availability API.
"""

from .availability import (
    ANALYTIC_PROTOCOLS,
    availability,
    availability_exact,
    availability_symbolic,
    clear_symbolic_cache,
    normalized_availability,
    symbolic_cached,
    up_probability,
)
from .availability import grid as availability_grid
from .builder import (
    Configuration,
    derive_chain,
    derive_lumped_chain,
    verify_stale_partitions_blocked,
)
from .chains import (
    CHAIN_BUILDERS,
    chain_for,
    dynamic_chain,
    dynamic_linear_chain,
    hybrid_chain,
    optimal_candidate_chain,
    primary_copy_availability,
    primary_site_voting_availability,
    primary_site_voting_chain,
    state_tuple,
    voting_availability,
    voting_chain,
)
from .ctmc import SPARSE_THRESHOLD, Arc, ChainSpec
from .heterogeneous import (
    heterogeneous_availability,
    heterogeneous_steady_state,
)
from .lumping import (
    LUMP_SIGNATURES,
    class_signature,
    dynamic_linear_signature,
    dynamic_signature,
    hybrid_signature,
    lump_chain,
    modified_hybrid_signature,
    signature_for,
    voting_signature,
)
from .sparse import sparse_steady_state, sparse_steady_state_grid
from .transient import (
    expected_blocked_fraction,
    mean_time_to_blocking,
    transient_availability,
)

__all__ = [
    "Arc",
    "ChainSpec",
    "hybrid_chain",
    "dynamic_chain",
    "dynamic_linear_chain",
    "optimal_candidate_chain",
    "voting_chain",
    "primary_site_voting_chain",
    "voting_availability",
    "primary_site_voting_availability",
    "primary_copy_availability",
    "state_tuple",
    "CHAIN_BUILDERS",
    "chain_for",
    "derive_chain",
    "derive_lumped_chain",
    "verify_stale_partitions_blocked",
    "Configuration",
    "SPARSE_THRESHOLD",
    "sparse_steady_state",
    "sparse_steady_state_grid",
    "availability",
    "heterogeneous_availability",
    "transient_availability",
    "lump_chain",
    "hybrid_signature",
    "dynamic_signature",
    "dynamic_linear_signature",
    "modified_hybrid_signature",
    "voting_signature",
    "class_signature",
    "signature_for",
    "LUMP_SIGNATURES",
    "mean_time_to_blocking",
    "expected_blocked_fraction",
    "heterogeneous_steady_state",
    "availability_exact",
    "availability_grid",
    "availability_symbolic",
    "clear_symbolic_cache",
    "normalized_availability",
    "symbolic_cached",
    "up_probability",
    "ANALYTIC_PROTOCOLS",
]
