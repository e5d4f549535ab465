"""Stochastic availability analysis (Section VI).

* :class:`ChainSpec` / :class:`Arc` -- CTMCs with (lambda, mu)-linear rates
  and numeric / exact / symbolic steady states.
* :func:`chain_for` -- every protocol's chain, the paper's Fig. 2 hybrid
  chain included, derived lumped from the protocol implementation through
  the signatures in :data:`LUMP_SIGNATURES`.
* :func:`derive_chain` -- the exact site-labelled chain of any protocol.
* :mod:`repro.markov.chains` -- the static protocols' closed forms.
* :func:`availability` and friends -- the unified availability API.

numpy is imported with the package; scipy only where a solve needs it:
:func:`transient_availability` imports ``expm`` when it runs, and the
heterogeneous model imports scipy.sparse inside its large solve.
"""

from .availability import (
    ANALYTIC_PROTOCOLS,
    availability,
    availability_exact,
    availability_symbolic,
    chain_for,
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
    primary_copy_availability,
    primary_site_voting_availability,
    voting_availability,
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
    primary_site_voting_signature,
    state_tuple,
    voting_signature,
)
from .transient import (
    expected_blocked_fraction,
    mean_time_to_blocking,
    transient_availability,
)

__all__ = [
    "Arc",
    "ChainSpec",
    "voting_availability",
    "primary_site_voting_availability",
    "primary_copy_availability",
    "state_tuple",
    "chain_for",
    "derive_chain",
    "derive_lumped_chain",
    "verify_stale_partitions_blocked",
    "Configuration",
    "SPARSE_THRESHOLD",
    "availability",
    "heterogeneous_availability",
    "transient_availability",
    "lump_chain",
    "hybrid_signature",
    "dynamic_signature",
    "dynamic_linear_signature",
    "modified_hybrid_signature",
    "voting_signature",
    "primary_site_voting_signature",
    "class_signature",
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
