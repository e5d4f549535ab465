"""Experiment E2 (Fig. 2): the hybrid algorithm's state diagram.

Derives the chain from the protocol implementation for every n the paper
analyses (3..20) and checks the 3n - 5 state count, the (X, Y, Z)
coordinates, and the worked balance equation given in the proof of
Theorem 3.  The state-for-state comparison with the hand transcription of
Fig. 2 lives in tests/markov/test_fig2_reference.py.
"""

from repro.core import make_protocol
from repro.markov import (
    chain_for,
    derive_chain,
    hybrid_signature,
    lump_chain,
    state_tuple,
)
from repro.markov.availability import _chain
from repro.types import site_names


def build_all():
    return {n: chain_for("hybrid", n) for n in range(3, 21)}


def test_fig2_state_diagram(benchmark):
    # Every round derives afresh: chain_for caches its chains.
    chains = benchmark.pedantic(
        build_all, setup=_chain.cache_clear, rounds=5, iterations=1
    )

    for n, chain in chains.items():
        assert chain.size == 3 * n - 5, n

    five = chains[5]
    print(f"\nFig. 2 chain for n=5 ({five.size} states):")
    for arc in five.arcs():
        rate = " + ".join(
            part
            for part in (
                f"{arc.failures}L" if arc.failures else "",
                f"{arc.repairs}M" if arc.repairs else "",
            )
            if part
        )
        print(
            f"  {state_tuple(arc.source, 5)} -> {state_tuple(arc.target, 5)}"
            f"  @ {rate}"
        )

    # The paper's worked balance equation for A[2] (n arbitrary; take 7):
    seven = chains[7]
    assert seven.rate(("B", 0), ("A", 2)) == (0, 2)     # 2 mu B[1]
    assert seven.rate(("A", 3), ("A", 2)) == (3, 0)     # 3 lambda A[3]
    assert seven.rate(("A", 2), ("A", 3)) == (0, 5)     # (n-2) mu out
    assert seven.rate(("A", 2), ("B", 0)) == (2, 0)     # 2 lambda out

    # Coordinates: A_2 = (2,3,0), A_k = (k,k,0), B_z = (1,3,z), C_z = (0,3,z).
    assert {state_tuple(state, 5) for state in five.states} == (
        {(2, 3, 0)}
        | {(k, k, 0) for k in range(3, 6)}
        | {(x, 3, z) for x in (0, 1) for z in range(3)}
    )


def test_fig2_is_the_exact_lumping(benchmark):
    """The site-labelled chain lumps, exactly, onto ``chain_for``'s.

    Strong lumpability is verified with integer-exact rate comparisons;
    the lumped chain's blocks, arcs, and weights coincide with the
    one-representative-per-block derivation one for one.
    """

    def derive_and_lump():
        derived = derive_chain(make_protocol("hybrid", site_names(5)))
        return derived, lump_chain(derived, hybrid_signature)

    derived, lumped = benchmark(derive_and_lump)
    direct = chain_for("hybrid", 5)
    assert set(lumped.states) == set(direct.states)
    for source in direct.states:
        assert lumped.weight(source) == direct.weight(source)
        for target in direct.states:
            if source != target:
                assert lumped.rate(source, target) == direct.rate(source, target)
    for ratio in (0.3, 0.63, 1.0, 5.0):
        assert abs(derived.availability(ratio) - direct.availability(ratio)) < 1e-12
    print(
        f"\nstrong lumpability verified: {derived.size} site-labelled states "
        f"lump onto Fig. 2's {direct.size} blocks, all arc multiplicities "
        "and availabilities equal."
    )
