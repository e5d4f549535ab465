#!/usr/bin/env python3
"""The full availability study: Theorems 2 and 3 and Figs. 3-4.

Regenerates the paper's analytic evaluation:

* the Theorem 3 crossover table (hybrid vs dynamic-linear, n = 3..20),
  each entry verified with exact rational arithmetic;
* a Descartes/Sturm uniqueness certificate for the n = 5 crossover,
  replaying the paper's symbolic (Maple) proof;
* a Theorem 2 spot-check (hybrid strictly beats dynamic voting);
* the Fig. 3 and Fig. 4 normalised-availability series for five sites.

Run:  python examples/availability_study.py   (under 1 s on a 2-core x86_64 VM)
"""

from repro.analysis import (
    figure3_series,
    figure4_series,
    render_theorem3,
    theorem2_check,
    theorem3_table,
    uniqueness_certificate,
)


def main() -> None:
    print("Regenerating Theorem 3 (certified crossovers)...\n")
    rows = theorem3_table()
    print(render_theorem3(rows))
    assert all(row.matches for row in rows), "a crossover strayed from the paper"

    print("\nUniqueness certificate for n = 5 (the paper's Maple argument):")
    certificate = uniqueness_certificate("hybrid", "dynamic-linear", 5)
    print(
        f"  difference numerator degree {certificate['numerator_degree']}, "
        f"Descartes sign changes = {certificate['descartes_sign_changes']}, "
        f"Sturm positive-root count = {certificate['positive_roots_sturm']}"
    )
    assert certificate["unique"]

    print("\nTheorem 2 spot-check (hybrid > dynamic voting) ...")
    rows2 = theorem2_check()
    print(f"  verified at {len(rows2)} (n, ratio) grid points.")

    print("\n" + figure3_series().render())
    print("\n" + figure4_series().render())

    fig3 = figure3_series()
    hybrid, linear, voting = (
        fig3.curve("hybrid"), fig3.curve("dynamic-linear"), fig3.curve("voting")
    )
    # Shape assertions from the figures: dynamic-linear leads at the
    # smallest ratios, the hybrid leads from the crossover on, and voting
    # trails both at five sites.
    assert linear[0] > hybrid[0] > voting[0]
    assert hybrid[-1] > linear[-1] > voting[-1]
    print("\nfigure shapes match the paper.")


if __name__ == "__main__":
    main()
