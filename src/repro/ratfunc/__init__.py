"""Exact rational-function algebra: the library's Maple replacement.

Everything the paper's mechanically-aided Theorem 3 proof asked of Maple is
provided here with :class:`fractions.Fraction` exactness:

* :class:`Polynomial` / :class:`RationalFunction` -- the symbolic values.
* :func:`bareiss_solve` -- symbolic solution of the balance equations
  (Maple's ``solve``).
* :func:`fraction_solve` -- exact evaluation at rational ratios (Maple's
  "computed exactly using rational arithmetic" verification step).
* :func:`bisect_root`, :func:`count_positive_roots`,
  :func:`isolate_positive_roots` -- certified root work (Maple's ``fsolve``
  plus the Descartes/Collins-Loos uniqueness argument).
"""

from .linsolve import bareiss_solve, fraction_solve
from .polynomial import ONE, ZERO, Polynomial, X
from .rational import RationalFunction
from .roots import (
    bisect_root,
    cauchy_bound,
    count_positive_roots,
    count_roots_between,
    isolate_positive_roots,
    sign_variations,
    sturm_sequence,
)

__all__ = [
    "Polynomial",
    "RationalFunction",
    "X",
    "ONE",
    "ZERO",
    "fraction_solve",
    "bareiss_solve",
    "cauchy_bound",
    "sturm_sequence",
    "sign_variations",
    "count_roots_between",
    "count_positive_roots",
    "isolate_positive_roots",
    "bisect_root",
]
