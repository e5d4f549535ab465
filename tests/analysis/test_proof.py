"""Tests for the packaged Theorem 3 proof (the full symbolic route)."""

from fractions import Fraction

import pytest

from repro.analysis import PAPER_CROSSOVERS, Theorem3Proof, theorem3_proof
from repro.errors import AnalysisError

#: ``theorem3_proof(5).transcript()`` as first produced with the dense
#: symbolic solver, byte for byte.
PROOF5_TRANSCRIPT = """\
Theorem 3, n = 5:
  availability difference numerator (degree 8):
    5/3*r^8 + 235/36*r^7 + 949/90*r^6 + 1453/216*r^5 - 46/135*r^4 \
- 601/216*r^3 - 1663/1080*r^2 - 131/360*r - 1/30
  Descartes sign changes: 1 (one change => at most one positive root)
  Sturm positive-root count: 1
  certified bracket: difference(12089/19200) < 0 < difference(51653/81920)
  hence hybrid > dynamic-linear iff mu/lambda >= 0.630
  paper's value: 0.63"""


@pytest.fixture(scope="module")
def proof5():
    return theorem3_proof(5)


class TestProofConstruction:
    def test_crossover_matches_paper(self, proof5):
        assert abs(proof5.crossover - PAPER_CROSSOVERS[5]) <= 0.011

    def test_uniqueness_certified_both_ways(self, proof5):
        assert proof5.descartes_sign_changes == 1
        assert proof5.sturm_positive_roots == 1
        assert proof5.unique

    def test_bracket_is_narrow_and_rational(self, proof5):
        low, high = proof5.bracket
        assert isinstance(low, Fraction) and isinstance(high, Fraction)
        assert high - low <= Fraction(1, 1000)

    def test_self_verification(self, proof5):
        proof5.verify()  # must not raise

    def test_transcript_mentions_the_exhibits(self, proof5):
        text = proof5.transcript()
        assert "Descartes" in text
        assert "Sturm" in text
        assert "0.63" in text

    def test_transcript_is_pinned(self, proof5):
        assert proof5.transcript() == PROOF5_TRANSCRIPT

    def test_small_n_rejected(self):
        with pytest.raises(AnalysisError):
            theorem3_proof(2)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_other_sizes(self, n):
        proof = theorem3_proof(n)
        proof.verify()
        assert abs(proof.crossover - PAPER_CROSSOVERS[n]) <= 0.011


class TestTamperDetection:
    def test_verify_rejects_a_shifted_bracket(self, proof5):
        tampered = Theorem3Proof(
            n_sites=proof5.n_sites,
            hybrid=proof5.hybrid,
            linear=proof5.linear,
            difference_numerator=proof5.difference_numerator,
            descartes_sign_changes=proof5.descartes_sign_changes,
            sturm_positive_roots=proof5.sturm_positive_roots,
            bracket=(Fraction(2), Fraction(3)),  # both above the crossover
        )
        with pytest.raises(AnalysisError):
            tampered.verify()

    def test_verify_rejects_a_wrong_polynomial(self, proof5):
        from repro.ratfunc import X

        tampered = Theorem3Proof(
            n_sites=proof5.n_sites,
            hybrid=proof5.hybrid,
            linear=proof5.linear,
            difference_numerator=X + 1,
            descartes_sign_changes=proof5.descartes_sign_changes,
            sturm_positive_roots=proof5.sturm_positive_roots,
            bracket=proof5.bracket,
        )
        with pytest.raises(AnalysisError):
            tampered.verify()
