from fractions import Fraction

import pytest

from ghzsep.thresholds import (
    bisep_threshold,
    classify,
    figure1_data,
    full_sep_threshold,
    nj_threshold,
    rows_to_csv,
)
from ghzsep.witness import necessary_threshold


class TestNjThreshold:
    def test_three_qubits(self):
        assert nj_threshold(3, 1) == Fraction(3, 7)

    def test_six_qubits_two_pairs(self):
        assert nj_threshold(6, 2) == Fraction(3, 35)

    def test_boundary_case(self):
        for j in range(1, 7):
            n = 2 * j + 1
            assert nj_threshold(n, j) == Fraction(1, 1 + Fraction(2 ** (n - 1), n))

    def test_rejects_uncovered_regime(self):
        with pytest.raises(ValueError):
            nj_threshold(6, 3)
        with pytest.raises(ValueError):
            nj_threshold(5, 0)

    def test_increasing_in_j(self):
        for n in range(4, 15):
            values = [nj_threshold(n, j) for j in range(1, (n - 1) // 2 + 1)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    def test_matches_witness_bound_at_block_two_j(self):
        for n in range(3, 15):
            for j in range(1, (n - 1) // 2 + 1):
                assert nj_threshold(n, j) == necessary_threshold(n, 2 * j)


class TestReferenceFormulas:
    def test_values(self):
        assert full_sep_threshold(3) == Fraction(1, 5)
        assert bisep_threshold(3) == Fraction(3, 7)
        assert bisep_threshold(4) == Fraction(7, 15)

    def test_nesting(self):
        for n in range(4, 15):
            full = full_sep_threshold(n)
            bi = bisep_threshold(n)
            for j in range(1, (n - 1) // 2 + 1):
                assert full < nj_threshold(n, j) < bi


class TestClassify:
    def test_separable_by_closed_form(self):
        v = classify(6, 5, Fraction(1, 30))
        assert v.status == "separable"
        assert v.sufficient_bound == Fraction(3, 67)
        assert v.necessary_bound == Fraction(3, 67)

    def test_gap_region_uses_lp(self):
        v = classify(6, 3, Fraction(1, 4))
        assert v.status == "unknown-gap"
        assert v.sufficient_bound == Fraction(9, 41)
        assert v.necessary_bound is None

    def test_entangled_beyond_full_separability(self):
        v = classify(4, 4, Fraction(1, 2))
        assert v.status == "entangled"
        assert v.necessary_bound == Fraction(1, 9)

    def test_biseparability_endpoint(self):
        v = classify(5, 2, Fraction(1, 2))
        assert v.necessary_bound == bisep_threshold(5)

    def test_three_qubit_endpoints_agree(self):
        # k = 2 is covered by both the biseparability formula and the
        # closed form; they coincide
        v = classify(3, 2, Fraction(2, 5))
        assert v.sufficient_bound == Fraction(3, 7)
        assert v.status == "separable"

    def test_monotone_in_p(self):
        for k in (2, 3, 5, 6):
            bound = classify(6, k, 0).sufficient_bound
            below = classify(6, k, bound)
            assert below.status == "separable"
            just_above = classify(6, k, bound + Fraction(1, 10**6))
            assert just_above.status != "separable"

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            classify(4, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            classify(4, 5, Fraction(1, 2))


class TestFigureData:
    def test_known_rows(self):
        rows = {(n, c): p for n, c, p in figure1_data(3, 11, (1, 2, 3, 4, 5))}
        assert rows[(3, "j=1")] == Fraction(3, 7)
        assert rows[(10, "j=1")] == Fraction(5, 2053)
        assert rows[(11, "j=5")] == Fraction(11, 1035)
        assert rows[(5, "full")] == Fraction(1, 17)
        assert rows[(6, "full")] == Fraction(1, 33)
        assert rows[(6, "bisep")] == Fraction(31, 63)

    def test_curves_skip_uncovered_n(self):
        rows = figure1_data(3, 6, (2,))
        labels = {(n, c) for n, c, _ in rows}
        assert (4, "j=2") not in labels
        assert (5, "j=2") in labels

    def test_csv_shape(self):
        text = rows_to_csv(figure1_data(3, 4, (1,)))
        lines = text.strip().split("\n")
        assert lines[0] == "n,curve,p_exact,p_decimal"
        assert lines[1].startswith("3,j=1,3/7,0.428571428571")

    def test_range_validation(self):
        with pytest.raises(ValueError):
            figure1_data(5, 4, (1,))
