from fractions import Fraction

import pytest

from ghzsep import lpsolve
from ghzsep.thresholds import classify, figure1_data, threshold
from ghzsep.witness import necessary_threshold


# The paper's three closed forms, written out independently of ``threshold``.

def full_sep(n):
    return Fraction(1, 1 + 2 ** (n - 1))


def bisep(n):
    return Fraction(2 ** (n - 1) - 1, 2**n - 1)


def n_minus_j(n, j):
    assert j >= 1 and n >= 2 * j + 1
    return Fraction(n, n + (n - 2 * j) * 2 ** (n - 1))


def closed_form(n, k):
    """The paper's closed form for (n, k), or None where it gives none."""
    if k == n:
        return full_sep(n)
    if k == 2:
        return bisep(n)
    if n >= 2 * (n - k) + 1:
        return n_minus_j(n, n - k)
    return None


def nj_bound(n, j):
    return threshold(n, n - j)[0]


class TestNjThreshold:
    def test_three_qubits(self):
        assert nj_bound(3, 1) == Fraction(3, 7)

    def test_six_qubits_two_pairs(self):
        assert nj_bound(6, 2) == Fraction(3, 35)
        assert threshold(6, 4)[1] == "exact (n-j)-separability criterion, j=2"

    def test_boundary_case(self):
        for j in range(1, 7):
            n = 2 * j + 1
            assert nj_bound(n, j) == Fraction(1, 1 + Fraction(2 ** (n - 1), n))

    def test_uncovered_regime_goes_to_the_lp(self):
        # at n = 2j the (n-j) formula would give 1; the cell is the LP's
        assert threshold(6, 3) == (Fraction(9, 41), LP_RULE)
        # j = 0 is full separability
        assert threshold(5, 5) == (Fraction(1, 17), "full-separability formula")

    def test_increasing_in_j(self):
        for n in range(4, 15):
            values = [nj_bound(n, j) for j in range(1, (n - 1) // 2 + 1)]
            assert values == sorted(values)
            assert len(set(values)) == len(values)

    def test_matches_witness_bound_at_block_two_j(self):
        for n in range(3, 15):
            for j in range(1, (n - 1) // 2 + 1):
                assert nj_bound(n, j) == necessary_threshold(n, 2 * j)


class TestReferenceFormulas:
    def test_values(self):
        assert threshold(3, 3)[0] == full_sep(3) == Fraction(1, 5)
        assert threshold(3, 2)[0] == bisep(3) == Fraction(3, 7)
        assert threshold(4, 2)[0] == bisep(4) == Fraction(7, 15)

    def test_nesting(self):
        for n in range(4, 15):
            full = threshold(n, n)[0]
            bi = threshold(n, 2)[0]
            for j in range(1, (n - 1) // 2 + 1):
                assert full < nj_bound(n, j) < bi


LP_RULE = "mixed-partition linear program and its dual witness"


class TestThreshold:
    def test_closed_form_cells_are_exact(self):
        cells = [(n, k) for n in range(2, 17) for k in range(2, n + 1)
                 if closed_form(n, k) is not None]
        assert len(cells) == 84
        for n, k in cells:
            bound, rule = threshold(n, k)
            assert bound == closed_form(n, k) and rule != LP_RULE, (n, k)

    def test_lp_cells_give_the_certified_bound(self):
        for n, k in lpsolve.REFERENCE_TAU:
            assert closed_form(n, k) is None
            prob = lpsolve.build_problem(n, k)
            sol = lpsolve.solve(prob)
            assert lpsolve.verify_solution(prob, sol)
            assert threshold(n, k) == (sol.p_s, LP_RULE), (n, k)

    def test_classify_switches_at_the_bound(self):
        for n in range(2, 11):
            for k in range(2, n + 1):
                bound = threshold(n, k)[0]
                assert classify(n, k, bound) == "separable", (n, k)
                assert classify(n, k, bound + Fraction(1, 10**9)) == "entangled", (n, k)

    def test_lp_cell_above_the_cap_builds_no_problem(self, monkeypatch):
        def fail(n, k):
            raise AssertionError(f"built the problem for n={n}, k={k}")

        monkeypatch.setattr(lpsolve, "build_problem", fail)
        with pytest.raises(ValueError, match="limited to n <= 30"):
            threshold(31, 10)

    def test_classify_above_the_cap_raises(self):
        with pytest.raises(ValueError, match="limited to n <= 30"):
            classify(31, 5, 0)

    def test_overlap_cells_take_the_first_formula(self):
        # only (2, 2) and (3, 2) match two closed forms, and the forms agree
        overlaps = [(n, k) for n in range(2, 41) for k in range(2, n + 1)
                    if (k == n) + (k == 2) + (2 * k > n and k < n) > 1]
        assert overlaps == [(2, 2), (3, 2)]
        assert full_sep(2) == bisep(2)
        assert bisep(3) == n_minus_j(3, 1)
        assert threshold(2, 2) == (Fraction(1, 3), "full-separability formula")
        assert threshold(3, 2) == (Fraction(3, 7), "biseparability formula")

    def test_rejected_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(lpsolve, "verify_solution", lambda prob, sol: False)
        with pytest.raises(ArithmeticError, match="certificate rejected for n=6, k=3"):
            threshold(6, 3)

    @pytest.mark.parametrize("n, k", [(4, 1), (4, 5)])
    def test_domain_errors(self, n, k):
        with pytest.raises(ValueError, match="need 2 <= k <= n"):
            threshold(n, k)


class TestClassify:
    def test_verdict_is_a_string(self):
        import ghzsep

        assert classify(6, 3, 0) == "separable"
        assert type(classify(6, 3, 1)) is str
        with pytest.raises(AttributeError):
            ghzsep.SeparabilityVerdict

    def test_separable_by_closed_form(self):
        assert classify(6, 5, Fraction(1, 30)) == "separable"
        assert threshold(6, 5)[0] == Fraction(3, 67)

    def test_gap_region_uses_lp(self):
        # the linear-program bound is exact: above it the state is entangled
        assert classify(6, 3, Fraction(1, 4)) == "entangled"
        assert threshold(6, 3) == (Fraction(9, 41), LP_RULE)

    def test_rejected_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(lpsolve, "verify_solution", lambda prob, sol: False)
        with pytest.raises(ArithmeticError, match="certificate rejected for n=6, k=3"):
            classify(6, 3, 0)

    def test_every_lookup_certifies_again(self, monkeypatch):
        # nothing is kept between lookups: a later call that is refused its
        # certificate raises, though the same cell certified just before
        assert threshold(6, 3) == (Fraction(9, 41), LP_RULE)
        monkeypatch.setattr(lpsolve, "verify_solution", lambda prob, sol: False)
        with pytest.raises(ArithmeticError, match="certificate rejected for n=6, k=3"):
            threshold(6, 3)

    def test_gap_verdicts_agree_with_biseparability(self):
        # every k-separable state is biseparable, so each linear-program
        # bound lies below the biseparability threshold; above the bound
        # every such cell is entangled
        for n in range(6, 11):
            bi = threshold(n, 2)[0]
            for k in range(3, n // 2 + 1):
                p_s = threshold(n, k)[0]
                assert p_s < bi
                assert classify(n, k, p_s) == "separable", (n, k)
                for p in (p_s + Fraction(1, 10**9), (p_s + bi) / 2, bi + Fraction(1, 10**9)):
                    assert classify(n, k, p) == "entangled", (n, k, p)
        assert classify(6, 3, Fraction(99, 100)) == "entangled"

    def test_entangled_beyond_full_separability(self):
        assert classify(4, 4, Fraction(1, 2)) == "entangled"
        assert threshold(4, 4)[0] == Fraction(1, 9)

    def test_biseparability_endpoint(self):
        assert classify(5, 2, Fraction(1, 2)) == "entangled"
        assert threshold(5, 2)[0] == bisep(5)

    def test_three_qubit_endpoints_agree(self):
        # k = 2 is covered by both the biseparability formula and the
        # closed form; they coincide
        assert threshold(3, 2)[0] == Fraction(3, 7)
        assert classify(3, 2, Fraction(2, 5)) == "separable"

    def test_monotone_in_p(self):
        for k in (2, 3, 5, 6):
            bound = threshold(6, k)[0]
            assert classify(6, k, bound) == "separable"
            assert classify(6, k, bound + Fraction(1, 10**6)) == "entangled"

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            classify(4, 1, Fraction(1, 2))
        with pytest.raises(ValueError):
            classify(4, 5, Fraction(1, 2))
        for p in (Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ValueError, match=f"need 0 <= p <= 1, got {p}"):
                classify(6, 3, p)

    @pytest.mark.parametrize("p", [float("inf"), float("-inf"), None, "1/2", float("nan")])
    def test_non_numbers_are_bad_input(self, p):
        with pytest.raises(ValueError, match="need a finite number for p"):
            classify(6, 3, p)

    @pytest.mark.parametrize("n, k, named", [
        (6.5, 3, "n, got 6.5"), (None, 3, "n, got None"), (True, 3, "n, got True"),
        (6, 3.0, "k, got 3.0"), (6, "3", "k, got '3'"), (6, False, "k, got False"),
    ])
    def test_non_int_arguments_are_bad_input(self, n, k, named):
        with pytest.raises(ValueError, match=f"need an integer {named}"):
            threshold(n, k)
        with pytest.raises(ValueError, match=f"need an integer {named}"):
            classify(n, k, Fraction(1, 2))


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

    def test_range_validation(self):
        with pytest.raises(ValueError):
            figure1_data(5, 4, (1,))

    @pytest.mark.parametrize("j_list", [(0,), (1, -2)])
    def test_rejects_j_below_one(self, j_list):
        with pytest.raises(ValueError, match="need j >= 1"):
            figure1_data(3, 6, j_list)

    @pytest.mark.parametrize("args, named", [
        ((3, 10, None), "a sequence for j_list, got None"),
        ((3, 10, 2), "a sequence for j_list, got 2"),
        ((3, 10, [1.5]), "an integer j, got 1.5"),
        ((3, 10, [1, True]), "an integer j, got True"),
        ((3.0, 10, [1]), "an integer n_min, got 3.0"),
        ((3, None, [1]), "an integer n_max, got None"),
    ])
    def test_non_int_arguments_are_bad_input(self, args, named):
        with pytest.raises(ValueError, match=f"need {named}"):
            figure1_data(*args)

    def test_j_list_may_be_a_generator(self):
        assert figure1_data(3, 9, (j for j in (1, 3))) == figure1_data(3, 9, [1, 3])

    def test_rejects_repeated_j(self):
        with pytest.raises(ValueError, match="repeated j"):
            figure1_data(3, 6, (1, 2, 1))
