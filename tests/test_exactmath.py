import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzsep import exactmath
from ghzsep.exactmath import (
    as_tuple,
    elem_sym,
    exact,
    probability,
    random_unit_rationals,
    verify_appendix_inequality,
    verify_lemma1_inequality,
    verify_w_identities,
    w_coeff,
)
from ghzsep.suites import lemma1, read_limits


def brute_elem_sym(values):
    """Independent oracle: explicit subset enumeration."""
    out = [Fraction(1)]
    for i in range(1, len(values) + 1):
        out.append(
            sum(math.prod(c) for c in itertools.combinations(values, i))
        )
    return out


def fraction_elem_sym(values):
    """Independent reference: the Fraction recurrence, one value at a time."""
    s = [Fraction(1)] + [Fraction(0)] * len(values)
    for seen, value in enumerate(map(Fraction, values), 1):
        for i in range(seen, 0, -1):
            s[i] = s[i] + value * s[i - 1]
    return tuple(s)


small_rationals = st.fractions(
    min_value=-3, max_value=3, max_denominator=12
)


class TestElemSym:
    def test_two_ones(self):
        assert elem_sym((1, 1)) == (1, 2, 1)

    def test_all_zero(self):
        assert elem_sym((0, 0, 0)) == (1, 0, 0, 0)

    def test_mixed_signs(self):
        got = elem_sym((Fraction(1, 2), Fraction(-1, 3)))
        assert list(got) == brute_elem_sym([Fraction(1, 2), Fraction(-1, 3)])
        assert got == (1, Fraction(1, 6), Fraction(-1, 6))

    def test_empty(self):
        assert elem_sym(()) == (1,)

    @given(st.lists(small_rationals, max_size=7))
    def test_matches_subset_enumeration(self, values):
        assert list(elem_sym(values)) == brute_elem_sym(values)

    def test_long_input_matches_enumeration(self):
        rng = random.Random(20240501)
        values = random_unit_rationals(rng, 12)
        assert list(elem_sym(values)) == brute_elem_sym(values)

    def test_float_inputs_give_exact_fractions(self):
        got = elem_sym((0.5, 0.25))
        assert got == (1, Fraction(3, 4), Fraction(1, 8))
        assert [type(x) for x in got] == [Fraction] * 3

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_matches_fraction_loop_on_lemma1_samples(self, seed):
        # the draws of `verify --suite lemma1 --limits samples=500` at this seed
        rng = random.Random(seed)
        for n in range(4, 9):
            for _ in range(500):
                z = random_unit_rationals(rng, n - 2)
                got = elem_sym(z)
                assert got == fraction_elem_sym(z), z
                assert [type(x) for x in got] == [Fraction] * (n - 1)

    def test_mixed_number_types_match_fraction_loop(self):
        z = (Decimal("0.1"), -0.375, Fraction(2, 3), 1, True)
        assert elem_sym(z) == fraction_elem_sym(z)

    def test_generator_equals_tuple(self):
        z = (Fraction(1, 2), 0.25, -1, Fraction(-2, 7))
        assert elem_sym(x for x in z) == elem_sym(z)

    @pytest.mark.parametrize("z, named", [
        (None, "None"), (3, "3"), ((float("inf"),), "inf"), ((None,), "None"),
        (("1/2",), "'1/2'"), ((float("nan"),), "nan"),
        ((Decimal("-Infinity"),), "Decimal('-Infinity')"),
    ])
    def test_bad_input_is_a_value_error(self, z, named):
        with pytest.raises(ValueError, match=re.escape(f"got {named}")):
            elem_sym(z)


def brute_w(L, n, l):
    return sum(
        (-1) ** j * math.comb(L - l, n - j) * math.comb(l, j)
        for j in range(max(0, n + l - L), min(n, l) + 1)
    )


class TestWCoeff:
    def test_weight_zero_sector_is_binomial(self):
        assert w_coeff(4, 2, 0) == 6 == math.comb(4, 2)

    def test_full_sector_alternates(self):
        assert w_coeff(3, 1, 3) == -3 == -math.comb(3, 1)

    def test_interior_value(self):
        assert w_coeff(4, 2, 2) == brute_w(4, 2, 2) == -2

    def test_matches_bounded_sum_everywhere(self):
        for L in range(0, 9):
            for n in range(L + 1):
                for l in range(L + 1):
                    assert w_coeff(L, n, l) == brute_w(L, n, l)

    def test_is_polynomial_coefficient(self):
        # coefficient of x^n in (1+x)^(L-l) (1-x)^l
        for L in range(2, 7):
            for l in range(L + 1):
                poly = [Fraction(1)]
                for _ in range(L - l):
                    poly = [a + b for a, b in zip(poly + [0], [0] + poly)]
                for _ in range(l):
                    poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
                for n in range(L + 1):
                    assert w_coeff(L, n, l) == poly[n]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            w_coeff(4, 5, 0)
        with pytest.raises(ValueError):
            w_coeff(4, 0, -1)


class TestWIdentities:
    def test_two_qubit_block_edge_sector(self):
        records = verify_w_identities(2)
        by_name = {r.check: r for r in records}
        rec = by_name["w-identity:even-coefficient-sum"]
        assert rec.passed and rec.detail == "lhs=0, rhs=0"
        # edge sectors coincide at L = 2, so the moment doubles
        assert by_name["w-identity:even-first-moment"].detail == "lhs=-1, rhs=-1"

    def test_interior_moment_vanishes(self):
        records = {(r.params["l"], r.check): r for r in verify_w_identities(4)}
        rec = records[(2, "w-identity:even-first-moment")]
        assert rec.passed and rec.detail == "lhs=0, rhs=0"

    def test_edge_moment_value(self):
        records = {(r.params["l"], r.check): r for r in verify_w_identities(4)}
        rec = records[(1, "w-identity:even-first-moment")]
        assert rec.passed and rec.detail == "lhs=-2, rhs=-2"

    def test_all_pass_up_to_twenty(self):
        for L in range(2, 21):
            assert all(r.passed for r in verify_w_identities(L))

    def test_rejects_a_one_qubit_block(self):
        with pytest.raises(ValueError, match="need L >= 2, got L=1"):
            verify_w_identities(1)


def comb_appendix_sweep(n_max, l_max, comb):
    """The appendix sweep with one binomial call per term: the number of
    checks and each violation's params and detail."""
    checked, violations = 0, []
    for l in range(2, l_max + 1):
        for n in range(l, n_max + 1):
            for i in range(l, n + 1):
                checked += 1
                lhs = Fraction(comb(n, i) + comb(n, i - l), n)
                rhs = Fraction(comb(n + l, i), n + l)
                if lhs > rhs:
                    violations.append(({"n": n, "l": l, "i": i}, f"lhs={lhs}, rhs={rhs}"))
    return checked, violations


class TestAppendixInequality:
    def test_specific_values(self):
        # n=6, l=2, i=3: 26/6 <= 56/8
        assert Fraction(math.comb(6, 3) + math.comb(6, 1), 6) == Fraction(13, 3)
        assert Fraction(math.comb(8, 3), 8) == 7
        # n=4, l=2, i=2: 7/4 <= 5/2
        assert Fraction(math.comb(4, 2) + math.comb(4, 0), 4) == Fraction(7, 4)
        assert Fraction(math.comb(6, 2), 6) == Fraction(5, 2)
        report = verify_appendix_inequality(8, 4)
        assert report.passed and report.checked > 0

    def test_moderate_sweep_clean(self):
        report = verify_appendix_inequality(40, 20)
        assert report.passed

    @pytest.mark.parametrize("n_max, l_max", [(8, 4), (40, 20)])
    def test_matches_comb_form(self, n_max, l_max):
        checked, violations = comb_appendix_sweep(n_max, l_max, math.comb)
        report = verify_appendix_inequality(n_max, l_max)
        assert report.checked == checked == sum(
            n - l + 1 for l in range(2, l_max + 1) for n in range(l, n_max + 1)
        )
        assert [(r.params, r.detail) for r in report.violations] == violations == []

    def test_pascal_rows_are_binomials(self):
        rows = exactmath._pascal_rows(120)
        assert len(rows) == 121
        assert all(rows[r] == [math.comb(r, c) for c in range(r + 1)] for r in range(121))

    def test_reports_each_injected_violation(self, monkeypatch):
        # The bound holds everywhere, so corrupt a few Pascal entries and
        # check that the sweep reads each binomial from the right place:
        # C(n, i) inside the range and at i = n, C(n, i - l) at i = l, and
        # C(n + l, i).
        rows = [[math.comb(r, c) for c in range(r + 1)] for r in range(61)]
        rows[30][12] = rows[30][30] = rows[25][0] = 10**30
        rows[36][17] = 0
        monkeypatch.setattr(exactmath, "_pascal_rows", lambda top: rows[: top + 1])
        checked, violations = comb_appendix_sweep(40, 20, lambda r, c: rows[r][c])
        report = verify_appendix_inequality(40, 20)
        assert report.checked == checked
        assert [(r.params, r.detail) for r in report.violations] == violations
        hit = {(p["n"], p["i"] - p["l"]) for p, _ in violations}
        assert {(30, 12), (25, 0)} <= hit
        assert {(p["n"], p["i"]) for p, _ in violations} >= {(30, 12), (30, 30)}
        assert any(p["n"] + p["l"] == 36 and p["i"] == 17 for p, _ in violations)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            verify_appendix_inequality(3, 2)
        with pytest.raises(ValueError):
            verify_appendix_inequality(10, 1)


def indexed_lemma1(z, n):
    """The paper's indexed forms: a and b as sums of S_2i and S_(2i-1)
    weighted by (4i+2-n)/m and (4i-n)/m, u and v as averages over j of
    the products with the j-th factor flipped."""
    zs = [Fraction(x) for x in z]
    m = n - 2
    s = brute_elem_sym(zs)
    a = sum(Fraction(4 * i + 2 - n, m) * s[2 * i] for i in range(1, m // 2 + 1)) - 1
    b = sum(Fraction(4 * i - n, m) * s[2 * i - 1] for i in range(1, (m + 1) // 2 + 1))
    u = sum(
        math.prod((1 - x) if t == j else (1 + x) for t, x in enumerate(zs)) for j in range(m)
    ) / Fraction(m)
    v = sum(
        math.prod((1 + x) if t == j else (1 - x) for t, x in enumerate(zs)) for j in range(m)
    ) / Fraction(m)
    return a, b, u, v


def fraction_lemma1(z, n):
    """The Fraction form of lemma 1: S_i weighted by (2i - m)/m, u and v
    from the (1 + z), (1 - z) recurrence, the verdict on Fractions.
    Returns the seven Lemma1Check values in order."""
    zs = tuple(Fraction(x) for x in z)
    m = n - 2
    weighted = [Fraction(2 * i - m, m) * s_i for i, s_i in enumerate(fraction_elem_sym(zs))]
    a, b = sum(weighted[0::2]), sum(weighted[1::2])
    plus, minus = Fraction(1), Fraction(1)
    mu, mv = Fraction(0), Fraction(0)
    for x in zs:
        mu, mv = mu * (1 + x) + plus * (1 - x), mv * (1 - x) + minus * (1 + x)
        plus, minus = plus * (1 + x), minus * (1 - x)
    u, v = mu / m, mv / m
    bound = plus * minus
    lhs = a**2 - b**2
    return (a, b, u, v, bound, a <= 0 and lhs >= bound, lhs == bound)


def lemma1_fields(check):
    return tuple(getattr(check, name) for name in
                 ("a", "b", "u", "v", "transverse_bound", "passed", "tight"))


unit_values = st.one_of(
    st.fractions(min_value=-1, max_value=1, max_denominator=64),
    st.integers(min_value=-1, max_value=1),
    st.floats(min_value=-1, max_value=1),
)


class TestLemma1:
    def test_four_qubit_hand_value(self):
        q = verify_lemma1_inequality((Fraction(1, 2), Fraction(1, 2)), 4)
        assert q.a == Fraction(-3, 4)  # z1*z2 - 1
        assert q.b == 0

    def test_all_zero_input(self):
        for n in range(3, 9):
            q = verify_lemma1_inequality((Fraction(0),) * (n - 2), n)
            assert q.a == -1 and q.b == 0

    def test_all_ones_collapses_products(self):
        # every flipped product contains a (1 - 1) factor
        q = verify_lemma1_inequality((1, 1, 1), 5)
        assert q.u == 0 and q.v == 0
        assert q.a == 0 and q.b == 0

    @given(st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=16),
                    min_size=1, max_size=6))
    @settings(max_examples=150)
    def test_uv_identity_and_inequality(self, z):
        n = len(z) + 2
        check = verify_lemma1_inequality(z, n)  # raises if a != -(u+v)/2 or b != -(u-v)/2
        assert check.u >= 0 and check.v >= 0
        assert check.passed

    @given(st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=16),
                    min_size=1, max_size=8))
    @settings(max_examples=150)
    def test_matches_indexed_forms(self, z):
        n = len(z) + 2
        check = verify_lemma1_inequality(z, n)
        assert (check.a, check.b, check.u, check.v) == indexed_lemma1(z, n)
        bound = math.prod(1 - x**2 for x in z)
        assert check.transverse_bound == bound
        assert check.tight == (check.a**2 - check.b**2 == bound)
        assert all(
            type(x) is Fraction for x in (check.a, check.b, check.u, check.v, check.transverse_bound)
        )

    @given(st.integers(min_value=3, max_value=10).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(unit_values, min_size=n - 2, max_size=n - 2))))
    @settings(max_examples=300)
    def test_matches_fraction_form(self, case):
        n, z = case
        got = lemma1_fields(verify_lemma1_inequality(z, n))
        want = fraction_lemma1(z, n)
        assert got == want
        assert [type(x) for x in got] == [Fraction] * 5 + [bool] * 2

    def test_matches_fraction_form_on_corners(self):
        for n in range(3, 11):
            cases = [(0,) * (n - 2), (0.0,) * (n - 2), (Fraction(0),) * (n - 2)]
            cases += itertools.product((-1, 1), repeat=n - 2)
            cases += itertools.product((-1.0, Fraction(1)), repeat=n - 2)
            for z in cases:
                got = lemma1_fields(verify_lemma1_inequality(z, n))
                assert got == fraction_lemma1(z, n), (n, z)
                assert [type(x) for x in got] == [Fraction] * 5 + [bool] * 2

    def test_equal_inputs_give_equal_records(self):
        checks = [verify_lemma1_inequality((x, Fraction(-1, 3)), 4)
                  for x in (0.5, Fraction(1, 2), Fraction(2, 4))]
        for check in checks[1:]:
            assert ([getattr(check, name) for name in check.fields]
                    == [getattr(checks[0], name) for name in checks[0].fields])
            assert lemma1_fields(check) == lemma1_fields(checks[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_suite_tight_cases_match_fraction_recount(self, seed):
        limits = read_limits("lemma1", "n=6,samples=300")
        details = [record.detail for record in lemma1(seed, limits)]
        rng = random.Random(seed)
        want = []
        for n in range(4, 7):
            ties = sum(fraction_lemma1(random_unit_rationals(rng, n - 2), n)[6]
                       for _ in range(300))
            want.append(f"tight_cases={ties}, zero_input_tight=True")
        assert details == want

    def test_equality_detected(self):
        check = verify_lemma1_inequality((Fraction(1, 2), Fraction(1, 2)), 4)
        assert check.passed and check.tight
        zero = verify_lemma1_inequality((0, 0, 0), 5)
        assert zero.passed and zero.tight

    def test_stored_fields_are_the_kernel_integers(self):
        check = verify_lemma1_inequality((0.5, Fraction(-1, 3)), 4)
        assert check.fields == ("ma", "mb", "m", "q", "plus_minus")
        assert check.a == Fraction(-7, 6) and check.b == 0
        # a = -(u+v)/2 and b = -(u-v)/2
        assert check.u == Fraction(7, 6) == -(check.a + check.b)
        assert check.v == Fraction(7, 6) == check.b - check.a
        assert check.passed and not check.tight
        # the verdict and u, v are read from the integers, not set beside them
        stored = [getattr(check, name) for name in check.fields]
        with pytest.raises(TypeError, match="Lemma1Check takes the fields .*, got 6 values"):
            type(check)(*stored, check.passed)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            verify_lemma1_inequality((float("inf"),), 3)
        with pytest.raises(ValueError):
            verify_lemma1_inequality((0.5, float("-inf")), 4)
        with pytest.raises(ValueError):
            verify_lemma1_inequality((Fraction(3, 2),), 3)
        with pytest.raises(ValueError):
            verify_lemma1_inequality((0, 0), 3)
        with pytest.raises(ValueError, match="need n >= 3, got n=2"):
            verify_lemma1_inequality((), 2)

    @pytest.mark.parametrize("z", [None, 7, Fraction(1, 2)])
    def test_components_that_are_not_a_sequence(self, z):
        with pytest.raises(ValueError, match=re.escape(f"need a sequence for the components, got {z!r}")):
            verify_lemma1_inequality(z, 3)

    def test_generator_equals_tuple(self):
        z = (Fraction(1, 2), -0.25, 1, Fraction(-2, 7))
        assert verify_lemma1_inequality(iter(z), 6) == verify_lemma1_inequality(z, 6)

    @pytest.mark.parametrize("bad", ["0.5", None])
    def test_component_that_is_not_a_number(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"need a finite number for a component, got {bad!r}")):
            verify_lemma1_inequality((bad,), 3)


class TestIntake:
    """One rule for every number a caller hands the package: whatever has
    as_integer_ratio() is read as that exact ratio, anything else is a
    ValueError naming the value."""

    @pytest.mark.parametrize("x, want", [
        (3, Fraction(3)), (True, Fraction(1)), (-0.375, Fraction(-3, 8)),
        (0.1, Fraction(3602879701896397, 36028797018963968)),
        (Decimal("0.1"), Fraction(1, 10)), (Fraction(6, 4), Fraction(3, 2)),
    ])
    def test_numbers_are_read_exactly(self, x, want):
        got = exact(x, "x")
        assert got == want and type(got) is Fraction

    @pytest.mark.parametrize("bad", ["1/2", "0.5", None, b"1", float("nan"), float("inf"),
                                     float("-inf"), Decimal("NaN"), Decimal("sNaN"),
                                     Decimal("Infinity"), 1j, [1]])
    def test_anything_else_is_a_value_error(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"need a finite number for x, got {bad!r}")):
            exact(bad, "x")

    def test_numpy_integer_scalars_are_rejected(self):
        np = pytest.importorskip("numpy")
        with pytest.raises(ValueError, match="need a finite number for p"):
            probability(np.int64(1))
        assert probability(np.float64(0.5)) == Fraction(1, 2)  # a float subclass

    @pytest.mark.parametrize("p", [Fraction(-1, 2), 1.5, Decimal("1.0001")])
    def test_probability_outside_the_unit_interval(self, p):
        with pytest.raises(ValueError, match="need 0 <= p <= 1"):
            probability(p)

    def test_sequences_are_read_once(self):
        assert as_tuple(iter([1, 2]), "xs") == (1, 2)
        assert as_tuple([3], "xs") == (3,)
        for bad in (None, 3, 0.5):
            with pytest.raises(ValueError, match=re.escape(f"need a sequence for xs, got {bad!r}")):
                as_tuple(bad, "xs")


class TestFormatting:
    def test_random_rationals_bounded(self):
        rng = random.Random(5)
        vals = random_unit_rationals(rng, 100)
        assert all(-1 <= v <= 1 for v in vals)
        assert all(v.denominator <= 64 for v in vals)
        rng2 = random.Random(5)
        assert random_unit_rationals(rng2, 100) == vals

    def test_negative_length_raises(self):
        with pytest.raises(ValueError, match="need length >= 0, got length=-1"):
            random_unit_rationals(random.Random(0), -1)
