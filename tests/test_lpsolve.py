from dataclasses import replace
from fractions import Fraction

import pytest

from ghzsep.lpsolve import (
    REFERENCE_TAU,
    build_problem,
    mixed_state,
    reference_threshold,
    solve,
    table1,
    verify_solution,
)
from ghzsep.partitions import parse_partition
from ghzsep.symstate import pad_to_isotropic
from ghzsep.thresholds import bisep_threshold, nj_threshold


class TestBuildProblem:
    def test_six_three_columns(self):
        prob = build_problem(6, 3)
        assert [p.parts for p in prob.partitions] == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]
        assert len(prob.columns) == 3 and all(len(c) == 5 for c in prob.columns)

    def test_twelve_six_includes_reference_partitions(self):
        prob = build_problem(12, 6)
        names = {str(p) for p in prob.partitions}
        assert "1|2^4|3" in names and "2^6" in names

    def test_full_separability_column(self):
        prob = build_problem(5, 5)
        assert len(prob.partitions) == 1
        assert prob.columns[0] == (1, 1, 1, 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_problem(5, 1)
        with pytest.raises(ValueError):
            build_problem(5, 6)


class TestSolve:
    def test_six_three(self):
        sol = solve(build_problem(6, 3))
        assert sol.tau == 9 and sol.p_s == Fraction(9, 41)
        weights = {str(p): w for p, w in sol.weights_by_partition.items() if w}
        assert weights == {"2^3": Fraction(1, 3), "1|2|3": Fraction(2, 3)}

    def test_eleven_three(self):
        sol = solve(build_problem(11, 3))
        assert sol.tau == Fraction(869, 4)
        assert sol.p_s == Fraction(869, 4965)

    def test_nine_four(self):
        sol = solve(build_problem(9, 4))
        assert sol.tau == 18 and sol.p_s == Fraction(9, 137)
        weights = {str(p): w for p, w in sol.weights_by_partition.items() if w}
        assert weights == {"1|2|3^2": Fraction(1, 2), "2^3|3": Fraction(1, 2)}

    def test_certificates_validate(self):
        for n in range(2, 13):
            for k in (2, 3, n - 1, n):
                if not 2 <= k <= n:
                    continue
                prob = build_problem(n, k)
                sol = solve(prob)
                assert verify_solution(prob, sol)

    def test_deterministic(self):
        a = solve(build_problem(10, 4))
        b = solve(build_problem(10, 4))
        assert a == b
        assert a.pivots == b.pivots

    @pytest.mark.parametrize(
        "n, k, pivots",
        [
            (6, 3, ((0, 0), (0, 1), (1, 2), (5, 3))),
            (10, 4, ((0, 0), (0, 1), (0, 3), (1, 6), (0, 5), (0, 7), (1, 8), (9, 9))),
            (11, 5, ((0, 0), (0, 1), (0, 3), (0, 6), (1, 9), (0, 7), (0, 8), (10, 10))),
        ],
    )
    def test_pivot_sequence_pinned(self, n, k, pivots):
        # Bland's rule fixes which optimum is reported; a solver change
        # that alters the sequence must be deliberate
        assert solve(build_problem(n, k)).pivots == pivots

    def test_binding_rows_reported(self):
        sol = solve(build_problem(6, 3))
        assert sol.binding
        assert all(1 <= i <= 5 for i in sol.binding)

    def test_solution_dict(self):
        d = solve(build_problem(6, 3)).as_dict()
        assert d["tau"] == "9" and d["p_s"] == "9/41"
        assert d["weights"] == {"1|2|3": "2/3", "2^3": "1/3"}


class TestVerifierRejectsBadCertificates:
    def test_wrong_objective(self):
        prob = build_problem(6, 3)
        sol = solve(prob)
        forged = replace(sol, t=sol.t / 2, tau=2 * sol.tau,
                         p_s=(2 * sol.tau) / (2 * sol.tau + 2**5))
        assert not verify_solution(prob, forged)

    def test_suboptimal_single_column(self):
        prob = build_problem(6, 3)
        sol = solve(prob)
        # put all weight on the first partition (4+1+1): feasible but not optimal
        t = max(prob.columns[0])
        forged = replace(
            sol,
            weights=(Fraction(1), Fraction(0), Fraction(0)),
            t=t,
            tau=1 / t,
            p_s=(1 / t) / (1 / t + 2**5),
        )
        assert not verify_solution(prob, forged)


class TestConsistencyWithClosedForms:
    def test_matches_exact_criterion(self):
        for n in range(3, 13):
            for j in range(1, (n - 1) // 2 + 1):
                k = n - j
                sol = solve(build_problem(n, k))
                assert sol.p_s == nj_threshold(n, j), (n, k)

    def test_full_separability(self):
        for n in range(2, 13):
            sol = solve(build_problem(n, n))
            assert sol.tau == 1
            assert sol.p_s == Fraction(1, 1 + 2 ** (n - 1))

    def test_biseparability(self):
        for n in range(2, 13):
            sol = solve(build_problem(n, 2))
            assert sol.p_s <= bisep_threshold(n)
            # the construction reaches the known boundary at every n here
            assert sol.p_s == bisep_threshold(n)

    def test_pad_agrees_with_lp(self):
        for n, k in [(6, 3), (8, 4), (9, 3), (11, 5), (12, 4)]:
            sol = solve(build_problem(n, k))
            res = pad_to_isotropic(mixed_state(sol))
            assert res.tau == sol.tau
            assert res.p_s == sol.p_s


class TestGoldenTable:
    def test_all_reference_cells(self):
        for (n, k), tau in REFERENCE_TAU.items():
            sol = solve(build_problem(n, k))
            assert sol.tau == tau, (n, k)
            assert sol.p_s == reference_threshold(n, k), (n, k)

    def test_table_covers_reference_cells(self):
        rows = {(s.n, s.k) for s in table1(range(6, 13))}
        assert rows == set(REFERENCE_TAU)

    def test_eleven_five_certified_support(self):
        # this cell's optimum mixes a partition outside the obvious
        # pair/triple family; the certificate pins it
        prob = build_problem(11, 5)
        sol = solve(prob)
        assert sol.tau == Fraction(77, 4)
        assert verify_solution(prob, sol)
        assert parse_partition("1|2^2|3^2") in sol.support


class TestScale:
    @pytest.mark.parametrize(
        "n, k, tau",
        [(23, 6, Fraction(13248, 7)), (24, 6, Fraction(7799, 3)), (26, 6, Fraction(21229, 4))],
    )
    def test_large_cells(self, n, k, tau):
        prob = build_problem(n, k)
        sol = solve(prob)
        assert sol.tau == tau
        assert verify_solution(prob, sol)

    def test_half_split_is_n_plus_three(self):
        for n in range(6, 27, 2):
            prob = build_problem(n, n // 2)
            sol = solve(prob)
            assert sol.tau == n + 3, n
            assert verify_solution(prob, sol), n
