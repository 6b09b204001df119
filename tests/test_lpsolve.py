import hashlib
import math
import random
from fractions import Fraction

import pytest

from ghzsep import lpsolve
from ghzsep.lpsolve import (
    MAX_N,
    REFERENCE_TAU,
    LpProblem,
    LpSolution,
    build_problem,
    mixed_state,
    solve,
    table1,
    verify_solution,
)
from ghzsep.partitions import enumerate_partitions, parse_partition
from ghzsep.symstate import mix, noisy_ghz, pad_to_isotropic, partition_average_state
from ghzsep.thresholds import threshold


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
        # 1^5: f(i) = C(5, i), so every ratio row is 1
        prob = build_problem(5, 5)
        assert len(prob.partitions) == 1
        assert prob.columns[0] == (5, 10, 10, 5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            build_problem(5, 1)
        with pytest.raises(ValueError):
            build_problem(5, 6)


class TestProblemIsItsPartitions:
    def test_stored_fields_are_the_partitions(self):
        prob = build_problem(8, 3)
        # the columns are read from the partitions, not stored
        assert LpProblem.fields == ("partitions",)
        assert LpProblem(prob.partitions) == prob
        assert (prob.n, prob.k) == (8, 3)
        # what is read from the partitions cannot be set beside them
        with pytest.raises(TypeError, match="LpProblem takes the fields partitions, got 2 values"):
            LpProblem(prob.partitions, prob.columns[::-1])

    @pytest.mark.parametrize(
        "partitions",
        [(), (parse_partition("1^2|5"), parse_partition("1^2|6")),
         (parse_partition("1^2|6"), parse_partition("1^3|5"))],
        ids=["empty", "mixed-n", "mixed-k"],
    )
    def test_partitions_must_share_n_and_k(self, partitions):
        with pytest.raises(ValueError, match="one n into one k parts"):
            LpProblem(partitions)

    def test_partitions_are_a_tuple(self):
        partitions = list(build_problem(6, 3).partitions)
        with pytest.raises(ValueError, match="partitions must be a tuple, got list"):
            LpProblem(partitions)

    def test_any_column_set(self):
        # the support of the (8, 3) optimum alone: the solver and the
        # certificate take any same-(n, k) partitions, not only all of them
        support = [p for p, _ in solve(build_problem(8, 3)).support]
        prob = LpProblem(tuple(support))
        sol = solve(prob)
        assert sol.tau == 34
        assert verify_solution(prob, sol)

    def test_reordered_partitions_carry_their_columns(self):
        prob = build_problem(8, 3)
        sol = solve(prob)
        rev = LpProblem(prob.partitions[::-1])
        assert rev.columns == prob.columns[::-1]
        rsol = solve(rev)
        assert verify_solution(rev, rsol)
        assert rsol.tau == sol.tau == 34
        assert set(rsol.support) == set(sol.support)
        assert pad_to_isotropic(mixed_state(rsol)).p_s == rsol.p_s == sol.p_s


class TestSolve:
    def test_six_three(self):
        sol = solve(build_problem(6, 3))
        assert sol.tau == 9 and sol.p_s == Fraction(9, 41)
        weights = {str(p): w for p, w in zip(sol.partitions, sol.weights) if w}
        assert weights == {"2^3": Fraction(1, 3), "1|2|3": Fraction(2, 3)}

    def test_eleven_three(self):
        sol = solve(build_problem(11, 3))
        assert sol.tau == Fraction(869, 4)
        assert sol.p_s == Fraction(869, 4965)

    def test_nine_four(self):
        sol = solve(build_problem(9, 4))
        assert sol.tau == 18 and sol.p_s == Fraction(9, 137)
        weights = {str(p): w for p, w in zip(sol.partitions, sol.weights) if w}
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
            (6, 3, ((0, 0), (0, 1), (1, 2), (3, 3))),
            (10, 4, ((0, 0), (0, 1), (0, 3), (1, 6), (0, 5), (0, 7), (1, 8), (5, 9))),
            (11, 5, ((0, 0), (0, 1), (0, 3), (0, 6), (1, 9), (0, 7), (0, 8), (5, 10))),
        ],
    )
    def test_pivot_sequence_pinned(self, n, k, pivots):
        # Bland's rule fixes which optimum is reported; a solver change
        # that alters the sequence must be deliberate
        assert solve(build_problem(n, k)).pivots == pivots

    #: sha256 over repr((n, k, pivots, weights, dual)) of every cell with
    #: 2 <= k <= n <= 20, n then k ascending, captured while the simplex
    #: still kept its right-hand side apart from the tableau.
    CELLS_DIGEST = "2526079d1737be1e6e32e2e5743257b3171b35609d4b24d34c25953481de667f"

    def test_every_cell_to_twenty_pinned(self):
        cells = [(n, k) for n in range(2, 21) for k in range(2, n + 1)]
        assert len(cells) == 190
        digest = hashlib.sha256()
        for n, k in cells:
            sol = solve(build_problem(n, k))
            digest.update(repr((n, k, sol.pivots, sol.weights, sol.dual)).encode())
        assert digest.hexdigest() == self.CELLS_DIGEST

    def test_binding_rows_reported(self):
        sol = solve(build_problem(6, 3))
        assert sol.binding
        assert all(1 <= i <= 5 for i in sol.binding)

    def test_support_is_read_from_the_weights(self):
        sol = solve(build_problem(6, 3))
        assert "support" not in sol.fields
        assert [(str(p), w) for p, w in sol.support] == [
            ("1|2|3", Fraction(2, 3)), ("2^3", Fraction(1, 3))]
        # another weight vector carries its own support
        moved = LpSolution(sol.problem, (Fraction(0),) * (len(sol.weights) - 1) + (Fraction(1),),
                           sol.dual, sol.pivots)
        assert moved.support == ((sol.partitions[-1], Fraction(1)),)

    def test_stored_fields_are_problem_weights_dual_pivots(self):
        prob = build_problem(8, 3)
        sol = solve(prob)
        assert LpSolution.fields == ("problem", "weights", "dual", "pivots")
        assert sol.problem is prob
        assert (sol.n, sol.k, sol.partitions) == (8, 3, prob.partitions)
        # what is read from the problem or the weights cannot be set beside them
        with pytest.raises(TypeError, match="LpSolution takes the fields .*, got 5 values"):
            LpSolution(sol.problem, sol.weights, sol.dual, sol.pivots, sol.t / 2)


def _ratio_rows(prob, weights):
    """Ratio rows 1..n-1 of a weight vector, as Fractions."""
    return [
        sum(Fraction(w) * col[i] for w, col in zip(weights, prob.columns)) / math.comb(prob.n, i + 1)
        for i in range(prob.n - 1)
    ]


class TestValueReadFromWeights:
    def test_every_small_cell(self):
        # the reference for t and binding: the largest Fraction ratio row of
        # the weights and the rows at it, for the solver's weights and for
        # the uniform mixture put in their place
        for n in range(4, 15):
            for k in range(2, n + 1):
                prob = build_problem(n, k)
                sol = solve(prob)
                m = len(prob.partitions)
                for s in (sol, LpSolution(prob, (Fraction(1, m),) * m, sol.dual, sol.pivots)):
                    rows = _ratio_rows(prob, s.weights)
                    assert s.t == max(rows), (n, k)
                    assert s.binding == tuple(i for i, r in enumerate(rows, 1) if r == s.t), (n, k)


class TestVerifierRejectsBadCertificates:
    def test_suboptimal_single_column(self):
        prob = build_problem(6, 3)
        sol = solve(prob)
        # put all weight on the first partition (4+1+1): feasible but not optimal
        forged = LpSolution(prob, (Fraction(1), Fraction(0), Fraction(0)), sol.dual, sol.pivots)
        assert forged.t == max(_ratio_rows(prob, forged.weights)) > sol.t
        assert not verify_solution(prob, forged)


# Forgeries of the (7, 3) optimum: weights (0, 0, 2/5, 3/5), so t = 2/35 at
# binding rows (1, 2, 5, 6), and dual (1/5, 3/10, 0, 0, 3/10, 1/5).  t and
# binding are read from the weights, so a forgery that moves the weights
# moves them too: negative-weight keeps t = 2/35 (at rows 2 and 5),
# weights-sum-below-one halves it and weight-on-zero-column doubles it.  All
# but short-weights and short-dual fail exactly one check of verify_solution,
# so each of its checks has a forgery that only it rejects.  Rows 3 and 4 are
# mirrors (f(3) = f(4), C(7, 3) = C(7, 4)), so negative-dual leaves every
# column sum as it was.  The three inexact forgeries carry the optimum's
# values as floats or strings, which pass every other check or break it.
FORGERIES = {
    "problem-swapped": lambda s: LpSolution(build_problem(7, 4), s.weights, s.dual, s.pivots),
    "float-weights": lambda s: LpSolution(
        s.problem, tuple(float(w) for w in s.weights), s.dual, s.pivots),
    "string-weights": lambda s: LpSolution(
        s.problem, tuple(str(w) for w in s.weights), s.dual, s.pivots),
    "string-dual": lambda s: LpSolution(s.problem, s.weights, tuple(str(y) for y in s.dual), s.pivots),
    "negative-weight": lambda s: LpSolution(
        s.problem, (0, Fraction(-1, 10), Fraction(9, 20), Fraction(13, 20)), s.dual, s.pivots),
    "weights-sum-below-one": lambda s: LpSolution(
        s.problem, tuple(w / 2 for w in s.weights), s.dual, s.pivots),
    "short-weights": lambda s: LpSolution(s.problem, s.weights[:-1], s.dual, s.pivots),
    "negative-dual": lambda s: LpSolution(
        s.problem, s.weights, s.dual[:2] + (Fraction(-1, 10), Fraction(1, 10)) + s.dual[4:],
        s.pivots),
    "dual-sum-above-one": lambda s: LpSolution(
        s.problem, s.weights, tuple(2 * y for y in s.dual), s.pivots),
    "short-dual": lambda s: LpSolution(s.problem, s.weights, s.dual[:-1], s.pivots),
    "dual-on-slack-row": lambda s: LpSolution(
        s.problem, s.weights, (0,) + s.dual[1:2] + s.dual[:1] + s.dual[3:], s.pivots),
    "weight-on-zero-column": lambda s: LpSolution(
        s.problem, s.weights[2:3] + (0, 0) + s.weights[3:], s.dual, s.pivots),
}


class TestVerifierRejectsForgeries:
    def test_genuine_certificate_passes(self):
        prob = build_problem(7, 3)
        sol = solve(prob)
        assert sol.weights == (0, 0, Fraction(2, 5), Fraction(3, 5))
        assert sol.dual == (Fraction(1, 5), Fraction(3, 10), 0, 0, Fraction(3, 10), Fraction(1, 5))
        assert sol.binding == (1, 2, 5, 6)
        assert verify_solution(prob, sol)

    @pytest.mark.parametrize("name", sorted(FORGERIES))
    def test_forgery_rejected(self, name):
        prob = build_problem(7, 3)
        assert not verify_solution(prob, FORGERIES[name](solve(prob)))


class TestConsistencyWithClosedForms:
    def test_every_small_cell_certifies_and_meets_closed_forms(self):
        cells = [(n, k) for n in range(2, 17) for k in range(2, n + 1)]
        closed = 0
        for n, k in cells:
            prob = build_problem(n, k)
            sol = solve(prob)
            assert verify_solution(prob, sol), (n, k)
            bound, rule = threshold(n, k)
            assert sol.p_s == bound, (n, k)
            closed += "linear program" not in rule
        assert (len(cells), closed) == (120, 84)

    def test_matches_exact_criterion(self):
        for n in range(3, 13):
            for j in range(1, (n - 1) // 2 + 1):
                k = n - j
                sol = solve(build_problem(n, k))
                assert sol.p_s == threshold(n, k)[0], (n, k)

    def test_full_separability(self):
        for n in range(2, 13):
            sol = solve(build_problem(n, n))
            assert sol.tau == 1
            assert sol.p_s == Fraction(1, 1 + 2 ** (n - 1))

    def test_biseparability(self):
        for n in range(2, 13):
            sol = solve(build_problem(n, 2))
            bisep = threshold(n, 2)[0]
            assert sol.p_s <= bisep
            # the construction reaches the known boundary at every n here
            assert sol.p_s == bisep

    def test_pad_agrees_with_lp(self):
        for n, k in [(6, 3), (8, 4), (9, 3), (11, 5), (12, 4)]:
            sol = solve(build_problem(n, k))
            res = pad_to_isotropic(mixed_state(sol))
            assert res.tau == sol.tau
            assert res.p_s == sol.p_s

    @pytest.mark.parametrize(
        "cells",
        [[(n, k) for n in range(2, 13) for k in range(2, n + 1)], [(23, 6)]],
        ids=["n<=12", "23-6"],
    )
    def test_mixed_state_equals_the_all_partition_mix(self, cells):
        for n, k in cells:
            sol = solve(build_problem(n, k))
            every = mix([partition_average_state(p) for p in sol.partitions], sol.weights)
            assert mixed_state(sol) == every, (n, k)


def _kron(vectors):
    """The Kronecker product of the vectors, the first one most significant."""
    out = [Fraction(1)]
    for v in vectors:
        out = [a * b for a in out for b in v]
    return out


def _witness_value(y, t, psi):
    """<psi|W|psi> for a real vector psi on n qubits, where
    W = sum_i y_i / C(n, i) Pi_i - (t/2)(|0^n><1^n| + h.c.)."""
    n = len(psi).bit_length() - 1
    sector = [0] * (n + 1)
    for x, a in enumerate(psi):
        sector[x.bit_count()] += a * a
    return (sum(yi * sector[i] / math.comb(n, i) for i, yi in enumerate(y, 1))
            - t * psi[0] * psi[-1])


class TestDualWitness:
    """The certified dual y is mirror-symmetric and gives the witness W that
    makes each linear-program bound necessary: tr(W rho) >= 0 on k-separable
    states, tr(W rho_p) < 0 for p above p_s (see the thresholds docstring)."""

    def test_every_small_cell(self):
        for n in range(2, 17):
            for k in range(2, n + 1):
                prob = build_problem(n, k)
                sol = solve(prob)
                y, t = sol.dual, sol.t
                support = [p for p, _ in sol.support]
                assert support, (n, k)
                assert y == y[::-1], (n, k)
                assert verify_solution(prob, sol), (n, k)
                # tr(W sigma) on a symmetric state: sector i holds d[i] C(n, i)
                traces = [sum(yi * d for yi, d in zip(y, rho.d[1:-1])) - t * rho.alpha
                          for rho in (noisy_ghz(n, sol.p_s),
                                      noisy_ghz(n, sol.p_s + Fraction(1, 10**9)))]
                assert traces[0] == 0 and traces[1] < 0, (n, k)
                for part, col in zip(prob.partitions, prob.columns):
                    value = sum(yi * f / math.comb(n, i)
                                for i, (yi, f) in enumerate(zip(y, col), 1))
                    assert value >= t, (n, k, part)
                    assert part not in support or value == t, (n, k, part)

    def test_nonnegative_on_product_states(self):
        # every partition's block-GHZ product, prod_a (|0..0> + |1..1>), and
        # seeded random rational product states; W is invariant under qubit
        # permutations, so contiguous blocks stand for every placement
        rng = random.Random(2012)
        checked = 0
        for n in range(2, 7):
            for k in range(2, n + 1):
                sol = solve(build_problem(n, k))
                y, t = sol.dual, sol.t
                values = []
                for part in enumerate_partitions(n, k):
                    ghz_blocks = [[1] + [0] * (2**s - 2) + [1] for s in part.parts]
                    values.append(_witness_value(y, t, _kron(ghz_blocks)))
                    for _ in range(20):
                        blocks = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                   for _ in range(2**s)] for s in part.parts]
                        values.append(_witness_value(y, t, _kron(blocks)))
                assert min(values) == 0, (n, k)
                checked += len(values)
        assert checked == 483  # 23 partitions, each with 1 + 20 states


class TestGoldenTable:
    def test_all_reference_cells(self):
        for (n, k), tau in REFERENCE_TAU.items():
            sol = solve(build_problem(n, k))
            assert sol.tau == tau, (n, k)
            assert sol.p_s == tau / (tau + 2 ** (n - 1)), (n, k)

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
        assert parse_partition("1|2^2|3^2") in [p for p, _ in sol.support]


def _no_call(*args):
    raise AssertionError(f"called with {args}")


class TestSizeCap:
    def test_certified_solve_builds_nothing_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(lpsolve, "build_problem", _no_call)
        with pytest.raises(ValueError, match=f"limited to n <= {MAX_N}, got n={MAX_N + 1}"):
            lpsolve.certified_solve(MAX_N + 1, 5)

    def test_table1_solves_nothing_above_the_cap(self, monkeypatch):
        monkeypatch.setattr(lpsolve, "solve", _no_call)
        with pytest.raises(ValueError, match=f"limited to n <= {MAX_N}, got n={MAX_N + 1}"):
            table1(range(6, MAX_N + 2))

    def test_table1_names_its_largest_n(self, monkeypatch):
        # not the first n above the cap: the largest, as asked for
        monkeypatch.setattr(lpsolve, "solve", _no_call)
        with pytest.raises(ValueError, match=f"limited to n <= {MAX_N}, got n=40"):
            table1(range(6, 41))


class TestCountsAreInts:
    """A count that is not an int, a bool included, is a ValueError before
    anything is solved."""

    @pytest.mark.parametrize("call, name", [
        (lambda: lpsolve.certified_solve(6.5, 3), "n"),
        (lambda: lpsolve.certified_solve(6, 3.0), "k"),
        (lambda: lpsolve.certified_solve(True, 2), "n"),
        (lambda: table1([6.5]), "n"),
        (lambda: table1([6, "7"]), "n"),
        (lambda: table1([MAX_N + 10, "7"]), "n"),
        (lambda: build_problem(6.5, 3), "n"),
        (lambda: build_problem(6, 3.0), "k"),
    ], ids=["certified-n", "certified-k", "certified-bool", "table1-float", "table1-str",
            "table1-str-above-the-cap", "build-n", "build-k"])
    def test_rejected(self, call, name, monkeypatch):
        # the error names the argument that breaks the rule; in table1 the
        # count check of every n comes before the cap check
        monkeypatch.setattr(lpsolve, "solve", _no_call)
        with pytest.raises(ValueError, match=f"need an integer {name}, got "):
            call()


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
