"""Exact-rational linear programming over mixtures of same-k partitions.

Mixing the separable states of all partitions of n qubits into k parties
keeps the form (1/2^k)(2 GHZ coherence + sum_i u_i T_i / C(n,i)); the best
threshold comes from minimizing the largest normalized diagonal ratio
max_i sum_pi q_pi f_pi(i)/C(n,i).  That minimax problem is solved here as
an epigraph LP by an exact simplex with Bland's rule (so the pivot sequence
is deterministic and cycling is impossible).  The problem data are the
integer subset-sum counts f_pi(i), which the solver reads and never
rewrites.  The simplex is revised: it updates only d times the basis
inverse, a small integer matrix over one shared denominator d (Bareiss
pivoting), prices the count columns against it, and converts the
weights and dual to Fraction only at the end.  The value t is not read from the solver:
it is the largest ratio row of the weights, computed exactly from them.
The dual is a certificate that verify_solution re-checks over integers,
independently of the solver.

Ratio rows i and n - i are the same constraint: the complement of a set
of parties holding i qubits holds n - i, so f_pi(i) = f_pi(n - i), and
C(n, i) = C(n, n - i).  The solver keeps rows 1..n/2 only.  The
reported dual splits each kept row's multiplier evenly between rows i
and n - i, so it is mirror-symmetric, and the problem data and the
certificate check keep all n - 1 rows.

The threshold p_s = 1/(1 + t 2^(n-1)) is exact, not only sufficient, and
the certified dual is its entanglement witness; the proof is in
``thresholds``.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .partitions import enumerate_partitions, profile
from .record import Record, need_counts

#: Largest n at which ``certified_solve`` and ``table1`` solve the LP, and
#: so ``lp``, ``table1`` and ``thresholds.threshold``.  The slowest n = 30
#: cell, (30, 7), builds, solves and certifies in about 0.05 s (best of 3,
#: shared 2-core Xeon, Python 3.11); the column count, the partitions of n
#: into k parts, keeps growing past it.
MAX_N = 30

#: Certified optimal tau values for the k-separability mixtures with
#: 3 <= k <= n/2 and 6 <= n <= 12, used as golden values by the table
#: regression check.  Every entry carries an exact dual certificate
#: (see verify_solution).  A certified solution has
#: p_s = tau/(tau + 2^(n-1)), so a matching tau is a matching threshold.
REFERENCE_TAU = {
    (6, 3): Fraction(9),
    (7, 3): Fraction(35, 2),
    (8, 3): Fraction(34),
    (8, 4): Fraction(11),
    (9, 3): Fraction(61),
    (9, 4): Fraction(18),
    (10, 3): Fraction(115),
    (10, 4): Fraction(65, 2),
    (10, 5): Fraction(13),
    (11, 3): Fraction(869, 4),
    (11, 4): Fraction(308, 5),
    (11, 5): Fraction(77, 4),
    (12, 3): Fraction(1169, 3),
    (12, 4): Fraction(97),
    (12, 5): Fraction(30),
    (12, 6): Fraction(15),
}


class LpProblem(Record):
    """Minimax problem data: the partitions that may be mixed, all of n
    into k parts, and one column of subset-sum counts per partition.  Ratio
    row i of column j is f_j(i) / C(n, i).

    The partitions are the one stored value: n and k are theirs, and the
    count columns are computed from them when first read.
    """

    partitions: tuple

    def _check(self):
        if not isinstance(self.partitions, tuple):
            raise ValueError(f"partitions must be a tuple, got {type(self.partitions).__name__}")
        if len({(p.n, p.k) for p in self.partitions}) != 1:
            raise ValueError("need one or more partitions, all of one n into one k parts")

    @functools.cached_property
    def columns(self) -> tuple:
        """columns[j][i-1] = f_j(i), for the interior weights i."""
        return tuple(profile(p)[1:-1] for p in self.partitions)

    @property
    def n(self) -> int:
        return self.partitions[0].n

    @property
    def k(self) -> int:
        return self.partitions[0].k


def build_problem(n: int, k: int) -> LpProblem:
    """All partitions of n into k parts, with their count columns.

    No pre-filtering: the solver decides which partitions carry weight.
    A non-int n or k, a bool included, is a ValueError.
    """
    need_counts(n=n, k=k)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")
    return LpProblem(tuple(enumerate_partitions(n, k)))


class LpSolution(Record):
    """Optimal mixture of ``problem``'s partitions: its weights, the dual
    multipliers (one per ratio row, mirror-symmetric) that certify it, and
    the simplex pivot sequence (row, column) for determinism tests.

    Everything else is read from these.  ``n``, ``k`` and ``partitions``
    are the problem's.  The minimax value t is the largest ratio row of the
    weights and ``binding`` the rows 1..n-1 equal to it, computed once over
    integers; tau = 1/t, the threshold p_s = 1/(1 + t 2^(n-1)) and the
    support follow.  ``verify_solution`` checks that t is optimal.
    """

    problem: LpProblem
    weights: tuple
    dual: tuple
    pivots: tuple

    @property
    def n(self) -> int:
        return self.problem.n

    @property
    def k(self) -> int:
        return self.problem.k

    @property
    def partitions(self) -> tuple:
        return self.problem.partitions

    @functools.cached_property
    def _peak(self) -> tuple:
        """(t, binding), over integers.  With W the weights' common
        denominator and L = lcm_i C(n, i), ratio row i over the one
        denominator W L has the numerator s_i L / C(n, i), where
        s_i = sum_j W w_j f_j(i) sums integer counts."""
        n = self.n
        binom = [math.comb(n, i) for i in range(1, n)]
        big_w, big_l = math.lcm(*(w.denominator for w in self.weights)), math.lcm(*binom)
        support = [
            (w.numerator * (big_w // w.denominator), col)
            for w, col in zip(self.weights, self.problem.columns)
            if w
        ]
        rows = [sum(a * col[i] for a, col in support) * (big_l // c) for i, c in enumerate(binom)]
        top = max(rows)
        return Fraction(top, big_w * big_l), tuple(i for i, v in enumerate(rows, 1) if v == top)

    @property
    def t(self) -> Fraction:
        return self._peak[0]

    @property
    def binding(self) -> tuple:
        return self._peak[1]

    @property
    def support(self) -> tuple:
        """The (partition, weight) pairs of positive weight."""
        return tuple((p, w) for p, w in zip(self.partitions, self.weights) if w > 0)

    @property
    def tau(self) -> Fraction:
        return 1 / self.t

    @property
    def p_s(self) -> Fraction:
        return 1 / (1 + self.t * 2 ** (self.n - 1))


def _bland_pivot_loop(cols, B, d, obj, basis, pivots):
    """Revised primal simplex minimizing variable obj with Bland's rule,
    fraction-free.

    cols[j] is column j of the constraint matrix, and B is d times the
    inverse of the basis matrix, d being that matrix's determinant and
    positive.  The right-hand side is the unit vector of the last row, so
    B's last column is d times the basic values.  Column j of the tableau
    is B cols[j] over d; no column of it is stored.  While obj is basic in
    row r, d times the reduced cost of a nonbasic column j is
    -(B cols[j])[r], and Bland's rule enters the first positive one; once
    obj is nonbasic it is zero and the phase is done.  A basis label of
    len(cols) or more is never priced: ``solve``'s artificial variable.

    Pivoting on p = (B a)[l], a the entering column, keeps row l, turns
    every other row v into (p*v - f*w) // d, where f = (B a)[r] and w is
    row l, and makes p the new denominator.  The division is exact
    (Bareiss): the pivot multiplies the basis determinant by p/d, so p is
    the new determinant, and B stays the adjugate of the basis matrix,
    whose entries are integer cofactors.  Returns the final d.
    """
    while obj in basis:
        cost = B[basis.index(obj)]
        basic = set(basis)
        enter = next((j for j, a in enumerate(cols)
                      if j not in basic and sum(map(operator.mul, cost, a)) > 0), -1)
        if enter < 0:
            break
        entering = [sum(map(operator.mul, row, cols[enter])) for row in B]
        leave = -1
        for r, a in enumerate(entering):
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                # B[r][-1]/a against B[leave][-1]/entering[leave], cross-multiplied
                lhs, rhs = B[r][-1] * entering[leave], B[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            raise ArithmeticError("unbounded linear program")
        pivots.append((leave, enter))
        p, row_l = entering[leave], B[leave]
        for r, f in enumerate(entering):
            if r != leave:
                B[r] = [(p * v - f * w) // d for v, w in zip(B[r], row_l)]
        basis[leave] = enter
        d = p
    return d


def solve(prob: LpProblem) -> LpSolution:
    """Exact optimum of: minimize t subject to sum q_pi r_pi(i) <= t for
    every interior weight i, q >= 0, sum q = 1.

    Two-phase revised simplex with Bland's anti-cycling rule on the
    epigraph form, over one row per mirror pair {i, n - i}; always feasible
    and bounded.  The count columns, cut to the kept rows, are priced at
    every pivot and never rewritten; only B, d times the basis inverse over
    one shared denominator d, is updated, by Bareiss pivoting (see
    ``_bland_pivot_loop``), so every entry stays an integer and the weights
    and dual are exact.  Deterministic: identical input yields the
    identical pivot sequence and solution.
    """
    n, m = prob.n, len(prob.partitions)
    rows = n // 2
    t_col = m
    slack0 = m + 1

    # Ratio row i is held as C(n, i) times itself: the counts f_j(i) and
    # -C(n, i) in t's column.  Its slack column stays the identity (the
    # slack variable absorbs the scale).  The last row is the convexity
    # row, 1 under every partition; the right-hand side is 0 on the ratio
    # rows and 1 on it.
    cols = [(*col[:rows], 1) for col in prob.columns]
    cols.append((*(-math.comb(n, i) for i in range(1, rows + 1)), 0))
    # The start basis is every slack and the artificial variable of the
    # convexity row, labelled art and never priced, so B starts as the
    # identity with d = 1.
    B = [[int(i == r) for r in range(rows + 1)] for i in range(rows + 1)]
    cols.extend(map(tuple, B[:rows]))
    art = len(cols)
    basis = [slack0 + i for i in range(rows)] + [art]
    pivots = []

    d = _bland_pivot_loop(cols, B, 1, art, basis, pivots)
    # No artificial cleanup: a basic artificial variable holds 1, so phase
    # one has failed, and once it leaves it is never priced again.
    if art in basis:
        raise ArithmeticError("phase one failed; the mixture simplex is empty")
    d = _bland_pivot_loop(cols, B, d, t_col, basis, pivots)

    x = dict(zip(basis, (row[-1] for row in B)))
    weights = tuple(Fraction(x.get(j, 0), d) for j in range(m))
    # Dual multipliers from t's row of B, d times t's row of the basis
    # inverse: entry i, negated, is the multiplier of kept row i as held,
    # scaled by C(n, i), and C(n, i) turns it back into the original row's.
    # A kept row stands for rows i and n - i, which share its multiplier.
    cost = B[basis.index(t_col)]
    kept = [Fraction(-cost[i] * math.comb(n, i + 1), d) for i in range(rows)]
    dual = tuple(kept[min(i, n - i) - 1] / (1 if 2 * i == n else 2) for i in range(1, n))
    return LpSolution(prob, weights, dual, tuple(pivots))


def verify_solution(prob: LpProblem, sol: LpSolution) -> bool:
    """Certify optimality independently of the solver, over integers.

    The solution must be of ``prob``, and exact: every weight and dual
    entry an int or a Fraction, checked before t is read.  Primal: the
    weights form a distribution, so they are a feasible mixture whose
    largest ratio row, ``sol.t``, they attain by definition.  Dual: the
    multipliers are a distribution over rows under which every partition
    column averages at least t.  Weak duality then pins t as the exact
    optimum.  Complementary slackness needs no check of its own:
    sum_j w_j col_j = sum_i y_i row_i is at least t and at most t, so
    every weighted column and every weighted row equals t.

    The column sums run over the integer counts: the values y_i / C(n, i)
    over their common denominator D give the columns times D.

    t is read from all n - 1 rows and the dual is checked on the full
    columns, so the certificate does not lean on the mirror symmetry the
    solver exploits.  The dual check also makes the witness built from y
    sound (see ``thresholds``).
    """
    w, y = sol.weights, sol.dual
    if sol.problem != prob or not all(isinstance(v, (int, Fraction)) for v in (*w, *y)):
        return False
    n, m = prob.n, len(prob.partitions)
    if len(w) != m or any(v < 0 for v in w):
        return False
    if sum(w) != 1:
        return False
    if len(y) != n - 1 or any(v < 0 for v in y):
        return False
    if sum(y) != 1:
        return False
    t = sol.t
    z = [Fraction(v, math.comb(n, i)) for i, v in enumerate(y, 1)]
    big_d = math.lcm(*(v.denominator for v in z))
    e = [v.numerator * (big_d // v.denominator) for v in z]
    floor = t.numerator * big_d
    return all(
        sum(ei * fi for ei, fi in zip(e, col)) * t.denominator >= floor
        for col in prob.columns
    )


def mixed_state(sol: LpSolution):
    """The optimal mixture as a symmetric state.  Zero weights would add
    exact zeros, so only the support's states are built."""
    from .symstate import mix, partition_average_state

    parts, weights = zip(*sol.support)
    return mix([partition_average_state(p) for p in parts], weights)


def _check_cap(n: int) -> None:
    need_counts(n=n)
    if n > MAX_N:
        raise ValueError(f"the linear program is limited to n <= {MAX_N}, got n={n}")


def certified_solve(n: int, k: int) -> LpSolution:
    """Certified (n, k) solution behind every printed LP bound (``lp``,
    ``table1`` and ``thresholds.threshold``), else ArithmeticError; a
    non-int n or k, or a cell above ``MAX_N`` qubits, is a ValueError
    before anything is built.
    Every call builds, solves and certifies the cell; nothing is kept."""
    _check_cap(n)
    prob = build_problem(n, k)
    sol = solve(prob)
    if not verify_solution(prob, sol):
        raise ArithmeticError(f"optimality certificate rejected for n={n}, k={k}")
    return sol


def table1(n_values) -> list:
    """Solve and certify every (n, k) cell with 3 <= k <= n/2 over the given
    n values: the cells no closed form covers.  For n = 6..12 they reproduce
    the sixteen reference rows; a rejected certificate is an ArithmeticError.
    An n that is not an int is a ValueError before any cell is solved, and
    so is a largest n above ``MAX_N``, which the message names.
    """
    n_values = list(n_values)
    for n in n_values:
        need_counts(n=n)
    _check_cap(max(n_values, default=MAX_N))
    return [certified_solve(n, k) for n in n_values for k in range(3, n // 2 + 1)]
