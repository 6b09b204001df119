"""Exact-rational linear programming over mixtures of same-k partitions.

Mixing the separable states of all partitions of n qubits into k parties
keeps the form (1/2^k)(2 GHZ coherence + sum_i u_i T_i / C(n,i)); the best
threshold comes from minimizing the largest normalized diagonal ratio
max_i sum_pi q_pi f_pi(i)/C(n,i).  That minimax problem is solved here as
an epigraph LP by an exact simplex with Bland's rule (so the pivot sequence
is deterministic and cycling is impossible).  The problem data are the
integer subset-sum counts f_pi(i); the tableau is held in fraction-free
integers over one shared denominator (Bareiss pivoting), and the weights
and dual are converted to Fraction only at the end.  The value t is not
read from the tableau: it is the largest ratio row of the weights,
computed exactly from them.  The dual is a certificate that
verify_solution re-checks over integers, independently of the solver.

Ratio rows i and n - i are the same constraint: the complement of a set
of parties holding i qubits holds n - i, so f_pi(i) = f_pi(n - i), and
C(n, i) = C(n, n - i).  The tableau keeps rows 1..n/2 only.  The
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
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import enumerate_partitions, profile

#: Largest n at which ``_certified_solve`` and ``table1`` solve the LP, and
#: so ``lp``, ``table1`` and ``thresholds.threshold``.  Every n = 30 cell
#: solves and certifies in under a second; the column count, the partitions
#: of n into k parts, keeps growing past it.
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


@dataclass(frozen=True)
class LpProblem:
    """Minimax problem data: the partitions that may be mixed, all of n
    into k parts, and one column of subset-sum counts per partition.  Ratio
    row i of column j is f_j(i) / C(n, i).

    The partitions are the one stored value: n and k are theirs, and the
    count columns are computed from them at construction.
    """

    partitions: tuple
    columns: tuple = field(init=False, compare=False, repr=False)  # columns[j][i-1] = f_j(i)

    def __post_init__(self):
        if len({(p.n, p.k) for p in self.partitions}) != 1:
            raise ValueError("need one or more partitions, all of one n into one k parts")
        object.__setattr__(self, "columns", tuple(profile(p)[1:-1] for p in self.partitions))

    @property
    def n(self) -> int:
        return self.partitions[0].n

    @property
    def k(self) -> int:
        return self.partitions[0].k


def build_problem(n: int, k: int) -> LpProblem:
    """All partitions of n into k parts, with their count columns.

    No pre-filtering: the solver decides which partitions carry weight.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")
    return LpProblem(tuple(enumerate_partitions(n, k)))


@dataclass(frozen=True)
class LpSolution:
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


def _bland_pivot_loop(T, b, d, obj, basis, allowed, pivots):
    """Primal simplex minimizing variable obj with Bland's rule, fraction-free.

    The tableau is T/d with right-hand side b/d: T and b hold integers and
    the shared denominator d is positive.  While obj is basic in row r, d
    times the reduced cost of a nonbasic column j is -T[r][j]; once obj is
    nonbasic it is zero and the phase is done.  Pivoting on p = T[l][e]
    keeps row l, turns every other row v into (p*v - f*w) // d, where f is
    the row's entry in column e and w is row l (Bareiss: the division is
    exact), and makes p the new denominator.  Returns the final d.
    """
    m = len(T)
    while obj in basis:
        cost = T[basis.index(obj)]
        basic = set(basis)
        enter = next((j for j in allowed if j not in basic and cost[j] > 0), -1)
        if enter < 0:
            break
        leave = -1
        for r in range(m):
            a = T[r][enter]
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                # b[r]/a against b[leave]/T[leave][enter], cross-multiplied
                lhs, rhs = b[r] * T[leave][enter], b[leave] * a
                if lhs < rhs or (lhs == rhs and basis[r] < basis[leave]):
                    leave = r
        if leave < 0:
            raise ArithmeticError("unbounded linear program")
        pivots.append((leave, enter))
        p = T[leave][enter]
        row_l, b_l = T[leave], b[leave]
        for r in range(m):
            if r == leave:
                continue
            f = T[r][enter]
            if f:
                T[r] = [(p * v - f * w) // d for v, w in zip(T[r], row_l)]
                b[r] = (p * b[r] - f * b_l) // d
            elif p != d:
                T[r] = [p * v // d for v in T[r]]
                b[r] = p * b[r] // d
        basis[leave] = enter
        d = p
    return d


def solve(prob: LpProblem) -> LpSolution:
    """Exact optimum of: minimize t subject to sum q_pi r_pi(i) <= t for
    every interior weight i, q >= 0, sum q = 1.

    Two-phase simplex with Bland's anti-cycling rule on the epigraph form,
    over one row per mirror pair {i, n - i}; always feasible and bounded.
    Deterministic: identical input yields the identical pivot sequence and
    solution.
    """
    n, m = prob.n, len(prob.partitions)
    rows = n // 2
    t_col = m
    slack0 = m + 1
    art_col = slack0 + rows

    # Ratio row i is held as C(n, i) times itself: the counts f_j(i) and
    # -C(n, i) in t's column.  Its slack column stays the identity (the
    # slack variable absorbs the scale), so the start has d = 1.
    T = []
    for i in range(rows):
        row = [col[i] for col in prob.columns]
        row.append(-math.comb(n, i + 1))
        row.extend(1 if j == i else 0 for j in range(rows))
        row.append(0)
        T.append(row)
    T.append([1] * m + [0] * (rows + 1) + [1])
    b = [0] * rows + [1]
    basis = [slack0 + i for i in range(rows)] + [art_col]
    pivots = []

    d = _bland_pivot_loop(T, b, 1, art_col, basis, range(art_col + 1), pivots)
    if art_col in basis and b[basis.index(art_col)] != 0:
        raise ArithmeticError("phase one failed; the mixture simplex is empty")
    # No artificial cleanup: only the convexity row starts with b != 0 and a
    # pivot on a b = 0 row keeps b, so a basic artificial would hold 1 above.
    d = _bland_pivot_loop(T, b, d, t_col, basis, range(art_col), pivots)

    x = dict(zip(basis, b))
    weights = tuple(Fraction(x.get(j, 0), d) for j in range(m))
    # Dual multipliers from t's row of the final tableau: the initial
    # identity columns (one slack per kept row) carry the basis inverse,
    # and C(n, i) turns the scaled slack back into the original one.  A
    # kept row stands for rows i and n - i, which share its multiplier.
    cost = T[basis.index(t_col)]
    kept = [Fraction(-cost[slack0 + i] * math.comb(n, i + 1), d) for i in range(rows)]
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
    if n > MAX_N:
        raise ValueError(f"the linear program is limited to n <= {MAX_N}, got n={n}")


@functools.cache
def _certified_solve(n: int, k: int) -> LpSolution:
    """Certified (n, k) solution behind every printed LP bound (``lp``,
    ``table1`` and ``thresholds.threshold``), else ArithmeticError; a cell
    above ``MAX_N`` qubits is a ValueError before anything is built.
    Solved once per process: a certified solution is kept for later lookups."""
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
    An n above ``MAX_N`` is a ValueError before any cell is solved.
    """
    n_values = list(n_values)
    for n in n_values:
        _check_cap(n)
    return [_certified_solve(n, k) for n in n_values for k in range(3, n // 2 + 1)]
