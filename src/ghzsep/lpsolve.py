"""Exact-rational linear programming over mixtures of same-k partitions.

Mixing the separable states of all partitions of n qubits into k parties
keeps the form (1/2^k)(2 GHZ coherence + sum_i u_i T_i / C(n,i)); the best
threshold comes from minimizing the largest normalized diagonal ratio
max_i sum_pi q_pi f_pi(i)/C(n,i).  That minimax problem is solved here as
an epigraph LP by an exact simplex with Bland's rule (so the pivot sequence
is deterministic and cycling is impossible).  The tableau is held in
fraction-free integers over one shared denominator (Bareiss pivoting);
weights, value and dual are converted to Fraction only at the end.  The
dual is a certificate that verify_solution re-checks in Fraction
arithmetic, independently of the solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .partitions import enumerate_partitions, format_partition, profile
from .symstate import SymState, mix, partition_average_state

#: Largest n at which the command line and ``thresholds.classify`` solve
#: the LP.  Every n = 30 cell solves and certifies in under a second; the
#: column count, the partitions of n into k parts, keeps growing past it.
MAX_N = 30

#: Certified optimal tau values for the k-separability mixtures with
#: 3 <= k <= n/2 and 6 <= n <= 12, used as golden values by the table
#: regression check.  Every entry carries an exact dual certificate
#: (see verify_solution).  The threshold follows as
#: p_s = tau/(tau + 2^(n-1)).
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


def reference_threshold(n: int, k: int) -> Fraction:
    """Golden threshold tau/(tau + 2^(n-1)) for a reference (n, k) cell."""
    tau = REFERENCE_TAU[(n, k)]
    return tau / (tau + 2 ** (n - 1))


@dataclass(frozen=True)
class LpProblem:
    """Minimax problem data: one column of normalized profile ratios per
    partition of n into k parts."""

    n: int
    k: int
    partitions: tuple
    columns: tuple  # columns[j][i-1] = f_j(i) / C(n, i) for i = 1..n-1


def build_problem(n: int, k: int) -> LpProblem:
    """Enumerate all partitions of n into k parts and their ratio columns.

    No pre-filtering: the solver decides which partitions carry weight.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")
    parts = enumerate_partitions(n, k)
    columns = []
    for p in parts:
        f = profile(p).counts
        columns.append(
            tuple(Fraction(f[i], math.comb(n, i)) for i in range(1, n))
        )
    return LpProblem(n, k, tuple(parts), tuple(columns))


@dataclass(frozen=True)
class LpSolution:
    """Optimal mixture: weights, minimax value t, tau = 1/t, threshold p_s.

    ``dual`` holds one multiplier per ratio row; together with the binding
    rows it is an optimality certificate checkable by ``verify_solution``.
    ``pivots`` records the simplex pivot sequence (row, column) for
    determinism tests.
    """

    n: int
    k: int
    partitions: tuple
    weights: tuple
    t: Fraction
    tau: Fraction
    p_s: Fraction
    support: tuple
    binding: tuple
    dual: tuple
    pivots: tuple

    @property
    def weights_by_partition(self) -> dict:
        return dict(zip(self.partitions, self.weights))

    def as_dict(self) -> dict:
        from .exactmath import rat_str

        return {
            "n": self.n,
            "k": self.k,
            "tau": rat_str(self.tau),
            "p_s": rat_str(self.p_s),
            "weights": {
                format_partition(p): rat_str(w)
                for p, w in zip(self.partitions, self.weights)
                if w > 0
            },
        }


def _bland_pivot_loop(T, b, d, c, basis, allowed, pivots):
    """Primal simplex minimizing c.x with Bland's rule, fraction-free.

    The tableau is T/d with right-hand side b/d: T and b hold integers and
    the shared denominator d is positive.  Pivoting on p = T[l][e] keeps
    row l, turns every other row v into (p*v - f*w) // d, where f is the
    row's entry in column e and w is row l (Bareiss: the division is
    exact), and makes p the new denominator.  Returns the final d.
    """
    m = len(T)
    while True:
        basic = set(basis)
        costed = [(c[basis[r]], T[r]) for r in range(m) if c[basis[r]]]
        enter = -1
        for j in allowed:
            if j in basic:
                continue
            # d times the reduced cost, which has its sign since d > 0
            if d * c[j] - sum(cb * row[j] for cb, row in costed) < 0:
                enter = j
                break
        if enter < 0:
            return d
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


def solve(prob: LpProblem) -> LpSolution:
    """Exact optimum of: minimize t subject to sum q_pi r_pi(i) <= t for
    every interior weight i, q >= 0, sum q = 1.

    Two-phase simplex with Bland's anti-cycling rule on the epigraph form;
    always feasible and bounded.  Deterministic: identical input yields
    the identical pivot sequence and solution.
    """
    m = len(prob.partitions)
    rows = prob.n - 1
    t_col = m
    slack0 = m + 1
    art_col = slack0 + rows
    ncols = art_col + 1
    zero = Fraction(0)

    # Ratio row i is scaled to integers by the LCM of its denominators
    # (C(n, i) for partition data).  Its slack column stays the identity
    # (the slack variable absorbs the scale), so the start has d = 1.
    scale = [
        math.lcm(*(col[i].denominator for col in prob.columns))
        for i in range(rows)
    ]
    T = []
    for i, s in enumerate(scale):
        row = [col[i].numerator * (s // col[i].denominator) for col in prob.columns]
        row.append(-s)
        row.extend(1 if j == i else 0 for j in range(rows))
        row.append(0)
        T.append(row)
    T.append([1] * m + [0] * (rows + 1) + [1])
    b = [0] * rows + [1]
    basis = [slack0 + i for i in range(rows)] + [art_col]
    pivots = []

    c1 = [0] * ncols
    c1[art_col] = 1
    d = _bland_pivot_loop(T, b, 1, c1, basis, range(ncols), pivots)
    if sum(c1[basis[r]] * b[r] for r in range(rows + 1)) != 0:
        raise ArithmeticError("phase one failed; the mixture simplex is empty")
    # No artificial cleanup: only the convexity row starts with b != 0 and a
    # pivot on a b = 0 row keeps b, so a basic artificial would hold 1 above.

    c2 = [0] * ncols
    c2[t_col] = 1
    d = _bland_pivot_loop(T, b, d, c2, basis, range(art_col), pivots)

    x = [zero] * ncols
    for r in range(rows + 1):
        x[basis[r]] = Fraction(b[r], d)
    weights = tuple(x[j] for j in range(m))
    t = x[t_col]
    tau = 1 / t
    p_s = tau / (tau + 2 ** (prob.n - 1))
    support = tuple(p for p, w in zip(prob.partitions, weights) if w > 0)
    # ratio row i equals t exactly when its slack is zero
    binding = tuple(i + 1 for i in range(rows) if x[slack0 + i] == 0)
    # Dual multipliers from the final tableau: the initial identity
    # columns (one slack per ratio row) carry the basis inverse, and the
    # row scale turns the scaled slack back into the original one.
    dual = []
    for i in range(rows):
        col = slack0 + i
        y = sum(c2[basis[r]] * T[r][col] for r in range(rows + 1))
        dual.append(Fraction(-y * scale[i], d))
    return LpSolution(
        n=prob.n,
        k=prob.k,
        partitions=prob.partitions,
        weights=weights,
        t=t,
        tau=tau,
        p_s=p_s,
        support=support,
        binding=binding,
        dual=tuple(dual),
        pivots=tuple(pivots),
    )


def verify_solution(prob: LpProblem, sol: LpSolution) -> bool:
    """Certify optimality independently of the solver, in exact arithmetic.

    Primal: weights form a distribution and every ratio row is at most t,
    with t attained.  Dual: the multipliers are a distribution over rows
    under which every partition column averages at least t.  Weak duality
    then pins t as the exact optimum; complementary slackness ties the two.
    """
    m = len(prob.partitions)
    rows = prob.n - 1
    zero = Fraction(0)
    if len(sol.weights) != m or any(w < 0 for w in sol.weights):
        return False
    if sum(sol.weights) != 1:
        return False
    row_vals = [
        sum((sol.weights[j] * prob.columns[j][i] for j in range(m)), start=zero)
        for i in range(rows)
    ]
    if any(v > sol.t for v in row_vals) or max(row_vals) != sol.t:
        return False
    y = sol.dual
    if len(y) != rows or any(v < 0 for v in y):
        return False
    if sum(y) != 1:
        return False
    col_vals = [
        sum((y[i] * prob.columns[j][i] for i in range(rows)), start=zero)
        for j in range(m)
    ]
    if any(v < sol.t for v in col_vals):
        return False
    # complementary slackness
    if any(y[i] > 0 and row_vals[i] != sol.t for i in range(rows)):
        return False
    if any(sol.weights[j] > 0 and col_vals[j] != sol.t for j in range(m)):
        return False
    if sol.tau != 1 / sol.t or sol.p_s != sol.tau / (sol.tau + 2 ** (prob.n - 1)):
        return False
    return True


def mixed_state(sol: LpSolution) -> SymState:
    """The optimal mixture as a symmetric state."""
    states = [partition_average_state(p) for p in sol.partitions]
    return mix(states, sol.weights)


def table1(n_values) -> list:
    """Solve every (n, k) cell with 3 <= k <= n/2 over the given n values.

    These are exactly the cells not covered by a closed form; for
    n = 6..12 they reproduce the sixteen reference rows.
    """
    out = []
    for n in n_values:
        for k in range(3, n // 2 + 1):
            out.append(solve(build_problem(n, k)))
    return out
