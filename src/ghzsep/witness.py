"""The stabilizer witness family and its restriction to one party.

The witness Q is a weighted sum of GHZ stabilizer elements whose
coefficients depend only on how many Z-pair generators appear; grouping
pairs of counts into a single coefficient M_i leaves one free vector
M_1..M_{floor(n/2)}.  For product states that keep a distinguished block
of L qubits intact, tr(rho Q) is a quadratic form in the block state; this
module computes that form's parameters and the resulting separability
bounds, entirely through characteristic-function sums (Q is never
materialized here; the oracle module builds it densely as a cross-check).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactmath import binomial, elem_sym, rat_str, verify_lemma1_inequality, w_coeff


@dataclass(frozen=True)
class WitnessSpec:
    """Coefficient vector M_1..M_{floor(n/2)} for a block of size L."""

    n: int
    L: int
    m: tuple


def canonical_witness(n: int, L: int) -> WitnessSpec:
    """The choice M_i = (4i - n)/(n - L) that makes the block bound tight."""
    if not 2 <= L <= n - 1:
        raise ValueError(f"need 2 <= L <= n - 1, got n={n}, L={L}")
    return WitnessSpec(n, L, tuple(Fraction(4 * i - n, n - L) for i in range(1, n // 2 + 1)))


def witness_sum(w: WitnessSpec) -> Fraction:
    """sum_i M_i C(n, 2i); equals n/(n - L) for the canonical witness."""
    return sum(
        (w.m[i - 1] * binomial(w.n, 2 * i) for i in range(1, w.n // 2 + 1)),
        start=Fraction(0),
    )


def ghz_witness_value(w: WitnessSpec, p) -> Fraction:
    """tr(rho Q) on the noisy GHZ state with GHZ weight p."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    return p * (witness_sum(w) + 2 ** (w.n - 1))


def sep_max(n: int, L: int) -> Fraction:
    """Maximum of tr(rho Q) over states separable for the partition with
    n - L single qubits and one L-qubit party: n/(n - L)."""
    if not 2 <= L <= n - 1:
        raise ValueError(f"need 2 <= L <= n - 1, got n={n}, L={L}")
    return Fraction(n, n - L)


def necessary_threshold(n: int, L: int) -> Fraction:
    """Largest p compatible with separability for the 1^(n-L)|L partition."""
    w = canonical_witness(n, L)
    return sep_max(n, L) / (witness_sum(w) + 2 ** (n - 1))


@dataclass(frozen=True, eq=False)
class MMatrixParams:
    """Parameters of the witness quadratic form on the distinguished block.

    Only the longitudinal data is captured: the diagonal gamma_0..gamma_L
    by sector weight, the corner parameters (corner_a, corner_b), and the
    largest squared corner magnitude compatible with the given z
    components.
    """

    n: int
    L: int
    gamma: tuple
    corner_a: Fraction
    corner_b: Fraction
    corner_abs2_max: Fraction

    def max_eig_at_most(self, bound) -> bool:
        """Exact check that no block eigenvalue can exceed ``bound``.

        Diagonal sectors are compared directly; the corner 2x2 block has
        max eigenvalue <= bound iff both diagonal entries do and
        (bound - gamma_0)(bound - gamma_L) >= |corner|^2 at the largest
        corner magnitude allowed by the z components.
        """
        bound = Fraction(bound)
        if any(g > bound for g in self.gamma):
            return False
        g0, gL = self.gamma[0], self.gamma[-1]
        return (bound - g0) * (bound - gL) >= self.corner_abs2_max

    def corner_reaches(self, bound) -> bool:
        """Exact check that the corner block attains ``bound`` at the
        largest allowed corner magnitude."""
        bound = Fraction(bound)
        g0, gL = self.gamma[0], self.gamma[-1]
        return (
            g0 <= bound
            and gL <= bound
            and (bound - g0) * (bound - gL) == self.corner_abs2_max
        )

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "gamma": [rat_str(g) for g in self.gamma],
            "corner_a": rat_str(self.corner_a),
            "corner_b": rat_str(self.corner_b),
            "corner_abs2_max": rat_str(self.corner_abs2_max),
        }


def gamma_diagonal(n: int, L: int, z) -> MMatrixParams:
    """Sector diagonal of the witness quadratic form on an L-qubit block.

    ``z`` holds the longitudinal components of the n - L single qubits.
    The diagonal entry for block states of Hamming weight l is gamma_l,
    obtained by pushing the block's weight-l sector through the
    alternating coefficients w(L, ., l) and the symmetric sums of the z
    components.  gamma_0 and gamma_L sit in the corner block together with
    a transverse corner entry whose squared magnitude is at most
    4^(L-1) prod(1 - z_m^2); the corner parameters a, b and that product
    are lemma 1's quantities for the n - L free components.
    """
    if not 2 <= L <= n - 1:
        raise ValueError(f"need 2 <= L <= n - 1, got n={n}, L={L}")
    zs = tuple(Fraction(x) for x in z)
    corner = verify_lemma1_inequality(zs, n - L + 2)  # validates zs
    spec = canonical_witness(n, L)
    s = elem_sym(zs)
    # gamma_l = sum of M_{(r+k)/2} w(L, r, l) S_k over even r + k, where r
    # counts the block's Z factors and k the free ones; the identity term
    # (r + k = 0) carries no coefficient.
    pairs = [
        (r, k) for r in range(L + 1) for k in range(n - L + 1) if (r + k) % 2 == 0 and r + k >= 2
    ]
    gamma = tuple(
        sum(spec.m[(r + k) // 2 - 1] * w_coeff(L, r, l) * s[k] for r, k in pairs)
        for l in range(L + 1)
    )
    return MMatrixParams(
        n=n,
        L=L,
        gamma=gamma,
        corner_a=corner.a,
        corner_b=corner.b,
        corner_abs2_max=4 ** (L - 1) * corner.transverse_bound,
    )
