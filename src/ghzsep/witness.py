"""The stabilizer witness family and its restriction to one party.

The witness Q is a weighted sum of GHZ stabilizer elements whose
coefficients depend only on how many Z-pair generators appear; grouping
pairs of counts into a single coefficient M_i leaves one free vector
M_1..M_{floor(n/2)}, which with n is all a ``WitnessSpec`` stores.  For
product states that keep a distinguished block of L qubits intact,
tr(rho Q) is a quadratic form in the block state; this module computes
that form's parameters and the resulting separability bounds, entirely
through characteristic-function sums (Q is never materialized here; the
oracle module builds it densely as a cross-check).  The form stores only
its sector diagonal and lemma 1's record for the free components; the
corner bound is read from that record.
"""

import math
from fractions import Fraction

from .exactmath import (Lemma1Check, as_tuple, elem_sym, exact, probability,
                        verify_lemma1_inequality, w_coeff)
from .record import Record, need_counts


class WitnessSpec(Record):
    """The n-qubit witness's coefficient vector M_1..M_{floor(n/2)}, one
    entry per count of Z-pair generators."""

    n: int
    m: tuple

    def _check(self):
        if len(self.m) != self.n // 2:
            raise ValueError(f"m must be a tuple of {self.n // 2} coefficients for n={self.n}, "
                             f"got {self.m!r}")


def canonical_witness(n: int, L: int) -> WitnessSpec:
    """The choice M_i = (4i - n)/(n - L) that makes the block bound tight."""
    need_counts(n=n, L=L)
    if not 2 <= L <= n - 1:
        raise ValueError(f"need 2 <= L <= n - 1, got n={n}, L={L}")
    return WitnessSpec(n, tuple(Fraction(4 * i - n, n - L) for i in range(1, n // 2 + 1)))


def witness_sum(w: WitnessSpec) -> Fraction:
    """sum_i M_i C(n, 2i); equals n/(n - L) for the canonical witness."""
    return sum(
        (w.m[i - 1] * math.comb(w.n, 2 * i) for i in range(1, w.n // 2 + 1)),
        start=Fraction(0),
    )


def ghz_witness_value(w: WitnessSpec, p) -> Fraction:
    """tr(rho Q) on the noisy GHZ state with GHZ weight p."""
    return probability(p) * (witness_sum(w) + 2 ** (w.n - 1))


def sep_max(n: int, L: int) -> Fraction:
    """Maximum of tr(rho Q) over states separable for the partition with
    n - L single qubits and one L-qubit party: n/(n - L)."""
    need_counts(n=n, L=L)
    if not 2 <= L <= n - 1:
        raise ValueError(f"need 2 <= L <= n - 1, got n={n}, L={L}")
    return Fraction(n, n - L)


def necessary_threshold(n: int, L: int) -> Fraction:
    """Largest p compatible with separability for the 1^(n-L)|L partition."""
    return sep_max(n, L) / ghz_witness_value(canonical_witness(n, L), 1)


class MMatrixParams(Record):
    """Parameters of the witness quadratic form on an L-qubit block.

    Only the longitudinal data is stored: the diagonal gamma_0..gamma_L by
    sector weight, and ``corner``, lemma 1's record for the n - L free z
    components.  The corner parameters a and b are ``corner.a`` and
    ``corner.b``, and the largest squared corner magnitude those
    components allow is read from it as ``corner_abs2_max``.
    """

    gamma: tuple
    corner: Lemma1Check

    @property
    def corner_abs2_max(self) -> Fraction:
        """4^(L-1) prod(1 - z_m^2), with L = len(gamma) - 1."""
        return 4 ** (len(self.gamma) - 2) * self.corner.transverse_bound

    def max_eig_at_most(self, bound) -> bool:
        """Exact check that no block eigenvalue can exceed ``bound``.

        Diagonal sectors are compared directly; the corner 2x2 block has
        max eigenvalue <= bound iff both diagonal entries do and
        (bound - gamma_0)(bound - gamma_L) >= |corner|^2 at the largest
        corner magnitude allowed by the z components.
        """
        bound = exact(bound, "the bound")
        if any(g > bound for g in self.gamma):
            return False
        g0, gL = self.gamma[0], self.gamma[-1]
        return (bound - g0) * (bound - gL) >= self.corner_abs2_max

    def corner_reaches(self, bound) -> bool:
        """Exact check that the corner block attains ``bound`` at the
        largest allowed corner magnitude."""
        bound = exact(bound, "the bound")
        g0, gL = self.gamma[0], self.gamma[-1]
        return (
            g0 <= bound
            and gL <= bound
            and (bound - g0) * (bound - gL) == self.corner_abs2_max
        )


def gamma_diagonal(n: int, L: int, z) -> MMatrixParams:
    """Sector diagonal of the witness quadratic form on an L-qubit block.

    ``z`` is the sequence of longitudinal components of the n - L single
    qubits.  The diagonal entry for block states of Hamming weight l is
    gamma_l, obtained by pushing the block's weight-l sector through the
    alternating coefficients w(L, ., l) and the symmetric sums of the z
    components.  gamma_0 and gamma_L sit in the corner block together with
    a transverse corner entry whose squared magnitude is at most
    4^(L-1) prod(1 - z_m^2); the corner parameters a, b and that product
    are lemma 1's quantities for the n - L free components, which is the
    record returned beside gamma.  The block range is the canonical
    witness's check, and z is lemma 1's: a component outside [-1, 1] or
    not a number is a ValueError.  z is read once, so a generator works.
    """
    spec = canonical_witness(n, L)
    z = as_tuple(z, "the components")
    corner = verify_lemma1_inequality(z, n - L + 2)
    s = elem_sym(z)
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
    return MMatrixParams(gamma, corner)
