"""Exact combinatorics underneath the separability thresholds.

Everything in this module is exact: binomial coefficients on big integers,
elementary symmetric polynomials over the rationals, the alternating
coefficients that couple a witness block to the Hamming-weight sectors,
and sweep verifiers for the identities and inequalities the threshold
constructions rely on.  No floating point anywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Sequence


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention C(n, k) = 0 for k < 0 or k > n.

    The zero convention lets alternating binomial sums be written without
    explicit summation bounds.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def elem_sym(z: Sequence) -> tuple:
    """Elementary symmetric polynomials (S_0, ..., S_m) of the inputs.

    S_i is the sum over all i-element subsets of the product of the chosen
    values.  Exact whenever the inputs are rational.
    """
    s = [Fraction(1)] + [Fraction(0)] * len(z)
    seen = 0
    for value in z:
        seen += 1
        for i in range(seen, 0, -1):
            s[i] = s[i] + value * s[i - 1]
    return tuple(s)


def w_coeff(L: int, n: int, l: int) -> int:
    """Alternating convolution sum_j (-1)^j C(L-l, n-j) C(l, j).

    Equivalently the coefficient of x^n in (1+x)^(L-l) (1-x)^l.  It weighs
    how the Hamming-weight-l sector of an L-qubit block enters the witness
    sums; the implicit summation bounds come from the binomial zero
    convention.
    """
    if not 0 <= n <= L:
        raise ValueError(f"need 0 <= n <= L, got n={n}, L={L}")
    if not 0 <= l <= L:
        raise ValueError(f"need 0 <= l <= L, got l={l}, L={L}")
    return sum(
        (-1) ** j * binomial(L - l, n - j) * binomial(l, j)
        for j in range(min(n, l) + 1)
    )


@dataclass(frozen=True)
class CheckRecord:
    """One check outcome; failures are data, not exceptions."""

    check: str
    params: dict
    passed: bool
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "check": self.check,
            "params": dict(self.params),
            "pass": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SweepReport:
    """Outcome of an exhaustive exact sweep."""

    checked: int
    violations: tuple

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_w_identities(L: int) -> list:
    """Check the parity-sum and first-moment identities of w_coeff.

    For every sector 0 < l < L the even and odd coefficient sums vanish,
    and the first moments vanish except at the edge sectors l = 1 and
    l = L - 1 where they equal -(or +)2^(L-3).  The two edge contributions
    add when L = 2 and the sectors coincide.
    """
    if L < 2:
        raise ValueError(f"need L >= 2, got L={L}")
    records = []
    edge = Fraction(2) ** (L - 3)
    for l in range(1, L):
        even = [w_coeff(L, 2 * i, l) for i in range(L // 2 + 1)]
        odd = [w_coeff(L, 2 * i - 1, l) for i in range(1, (L + 1) // 2 + 1)]
        checks = [
            ("even-coefficient-sum", sum(even), Fraction(0)),
            ("odd-coefficient-sum", sum(odd), Fraction(0)),
            (
                "even-first-moment",
                sum(i * even[i] for i in range(len(even))),
                -(int(l == 1) + int(l == L - 1)) * edge,
            ),
            (
                "odd-first-moment",
                sum(i * odd[i - 1] for i in range(1, len(odd) + 1)),
                (int(l == L - 1) - int(l == 1)) * edge,
            ),
        ]
        for name, lhs, rhs in checks:
            records.append(
                CheckRecord(
                    "w-identity:" + name,
                    {"L": L, "l": l},
                    Fraction(lhs) == rhs,
                    f"lhs={lhs}, rhs={rhs}",
                )
            )
    return records


def _pascal_rows(top: int) -> list:
    """Rows 0..top of Pascal's triangle: ``rows[r][c]`` is C(r, c)."""
    rows = [[1]]
    for _ in range(top):
        row = rows[-1]
        rows.append([1] + [x + y for x, y in zip(row, row[1:])] + [1])
    return rows


def verify_appendix_inequality(n_max: int, l_max: int) -> SweepReport:
    """Exact sweep of (C(n,i) + C(n,i-l))/n <= C(n+l,i)/(n+l).

    Ranges: 2 <= l <= l_max, l <= i <= n <= n_max.  This bound is the
    inductive step that lets a single-qubit party absorb one extra party
    of size l while preserving the per-sector padding bound.  The binomials
    are read from Pascal rows 0..n_max + l_max, built once.
    """
    if n_max < 4:
        raise ValueError(f"need n_max >= 4, got {n_max}")
    if l_max < 2:
        raise ValueError(f"need l_max >= 2, got {l_max}")
    pascal = _pascal_rows(n_max + l_max)
    checked = 0
    violations = []
    for l in range(2, l_max + 1):
        for n in range(l, n_max + 1):
            row, wide = pascal[n], pascal[n + l]
            checked += n - l + 1
            # i runs over l..n: row[i], row[i - l] and wide[i] side by side
            for i, c_i, c_shift, c_wide in zip(range(l, n + 1), row[l:], row, wide[l:]):
                if (n + l) * (c_i + c_shift) > n * c_wide:
                    lhs = Fraction(c_i + c_shift, n)
                    rhs = Fraction(c_wide, n + l)
                    violations.append(
                        CheckRecord(
                            "padding-binomial-bound",
                            {"n": n, "l": l, "i": i},
                            False,
                            f"lhs={lhs}, rhs={rhs}",
                        )
                    )
    return SweepReport(checked, tuple(violations))


@dataclass(frozen=True)
class Lemma1Check:
    """Lemma 1's scalars for n - 2 longitudinal components, and its verdict.

    a and b are the symmetric-polynomial sums, u and v the averaged sign
    flip products; they satisfy a = -(u+v)/2 and b = -(u-v)/2 exactly,
    which is checked before the record is built.  ``passed`` means a <= 0
    and a^2 - b^2 >= transverse_bound = prod(1 - z_i^2); ``tight`` means
    the second holds with equality.
    """

    a: Fraction
    b: Fraction
    u: Fraction
    v: Fraction
    transverse_bound: Fraction
    passed: bool
    tight: bool


def verify_lemma1_inequality(z: Sequence, n: int) -> Lemma1Check:
    """Check a <= 0 and a^2 - b^2 >= prod(1 - z_i^2), all exactly.

    The right-hand side is the largest possible squared transverse
    magnitude c^2 + d^2 when every Bloch vector has unit norm, so this is
    the statement that the two-qubit block eigenvalue never exceeds the
    symmetric-state value.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    if len(z) != n - 2:
        raise ValueError(f"need {n - 2} components, got {len(z)}")
    zs = tuple(Fraction(x) for x in z)
    if any(abs(x.numerator) > x.denominator for x in zs):
        raise ValueError("every component must lie in [-1, 1]")
    m = n - 2
    # Everything runs on integers over one denominator: with z_j = p_j/q_j
    # and Q = prod q_j, Q*S_i is the x^i coefficient of prod(q_j + x p_j).
    # With (1 + z) and (1 - z) scaled to q + p and q - p, Q*m*u is the
    # first-order coefficient of prod((q+p) + eps (q-p)), Q*m*v the same
    # with q + p and q - p swapped; plus and minus are the zeroth-order
    # products, Q times prod(1 + z) and prod(1 - z).
    sym = [1]
    big_q, plus, minus, mu, mv = 1, 1, 1, 0, 0
    for x in zs:
        p, q = x.numerator, x.denominator
        sym = [q * c + p * d for c, d in zip(sym + [0], [0] + sym)]
        mu, mv = mu * (q + p) + plus * (q - p), mv * (q - p) + minus * (q + p)
        plus, minus, big_q = plus * (q + p), minus * (q - p), big_q * q
    # S_i enters with weight (2i - m)/m: even i make up a (S_0 gives the
    # -1), odd i make up b.  ma = Q*m*a and mb = Q*m*b.
    weighted = [(2 * i - m) * c for i, c in enumerate(sym)]
    ma, mb = sum(weighted[0::2]), sum(weighted[1::2])
    if 2 * ma != -(mu + mv) or 2 * mb != -(mu - mv):
        raise ArithmeticError("internal identity between (a, b) and (u, v) violated")
    # a^2 - b^2 >= prod(1 - z^2), scaled by (Q*m)^2
    lhs, rhs = ma * ma - mb * mb, m * m * plus * minus
    den = big_q * m
    return Lemma1Check(
        Fraction(ma, den), Fraction(mb, den), Fraction(mu, den), Fraction(mv, den),
        Fraction(plus * minus, big_q * big_q), ma <= 0 and lhs >= rhs, lhs == rhs,
    )


def random_unit_rationals(rng: random.Random, length: int) -> tuple:
    """Seeded random exact rationals in [-1, 1] with denominators <= 64."""
    out = []
    for _ in range(length):
        den = rng.randint(1, 64)
        out.append(Fraction(rng.randint(-den, den), den))
    return tuple(out)


def rat_str(q) -> str:
    """Render a rational as ``num/den`` (or just ``num`` for integers)."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rat_decimal(q) -> str:
    """Decimal rendering of a rational with 12 significant digits."""
    q = Fraction(q)
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(q.numerator) / Decimal(q.denominator))
