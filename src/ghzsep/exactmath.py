"""Exact combinatorics underneath the separability thresholds.

Everything in this module is exact: elementary symmetric polynomials
over the rationals, the alternating coefficients that couple a witness
block to the Hamming-weight sectors, and sweep verifiers for the
identities and inequalities the threshold constructions rely on.  No
floating point anywhere.

This module also owns how a caller's number becomes exact, for the whole
package.  One rule: a number is whatever has ``as_integer_ratio()``, that
is an int, a finite float, a Decimal or a Fraction, and it is read as
that exact ratio.  Anything else, a string, None, NaN or an infinity, is
a ValueError naming the value.  ``exact`` and ``probability`` read one
number, and ``as_tuple`` reads a sequence once, before anything takes
its length, so a generator works and a non-iterable is a ValueError.
It is the bottom layer: of ghzsep it imports only ``record``, the record
base and the count rule.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable

from .record import Record, need_counts


def as_tuple(values, name: str) -> tuple:
    """``values`` read once with tuple(), so that a generator works; a
    non-iterable is a ValueError naming it as ``name``."""
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"need a sequence for {name}, got {values!r}") from None


def _ratio(x, name: str) -> tuple:
    """The one intake rule: x's exact integer ratio (p, q), q > 0, else a
    ValueError naming x as ``name``."""
    try:
        return x.as_integer_ratio()
    except (AttributeError, OverflowError, TypeError, ValueError):  # not a number, NaN or infinite
        raise ValueError(f"need a finite number for {name}, got {x!r}") from None


def exact(x, name: str) -> Fraction:
    """x as an exact Fraction by the module's intake rule; anything else
    is a ValueError naming x as ``name``."""
    return Fraction(*_ratio(x, name))


def probability(p) -> Fraction:
    """p as an exact Fraction in [0, 1]; anything else, a number outside
    [0, 1] included, is a ValueError."""
    p = exact(p, "p")
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    return p


def _scaled_sym(ratios) -> list:
    """[Q*S_0, ..., Q*S_m] on integers, for z_j = p_j/q_j and Q = prod q_j:
    Q*S_i is the x^i coefficient of prod(q_j + x p_j), so Q*S_0 is Q."""
    sym = [1]
    for p, q in ratios:  # sym times (q + x p), in place
        below = 0
        for i, c in enumerate(sym):
            sym[i], below = q * c + p * below, c
        sym.append(p * below)
    return sym


def elem_sym(z: Iterable) -> tuple:
    """Elementary symmetric polynomials (S_0, ..., S_m) of the inputs.

    S_i is the sum over all i-element subsets of the product of the chosen
    values.  Each input is read by the module's intake rule, a float as
    its exact value, and every S_i is an exact Fraction: the integer
    coefficient of prod(q_j + x p_j) over the product Q of the
    denominators.
    """
    sym = _scaled_sym([_ratio(x, "a component") for x in as_tuple(z, "the components")])
    return tuple(Fraction(c, sym[0]) for c in sym)


def w_coeff(L: int, n: int, l: int) -> int:
    """Alternating convolution sum_j (-1)^j C(L-l, n-j) C(l, j).

    Equivalently the coefficient of x^n in (1+x)^(L-l) (1-x)^l.  It weighs
    how the Hamming-weight-l sector of an L-qubit block enters the witness
    sums; the lower summation bound is implicit, as ``math.comb`` is zero
    for n - j > L - l.
    """
    need_counts(L=L, n=n, l=l)
    if not 0 <= n <= L:
        raise ValueError(f"need 0 <= n <= L, got n={n}, L={L}")
    if not 0 <= l <= L:
        raise ValueError(f"need 0 <= l <= L, got l={l}, L={L}")
    return sum(
        (-1) ** j * math.comb(L - l, n - j) * math.comb(l, j)
        for j in range(min(n, l) + 1)
    )


class CheckRecord(Record):
    """One check outcome; failures are data, not exceptions."""

    check: str
    params: dict
    passed: bool
    detail: str


class SweepReport(Record):
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
    need_counts(L=L)
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
    need_counts(n_max=n_max, l_max=l_max)
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


class Lemma1Check(Record):
    """Lemma 1's scalars for m = n - 2 longitudinal components, and its verdict.

    a and b are the symmetric-polynomial sums, u and v the averaged sign
    flip products; they satisfy a = -(u+v)/2 and b = -(u-v)/2 exactly,
    which the kernel checks before the record is built.  ``passed`` means
    a <= 0 and a^2 - b^2 >= transverse_bound = prod(1 - z_i^2); ``tight``
    means the second holds with equality.

    The record keeps five integers: m, q = Q the product of the
    components' denominators, ma and mb, which are a and b times m*Q, and
    plus_minus, which is transverse_bound times Q^2.  Everything else is
    read from them when asked for: u and v through the identity, the
    verdict by comparing ma^2 - mb^2 with m^2 plus_minus, and a Fraction
    only for a, b, u, v or transverse_bound.
    """

    ma: int
    mb: int
    m: int
    q: int
    plus_minus: int

    @property
    def a(self) -> Fraction:
        return Fraction(self.ma, self.m * self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.mb, self.m * self.q)

    @property
    def u(self) -> Fraction:
        return Fraction(-self.ma - self.mb, self.m * self.q)

    @property
    def v(self) -> Fraction:
        return Fraction(self.mb - self.ma, self.m * self.q)

    @property
    def transverse_bound(self) -> Fraction:
        return Fraction(self.plus_minus, self.q * self.q)

    @property
    def passed(self) -> bool:
        ma, mb, m = self.ma, self.mb, self.m
        return ma <= 0 and ma * ma - mb * mb >= m * m * self.plus_minus

    @property
    def tight(self) -> bool:
        return self.ma * self.ma - self.mb * self.mb == self.m * self.m * self.plus_minus


def verify_lemma1_inequality(z: Iterable, n: int) -> Lemma1Check:
    """Check a <= 0 and a^2 - b^2 >= prod(1 - z_i^2), all exactly.

    The right-hand side is the largest possible squared transverse
    magnitude c^2 + d^2 when every Bloch vector has unit norm, so this is
    the statement that the two-qubit block eigenvalue never exceeds the
    symmetric-state value.  Components are read by the module's intake
    rule, each as its exact integer ratio; anything else is a ValueError.
    """
    need_counts(n=n)
    if n < 3:
        raise ValueError(f"need n >= 3, got n={n}")
    ratios = [_ratio(x, "a component") for x in as_tuple(z, "the components")]
    if len(ratios) != n - 2:
        raise ValueError(f"need {n - 2} components, got {len(ratios)}")
    if any(abs(p) > q for p, q in ratios):
        raise ValueError("every component must lie in [-1, 1]")
    m = n - 2
    # Everything runs on integers over one denominator Q = prod q_j, with
    # Q*S_i from _scaled_sym.  With (1 + z) and (1 - z) scaled to q + p and
    # q - p, Q*m*u is the first-order coefficient of prod((q+p) + eps (q-p)),
    # Q*m*v the same with q + p and q - p swapped; plus and minus are the
    # zeroth-order products, Q times prod(1 + z) and prod(1 - z).
    sym = _scaled_sym(ratios)
    plus, minus, mu, mv = 1, 1, 0, 0
    for p, q in ratios:
        mu, mv = mu * (q + p) + plus * (q - p), mv * (q - p) + minus * (q + p)
        plus, minus = plus * (q + p), minus * (q - p)
    # S_i enters with weight (2i - m)/m: even i make up a (S_0 gives the
    # -1), odd i make up b.  ma = Q*m*a and mb = Q*m*b.
    weighted = [(2 * i - m) * c for i, c in enumerate(sym)]
    ma, mb = sum(weighted[0::2]), sum(weighted[1::2])
    if 2 * ma != -(mu + mv) or 2 * mb != -(mu - mv):
        raise ArithmeticError("internal identity between (a, b) and (u, v) violated")
    return Lemma1Check(ma, mb, m, sym[0], plus * minus)


def random_unit_rationals(rng: random.Random, length: int) -> tuple:
    """Seeded random exact rationals in [-1, 1] with denominators <= 64."""
    need_counts(length=length)
    if length < 0:
        raise ValueError(f"need length >= 0, got length={length}")
    out = []
    for _ in range(length):
        den = rng.randint(1, 64)
        out.append(Fraction(rng.randint(-den, den), den))
    return tuple(out)
