"""Closed-form separability thresholds and the classification API.

For a noisy n-qubit GHZ state split into k parties the exact threshold is
known whenever k >= ceil((n+1)/2) (equivalently n >= 2j + 1 for j = n - k),
at the biseparability endpoint k = 2, and at the full-separability
endpoint k = n.  Everything in between only has a sufficient bound, which
comes from the mixed-partition linear program.  ``threshold`` is the one
lookup that decides which kind a cell gets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction


def nj_threshold(n: int, j: int) -> Fraction:
    """Exact (n - j)-separability threshold 1/(1 + (n-2j)/n * 2^(n-1)).

    Valid for n >= 2j + 1; this is both necessary and sufficient, realized
    by the partition with j qubit pairs and n - 2j singles.
    """
    if j < 1:
        raise ValueError(f"need j >= 1, got {j}")
    if n < 2 * j + 1:
        raise ValueError(
            f"closed form needs n >= 2j + 1, got n={n}, j={j}; use the linear program"
        )
    return Fraction(n, n + (n - 2 * j) * 2 ** (n - 1))


def full_sep_threshold(n: int) -> Fraction:
    """Full-separability threshold 1/(1 + 2^(n-1)) (known exact bound)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return Fraction(1, 1 + 2 ** (n - 1))


def bisep_threshold(n: int) -> Fraction:
    """Biseparability threshold (2^(n-1) - 1)/(2^n - 1) (known exact bound)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return Fraction(2 ** (n - 1) - 1, 2**n - 1)


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Classification of a noisy GHZ state for k-party separability."""

    n: int
    k: int
    p: Fraction
    status: str  # "separable" | "entangled" | "unknown-gap"
    sufficient_bound: Fraction
    necessary_bound: Fraction  # None when no necessary bound is known
    sufficient_rule: str


def threshold(n: int, k: int) -> tuple:
    """(bound, exact, rule) for (n, k): the closed form, necessary and
    sufficient, at k = 2, k = n and n >= 2j + 1 (j = n - k), else the
    certified linear-program bound, sufficient only, solved once per process.
    Closed forms that disagree or a rejected certificate raise
    ArithmeticError; a linear-program cell above ``lpsolve.MAX_N`` qubits
    raises ValueError.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")
    candidates = []
    if k == n:
        candidates.append((full_sep_threshold(n), "full-separability formula"))
    if k == 2:
        candidates.append((bisep_threshold(n), "biseparability formula"))
    j = n - k
    if j >= 1 and n >= 2 * j + 1:
        candidates.append((nj_threshold(n, j), f"exact (n-j)-separability criterion, j={j}"))
    if candidates:
        if len({b for b, _ in candidates}) != 1:
            raise ArithmeticError(f"inconsistent exact bounds for n={n}, k={k}: {candidates}")
        bound, rule = candidates[0]
        return bound, True, rule
    from . import lpsolve

    if n > lpsolve.MAX_N:
        raise ValueError(f"no closed form for n={n}, k={k}, and the linear program is "
                         f"limited to n <= {lpsolve.MAX_N}")
    return _lp_bound(n, k), False, "mixed-partition linear program"


@functools.cache
def _lp_bound(n: int, k: int) -> Fraction:
    """The certified linear-program p_s of one cell, kept for repeated lookups."""
    from . import lpsolve

    return lpsolve._certified_solve(n, k).p_s


def classify(n: int, k: int, p) -> SeparabilityVerdict:
    """Classify p against ``threshold(n, k)``.  Past a sufficient-only bound p
    is entangled above the biseparability threshold (every k-separable state
    is biseparable) and unknown-gap up to it."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    bound, exact, rule = threshold(n, k)
    if p <= bound:
        status = "separable"
    elif exact or p > bisep_threshold(n):
        status = "entangled"
    else:
        status = "unknown-gap"
    return SeparabilityVerdict(n, k, p, status, bound, bound if exact else None, rule)


def figure1_data(n_min: int, n_max: int, j_list) -> list:
    """Threshold curve rows (n, curve, p) over a qubit range.

    One row per exact (n-j) curve (for each j with n >= 2j + 1), plus the
    biseparability and full-separability reference curves.
    """
    if n_min < 2 or n_max < n_min:
        raise ValueError(f"invalid range [{n_min}, {n_max}]")
    if j_list and min(j_list) < 1:
        raise ValueError(f"need j >= 1, got j={min(j_list)}")
    rows = []
    for n in range(n_min, n_max + 1):
        for j in j_list:
            if n >= 2 * j + 1:
                rows.append((n, f"j={j}", nj_threshold(n, j)))
        rows.append((n, "bisep", bisep_threshold(n)))
        rows.append((n, "full", full_sep_threshold(n)))
    return rows
