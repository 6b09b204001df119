"""Closed-form separability thresholds and the classification API.

For a noisy n-qubit GHZ state split into k parties the exact threshold is
known whenever k >= ceil((n+1)/2) (equivalently n >= 2j + 1 for j = n - k),
at the biseparability endpoint k = 2, and at the full-separability
endpoint k = n.  Everything in between only has a sufficient bound, which
comes from the mixed-partition linear program.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import lpsolve
from .exactmath import rat_decimal, rat_str


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


def _iff_bound(n: int, k: int):
    """The exact threshold for (n, k) when one is known, with its rule name."""
    candidates = []
    if k == n:
        candidates.append((full_sep_threshold(n), "full-separability formula"))
    if k == 2:
        candidates.append((bisep_threshold(n), "biseparability formula"))
    j = n - k
    if j >= 1 and n >= 2 * j + 1:
        candidates.append((nj_threshold(n, j), f"exact (n-j)-separability criterion, j={j}"))
    if not candidates:
        return None
    values = {b for b, _ in candidates}
    if len(values) != 1:
        raise ArithmeticError(f"inconsistent exact bounds for n={n}, k={k}: {candidates}")
    return candidates[0]


def classify(n: int, k: int, p) -> SeparabilityVerdict:
    """Classify p against the strongest known bounds for (n, k).

    When no closed form applies the exact linear program is solved; above
    ``lpsolve.MAX_N`` qubits that is a ValueError.
    """
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    exact = _iff_bound(n, k)
    if exact is not None:
        sufficient, rule = exact
        necessary = sufficient
    elif n > lpsolve.MAX_N:
        raise ValueError(
            f"no closed form for n={n}, k={k}, and the linear program is "
            f"limited to n <= {lpsolve.MAX_N}"
        )
    else:
        sufficient = lpsolve.solve(lpsolve.build_problem(n, k)).p_s
        necessary = None
        rule = "mixed-partition linear program"
    if p <= sufficient:
        status = "separable"
    elif necessary is not None and p > necessary:
        status = "entangled"
    else:
        status = "unknown-gap"
    return SeparabilityVerdict(n, k, p, status, sufficient, necessary, rule)


def figure1_data(n_min: int, n_max: int, j_list) -> list:
    """Threshold curve rows (n, curve, p) over a qubit range.

    One row per exact (n-j) curve (for each j with n >= 2j + 1), plus the
    biseparability and full-separability reference curves.
    """
    if n_min < 2 or n_max < n_min:
        raise ValueError(f"invalid range [{n_min}, {n_max}]")
    rows = []
    for n in range(n_min, n_max + 1):
        for j in j_list:
            if j >= 1 and n >= 2 * j + 1:
                rows.append((n, f"j={j}", nj_threshold(n, j)))
        rows.append((n, "bisep", bisep_threshold(n)))
        rows.append((n, "full", full_sep_threshold(n)))
    return rows


def rows_to_csv(rows) -> str:
    """Render curve rows as CSV: n, curve, exact fraction, 12-digit decimal."""
    lines = ["n,curve,p_exact,p_decimal"]
    for n, curve, p in rows:
        lines.append(f"{n},{curve},{rat_str(p)},{rat_decimal(p)}")
    return "\n".join(lines) + "\n"
