"""Exact separability thresholds and the classification API.

For the noisy n-qubit GHZ state rho_p = p |GHZ><GHZ| + (1 - p) I / 2^n and
a split into k parties, ``threshold`` gives the exact threshold of every
cell: rho_p is k-separable if and only if p <= bound, and ``classify``
returns that verdict alone, "separable" or "entangled".  Closed forms cover
k = n, k = 2 and 2k > n (the paper's n >= 2j + 1 for j = n - k); every
other cell takes the mixed-partition linear program's p_s =
1/(1 + t 2^(n-1)), where t is the LP optimum (see ``lpsolve``).

The LP mixture is separable, so p <= p_s suffices.  It is also necessary:

1. Twirl.  Average over the local phases prod_q diag(e^(i phi_q),
   e^(-i phi_q)) with sum_q phi_q = 0, over the qubit permutations and
   over X^(x)n.  Each is local or relabels qubits, so the average keeps
   k-separability, and it leaves rho_p unchanged.  Of a state it keeps
   only the Hamming-sector weights (mirror-averaged, sector i with
   n - i) and Re<0^n|rho|1^n>.  For a pure k-product state
   psi = (x)_a psi_a, with alpha_a = <0..0|psi_a> and
   beta_a = <1..1|psi_a>, that coherence is at most c = prod_a
   |alpha_a beta_a|.  This is the GHZ-symmetric reduction of Eltschka
   and Siewert, PRL 108, 020502 (2012), taken to n qubits.
2. Dominance.  For a set S of parties, the basis state with the parties
   in S at 1..1 and the rest at 0..0 has weight P_S = prod_{a in S}
   |beta_a|^2 prod_{a not in S} |alpha_a|^2, and P_S P_{S'} = c^2 for
   the complement S'.  By AM-GM (P_S + P_S')/2 >= c, so the twirled psi
   has at least c f_P(i) weight in sector i, where f_P(i) counts the
   sets of parties of the partition P holding i qubits.
3. Consequence.  Write a k-separable rho_p, p > 0, as sum_j w_j psi_j
   with psi_j a pure product over a k-partition P_j.  rho_p is its own
   twirl, so its coherence p/2 is at most C = sum_j w_j c_j and its
   sector-i weight (1 - p) C(n, i) / 2^n is at least
   sum_j w_j c_j f_{P_j}(i).  The weights q_j = w_j c_j / C, summed per
   partition, are then a mixture whose every ratio row is at most
   (1 - p) / (2^n C) <= (1 - p) / (p 2^(n-1)).  So t <= (1 - p) /
   (p 2^(n-1)), that is p <= p_s.

The certified dual y is mirror-symmetric, y_i = y_(n-i), because the LP
keeps one row per mirror pair and splits its multiplier between the two
rows.  It gives the witness
W = sum_i y_i / C(n, i) Pi_i - (t/2)(|0^n><1^n| + h.c.), with Pi_i the
projector on Hamming weight i, which the twirl of step 1 leaves
unchanged.  Steps 1 and 2 give tr(W rho) >= 0 on every k-separable rho,
and tr(W rho_p) = (1 - p)/2^n - t p/2 < 0 exactly when p > p_s.
"""

from fractions import Fraction

from .record import need_counts


def threshold(n: int, k: int) -> tuple:
    """(bound, rule) for (n, k): rho_p is k-separable iff p <= bound.

    The bound is a closed form at k = n, at k = 2 and at 2k > n (the
    paper's n >= 2j + 1 with j = n - k), tested in that order, else the
    certified linear-program bound, exact by its dual witness (see the
    module docstring) and solved and certified on every call, so compare
    many p against one call's bound.  A rejected certificate raises
    ArithmeticError; a non-int n or k (a bool included), or a
    linear-program cell past the solver's size cap, raises ValueError.
    """
    need_counts(n=n, k=k)
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= n, got n={n}, k={k}")
    if k == n:
        return Fraction(1, 1 + 2 ** (n - 1)), "full-separability formula"
    if k == 2:
        return Fraction(2 ** (n - 1) - 1, 2**n - 1), "biseparability formula"
    if 2 * k > n:
        return (Fraction(n, n + (2 * k - n) * 2 ** (n - 1)),
                f"exact (n-j)-separability criterion, j={n - k}")
    from . import lpsolve

    return (lpsolve.certified_solve(n, k).p_s,
            "mixed-partition linear program and its dual witness")


def classify(n: int, k: int, p) -> str:
    """The verdict on rho_p: "separable" if p <= ``threshold(n, k)``'s
    bound, else "entangled".  The bound and its rule are ``threshold``'s
    to read.  p is read by ``exactmath``'s intake rule."""
    from .exactmath import probability

    return "separable" if probability(p) <= threshold(n, k)[0] else "entangled"


def figure1_data(n_min: int, n_max: int, j_list) -> list:
    """Threshold curve rows (n, curve, p) over a qubit range.

    One row per exact (n-j) curve (for each j with n >= 2j + 1), plus the
    biseparability and full-separability reference curves.  j_list is read
    once; a non-int bound or j (a bool included), a j below 1 or a
    repeated j is a ValueError.
    """
    from .exactmath import as_tuple

    j_list = as_tuple(j_list, "j_list")
    need_counts(n_min=n_min, n_max=n_max)
    for j in j_list:
        need_counts(j=j)
    if n_min < 2 or n_max < n_min:
        raise ValueError(f"invalid range [{n_min}, {n_max}]")
    if j_list and min(j_list) < 1:
        raise ValueError(f"need j >= 1, got j={min(j_list)}")
    if len(set(j_list)) != len(j_list):
        raise ValueError(f"repeated j in {list(j_list)}; give each j once")
    rows = []
    for n in range(n_min, n_max + 1):
        for j in j_list:
            if n >= 2 * j + 1:
                rows.append((n, f"j={j}", threshold(n, n - j)[0]))
        rows.append((n, "bisep", threshold(n, 2)[0]))
        rows.append((n, "full", threshold(n, n)[0]))
    return rows
