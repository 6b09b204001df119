"""Permutation-symmetric N-qubit states with a GHZ coherence.

Every state handled here is diagonal in the computational basis except
for the single coherence pair |0...0><1...1| + |1...1><0...0|.  The
representation keeps one coefficient ``alpha`` for that pair and, for each
Hamming weight i, the coefficient ``d[i]`` of EACH individual weight-i
basis projector (so the weight-i sector contributes d[i] * C(n, i) to the
trace).  Storing per-projector weights makes the padding step read off the
threshold directly, with no binomial bookkeeping.  These two are all a
state stores: its qubit count n is read from d, which holds d[0..n].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .partitions import PartitionType, profile


@dataclass(frozen=True)
class SymState:
    """Symmetric state: GHZ coherence alpha plus per-projector diagonal
    d[0..n]; n is read from d."""

    alpha: Fraction
    d: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")

    @property
    def n(self) -> int:
        return len(self.d) - 1

    def trace(self) -> Fraction:
        return sum(
            (self.d[i] * math.comb(self.n, i) for i in range(self.n + 1)),
            start=Fraction(0),
        )

    def is_psd(self) -> bool:
        """Positive semidefiniteness of the diagonal plus the 2x2
        coherence block."""
        return (
            all(x >= 0 for x in self.d)
            and self.alpha**2 <= self.d[0] * self.d[self.n]
        )


def noisy_ghz(n: int, p) -> SymState:
    """The n-qubit GHZ state mixed with white noise of weight 1 - p."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"need 0 <= p <= 1, got {p}")
    noise = (1 - p) / 2**n
    d = [noise] * (n + 1)
    d[0] += p / 2
    d[n] += p / 2
    return SymState(p / 2, tuple(d))


def partition_average_state(p: PartitionType) -> SymState:
    """The separable symmetric state a partition generates.

    Take the product over parties of (|0...0> + e^{i phi}|1...1>)/sqrt(2),
    one free phase per party, constrained so the phases cancel on the full
    coherence term; average the phases, then average over all qubit
    relabelings.  The result depends only on the partition's profile f:
    alpha = 1/2^k and d[i] = f(i) / (2^k C(n, i)).  The state has trace 1
    and is separable for the partition by construction.
    """
    if p.k < 2:
        raise ValueError("need at least two parties to carry a free phase")
    f = profile(p)
    scale = 2**p.k
    d = tuple(Fraction(f[i], scale * math.comb(p.n, i)) for i in range(p.n + 1))
    return SymState(Fraction(1, scale), d)


def mix(states, weights) -> SymState:
    """Convex combination of symmetric states on the same qubit count."""
    if not states or len(states) != len(weights):
        raise ValueError("need one weight per state")
    ws = [Fraction(w) for w in weights]
    if any(w < 0 for w in ws) or sum(ws) != 1:
        raise ValueError("weights must be nonnegative and sum to one")
    n = states[0].n
    if any(s.n != n for s in states):
        raise ValueError("all states must share the same qubit count")
    alpha = sum((w * s.alpha for w, s in zip(ws, states)), start=Fraction(0))
    d = tuple(
        sum((w * s.d[i] for w, s in zip(ws, states)), start=Fraction(0))
        for i in range(n + 1)
    )
    return SymState(alpha, d)


@dataclass(frozen=True)
class PadResult:
    """Outcome of isotropic padding: the padded state and its threshold."""

    padded: SymState
    tau: Fraction
    p_s: Fraction


def pad_to_isotropic(s: SymState) -> PadResult:
    """Pad a separable construction up to a noisy GHZ state.

    Adding computational-basis projectors is fully separable, so raising
    every interior diagonal coefficient to t = max interior d[i] (and the
    endpoints to alpha + t) preserves separability and produces a state
    proportional to a noisy GHZ state.  With tau = alpha / t the
    normalized result equals ``noisy_ghz(n, p_s)`` for
    p_s = tau / (tau + 2^(n-1)), which is therefore a separability
    threshold for whatever partition class produced ``s``.
    """
    if s.alpha <= 0:
        raise ValueError("padding needs a positive coherence coefficient")
    interior = s.d[1 : s.n]
    t = max(interior) if interior else Fraction(0)
    if t <= 0:
        raise ValueError("no interior diagonal weight to pad against")
    pads = [s.alpha + t - s.d[0]]
    pads.extend(t - x for x in interior)
    pads.append(s.alpha + t - s.d[s.n])
    if any(x < 0 for x in pads):
        raise ValueError("state is not dominated by its isotropic envelope")
    tau = s.alpha / t
    p_s = tau / (tau + 2 ** (s.n - 1))
    total = 2 * (s.alpha + t) + t * (2**s.n - 2)
    d = [t / total] * (s.n + 1)
    d[0] = (s.alpha + t) / total
    d[s.n] = (s.alpha + t) / total
    padded = SymState(s.alpha / total, tuple(d))
    return PadResult(padded, tau, p_s)


def to_dense(s: SymState):
    """Dense 2^n x 2^n matrix with exact rational entries."""
    if s.n > 12:
        raise ValueError(f"dense form limited to n <= 12, got n={s.n}")
    dim = 1 << s.n
    full = dim - 1
    zero = Fraction(0)
    rho = [[zero] * dim for _ in range(dim)]
    for x in range(dim):
        rho[x][x] = s.d[x.bit_count()]
    rho[0][full] = s.alpha
    rho[full][0] = s.alpha
    return rho
