"""Permutation-symmetric N-qubit states with a GHZ coherence.

Every state handled here is diagonal in the computational basis except
for the single coherence pair |0...0><1...1| + |1...1><0...0|.  The
representation keeps one coefficient ``alpha`` for that pair and, for each
Hamming weight i, the coefficient ``d[i]`` of EACH individual weight-i
basis projector (so the weight-i sector contributes d[i] * C(n, i) to the
trace).  Storing per-projector weights makes the padding step read off the
threshold directly, with no binomial bookkeeping.  These two are all a
state stores: its qubit count n is read from d, a tuple holding d[0..n].
Likewise a padding result stores only its padded state, and its tau and
p_s are read from it.  A caller's p and mixture weights are read by
``exactmath``'s one intake rule; this module converts no caller's
number itself.
"""

import math
from fractions import Fraction

from .exactmath import as_tuple, exact, probability
from .partitions import PartitionType, profile
from .record import Record, need_counts


class SymState(Record):
    """Symmetric state: GHZ coherence alpha plus per-projector diagonal
    d[0..n]; n is read from d."""

    alpha: Fraction
    d: tuple

    def _check(self):
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
    need_counts(n=n)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    p = probability(p)
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
    """Convex combination of symmetric states on the same qubit count.
    Both sequences are read once, so generators work; each weight is read
    by ``exactmath``'s intake rule."""
    states = as_tuple(states, "the states")
    ws = [exact(w, "a weight") for w in as_tuple(weights, "the weights")]
    if not states or len(states) != len(ws):
        raise ValueError("need one weight per state")
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


class PadResult(Record):
    """Outcome of isotropic padding: the padded state, ``noisy_ghz(n, p_s)``
    with 0 < p_s < 1.

    The padded state is the one stored value.  The threshold p_s is its
    GHZ weight, twice its coherence, and tau is its coherence over an
    interior diagonal coefficient: padding keeps alpha / t.
    """

    padded: SymState

    def _check(self):
        if not 0 < self.p_s < 1 or self.padded != noisy_ghz(self.padded.n, self.p_s):
            raise ValueError("a padded state is a noisy GHZ state with 0 < p < 1")

    @property
    def p_s(self) -> Fraction:
        return 2 * self.padded.alpha

    @property
    def tau(self) -> Fraction:
        return self.padded.alpha / self.padded.d[1]


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
    # t is the interior's maximum, so only the two endpoints can stick out
    if max(s.d[0], s.d[s.n]) > s.alpha + t:
        raise ValueError("state is not dominated by its isotropic envelope")
    return PadResult(noisy_ghz(s.n, s.alpha / (s.alpha + t * 2 ** (s.n - 1))))


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
