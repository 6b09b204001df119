"""Partitions of N qubits into parties, and their subset-sum profiles.

The noisy GHZ state is permutation symmetric, so a way of splitting the
qubits into parties only matters through the multiset of party sizes.  A
partition's profile counts, for every Hamming weight i, how many subsets
of parties have sizes summing to i (for parts (2, 2, 2), f(2) = 3); that
integer vector is the diagonal fingerprint of the separable state the
partition generates.
"""

from __future__ import annotations

import functools
import math
import re

from .record import Record, is_count, need_counts


@functools.total_ordering
class PartitionType(Record):
    """A multiset of positive party sizes, stored non-increasing; ordered
    by its parts."""

    parts: tuple

    def _check(self):
        if not isinstance(self.parts, tuple):
            raise ValueError(f"parts must be a tuple, got {type(self.parts).__name__}")
        if not self.parts:
            raise ValueError("a partition needs at least one part")
        if not is_count(*self.parts) or min(self.parts) < 1:
            bad = next(s for s in self.parts if not is_count(s) or s < 1)
            raise ValueError(f"parts must be positive integers, got {bad!r}")
        if list(self.parts) != sorted(self.parts, reverse=True):
            raise ValueError("parts must be sorted non-increasing")

    @property
    def n(self) -> int:
        """Total number of qubits."""
        return sum(self.parts)

    @property
    def k(self) -> int:
        """Number of parties."""
        return len(self.parts)

    def __str__(self) -> str:
        return format_partition(self)

    def __lt__(self, other):
        return self.parts < other.parts if type(other) is type(self) else NotImplemented


def enumerate_partitions(n: int, k: int) -> list:
    """All partitions of n into exactly k positive parts.

    Deterministic order: lexicographically descending on the
    non-increasing part tuples.  A non-int n or k, a bool included, is a
    ValueError.
    """
    need_counts(n=n, k=k)
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")

    def gen(total, count, max_part):
        if count == 1:
            if total <= max_part:
                yield (total,)
            return
        first_hi = min(max_part, total - count + 1)
        first_lo = -(-total // count)  # ceil(total / count)
        for first in range(first_hi, first_lo - 1, -1):
            for rest in gen(total - first, count - 1, first):
                yield (first,) + rest

    return [PartitionType(parts) for parts in gen(n, k, n)]


_TOKEN = re.compile(r"(\d+)(?:\^(\d+))?\Z")


def parse_partition(text: str) -> PartitionType:
    """Parse partition text like ``1^3|2^2|4`` (a part ``s^m`` means m
    parties of size s)."""
    if not isinstance(text, str) or not text.strip():
        raise ValueError("empty partition text")
    sizes = []
    for piece in text.strip().split("|"):
        m = _TOKEN.match(piece.strip())
        if not m:
            raise ValueError(f"malformed partition piece {piece!r}")
        size = int(m.group(1))
        count = int(m.group(2)) if m.group(2) else 1
        if size < 1:
            raise ValueError(f"party size must be positive, got {size}")
        if count < 1:
            raise ValueError(f"repeat count must be positive, got {count}")
        sizes.extend([size] * count)
    return PartitionType(tuple(sorted(sizes, reverse=True)))


def format_partition(p: PartitionType) -> str:
    """Canonical text form: ascending sizes, repeats collapsed to ``s^m``."""
    pieces = []
    for size in sorted(set(p.parts)):
        mult = p.parts.count(size)
        pieces.append(f"{size}^{mult}" if mult > 1 else str(size))
    return "|".join(pieces)


def profile(p: PartitionType) -> tuple:
    """Subset-sum counts (f(0), ..., f(n)): f(i) is the number of subsets of
    parties whose sizes sum to i.

    Computed by dynamic programming over the parts; exact integers (counts
    reach 2^k in total).
    """
    counts = [0] * (p.n + 1)
    counts[0] = 1
    for part in p.parts:
        for i in range(p.n, part - 1, -1):
            counts[i] += counts[i - part]
    return tuple(counts)


def appendix_recursion_check(p: PartitionType, l: int) -> bool:
    """Inductive padding-bound step for growing a partition by one party.

    Given a partition with a single-qubit party whose profile satisfies
    f(i)/C(n,i) <= f(1)/n on the interior, attaching one extra party of
    size l >= 2 gives the extended profile f2(i) = f(i) + f(i-l); this
    checks that f2 satisfies the analogous bound f2(i)/C(n+l,i) <=
    f2(1)/(n+l) for i in [2, n+l-2].  Returns True when both the base
    bound and the extended bound hold.
    """
    need_counts(l=l)
    if 1 not in p.parts:
        raise ValueError("partition must contain a single-qubit party")
    if l < 2:
        raise ValueError(f"attached party must have size >= 2, got {l}")
    n = p.n
    f1 = profile(p)
    base_ok = all(f1[i] * n <= f1[1] * math.comb(n, i) for i in range(1, n))
    m = n + l
    f2 = [
        (f1[i] if i <= n else 0) + (f1[i - l] if 0 <= i - l <= n else 0)
        for i in range(m + 1)
    ]
    ext_ok = all(f2[i] * m <= f2[1] * math.comb(m, i) for i in range(2, m - 1))
    return base_ok and ext_ok
