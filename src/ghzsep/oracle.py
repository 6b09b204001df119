"""Independent brute-force verification of the symmetric-state machinery.

The constructions elsewhere in the package use closed forms (profiles,
characteristic-function sums).  This module rebuilds the same objects the
expensive way: explicit phase averaging over every placement of the
parties on the qubits, dense witness matrices, the witness's exact value
on one product state that attains the separable bound, and a float
sampler over random product states.  The sampler is the only numpy code
and imports it itself, so the exact checks never load numpy.  The
characteristic-function check starts from the library's dense noisy GHZ
state; its explicit Pauli traces and the stabilizer pattern they are
compared with are the independent part.

Phase averages are exact and constant.  Every matrix entry of the
pre-average state is a Fourier polynomial of degree between -2 and 2 in
each free phase, and a four-point average over the fourth roots of unity
annihilates every nonzero degree of magnitude at most 3, so averaging each
phase over {1, i, -1, -i} reproduces the continuous average exactly.  With
one free phase per party and the last party carrying minus their sum, the
entry between block configurations cx and cy (bit j set when party j's
block is flipped) has degree d_j - d_last in free phase j, where
d_j = cx_j - cy_j is the flip difference in {-1, 0, 1}; its average
vanishes unless every flip difference is equal.  So the support is the
2^k diagonal configurations and the two all-flip corners, and on each the
degrees are all zero: the four-point sums give 4^(k-1) everywhere, out of
a normalization of 2^k 4^(k-1).  Every configuration therefore carries
weight 1/2^k and each corner coherence is 1/2^k, whatever the partition,
and the oracle's independent work is the placement walk and its symmetry
check.  The 4^k-pair brute force of the tests confirms the support.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from .exactmath import CheckRecord, probability
from .partitions import PartitionType
from .record import need_counts
from .symstate import SymState, noisy_ghz, to_dense
from .witness import canonical_witness, ghz_witness_value


def _placements(free: int, sizes: tuple):
    """Each split of the qubits in bitmask ``free`` into blocks of the given
    sizes, once, as a tuple of block bitmasks.  The lowest free qubit's
    block takes each remaining distinct size in turn, so blocks of equal
    size are never ordered."""
    if not sizes:
        yield ()
        return
    low = free & -free
    rest = [1 << q for q in range(free.bit_length()) if (free ^ low) >> q & 1]
    for size in set(sizes):
        i = sizes.index(size)
        for others in itertools.combinations(rest, size - 1):
            block = low | sum(others)
            for tail in _placements(free ^ block, sizes[:i] + sizes[i + 1 :]):
                yield (block,) + tail


def phase_average_oracle(part: PartitionType) -> SymState:
    """Rebuild the partition's separable state by explicit averaging.

    The phase average of the block product state gives each of the 2^k
    block configurations weight 1/2^k and each all-flip corner coherence
    1/2^k (see the module docstring).  It is placed on every split of the
    n qubits into blocks of the party sizes, counting each configuration's
    image (the union of its flipped parties' blocks), and averaged.  This
    equals the average over all n! qubit relabelings: each split is
    reached by equally many of them, and the phase average is symmetric
    under swapping parties, so equal-size parties need no order.  Every
    placement sends the two corners to the basis states 0 and 2^n - 1 and
    must cover all n qubits; the result must be permutation symmetric (a
    non-symmetric residue is a hard internal fault) and is returned in
    symmetric-state form.
    """
    n = part.n
    if n > 10:
        raise ValueError(f"phase averaging limited to n <= 10, got n={n}")
    dim = 1 << n

    acc = [0] * dim
    placements = 0
    for blocks in _placements(dim - 1, part.parts):
        placements += 1
        imgs = [0]  # the union of every subset of the blocks
        for block in blocks:
            imgs += [img | block for img in imgs]
        if imgs[-1] != dim - 1:
            raise ArithmeticError("placement leaves a qubit outside every block")
        for img in imgs:
            acc[img] += 1
    expected = math.factorial(n) // (
        math.prod(math.factorial(s) for s in part.parts)
        * math.prod(math.factorial(m) for m in Counter(part.parts).values())
    )
    if placements != expected:
        raise ArithmeticError("placement enumeration incomplete")

    total = placements << part.k
    by_weight = {}
    for x in range(dim):
        by_weight.setdefault(x.bit_count(), set()).add(acc[x])
    for w, vals in by_weight.items():
        if len(vals) != 1:
            raise ArithmeticError(
                f"permutation averaging left a non-symmetric residue at weight {w}"
            )
    d = tuple(
        Fraction(next(iter(by_weight[w])), total) for w in range(n + 1)
    )
    return SymState(Fraction(1, 1 << part.k), d)


def _scaled_entries(rho, den: int = 1):
    """The nonzero entries of a dense exact matrix as integers over one
    denominator: returns ([(row, col, num)], D), entry = num/D, where D is
    the lcm of ``den`` and the entries' denominators."""
    entries = [(row, col, amp.as_integer_ratio())
               for row, values in enumerate(rho) for col, amp in enumerate(values) if amp]
    den = math.lcm(den, *(q for _, _, (_, q) in entries))
    return [(row, col, p * (den // q)) for row, col, (p, q) in entries], den


def characteristic_check(n: int, p) -> tuple:
    """Check every Pauli-string expectation of the dense noisy GHZ state.

    Takes every trace of ``to_dense(noisy_ghz(n, p))`` in exact arithmetic,
    on integers: the nonzero entries of rho are scaled once to integers
    over their common denominator D (a multiple of p's), and each trace is
    accumulated over D.  A Pauli string with X mask x is a monomial matrix
    that pairs column y with row y ^ x, so its trace reads only the entries
    of rho whose row XOR column is x; the nonzero entries are grouped by
    that mask once.  The stabilizer pattern they are compared with comes
    from the masks: the identity gives 1, other X-free strings p for an
    even Z count, all-flip strings (-1)^(y/2) p for an even Y count y, and
    every other string 0.

    Returns the (correlation-pattern, nonzero-count) check records; a
    mismatch is a failed record, never an exception.
    """
    need_counts(n=n)
    if n > 8:
        raise ValueError(f"characteristic sweep limited to n <= 8, got n={n}")
    p = probability(p)
    entries, den = _scaled_entries(to_dense(noisy_ghz(n, p)), p.denominator)
    by_xmask = {}
    for row, y, num in entries:
        by_xmask.setdefault(row ^ y, []).append((y, num))
    full = (1 << n) - 1
    p_den = p.numerator * (den // p.denominator)

    # every string's X mask, Z mask and Y count, in the order of
    # itertools.product(range(4), repeat=n), grown one qubit at a time:
    # X (1) and Y (2) flip bit q, Y and Z (3) read it
    strings = [(0, 0, 0)]
    for q in range(n):
        bit = 1 << q
        letters = ((0, 0, 0), (bit, 0, 0), (bit, bit, 1), (0, bit, 0))
        strings = [(x | xb, z | zb, y + yb) for x, z, y in strings for xb, zb, yb in letters]

    nonzero = 0
    mismatch = None
    for xmask, zmask, ycount in strings:
        # the parts of the trace carrying i^0 .. i^3, times D
        trace = [0] * 4
        for y, num in by_xmask.get(xmask, ()):
            trace[(ycount + 2 * (y & zmask).bit_count()) % 4] += num
        re, im = trace[0] - trace[2], trace[1] - trace[3]
        nonzero += re != 0
        if mismatch is not None:
            continue
        # the stabilizer pattern, times D
        if xmask == 0 and zmask == 0:
            expected = den
        elif xmask == 0:
            expected = 0 if zmask.bit_count() % 2 else p_den
        elif xmask == full:
            expected = 0 if ycount % 2 else (-1) ** (ycount // 2) * p_den
        else:
            expected = 0
        if im:
            mismatch = xmask, zmask, "non-real correlation"
        elif re != expected:
            mismatch = xmask, zmask, f"got {Fraction(re, den)}, expected {Fraction(expected, den)}"

    detail = ""
    if mismatch is not None:
        xmask, zmask, what = mismatch
        # qubit q's letter: I, X, Z or Y for its X bit plus twice its Z bit
        idx = tuple((0, 1, 3, 2)[(xmask >> q & 1) + 2 * (zmask >> q & 1)] for q in range(n))
        detail = f"first mismatch at {idx}: {what}"
    expected_count = 2**n if p != 0 else 1
    params = {"n": n, "p": str(p)}
    return (CheckRecord("correlation-pattern", params, mismatch is None, detail),
            CheckRecord("nonzero-count", params, nonzero == expected_count,
                        f"nonzero={nonzero}, expected={expected_count}"))


def _dense_witness_scaled(n: int, L: int):
    """The dense witness Q as integers over one denominator: returns
    (scale * Q as rows of ints, scale), with scale the lcm of the
    coefficients' denominators (a divisor of n - L).

    Q is assembled generator by generator: each term is an all-X flip (or
    not) times a Z string, acting monomially on the computational basis.
    The construction is validated against the characteristic-function
    value of tr(rho Q) on noisy GHZ states, in integers, before being
    returned.
    """
    if n > 8:
        raise ValueError(f"dense witness limited to n <= 8, got n={n}")
    spec = canonical_witness(n, L)
    scale = math.lcm(*(m.denominator for m in spec.m))
    coeffs = [m.numerator * (scale // m.denominator) for m in spec.m]
    dim = 1 << n
    full = dim - 1
    q = [[0] * dim for _ in range(dim)]
    for kvec in range(1 << (n - 1)):
        weight = kvec.bit_count()
        zmask = (weight & 1) | (kvec << 1)
        if weight:  # the X-free identity term carries coefficient zero
            coeff = coeffs[(weight + 1) // 2 - 1]
            for x in range(dim):
                if (zmask & x).bit_count() & 1:
                    q[x][x] -= coeff
                else:
                    q[x][x] += coeff
        for x in range(dim):
            if (zmask & x).bit_count() & 1:
                q[x ^ full][x] -= scale
            else:
                q[x ^ full][x] += scale
    for p in (Fraction(0), Fraction(1)):
        entries, den = _scaled_entries(to_dense(noisy_ghz(n, p)))
        # zero entries of rho add nothing to tr(rho Q)
        tr = sum(num * q[y][x] for x, y, num in entries)
        if Fraction(tr, den) != scale * ghz_witness_value(spec, p):
            raise ArithmeticError("dense witness disagrees with the closed-form trace")
    return q, scale


def dense_witness(n: int, L: int):
    """Materialize the witness Q as a dense exact matrix of Fractions."""
    need_counts(n=n, L=L)
    q, scale = _dense_witness_scaled(n, L)
    zero = Fraction(0)
    return [[Fraction(v, scale) if v else zero for v in row] for row in q]


def attained_product_value(n: int, L: int) -> Fraction:
    """tr(rho Q), exactly, on one pure product state of the 1^(n-L)|L
    partition: GHZ_L on the block and |0> on every single qubit, or |+>
    on the single qubit when L = n - 1.

    The state's amplitudes are equal on its support (2 or 4 basis
    states), so the value is the sum of the integer witness entries over
    the support, divided once by the support's size and the witness's
    scale.
    """
    need_counts(n=n, L=L)
    q, scale = _dense_witness_scaled(n, L)
    block = (1 << L) - 1
    support = [0, block]
    if L == n - 1:
        support += [x | (1 << L) for x in support]
    return Fraction(sum(q[x][y] for x in support for y in support), len(support) * scale)


def max_sampled_product_value(n: int, L: int, samples: int = 10000,
                              seed: int = 42) -> float:
    """Largest tr(rho Q) over Haar-random product states of the
    1^(n-L)|L partition; a soundness probe for the separability bound."""
    need_counts(n=n, L=L, samples=samples)
    if samples < 1:
        raise ValueError(f"need samples >= 1, got samples={samples}")
    import numpy as np

    q, scale = _dense_witness_scaled(n, L)
    q = np.array(q, dtype=float) / scale
    rng = np.random.default_rng(seed)
    best = -np.inf
    chunk = 2048
    left = samples
    while left > 0:
        count = min(chunk, left)
        left -= count
        psi = np.ones((count, 1), dtype=complex)
        for size in (L,) + (1,) * (n - L):
            d = 1 << size
            g = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            psi = np.einsum("si,sj->sij", psi, g).reshape(count, -1)
        vals = np.einsum("si,si->s", psi.conj() @ q, psi).real
        best = max(best, float(vals.max()))
    return best
