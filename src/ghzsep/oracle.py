"""Independent brute-force verification of the symmetric-state machinery.

The constructions elsewhere in the package use closed forms (profiles,
characteristic-function sums).  This module rebuilds the same objects the
expensive way: explicit phase averaging over every placement of the
parties on the qubits, dense witness matrices, and direct numerical
maximization over product states.  The characteristic-function check
starts from the library's dense noisy GHZ state; its explicit Pauli
traces and the stabilizer pattern they are compared with are the
independent part.

Phase averages are exact.  Every matrix entry of the pre-average state is
a Fourier polynomial of degree between -2 and 2 in each free phase, and a
four-point average over the fourth roots of unity annihilates every
nonzero degree of magnitude at most 3, so averaging each phase over
{1, i, -1, -i} reproduces the continuous average exactly.  The sums of
the roots are integers, so nothing is ever rounded.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exactmath import CheckRecord
from .partitions import PartitionType
from .symstate import SymState, noisy_ghz, to_dense
from .witness import canonical_witness, ghz_witness_value


def _phase_average_support(part: PartitionType):
    """Exact phase average of the block product state, unnormalized.

    Returns (diag_val, off_entries) over block configurations: the value
    attached to configuration pair (cx, cy) is 2^k 4^(k-1) times the
    averaged matrix entry.  Each free phase is averaged over the four
    fourth roots of unity.  Free phase j carries degree d_j - d_last, with
    d_j = cx_j - cy_j in {-1, 0, 1}, so the average vanishes unless every
    flip difference is equal: only the diagonal and the two all-flip
    corners are walked.
    """
    k = part.k
    full = (1 << k) - 1
    # sum of i^(t*deg) over t = 0..3: 4 when 4 divides deg, else 0
    four_point = {deg: 4 if deg % 4 == 0 else 0 for deg in range(-2, 3)}

    def average(cx, cy):
        delta_last = ((cx >> (k - 1)) & 1) - ((cy >> (k - 1)) & 1)
        return math.prod(
            four_point[((cx >> j) & 1) - ((cy >> j) & 1) - delta_last] for j in range(k - 1)
        )

    diag_val = [average(c, c) for c in range(full + 1)]
    off_entries = [(cx, cy, average(cx, cy)) for cx, cy in ((0, full), (full, 0))]
    return diag_val, off_entries


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

    One free phase per party (the last party carries minus their sum);
    each phase is averaged over the fourth roots of unity exactly, then
    the resulting sparse matrix is placed on every split of the n qubits
    into blocks of the party sizes and averaged.  This equals the average
    over all n! qubit relabelings: each split is reached by equally many
    of them, and the phase average is symmetric under swapping parties,
    so equal-size parties need no order.  The result must be permutation
    symmetric (a non-symmetric residue is a hard internal fault) and is
    returned in symmetric-state form.
    """
    n = part.n
    if n > 10:
        raise ValueError(f"phase averaging limited to n <= 10, got n={n}")
    k = part.k
    dim = 1 << n

    diag_val, off_entries = _phase_average_support(part)

    acc = [0] * dim
    off_acc = Counter()
    placements = 0
    for blocks in _placements(dim - 1, part.parts):
        placements += 1
        imgs = [0]  # configuration c -> OR of the blocks of c's set bits
        for block in sorted(blocks, key=int.bit_count, reverse=True):
            imgs += [img | block for img in imgs]
        for img, v in zip(imgs, diag_val):
            acc[img] += v
        for cx, cy, v in off_entries:
            off_acc[imgs[cx], imgs[cy]] += v
    expected = math.factorial(n) // (
        math.prod(math.factorial(s) for s in part.parts)
        * math.prod(math.factorial(m) for m in Counter(part.parts).values())
    )
    if placements != expected:
        raise ArithmeticError("placement enumeration incomplete")

    total = placements * (2**k) * (4 ** (k - 1))
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
    full = dim - 1
    if not {key for key, v in off_acc.items() if v} <= {(0, full), (full, 0)}:
        raise ArithmeticError("phase averaging left off-diagonal weight off the corners")
    lo, hi = off_acc[0, full], off_acc[full, 0]
    if lo != hi:
        raise ArithmeticError("phase averaging broke Hermiticity of the corners")
    return SymState(n, Fraction(lo, total), d)


@dataclass(frozen=True)
class CharacteristicReport:
    """All Pauli-string expectation values of a dense noisy GHZ state."""

    n: int
    p: Fraction
    values: dict
    nonzero_count: int
    records: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)


def _expected_correlation(idx, p: Fraction) -> Fraction:
    """Stabilizer sign pattern: even all-Z strings give p (identity gives
    1), all-X/Y strings with 2j Y factors give (-1)^j p, everything else
    vanishes."""
    if all(i in (0, 3) for i in idx):
        z = idx.count(3)
        if z == 0:
            return Fraction(1)
        return p if z % 2 == 0 else Fraction(0)
    if all(i in (1, 2) for i in idx):
        y = idx.count(2)
        return (-1) ** (y // 2) * p if y % 2 == 0 else Fraction(0)
    return Fraction(0)


def characteristic_check(n: int, p) -> CharacteristicReport:
    """Evaluate every Pauli-string expectation of the dense noisy GHZ state.

    Takes every trace of ``to_dense(noisy_ghz(n, p))`` in exact arithmetic.
    A Pauli string with X mask x is a monomial matrix that pairs column y
    with row y ^ x, so its trace reads only the entries of rho whose row
    XOR column is x; the nonzero entries are grouped by that mask once.
    Mismatches against the stabilizer pattern become report entries, never
    exceptions.
    """
    if n > 8:
        raise ValueError(f"characteristic sweep limited to n <= 8, got n={n}")
    p = Fraction(p)
    rho = to_dense(noisy_ghz(n, p))
    by_xmask = {}
    for row, entries in enumerate(rho):
        for y, amp in enumerate(entries):
            if amp:
                by_xmask.setdefault(row ^ y, []).append((y, amp))

    values = {}
    mismatch = None
    nonzero = 0
    for idx in itertools.product(range(4), repeat=n):
        xmask = 0
        zmask = 0
        ycount = 0
        for q, s in enumerate(idx):
            if s in (1, 2):
                xmask |= 1 << q
            if s in (2, 3):
                zmask |= 1 << q
            if s == 2:
                ycount += 1
        re = Fraction(0)
        im = Fraction(0)
        for y, amp in by_xmask.get(xmask, ()):
            power = (ycount + 2 * (y & zmask).bit_count()) % 4
            if power == 0:
                re += amp
            elif power == 1:
                im += amp
            elif power == 2:
                re -= amp
            else:
                im -= amp
        if im != 0:
            mismatch = mismatch or (idx, "non-real correlation")
        values[idx] = re
        if re != 0:
            nonzero += 1
        if mismatch is None and re != _expected_correlation(idx, p):
            mismatch = (idx, f"got {re}, expected {_expected_correlation(idx, p)}")

    expected_count = 2**n if p != 0 else 1
    records = (
        CheckRecord(
            "correlation-pattern",
            {"n": n, "p": str(p)},
            mismatch is None,
            "" if mismatch is None else f"first mismatch at {mismatch[0]}: {mismatch[1]}",
        ),
        CheckRecord(
            "nonzero-count",
            {"n": n, "p": str(p)},
            nonzero == expected_count,
            f"nonzero={nonzero}, expected={expected_count}",
        ),
    )
    return CharacteristicReport(n, p, values, nonzero, records)


def dense_witness(n: int, L: int):
    """Materialize the witness Q as a dense exact matrix.

    Q is assembled generator by generator: each term is an all-X flip (or
    not) times a Z string, acting monomially on the computational basis.
    The construction is validated against the characteristic-function
    value of tr(rho Q) on noisy GHZ states before being returned.
    """
    if n > 8:
        raise ValueError(f"dense witness limited to n <= 8, got n={n}")
    spec = canonical_witness(n, L)
    dim = 1 << n
    full = dim - 1
    q = [[Fraction(0)] * dim for _ in range(dim)]
    for kvec in range(1 << (n - 1)):
        weight = kvec.bit_count()
        zmask = (weight & 1) | (kvec << 1)
        if weight:  # the X-free identity term carries coefficient zero
            coeff = spec.m[(weight + 1) // 2 - 1]
            for x in range(dim):
                if (zmask & x).bit_count() & 1:
                    q[x][x] -= coeff
                else:
                    q[x][x] += coeff
        for x in range(dim):
            if (zmask & x).bit_count() & 1:
                q[x ^ full][x] -= 1
            else:
                q[x ^ full][x] += 1
    for p in (Fraction(0), Fraction(1)):
        rho = to_dense(noisy_ghz(n, p))
        # zero entries of rho add nothing to tr(rho Q)
        tr = sum(
            (amp * q[y][x] for x, row in enumerate(rho) for y, amp in enumerate(row) if amp),
            start=Fraction(0),
        )
        if tr != ghz_witness_value(spec, p):
            raise ArithmeticError("dense witness disagrees with the closed-form trace")
    return q


def _dense_witness_float(n: int, L: int) -> np.ndarray:
    return np.array([[float(v) for v in row] for row in dense_witness(n, L)])


def _random_unit(rng, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _env_operator(qt: np.ndarray, vecs, j: int) -> np.ndarray:
    """Contract all parties except j against their current pure states."""
    k = len(vecs)
    operands = [qt, list(range(2 * k))]
    for l, v in enumerate(vecs):
        if l == j:
            continue
        operands.extend([np.conj(v), [l], v, [k + l]])
    return np.einsum(*operands, [j, k + j])


def _maximize_partition(q: np.ndarray, part: PartitionType, restarts, seed) -> float:
    """Multistart alternating eigenvector ascent over product states.

    With every party but one frozen, the value is a quadratic form in the
    remaining party, so the optimal update is the top eigenvector of the
    contracted operator; sweeping the parties gives monotone convergence.
    A restart converges when one sweep moves the value by at most 1e-12
    relative, within 500 sweeps.
    """
    dims = [1 << s for s in part.parts]
    k = len(dims)
    qt = q.reshape(dims + dims)
    rng = np.random.default_rng(seed)
    best = None
    converged_any = False
    for _ in range(restarts):
        vecs = [_random_unit(rng, d) for d in dims]
        prev = None
        value = None
        ok = False
        for _ in range(500):
            for j in range(k):
                env = _env_operator(qt, vecs, j)
                env = (env + env.conj().T) / 2
                eigvals, eigvecs = np.linalg.eigh(env)
                vecs[j] = eigvecs[:, -1]
                value = float(eigvals[-1])
            if prev is not None and abs(value - prev) <= 1e-12 * max(1.0, abs(value)):
                ok = True
                break
            prev = value
        if ok:
            converged_any = True
            if best is None or value > best:
                best = value
    if not converged_any:
        raise RuntimeError("product-state ascent did not converge in any restart")
    return best


def _block_partition(n: int, L: int) -> PartitionType:
    return PartitionType.from_sizes([L] + [1] * (n - L))


def maximize_over_product_states(n: int, L: int, restarts: int = 64,
                                 seed: int = 42) -> float:
    """Best tr(rho Q) found over pure product states of the partition with
    one L-qubit party and n - L singles."""
    if n > 8:
        raise ValueError(f"product-state search limited to n <= 8, got n={n}")
    q = _dense_witness_float(n, L)
    return _maximize_partition(q, _block_partition(n, L), restarts, seed)


def max_sampled_product_value(n: int, L: int, samples: int = 10000,
                              seed: int = 42) -> float:
    """Largest tr(rho Q) over Haar-random product states of the
    1^(n-L)|L partition; a soundness probe for the separability bound."""
    if n > 8:
        raise ValueError(f"product-state sampling limited to n <= 8, got n={n}")
    q = _dense_witness_float(n, L)
    part = _block_partition(n, L)
    rng = np.random.default_rng(seed)
    best = -np.inf
    chunk = 2048
    left = samples
    while left > 0:
        count = min(chunk, left)
        left -= count
        psi = np.ones((count, 1), dtype=complex)
        for size in part.parts:
            d = 1 << size
            g = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
            g /= np.linalg.norm(g, axis=1, keepdims=True)
            psi = np.einsum("si,sj->sij", psi, g).reshape(count, -1)
        vals = np.einsum("si,si->s", psi.conj() @ q, psi).real
        best = max(best, float(vals.max()))
    return best
