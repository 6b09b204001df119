import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ghzsep.exactmath import elem_sym, random_unit_rationals, w_coeff
from ghzsep.oracle import dense_witness
from ghzsep.witness import (
    canonical_witness,
    gamma_diagonal,
    ghz_witness_value,
    necessary_threshold,
    sep_max,
    witness_sum,
)


def random_bloch_rational_z(rng, count):
    """Unit Bloch vectors whose z components are exact multiples of 1/8."""
    z = [Fraction(int(rng.integers(-8, 9)), 8) for _ in range(count)]
    bloch = []
    for zz in z:
        phi = float(rng.uniform(0, 2 * np.pi))
        r = math.sqrt(1 - float(zz) ** 2)
        bloch.append((r * math.cos(phi), r * math.sin(phi), float(zz)))
    return z, bloch


def two_qubit_form(n, z):
    """Coefficients (a0, a1, b) of the two-qubit block form, summed directly
    over the elementary symmetric polynomials of the last n - 3 components
    with the first component split off."""
    spec = canonical_witness(n, 2)

    def m_at(i):
        return Fraction(0) if i == 0 else spec.m[i - 1]

    z1 = Fraction(z[0])
    e = elem_sym(z[1:])
    a0 = sum(e[m] * z1 ** (m % 2) * m_at((m + 1) // 2) for m in range(len(e)))
    a1 = sum(e[m] * z1 ** (m % 2) * m_at((m + 1) // 2 + 1) for m in range(len(e)))
    b = sum(e[m] * z1 ** (1 - m % 2) * m_at((m + 2) // 2) for m in range(len(e)))
    return a0, a1, b


def three_loop_gamma(n, L, z):
    """gamma_l as three index-shifted sums: the block-only terms, then the
    odd and the even free symmetric sums S_(2m-1) and S_(2m)."""
    spec = canonical_witness(n, L)
    s = elem_sym(z)
    free = n - L

    def m_at(i):
        return Fraction(0) if i == 0 else spec.m[i - 1]

    gamma = []
    for l in range(L + 1):
        total = sum(m_at(i) * w_coeff(L, 2 * i, l) for i in range(1, L // 2 + 1))
        for m in range(1, (free + 1) // 2 + 1):
            total += s[2 * m - 1] * sum(
                m_at(i + m - 1) * w_coeff(L, 2 * i - 1, l) for i in range(1, (L + 1) // 2 + 1)
            )
        for m in range(1, free // 2 + 1):
            total += s[2 * m] * sum(
                m_at(i + m) * w_coeff(L, 2 * i, l) for i in range(0, L // 2 + 1)
            )
        gamma.append(total)
    return tuple(gamma)


def contracted_block(n, L, bloch):
    """Oracle: contract the dense witness onto the L-qubit block."""
    q = np.array([[float(v) for v in row] for row in dense_witness(n, L)], dtype=complex)
    qt = q.reshape(1 << (n - L), 1 << L, 1 << (n - L), 1 << L)
    kets = []
    for x, y, z in bloch:
        theta = np.arccos(np.clip(float(z), -1, 1))
        phi = np.arctan2(float(y), float(x))
        kets.append(np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)]))
    s = kets[0]
    for k in kets[1:]:
        s = np.kron(s, k)
    return np.einsum("i,iajb,j->ab", s.conj(), qt, s)


class TestCanonicalWitness:
    def test_five_qubits(self):
        assert canonical_witness(5, 2).m == (Fraction(-1, 3), Fraction(1))

    def test_six_qubits_big_block(self):
        assert canonical_witness(6, 4).m == (-1, 1, 3)

    def test_four_qubits(self):
        assert canonical_witness(4, 2).m == (0, 2)

    def test_block_range_enforced(self):
        with pytest.raises(ValueError):
            canonical_witness(4, 1)
        with pytest.raises(ValueError):
            canonical_witness(4, 4)


class TestWitnessSum:
    def test_examples(self):
        assert witness_sum(canonical_witness(5, 2)) == Fraction(5, 3)
        assert witness_sum(canonical_witness(6, 4)) == 3
        assert witness_sum(canonical_witness(4, 2)) == 2

    def test_closed_form_everywhere(self):
        for n in range(3, 31):
            for L in range(2, n):
                assert witness_sum(canonical_witness(n, L)) == Fraction(n, n - L)


class TestGhzValue:
    def test_three_qubit_threshold_saturates(self):
        w = canonical_witness(3, 2)
        assert ghz_witness_value(w, Fraction(3, 7)) == 3 == sep_max(3, 2)

    def test_zero_weight(self):
        assert ghz_witness_value(canonical_witness(5, 2), 0) == 0

    def test_six_qubit_threshold_saturates(self):
        w = canonical_witness(6, 4)
        assert ghz_witness_value(w, Fraction(3, 35)) == 3 == sep_max(6, 4)


class TestBounds:
    def test_sep_max_values(self):
        assert sep_max(3, 2) == 3
        assert sep_max(6, 4) == 3
        assert sep_max(12, 2) == Fraction(6, 5)

    def test_necessary_threshold_values(self):
        assert necessary_threshold(3, 2) == Fraction(3, 7)
        assert necessary_threshold(6, 4) == Fraction(3, 35)
        assert necessary_threshold(5, 4) == Fraction(5, 21)

    def test_threshold_closed_form(self):
        for n in range(3, 16):
            for L in range(2, n):
                want = Fraction(1, 1 + Fraction(n - L, n) * 2 ** (n - 1))
                assert necessary_threshold(n, L) == want


class TestTwoQubitBlockForm:
    def test_equatorial_configuration(self):
        n = 6
        g = gamma_diagonal(n, 2, (Fraction(0),) * (n - 2))
        a1 = Fraction(4 - n, n - 2)
        assert g.gamma == (a1, -a1, a1)
        assert g.corner_abs2_max == 4
        assert g.corner_reaches(sep_max(n, 2))
        for n in (4, 7):
            g = gamma_diagonal(n, 2, (Fraction(0),) * (n - 2))
            assert g.corner_reaches(sep_max(n, 2))

    def test_polar_configuration_stays_bounded(self):
        for n in (4, 5, 6, 7):
            g = gamma_diagonal(n, 2, (1,) * (n - 2))
            assert g.corner_abs2_max == 0
            assert g.max_eig_at_most(sep_max(n, 2))

    def test_closed_form_matches_dense_eigensolver(self):
        rng = np.random.default_rng(20240502)
        for n in (3, 4, 5, 6):
            for _ in range(25):
                z, bloch = random_bloch_rational_z(rng, n - 2)
                g = gamma_diagonal(n, 2, z)
                g0, g1, g2 = (float(x) for x in g.gamma)
                mid, half = (g0 + g2) / 2, (g0 - g2) / 2
                root = math.sqrt(half**2 + float(g.corner_abs2_max))
                closed = np.sort([g1, g1, mid - root, mid + root])
                dense = np.sort(np.linalg.eigvalsh(contracted_block(n, 2, bloch)))
                assert np.max(np.abs(closed - dense)) < 1e-9

    def test_matches_block_contraction(self):
        rng = np.random.default_rng(11)
        for n in (4, 5, 6):
            z, bloch = random_bloch_rational_z(rng, n - 2)
            m = contracted_block(n, 2, bloch)
            g = gamma_diagonal(n, 2, z)
            expected = np.diag([float(g.gamma[bin(i).count("1")]) for i in range(4)])
            off = m - np.diag(np.diag(m))
            off[0, 3] = off[3, 0] = 0
            assert np.allclose(np.diag(m), np.diag(expected), atol=1e-9)
            assert np.allclose(off, 0, atol=1e-9)
            assert abs(m[0, 3]) ** 2 == pytest.approx(float(g.corner_abs2_max), abs=1e-9)

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            gamma_diagonal(4, 2, (Fraction(0), Fraction(-9, 8)))
        with pytest.raises(ValueError):
            gamma_diagonal(4, 2, (Fraction(3, 2), Fraction(0)))

    def test_exact_rational_sphere_point_accepted(self):
        g = gamma_diagonal(4, 2, (Fraction(4, 5),) * 2)
        assert all(isinstance(x, Fraction) for x in g.gamma)
        assert g.corner_abs2_max == 4 * Fraction(9, 25) ** 2


class TestSectorDiagonal:
    def test_zero_z_values(self):
        for n, L in [(5, 3), (6, 4), (7, 4), (8, 5)]:
            g = gamma_diagonal(n, L, (Fraction(0),) * (n - L))
            s = sep_max(n, L)
            assert g.gamma[1] == s - Fraction(2 ** (L - 1), n - L)
            assert all(g.gamma[l] == s for l in range(2, L - 1))

    def test_aligned_z_values(self):
        n, L = 7, 4
        g = gamma_diagonal(n, L, (1, 1, 1))
        s = sep_max(n, L)
        assert g.gamma[1] == s - Fraction(2 ** (L - 1) * 2 ** (n - L), n - L)
        assert g.gamma[L - 1] == s  # the opposite edge sees prod(1 - z) = 0

    def test_reduces_to_two_qubit_form(self):
        rng = random.Random(99)
        for n in (4, 5, 6, 7):
            z = random_unit_rationals(rng, n - 2)
            g = gamma_diagonal(n, 2, z)
            a0, a1, b = two_qubit_form(n, z)
            assert g.gamma[1] == a0 - a1
            assert g.gamma[0] == a0 + a1 + 2 * b
            assert g.gamma[2] == a0 + a1 - 2 * b

    def test_matches_three_loop_form(self):
        rng = random.Random(2024)
        for n in range(3, 10):
            for L in range(2, n):
                for z in ((0,) * (n - L), (1,) * (n - L), random_unit_rationals(rng, n - L)):
                    g = gamma_diagonal(n, L, z)
                    assert g.gamma == three_loop_gamma(n, L, z)
                    assert all(type(x) is Fraction for x in g.gamma)

    def test_edge_sector_product_forms(self):
        rng = random.Random(4)
        for n, L in [(5, 3), (6, 4), (7, 5), (8, 4)]:
            z = random_unit_rationals(rng, n - L)
            g = gamma_diagonal(n, L, z)
            s = sep_max(n, L)
            scale = Fraction(2 ** (L - 1), n - L)
            plus = math.prod((1 + x for x in z), start=Fraction(1))
            minus = math.prod((1 - x for x in z), start=Fraction(1))
            assert g.gamma[1] == s - scale * plus
            assert g.gamma[L - 1] == s - scale * minus
            assert g.gamma[0] == s + 2 ** (L - 1) * (g.corner_a + g.corner_b)
            assert g.gamma[L] == s + 2 ** (L - 1) * (g.corner_a - g.corner_b)

    def test_matches_dense_contraction(self):
        rng = np.random.default_rng(12)
        for n, L in [(4, 2), (5, 3), (6, 3), (6, 4), (7, 4)]:
            z = [Fraction(int(rng.integers(-8, 9)), 8) for _ in range(n - L)]
            bloch = []
            for zz in z:
                phi = float(rng.uniform(0, 2 * np.pi))
                r = math.sqrt(1 - float(zz) ** 2)
                bloch.append((r * math.cos(phi), r * math.sin(phi), float(zz)))
            m = contracted_block(n, L, bloch)
            g = gamma_diagonal(n, L, z)
            diag = np.real(np.diag(m))
            expected = np.array(
                [float(g.gamma[bin(i).count('1')]) for i in range(1 << L)]
            )
            assert np.allclose(diag, expected, atol=1e-9)
            corner = m[0, (1 << L) - 1]
            assert abs(corner) ** 2 <= float(g.corner_abs2_max) + 1e-9

    def test_bound_sweep(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(4, 9)
            L = rng.randint(2, n - 1)
            z = random_unit_rationals(rng, n - L)
            g = gamma_diagonal(n, L, z)
            s = sep_max(n, L)
            assert all(x <= s for x in g.gamma)
            assert g.max_eig_at_most(s)

    def test_equality_attained_at_zero(self):
        for n, L in [(4, 2), (5, 3), (6, 4)]:
            g = gamma_diagonal(n, L, (Fraction(0),) * (n - L))
            assert g.corner_reaches(sep_max(n, L))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gamma_diagonal(5, 3, (Fraction(3, 2), Fraction(0)))
        with pytest.raises(ValueError):
            gamma_diagonal(5, 3, (Fraction(0),))

    def test_serialization(self):
        d = gamma_diagonal(5, 3, (Fraction(0), Fraction(1, 2))).as_dict()
        assert d["n"] == 5 and d["L"] == 3
        assert isinstance(d["gamma"], list) and len(d["gamma"]) == 4
