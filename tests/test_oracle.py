import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from ghzsep import oracle
from ghzsep.cli import main
from ghzsep.oracle import (
    attained_product_value,
    characteristic_check,
    dense_witness,
    max_sampled_product_value,
    phase_average_oracle,
)
from ghzsep.partitions import PartitionType, enumerate_partitions, parse_partition
from ghzsep.symstate import noisy_ghz, partition_average_state, to_dense
from ghzsep.witness import canonical_witness, ghz_witness_value, sep_max


def four_k_support(part):
    """The phase-average support by brute force over all 4^k
    configuration pairs, each phase averaged over the fourth roots."""
    k = part.k
    cfg_count = 1 << k
    four_point = {deg: 4 if deg % 4 == 0 else 0 for deg in range(-2, 3)}
    diag_val = [0] * cfg_count
    off_entries = []
    for cx in range(cfg_count):
        for cy in range(cfg_count):
            delta_last = ((cx >> (k - 1)) & 1) - ((cy >> (k - 1)) & 1)
            val = 1
            for j in range(k - 1):
                val *= four_point[((cx >> j) & 1) - ((cy >> j) & 1) - delta_last]
                if val == 0:
                    break
            if val == 0:
                continue
            if cx == cy:
                diag_val[cx] = val
            else:
                off_entries.append((cx, cy, val))
    return diag_val, off_entries


class TestPhaseAverage:
    def test_support_matches_four_k_loop(self):
        parts = [PartitionType((n,)) for n in range(1, 9)]
        parts += [part for n in range(2, 9) for k in range(2, min(n, 7) + 1)
                  for part in enumerate_partitions(n, k)]
        for part in parts:
            # the constant support the oracle's placement count stands on
            k, full = part.k, (1 << part.k) - 1
            diag_val, off_entries = four_k_support(part)
            assert diag_val == [4 ** (k - 1)] * (full + 1), part
            assert set(off_entries) == {(0, full, 4 ** (k - 1)), (full, 0, 4 ** (k - 1))}, part

    def test_equals_closed_form_small(self):
        for n in range(2, 7):
            for k in range(2, n + 1):
                for part in enumerate_partitions(n, k):
                    assert phase_average_oracle(part) == partition_average_state(part)

    def test_pair_with_singles(self):
        part = parse_partition("1^2|2")
        assert phase_average_oracle(part) == partition_average_state(part)

    def test_three_pairs_support(self):
        s = phase_average_oracle(parse_partition("2^3"))
        assert s.d[1] == s.d[3] == s.d[5] == 0
        assert s.d[2] == s.d[4] == Fraction(1, 40)

    def test_bipartition_support(self):
        s = phase_average_oracle(parse_partition("1|5"))
        assert s.d[1] == s.d[5] == Fraction(1, 24)
        assert s.d[2] == s.d[3] == s.d[4] == 0

    def test_single_party_is_pure_coherence(self):
        s = phase_average_oracle(PartitionType((4,)))
        assert s.alpha == Fraction(1, 2)
        assert s.d[0] == s.d[4] == Fraction(1, 2)
        assert all(x == 0 for x in s.d[1:4])

    @pytest.mark.parametrize("n", [9, 10])
    def test_equals_closed_form_at_the_guard(self, n):
        for k in range(2, n + 1):
            for part in enumerate_partitions(n, k):
                assert phase_average_oracle(part) == partition_average_state(part)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            phase_average_oracle(PartitionType((11,)))

    @pytest.mark.parametrize("edit, match", [
        (lambda real: real[1:], "placement enumeration incomplete"),
        (lambda real: [real[0][:-1] + (real[0][-1] & (real[0][-1] - 1),)] + real[1:],
         "placement leaves a qubit outside every block"),
        (lambda real: [real[0], real[0]] + real[2:], "non-symmetric residue at weight 1"),
    ], ids=["dropped", "uncovered-qubit", "repeated"])
    def test_faulty_placements_raise(self, monkeypatch, edit, match):
        part = parse_partition("1^2|2")
        real = list(oracle._placements((1 << part.n) - 1, part.parts))
        monkeypatch.setattr(oracle, "_placements", lambda free, sizes: iter(edit(real)))
        with pytest.raises(ArithmeticError, match=match):
            phase_average_oracle(part)

    def test_verify_suite_finishes_at_the_guard(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--suite", "phase-oracle", "--limits", "n=10"])
        assert exit_.value.code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == sum(
            len(enumerate_partitions(n, k)) for n in range(2, 11) for k in range(2, n + 1)
        )
        assert all(r["pass"] for r in records)


def per_row_correlations(n, p, rho=None):
    """Every Pauli-string trace of the dense noisy GHZ state, or of ``rho``,
    as (real part, imaginary part), each one a sweep over all 2^n basis
    states, in the order of itertools.product."""
    if rho is None:
        rho = to_dense(noisy_ghz(n, Fraction(p)))
    values = {}
    for idx in itertools.product(range(4), repeat=n):
        xmask = sum(1 << q for q, s in enumerate(idx) if s in (1, 2))
        zmask = sum(1 << q for q, s in enumerate(idx) if s in (2, 3))
        ycount = idx.count(2)
        trace = [Fraction(0)] * 4  # coefficients of 1, i, -1, -i
        for y in range(1 << n):
            trace[(ycount + 2 * (y & zmask).bit_count()) % 4] += rho[y ^ xmask][y]
        values[idx] = (trace[0] - trace[2], trace[1] - trace[3])
    return values


def expected_correlation(idx, p):
    """Stabilizer sign pattern, read off the string itself: even all-Z
    strings give p (identity gives 1), all-X/Y strings with 2j Y factors
    give (-1)^j p, everything else vanishes."""
    if all(i in (0, 3) for i in idx):
        z = idx.count(3)
        if z == 0:
            return Fraction(1)
        return p if z % 2 == 0 else Fraction(0)
    if all(i in (1, 2) for i in idx):
        y = idx.count(2)
        return (-1) ** (y // 2) * p if y % 2 == 0 else Fraction(0)
    return Fraction(0)


def reference_details(n, p, rho=None):
    """The details of the two charfn records, from the per-row traces and
    the string pattern: the first string whose trace is non-real or off
    the pattern, and the count of nonzero real parts."""
    p = Fraction(p)
    values = per_row_correlations(n, p, rho)
    mismatch = ""
    for idx, (re, im) in values.items():
        want = expected_correlation(idx, p)
        if im:
            mismatch = f"first mismatch at {idx}: non-real correlation"
        elif re != want:
            mismatch = f"first mismatch at {idx}: got {re}, expected {want}"
        if mismatch:
            break
    nonzero = sum(1 for re, _ in values.values() if re)
    return mismatch, f"nonzero={nonzero}, expected={2**n if p else 1}"


def perturbed_to_dense(row, col, delta, mirror=0):
    """``to_dense`` with ``delta`` added to one entry and ``mirror`` to its
    transpose."""
    def build(state):
        rho = to_dense(state)
        rho[row][col] += delta
        rho[col][row] += mirror
        return rho
    return build


def details(records):
    return tuple(r.detail for r in records)


class TestCharacteristic:
    def test_mask_pattern_matches_string_pattern(self):
        # passing records mean every trace equals the mask-derived pattern;
        # the per-row traces equal the string-derived one, so the two
        # patterns agree on every string (p = 2/7 separates 1, p, -p, 0)
        for n in range(2, 6):
            for p in (Fraction(0), Fraction(2, 7), Fraction(1, 2), Fraction(1)):
                values = per_row_correlations(n, p)
                for idx, value in values.items():
                    assert value == (expected_correlation(idx, p), 0), (n, p, idx)
                nonzero = sum(1 for re, _ in values.values() if re)
                records = characteristic_check(n, p)
                assert all(r.passed for r in records), (n, p)
                assert records[1].detail == f"nonzero={nonzero}, expected={nonzero}"

    @pytest.mark.parametrize("p", [Fraction(2, 7), Fraction(5, 9)])
    def test_six_qubit_values_are_exact_fractions(self, p):
        values = per_row_correlations(6, p)
        assert all(type(v) is Fraction for value in values.values() for v in value)
        for idx, value in values.items():
            assert value == (expected_correlation(idx, p), 0), idx
        records = characteristic_check(6, p)
        assert all(r.passed for r in records)
        assert details(records) == ("", "nonzero=64, expected=64")

    @pytest.mark.parametrize("n,p,row,col,delta,details", [
        (3, Fraction(1, 2), 1, 1, Fraction(1, 7),
         ("first mismatch at (0, 0, 0): got 8/7, expected 1", "nonzero=12, expected=8")),
        (3, Fraction(1, 2), 0, 7, Fraction(-1, 5),
         ("first mismatch at (1, 1, 1): got 3/10, expected 1/2", "nonzero=8, expected=8")),
        (4, Fraction(2, 7), 3, 5, Fraction(1, 3),
         ("first mismatch at (0, 1, 1, 0): got 1/3, expected 0", "nonzero=24, expected=16")),
    ])
    def test_mismatch_details(self, monkeypatch, n, p, row, col, delta, details):
        # the detail strings of the kernel that summed Fractions per string
        monkeypatch.setattr(oracle, "to_dense", perturbed_to_dense(row, col, delta))
        records = characteristic_check(n, p)
        assert not records[0].passed
        assert tuple(r.detail for r in records) == details

    @pytest.mark.parametrize("n", [3, 4])
    def test_perturbations_match_per_row_reference(self, monkeypatch, n):
        # n = 3: every entry; n = 4: the diagonal, the corners and a seeded
        # sample.  Each entry gets 1/7 or -1/5 alone, or 1/7 against -1/7
        # on its transpose: that antisymmetric part leaves the first
        # strings of its X mask real and shows as a non-real correlation.
        dim = 1 << n
        if n == 3:
            cells = list(itertools.product(range(dim), repeat=2))
        else:
            rng = random.Random(4)
            cells = [(x, x) for x in range(dim)] + [(0, dim - 1), (dim - 1, 0)]
            cells += rng.sample(list(itertools.product(range(dim), repeat=2)), 24)
        p = Fraction(2, 7)
        seen = set()
        for row, col in cells:
            for delta, mirror in ((Fraction(1, 7), 0), (Fraction(-1, 5), 0),
                                  (Fraction(1, 7), Fraction(-1, 7))):
                build = perturbed_to_dense(row, col, delta, mirror)
                monkeypatch.setattr(oracle, "to_dense", build)
                got = details(characteristic_check(n, p))
                want = reference_details(n, p, build(noisy_ghz(n, p)))
                assert got == want, (row, col, delta, mirror)
                seen.add(want[0].split(": ")[-1].split(" ")[0])
        assert {"got", "non-real"} <= seen

    def test_values_match_per_row_sweep(self):
        for n in range(2, 6):
            for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                assert details(characteristic_check(n, p)) == reference_details(n, p), (n, p)

    def test_three_qubit_pure_values(self):
        values = per_row_correlations(3, 1)
        assert values[(0, 3, 3)] == (1, 0)
        assert values[(1, 2, 2)] == (-1, 0)
        assert values[(1, 1, 1)] == (1, 0)
        assert all(r.passed for r in characteristic_check(3, 1))

    def test_two_qubit_pattern(self):
        p = Fraction(2, 5)
        values = per_row_correlations(2, p)
        assert values[(0, 0)] == (1, 0)
        assert values[(3, 3)] == (p, 0)
        assert values[(1, 1)] == (p, 0)
        assert values[(2, 2)] == (-p, 0)
        assert values[(0, 3)] == (0, 0)
        assert all(r.passed for r in characteristic_check(2, p))

    def test_nonzero_count(self):
        pattern, count = characteristic_check(4, Fraction(1, 2))
        assert count.detail == "nonzero=16, expected=16"
        assert pattern.passed and count.passed

    def test_noise_only_state(self):
        pattern, count = characteristic_check(3, 0)
        assert pattern.passed and count.passed
        assert count.detail == "nonzero=1, expected=1"

    def test_size_guard(self):
        with pytest.raises(ValueError, match="characteristic sweep limited to n <= 8, got n=9"):
            characteristic_check(9, 0)

    def test_infinite_weight(self):
        with pytest.raises(ValueError, match="need a finite number for p, got inf"):
            characteristic_check(3, float("inf"))

    def test_string_weight(self):
        with pytest.raises(ValueError, match="need a finite number for p, got '1/2'"):
            characteristic_check(3, "1/2")

    def test_small_sweep(self):
        for n in (2, 3, 4, 5):
            for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
                assert all(r.passed for r in characteristic_check(n, p))


class TestDenseWitness:
    def test_three_qubit_trace(self):
        q = dense_witness(3, 2)
        rho = to_dense(noisy_ghz(3, 1))
        tr = sum(rho[x][y] * q[y][x] for x in range(8) for y in range(8))
        assert tr == 7 == ghz_witness_value(canonical_witness(3, 2), 1)

    def test_traceless(self):
        q = dense_witness(4, 2)
        assert sum(q[x][x] for x in range(16)) == 0

    def test_symmetric_with_simple_spectrum(self):
        n, L = 4, 2
        q = dense_witness(n, L)
        assert all(q[x][y] == q[y][x] for x in range(16) for y in range(16))
        eigs = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in q]))
        scaled = eigs * (n - L)
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)

    def test_rejects_a_wrong_trace(self, monkeypatch):
        monkeypatch.setattr(oracle, "to_dense", perturbed_to_dense(0, 7, Fraction(1, 2)))
        with pytest.raises(ArithmeticError):
            dense_witness(3, 2)

    def test_cross_check_against_symbolic_trace(self):
        for n, L in [(3, 2), (5, 3), (6, 4)]:
            q = dense_witness(n, L)
            spec = canonical_witness(n, L)
            dim = 1 << n
            for p in (Fraction(1, 3), Fraction(1)):
                rho = to_dense(noisy_ghz(n, p))
                tr = sum(
                    rho[x][y] * q[y][x] for x in range(dim) for y in range(dim)
                )
                assert tr == ghz_witness_value(spec, p)


def product_state_value(n, L):
    """tr(rho Q) on GHZ_L (qubits 0..L-1) times |0> on each single qubit,
    or |+> on the single qubit when L = n - 1, from explicit Fraction
    vectors: the Kronecker product of the parties' unnormalized states,
    then psi Q psi over psi psi."""
    ghz = [Fraction(0)] * (1 << L)
    ghz[0] = ghz[-1] = Fraction(1)
    single = [Fraction(1), Fraction(1 if L == n - 1 else 0)]
    psi = ghz
    for _ in range(n - L):
        # a later party's qubit is the higher bit
        psi = [a * b for b in single for a in psi]
    q = dense_witness(n, L)
    dim = 1 << n
    value = sum(psi[x] * q[x][y] * psi[y] for x in range(dim) for y in range(dim))
    return value / sum(a * a for a in psi)


#: Every block case the dense witness allows: 2 <= L < n <= 8.
DENSE_BLOCK_CASES = [(n, L) for n in range(3, 9) for L in range(2, n)]


class TestProductStateSearch:
    def test_reaches_bound_4_2(self):
        assert attained_product_value(4, 2) == 2

    def test_reaches_bound_5_3(self):
        assert attained_product_value(5, 3) == Fraction(5, 2)

    @pytest.mark.parametrize("n, L", DENSE_BLOCK_CASES, ids=str)
    def test_attains_the_bound_exactly(self, n, L):
        reached = attained_product_value(n, L)
        assert type(reached) is Fraction
        assert reached == sep_max(n, L)

    @pytest.mark.parametrize("n, L", [(3, 2), (4, 2), (4, 3), (6, 4), (7, 3)], ids=str)
    def test_value_is_the_product_state_expectation(self, n, L):
        assert attained_product_value(n, L) == product_state_value(n, L)

    @pytest.mark.parametrize("probe", [attained_product_value, max_sampled_product_value])
    def test_size_guard_is_the_dense_witness(self, probe):
        with pytest.raises(ValueError, match="dense witness limited to n <= 8, got n=9"):
            probe(9, 2)

    def test_zero_samples_raise(self):
        # n = 9 would fail the dense witness's size guard: the count is checked first
        with pytest.raises(ValueError, match="need samples >= 1, got samples=0"):
            max_sampled_product_value(9, 2, samples=0)

    def test_sampling_never_exceeds_bound(self):
        for n, L in [(4, 2), (5, 3)]:
            bound = float(sep_max(n, L))
            assert max_sampled_product_value(n, L, samples=2000, seed=5) <= bound + 1e-9


class TestPsdCrossCheck:
    def test_dense_psd_matches_block_criterion(self):
        from ghzsep.symstate import pad_to_isotropic

        for n in range(2, 7):
            for k in range(2, n + 1):
                for part in enumerate_partitions(n, k):
                    res = pad_to_isotropic(partition_average_state(part))
                    assert res.padded.is_psd()
                    dense = np.array(
                        [[float(v) for v in row] for row in to_dense(res.padded)]
                    )
                    assert np.linalg.eigvalsh(dense).min() > -1e-12

    def test_eight_qubit_spot_checks(self):
        from ghzsep.symstate import pad_to_isotropic

        for text in ("1|3|4", "2^4", "1^2|2^3"):
            res = pad_to_isotropic(partition_average_state(parse_partition(text)))
            assert res.padded.is_psd()
            dense = np.array(
                [[float(v) for v in row] for row in to_dense(res.padded)]
            )
            assert np.linalg.eigvalsh(dense).min() > -1e-12
