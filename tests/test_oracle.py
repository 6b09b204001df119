import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from ghzsep.cli import main
from ghzsep.oracle import (
    _block_partition,
    _dense_witness_float,
    _maximize_partition,
    _phase_average_support,
    characteristic_check,
    dense_witness,
    max_sampled_product_value,
    maximize_over_product_states,
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


def split_monotonicity_check(n, L, finer, restarts=16, seed=42):
    """Float probe: splitting the L-qubit party into parties of size >= 2
    cannot raise the product-state maximum of tr(rho Q)."""
    if finer.n != n:
        raise ValueError("refinement must cover the same qubits")
    singles = sum(1 for s in finer.parts if s == 1)
    if singles != n - L:
        raise ValueError("refinement must keep exactly the original single-qubit parties")
    if sum(s for s in finer.parts if s >= 2) != L:
        raise ValueError("refined block parties must cover the L-qubit party")
    q = _dense_witness_float(n, L)
    coarse = _maximize_partition(q, _block_partition(n, L), restarts, seed)
    fine = _maximize_partition(q, finer, restarts, seed)
    return fine <= coarse + 1e-9


class TestPhaseAverage:
    def test_support_matches_four_k_loop(self):
        parts = [PartitionType((n,)) for n in range(1, 9)]
        parts += [part for n in range(2, 9) for k in range(2, min(n, 7) + 1)
                  for part in enumerate_partitions(n, k)]
        for part in parts:
            diag_val, off_entries = _phase_average_support(part)
            want_diag, want_off = four_k_support(part)
            assert (diag_val, set(off_entries)) == (want_diag, set(want_off)), part

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

    def test_verify_suite_finishes_at_the_guard(self):
        result = CliRunner().invoke(main, ["verify", "--suite", "phase-oracle", "--limits", "n=10"])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.output.splitlines()]
        assert len(records) == sum(
            len(enumerate_partitions(n, k)) for n in range(2, 11) for k in range(2, n + 1)
        )
        assert all(r["pass"] for r in records)


def per_row_correlations(n, p):
    """Every Pauli-string trace of the dense noisy GHZ state, each one a
    sweep over all 2^n basis states."""
    rho = to_dense(noisy_ghz(n, Fraction(p)))
    values = {}
    for idx in itertools.product(range(4), repeat=n):
        xmask = sum(1 << q for q, s in enumerate(idx) if s in (1, 2))
        zmask = sum(1 << q for q, s in enumerate(idx) if s in (2, 3))
        ycount = idx.count(2)
        trace = [Fraction(0)] * 4  # coefficients of 1, i, -1, -i
        for y in range(1 << n):
            trace[(ycount + 2 * (y & zmask).bit_count()) % 4] += rho[y ^ xmask][y]
        assert trace[1] == trace[3]
        values[idx] = trace[0] - trace[2]
    return values


class TestCharacteristic:
    def test_values_match_per_row_sweep(self):
        for n in range(2, 6):
            for p in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                rep = characteristic_check(n, p)
                want = per_row_correlations(n, p)
                assert rep.values == want
                assert rep.nonzero_count == sum(1 for v in want.values() if v)

    def test_three_qubit_pure_values(self):
        rep = characteristic_check(3, 1)
        assert rep.passed
        assert rep.values[(0, 3, 3)] == 1
        assert rep.values[(1, 2, 2)] == -1
        assert rep.values[(1, 1, 1)] == 1

    def test_two_qubit_pattern(self):
        p = Fraction(2, 5)
        rep = characteristic_check(2, p)
        assert rep.passed
        assert rep.values[(0, 0)] == 1
        assert rep.values[(3, 3)] == p
        assert rep.values[(1, 1)] == p
        assert rep.values[(2, 2)] == -p
        assert rep.values[(0, 3)] == 0

    def test_nonzero_count(self):
        rep = characteristic_check(4, Fraction(1, 2))
        assert rep.nonzero_count == 16
        assert rep.passed

    def test_noise_only_state(self):
        rep = characteristic_check(3, 0)
        assert rep.passed
        assert rep.nonzero_count == 1

    def test_small_sweep(self):
        for n in (2, 3, 4, 5):
            for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
                assert characteristic_check(n, p).passed


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


class TestProductStateSearch:
    def test_reaches_bound_4_2(self):
        assert maximize_over_product_states(4, 2, restarts=16, seed=3) == pytest.approx(2.0, abs=1e-9)

    def test_reaches_bound_5_3(self):
        assert maximize_over_product_states(5, 3, restarts=16, seed=3) == pytest.approx(2.5, abs=1e-9)

    def test_sampling_never_exceeds_bound(self):
        for n, L in [(4, 2), (5, 3)]:
            bound = float(sep_max(n, L))
            assert max_sampled_product_value(n, L, samples=2000, seed=5) <= bound + 1e-9

    def test_split_preserves_bound(self):
        assert split_monotonicity_check(6, 4, PartitionType.from_sizes([2, 2, 1, 1]), restarts=8)
        assert split_monotonicity_check(5, 4, PartitionType.from_sizes([2, 2, 1]), restarts=8)

    def test_split_identity_partition(self):
        assert split_monotonicity_check(4, 2, PartitionType.from_sizes([2, 1, 1]), restarts=8)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            split_monotonicity_check(6, 4, PartitionType.from_sizes([2, 2, 2]))
        with pytest.raises(ValueError):
            split_monotonicity_check(6, 4, PartitionType.from_sizes([3, 1, 1, 1]))


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
