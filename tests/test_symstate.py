import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzsep.partitions import PartitionType, enumerate_partitions, parse_partition
from ghzsep.symstate import (
    PadResult,
    SymState,
    mix,
    noisy_ghz,
    pad_to_isotropic,
    partition_average_state,
    to_dense,
)

probs = st.fractions(min_value=0, max_value=1, max_denominator=32)


class TestNoisyGhz:
    def test_pure_ghz(self):
        s = noisy_ghz(3, 1)
        assert s.alpha == Fraction(1, 2)
        assert s.d == (Fraction(1, 2), 0, 0, Fraction(1, 2))

    def test_maximally_mixed(self):
        s = noisy_ghz(3, 0)
        assert s.alpha == 0
        assert all(x == Fraction(1, 8) for x in s.d)

    def test_intermediate_noise(self):
        s = noisy_ghz(3, Fraction(3, 7))
        assert s.alpha == Fraction(3, 14)
        assert s.d[0] == s.d[3] == Fraction(2, 7)
        assert s.d[1] == s.d[2] == Fraction(1, 14)

    @given(probs, st.integers(min_value=2, max_value=9))
    def test_trace_one_and_psd(self, p, n):
        s = noisy_ghz(n, p)
        assert s.trace() == 1
        assert s.is_psd()

    def test_rejects_bad_weight(self):
        with pytest.raises(ValueError):
            noisy_ghz(3, Fraction(8, 7))

    @pytest.mark.parametrize("p", [float("inf"), float("-inf"), None])
    def test_rejects_a_weight_that_is_not_a_number(self, p):
        with pytest.raises(ValueError):
            noisy_ghz(3, p)

    @pytest.mark.parametrize("p", ["1/2", "0.5", float("nan")])
    def test_strings_and_nan_are_not_numbers(self, p):
        with pytest.raises(ValueError, match=re.escape(f"need a finite number for p, got {p!r}")):
            noisy_ghz(3, p)

    def test_decimal_is_read_exactly(self):
        assert noisy_ghz(3, Decimal("0.5")) == noisy_ghz(3, 0.5) == noisy_ghz(3, Fraction(1, 2))

    def test_rejects_a_single_qubit(self):
        with pytest.raises(ValueError, match="need n >= 2, got 1"):
            noisy_ghz(1, 0)

    def test_state_shape_is_checked(self):
        with pytest.raises(ValueError, match="need n >= 1, got 0"):
            SymState(Fraction(0), (Fraction(1),))

    def test_diagonal_is_a_tuple(self):
        with pytest.raises(ValueError, match="d must be a tuple, got list"):
            SymState(Fraction(0), [Fraction(1, 2), Fraction(1, 2)])

    def test_qubit_count_is_read_from_the_diagonal(self):
        assert SymState.fields == ("alpha", "d")
        s = SymState(Fraction(0), (Fraction(1, 2), Fraction(1, 2)))
        assert s.n == 1 and s.trace() == 1
        g = noisy_ghz(3, 0)
        with pytest.raises(TypeError, match="SymState takes the fields alpha, d, got 3 values"):
            SymState(g.alpha, g.d, 4)


class TestPartitionAverage:
    def test_pair_plus_singles(self):
        s = partition_average_state(parse_partition("1^2|2"))
        assert s.alpha == Fraction(1, 8)
        assert s.d[1] == s.d[3] == Fraction(1, 16)
        assert s.d[2] == Fraction(1, 24)

    def test_three_pairs(self):
        s = partition_average_state(parse_partition("2^3"))
        assert s.d[1] == s.d[5] == 0
        assert s.d[2] == s.d[4] == Fraction(1, 40)
        assert s.d[3] == 0

    def test_bipartition_support(self):
        s = partition_average_state(parse_partition("1|4"))
        assert s.d[1:5] == (Fraction(1, 20), 0, 0, Fraction(1, 20))

    def test_trace_one_everywhere(self):
        for n in range(2, 10):
            for k in range(2, n + 1):
                for p in enumerate_partitions(n, k):
                    s = partition_average_state(p)
                    assert s.trace() == 1
                    assert s.is_psd()
                    assert s.d[0] == s.d[n] == s.alpha

    def test_single_party_rejected(self):
        with pytest.raises(ValueError):
            partition_average_state(PartitionType((4,)))


class TestMix:
    def test_single_state_identity(self):
        s = noisy_ghz(4, Fraction(1, 3))
        assert mix([s], [1]) == s

    def test_known_mixture_coefficients(self):
        a = partition_average_state(parse_partition("1|2|3"))
        b = partition_average_state(parse_partition("2^3"))
        m = mix([a, b], [Fraction(2, 3), Fraction(1, 3)])
        assert m.d[1] == m.d[2] == Fraction(1, 72)
        assert m.d[3] == Fraction(1, 120)
        assert max(m.d[1:6]) == Fraction(1, 72)

    @given(probs, probs)
    def test_linearity_on_noise(self, p1, p2):
        m = mix([noisy_ghz(4, p1), noisy_ghz(4, p2)], [Fraction(1, 2), Fraction(1, 2)])
        assert m == noisy_ghz(4, (p1 + p2) / 2)

    def test_rejects_bad_weights(self):
        s = noisy_ghz(3, 0)
        with pytest.raises(ValueError):
            mix([s, s], [Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(ValueError):
            mix([s, s], [Fraction(3, 2), Fraction(-1, 2)])
        with pytest.raises(ValueError, match="need one weight per state"):
            mix([s], [Fraction(1, 2), Fraction(1, 2)])

    @pytest.mark.parametrize("bad", [float("inf"), None])
    def test_weight_that_is_not_a_finite_number(self, bad):
        s = noisy_ghz(3, 0)
        with pytest.raises(ValueError, match="need a finite number for a weight"):
            mix([s, noisy_ghz(3, 1)], [bad, 0])

    def test_rejects_mismatched_sizes(self):
        with pytest.raises(ValueError):
            mix([noisy_ghz(3, 0), noisy_ghz(4, 0)], [Fraction(1, 2), Fraction(1, 2)])

    @pytest.mark.parametrize("states, weights, message", [
        ([noisy_ghz(3, 0)], None, "need a sequence for the weights, got None"),
        (None, [1], "need a sequence for the states, got None"),
        ([noisy_ghz(3, 0)], 1, "need a sequence for the weights, got 1"),
        ([noisy_ghz(3, 0)], ["1"], "need a finite number for a weight, got '1'"),
    ])
    def test_non_sequences_are_bad_input(self, states, weights, message):
        with pytest.raises(ValueError, match=message):
            mix(states, weights)

    def test_generators_equal_tuples(self):
        states = (noisy_ghz(4, Fraction(1, 3)), partition_average_state(parse_partition("2^2")))
        weights = (0.25, Fraction(3, 4))
        want = mix(states, weights)
        assert mix(iter(states), iter(weights)) == want
        assert mix(list(states), (w for w in weights)) == want


class TestPadToIsotropic:
    def test_optimal_tripartite_mixture(self):
        a = partition_average_state(parse_partition("1|2|3"))
        b = partition_average_state(parse_partition("2^3"))
        res = pad_to_isotropic(mix([a, b], [Fraction(2, 3), Fraction(1, 3)]))
        assert res.tau == 9
        assert res.p_s == Fraction(9, 41)

    def test_pair_partition_six_qubits(self):
        res = pad_to_isotropic(partition_average_state(parse_partition("1^4|2")))
        assert res.p_s == Fraction(3, 67)

    def test_full_separability(self):
        for n in range(2, 9):
            res = pad_to_isotropic(partition_average_state(PartitionType((1,) * n)))
            assert res.tau == 1
            assert res.p_s == Fraction(1, 1 + 2 ** (n - 1))

    def test_pair_ladder_closed_form(self):
        for n in range(3, 15):
            for j in range(1, (n - 1) // 2 + 1):
                p = PartitionType((2,) * j + (1,) * (n - 2 * j))
                res = pad_to_isotropic(partition_average_state(p))
                assert res.p_s == Fraction(n, n + (n - 2 * j) * 2 ** (n - 1))

    def test_padded_equals_noisy_ghz(self):
        for n in range(2, 9):
            for k in range(2, n + 1):
                for p in enumerate_partitions(n, k):
                    res = pad_to_isotropic(partition_average_state(p))
                    assert res.padded == noisy_ghz(n, res.p_s)
                    assert res.padded.is_psd()

    def test_threshold_is_read_from_the_padded_state(self):
        res = pad_to_isotropic(partition_average_state(parse_partition("1^2|2^2")))
        assert PadResult.fields == ("padded",)
        assert (res.tau, res.p_s) == (3, Fraction(3, 35))
        assert PadResult(res.padded) == res
        with pytest.raises(TypeError, match="PadResult takes the fields padded, got 2 values"):
            PadResult(res.padded, Fraction(99))

    @pytest.mark.parametrize("state", [
        partition_average_state(parse_partition("1^2|2^2")),
        noisy_ghz(4, 0),
        noisy_ghz(4, 1),
        SymState(Fraction(1, 8), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 2))),
    ], ids=["not-padded", "no-coherence", "pure-ghz", "not-normalized"])
    def test_padded_state_must_be_noisy_ghz(self, state):
        with pytest.raises(ValueError, match="noisy GHZ state with 0 < p < 1"):
            PadResult(state)

    def test_rejects_states_without_coherence(self):
        with pytest.raises(ValueError):
            pad_to_isotropic(noisy_ghz(4, 0))

    def test_rejects_states_without_interior_weight(self):
        # the pure GHZ state has nothing between its corners to pad against
        with pytest.raises(ValueError, match="no interior diagonal weight to pad against"):
            pad_to_isotropic(noisy_ghz(4, 1))

    @pytest.mark.parametrize("d", [
        (Fraction(1, 2), Fraction(1, 10), Fraction(3, 10)),
        (Fraction(3, 10), Fraction(1, 10), Fraction(1, 2)),
    ], ids=["first-endpoint", "last-endpoint"])
    def test_endpoint_above_the_envelope(self, d):
        # alpha + t = 1/5, below the larger endpoint 1/2
        with pytest.raises(ValueError, match="not dominated by its isotropic envelope"):
            pad_to_isotropic(SymState(Fraction(1, 10), d))

    def test_rejects_negative_padding(self):
        # endpoint weight above alpha + t cannot be padded away
        s = SymState(Fraction(1, 8), (Fraction(1, 2), Fraction(1, 100),
                                      Fraction(1, 100), Fraction(1, 2)))
        with pytest.raises(ValueError):
            pad_to_isotropic(s)


class TestToDense:
    def test_two_qubit_bell_projector(self):
        rho = to_dense(noisy_ghz(2, 1))
        h = Fraction(1, 2)
        assert rho == [
            [h, 0, 0, h],
            [0, 0, 0, 0],
            [0, 0, 0, 0],
            [h, 0, 0, h],
        ]

    def test_trace_matches(self):
        for n in (2, 3, 5):
            s = partition_average_state(enumerate_partitions(n, 2)[0])
            rho = to_dense(s)
            assert sum(rho[x][x] for x in range(2**n)) == s.trace()

    def test_diagonal_depends_on_weight_only(self):
        s = noisy_ghz(3, Fraction(1, 3))
        rho = to_dense(s)
        for x in range(8):
            assert rho[x][x] == s.d[bin(x).count("1")]

    def test_size_guard(self):
        with pytest.raises(ValueError):
            to_dense(SymState(Fraction(1, 2), (Fraction(0),) * 14))
