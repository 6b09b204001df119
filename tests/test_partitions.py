import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzsep.partitions import (
    PartitionType,
    appendix_recursion_check,
    enumerate_partitions,
    format_partition,
    parse_partition,
    profile,
)


@lru_cache(maxsize=None)
def count_partitions(n, k):
    """Independent oracle: p(n, k) = p(n-1, k-1) + p(n-k, k)."""
    if k == 0:
        return 1 if n == 0 else 0
    if n < k:
        return 0
    return count_partitions(n - 1, k - 1) + count_partitions(n - k, k)


def brute_profile(parts):
    """Independent oracle: enumerate all 2^k sub-multisets."""
    n = sum(parts)
    counts = [0] * (n + 1)
    for r in range(len(parts) + 1):
        for combo in itertools.combinations(range(len(parts)), r):
            counts[sum(parts[i] for i in combo)] += 1
    return tuple(counts)


class TestPartitionType:
    def test_properties(self):
        p = PartitionType((4, 2, 2, 1, 1, 1))
        assert p.n == 11 and p.k == 6

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PartitionType((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            PartitionType((2, 0))
        with pytest.raises(ValueError):
            PartitionType(())

    def test_rejects_a_list(self):
        # a list would compare unequal to the parsed tuple and not hash
        with pytest.raises(ValueError, match="must be a tuple"):
            PartitionType([2, 1])
        assert PartitionType((2, 1)) == parse_partition("1|2")


class TestEnumerate:
    def test_six_three(self):
        got = [p.parts for p in enumerate_partitions(6, 3)]
        assert got == [(4, 1, 1), (3, 2, 1), (2, 2, 2)]

    def test_all_ones(self):
        assert [p.parts for p in enumerate_partitions(5, 5)] == [(1, 1, 1, 1, 1)]

    def test_seven_three(self):
        got = [p.parts for p in enumerate_partitions(7, 3)]
        assert got == [(5, 1, 1), (4, 2, 1), (3, 3, 1), (3, 2, 2)]

    def test_counts_match_recurrence(self):
        for n in range(1, 26):
            for k in range(1, n + 1):
                assert len(enumerate_partitions(n, k)) == count_partitions(n, k)

    def test_unique_and_valid(self):
        for n in range(2, 13):
            for k in range(1, n + 1):
                ps = enumerate_partitions(n, k)
                assert len(set(ps)) == len(ps)
                for p in ps:
                    assert p.n == n and p.k == k

    def test_descending_order(self):
        parts = [p.parts for p in enumerate_partitions(12, 4)]
        assert parts == sorted(parts, reverse=True)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            enumerate_partitions(3, 4)
        with pytest.raises(ValueError):
            enumerate_partitions(3, 0)

    @pytest.mark.parametrize("n, k, name", [(6, True, "k"), (True, 1, "n"), (6.5, 3, "n"),
                                            (6.0, 3, "n"), (6, 3.0, "k"), ("6", 3, "n"),
                                            (None, 2, "n")],
                             ids=["6-True", "True-1", "6.5-3", "6.0-3", "6-3.0", "6-3", "None-2"])
    def test_counts_that_are_not_ints(self, n, k, name):
        # a bool is an int subclass, but no count; the error names the
        # first argument that breaks the rule
        with pytest.raises(ValueError, match=f"need an integer {name}, got "):
            enumerate_partitions(n, k)

    def test_ordered_by_parts(self):
        parts = [p.parts for p in enumerate_partitions(7, 3)]
        assert sorted(parts) == parts[::-1]


class TestGrammar:
    def test_parse_with_repeats(self):
        p = parse_partition("1^3|2^2|4")
        assert p.parts == (4, 2, 2, 1, 1, 1) and p.n == 11 and p.k == 6

    def test_parse_plain(self):
        assert parse_partition("2^3").parts == (2, 2, 2)

    def test_parse_sorts(self):
        assert parse_partition("1|3|2").parts == (3, 2, 1)

    def test_format_canonicalizes(self):
        assert format_partition(PartitionType((3, 2, 2))) == "2^2|3"
        assert str(parse_partition("3|2|2")) == "2^2|3"

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
    def test_round_trip(self, sizes):
        p = PartitionType(tuple(sorted(sizes, reverse=True)))
        assert parse_partition(format_partition(p)) == p

    @pytest.mark.parametrize(
        "text", ["", "   ", "0", "2^0", "a|b", "3^", "1||2", "-1", "2^-1"]
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)


class TestProfile:
    def test_known_interiors(self):
        assert profile(parse_partition("1|2|3"))[1:-1] == (1, 1, 2, 1, 1)
        assert profile(parse_partition("2^3"))[1:-1] == (0, 3, 0, 3, 0)
        assert profile(parse_partition("1|1|2"))[1:-1] == (2, 2, 2)

    def test_endpoints_and_total(self):
        for n in range(2, 11):
            for k in range(1, n + 1):
                for p in enumerate_partitions(n, k):
                    f = profile(p)
                    assert f[0] == 1 and f[n] == 1
                    assert sum(f) == 2**k
                    assert all(f[i] == f[n - i] for i in range(n + 1))

    def test_full_separability_limit_is_binomial(self):
        p = PartitionType((1,) * 9)
        assert profile(p) == tuple(math.comb(9, i) for i in range(10))

    def test_matches_subset_enumeration(self):
        for n in range(2, 12):
            for k in range(1, n + 1):
                for p in enumerate_partitions(n, k):
                    assert profile(p) == brute_profile(p.parts)

    def test_wide_partition_against_enumeration(self):
        p = PartitionType((2,) * 8)  # k = 8, 256 subsets
        assert profile(p) == brute_profile(p.parts)


class TestAppendixRecursion:
    def test_bipartition_grows(self):
        p = parse_partition("1|4")  # n = 5
        assert appendix_recursion_check(p, 2)

    def test_tripartition_boundary(self):
        p = parse_partition("1|2^2")  # n = 5, interior (1, 2, 2, 1)
        assert profile(p)[1:-1] == (1, 2, 2, 1)
        assert appendix_recursion_check(p, 2)

    def test_adjacent_block_tripartition(self):
        p = parse_partition("1|3|4")  # n = 8; block sums collide at weight 4
        f = profile(p)
        assert f[3] == f[5] == 1 and f[4] == 2
        assert appendix_recursion_check(p, 3)

    def test_spread_tripartition(self):
        p = parse_partition("1|2|5")  # n = 8, all interior sectors at most 1
        f = profile(p)
        assert max(f[2:7]) == 1
        assert appendix_recursion_check(p, 3)

    def test_requires_single_qubit_party(self):
        with pytest.raises(ValueError):
            appendix_recursion_check(parse_partition("2|3"), 2)

    def test_requires_block_of_two(self):
        with pytest.raises(ValueError):
            appendix_recursion_check(parse_partition("1|4"), 1)

    def test_sweep_small_partitions(self):
        for n in range(3, 9):
            for k in range(2, n + 1):
                for p in enumerate_partitions(n, k):
                    if 1 in p.parts:
                        for l in (2, 3, 5):
                            assert appendix_recursion_check(p, l)
