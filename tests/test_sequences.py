"""Tests for PrefixSpan, the subsequence miner behind ``repro diagnose --sequences``."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining import PatternBudgetExceeded, is_subsequence, prefixspan


def brute_force_subsequences(sequences, min_support, max_length=4):
    """Reference miner: enumerate all subsequences up to max_length."""
    from itertools import combinations

    candidates = set()
    for sequence in sequences:
        for length in range(1, min(max_length, len(sequence)) + 1):
            for positions in combinations(range(len(sequence)), length):
                candidates.add(tuple(sequence[i] for i in positions))
    result = {}
    for candidate in candidates:
        support = sum(1 for s in sequences if is_subsequence(candidate, s))
        if support >= min_support:
            result[candidate] = support
    return result


class TestIsSubsequence:
    def test_basic(self):
        assert is_subsequence((1, 3), (1, 2, 3))
        assert not is_subsequence((3, 1), (1, 2, 3))
        assert is_subsequence((), (1, 2))
        assert not is_subsequence((1,), ())

    def test_repeated_items(self):
        assert is_subsequence((2, 2), (2, 1, 2))
        assert not is_subsequence((2, 2), (2, 1, 3))


class TestPrefixSpan:
    SEQUENCES = [
        (0, 1, 2, 3),
        (0, 2, 1, 3),
        (1, 0, 2),
        (3, 2, 1),
        (0, 1, 3),
    ]

    def test_matches_brute_force(self):
        for min_support in (1, 2, 3):
            mined = {
                p.sequence: p.support
                for p in prefixspan(self.SEQUENCES, min_support, max_length=4)
            }
            expected = brute_force_subsequences(self.SEQUENCES, min_support, 4)
            assert mined == expected

    def test_min_support_validation(self):
        with pytest.raises(ValueError):
            prefixspan([(0,)], 0)

    def test_max_length(self):
        mined = prefixspan(self.SEQUENCES, 1, max_length=2)
        assert all(p.length <= 2 for p in mined)

    def test_budget(self):
        with pytest.raises(PatternBudgetExceeded):
            prefixspan(self.SEQUENCES, 1, max_patterns=3)

    def test_support_antimonotone_in_prefix(self):
        mined = {p.sequence: p.support for p in prefixspan(self.SEQUENCES, 1)}
        for sequence, support in mined.items():
            if len(sequence) > 1:
                assert mined[sequence[:-1]] >= support

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.integers(0, 4), min_size=0, max_size=6),
            min_size=1,
            max_size=10,
        ),
        min_support=st.integers(1, 3),
    )
    def test_property_matches_brute_force(self, data, min_support):
        sequences = [tuple(s) for s in data]
        mined = {
            p.sequence: p.support
            for p in prefixspan(sequences, min_support, max_length=3)
        }
        expected = brute_force_subsequences(sequences, min_support, 3)
        assert mined == expected
