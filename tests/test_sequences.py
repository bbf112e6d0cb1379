"""Tests for the sequence extension: PrefixSpan + subsequence classification."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers import LinearSVM
from repro.datasets import SequenceDataset, SequenceSpec, generate_sequences
from repro.features import SequencePatternClassifier
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


class TestSequenceDataset:
    def test_generation_deterministic(self):
        spec = SequenceSpec(name="s", n_rows=50, seed=9)
        a = generate_sequences(spec)
        b = generate_sequences(spec)
        assert a.sequences == b.sequences
        assert (a.labels == b.labels).all()

    def test_motifs_planted(self):
        spec = SequenceSpec(name="s", n_rows=400, motif_strength=1.0, seed=4)
        data, motifs = generate_sequences(spec, return_motifs=True)
        partition = data.class_partition()
        motif = motifs[0][0]
        hits = sum(1 for s in partition[0] if is_subsequence(motif, s))
        # With strength 1 and 2 motifs/class, ~half of class-0 rows embed it
        # (plus chance background hits).
        assert hits / len(partition[0]) > 0.3

    def test_misaligned_rejected(self):
        with pytest.raises(ValueError):
            SequenceDataset("x", [(0,)], np.array([0, 1]), 2, 2)

    def test_alphabet_check(self):
        with pytest.raises(ValueError):
            SequenceDataset("x", [(9,)], np.array([0]), alphabet_size=2, n_classes=1)


class TestSequenceClassifier:
    @pytest.fixture(scope="class")
    def data(self):
        return generate_sequences(
            SequenceSpec(name="seqcls", n_rows=400, seed=11)
        )

    def test_beats_chance(self, data):
        half = data.n_rows // 2
        train, test = data.subset(range(half)), data.subset(range(half, data.n_rows))
        model = SequencePatternClassifier(
            classifier=LinearSVM(), min_support=0.2, max_length=3
        ).fit(train)
        chance = max(np.bincount(test.labels)) / test.n_rows
        assert model.score(test) > chance + 0.1

    def test_selected_are_frequent(self, data):
        model = SequencePatternClassifier(min_support=0.3, max_length=3).fit(data)
        for pattern in model.selected_:
            hits = sum(
                1 for s in data.sequences if is_subsequence(pattern.sequence, s)
            )
            assert hits == pattern.support

    #: ``selected_`` of two seeded fits, as the per-candidate MMR loop chose
    #: them; the packed greedy core must reproduce them exactly.
    PINNED_SELECTIONS = [
        (
            dict(min_support=0.2, max_length=3, delta=3),
            [
                ((5, 0, 3), 122), ((3, 4, 4), 133), ((1, 3, 7), 147),
                ((1, 1, 6), 136), ((1, 0, 3), 106), ((5, 3, 7), 93),
                ((5, 0, 0), 77), ((5, 3), 212), ((6, 4, 4), 83),
                ((0, 3), 213), ((4, 4, 4), 85), ((5, 0, 7), 75),
                ((5, 5, 0), 66), ((0, 3, 7), 95), ((5, 3, 3), 101),
                ((6, 5, 3), 66), ((5, 5, 3), 77), ((4, 3, 3), 77),
                ((4, 4), 197), ((4, 3, 7), 84), ((6, 4, 6), 73),
                ((0, 0, 3), 80), ((6, 7, 7), 64), ((2, 2, 3), 64),
                ((7, 3, 7), 87), ((2, 4, 4), 83), ((5, 7, 2), 55),
                ((5, 5, 7), 67), ((5, 4, 4), 93), ((6, 3, 7), 90),
                ((1, 3), 253), ((7, 6, 4), 76), ((1, 4, 4), 109),
                ((4, 4, 1), 74), ((4, 4, 6), 84), ((3, 7), 221),
                ((5, 7), 170), ((4, 6), 186), ((1, 2, 7), 79),
                ((4, 0, 4), 75), ((6, 4), 178), ((1, 6, 6), 99),
                ((3, 4, 6), 98), ((0, 7), 174), ((6, 4, 1), 73),
                ((3, 3), 236), ((5, 2), 143), ((1, 6, 1), 94),
                ((6, 0, 7), 60), ((1, 1, 1), 111), ((1, 3, 3), 116),
                ((2, 6, 6), 69), ((7, 4, 6), 77), ((3, 4, 1), 86),
                ((1, 6), 228), ((1, 1, 4), 100), ((6, 6), 174),
                ((7, 1, 6), 98), ((2, 5, 6), 66), ((2, 1, 6), 87),
                ((3, 4, 2), 80), ((0, 1, 1), 86), ((7, 7, 6), 70),
                ((3, 4), 216), ((2, 4), 156), ((1, 1, 5), 92),
                ((3, 5, 4), 97), ((2, 1, 1), 78), ((3, 4, 7), 91),
                ((2, 4, 7), 69), ((3, 4, 5), 86), ((3, 6), 213),
                ((3, 0, 6), 75), ((1, 1), 233), ((4, 5), 160),
            ],
        ),
        (
            dict(min_support=0.3, max_length=3, delta=1, max_selected=None),
            [
                ((5, 0, 3), 122), ((3, 4, 4), 133), ((1, 3, 7), 147),
                ((1, 1, 6), 136), ((1, 0, 3), 106), ((5, 3, 7), 93),
                ((5, 0, 0), 77), ((5, 3), 212), ((6, 4, 4), 83),
                ((0, 3), 213), ((4, 4), 197), ((6, 3, 7), 90),
                ((1, 0, 7), 90), ((1, 3), 253), ((3, 7, 7), 99),
                ((5, 7), 170), ((3, 4, 6), 98), ((4, 6), 186),
                ((1, 6, 6), 99), ((0, 7), 174), ((1, 1, 1), 111),
                ((1, 6), 228), ((6, 6), 174), ((2, 4), 156),
                ((3, 4), 216), ((3, 6), 213), ((1, 1), 233),
            ],
        ),
    ]

    @pytest.mark.parametrize("params, expected", PINNED_SELECTIONS)
    def test_selection_pinned(self, data, params, expected):
        model = SequencePatternClassifier(**params).fit(data)
        assert [(p.sequence, p.support) for p in model.selected_] == expected

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SequencePatternClassifier(min_support=0.0)
        with pytest.raises(ValueError):
            SequencePatternClassifier(delta=0)

    def test_unfitted_predict(self, data):
        with pytest.raises(RuntimeError):
            SequencePatternClassifier().predict(data)
