"""Differential suite: the packed, epoch-scanning MMRFS loop against the
dense one-round-per-candidate oracle (``tests/oracles/mmrfs_dense.py``).

Ties come from duplicated coverage rows and repeated relevances; the scan
chunk is shrunk to 1-3 candidates so ties straddle chunk boundaries, and
the compaction threshold is varied so the live arrays are compacted on
every acceptance, never, or at the default share.  Relevances include
``inf``, ``-inf``, NaN and negative values, which drive the loop's
non-finite stops.  Every comparison is exact.
"""

import importlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bitset import pack_bits
from repro.datasets import TransactionDataset
from repro.measures import information_gain
from repro.mining import Pattern, mine_class_patterns
from repro.obs.core import session
from repro.selection.mmrfs import _greedy, mmrfs, top_k_by_relevance
from tests.oracles.mmrfs_dense import dense_greedy, mmrfs_dense
from tests.oracles.scoring import to_stats

# The package re-exports the function under the module's name.
mmrfs_module = importlib.import_module("repro.selection.mmrfs")

CHUNKS = st.sampled_from([1, 2, 3, mmrfs_module._SCAN_CHUNK])
COMPACT_BELOW = st.sampled_from([0.0, mmrfs_module._COMPACT_BELOW, 1.0])
SPECIAL = [math.inf, -math.inf, math.nan, -0.5, 0.0]


def _floats(values):
    """Exact comparison that treats NaN as equal to NaN."""
    return ["nan" if value != value else value for value in values]


def _patched(chunk, compact_below):
    return mock.patch.multiple(
        mmrfs_module, _SCAN_CHUNK=chunk, _COMPACT_BELOW=compact_below
    )


@st.composite
def greedy_inputs(draw):
    """Random coverage with duplicated rows, labels, majorities, relevances."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_rows = draw(st.integers(1, 130))
    n_classes = draw(st.integers(1, 3))
    n_unique = draw(st.integers(1, 24))
    density = draw(st.floats(0.05, 0.95))
    coverage = rng.random((n_unique, n_rows)) < density
    relevances = rng.random(n_unique) * draw(st.sampled_from([1.0, 1e-3]))
    # Duplicate rows: same coverage, same relevance, so equal gains.
    copies = rng.integers(0, n_unique, draw(st.integers(0, 16)))
    coverage = np.vstack([coverage, coverage[copies]])
    relevances = np.concatenate([relevances, relevances[copies]])
    order = rng.permutation(len(relevances))
    coverage, relevances = coverage[order], relevances[order]
    n_special = draw(st.integers(0, 3))
    for index in rng.integers(0, len(relevances), n_special):
        relevances[index] = SPECIAL[rng.integers(len(SPECIAL))]
    labels = rng.integers(0, n_classes, n_rows)
    majority = rng.integers(0, n_classes, len(relevances))
    correct = coverage & (majority[:, np.newaxis] == labels)
    delta = draw(st.integers(1, 5))
    max_selected = draw(st.one_of(st.none(), st.integers(1, 12)))
    return coverage, correct, relevances, delta, max_selected


# inf - inf and 0 * inf are part of what is being tested.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class TestGreedyCoreMatchesOracle:
    @settings(max_examples=300, deadline=None)
    @given(inputs=greedy_inputs(), chunk=CHUNKS, compact_below=COMPACT_BELOW)
    def test_exactly_the_dense_loop(self, inputs, chunk, compact_below):
        coverage, correct, relevances, delta, max_selected = inputs
        supports = coverage.sum(axis=1)
        expected = dense_greedy(
            coverage, correct, supports, relevances, delta, max_selected
        )
        with _patched(chunk, compact_below):
            run = _greedy(
                pack_bits(coverage),
                pack_bits(correct),
                supports,
                relevances,
                coverage.shape[1],
                delta,
                max_selected,
            )
        assert run.chosen == expected.chosen
        assert _floats(run.gains) == _floats(expected.gains)
        assert np.array_equal(run.coverage_counts, expected.coverage_counts)
        assert run.rounds == expected.rounds
        assert run.rejected == expected.rejected
        assert run.covered_rows == expected.covered_rows

    def test_tie_straddling_the_chunk_goes_to_lowest_index(self):
        """After the seed, four candidates tie at gain 0.4 and the chunk
        holds 1: the two that cannot advance coverage are rejected and the
        lowest useful index wins."""
        coverage = np.array(
            [[1, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
            dtype=bool,
        )
        correct = coverage.copy()
        relevances = np.array([1.0, 0.8, 0.8, 0.4, 0.4])
        expected = dense_greedy(
            coverage, correct, coverage.sum(axis=1), relevances, 1, None
        )
        with _patched(1, mmrfs_module._COMPACT_BELOW):
            run = _greedy(
                pack_bits(coverage), pack_bits(correct), coverage.sum(axis=1),
                relevances, 4, 1, None,
            )
        assert run.chosen == expected.chosen == [0, 3]
        assert run.rejected == expected.rejected == 2

    def test_nan_among_live_gains_stops_after_one_round(self):
        """argmax seeds with the NaN relevance; every gain is then NaN."""
        coverage = np.array([[1, 0], [0, 1], [0, 1]], dtype=bool)
        relevances = np.array([1.0, 0.5, math.nan])
        expected = dense_greedy(
            coverage, coverage, coverage.sum(axis=1), relevances, 1, None
        )
        run = _greedy(
            pack_bits(coverage), pack_bits(coverage), coverage.sum(axis=1),
            relevances, 2, 1, None,
        )
        assert run.chosen == expected.chosen == [2]
        assert run.rounds == expected.rounds == 1

    def test_no_candidates(self):
        empty = np.zeros((0, 5), dtype=bool)
        run = _greedy(
            pack_bits(empty), pack_bits(empty), np.zeros(0, dtype=np.int64),
            np.zeros(0), 5, 1, None,
        )
        assert run.chosen == [] and run.rounds == 0
        assert np.array_equal(run.coverage_counts, np.zeros(5))


@st.composite
def selection_problems(draw):
    """A random transaction set and candidate patterns, duplicates included."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_items = draw(st.integers(2, 8))
    n_rows = draw(st.integers(3, 90))
    n_classes = draw(st.integers(2, 3))
    transactions = [
        tuple(np.flatnonzero(rng.random(n_items) < 0.5).tolist())
        for _ in range(n_rows)
    ]
    labels = rng.integers(0, n_classes, n_rows)
    labels[:n_classes] = np.arange(n_classes)
    data = TransactionDataset(transactions, labels, n_items=n_items)
    patterns = []
    for _ in range(draw(st.integers(1, 30))):
        size = int(rng.integers(1, min(3, n_items) + 1))
        items = tuple(sorted(rng.choice(n_items, size=size, replace=False).tolist()))
        patterns.append(Pattern(items=items, support=data.support_count(items)))
    patterns += [patterns[i] for i in rng.integers(0, len(patterns), 5)]
    return data, patterns


class _SpecialRelevance:
    """IG mixed with inf, NaN and negatives, scored one table at a time."""

    def __init__(self, salt):
        self.salt = salt

    def _score(self, stats):
        bucket = (stats.support * 7 + stats.present[0] + self.salt) % 13
        if bucket == 0:
            return math.inf
        if bucket == 1:
            return math.nan
        if bucket in (2, 3):
            return -information_gain(stats)
        return information_gain(stats)

    def batch(self, tables):
        return np.array([self._score(s) for s in to_stats(tables)])


class TestMMRFSMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        problem=selection_problems(),
        relevance=st.one_of(
            st.sampled_from(["information_gain", "fisher"]),
            st.integers(0, 12).map(_SpecialRelevance),
        ),
        delta=st.integers(1, 5),
        max_selected=st.one_of(st.none(), st.integers(1, 10)),
        chunk=CHUNKS,
        compact_below=COMPACT_BELOW,
    )
    def test_exactly_the_dense_engine(
        self, problem, relevance, delta, max_selected, chunk, compact_below
    ):
        data, patterns = problem
        expected, run = mmrfs_dense(
            patterns, data, relevance=relevance, delta=delta,
            max_selected=max_selected,
        )
        with _patched(chunk, compact_below), session() as sess:
            result = mmrfs(
                patterns, data, relevance=relevance, delta=delta,
                max_selected=max_selected,
            )
        assert [f.pattern for f in result.selected] == [
            f.pattern for f in expected.selected
        ]
        assert [f.order for f in result.selected] == [
            f.order for f in expected.selected
        ]
        assert _floats([f.gain for f in result.selected]) == _floats(
            [f.gain for f in expected.selected]
        )
        assert _floats([f.relevance for f in result.selected]) == _floats(
            [f.relevance for f in expected.selected]
        )
        assert np.array_equal(result.coverage_counts, expected.coverage_counts)
        counters = sess.counters
        assert counters["selection.mmrfs.rounds"] == run.rounds
        assert counters["selection.mmrfs.accepted"] == len(run.chosen)
        assert counters["selection.mmrfs.rejected"] == run.rejected
        assert sess.series["selection.mmrfs.covered_rows"] == run.covered_rows


@st.composite
def mined_problems(draw):
    """A random labelled transaction set and its mined candidate table."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_items = draw(st.integers(3, 9))
    n_rows = draw(st.integers(4, 80))
    n_classes = draw(st.integers(2, 3))
    transactions = [
        tuple(np.flatnonzero(rng.random(n_items) < 0.55).tolist())
        for _ in range(n_rows)
    ]
    labels = rng.integers(0, n_classes, n_rows)
    labels[:n_classes] = np.arange(n_classes)
    data = TransactionDataset(transactions, labels, n_items=n_items)
    mined = mine_class_patterns(
        data,
        min_support=draw(st.floats(0.1, 0.6)),
        miner=draw(st.sampled_from(["closed", "all"])),
        max_length=draw(st.sampled_from([None, 3])),
    )
    return data, mined


class TestTableInputMatchesPatternList:
    """``mmrfs`` over the mined table reads its counts; over the table's
    patterns it counts them on entry.  Both runs are the same run."""

    @settings(max_examples=80, deadline=None)
    @given(
        problem=mined_problems(),
        relevance=st.sampled_from(["information_gain", "fisher", "chi2"]),
        delta=st.integers(1, 4),
    )
    def test_same_selection_and_counters(self, problem, relevance, delta):
        data, mined = problem
        runs = []
        for candidates in (mined, list(mined.patterns)):
            with session() as sess:
                result = mmrfs(candidates, data, relevance=relevance, delta=delta)
            runs.append((result, sess.counters))
        (table_run, table_counters), (list_run, list_counters) = runs
        assert table_run.patterns == list_run.patterns
        assert _floats([f.gain for f in table_run.selected]) == _floats(
            [f.gain for f in list_run.selected]
        )
        assert _floats([f.relevance for f in table_run.selected]) == _floats(
            [f.relevance for f in list_run.selected]
        )
        assert np.array_equal(table_run.coverage_counts, list_run.coverage_counts)
        assert table_run.considered == list_run.considered
        for name in ("selection.mmrfs.rounds", "selection.mmrfs.rejected"):
            assert table_counters.get(name) == list_counters.get(name)
        top_table = top_k_by_relevance(mined, data, k=5, relevance=relevance)
        top_list = top_k_by_relevance(
            list(mined.patterns), data, k=5, relevance=relevance
        )
        assert top_table.patterns == top_list.patterns
        assert np.array_equal(top_table.coverage_counts, top_list.coverage_counts)
