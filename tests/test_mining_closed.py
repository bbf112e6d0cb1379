"""Order-sensitive tests for the LCM-style closed miner.

The charm and brute-force suites compare *sets* of closed patterns; these
tests pin what they cannot see: the depth-first output order, which
``max_length`` and ``max_patterns`` depend on, the exact output on two
registry datasets (a checked-in golden digest), the search profile (the
``mining.closed.*`` counters) on the same two, and that none of it depends
on how many nodes one search step expands.

Regenerate the golden file, only when the miner's output is *meant* to
change, with ``PYTHONPATH=src python tests/test_mining_closed.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_uci
from repro.datasets.transactions import TransactionDataset
from repro.mining import PatternBudgetExceeded, closed, closed_fpgrowth
from repro.obs.core import session
from repro.selection.minsup import suggest_min_support

GOLDEN_PATH = Path(__file__).parent / "data" / "closed_golden_v1.json"

#: name -> (registry dataset, scale, relative min_sup or "auto" for theta*
#: at the pipeline's default ig0 = 0.05, max_length).
GOLDEN_CASES = {
    "chess": ("chess", 0.25, 0.3, 4),
    "austral": ("austral", 1.0, "auto", 5),
}

COUNTERS = ("patterns", "closure_checks", "support_pruned", "prefix_pruned")

#: The ``mining.closed.*`` counters (in ``COUNTERS`` order) of each golden
#: case's class partitions, in label order, as the recursive depth-first
#: miner recorded them before the search was batched: equal counters mean
#: the same closure checks and the same pruning, not just the same output.
GOLDEN_COUNTERS = {
    "chess": [(18680, 19513, 34184, 299), (27157, 28347, 30210, 167)],
    "austral": [(10379, 11862, 15363, 1380), (9553, 11214, 13702, 1514)],
}

# Five rows over items 0-2 at min_support 2: the closed sets are the three
# single items (supports 4/3/3) and the three pairs (2 each).
HAND_TRANSACTIONS = [(0, 1, 2), (0, 1), (0, 2), (1, 2), (0,)]


def _pairs(result):
    return [(p.items, p.support) for p in result.patterns]


def _profiled(transactions, min_support, **kwargs):
    """The result, or the budget exception, and the four counters."""
    with session() as sess:
        try:
            outcome = closed_fpgrowth(transactions, min_support, **kwargs)
        except PatternBudgetExceeded as exc:
            outcome = exc
    return outcome, tuple(sess.counters.get(f"mining.closed.{n}", 0) for n in COUNTERS)


@st.composite
def databases(draw):
    """Random dense-ish transaction databases and an absolute min_sup."""
    n_items = draw(st.integers(min_value=1, max_value=9))
    n_rows = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.floats(min_value=0.2, max_value=0.9))
    rng = np.random.default_rng(seed)
    transactions = [
        tuple(int(i) for i in np.flatnonzero(rng.random(n_items) < density))
        for _ in range(n_rows)
    ]
    min_support = draw(st.integers(min_value=1, max_value=max(1, n_rows // 2)))
    return transactions, min_support


class TestMaxLengthDifferential:
    @settings(max_examples=150, deadline=None)
    @given(db=databases())
    def test_bounded_run_is_filtered_unbounded_run(self, db):
        """Same patterns, same supports, same order as the length filter."""
        transactions, min_support = db
        full = _pairs(closed_fpgrowth(transactions, min_support))
        for max_length in range(1, 6):
            bounded = closed_fpgrowth(
                transactions, min_support, max_length=max_length
            )
            expected = [(items, s) for items, s in full if len(items) <= max_length]
            assert _pairs(bounded) == expected

    @settings(max_examples=100, deadline=None)
    @given(db=databases(), max_length=st.sampled_from([None, 1, 2, 3, 4, 5]))
    def test_budget_trips_at_the_same_pattern(self, db, max_length):
        transactions, min_support = db
        total = len(
            closed_fpgrowth(transactions, min_support, max_length=max_length).patterns
        )
        for budget in sorted({0, total // 2, max(0, total - 1)}):
            if budget >= total:
                continue
            with pytest.raises(PatternBudgetExceeded) as info:
                closed_fpgrowth(
                    transactions,
                    min_support,
                    max_length=max_length,
                    max_patterns=budget,
                )
            assert info.value.emitted == budget + 1
        # Exactly the pattern count mines cleanly.
        exact = closed_fpgrowth(
            transactions, min_support, max_length=max_length, max_patterns=total
        )
        assert len(exact.patterns) == total


def golden_partitions(name, scale, min_support):
    """``(label, transactions, absolute min_sup)`` per class partition, in
    label order — the partitioning and ceil rounding of
    ``mine_class_patterns``."""
    data = TransactionDataset.from_dataset(load_uci(name, scale=scale))
    if min_support == "auto":
        theta = suggest_min_support(data.labels, 0.05).theta
        min_support = max(theta, 1.0 / data.n_rows)
    for label, transactions in sorted(data.class_partition().items()):
        absolute = max(1, int(-(-min_support * len(transactions) // 1)))
        yield label, transactions, absolute


def golden_digest(name, scale, min_support, max_length):
    """Per class partition: row count, absolute min_sup, and the sha256 and
    length of the ordered ``(items, support)`` list ``closed_fpgrowth``
    emits."""
    partitions = []
    for label, transactions, absolute in golden_partitions(name, scale, min_support):
        result = closed_fpgrowth(transactions, absolute, max_length=max_length)
        ordered = json.dumps(
            [[list(p.items), p.support] for p in result.patterns],
            separators=(",", ":"),
        )
        partitions.append(
            {
                "label": int(label),
                "rows": len(transactions),
                "min_support": absolute,
                "patterns": len(result.patterns),
                "sha256": hashlib.sha256(ordered.encode()).hexdigest(),
            }
        )
    return partitions


class TestGoldenOutput:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_matches_golden_fixture(self, case):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden_digest(*GOLDEN_CASES[case]) == golden[case]


class TestSearchProfile:
    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_counters_match_depth_first_search(self, case):
        name, scale, min_support, max_length = GOLDEN_CASES[case]
        profile = [
            _profiled(transactions, absolute, max_length=max_length)[1]
            for _, transactions, absolute in golden_partitions(name, scale, min_support)
        ]
        assert profile == GOLDEN_COUNTERS[case]


class TestBudgetTrip:
    def test_root_closure_trips_an_empty_budget(self):
        # The root closed set (items in every row) is recorded before any
        # extension, under the same record-then-check test.
        with pytest.raises(PatternBudgetExceeded) as info:
            closed_fpgrowth([(0,)], 1, max_patterns=0)
        assert info.value.emitted == 1

    @pytest.mark.parametrize("budget", range(6))
    def test_counters_flushed_when_budget_trips(self, budget):
        # Budgets 0 and 1 trip inside one step that records all three
        # single items at once: the trip still reports budget + 1.
        outcome, counters = _profiled(HAND_TRANSACTIONS, 2, max_patterns=budget)
        assert isinstance(outcome, PatternBudgetExceeded)
        assert outcome.emitted == budget + 1
        assert counters[0] == budget + 1


class TestBatchGeometry:
    """Output, cuts, trip point and counters do not depend on the step
    budget: one byte expands one node per step, 4 KB a few (at most 9
    items over one word here), the default the whole level."""

    @pytest.mark.parametrize("budget", [1, 4096])
    @settings(max_examples=100, deadline=None)
    @given(db=databases())
    def test_small_steps_match_default(self, db, budget):
        transactions, min_support = db

        def both(**kwargs):
            default = _profiled(transactions, min_support, **kwargs)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(closed, "_STEP_BYTES", budget)
                small = _profiled(transactions, min_support, **kwargs)
            return default, small

        for max_length in (None, 1, 2, 3, 4, 5):
            (default, profile), (small, small_profile) = both(max_length=max_length)
            assert _pairs(small) == _pairs(default)
            assert small_profile == profile
            total = len(default)
            for budget_cap in sorted({0, total // 2, max(0, total - 1)}):
                if budget_cap >= total:
                    continue
                (tripped, profile), (small, small_profile) = both(
                    max_length=max_length, max_patterns=budget_cap
                )
                assert tripped.emitted == small.emitted == budget_cap + 1
                assert profile[0] == small_profile[0] == budget_cap + 1


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {case: golden_digest(*args) for case, args in GOLDEN_CASES.items()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
