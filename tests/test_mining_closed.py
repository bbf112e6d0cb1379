"""Order-sensitive tests for the LCM-style closed miner.

The charm and brute-force suites compare *sets* of closed patterns; these
tests pin what they cannot see: the DFS emit order, which ``max_length``
and ``max_patterns`` depend on, and the exact output on two registry
datasets (a checked-in golden digest).

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
from repro.mining import PatternBudgetExceeded, closed_fpgrowth
from repro.selection.minsup import suggest_min_support

GOLDEN_PATH = Path(__file__).parent / "data" / "closed_golden_v1.json"

#: name -> (registry dataset, scale, relative min_sup or "auto" for theta*
#: at the pipeline's default ig0 = 0.05, max_length).
GOLDEN_CASES = {
    "chess": ("chess", 0.25, 0.3, 4),
    "austral": ("austral", 1.0, "auto", 5),
}


def _pairs(result):
    return [(p.items, p.support) for p in result.patterns]


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


def golden_digest(name, scale, min_support, max_length):
    """Per class partition: row count, absolute min_sup, and the sha256 and
    length of the ordered ``(items, support)`` list ``closed_fpgrowth``
    emits — the partitioning and ceil rounding of ``mine_class_patterns``."""
    data = TransactionDataset.from_dataset(load_uci(name, scale=scale))
    if min_support == "auto":
        theta = suggest_min_support(data.labels, 0.05).theta
        min_support = max(theta, 1.0 / data.n_rows)
    partitions = []
    for label, transactions in sorted(data.class_partition().items()):
        absolute = max(1, int(-(-min_support * len(transactions) // 1)))
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


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps(
            {case: golden_digest(*args) for case, args in GOLDEN_CASES.items()},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
