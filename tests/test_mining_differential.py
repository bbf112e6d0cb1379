"""Differential test suite: the miners must be interchangeable.

Hypothesis generates random transaction databases and asserts, at 200+
examples per miner pair, against the reference miners of
``tests/oracles/itemset_miners.py``:

* ``apriori`` and ``frequent_itemsets`` return *identical* frequent sets
  with identical supports, ``frequent_itemsets`` in canonical sorted
  order;
* the two closed miners (LCM-style ``closed_fpgrowth`` and CHARM) agree
  with each other;
* expanding a closed result — every subset of every closed itemset, with
  the max support over its closed supersets — reconstructs the *full*
  frequent set, supports included.  This is the closure property the
  paper's feature-generation step relies on when it swaps "all frequent"
  for "closed" candidates.

Together these pin the miner-interchangeability contract that
``mine_class_patterns(miner=...)`` and the scalability tables assume.
"""

from itertools import combinations

from hypothesis import given, settings

from repro.mining import closed_fpgrowth, frequent_itemsets
from tests.oracles.itemset_miners import apriori, charm
from tests.oracles.strategies import supports, transactions

DIFFERENTIAL_EXAMPLES = 200


def expand_closed(result) -> dict[tuple[int, ...], int]:
    """Frequent set implied by a closed result.

    Every frequent itemset is a subset of some closed itemset, and its
    support is the *maximum* support among its closed supersets (the
    support of its closure).
    """
    frequent: dict[tuple[int, ...], int] = {}
    for pattern in result.patterns:
        for size in range(1, len(pattern.items) + 1):
            for subset in combinations(pattern.items, size):
                if frequent.get(subset, -1) < pattern.support:
                    frequent[subset] = pattern.support
    return frequent


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(db=transactions(), min_support=supports())
def test_apriori_fpgrowth_identical(db, min_support):
    result = frequent_itemsets(db, min_support)
    assert apriori(db, min_support).as_dict() == result.as_dict()
    itemsets = [p.items for p in result.patterns]
    assert itemsets == sorted(itemsets)


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(db=transactions(), min_support=supports())
def test_closed_miners_agree(db, min_support):
    assert (
        closed_fpgrowth(db, min_support).as_dict()
        == charm(db, min_support).as_dict()
    )


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(db=transactions(), min_support=supports())
def test_charm_expansion_reconstructs_frequent_set(db, min_support):
    full = apriori(db, min_support).as_dict()
    assert expand_closed(charm(db, min_support)) == full


@settings(max_examples=DIFFERENTIAL_EXAMPLES, deadline=None)
@given(db=transactions(), min_support=supports())
def test_closed_fpgrowth_expansion_reconstructs_frequent_set(db, min_support):
    full = frequent_itemsets(db, min_support).as_dict()
    assert expand_closed(closed_fpgrowth(db, min_support)) == full
