"""Reference itemset miners: Apriori, CHARM and brute-force closed mining.

Three independently derived engines the production miners
(:func:`repro.mining.frequent.frequent_itemsets` and
:func:`repro.mining.closed.closed_fpgrowth`) are tested against:

* :func:`apriori` (Agrawal & Srikant, VLDB 1994): level-wise candidate
  generation with the anti-monotone pruning rule;
* :func:`charm` (Zaki & Hsiao, SDM 2002): a vertical closed miner over
  (itemset, tidset) pairs;
* :func:`brute_force_closed`: every frequent set, filtered to the closed
  ones.

The two miners honour the same record-then-check pattern budget as the
production miners (:class:`~repro.mining.itemsets.PatternBudgetExceeded`
trips at budget + 1), so the budget suites can run over all four.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Sequence

from repro.mining.itemsets import MiningResult, Pattern, PatternBudgetExceeded

_Node = tuple[frozenset, frozenset]


def _count_candidates(
    transactions: Sequence[tuple[int, ...]],
    candidates: set[tuple[int, ...]],
) -> dict[tuple[int, ...], int]:
    """Support counts of the candidate itemsets in one database pass."""
    if not candidates:
        return {}
    length = len(next(iter(candidates)))
    counts: dict[tuple[int, ...], int] = dict.fromkeys(candidates, 0)
    for transaction in transactions:
        if len(transaction) < length:
            continue
        for subset in combinations(transaction, length):
            if subset in counts:
                counts[subset] += 1
    return counts


def _generate_candidates(frequent: list[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Join step + prune step of Apriori.

    Two frequent k-itemsets sharing their first k-1 items join into a
    (k+1)-candidate; a candidate survives only if all its k-subsets are
    frequent.
    """
    frequent_set = set(frequent)
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    for itemset in frequent:
        by_prefix.setdefault(itemset[:-1], []).append(itemset[-1])

    candidates: set[tuple[int, ...]] = set()
    for prefix, tails in by_prefix.items():
        tails.sort()
        for a, b in combinations(tails, 2):
            candidate = prefix + (a, b)
            if all(
                candidate[:i] + candidate[i + 1 :] in frequent_set
                for i in range(len(candidate))
            ):
                candidates.add(candidate)
    return candidates


def apriori(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_length: int | None = None,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all frequent itemsets with absolute support >= ``min_support``."""
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    transactions = [tuple(sorted(set(t))) for t in transactions]

    item_counts: dict[int, int] = {}
    for transaction in transactions:
        for item in transaction:
            item_counts[item] = item_counts.get(item, 0) + 1

    patterns: list[Pattern] = []

    def emit(items: tuple[int, ...], support: int) -> None:
        patterns.append(Pattern(items=items, support=support))
        if max_patterns is not None and len(patterns) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(patterns))

    frequent = sorted(
        (item,) for item, count in item_counts.items() if count >= min_support
    )
    for itemset in frequent:
        emit(itemset, item_counts[itemset[0]])

    length = 1
    while frequent and (max_length is None or length < max_length):
        counts = _count_candidates(transactions, _generate_candidates(frequent))
        frequent = sorted(
            itemset for itemset, count in counts.items() if count >= min_support
        )
        for itemset in frequent:
            emit(itemset, counts[itemset])
        length += 1

    return MiningResult(patterns, min_support=min_support, n_rows=len(transactions))


def charm(
    transactions: Sequence[Sequence[int]],
    min_support: int,
    max_patterns: int | None = None,
) -> MiningResult:
    """Mine all closed frequent itemsets (absolute ``min_support``).

    Candidates at each level are sorted by ascending support, so for a
    pair (Xi, Xj) with j after i only three relations are possible:

    * tid(Xi) == tid(Xj): Xj is absorbed into Xi's closure and removed;
    * tid(Xi) ⊂ tid(Xj): Xj's items join Xi's closure (Xj stays a
      generator);
    * incomparable: the pair spawns a child generator (Xi ∪ Xj, Ti ∩ Tj).

    Results are kept keyed by tidset with the longest itemset seen for
    each; an itemset's closure shares its tidset, so the final map is
    exactly {tidset -> closed itemset}.
    """
    if min_support < 1:
        raise ValueError("min_support is an absolute count and must be >= 1")
    transactions = [tuple(sorted(set(t))) for t in transactions]

    tid_builder: dict[int, set[int]] = {}
    for tid, transaction in enumerate(transactions):
        for item in transaction:
            tid_builder.setdefault(item, set()).add(tid)

    closed: dict[frozenset, frozenset] = {}

    def record(itemset: frozenset, tidset: frozenset) -> None:
        existing = closed.get(tidset)
        if existing is None or len(itemset) > len(existing):
            closed[tidset] = itemset
        # Counted over distinct tidsets: updating a known tidset's closure
        # never grows the count.
        if max_patterns is not None and len(closed) > max_patterns:
            raise PatternBudgetExceeded(max_patterns, len(closed))

    root = [
        (frozenset([item]), frozenset(tids))
        for item, tids in tid_builder.items()
        if len(tids) >= min_support
    ]
    _charm_extend(_sorted_nodes(root), record, min_support)

    patterns = [
        Pattern(items=tuple(sorted(itemset)), support=len(tidset))
        for tidset, itemset in closed.items()
    ]
    patterns.sort(key=lambda p: (p.length, p.items))
    return MiningResult(patterns, min_support=min_support, n_rows=len(transactions))


def _sorted_nodes(nodes: list[_Node]) -> list[_Node]:
    """Ascending support, item ids as tiebreak (CHARM's processing order)."""
    return sorted(nodes, key=lambda node: (len(node[1]), sorted(node[0])))


def _charm_extend(
    nodes: list[_Node],
    record: Callable[[frozenset, frozenset], None],
    min_support: int,
) -> None:
    """Process one equivalence class of candidates."""
    index = 0
    while index < len(nodes):
        itemset_i, tidset_i = nodes[index]

        # Pass 1: grow the closure of node i from later siblings.
        j = index + 1
        while j < len(nodes):
            itemset_j, tidset_j = nodes[j]
            if tidset_i == tidset_j:
                itemset_i = itemset_i | itemset_j
                del nodes[j]
                continue
            if tidset_i < tidset_j:
                itemset_i = itemset_i | itemset_j
            j += 1
        nodes[index] = (itemset_i, tidset_i)

        # Pass 2: children from siblings with incomparable tidsets.
        children: list[_Node] = []
        for itemset_j, tidset_j in nodes[index + 1 :]:
            intersection = tidset_i & tidset_j
            if len(intersection) >= min_support and intersection != tidset_i:
                children.append((itemset_i | itemset_j, intersection))

        record(itemset_i, tidset_i)
        if children:
            _charm_extend(_sorted_nodes(children), record, min_support)
        index += 1


def brute_force_closed(
    transactions: Sequence[Sequence[int]], min_support: int
) -> MiningResult:
    """Enumerate the frequent sets with :func:`apriori`, keep the closed ones.

    Exponential; only for tiny data.
    """
    support = apriori(transactions, min_support).as_dict()
    closed = [
        Pattern(items=items, support=sup)
        for items, sup in support.items()
        if not any(
            sup == other_sup and set(items) < set(other_items)
            for other_items, other_sup in support.items()
        )
    ]
    closed.sort(key=lambda p: (p.length, p.items))
    return MiningResult(closed, min_support=min_support, n_rows=len(transactions))
