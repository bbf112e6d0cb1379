"""Best-first discriminative top-k mining: the min_sup knob removed.

Every batch miner in :mod:`repro.mining` asks the caller to guess
``min_sup`` up front — too low and enumeration blows up (Tables 3-5),
too high and the discriminative low-support patterns are gone.
:class:`TopKMiner` inverts the contract: the caller says *how many*
patterns they want and the miner finds exactly the ``k`` best by
information gain — the top-k search discipline of He et al., *Mining
Top-k Approximate Frequent Patterns*, applied to the discriminative
setting.

The search is exact, not approximate: a subtree is skipped only when a
proven upper bound on the IG of *every* itemset in it falls strictly
below the current k-th best IG.  That bound is
:func:`repro.measures.vectorized.ig_subtree_bound`, shared with
:func:`repro.selection.ddpmine` and computed for every child by their
common child-scoring step :func:`repro.measures.vectorized.score_covers`:

* IG is convex in a pattern's covered per-class counts, and a
  descendant's counts lie in the box below the child's, so the best
  *class vertex* (each class covered fully or not at all) bounds every
  descendant, for any number of classes;
* above a fixed class cap the bound falls back to
  ``min(h(min(theta, 1/2)), H(C))``.

docs/THEORY.md §6 has the argument.  The paper's support-only
``IG_ub(theta)`` (Eq. 2) is not a pruning rule here.

Exactness is pinned by the hypothesis differential suite
(``tests/test_streaming_topk.py``): the result must equal "mine the
batch at the implied min_sup, rank by IG, take k" — the same oracle
discipline the bitset, vectorized-scoring and serving layers used.

The frontier is expanded in pop batches of up to ``_POP_BATCH`` nodes:
popping stops early at the first entry whose bound is strictly below
the current k-th best IG, every (node, child) pair of the batch is
counted and scored in one vectorized pass, and the pairs are then walked
in pop order with the one-at-a-time offer/push logic and live-threshold
pruning.  A batch may expand a node that a strict one-at-a-time search
would have pruned after an earlier node of the batch raised the
threshold; that only offers more true candidates, so the result stays
exact.

Memory is O(k + frontier): the best-k list is bounded by construction,
frontier entries store only an item tuple plus its bound (tidsets are
re-derived from the cached vertical bitsets at pop time), and an
optional ``frontier_cap`` turns pathological frontier growth into a
loud :class:`FrontierCapExceeded` instead of silent memory creep —
record-then-check semantics matching
:class:`~repro.mining.itemsets.PatternBudgetExceeded`.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..core.bitset import pattern_covers, popcount
from ..datasets.transactions import TransactionDataset
from ..measures.bounds import BoundMode
from ..measures.vectorized import score_covers
from ..mining.itemsets import MiningResult, Pattern
from ..obs import core as _obs

__all__ = [
    "FrontierCapExceeded",
    "ScoredPattern",
    "TopKMiner",
    "TopKResult",
    "rank_key",
]


class FrontierCapExceeded(RuntimeError):
    """The best-first frontier outgrew its declared memory cap.

    Checked after each pop batch, and raised *after* provably-useless
    entries (bound below the current k-th best IG) have been compacted
    away, so the cap measures live candidates only.  ``size`` is the
    frontier size that tripped the cap — never more than the frontier
    peak an uncapped run reaches.
    """

    def __init__(self, cap: int, size: int) -> None:
        self.cap = cap
        self.size = size
        super().__init__(
            f"top-k frontier grew to {size} live entries, over the cap of {cap}"
        )


#: Added to every subtree bound.  A bound can round a few ulp *below*
#: the IG of a descendant that attains it, which would float-prune an
#: exact tie; the slack keeps pruning sound and only ever makes the
#: search expand slightly more.
_PRUNE_SLACK = 1e-9
#: Frontier entries expanded together in one vectorized pass.
_POP_BATCH = 32
#: Bytes of (node, child) cover words one counting block may hold.
_PAIR_BLOCK_BYTES = 4 << 20


def rank_key(ig: float, items: tuple[int, ...]) -> tuple:
    """Total order over scored patterns: best IG first, ties broken
    deterministically by (shorter, lexicographically smaller) itemset.

    Both the miner and its batch oracle rank by this exact key, so
    top-k equality is bytewise, never "equal up to tie order".
    """
    return (-ig, len(items), items)


@dataclass(frozen=True)
class ScoredPattern:
    """One top-k entry: the pattern, its IG and its per-class supports."""

    pattern: Pattern
    ig: float
    class_counts: tuple[int, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "items": list(self.pattern.items),
            "support": self.pattern.support,
            "ig": self.ig,
            "class_counts": list(self.class_counts),
        }


class TopKResult:
    """Outcome of one top-k mine: ranked patterns plus search diagnostics."""

    def __init__(
        self,
        ranked: Sequence[ScoredPattern],
        k: int,
        n_rows: int,
        nodes_expanded: int = 0,
        candidates_scored: int = 0,
        subtrees_pruned: int = 0,
        frontier_peak: int = 0,
    ) -> None:
        self.ranked = list(ranked)
        self.k = int(k)
        self.n_rows = int(n_rows)
        self.nodes_expanded = int(nodes_expanded)
        self.candidates_scored = int(candidates_scored)
        self.subtrees_pruned = int(subtrees_pruned)
        self.frontier_peak = int(frontier_peak)

    @property
    def patterns(self) -> list[Pattern]:
        return [scored.pattern for scored in self.ranked]

    @property
    def threshold_ig(self) -> float:
        """IG of the k-th (worst kept) pattern; 0.0 when fewer than k exist.

        The knob-free analogue of the paper's ``IG0``: every pattern
        *not* returned has IG <= this value.
        """
        if len(self.ranked) < self.k or not self.ranked:
            return 0.0
        return self.ranked[-1].ig

    @property
    def implied_min_support(self) -> int:
        """The smallest support among the returned patterns (>= 1).

        Batch-mining at this absolute min_sup and re-ranking by IG
        reproduces this exact result — the round-trip the differential
        suite pins.  When the result holds fewer than k patterns the
        enumeration was exhaustive, so the implied threshold is 1.
        """
        if not self.ranked or len(self.ranked) < self.k:
            return 1
        return min(scored.pattern.support for scored in self.ranked)

    def mining_result(self) -> MiningResult:
        """The top-k set in the shape batch-miner consumers expect."""
        return MiningResult(
            self.patterns,
            min_support=self.implied_min_support,
            n_rows=self.n_rows,
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "n_rows": self.n_rows,
            "threshold_ig": self.threshold_ig,
            "implied_min_support": self.implied_min_support,
            "patterns": [scored.to_json() for scored in self.ranked],
        }

    def __len__(self) -> int:
        return len(self.ranked)

    def __iter__(self):
        return iter(self.ranked)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TopKResult(k={self.k}, found={len(self.ranked)}, "
            f"threshold_ig={self.threshold_ig:.4f})"
        )


class TopKMiner:
    """Exact best-first top-k discriminative pattern miner.

    Parameters
    ----------
    k:
        How many patterns to return (ranked by :func:`rank_key`).
    min_length / max_length:
        Length window for *returned* patterns.  Shorter itemsets are
        still expanded (their supersets may qualify); longer ones are
        never generated.
    frontier_cap:
        Optional bound on live frontier entries.  Exceeding it (after
        compacting provably-prunable entries) raises
        :class:`FrontierCapExceeded` — the search never silently
        degrades to an approximate answer.
    bound_mode:
        Stored, with no effect on the search (its bound reads class
        counts, not the paper's ``IG_ub``).
        :class:`~repro.streaming.StreamSpec` carries it into the stream
        fingerprint.
    """

    def __init__(
        self,
        k: int,
        min_length: int = 1,
        max_length: int | None = None,
        frontier_cap: int | None = None,
        bound_mode: BoundMode = "paper",
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        if max_length is not None and max_length < min_length:
            raise ValueError("max_length must be >= min_length")
        if frontier_cap is not None and frontier_cap < 1:
            raise ValueError("frontier_cap must be >= 1")
        self.k = int(k)
        self.min_length = int(min_length)
        self.max_length = None if max_length is None else int(max_length)
        self.frontier_cap = frontier_cap
        self.bound_mode = bound_mode

    def mine(self, data: TransactionDataset) -> TopKResult:
        """The k best patterns of ``data`` by information gain, exactly."""
        with _obs.span(
            "streaming.topk",
            k=self.k,
            rows=data.n_rows,
            items=data.n_items,
        ) as topk_span:
            result = self._mine(data)
            topk_span.set(
                found=len(result),
                nodes=result.nodes_expanded,
                pruned=result.subtrees_pruned,
            )
        session = _obs._ACTIVE
        if session is not None:
            session.add_many(
                (
                    ("streaming.topk.runs", 1),
                    ("streaming.topk.nodes_expanded", result.nodes_expanded),
                    ("streaming.topk.candidates_scored", result.candidates_scored),
                    ("streaming.topk.subtrees_pruned", result.subtrees_pruned),
                )
            )
        return result

    def _mine(self, data: TransactionDataset) -> TopKResult:
        n = data.n_rows
        if n == 0 or data.n_items == 0:
            return TopKResult([], k=self.k, n_rows=n)
        item_bits = data.item_bits()
        item_words = item_bits.words
        label_words = data.label_bits().words
        class_totals = data.class_counts().astype(np.int64)
        n_items = data.n_items
        n_words = item_words.shape[1]
        # Pair rows per counting block: each row holds its cover words and
        # one masked copy per class.
        block = max(1, _PAIR_BLOCK_BYTES // (8 * n_words * (1 + len(class_totals))))

        # best: ascending by rank key, at most k entries.  Keys are unique
        # (they end in the itemset), so tuple comparison never reaches the
        # non-orderable ScoredPattern payload.
        best: list[tuple[tuple, ScoredPattern]] = []
        # frontier: max-heap on the subtree bound (negated), ties broken by
        # (length, items) for a deterministic pop order.  Entries carry no
        # tidset — it is re-derived from the cached vertical bitsets at pop
        # time, keeping each entry O(pattern length).
        frontier: list[tuple[float, int, tuple[int, ...]]] = []
        nodes_expanded = 0
        candidates_scored = 0
        subtrees_pruned = 0
        frontier_peak = 0

        def worst_ig() -> float:
            return -best[-1][0][0]

        def offer(items: tuple[int, ...], ig: float, counts: tuple[int, ...]):
            if len(items) < self.min_length:
                return
            key = rank_key(ig, items)
            if len(best) == self.k and key >= best[-1][0]:
                return
            insort(
                best,
                (key, ScoredPattern(Pattern(items, int(sum(counts))), ig, counts)),
            )
            if len(best) > self.k:
                best.pop()

        def expand(nodes: list[tuple[int, ...]]) -> None:
            """Score every child of ``nodes`` at once, then walk them in order."""
            nonlocal nodes_expanded, candidates_scored, subtrees_pruned
            tidsets = np.empty((len(nodes), n_words), dtype=item_words.dtype)
            for start, covers in pattern_covers(item_bits, nodes):
                tidsets[start : start + len(covers)] = covers
            # Pairs run node by node, children in item order.
            starts = np.array([items[-1] + 1 if items else 0 for items in nodes])
            widths = n_items - starts
            owner = np.repeat(np.arange(len(nodes)), widths)
            child_item = np.arange(owner.size) + np.repeat(
                starts - (np.cumsum(widths) - widths), widths
            )
            supports = np.empty(owner.size, dtype=np.int64)
            scored = []
            for lo in range(0, owner.size, block):
                words = item_words[child_item[lo : lo + block]]
                words &= tidsets[owner[lo : lo + block]]
                supports[lo : lo + block] = block_supports = popcount(words)
                scored.append(
                    score_covers(
                        words[block_supports >= 1], label_words, class_totals
                    )
                )
            live = np.flatnonzero(supports >= 1)
            candidates_scored += int(live.size)
            counts, igs, bounds = (
                np.concatenate(parts).tolist() for parts in zip(*scored)
            )
            live_items = child_item[live].tolist()
            ends = np.cumsum(np.bincount(owner[live], minlength=len(nodes))).tolist()
            first = 0
            for items, end in zip(nodes, ends):
                nodes_expanded += 1
                child_len = len(items) + 1
                # Nodes are pushed only below max_length, so every child
                # is within the length window and may be offered.
                expandable = self.max_length is None or child_len < self.max_length
                for j in range(first, end):
                    item = live_items[j]
                    child = items + (item,)
                    offer(child, igs[j], tuple(counts[j]))
                    if expandable and item < n_items - 1:
                        bound = bounds[j] + _PRUNE_SLACK
                        # Strict comparison: a subtree whose bound *equals*
                        # the k-th best IG may still hold a tie that wins on
                        # the deterministic tie-break, so only strictly
                        # dominated subtrees are pruned.
                        if len(best) == self.k and bound < worst_ig():
                            subtrees_pruned += 1
                            continue
                        heapq.heappush(frontier, (-bound, child_len, child))
                first = end

        def compact_frontier() -> None:
            """Drop frontier entries strictly below the current threshold."""
            nonlocal frontier, subtrees_pruned
            if len(best) < self.k:
                return
            threshold = worst_ig()
            kept = [entry for entry in frontier if -entry[0] >= threshold]
            subtrees_pruned += len(frontier) - len(kept)
            heapq.heapify(kept)
            frontier = kept

        expand([()])
        frontier_peak = len(frontier)
        while frontier:
            batch: list[tuple[int, ...]] = []
            while frontier and len(batch) < _POP_BATCH:
                if len(best) == self.k and -frontier[0][0] < worst_ig():
                    break
                batch.append(heapq.heappop(frontier)[2])
            if not batch:
                # Bound-ordered heap: every remaining subtree is dominated.
                subtrees_pruned += len(frontier)
                break
            expand(batch)
            if len(frontier) > frontier_peak:
                frontier_peak = len(frontier)
            if self.frontier_cap is not None and len(frontier) > self.frontier_cap:
                compact_frontier()
                if len(frontier) > self.frontier_cap:
                    raise FrontierCapExceeded(self.frontier_cap, len(frontier))

        return TopKResult(
            [scored for _, scored in best],
            k=self.k,
            n_rows=n,
            nodes_expanded=nodes_expanded,
            candidates_scored=candidates_scored,
            subtrees_pruned=subtrees_pruned,
            frontier_peak=frontier_peak,
        )
