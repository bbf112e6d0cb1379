"""MMRFS: Maximal-Marginal-Relevance Feature Selection (paper Algorithm 1).

Greedy selection over the mined pattern set F:

1. start from the single most relevant pattern;
2. repeatedly take the pattern with the highest *gain*
   ``g(alpha) = S(alpha) - max_{beta in Fs} R(alpha, beta)`` (Eq. 10),
   accepting it only if it *correctly covers* at least one instance that is
   not yet covered ``delta`` times;
3. stop when every instance is covered ``delta`` times or F is exhausted.

"Correctly covers" follows the database-coverage convention of associative
classification (CMAR): pattern alpha covers instance i if i contains alpha,
and the cover is *correct* if alpha's majority class equals i's label.

Candidate scoring is vectorized: the candidate table's per-class counts
yield the relevance vector, supports and majority classes of the whole
set, and every coverage mask is kept packed 64 rows per uint64 word.  The
coverage masks form one *word-major* stack ``(n_words, n_candidates)``,
written block by block from the cover kernel, so a redundancy refresh is
one :func:`~repro.core.bitset.and_popcount` that sums over the leading
word axis; the correct-cover masks, read only in the scan's gathers and
on acceptance, stay one row per candidate.

The greedy loop works in *epochs*, one per accepted pattern.  Between two
acceptances the gains and the under-covered rows are fixed, so the
candidates the one-at-a-time loop would reject in that epoch are exactly
the prefix of the ``(-gain, index)`` order that correctly covers no
under-covered row.  Each epoch therefore takes the top chunk of live
candidates (doubling the chunk while it accepts nothing), sorts it, and
finds the first useful candidate with AND + popcount over blocks of its
correct-cover words, stopping at the first block that holds one;
everything before it is rejected in bulk.  Selecting beta can only
*raise* each candidate's max-redundancy, so an acceptance re-scores only
the candidates still live, with one :func:`batch_redundancy_packed` call
over the live arrays, which are compacted in place (in index order, so
ties still go to the lowest index) once rejections thin them out.  The
result — patterns, order, gain floats, coverage and the round counters —
is exactly that of the one-round-per-candidate loop, which the test
suite keeps as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.bitset import pack_bits, pattern_covers, popcount, unpack_bits
from ..datasets.transactions import TransactionDataset
from ..obs import core as _obs
from ..measures.contingency import ContingencyTables
from ..mining.itemsets import MiningResult, Pattern, candidate_table
from .redundancy import batch_redundancy_packed
from .relevance import RelevanceMeasure, batch_relevance, get_relevance

__all__ = [
    "SelectedFeature",
    "SelectionResult",
    "mmrfs",
    "top_k_by_relevance",
]

#: Candidates in an epoch's first scan chunk; the chunk doubles while it
#: accepts nothing.
_SCAN_CHUNK = 256
#: The live arrays are compacted once fewer than this share of their rows
#: is still live.
_COMPACT_BELOW = 0.75
#: Byte budget of one block of an epoch scan's gathered correct-cover words.
_SCAN_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class SelectedFeature:
    """One pattern chosen by MMRFS, with its selection-time diagnostics."""

    pattern: Pattern
    relevance: float
    gain: float
    majority_class: int
    order: int


@dataclass
class SelectionResult:
    """Outcome of a feature-selection run."""

    selected: list[SelectedFeature]
    coverage_counts: np.ndarray
    delta: int
    considered: int

    @property
    def patterns(self) -> list[Pattern]:
        return [feature.pattern for feature in self.selected]

    @property
    def fully_covered(self) -> bool:
        """True if every instance reached the delta coverage target."""
        return bool((self.coverage_counts >= self.delta).all())

    def __len__(self) -> int:
        return len(self.selected)


def mmrfs(
    patterns: MiningResult | list[Pattern],
    data: TransactionDataset,
    relevance: str | RelevanceMeasure = "information_gain",
    delta: int = 1,
    max_selected: int | None = None,
) -> SelectionResult:
    """Run Algorithm 1 over mined patterns.

    Parameters
    ----------
    patterns:
        Candidate frequent patterns F (typically closed, length >= 2): a
        table or a list, see :func:`~repro.mining.itemsets.candidate_table`.
    data:
        The training transactions (used for coverage and contingency).
    relevance:
        Relevance measure S: a registered name (``"information_gain"``,
        ``"fisher"``, ``"chi2"``) or any object with ``batch(tables)``
        (:class:`~repro.selection.relevance.RelevanceMeasure`).
    delta:
        Database-coverage threshold: selection stops once every instance is
        correctly covered ``delta`` times (or candidates run out).
    max_selected:
        Optional hard cap on |Fs| (the paper leaves this to delta; the cap
        exists for ablations and runaway protection).

    Returns
    -------
    SelectionResult
        Selected features in selection order plus coverage diagnostics.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    score = get_relevance(relevance)
    if not len(patterns):
        return SelectionResult(
            selected=[],
            coverage_counts=np.zeros(data.n_rows, dtype=np.int64),
            delta=delta,
            considered=0,
        )
    with _obs.span(
        "selection.mmrfs", candidates=len(patterns), delta=delta, rows=data.n_rows
    ) as selection_span:
        table = candidate_table(patterns, data)
        result = _mmrfs_run(table, data, score, delta, max_selected)
        selection_span.set(
            selected=len(result), fully_covered=result.fully_covered
        )
    return result


def _mmrfs_run(
    table: MiningResult,
    data: TransactionDataset,
    score,
    delta: int,
    max_selected: int | None,
) -> SelectionResult:
    """Algorithm 1 proper (validation and the obs span live in the caller)."""
    tables = ContingencyTables.of(table)
    relevances = batch_relevance(score, tables)
    majority = tables.majority_classes()
    coverage_words, correct_words = _packed_coverage(table.itemsets, data, majority)
    run = _greedy(
        coverage_words,
        correct_words,
        tables.supports,
        relevances,
        data.n_rows,
        delta,
        max_selected,
    )
    session = _obs._ACTIVE
    if session is not None:
        session.add_many(
            (
                ("selection.mmrfs.gain_evaluations", run.gain_evaluations),
                ("selection.mmrfs.candidates", len(table)),
                ("selection.mmrfs.rounds", run.rounds),
                ("selection.mmrfs.accepted", len(run.chosen)),
                ("selection.mmrfs.rejected", run.rejected),
            )
        )
        for covered in run.covered_rows:
            session.record("selection.mmrfs.covered_rows", covered)
    return SelectionResult(
        selected=[
            SelectedFeature(
                pattern=table.pattern(index),
                relevance=float(relevances[index]),
                gain=gain,
                majority_class=int(majority[index]),
                order=order,
            )
            for order, (index, gain) in enumerate(zip(run.chosen, run.gains))
        ],
        coverage_counts=run.coverage_counts,
        delta=delta,
        considered=len(table),
    )


def _packed_coverage(
    itemsets: list[tuple[int, ...]], data: TransactionDataset, majority: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The word-major coverage stack ``(n_words, n_itemsets)`` (column k is
    itemset k's packed cover), and the row-major ``(n_itemsets, n_words)``
    *correct* cover words (covered rows whose label is the itemset's
    majority class)."""
    item_bits = data.item_bits()
    coverage_words = np.empty(
        (item_bits.words.shape[1], len(itemsets)), dtype=item_bits.words.dtype
    )
    for start, covers in pattern_covers(item_bits, itemsets):
        coverage_words[:, start : start + len(covers)] = covers.T
    if not data.n_classes:
        return coverage_words, np.zeros_like(coverage_words.T)
    # Gathered once the cover blocks are gone, and ANDed in place: one
    # (n, n_words) buffer.
    correct_words = data.label_bits().words[majority]
    correct_words &= coverage_words.T
    return coverage_words, correct_words


def _correct_words(
    itemsets: list[tuple[int, ...]], data: TransactionDataset, majority: np.ndarray
) -> np.ndarray:
    """The correct cover words of :func:`_packed_coverage`, with no
    coverage stack: each cover block is ANDed into the label masks."""
    item_bits = data.item_bits()
    if not data.n_classes:
        return np.zeros(
            (len(itemsets), item_bits.words.shape[1]), dtype=item_bits.words.dtype
        )
    correct_words = data.label_bits().words[majority]
    for start, covers in pattern_covers(item_bits, itemsets):
        correct_words[start : start + len(covers)] &= covers
    return correct_words


@dataclass
class _GreedyRun:
    """What the greedy loop chose, and the work it did."""

    coverage_counts: np.ndarray
    chosen: list[int] = field(default_factory=list)
    gains: list[float] = field(default_factory=list)
    #: Rows at the delta target after each acceptance.
    covered_rows: list[int] = field(default_factory=list)
    #: Rounds of the one-candidate-per-round loop: one per rejection, one
    #: per acceptance after the seed, one for a non-finite stop.
    rounds: int = 0
    rejected: int = 0
    #: Candidate rows re-scored against accepted patterns.
    gain_evaluations: int = 0


def _greedy(
    coverage_words: np.ndarray,
    correct_words: np.ndarray,
    supports: np.ndarray,
    relevances: np.ndarray,
    n_rows: int,
    delta: int,
    max_selected: int | None,
) -> _GreedyRun:
    """The greedy loop of Algorithm 1 over packed coverage.

    ``coverage_words[:, k]`` is candidate k's packed cover (the word-major
    stack of :func:`_packed_coverage`) and ``correct_words[k]`` its
    packed correct-cover mask.  The caller hands ``coverage_words`` over:
    compaction reuses its leading columns in place.
    """
    run = _GreedyRun(coverage_counts=np.zeros(n_rows, dtype=np.int64))
    if not len(relevances):
        return run
    # The live arrays: row r is candidate ids[r]; live[r] is False once
    # it is accepted or rejected.
    ids = np.arange(len(relevances))
    live = np.ones(len(ids), dtype=bool)
    n_live = len(ids)
    max_redundancy = np.zeros(len(ids))
    row = int(np.argmax(relevances))  # Line 1-2: seed with the most relevant
    gain = float(relevances[row])
    while True:
        live[row] = False
        n_live -= 1
        run.coverage_counts[unpack_bits(correct_words[ids[row]], n_rows)] += 1
        run.chosen.append(int(ids[row]))
        run.gains.append(gain)
        run.covered_rows.append(int((run.coverage_counts >= delta).sum()))
        if max_selected is not None and len(run.chosen) >= max_selected:
            break
        under = run.coverage_counts < delta
        if not under.any() or not n_live:
            break
        under_words = pack_bits(under)

        accepted = (
            coverage_words[:, row].copy(), int(supports[row]), float(relevances[row])
        )
        if n_live < _COMPACT_BELOW * len(ids):
            keep = np.flatnonzero(live)
            # One word row at a time: the transient copy is one row long.
            for words in coverage_words:
                words[: len(keep)] = words[keep]
            coverage_words = coverage_words[:, : len(keep)]
            ids, supports, relevances, max_redundancy = (
                ids[keep], supports[keep], relevances[keep], max_redundancy[keep]
            )
            live = np.ones(len(keep), dtype=bool)
        np.maximum(
            max_redundancy,
            batch_redundancy_packed(coverage_words, supports, relevances, *accepted),
            out=max_redundancy,
        )
        run.gain_evaluations += len(ids)

        # The epoch: gains are fixed until the next acceptance.
        rows = np.flatnonzero(live)
        gains = relevances[rows] - max_redundancy[rows]
        if np.isnan(gains).any():
            run.rounds += 1  # the one-at-a-time argmax lands on the NaN
            break
        chunk = _SCAN_CHUNK
        while True:
            if chunk < len(rows):
                # Every candidate at or above the chunk's cut gain: ties at
                # the cut are all in, so the head is a prefix of the order.
                cut = np.partition(gains, len(rows) - chunk)[len(rows) - chunk]
                head = np.flatnonzero(gains >= cut)
            else:
                head = np.arange(len(rows))
            head = head[np.argsort(-gains[head], kind="stable")]
            hit = _first_stop(
                correct_words, ids[rows[head]], gains[head], under_words
            )
            if hit < len(head):
                break
            live[rows[head]] = False
            n_live -= len(head)
            run.rounds += len(head)
            run.rejected += len(head)
            if not n_live:
                return run
            rest = np.ones(len(rows), dtype=bool)
            rest[head] = False
            rows, gains = rows[rest], gains[rest]
            chunk *= 2
        live[rows[head[:hit]]] = False
        n_live -= hit
        run.rounds += hit + 1
        run.rejected += hit
        gain = float(gains[head[hit]])
        if not np.isfinite(gain):
            break
        row = int(rows[head[hit]])
    return run


def _first_stop(
    correct_words: np.ndarray,
    candidates: np.ndarray,
    gains: np.ndarray,
    under_words: np.ndarray,
) -> int:
    """Position of the first of ``candidates`` (in scan order, with their
    ``gains``) that ends the scan: its gain is not finite, or it correctly
    covers an under-covered row.  ``len(candidates)`` if none does.

    The correct-cover words are gathered in blocks of
    ``_SCAN_BLOCK_BYTES``, and the scan stops at the first block that
    holds a stop.
    """
    block = max(1, _SCAN_BLOCK_BYTES // under_words.nbytes)
    for start in range(0, len(candidates), block):
        words = correct_words[candidates[start : start + block]]
        words &= under_words
        stops = ~np.isfinite(gains[start : start + block]) | (popcount(words) > 0)
        if stops.any():
            return start + int(np.argmax(stops))
    return len(candidates)


def top_k_by_relevance(
    patterns: MiningResult | list[Pattern],
    data: TransactionDataset,
    k: int,
    relevance: str | RelevanceMeasure = "information_gain",
) -> SelectionResult:
    """Ablation baseline: pick the k most relevant patterns, no redundancy.

    This is "MMRFS without the MMR part" — used to quantify how much the
    redundancy term and the coverage stopping rule contribute.

    Top-k has no coverage stopping rule, so the result's coverage
    diagnostics use ``delta=1`` semantics: ``fully_covered`` reports
    whether the k chosen patterns correctly cover every instance at least
    once.  (It previously reported ``delta=0``, which made
    ``fully_covered`` vacuously True — ``coverage_counts >= 0`` always
    holds.)
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    score = get_relevance(relevance)
    table = candidate_table(patterns, data)
    tables = ContingencyTables.of(table)
    relevances = batch_relevance(score, tables)
    majority = tables.majority_classes()
    order = np.argsort(-relevances, kind="stable")[:k]
    correct_words = _correct_words(
        [table.itemsets[index] for index in order], data, majority[order]
    )
    return SelectionResult(
        selected=[
            SelectedFeature(
                pattern=table.pattern(index),
                relevance=float(relevances[index]),
                gain=float(relevances[index]),
                majority_class=int(majority[index]),
                order=rank,
            )
            for rank, index in enumerate(order)
        ],
        coverage_counts=unpack_bits(correct_words, data.n_rows).sum(
            axis=0, dtype=np.int64
        ),
        delta=1,
        considered=len(table),
    )
