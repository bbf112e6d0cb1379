"""Out-of-core per-class mining over mmap shards (SON partition algorithm).

Reproduces :func:`repro.mining.generation.mine_class_patterns` — same
pattern set, same per-class counts, same merged result — without ever
holding the dataset in one process.  The classic two-pass partition
scheme of Savasere/Omiecinski/Navathe, specialized to the paper's
per-class mining:

1. **Local candidate pass.**  Every (shard, class) cell is mined
   independently with :func:`~repro.mining.frequent.mine_words` at a
   proportional local threshold ``ceil(abs_c * rows_cell / rows_class)``
   (pure integer arithmetic — no float fuzz).  Pigeonhole: an itemset
   reaching the class-global threshold must reach the proportional
   threshold in at least one shard, so the union of local results is a
   complete candidate superset.  Workers open their shard via the
   zero-copy :class:`~repro.core.shards.ShardHandle` — the task pickles a
   path and three integers, never data — and search straight off its
   mmap'd item masks, with the class's row mask as the root tidset.
2. **Exact counting pass.**  Candidates are counted against every shard
   (AND-reduce + popcount against the shard's label masks) and the
   per-shard int64 count vectors are merged order-invariantly (integer
   addition — the same merge discipline as ``repro.streaming.window``).
   Counting is level-wise by itemset length.

For ``miner="closed"`` the local pass mines *all* frequent itemsets one
item longer than ``max_length``; global closedness is then exact: ``I``
is closed in class ``c`` iff no immediate superset ``I ∪ {o}`` has the
same class-``c`` count, and every such superset that matters is
guaranteed to be a candidate (its count equals a frequent itemset's
count, so it clears the class threshold, so SON surfaces it).

Both passes are :func:`~repro.core.parallel.checkpointed_map` fan-outs
over the content-addressed runtime cache (stages ``shard_mine`` /
``shard_count``, keyed by the shard's content hash plus the full
configuration): each worker persists its cell or shard count as it
finishes, so a killed run resumes byte-identically — the property the
fault-injection suite pins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal

import numpy as np

from ..core.bitset import class_counts, popcount
from ..core.parallel import RetryPolicy, checkpointed_map
from ..core.shards import ShardHandle, ShardSet
from ..obs import core as _obs
from ..testing import faults as _faults
from .frequent import mine_words
from .itemsets import (
    MiningResult,
    PatternBudgetExceeded,
    cap_union,
    check_max_length,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cache import ArtifactCache

__all__ = ["mine_sharded", "local_threshold"]

MinerName = Literal["closed", "all"]
GuardBehavior = Literal["raise", "items_only"]

#: Cache stage names for the two passes' per-shard artifacts.
MINE_STAGE = "shard_mine"
COUNT_STAGE = "shard_count"


def local_threshold(global_absolute: int, local_rows: int, total_rows: int) -> int:
    """Per-shard SON threshold: ``ceil(abs * local / total)``, at least 1.

    Integer arithmetic throughout.  Soundness: if an itemset's count is
    below this in *every* shard, summing ``count_i <= ceil(x_i) - 1 < x_i``
    over shards gives a total strictly below ``global_absolute`` — so
    every globally frequent itemset is locally frequent somewhere.
    """
    if total_rows <= 0:
        return 1
    return max(1, -(-global_absolute * local_rows // total_rows))


def _mine_cell(job: tuple) -> dict:
    """Local pass worker: mine one (shard, class) cell.

    Module-level and fed a tiny tuple — the shard itself is opened
    zero-copy inside the worker via the handle.
    """
    shard_index, label, handle, local_abs, max_length = job
    _faults.fault_point("shard", f"mine:{shard_index}:{label}")
    rows = np.asarray(handle.label_words()[label])
    with _obs.span(
        "mining.sharded.local",
        shard=shard_index,
        label=label,
        rows=int(popcount(rows)),
        min_support=local_abs,
    ) as span:
        # Deliberately unbudgeted: for closed mining this pass enumerates
        # *all* frequent itemsets (the closed reconstruction needs them),
        # so ``max_patterns`` — a contract on the number of *result*
        # patterns — would meter the wrong quantity and trip on cells the
        # batch path happily mines.  The budget is enforced exactly at
        # the global assembly instead; local enumeration is bounded by
        # the shard's content and observable via the candidates counter.
        itemsets, _supports = mine_words(
            np.asarray(handle.item_words()), rows, local_abs, max_length
        )
        span.set(candidates=len(itemsets))
    return {"itemsets": [list(items) for items in itemsets]}


def _count_shard(candidates: list, job: tuple) -> dict:
    """Counting pass worker: exact per-class counts of every candidate.

    ``candidates`` arrives as the pool's *shared* payload — pickled once
    per pool, not once per shard task.  Returns ``{"counts": rows}`` with
    plain int lists, so the result is JSON-checkpointable as-is.
    """
    shard_index, handle = job
    _faults.fault_point("shard", f"count:{shard_index}")
    with _obs.span(
        "mining.sharded.count", shard=shard_index, candidates=len(candidates)
    ):
        counts = class_counts(
            handle.item_bits(), handle.label_words(), candidates
        )
    return {"counts": counts.tolist()}


def _mine_key(
    handle: ShardHandle,
    label: int,
    local_abs: int,
    max_length: int | None,
) -> str:
    from ..runtime.cache import fingerprint

    return fingerprint(
        stage=MINE_STAGE,
        shard=handle.sha256,
        label=int(label),
        min_support=int(local_abs),
        max_length=max_length,
    )


def _count_key(handle: ShardHandle, candidates: list[tuple[int, ...]]) -> str:
    from ..runtime.cache import content_key, fingerprint

    return fingerprint(
        stage=COUNT_STAGE,
        shard=handle.sha256,
        candidates=content_key([list(items) for items in candidates]),
    )


def mine_sharded(
    shards: ShardSet,
    min_support: float,
    miner: MinerName = "closed",
    min_length: int = 2,
    max_length: int | None = None,
    max_patterns: int | None = None,
    n_jobs: int | None = 1,
    retry: RetryPolicy | None = None,
    cache: "ArtifactCache | None" = None,
    on_guard: GuardBehavior = "raise",
) -> MiningResult:
    """Mine per-class frequent patterns out-of-core over ``shards``.

    The parameters mirror
    :func:`~repro.mining.generation.mine_class_patterns` and the result
    is property-tested equal to it (pattern set, supports, per-class
    counts) — ``shards`` is just where the rows live.  The table's
    per-class counts are pass 2's merged counts: nothing is recounted.

    ``max_patterns`` is enforced with the batch path's *exact* trip
    conditions — a per-class check against the globally frequent pattern
    count (the quantity the batch miner's enumeration budget meters) and
    a merged-union check — so budget trips and ``items_only``
    degradations are reproduced class for class.  The local candidate
    pass itself is unbudgeted: it enumerates a different quantity (all
    locally frequent itemsets at a proportional threshold), so metering
    it with the result budget would trip on cells the batch path
    happily mines.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support is relative and must be in (0, 1]")
    if miner not in ("closed", "all"):
        raise KeyError(miner)
    check_max_length(max_length)
    if on_guard not in ("raise", "items_only"):
        raise ValueError(f"on_guard must be 'raise' or 'items_only', got {on_guard!r}")

    with _obs.span(
        "mining.sharded",
        dataset=shards.name,
        shards=len(shards),
        miner=miner,
        min_support=min_support,
        n_jobs=n_jobs if n_jobs is not None else 1,
    ) as span:
        class_totals = shards.class_totals()
        # Per-class global thresholds: the exact expression the batch path
        # uses (including its float-ceil quirks) — differential equality
        # demands bit-equal thresholds, not mathematically-equal ones.
        absolute = {
            c: max(1, int(-(-min_support * int(n_c) // 1)))
            for c, n_c in enumerate(class_totals)
            if n_c > 0
        }
        # Closed mining needs immediate supersets one longer than the cap
        # to decide closedness of the longest returned patterns.
        local_max_length = (
            max_length + 1
            if (miner == "closed" and max_length is not None)
            else max_length
        )

        # ---- pass 1: local per-(shard, class) candidate mining --------
        jobs: list[tuple] = []
        for shard_index, handle in enumerate(shards.handles):
            cell_rows = handle.class_counts()
            for label in sorted(absolute):
                if cell_rows[label] == 0:
                    continue
                jobs.append(
                    (
                        shard_index,
                        label,
                        handle,
                        local_threshold(
                            absolute[label],
                            int(cell_rows[label]),
                            int(class_totals[label]),
                        ),
                        local_max_length,
                    )
                )

        # Progress heartbeats: a long sharded run is otherwise silent
        # until the final rollup, so both passes publish done/total
        # counters plus an ETA series through the obs channel.  Work
        # units are pass-1 cells and pass-2 (level, shard) count jobs.
        _obs.add("progress.mine_sharded.shards_total", len(shards))
        _obs.add("progress.mine_sharded.rows_total", int(shards.n_rows))
        _obs.add("progress.mine_sharded.cells_total", len(jobs))

        def pass_done(counter: str, units: int) -> None:
            # Each pass is one fan-out, so its progress lands when the
            # fan-out returns: all work known so far is done, ETA 0.
            _obs.add(counter, units)
            _obs.record("progress.mine_sharded.eta_s", 0.0)

        mine_keys = None
        if cache is not None:
            mine_keys = [_mine_key(job[2], job[1], job[3], job[4]) for job in jobs]
        mined = checkpointed_map(
            _mine_cell, jobs, mine_keys, cache, MINE_STAGE,
            n_jobs=n_jobs, retry=retry,
        )
        pass_done("progress.mine_sharded.cells_done", len(jobs))

        degraded_classes: set[int] = set()
        candidates: set[tuple[int, ...]] = set()
        for outcome in mined:
            candidates.update(tuple(items) for items in outcome["itemsets"])
        span.set(local_jobs=len(jobs), candidates=len(candidates))
        _obs.add("mining.sharded.local_jobs", len(jobs))
        _obs.add("mining.sharded.candidates", len(candidates))

        # ---- pass 2: level-wise exact global counting -----------------
        counts: dict[tuple[int, ...], np.ndarray] = {
            (): class_totals.astype(np.int64)
        }
        by_length: dict[int, list[tuple[int, ...]]] = {}
        for items in candidates:
            by_length.setdefault(len(items), []).append(items)

        shard_jobs = list(enumerate(shards.handles))
        for length in sorted(by_length):
            level = sorted(by_length[length])
            _obs.add(
                "progress.mine_sharded.count_shards_total", len(shard_jobs)
            )
            count_keys = None
            if cache is not None:
                count_keys = [_count_key(handle, level) for _, handle in shard_jobs]
            shard_counts = checkpointed_map(
                _count_shard, shard_jobs, count_keys, cache, COUNT_STAGE,
                n_jobs=n_jobs, retry=retry, shared=level,
            )
            level_totals = np.zeros((len(level), shards.n_classes), dtype=np.int64)
            for outcome in shard_counts:
                level_totals += np.asarray(outcome["counts"], dtype=np.int64)
            pass_done("progress.mine_sharded.count_shards_done", len(shard_jobs))

            for row, items in enumerate(level):
                counts[items] = level_totals[row]
        span.set(counted_candidates=len(candidates))
        _obs.add("mining.sharded.counted_candidates", len(candidates))

        # ---- assembly: thresholds, closedness, budget, merge ----------
        nonclosed: dict[int, set[tuple[int, ...]]] = {c: set() for c in absolute}
        if miner == "closed":
            for items, vec in counts.items():
                if len(items) < 2:
                    continue
                for position in range(len(items)):
                    subset = items[:position] + items[position + 1 :]
                    parent = counts.get(subset)
                    if parent is None:
                        continue
                    for c in absolute:
                        if vec[c] == parent[c]:
                            nonclosed[c].add(subset)

        merged: set[tuple[int, ...]] = set()
        per_class_patterns: dict[int, int] = {}
        for c in sorted(absolute):
            if c in degraded_classes:
                continue
            class_patterns = [
                items
                for items, vec in counts.items()
                if items
                and int(vec[c]) >= absolute[c]
                and (max_length is None or len(items) <= max_length)
                and (miner != "closed" or items not in nonclosed[c])
            ]
            per_class_patterns[c] = len(class_patterns)
            if max_patterns is not None and len(class_patterns) > max_patterns:
                if on_guard != "items_only":
                    raise PatternBudgetExceeded(max_patterns, len(class_patterns))
                degraded_classes.add(c)
                _obs.warn(
                    f"class {c}: {len(class_patterns)} patterns exceed the "
                    f"budget of {max_patterns}; degrading class {c} to "
                    "items-only",
                    partition=int(c),
                    guard="budget",
                )
                continue
            merged.update(
                items for items in class_patterns if len(items) >= min_length
            )

        merged = cap_union(merged, max_patterns, on_guard)

        final = sorted(merged, key=lambda items: (len(items), items))
        table = MiningResult.from_counts(
            final,
            np.array(
                [counts[items] for items in final], dtype=np.int64
            ).reshape(len(final), shards.n_classes),
            min_support=max(1, int(round(min_support * shards.n_rows))),
            n_rows=shards.n_rows,
            class_totals=class_totals,
        )
        span.set(
            merged_patterns=len(table),
            degraded_classes=len(degraded_classes),
        )
        _obs.add("mining.sharded.merged_patterns", len(table))
        if degraded_classes:
            _obs.add("mining.sharded.degraded_classes", len(degraded_classes))
    return table
