"""Feature generation (framework step 1, paper Section 3).

"The data is partitioned according to the class label.  Frequent patterns
are discovered in each partition with min_sup.  The collection of frequent
patterns F is the feature candidates."

Patterns mined per class partition are merged (union of itemsets) and
counted per class on the *full* training set in one pass; the measures and
MMRFS read that candidate table.  Single items are excluded here — the
classifier feature space is ``I ∪ Fs``, with ``I`` always present — so
only patterns of length >= 2 are returned by default.

The per-partition mining runs are independent, so ``n_jobs > 1`` fans them
out over process workers (the miners are pure-Python and GIL-bound);
results are merged in class order, so parallel output is identical to the
serial default.

Fault tolerance (all opt-in, default behavior unchanged):

* ``cache`` — an :class:`~repro.runtime.cache.ArtifactCache`: each
  partition's mined itemsets are checkpointed under a key derived from the
  partition's content hash and the full mining configuration (guard
  behavior included), as ``{"itemsets": [...], "degraded": ...}`` — the
  itemset-list shape of :func:`~repro.mining.sharded.mine_sharded`'s
  cells.  A re-run (or a crashed run resumed) skips every partition whose
  artifact is present — hits are byte-identical to re-mining because the
  key pins every input.  The fan-out is
  :func:`~repro.core.parallel.checkpointed_map`: whichever worker mines a
  partition persists it as it finishes, serial or parallel, so a crash or
  a failing partition loses only the partitions still in flight.
* ``retry`` — a :class:`~repro.core.parallel.RetryPolicy` forwarded to the
  process fan-out: killed workers are retried with backoff, completed
  partitions are never re-mined.
* ``on_guard="items_only"`` — graceful degradation: a partition that trips
  the pattern budget contributes *no patterns* (its rows fall back to the
  always-present single-item features) instead of aborting the run; a
  warning event records the degradation.  With the default
  ``on_guard="raise"`` guard trips propagate exactly as before.
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Sequence

from ..core.parallel import RetryPolicy, checkpointed_map
from ..datasets.transactions import TransactionDataset
from ..obs import core as _obs
from ..testing import faults as _faults
from .closed import closed_fpgrowth
from .frequent import frequent_itemsets
from .itemsets import (
    GuardBehavior,
    MinerName,
    MiningResult,
    PatternBudgetExceeded,
    absolute_min_support,
    cap_union,
    check_mining_args,
    itemset_union,
    table_min_support,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cache import ArtifactCache

__all__ = ["mine_class_patterns"]

_MINERS = {
    "closed": closed_fpgrowth,
    "all": frequent_itemsets,
}

#: Cache stage name for per-partition mining artifacts.
_CACHE_STAGE = "mine_partition"


def _mine_partition(
    job: tuple[int, Sequence[Sequence[int]], int],
    miner: MinerName,
    min_length: int,
    max_length: int | None,
    max_patterns: int | None,
    on_guard: GuardBehavior,
) -> dict:
    """Mine one class partition; module-level so process pools can pickle it.

    Returns the partition's ``mine_partition`` artifact: ``"itemsets"``,
    the mined itemsets of at least ``min_length`` items in the miner's
    order, and ``"degraded"``, the tripped guard's name or None.  The
    caller counts the union over the full dataset, so no support is kept.
    """
    label, transactions, absolute = job
    _faults.fault_point("mine", str(label))
    mine_start = time.perf_counter() if _obs._ACTIVE is not None else 0.0
    with _obs.span(
        "mining.partition", miner=miner, rows=len(transactions), min_support=absolute
    ) as partition_span:
        try:
            result = _MINERS[miner](
                transactions,
                min_support=absolute,
                max_length=max_length,
                max_patterns=max_patterns,
            )
        except PatternBudgetExceeded as exc:
            if on_guard != "items_only":
                raise
            partition_span.set(degraded="budget")
            _obs.warn(
                f"class partition {label}: mining tripped the budget guard "
                f"({exc}); degrading this partition to items-only features",
                partition=int(label),
                guard="budget",
            )
            return {"itemsets": [], "degraded": "budget"}
        itemsets = [items for items in result.itemsets if len(items) >= min_length]
        partition_span.set(patterns=len(result), kept=len(itemsets))
    if _obs._ACTIVE is not None:
        _obs.observe(
            "mining.partition.wall_s", time.perf_counter() - mine_start
        )
    return {"itemsets": itemsets, "degraded": None}


def _partition_key(job: tuple[int, Sequence[Sequence[int]], int], config: dict) -> str:
    """Content-addressed cache key for one partition's mining artifact.

    Pins every input that shapes the artifact, ``config`` being
    :func:`_mine_partition`'s keyword arguments: a partition degraded
    under ``on_guard="items_only"`` must never be replayed into a run
    that would have raised.
    """
    from ..runtime.cache import content_key, fingerprint

    label, transactions, absolute = job
    return fingerprint(
        stage=_CACHE_STAGE,
        partition=int(label),
        transactions=content_key([list(t) for t in transactions]),
        min_support=absolute,
        **config,
    )


def mine_class_patterns(
    data: TransactionDataset,
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
    """Mine frequent patterns per class partition and merge them.

    Parameters
    ----------
    data:
        The (training) transaction dataset.
    min_support:
        *Relative* support threshold theta_0 in (0, 1], applied within each
        class partition (per the paper's feature-generation step).
    miner:
        ``"closed"`` (default, the paper's choice via FPClose) or ``"all"``.
    min_length:
        Shortest pattern to keep; default 2 because single items are always
        part of the classifier's feature space separately.
    max_length, max_patterns:
        Optional caps forwarded to the miner (``max_patterns`` applies per
        partition).
    n_jobs:
        Class partitions to mine concurrently (process workers); ``1`` is
        the serial default-equivalent path, ``-1`` uses every CPU.  The
        merged result is independent of ``n_jobs``.
    retry:
        Optional :class:`~repro.core.parallel.RetryPolicy` for the process
        fan-out: transient worker deaths are retried, completed partitions
        are kept.
    cache:
        Optional artifact cache; completed partitions are checkpointed and
        skipped on re-runs (the ``--resume`` machinery).
    on_guard:
        ``"raise"`` (default) propagates guard trips; ``"items_only"``
        degrades the tripping partition to contribute no patterns, with a
        warning event, and — if the *merged* union still exceeds
        ``max_patterns`` — keeps only the first ``max_patterns`` itemsets
        in canonical order rather than aborting.

    Returns
    -------
    MiningResult
        The merged candidate table, in (length, items) order, with per-class
        counts over the *full* dataset from one
        :meth:`~repro.mining.itemsets.MiningResult.counted` pass.  The
        result's ``min_support`` field holds the absolute global count
        equivalent of theta_0.
    """
    check_mining_args(min_support, max_length, miner, on_guard)

    with _obs.span(
        "mining.generate",
        dataset=data.name,
        miner=miner,
        min_support=min_support,
        n_jobs=n_jobs if n_jobs is not None else 1,
    ) as generate_span:
        jobs = [
            (label, transactions, absolute_min_support(min_support, len(transactions)))
            for label, transactions in sorted(data.class_partition().items())
            if transactions
        ]
        config = dict(
            miner=miner,
            min_length=min_length,
            max_length=max_length,
            max_patterns=max_patterns,
            on_guard=on_guard,
        )
        keys = None
        if cache is not None:
            keys = [_partition_key(job, config) for job in jobs]
        mined = checkpointed_map(
            partial(_mine_partition, **config), jobs, keys, cache, _CACHE_STAGE,
            n_jobs=n_jobs, retry=retry,
        )

        degraded_partitions = sum(p["degraded"] is not None for p in mined)
        itemsets = itemset_union(p["itemsets"] for p in mined)
        # Restored artifacts hold lists: free them before the full-dataset
        # count, which is where mining's memory peaks.
        del mined
        itemsets = [
            itemsets[i] for i in cap_union(itemsets, max_patterns, on_guard).tolist()
        ]

        with _obs.span("mining.recount", patterns=len(itemsets)):
            table = MiningResult.counted(
                itemsets, data, table_min_support(min_support, data.n_rows)
            )
        generate_span.set(
            partitions=len(jobs),
            merged_patterns=len(table),
            degraded_partitions=degraded_partitions,
        )
        _obs.add("mining.generation.partitions", len(jobs))
        _obs.add("mining.generation.merged_patterns", len(table))
        if degraded_partitions:
            _obs.add("mining.generation.degraded_partitions", degraded_partitions)
    return table
