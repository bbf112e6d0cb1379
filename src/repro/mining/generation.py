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
  partition's mined patterns are checkpointed under a key derived from the
  partition's content hash and the full mining configuration (guard
  behavior and time limit included), serialized through the
  :mod:`repro.io.serialize` patterns format.  A re-run (or a crashed run
  resumed) skips every partition whose artifact is present — hits are
  byte-identical to re-mining because the key pins every input.  The
  fan-out is :func:`~repro.core.parallel.checkpointed_map`: whichever
  worker mines a partition persists it as it finishes, serial or
  parallel, so a crash or a failing partition loses only the partitions
  still in flight.
* ``retry`` — a :class:`~repro.core.parallel.RetryPolicy` forwarded to the
  process fan-out: killed workers are retried with backoff, completed
  partitions are never re-mined.
* ``on_guard="items_only"`` — graceful degradation: a partition that trips
  the pattern budget or the ``time_limit`` wall-clock guard contributes
  *no patterns* (its rows fall back to the always-present single-item
  features) instead of aborting the run; a warning event records the
  degradation.  With the default ``on_guard="raise"`` guard trips
  propagate exactly as before.
"""

from __future__ import annotations

import time
from functools import partial
from typing import TYPE_CHECKING, Literal, Sequence

from ..core.parallel import RetryPolicy, checkpointed_map
from ..datasets.transactions import TransactionDataset
from ..obs import core as _obs
from ..testing import faults as _faults
from .closed import closed_fpgrowth
from .frequent import frequent_itemsets
from .guards import MiningTimeLimitExceeded, _wall_clock_limit
from .itemsets import (
    MiningResult,
    PatternBudgetExceeded,
    cap_union,
    check_max_length,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cache import ArtifactCache

__all__ = ["mine_class_patterns"]

MinerName = Literal["closed", "all"]
GuardBehavior = Literal["raise", "items_only"]

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
    time_limit: float | None,
) -> dict:
    """Mine one class partition; module-level so process pools can pickle it.

    Returns the partition's ``mine_partition`` artifact: the
    :mod:`repro.io.serialize` patterns format plus ``"degraded"``, the
    tripped guard's name or None.  Supports are partition-local (the
    caller counts the merged set over the full dataset), kept so
    checkpointed artifacts are self-describing.
    """
    from ..io.serialize import patterns_to_json

    label, transactions, absolute = job
    _faults.fault_point("mine", str(label))
    mine_start = time.perf_counter() if _obs._ACTIVE is not None else 0.0
    with _obs.span(
        "mining.partition", miner=miner, rows=len(transactions), min_support=absolute
    ) as partition_span:
        try:
            with _wall_clock_limit(time_limit):
                result = _MINERS[miner](
                    transactions,
                    min_support=absolute,
                    max_length=max_length,
                    max_patterns=max_patterns,
                )
        except (PatternBudgetExceeded, MiningTimeLimitExceeded) as exc:
            if on_guard != "items_only":
                raise
            guard = (
                "budget" if isinstance(exc, PatternBudgetExceeded) else "time limit"
            )
            partition_span.set(degraded=guard)
            _obs.warn(
                f"class partition {label}: mining tripped the {guard} guard "
                f"({exc}); degrading this partition to items-only features",
                partition=int(label),
                guard=guard,
            )
            empty = MiningResult([], absolute, len(transactions))
            return {**patterns_to_json(empty), "degraded": guard}
        kept = result.take(
            [i for i, items in enumerate(result.itemsets) if len(items) >= min_length]
        )
        partition_span.set(patterns=len(result), kept=len(kept))
    if _obs._ACTIVE is not None:
        _obs.observe(
            "mining.partition.wall_s", time.perf_counter() - mine_start
        )
    return {**patterns_to_json(kept), "degraded": None}


def _partition_key(
    label: int,
    transactions: Sequence[Sequence[int]],
    absolute: int,
    miner: str,
    min_length: int,
    max_length: int | None,
    max_patterns: int | None,
    on_guard: GuardBehavior,
    time_limit: float | None,
) -> str:
    """Content-addressed cache key for one partition's mining artifact.

    Pins every input that shapes the artifact: a partition degraded under
    ``on_guard="items_only"`` or a ``time_limit`` must never be replayed
    into a run that would have raised or finished.
    """
    from ..runtime.cache import content_key, fingerprint

    return fingerprint(
        stage=_CACHE_STAGE,
        partition=int(label),
        transactions=content_key([list(t) for t in transactions]),
        min_support=absolute,
        miner=miner,
        min_length=min_length,
        max_length=max_length,
        max_patterns=max_patterns,
        on_guard=on_guard,
        time_limit=time_limit,
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
    time_limit: float | None = None,
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
    time_limit:
        Optional per-partition wall-clock guard in seconds (best-effort,
        SIGALRM-based; see :mod:`repro.mining.guards`).

    Returns
    -------
    MiningResult
        The merged candidate table, in (length, items) order, with per-class
        counts over the *full* dataset from one
        :meth:`~repro.mining.itemsets.MiningResult.counted` pass.  The
        result's ``min_support`` field holds the absolute global count
        equivalent of theta_0.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support is relative and must be in (0, 1]")
    if miner not in _MINERS:
        raise KeyError(miner)
    check_max_length(max_length)
    if on_guard not in ("raise", "items_only"):
        raise ValueError(f"on_guard must be 'raise' or 'items_only', got {on_guard!r}")

    with _obs.span(
        "mining.generate",
        dataset=data.name,
        miner=miner,
        min_support=min_support,
        n_jobs=n_jobs if n_jobs is not None else 1,
    ) as generate_span:
        jobs = []
        for label, transactions in sorted(data.class_partition().items()):
            if not transactions:
                continue
            absolute = max(1, int(-(-min_support * len(transactions) // 1)))  # ceil
            jobs.append((label, transactions, absolute))

        mine_one = partial(
            _mine_partition,
            miner=miner,
            min_length=min_length,
            max_length=max_length,
            max_patterns=max_patterns,
            on_guard=on_guard,
            time_limit=time_limit,
        )

        keys = None
        if cache is not None:
            keys = [
                _partition_key(
                    label, transactions, absolute, miner, min_length,
                    max_length, max_patterns, on_guard, time_limit,
                )
                for label, transactions, absolute in jobs
            ]
        mined = checkpointed_map(
            mine_one, jobs, keys, cache, _CACHE_STAGE, n_jobs=n_jobs, retry=retry
        )

        merged: set[tuple[int, ...]] = set()
        degraded_partitions = 0
        for payload in mined:
            if payload["degraded"] is not None:
                degraded_partitions += 1
                continue
            merged.update(tuple(entry["items"]) for entry in payload["patterns"])
        # The payloads are per-pattern dicts; free them before the
        # full-dataset count, which is where mining's memory peaks.
        del mined
        merged = cap_union(merged, max_patterns, on_guard)
        itemsets = sorted(merged, key=lambda items: (len(items), items))

        global_absolute = max(1, int(round(min_support * data.n_rows)))
        with _obs.span("mining.recount", patterns=len(itemsets)):
            table = MiningResult.counted(itemsets, data, global_absolute)
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
