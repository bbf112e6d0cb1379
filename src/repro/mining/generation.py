"""Feature generation (framework step 1, paper Section 3).

"The data is partitioned according to the class label.  Frequent patterns
are discovered in each partition with min_sup.  The collection of frequent
patterns F is the feature candidates."

Patterns mined per class partition are merged (union of itemsets) and their
supports are re-counted on the *full* training set, which is what the
measures and MMRFS need.  Single items are excluded here — the classifier
feature space is ``I ∪ Fs``, with ``I`` always present — so only patterns of
length >= 2 are returned by default.

The per-partition mining runs are independent, so ``n_jobs > 1`` fans them
out over process workers (the miners are pure-Python and GIL-bound);
results are merged in class order, so parallel output is identical to the
serial default.

Fault tolerance (all opt-in, default behavior unchanged):

* ``cache`` — an :class:`~repro.runtime.cache.ArtifactCache`: each
  partition's mined patterns are checkpointed under a key derived from the
  partition's content hash and the full mining configuration, serialized
  through the :mod:`repro.io.serialize` patterns format.  A re-run (or a
  crashed run resumed) skips every partition whose artifact is present —
  hits are byte-identical to re-mining because the key pins every input.
  In the serial path artifacts land as each partition finishes, so a
  crash mid-mining loses at most the partition in flight.
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

import numpy as np

from ..core.bitset import class_counts, packed_ones
from ..core.parallel import RetryPolicy, parallel_map, resolve_n_jobs
from ..datasets.transactions import TransactionDataset
from ..obs import core as _obs
from ..testing import faults as _faults
from .closed import closed_fpgrowth
from .fpgrowth import fpgrowth
from .guards import MiningTimeLimitExceeded, _wall_clock_limit
from .itemsets import MiningResult, Pattern, PatternBudgetExceeded

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.cache import ArtifactCache

__all__ = [
    "mine_class_patterns",
    "recount_supports",
    "filter_by_information_gain",
]

MinerName = Literal["closed", "all"]
GuardBehavior = Literal["raise", "items_only"]

_MINERS = {
    "closed": closed_fpgrowth,
    "all": fpgrowth,
}

#: Cache stage name for per-partition mining artifacts.
_CACHE_STAGE = "mine_partition"


def recount_supports(
    itemsets: Sequence[tuple[int, ...]],
    data: TransactionDataset,
) -> list[Pattern]:
    """Support of each itemset over the whole dataset (packed popcounts).

    One :func:`~repro.core.bitset.class_counts` pass against the all-rows
    mask, so the supports come from the grouped cover kernel.
    """
    if not itemsets:
        return []
    everything = packed_ones(data.n_rows)[np.newaxis, :]
    supports = class_counts(data.item_bits(), everything, itemsets)[:, 0]
    return [
        Pattern(items=items, support=support)
        for items, support in zip(itemsets, supports.tolist())
    ]


def filter_by_information_gain(
    patterns: Sequence[Pattern],
    data: TransactionDataset,
    ig0: float,
) -> list[Pattern]:
    """Keep the patterns whose information gain reaches ``ig0``.

    The direct filtering step the Section 3.2 min_sup strategy is
    calibrated against: mine at ``theta*(IG0)``, then drop everything the
    IG threshold rejects.  The whole candidate set is scored in one
    vectorized pass over batched contingency tables rather than a Python
    loop per pattern.
    """
    if ig0 < 0:
        raise ValueError("ig0 must be >= 0")
    patterns = list(patterns)
    if not patterns:
        return []
    from ..measures.contingency import batch_contingency_tables
    from ..measures.vectorized import information_gain_batch

    tables = batch_contingency_tables(patterns, data)
    gains = information_gain_batch(tables.present, tables.absent)
    kept = [p for p, gain in zip(patterns, gains) if gain >= ig0]
    _obs.add("mining.generation.ig_filtered", len(patterns) - len(kept))
    return kept


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

    Returns ``{"patterns": [(items, support), ...], "degraded": guard-name
    or None}`` — supports are partition-local (the caller recounts over the
    full dataset), kept so checkpointed artifacts are self-describing.
    """
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
            return {"patterns": [], "degraded": guard}
        kept = [
            (p.items, p.support)
            for p in result.patterns
            if len(p.items) >= min_length
        ]
        partition_span.set(patterns=len(result.patterns), kept=len(kept))
    if _obs._ACTIVE is not None:
        _obs.observe(
            "mining.partition.wall_s", time.perf_counter() - mine_start
        )
    return {"patterns": kept, "degraded": None}


def _partition_key(
    label: int,
    transactions: Sequence[Sequence[int]],
    absolute: int,
    miner: str,
    min_length: int,
    max_length: int | None,
    max_patterns: int | None,
) -> str:
    """Content-addressed cache key for one partition's mining artifact."""
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
    )


def _partition_to_payload(mined: dict, absolute: int, n_rows: int) -> dict:
    """Serialize one partition's outcome via the io patterns format."""
    from ..io.serialize import patterns_to_json

    result = MiningResult(
        [Pattern(items=items, support=support) for items, support in mined["patterns"]],
        min_support=absolute,
        n_rows=n_rows,
    )
    payload = patterns_to_json(result)
    payload["degraded"] = mined["degraded"]
    return payload


def _partition_from_payload(payload: dict) -> dict:
    """Inverse of :func:`_partition_to_payload`."""
    from ..io.serialize import patterns_from_json

    result = patterns_from_json(payload)
    return {
        "patterns": [(p.items, p.support) for p in result.patterns],
        "degraded": payload.get("degraded"),
    }


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
        Merged patterns with supports counted over the *full* dataset.  The
        result's ``min_support`` field holds the absolute global count
        equivalent of theta_0.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support is relative and must be in (0, 1]")
    if miner not in _MINERS:
        raise KeyError(miner)
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

        mined: list[dict | None] = [None] * len(jobs)
        keys: list[str | None] = [None] * len(jobs)
        misses = list(range(len(jobs)))
        if cache is not None:
            misses = []
            for i, (label, transactions, absolute) in enumerate(jobs):
                keys[i] = _partition_key(
                    label, transactions, absolute, miner,
                    min_length, max_length, max_patterns,
                )
                payload = cache.get(_CACHE_STAGE, keys[i])
                if payload is not None:
                    mined[i] = _partition_from_payload(payload)
                    _obs.event(
                        "stage_skipped",
                        f"partition {label}: restored mined patterns from cache",
                        stage=_CACHE_STAGE,
                        partition=int(label),
                    )
                else:
                    misses.append(i)

        def checkpoint(i: int, outcome: dict) -> None:
            if cache is not None:
                cache.put(
                    _CACHE_STAGE,
                    keys[i],
                    _partition_to_payload(
                        outcome, absolute=jobs[i][2], n_rows=len(jobs[i][1])
                    ),
                )

        if len(misses) <= 1 or resolve_n_jobs(n_jobs) <= 1:
            # Serial path: checkpoint as each partition lands, so a crash
            # mid-mining preserves every completed partition.
            for i in misses:
                mined[i] = mine_one(jobs[i])
                checkpoint(i, mined[i])
        else:
            outcomes = parallel_map(
                mine_one,
                [jobs[i] for i in misses],
                n_jobs=n_jobs,
                executor="process",
                retry=retry,
            )
            for i, outcome in zip(misses, outcomes):
                mined[i] = outcome
                checkpoint(i, outcome)

        merged: set[tuple[int, ...]] = set()
        degraded_partitions = 0
        for outcome in mined:
            assert outcome is not None
            if outcome["degraded"] is not None:
                degraded_partitions += 1
                continue
            merged.update(items for items, _ in outcome["patterns"])
            # The budget bounds the *candidate feature set*, so the merged union
            # across class partitions must honor it too.  Bulk update means
            # `emitted` can land past budget + 1; it stays a strict lower bound
            # on the true count (see PatternBudgetExceeded).
            if max_patterns is not None and len(merged) > max_patterns:
                if on_guard == "raise":
                    raise PatternBudgetExceeded(max_patterns, len(merged))

        if max_patterns is not None and len(merged) > max_patterns:
            # Degraded mode: cap the union deterministically instead of
            # aborting — the first max_patterns itemsets in canonical order.
            _obs.warn(
                f"merged pattern union ({len(merged)}) exceeds the budget of "
                f"{max_patterns}; keeping the first {max_patterns} in "
                "canonical order",
                guard="budget",
                merged=len(merged),
                budget=max_patterns,
            )
            merged = set(sorted(merged)[:max_patterns])

        with _obs.span("mining.recount", patterns=len(merged)):
            patterns = recount_supports(sorted(merged), data)
        patterns.sort(key=lambda p: (p.length, p.items))
        generate_span.set(
            partitions=len(jobs),
            merged_patterns=len(patterns),
            degraded_partitions=degraded_partitions,
        )
        _obs.add("mining.generation.partitions", len(jobs))
        _obs.add("mining.generation.merged_patterns", len(patterns))
        if degraded_partitions:
            _obs.add("mining.generation.degraded_partitions", degraded_partitions)
    global_absolute = max(1, int(round(min_support * data.n_rows)))
    return MiningResult(patterns, min_support=global_absolute, n_rows=data.n_rows)
