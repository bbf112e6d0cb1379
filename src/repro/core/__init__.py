"""The paper-facing core API, re-exported in one place.

``repro.core`` gathers the primary contribution of the paper — the
frequent pattern-based classification framework — so downstream users can
write::

    from repro.core import (
        FrequentPatternClassifier, mmrfs, theta_star, suggest_min_support,
    )

without navigating the substrate packages.

It also hosts the two substrate engines every layer builds on:
:mod:`repro.core.bitset` (the packed-bitset transaction engine) and
:mod:`repro.core.parallel` (the deterministic fan-out helper).  Those are
imported eagerly — they depend only on numpy — while the pipeline-level
re-exports resolve lazily (PEP 562) so that substrate modules can import
``repro.core.bitset`` without dragging the whole pipeline in (which would
be a circular import from e.g. ``repro.datasets.transactions``).
"""

from __future__ import annotations

import importlib
from typing import Any

from .bitset import (
    BitMatrix,
    and_popcount,
    pack_bits,
    packed_ones,
    popcount,
    unpack_bits,
    word_count,
)
from .parallel import parallel_map, resolve_n_jobs
from .shards import (
    ShardHandle,
    ShardSet,
    ShardWriter,
    VerticalDataset,
    shard_dataset,
    stitch,
)

#: Lazy re-exports: attribute name -> defining module (relative to repro).
_LAZY_EXPORTS = {
    "FrequentPatternClassifier": "repro.features.pipeline",
    "PatternFeaturizer": "repro.features.transformer",
    "fisher_upper_bound": "repro.measures.bounds",
    "ig_upper_bound": "repro.measures.bounds",
    "theta_star": "repro.measures.bounds",
    "mine_class_patterns": "repro.mining.generation",
    "ddpmine": "repro.selection.direct",
    "MinSupSuggestion": "repro.selection.minsup",
    "suggest_min_support": "repro.selection.minsup",
    "SelectionResult": "repro.selection.mmrfs",
    "mmrfs": "repro.selection.mmrfs",
}

__all__ = [
    "FrequentPatternClassifier",
    "PatternFeaturizer",
    "mine_class_patterns",
    "mmrfs",
    "ddpmine",
    "SelectionResult",
    "ig_upper_bound",
    "fisher_upper_bound",
    "theta_star",
    "suggest_min_support",
    "MinSupSuggestion",
    "BitMatrix",
    "pack_bits",
    "unpack_bits",
    "popcount",
    "packed_ones",
    "and_popcount",
    "word_count",
    "parallel_map",
    "resolve_n_jobs",
    "ShardHandle",
    "ShardSet",
    "ShardWriter",
    "VerticalDataset",
    "shard_dataset",
    "stitch",
]


def __getattr__(name: str) -> Any:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache so subsequent access skips __getattr__
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
