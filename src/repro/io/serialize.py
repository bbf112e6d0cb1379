"""JSON serialization of mined patterns and selection results.

Mining large pattern sets is the expensive step of the framework; being
able to persist and reload them (with supports and the item catalog needed
to interpret them) makes the pipeline restartable and lets selected
feature sets ship as artifacts.
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import numpy as np

from ..datasets.transactions import ItemCatalog
from ..mining.itemsets import MiningResult, Pattern, canonical
from ..selection.mmrfs import SelectedFeature, SelectionResult

__all__ = [
    "patterns_to_json",
    "patterns_from_json",
    "save_patterns",
    "load_patterns",
    "selection_to_json",
    "selection_from_json",
    "save_selection",
    "load_selection",
]

_FORMAT_VERSION = 1


def patterns_to_json(
    result: MiningResult, catalog: ItemCatalog | None = None
) -> dict:
    """JSON-ready dict for a mining result (optionally with item names)."""
    payload = {
        "format_version": _FORMAT_VERSION,
        "min_support": result.min_support,
        "n_rows": result.n_rows,
        "patterns": [
            {"items": list(items), "support": support}
            for items, support in zip(result.itemsets, result.supports.tolist())
        ],
    }
    if catalog is not None:
        payload["item_names"] = list(catalog.item_names)
    return payload


def patterns_from_json(payload: dict) -> MiningResult:
    """Inverse of :func:`patterns_to_json`: a table of one support column."""
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported patterns format version: {version}")
    entries = payload["patterns"]
    return MiningResult.from_counts(
        [canonical(entry["items"]) for entry in entries],
        [entry["support"] for entry in entries],
        min_support=int(payload["min_support"]),
        n_rows=int(payload["n_rows"]),
    )


def save_patterns(
    result: MiningResult,
    target: str | Path | io.TextIOBase,
    catalog: ItemCatalog | None = None,
) -> None:
    """Persist a mining result as JSON."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            save_patterns(result, handle, catalog)
            return
    json.dump(patterns_to_json(result, catalog), target, indent=1)


def load_patterns(source: str | Path | io.TextIOBase) -> MiningResult:
    """Load a mining result saved by :func:`save_patterns`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_patterns(handle)
    return patterns_from_json(json.load(source))


def selection_to_json(
    selection: SelectionResult, catalog: ItemCatalog | None = None
) -> dict:
    """JSON-ready dict for an MMRFS run (selection order preserved)."""

    def feature_entry(feature: SelectedFeature) -> dict:
        entry = {
            "items": list(feature.pattern.items),
            "support": feature.pattern.support,
            "relevance": feature.relevance,
            "gain": feature.gain,
            "majority_class": feature.majority_class,
            "order": feature.order,
        }
        if catalog is not None:
            entry["rendered"] = catalog.describe(feature.pattern.items)
        return entry

    return {
        "format_version": _FORMAT_VERSION,
        "delta": selection.delta,
        "considered": selection.considered,
        "fully_covered": selection.fully_covered,
        "coverage_counts": [int(c) for c in selection.coverage_counts],
        "selected": [feature_entry(f) for f in selection.selected],
    }


def selection_from_json(payload: dict) -> SelectionResult:
    """Inverse of :func:`selection_to_json`.

    Exact on everything the forward direction emits — features (with
    relevance/gain diagnostics bit-for-bit, since JSON floats round-trip
    exactly), selection order, delta and coverage counts — which is what
    lets a resumed run reuse a checkpointed selection byte-identically.
    """
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported selection format version: {version}")
    selected = [
        SelectedFeature(
            pattern=Pattern(
                items=tuple(entry["items"]), support=int(entry["support"])
            ),
            relevance=float(entry["relevance"]),
            gain=float(entry["gain"]),
            majority_class=int(entry["majority_class"]),
            order=int(entry["order"]),
        )
        for entry in payload["selected"]
    ]
    return SelectionResult(
        selected=selected,
        coverage_counts=np.asarray(payload["coverage_counts"], dtype=np.int64),
        delta=int(payload["delta"]),
        considered=int(payload["considered"]),
    )


def save_selection(
    selection: SelectionResult,
    target: str | Path | io.TextIOBase,
    catalog: ItemCatalog | None = None,
) -> None:
    """Persist a selection result as JSON."""
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as handle:
            save_selection(selection, handle, catalog)
            return
    json.dump(selection_to_json(selection, catalog), target, indent=1)


def load_selection(source: str | Path | io.TextIOBase) -> SelectionResult:
    """Load a selection result saved by :func:`save_selection`."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as handle:
            return load_selection(handle)
    return selection_from_json(json.load(source))
