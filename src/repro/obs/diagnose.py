"""Self-diagnosing telemetry: mine what discriminates bad runs from good.

This is the paper's thesis pointed back at the system itself: the
sessionizer (:mod:`repro.obs.sessions`) turns the observability exhaust
into transactions, a labeler splits them into slow/fast or failed/clean,
and the *existing* engine — per-class closed mining
(:func:`repro.mining.generation.mine_class_patterns`) followed by MMRFS
(:func:`repro.selection.mmrfs.mmrfs`) — surfaces the patterns whose
information gain best separates the classes.  The top-ranked pattern
*names the regression*: a duration-bucket item pins the span whose
latency moved, a config item pins the flag that correlates with
failures.

Ranking is by information gain, tie-broken by the wall time the pattern
accounts for in its majority class (among equally-discriminative
patterns, surface the expensive one) — which also makes
:func:`explain_diff`, the two-trace special case behind
``repro trace diff --explain``, robust to one fast span straddling a
bucket edge.

An optional ``sequences`` mode runs the same corpus through
:func:`repro.mining.prefixspan.prefixspan` per class and IG-ranks the
discriminative *subsequences* instead, exercising the order-sensitive
pipeline on the same vocabulary.

Import discipline: ``repro.obs`` must stay import-clean of the rest of
``repro`` (the mining engine imports ``repro.obs.core``), so everything
below ``repro.obs`` is imported lazily inside the functions that need
it — the same pattern the CLI uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from . import core as _obs
from .report import TraceData
from .sessions import (
    SessionCorpus,
    SessionizerConfig,
    SymbolBuilder,
    label_by_failure,
    label_by_quantile,
    sessionize_traces,
    span_path_sessions,
)

__all__ = [
    "DiagnosisConfig",
    "DiagnosisReport",
    "diagnose_corpus",
    "diagnose_traces",
    "explain_diff",
]


@dataclass(frozen=True)
class DiagnosisConfig:
    """Mining/selection knobs for one diagnosis run."""

    min_support: float = 0.05
    min_length: int = 1
    #: ``None`` keeps closed mining lossless — a length cap excludes
    #: non-closed short itemsets whose closures exceed the cap, which on
    #: highly correlated session items can empty the candidate set.
    max_length: int | None = None
    max_patterns: int | None = 200_000
    top: int = 10
    delta: int = 1
    sequences: bool = False
    label: str = "wall"  # "wall" | "failure"
    quantile: float = 0.75


#: The two-trace case has tiny per-class populations (one transaction
#: per span occurrence), so every pattern is rare — mine at a floor
#: support and keep the report short.
EXPLAIN_CONFIG = DiagnosisConfig(min_support=0.05, top=5)


@dataclass
class DiagnosisReport:
    """Ranked discriminative patterns plus the corpus statistics."""

    mode: str
    class_names: tuple[str, ...]
    class_totals: tuple[int, ...]
    n_sessions: int
    n_candidates: int
    entries: list[dict] = field(default_factory=list)

    @property
    def top(self) -> dict | None:
        return self.entries[0] if self.entries else None

    def to_json(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "class_names": list(self.class_names),
            "class_totals": list(self.class_totals),
            "n_sessions": self.n_sessions,
            "n_candidates": self.n_candidates,
            "entries": self.entries,
        }

    def render(self) -> str:
        classes = ", ".join(
            f"{name}={total}"
            for name, total in zip(self.class_names, self.class_totals)
        )
        lines = [
            f"diagnosed {self.n_sessions} sessions ({classes}) — "
            f"{self.n_candidates} candidate {self.mode}, "
            f"top {len(self.entries)} by information gain"
        ]
        if not self.entries:
            lines.append("no discriminative patterns at this support")
            return "\n".join(lines)
        support_cols = " ".join(f"{n[:8]:>8s}" for n in self.class_names)
        header = f"{'rank':>4s} {'IG':>7s} {support_cols} {'class':10s} pattern"
        lines.append(header)
        lines.append("-" * len(header))
        joiner = " + " if self.mode == "itemsets" else " -> "
        for entry in self.entries:
            supports = " ".join(f"{s:8d}" for s in entry["class_supports"])
            items = entry["items"]
            shown = joiner.join(items[:8])
            if len(items) > 8:
                shown += f" (+{len(items) - 8} more)"
            lines.append(
                f"{entry['rank']:4d} {entry['ig']:7.4f} {supports} "
                f"{entry['majority_class']:10s} {shown}"
            )
        return "\n".join(lines)


def _class_totals(labels: Sequence[int], n_classes: int) -> list[int]:
    totals = [0] * n_classes
    for label in labels:
        totals[label] += 1
    return totals


def _covered_wall(
    corpus: SessionCorpus,
    labels: Sequence[int],
    symbols: Sequence[str],
    majority: int,
) -> float:
    """Wall time of majority-class sessions the pattern covers — the IG
    tiebreak (sessions iterated in corpus order: deterministic sum)."""
    wanted = set(symbols)
    total = 0.0
    for session, label in zip(corpus.sessions, labels):
        if label == majority and wanted.issubset(session.items):
            total += session.wall_s
    return total


def _finalize(entries: list[dict]) -> list[dict]:
    entries.sort(
        key=lambda e: (-e["ig"], -e["covered_wall_s"], len(e["items"]), e["items"])
    )
    for rank, entry in enumerate(entries, start=1):
        entry["rank"] = rank
    return entries


def _itemset_entries(
    corpus: SessionCorpus,
    labels: list[int],
    class_names: Sequence[str],
    config: DiagnosisConfig,
) -> tuple[list[dict], int]:
    from ..datasets.transactions import TransactionDataset
    from ..mining.generation import mine_class_patterns
    from ..selection.mmrfs import mmrfs

    vocabulary = corpus.vocabulary
    transactions, _ = corpus.encode()
    data = TransactionDataset(
        transactions,
        labels,
        n_items=len(vocabulary),
        n_classes=len(class_names),
        name="obs-sessions",
    )
    mined = mine_class_patterns(
        data,
        min_support=config.min_support,
        miner="closed",
        min_length=config.min_length,
        max_length=config.max_length,
        max_patterns=config.max_patterns,
    )
    if not len(mined):
        return [], 0
    selection = mmrfs(
        mined,
        data,
        relevance="information_gain",
        delta=config.delta,
        max_selected=config.top,
    )
    entries = []
    for feature in selection.selected:
        supports = data.class_support_counts(feature.pattern.items)
        symbols = [vocabulary[i] for i in feature.pattern.items]
        entries.append(
            {
                "items": symbols,
                "ig": float(feature.relevance),
                "support": int(feature.pattern.support),
                "class_supports": [int(s) for s in supports],
                "majority_class": class_names[feature.majority_class],
                "covered_wall_s": _covered_wall(
                    corpus, labels, symbols, feature.majority_class
                ),
            }
        )
    return _finalize(entries), len(mined)


def _sequence_entries(
    corpus: SessionCorpus,
    labels: list[int],
    class_names: Sequence[str],
    config: DiagnosisConfig,
) -> tuple[list[dict], int]:
    from ..measures.information_gain import information_gain_from_counts
    from ..mining.prefixspan import is_subsequence, prefixspan

    vocabulary = corpus.vocabulary
    _, sequences = corpus.encode()
    by_class: dict[int, list[tuple[int, ...]]] = {}
    for sequence, label in zip(sequences, labels):
        by_class.setdefault(label, []).append(sequence)
    totals = _class_totals(labels, len(class_names))

    candidates: set[tuple[int, ...]] = set()
    for label, class_sequences in sorted(by_class.items()):
        absolute = max(1, math.ceil(config.min_support * len(class_sequences)))
        for pattern in prefixspan(
            class_sequences,
            min_support=absolute,
            max_length=config.max_length,
            max_patterns=config.max_patterns,
        ):
            if len(pattern.sequence) >= config.min_length:
                candidates.add(tuple(pattern.sequence))

    entries = []
    for items in sorted(candidates):
        present = [
            sum(
                1
                for sequence in by_class.get(label, ())
                if is_subsequence(items, sequence)
            )
            for label in range(len(class_names))
        ]
        absent = [t - p for t, p in zip(totals, present)]
        rates = [
            p / t if t else 0.0 for p, t in zip(present, totals)
        ]
        majority = max(range(len(class_names)), key=lambda c: (rates[c], -c))
        symbols = [vocabulary[i] for i in items]
        covered = 0.0
        for session, sequence, label in zip(
            corpus.sessions, sequences, labels
        ):
            if label == majority and is_subsequence(items, sequence):
                covered += session.wall_s
        entries.append(
            {
                "items": symbols,
                "ig": float(information_gain_from_counts(present, absent)),
                "support": int(sum(present)),
                "class_supports": [int(p) for p in present],
                "majority_class": class_names[majority],
                "covered_wall_s": covered,
            }
        )
    return _finalize(entries)[: config.top], len(candidates)


def diagnose_corpus(
    corpus: SessionCorpus,
    labels: Sequence[int],
    class_names: Sequence[str],
    config: DiagnosisConfig | None = None,
) -> DiagnosisReport:
    """Mine and rank the patterns that discriminate the labeled classes.

    Raises :class:`ValueError` on a degenerate labeling (fewer than two
    populated classes) — there is nothing to discriminate.
    """
    config = config or DiagnosisConfig()
    labels = [int(label) for label in labels]
    if len(labels) != len(corpus):
        raise ValueError(
            f"{len(labels)} labels for {len(corpus)} sessions"
        )
    totals = _class_totals(labels, len(class_names))
    if sum(1 for t in totals if t > 0) < 2:
        raise ValueError(
            "diagnosis needs at least two populated classes; every session "
            f"is {class_names[totals.index(max(totals))]!r} — adjust the "
            "labeler (quantile/failure) or widen the corpus"
        )
    mode = "sequences" if config.sequences else "itemsets"
    with _obs.span(
        "obs.diagnose", sessions=len(corpus), mode=mode
    ) as span:
        if config.sequences:
            entries, n_candidates = _sequence_entries(
                corpus, labels, class_names, config
            )
        else:
            entries, n_candidates = _itemset_entries(
                corpus, labels, class_names, config
            )
        span.set(candidates=n_candidates, reported=len(entries))
        _obs.add("diagnose.sessions", len(corpus))
        _obs.add("diagnose.candidates", n_candidates)
    return DiagnosisReport(
        mode=mode,
        class_names=tuple(class_names),
        class_totals=tuple(totals),
        n_sessions=len(corpus),
        n_candidates=n_candidates,
        entries=entries,
    )


def label_corpus(
    corpus: SessionCorpus, config: DiagnosisConfig
) -> tuple[list[int], tuple[str, str]]:
    """Apply the labeler ``config`` names (``wall`` or ``failure``)."""
    if config.label == "failure":
        return label_by_failure(corpus)
    if config.label == "wall":
        return label_by_quantile(corpus, config.quantile)
    raise ValueError(f"unknown label mode {config.label!r}")


def diagnose_traces(
    paths: Iterable[str],
    config: DiagnosisConfig | None = None,
    sessionizer: SessionizerConfig | None = None,
) -> DiagnosisReport:
    """Sessionize trace files, label them, and diagnose the corpus."""
    config = config or DiagnosisConfig()
    corpus = sessionize_traces(paths, sessionizer)
    labels, class_names = label_corpus(corpus, config)
    return diagnose_corpus(corpus, labels, class_names, config)


def explain_diff(
    base: TraceData,
    other: TraceData,
    config: DiagnosisConfig | None = None,
) -> DiagnosisReport:
    """Name the pattern that discriminates two traces.

    Mines at per-span-*path* granularity — each aggregated span path of
    each trace is one transaction of its hierarchy symbols plus its
    self-wall duration bucket, labeled by which trace it came from — so
    the top pattern names the span (or duration regime) that separates
    base from candidate.  The backing store of
    ``repro trace diff --explain``.
    """
    config = config or EXPLAIN_CONFIG
    builder = SymbolBuilder(SessionizerConfig().duration_subdiv)
    base_sessions = span_path_sessions(base, "base", builder=builder)
    other_sessions = span_path_sessions(
        other, "candidate", builder=builder
    )
    if not base_sessions or not other_sessions:
        raise ValueError(
            "explain needs spans on both sides; one of the traces has none "
            "(event-only traces carry nothing to attribute)"
        )
    corpus = SessionCorpus(base_sessions + other_sessions)
    labels = [0] * len(base_sessions) + [1] * len(other_sessions)
    return diagnose_corpus(corpus, labels, ("base", "candidate"), config)
