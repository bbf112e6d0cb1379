"""The fault-tolerant, resumable end-to-end experiment driver.

``repro experiment DATASET --out DIR`` runs the paper's full pipeline —
per-class closed-pattern mining, MMRFS selection, cross-validated
evaluation — as a sequence of *checkpointed stages* in a run directory::

    DIR/
      run.json         run identity: config fingerprint, spec, dataset hash
      cache/           content-addressed stage artifacts (ArtifactCache)
        mine_partition/<key>.json     one per class partition
        select/<key>.json             the MMRFS outcome
        fold/<key>.json               one per outer CV fold
      patterns.json    final artifact: merged mined patterns
      selection.json   final artifact: the selected feature set
      report.json      final artifact: fold scores + summary (deterministic)

``--resume`` replays the same spec against the same directory: stages
whose artifacts are present are restored instead of recomputed, and
because every cache key pins the dataset content hash and the complete
stage configuration, a resumed run's final artifacts are byte-identical
to an uninterrupted run's.  Resuming against a directory whose
``run.json`` was produced by a *different* spec or dataset fails loudly
(:class:`ResumeMismatchError`) — silently mixing two runs' artifacts is
the one thing a checkpoint store must never do — and a corrupt artifact
fails with :class:`~repro.runtime.cache.CorruptArtifactError`.

Failure handling within a run: process-pool worker deaths are retried
(:data:`~repro.runtime.retry.DEFAULT_RETRY`), and partitions that trip
the pattern budget degrade to items-only features
(``on_guard="items_only"``) instead of aborting the run.

Every checkpointed stage is one
:func:`~repro.core.parallel.checkpointed_map` fan-out (the selection
stage is a one-item map), so each artifact lands as soon as its item
finishes, whatever ``n_jobs`` is.  :func:`run_experiment` plants
``stage:<name>`` fault points after each stage completes, and the
fan-outs reach ``stage:<stage>:<i>`` after item ``i``'s artifact lands,
which is how the crash/resume test suite stages mid-run power loss
deterministically.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from ..core.parallel import checkpointed_map
from ..datasets.transactions import TransactionDataset
from ..eval.cross_validation import CVReport, cross_validate_pipeline
from ..io.serialize import (
    save_patterns,
    save_selection,
    selection_from_json,
    selection_to_json,
)
from ..mining.generation import mine_class_patterns
from ..obs import core as _obs
from ..selection.mmrfs import mmrfs
from ..testing import faults as _faults
from .cache import ArtifactCache, dump_json, fingerprint
from .retry import DEFAULT_RETRY, RetryPolicy

__all__ = [
    "ExperimentSpec",
    "ExperimentResult",
    "ResumeError",
    "ResumeMissingError",
    "ResumeMismatchError",
    "run_experiment",
]

_RUN_FORMAT_VERSION = 1


class ResumeError(RuntimeError):
    """Base class for ``--resume`` failures."""


class ResumeMissingError(ResumeError):
    """``--resume`` pointed at a directory without a run manifest."""


class ResumeMismatchError(ResumeError):
    """The run directory belongs to a different spec or dataset."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything that determines an experiment's outcome.

    The spec (plus the dataset's content hash) is the run's fingerprint:
    two runs with equal fingerprints produce byte-identical artifacts, so
    the fingerprint is what ``--resume`` checks before trusting a cache.
    """

    dataset: str
    scale: float = 1.0
    min_support: float = 0.1
    miner: str = "closed"
    max_length: int | None = 5
    max_patterns: int | None = 200_000
    min_length: int = 2
    delta: int = 3
    relevance: str = "information_gain"
    variant: str = "Pat_FS"
    model: str = "svm"
    folds: int = 3
    seed: int = 0
    #: Rows per mmap shard for out-of-core mining; ``None`` keeps the
    #: in-memory batch path.  The two paths produce identical artifacts
    #: (property-tested), so this is purely a memory/scale knob.
    shard_rows: int | None = None


@dataclass
class ExperimentResult:
    """Outcome of one (possibly resumed) experiment run."""

    out_dir: Path
    run_fingerprint: str
    n_patterns: int
    n_selected: int
    cv: CVReport

    @property
    def mean_accuracy(self) -> float:
        return self.cv.mean_accuracy


def run_fingerprint(spec: ExperimentSpec, data: TransactionDataset) -> str:
    """The run's identity: spec plus dataset content hash."""
    return fingerprint(
        format=_RUN_FORMAT_VERSION,
        spec=asdict(spec),
        dataset_hash=data.content_hash(),
    )


def _write_run_manifest(
    path: Path, spec: ExperimentSpec, data: TransactionDataset, key: str
) -> None:
    dump_json(
        {
            "format_version": _RUN_FORMAT_VERSION,
            "fingerprint": key,
            "spec": asdict(spec),
            "dataset": {
                "name": data.name,
                "rows": data.n_rows,
                "items": data.n_items,
                "classes": data.n_classes,
                "content_hash": data.content_hash(),
            },
        },
        path,
    )


def _check_resumable(path: Path, key: str) -> None:
    """Validate the existing run manifest against this run's identity."""
    if not path.exists():
        raise ResumeMissingError(
            f"cannot resume: no run manifest at {path} "
            "(was this directory produced by 'repro experiment'?)"
        )
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ResumeMismatchError(
            f"cannot resume: run manifest {path} is not valid JSON ({exc})"
        ) from exc
    if manifest.get("format_version") != _RUN_FORMAT_VERSION:
        raise ResumeMismatchError(
            f"cannot resume: unsupported run format "
            f"{manifest.get('format_version')!r} in {path}"
        )
    found = manifest.get("fingerprint")
    if found != key:
        raise ResumeMismatchError(
            "cannot resume: run directory was produced by a different "
            f"spec or dataset (fingerprint {found!r} != {key!r}); "
            "rerun without --resume to start fresh"
        )


def run_experiment(
    data: TransactionDataset,
    spec: ExperimentSpec,
    out_dir: str | Path,
    resume: bool = False,
    n_jobs: int | None = 1,
    retry: RetryPolicy | None = DEFAULT_RETRY,
) -> ExperimentResult:
    """Run (or resume) the checkpointed end-to-end experiment.

    Without ``resume``, any artifacts from a previous run in ``out_dir``
    are cleared first; with it, the run manifest is verified against this
    run's fingerprint and completed stages are restored from the cache.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    key = run_fingerprint(spec, data)
    manifest_path = out_dir / "run.json"
    cache = ArtifactCache(out_dir / "cache")

    if resume:
        _check_resumable(manifest_path, key)
    else:
        cache.clear()
        for stale in ("patterns.json", "selection.json", "report.json"):
            (out_dir / stale).unlink(missing_ok=True)
        _write_run_manifest(manifest_path, spec, data, key)

    with _obs.span(
        "runtime.experiment",
        dataset=data.name,
        variant=spec.variant,
        resumed=resume,
    ):
        # -- stage 1: per-class mining (partition-level checkpoints) ----
        mining = dict(
            min_support=spec.min_support,
            miner=spec.miner,
            min_length=spec.min_length,
            max_length=spec.max_length,
            max_patterns=spec.max_patterns,
            n_jobs=n_jobs,
            retry=retry,
            cache=cache,
            on_guard="items_only",
        )
        if spec.shard_rows is not None:
            # Out-of-core path: rows live in mmap shard files opened
            # zero-copy by the workers; per-shard artifacts go through
            # the same cache, so resume semantics are unchanged.
            from ..core.shards import shard_dataset
            from ..mining.sharded import mine_sharded

            shard_set = shard_dataset(
                data, out_dir / "shards", shard_rows=spec.shard_rows
            )
            mined = mine_sharded(shard_set, **mining)
        else:
            mined = mine_class_patterns(data, **mining)
        save_patterns(mined, out_dir / "patterns.json", catalog=data.catalog)
        _faults.fault_point("stage", "mine")

        # -- stage 2: feature selection (single checkpoint) -------------
        [selected] = checkpointed_map(
            lambda candidates: selection_to_json(
                mmrfs(candidates, data, relevance=spec.relevance, delta=spec.delta)
            ),
            [mined],
            [fingerprint(stage="select", run=key)],
            cache,
            "select",
        )
        selection = selection_from_json(selected)
        save_selection(selection, out_dir / "selection.json", catalog=data.catalog)
        _faults.fault_point("stage", "select")

        # -- stage 3: cross-validated evaluation (fold checkpoints) ------
        from ..experiments.registry import ExperimentConfig
        from ..experiments.tables import make_variant

        config = ExperimentConfig(
            min_support=spec.min_support,
            delta=spec.delta,
            max_length=spec.max_length
            if spec.max_length is not None
            else ExperimentConfig().max_length,
        )
        factory = make_variant(spec.variant, spec.model, config)
        report = cross_validate_pipeline(
            factory,
            data,
            n_folds=spec.folds,
            seed=spec.seed,
            model_name=spec.variant,
            n_jobs=n_jobs,
            cache=cache,
            run_key=key,
        )

        # -- final report (deterministic: no wall-clock, no hit counts) --
        dump_json(
            {
                "format_version": _RUN_FORMAT_VERSION,
                "fingerprint": key,
                "spec": asdict(spec),
                "dataset": {
                    "name": data.name,
                    "rows": data.n_rows,
                    "content_hash": data.content_hash(),
                },
                "mining": {
                    "n_patterns": len(mined),
                    "min_support_absolute": mined.min_support,
                },
                "selection": {
                    "n_selected": len(selection),
                    "considered": selection.considered,
                    "fully_covered": selection.fully_covered,
                },
                "cv": {
                    "folds": [asdict(score) for score in report.folds],
                    "mean_accuracy": report.mean_accuracy,
                    "std_accuracy": report.std_accuracy,
                },
            },
            out_dir / "report.json",
        )
        _faults.fault_point("stage", "report")

    return ExperimentResult(
        out_dir=out_dir,
        run_fingerprint=key,
        n_patterns=len(mined),
        n_selected=len(selection),
        cv=report,
    )
