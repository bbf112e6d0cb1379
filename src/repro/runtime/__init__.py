"""Fault-tolerant, resumable execution layer.

The pipeline's expensive phases — per-class pattern mining, per-fold
cross-validation — are exactly the ones long enough to die halfway
through on real hardware.  This package makes that survivable:

* :mod:`repro.runtime.cache` — a content-addressed artifact cache keyed
  by dataset content hashes and config fingerprints, with checksummed,
  atomically-written JSON artifacts (``repro experiment --resume``);
* :mod:`repro.runtime.retry` — retry-with-backoff policy and
  transient-vs-deterministic failure classification for process-pool
  fan-outs;
* :mod:`repro.runtime.experiment` — the checkpointed end-to-end
  experiment driver behind ``repro experiment``.

The deterministic fault-injection harness that tests all of this lives
in :mod:`repro.testing.faults`.

``experiment`` is imported lazily: it pulls in the full pipeline stack,
while ``cache``/``retry`` stay import-light enough for hot paths.
"""

from .cache import (
    ArtifactCache,
    CorruptArtifactError,
    canonical_json,
    content_key,
    fingerprint,
)
from .retry import DEFAULT_RETRY, RetryPolicy, WorkerCrashError, is_transient

__all__ = [
    "ArtifactCache",
    "CorruptArtifactError",
    "canonical_json",
    "content_key",
    "fingerprint",
    "DEFAULT_RETRY",
    "RetryPolicy",
    "WorkerCrashError",
    "is_transient",
    "ExperimentSpec",
    "ExperimentResult",
    "ResumeError",
    "ResumeMissingError",
    "ResumeMismatchError",
    "run_experiment",
]

_EXPERIMENT_EXPORTS = {
    "ExperimentSpec",
    "ExperimentResult",
    "ResumeError",
    "ResumeMissingError",
    "ResumeMismatchError",
    "run_experiment",
}


def __getattr__(name: str):
    if name in _EXPERIMENT_EXPORTS:
        from . import experiment

        return getattr(experiment, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
