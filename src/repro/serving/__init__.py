"""Low-latency prediction serving for fitted pattern classifiers.

Three layers, each usable on its own:

* :mod:`~repro.serving.compiled` — :func:`compile_model` lowers a fitted
  :class:`~repro.features.pipeline.FrequentPatternClassifier` into a
  :class:`CompiledModel`: the pipeline's featurizer (item mask and
  pattern cover plan) plus the classifier's fused linear decision
  function — the model behind every prediction, batch or served.
* :mod:`~repro.serving.registry` — :class:`ModelRegistry` publishes and
  loads models by content fingerprint on top of the runtime's
  checksum-verified artifact cache.
* :mod:`~repro.serving.frontend` — :class:`ServingFrontend` runs a
  compiled model behind a bounded queue and a supervised worker pool.
* :mod:`~repro.serving.telemetry` — :class:`ServingTelemetry` attaches
  live, windowed observability to a frontend: rolling p50/p90/p99,
  per-request trace sampling, SLO alerting, snapshot + Prometheus
  exposition.
* :mod:`~repro.serving.http_stats` — :class:`StatsServer`, the
  stdlib-only HTTP endpoint serving ``/stats.json`` and ``/metrics``.

See ``docs/SERVING.md`` for the architecture walkthrough.
"""

from .compiled import (
    DEFAULT_CHUNK_ROWS,
    CompiledModel,
    compile_model,
    sanitize_transactions,
)
from .frontend import ServingClosedError, ServingFrontend
from .http_stats import StatsServer
from .registry import (
    MODELS_STAGE,
    ModelNotFoundError,
    ModelRecord,
    ModelRegistry,
)
from .telemetry import (
    SNAPSHOT_SCHEMA,
    ServingTelemetry,
    TelemetryConfig,
    TraceEventLog,
    render_prometheus,
)

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "MODELS_STAGE",
    "SNAPSHOT_SCHEMA",
    "CompiledModel",
    "ModelNotFoundError",
    "ModelRecord",
    "ModelRegistry",
    "ServingClosedError",
    "ServingFrontend",
    "ServingTelemetry",
    "StatsServer",
    "TelemetryConfig",
    "TraceEventLog",
    "compile_model",
    "render_prometheus",
    "sanitize_transactions",
]
