"""``repro.obs`` — zero-dependency instrumentation for the whole pipeline.

Three facilities, all off by default and all merged into one artifact:

* a hierarchical **span tracer** (wall + CPU time, peak RSS) that is
  thread-safe and survives the process-pool fan-out of parallel mining;
* a **counter/series/histogram registry** threaded through the hot paths
  — per-miner candidate/pruned counts, bitset kernel volume, closure
  checks, MMRFS gain evaluations and coverage progress, contingency
  batch sizes, plus log-bucket latency/size distributions
  (:mod:`repro.obs.metrics`) with mergeable p50/p90/p99 rollups;
* **structured emission** — a JSONL trace with a run manifest and a
  per-phase rollup, validated by :mod:`repro.obs.schema`, summarized by
  ``repro report``, and compared/ranked by the trace analytics layer
  (:mod:`repro.obs.analysis`, ``repro trace diff`` / ``repro trace top``)
  and the benchmark trend store (:mod:`repro.obs.bench`,
  ``repro bench check``).

Typical use (the CLI's ``--trace`` flag does exactly this)::

    from repro import obs

    with obs.session() as sess:
        with obs.span("experiment", dataset="austral"):
            run()                       # instrumented internals record here
    obs.write_trace("run.jsonl", sess)

When no session is installed every hook is a single global read plus a
``None`` check — the disabled overhead is bounded by the benchmark suite
(``benchmarks/test_obs_overhead.py``) at under 3% of pipeline runtime.

See ``docs/OBSERVABILITY.md`` for the span/counter API, the trace schema
and the manifest fields.
"""

from .analysis import aggregate_paths, diff_traces, top_paths
from .bench import append_record, check_regressions, load_history
from .diagnose import (
    DiagnosisConfig,
    DiagnosisReport,
    diagnose_corpus,
    diagnose_traces,
    explain_diff,
)
from .core import (
    ObsSession,
    active,
    add,
    event,
    observe,
    record,
    session,
    span,
    warn,
    worker_session,
)
from .emit import phase_rollup, trace_lines, write_trace
from .live import SliceRing, SloMonitor, SloRule
from .manifest import build_manifest, git_sha
from .metrics import Histogram
from .report import TraceData, load_trace, render_report
from .sessions import (
    Session,
    SessionCorpus,
    SessionizerConfig,
    label_by_failure,
    label_by_quantile,
    sessionize_trace,
    sessionize_traces,
)
from .synth import Motif, Persona, SynthConfig, default_config, generate_sessions
from .schema import (
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    validate_file,
    validate_lines,
)

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_VERSIONS",
    "DiagnosisConfig",
    "DiagnosisReport",
    "Histogram",
    "Motif",
    "ObsSession",
    "Persona",
    "Session",
    "SessionCorpus",
    "SessionizerConfig",
    "SliceRing",
    "SloMonitor",
    "SloRule",
    "SynthConfig",
    "TraceData",
    "active",
    "add",
    "aggregate_paths",
    "append_record",
    "build_manifest",
    "check_regressions",
    "default_config",
    "diagnose_corpus",
    "diagnose_traces",
    "diff_traces",
    "event",
    "explain_diff",
    "generate_sessions",
    "git_sha",
    "label_by_failure",
    "label_by_quantile",
    "load_history",
    "load_trace",
    "observe",
    "phase_rollup",
    "record",
    "render_report",
    "session",
    "sessionize_trace",
    "sessionize_traces",
    "span",
    "top_paths",
    "trace_lines",
    "validate_file",
    "validate_lines",
    "warn",
    "worker_session",
    "write_trace",
]
