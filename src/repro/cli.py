"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``datasets``
    List the built-in benchmark datasets with their shapes.
``mine``
    Mine closed frequent patterns from a built-in dataset or a CSV/ARFF
    file and write them as JSON.
``select``
    Run MMRFS on a dataset and print the selected patterns.
``evaluate``
    Cross-validate the paper's model variants on a dataset.
``table``
    Regenerate one of the paper's tables (1-5).
``figure``
    Regenerate one of the paper's figures (1-3) as text series.
``report``
    Validate and summarize a JSONL trace written by ``--trace``.
``trace diff`` / ``trace top``
    Compare two traces phase-by-phase (wall/CPU/RSS deltas against a
    noise threshold), or rank one trace's self-time hotspots.  Both
    support ``--json`` for machine-readable output; ``trace diff
    --explain`` additionally mines the base-vs-candidate span
    populations and names the pattern that discriminates them.
``diagnose``
    Sessionize trace files (or a seeded synthetic corpus) into
    transactions of span/duration/config/event items, label them
    slow/fast or failed/clean, and rank the patterns that discriminate
    the classes by information gain — the paper's pipeline pointed at
    the system's own telemetry.
``bench check``
    Evaluate the benchmark trend store (``benchmarks/history/``) against
    the gating config; exits non-zero on a regression so CI can block.
``experiment``
    Run the checkpointed end-to-end experiment (mine → select →
    cross-validate) into a run directory; ``--resume`` restores completed
    stages after a crash.
``models publish`` / ``models list``
    Publish a fitted pipeline (from a saved JSON file, or trained on the
    spot from a dataset) into a fingerprinted model registry; list what a
    registry holds, flagging corrupt artifacts.
``predict``
    Load a published model, compile it for serving, and predict a JSON
    batch of transactions.
``serve``
    Run a published model behind the concurrent serving frontend over a
    JSON workload and report latency/throughput percentiles.  With
    ``--metrics-port`` (or ``--telemetry``) the run attaches live
    windowed telemetry — rolling p50/p90/p99, rate counters, sampled
    request traces, SLO alerts — and serves ``/stats.json`` plus
    ``/metrics`` (Prometheus text) over HTTP; ``--repeat`` /
    ``--min-seconds`` replay the workload for long-running serving.
``monitor``
    Poll a running serve's metrics endpoint and print one summary line
    (req/s, rows/s, p50/p90/p99, queue depth, SLO state) per interval.

Every experiment command accepts ``--trace FILE``: the run then executes
inside an instrumentation session (:mod:`repro.obs`) and writes a JSONL
trace — run manifest first, then spans/counters/series/events, then a
per-phase rollup — which ``repro report FILE`` renders as a summary.

Error paths exit with *distinct* codes so scripts and CI can tell
failure modes apart without parsing stderr: ``3`` for a missing
input (trace file, run directory), ``4`` for schema-invalid input (a
malformed trace, a resume fingerprint mismatch), ``5`` for a corrupt
checkpoint artifact.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .datasets import TransactionDataset, available_datasets, load_uci
from .datasets.uci import SCALABILITY_SPECS, UCI_SPECS

__all__ = [
    "main",
    "build_parser",
    "EXIT_MISSING_INPUT",
    "EXIT_SCHEMA_INVALID",
    "EXIT_CORRUPT_CHECKPOINT",
]

#: Distinct error exit codes (0 = success, 1 = generic, 2 = argparse usage).
EXIT_MISSING_INPUT = 3
EXIT_SCHEMA_INVALID = 4
EXIT_CORRUPT_CHECKPOINT = 5


def _load_transactions(source: str, scale: float) -> TransactionDataset:
    """A built-in dataset name, or a path to a .csv/.arff file."""
    if source in available_datasets():
        data = TransactionDataset.from_dataset(load_uci(source, scale=scale))
    else:
        path = Path(source)
        if not path.exists():
            raise SystemExit(
                f"unknown dataset {source!r}: not a built-in name "
                f"({', '.join(available_datasets())}) and no such file"
            )
        if path.suffix.lower() == ".arff":
            from .io import read_arff

            data = TransactionDataset.from_dataset(read_arff(path))
        else:
            from .io import read_csv

            data = TransactionDataset.from_dataset(read_csv(path, name=path.stem))
    _annotate_manifest(data, source=source, scale=scale)
    return data


def _annotate_manifest(
    data: TransactionDataset, source: str, scale: float
) -> None:
    """Record the loaded dataset (name, shape, content hash) in the active
    session's manifest, so traces pin down exactly what data the run saw."""
    from .obs import core as _obs

    session = _obs.active()
    if session is None:
        return
    session.annotate_manifest(
        "datasets",
        {
            "name": data.name,
            "source": source,
            "scale": scale,
            "rows": data.n_rows,
            "items": data.n_items,
            "classes": data.n_classes,
            "content_hash": data.content_hash(),
        },
    )


def _cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'name':10s} {'rows':>7s} {'attrs':>6s} {'classes':>8s} {'role'}")
    for name, spec in {**UCI_SPECS, **SCALABILITY_SPECS}.items():
        role = "scalability" if name in SCALABILITY_SPECS else "accuracy"
        print(
            f"{name:10s} {spec.n_rows:7d} {spec.n_attributes:6d} "
            f"{spec.n_classes:8d} {role}"
        )
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    from .io import save_patterns
    from .mining import mine_class_patterns

    data = _load_transactions(args.dataset, args.scale)
    result = mine_class_patterns(
        data,
        min_support=args.min_support,
        miner=args.miner,
        max_length=args.max_length,
        n_jobs=args.jobs,
    )
    print(
        f"mined {len(result)} {args.miner} patterns from {data.name} "
        f"at min_sup={args.min_support}"
    )
    if args.output:
        save_patterns(result, args.output, catalog=data.catalog)
        print(f"wrote {args.output}")
    return 0


def _cmd_select(args: argparse.Namespace) -> int:
    from .mining import mine_class_patterns
    from .selection import mmrfs

    data = _load_transactions(args.dataset, args.scale)
    mined = mine_class_patterns(
        data,
        min_support=args.min_support,
        max_length=args.max_length,
        n_jobs=args.jobs,
    )
    selection = mmrfs(mined, data, relevance=args.relevance, delta=args.delta)
    print(
        f"{data.name}: {len(selection)} of {selection.considered} patterns "
        f"selected (delta={args.delta}, fully covered: {selection.fully_covered})"
    )
    for feature in selection.selected[: args.top]:
        rendered = (
            data.catalog.describe(feature.pattern.items)
            if data.catalog
            else str(feature.pattern.items)
        )
        print(
            f"  {rendered:50s} support={feature.pattern.support:5d} "
            f"S={feature.relevance:.4f} g={feature.gain:.4f}"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .eval import cross_validate_pipeline
    from .experiments import config_for, make_variant

    data = _load_transactions(args.dataset, args.scale)
    config = config_for(args.dataset)
    for variant in args.variants:
        factory = make_variant(variant, args.model, config)
        report = cross_validate_pipeline(
            factory,
            data,
            n_folds=args.folds,
            seed=args.seed,
            model_name=variant,
            n_jobs=args.jobs,
        )
        print(
            f"{data.name:10s} {variant:10s} "
            f"{100 * report.mean_accuracy:6.2f}% ± {100 * report.std_accuracy:.2f}"
        )
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from .experiments import run_accuracy_table, run_scalability_table

    if args.number in (1, 2):
        model = "svm" if args.number == 1 else "c45"
        table = run_accuracy_table(
            args.datasets or list(UCI_SPECS),
            model=model,
            n_folds=args.folds,
            scale=args.scale,
        )
        print(table.render())
        return 0

    names = {3: "chess", 4: "waveform", 5: "letter"}
    grids = {
        3: (0.94, 0.88, 0.78, 0.69, 0.63),
        4: (0.04, 0.03, 0.02, 0.016),
        5: (0.225, 0.2, 0.175, 0.15),
    }
    name = names[args.number]
    data = _load_transactions(name, args.scale)
    supports = [max(2, int(r * data.n_rows)) for r in grids[args.number]]
    table = run_scalability_table(
        data,
        absolute_supports=supports,
        title=f"Table {args.number} ({name}, n={data.n_rows})",
        pattern_budget=args.budget,
    )
    print(table.render())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from .experiments import (
        figure1_ig_vs_length,
        figure2_ig_vs_support,
        figure3_fisher_vs_support,
    )

    drivers = {
        1: figure1_ig_vs_length,
        2: figure2_ig_vs_support,
        3: figure3_fisher_vs_support,
    }
    data = _load_transactions(args.dataset, args.scale)
    figure = drivers[args.number](data, min_support=args.min_support)
    print(figure.render())
    if args.number in (2, 3):
        print()
        print(figure.ascii_plot())
        violations = figure.violations(tolerance=1e-6)
        print(f"bound violations: {len(violations)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs import load_trace, render_report, validate_file

    path = Path(args.trace_file)
    if not path.exists():
        print(f"no such trace file: {path}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    errors = validate_file(path)
    if errors:
        print(f"{path}: {len(errors)} schema violation(s)", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return EXIT_SCHEMA_INVALID
    print(render_report(load_trace(path)))
    return 0


def _load_validated_trace(path_arg: str):
    """Load a trace for analysis commands; (TraceData, 0) or (None, code)."""
    from .obs import load_trace, validate_file

    path = Path(path_arg)
    if not path.exists():
        print(f"no such trace file: {path}", file=sys.stderr)
        return None, EXIT_MISSING_INPUT
    errors = validate_file(path)
    if errors:
        print(f"{path}: {len(errors)} schema violation(s)", file=sys.stderr)
        for error in errors:
            print(f"  {error}", file=sys.stderr)
        return None, EXIT_SCHEMA_INVALID
    return load_trace(path), 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    import json

    from .obs.analysis import diff_traces, render_diff

    base, status = _load_validated_trace(args.trace_a)
    if base is None:
        return status
    other, status = _load_validated_trace(args.trace_b)
    if other is None:
        return status
    diff = diff_traces(
        base,
        other,
        rel_tolerance=args.rel_tolerance,
        abs_floor_s=args.abs_floor,
    )
    explanation = explain_note = None
    if getattr(args, "explain", False):
        from .obs.diagnose import explain_diff

        try:
            explanation = explain_diff(base, other)
        except ValueError as exc:
            explain_note = str(exc)
    if args.json:
        if explanation is not None:
            diff["explain"] = explanation.to_json()
        elif explain_note is not None:
            diff["explain"] = {"error": explain_note}
        print(json.dumps(diff, indent=2, sort_keys=True))
    else:
        print(render_diff(diff))
        if explanation is not None:
            print()
            print("discriminating patterns (base vs candidate):")
            print(explanation.render())
        elif explain_note is not None:
            print()
            print(f"explain unavailable: {explain_note}")
    return 1 if diff["summary"]["regressed"] else 0


def _cmd_trace_top(args: argparse.Namespace) -> int:
    import json

    from .obs.analysis import render_top, top_paths

    trace, status = _load_validated_trace(args.trace_file)
    if trace is None:
        return status
    ranked = top_paths(trace, limit=args.limit)
    if args.json:
        print(json.dumps(ranked, indent=2, sort_keys=True))
    else:
        print(render_top(ranked))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    import json

    from .obs.diagnose import DiagnosisConfig, diagnose_corpus, label_corpus
    from .obs.schema import validate_file
    from .obs.sessions import sessionize_traces

    config = DiagnosisConfig(
        min_support=args.min_support,
        max_length=args.max_length,
        top=args.top,
        delta=args.delta,
        sequences=args.sequences,
        label=args.label,
        quantile=args.quantile,
    )
    if args.synthetic:
        from .obs.synth import SynthConfig, default_config, generate_sessions

        if args.synthetic_config:
            config_path = Path(args.synthetic_config)
            if not config_path.exists():
                print(
                    f"no such synthetic config: {config_path}", file=sys.stderr
                )
                return EXIT_MISSING_INPUT
            synth = SynthConfig.from_dict(
                json.loads(config_path.read_text(encoding="utf-8")),
                n_sessions=args.synthetic,
                seed=args.seed,
            )
        else:
            synth = default_config(n_sessions=args.synthetic, seed=args.seed)
        corpus = generate_sessions(synth)
    else:
        paths = sorted(args.traces, key=str)
        for path_arg in paths:
            path = Path(path_arg)
            if not path.exists():
                print(f"no such trace file: {path}", file=sys.stderr)
                return EXIT_MISSING_INPUT
            errors = validate_file(path)
            if errors:
                print(
                    f"{path}: {len(errors)} schema violation(s)",
                    file=sys.stderr,
                )
                for error in errors:
                    print(f"  {error}", file=sys.stderr)
                return EXIT_SCHEMA_INVALID
        corpus = sessionize_traces(paths)
    try:
        labels, class_names = label_corpus(corpus, config)
        report = diagnose_corpus(corpus, labels, class_names, config)
    except ValueError as exc:
        print(f"diagnosis failed: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    import json

    from .obs.bench import check_regressions, load_gating_config, render_verdicts

    config_path = Path(args.config)
    if not config_path.exists():
        print(f"no such gating config: {config_path}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    config = load_gating_config(config_path)
    verdicts = check_regressions(Path(args.history), config)
    if args.json:
        print(json.dumps(verdicts, indent=2, sort_keys=True))
    else:
        print(render_verdicts(verdicts))
    return 1 if any(v["verdict"] == "regressed" for v in verdicts) else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .runtime.cache import CorruptArtifactError
    from .runtime.experiment import (
        ExperimentSpec,
        ResumeMismatchError,
        ResumeMissingError,
        run_experiment,
    )

    data = _load_transactions(args.dataset, args.scale)
    spec = ExperimentSpec(
        dataset=args.dataset,
        scale=args.scale,
        min_support=args.min_support,
        max_length=args.max_length,
        delta=args.delta,
        relevance=args.relevance,
        variant=args.variant,
        model=args.model,
        folds=args.folds,
        seed=args.seed,
        shard_rows=args.shard_rows,
        condense=args.condense,
    )
    try:
        result = run_experiment(
            data,
            spec,
            out_dir=args.out,
            resume=args.resume,
            n_jobs=args.jobs,
        )
    except ResumeMissingError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ResumeMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA_INVALID
    except CorruptArtifactError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CORRUPT_CHECKPOINT
    report = result.cv
    print(
        f"{data.name:10s} {spec.variant:10s} "
        f"{100 * report.mean_accuracy:6.2f}% ± {100 * report.std_accuracy:.2f}  "
        f"({result.n_patterns} mined, {result.n_selected} selected)"
    )
    print(f"artifacts in {result.out_dir}")
    return 0


def _read_stream_events(path_arg: str):
    """Events from a JSONL stream file; (events, 0) on success,
    (None, exit_code) on a missing or schema-invalid file.

    One event per line: ``{"items": [...], "label": int}``.  Lines
    carrying a ``"format"`` or ``"expected"`` key are fixture metadata
    (manifest / golden-expectation lines) and are skipped, so checked-in
    golden fixtures feed the CLI directly.
    """
    import json

    path = Path(path_arg)
    if not path.exists():
        print(f"no such input file: {path}", file=sys.stderr)
        return None, EXIT_MISSING_INPUT
    events = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            print(f"{path}:{lineno}: not valid JSON ({exc})", file=sys.stderr)
            return None, EXIT_SCHEMA_INVALID
        if isinstance(payload, dict) and ("format" in payload or "expected" in payload):
            continue
        if (
            not isinstance(payload, dict)
            or not isinstance(payload.get("items"), list)
            or not all(
                isinstance(i, int) and not isinstance(i, bool) and i >= 0
                for i in payload["items"]
            )
            or not isinstance(payload.get("label"), int)
            or isinstance(payload.get("label"), bool)
            or payload["label"] < 0
        ):
            print(
                f'{path}:{lineno}: expected {{"items": [...], "label": int}} '
                "with non-negative ints",
                file=sys.stderr,
            )
            return None, EXIT_SCHEMA_INVALID
        events.append((tuple(payload["items"]), payload["label"]))
    return events, 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .runtime.cache import CorruptArtifactError
    from .runtime.experiment import ResumeMismatchError, ResumeMissingError
    from .streaming import StreamSpec, run_stream

    events, code = _read_stream_events(args.input)
    if events is None:
        return code
    n_items = args.n_items
    if n_items is None:
        n_items = 1 + max((max(t) for t, _ in events if t), default=-1)
    n_classes = args.n_classes
    if n_classes is None:
        n_classes = 1 + max((label for _, label in events), default=0)
    spec = StreamSpec(
        n_items=n_items,
        n_classes=n_classes,
        k=args.k,
        min_length=args.min_length,
        max_length=args.max_length,
        shard_rows=args.shard_rows,
        window_shards=args.window_shards,
        drift_tolerance=args.drift_tolerance,
        delta=args.delta,
    )
    try:
        result = run_stream(events, spec, out_dir=args.out, resume=args.resume)
    except ResumeMissingError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING_INPUT
    except ResumeMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_SCHEMA_INVALID
    except CorruptArtifactError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CORRUPT_CHECKPOINT
    if args.json:
        import json

        print(
            json.dumps(
                {
                    "fingerprint": result.fingerprint,
                    "events_consumed": result.events_consumed,
                    "seals": result.seals,
                    "n_reselections": result.n_reselections,
                    "report": str(result.report_path),
                },
                sort_keys=True,
            )
        )
    else:
        print(
            f"consumed {result.events_consumed} events: {result.seals} window "
            f"advances, {result.n_reselections} re-selections"
        )
        print(f"report in {result.report_path}")
    return 0


def _read_workload(path_arg: str):
    """Transactions from a JSON workload file; (transactions, 0) on
    success, (None, exit_code) on a missing or schema-invalid file.

    Accepted shapes: a bare list of transactions, or an object with a
    ``"transactions"`` key — each transaction a list of non-negative ints.
    """
    import json

    path = Path(path_arg)
    if not path.exists():
        print(f"no such input file: {path}", file=sys.stderr)
        return None, EXIT_MISSING_INPUT
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        print(f"{path}: not valid JSON ({exc})", file=sys.stderr)
        return None, EXIT_SCHEMA_INVALID
    if isinstance(payload, dict):
        payload = payload.get("transactions")
    if not isinstance(payload, list) or not all(
        isinstance(t, list)
        and all(isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in t)
        for t in payload
    ):
        print(
            f"{path}: expected a JSON list of transactions "
            "(lists of non-negative item ids)",
            file=sys.stderr,
        )
        return None, EXIT_SCHEMA_INVALID
    return [tuple(t) for t in payload], 0


def _cmd_models_publish(args: argparse.Namespace) -> int:
    from .serving import ModelRegistry

    if args.pipeline:
        from .io import load_pipeline

        path = Path(args.pipeline)
        if not path.exists():
            print(f"no such pipeline file: {path}", file=sys.stderr)
            return EXIT_MISSING_INPUT
        try:
            pipeline = load_pipeline(path)
        except (ValueError, KeyError, TypeError) as exc:
            print(f"{path}: not a saved pipeline ({exc})", file=sys.stderr)
            return EXIT_SCHEMA_INVALID
    else:
        from .features.pipeline import FrequentPatternClassifier

        data = _load_transactions(args.dataset, args.scale)
        pipeline = FrequentPatternClassifier(
            min_support=args.min_support,
            max_length=args.max_length,
            delta=args.delta,
        )
        pipeline.fit(data)
    record = ModelRegistry(args.registry).publish(pipeline, name=args.name)
    print(
        f"published {record.model_id} "
        f"({record.name or 'unnamed'}, {record.model_kind}, "
        f"{record.n_patterns} patterns) to {args.registry}"
    )
    return 0


def _cmd_models_list(args: argparse.Namespace) -> int:
    from .serving import ModelRegistry

    print(ModelRegistry(args.registry).render_listing())
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    import json

    from .runtime.cache import CorruptArtifactError
    from .serving import ModelNotFoundError, ModelRegistry

    transactions, status = _read_workload(args.input)
    if transactions is None:
        return status
    registry = ModelRegistry(args.registry)
    try:
        model_id = registry.resolve(args.model)
        compiled = registry.load_compiled(model_id, chunk_rows=args.chunk_rows)
    except ModelNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING_INPUT
    except CorruptArtifactError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CORRUPT_CHECKPOINT
    predictions = compiled.predict(transactions)
    result = {
        "model_id": model_id,
        "n_rows": len(transactions),
        "predictions": predictions.tolist(),
    }
    if args.output:
        Path(args.output).write_text(
            json.dumps(result, indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote {len(transactions)} predictions to {args.output}")
    else:
        print(json.dumps(result, indent=1))
    return 0


def _build_telemetry(args: argparse.Namespace):
    """A ServingTelemetry from the serve flags, or None when every
    telemetry-facing flag is at its off default: the frontend then
    builds its own default telemetry (no SLO rules, no event log), which
    still backs ``stats()`` but stays out of the ``--json`` output."""
    from .obs.live import SloRule
    from .serving import ServingTelemetry, TelemetryConfig, TraceEventLog

    slos = []
    if args.slo_p99_ms is not None:
        slos.append(
            SloRule("p99_latency", "p99_latency_s", args.slo_p99_ms / 1e3)
        )
    if args.slo_error_rate is not None:
        slos.append(SloRule("error_rate", "error_rate", args.slo_error_rate))
    if args.slo_queue_saturation is not None:
        slos.append(
            SloRule(
                "queue_saturation",
                "queue_saturation",
                args.slo_queue_saturation,
            )
        )
    wanted = (
        args.telemetry
        or args.metrics_port is not None
        or args.trace_events
        or slos
    )
    if not wanted:
        return None
    event_log = (
        TraceEventLog(
            args.trace_events,
            command="serve",
            config=_manifest_config(args),
        )
        if args.trace_events
        else None
    )
    return ServingTelemetry(
        TelemetryConfig(
            slice_seconds=args.slice_seconds,
            sample_every=args.sample_every,
            slos=tuple(slos),
        ),
        event_log=event_log,
    )


def _manifest_config(args: argparse.Namespace):
    from .obs.manifest import jsonable_config

    return jsonable_config(vars(args))


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import time as _time

    from .runtime.cache import CorruptArtifactError
    from .serving import ModelNotFoundError, ModelRegistry, ServingFrontend

    transactions, status = _read_workload(args.input)
    if transactions is None:
        return status
    registry = ModelRegistry(args.registry)
    try:
        model_id = registry.resolve(args.model)
        compiled = registry.load_compiled(model_id, chunk_rows=args.chunk_rows)
    except ModelNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING_INPUT
    except CorruptArtifactError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CORRUPT_CHECKPOINT

    telemetry = _build_telemetry(args)
    stats_server = None
    if args.metrics_port is not None:
        from .serving import StatsServer

        stats_server = StatsServer(
            telemetry, host=args.metrics_host, port=args.metrics_port
        ).start()
        print(f"metrics endpoint at {stats_server.url}", file=sys.stderr)

    batch = max(1, args.batch_rows)
    started = _time.perf_counter()
    try:
        with ServingFrontend(
            compiled,
            n_workers=args.workers,
            queue_size=args.queue_size,
            telemetry=telemetry,
        ) as frontend:
            rounds = 0
            while True:
                futures = [
                    frontend.submit(transactions[i : i + batch])
                    for i in range(0, len(transactions), batch)
                ]
                for future in futures:
                    future.result()
                rounds += 1
                elapsed = _time.perf_counter() - started
                if rounds >= args.repeat and elapsed >= args.min_seconds:
                    break
            stats = frontend.stats()
    finally:
        if stats_server is not None:
            stats_server.close()
        if telemetry is not None:
            telemetry.close()
    wall_s = _time.perf_counter() - started
    stats["wall_s"] = wall_s
    stats["rows_per_s"] = stats["rows"] / wall_s if wall_s > 0 else 0.0
    stats["model_id"] = model_id
    stats["workload_rounds"] = rounds
    if telemetry is not None:
        stats["telemetry"] = telemetry.snapshot()
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
    else:
        latency = stats["latency_s"]
        print(
            f"served {stats['rows']} rows in {stats['requests']} requests "
            f"({args.workers} workers, batch={batch})"
        )
        print(
            f"throughput {stats['rows_per_s']:,.0f} rows/s; request latency "
            f"p50={1e3 * latency['p50']:.2f}ms "
            f"p90={1e3 * latency['p90']:.2f}ms "
            f"p99={1e3 * latency['p99']:.2f}ms"
        )
        if telemetry is not None:
            slo = stats["telemetry"]["slo"]
            if slo["rules"]:
                firing = ", ".join(slo["firing"]) or "none"
                print(
                    f"SLO: {len(slo['rules'])} rule(s), firing: {firing}, "
                    f"breach windows: {slo['breaches']}"
                )
    return 0


def _monitor_line(snapshot: dict) -> str:
    """One ``repro monitor`` interval rendered as a fixed-width line."""
    windowed = snapshot.get("windowed", {})
    latency = windowed.get("latency_s") or {}
    queue = snapshot.get("queue", {})
    slo = snapshot.get("slo", {})
    firing = slo.get("firing") or []

    def ms(key: str) -> str:
        value = latency.get(key)
        return "      -" if value is None else f"{1e3 * value:7.2f}"

    depth = queue.get("depth")
    depth_s = "  -" if depth is None else f"{depth:3d}"
    slo_s = "ALERT " + ",".join(firing) if firing else "ok"
    return (
        f"req/s {windowed.get('requests_per_s', 0.0):8.1f}  "
        f"rows/s {windowed.get('rows_per_s', 0.0):10.1f}  "
        f"err/s {windowed.get('errors_per_s', 0.0):6.2f}  "
        f"p50 {ms('p50')}ms  p90 {ms('p90')}ms  p99 {ms('p99')}ms  "
        f"q {depth_s}  slo {slo_s}"
    )


def _cmd_monitor(args: argparse.Namespace) -> int:
    import json
    import time as _time
    import urllib.error
    import urllib.request

    url = f"http://{args.host}:{args.port}/stats.json"
    iterations = 0
    while True:
        try:
            with urllib.request.urlopen(url, timeout=args.timeout) as response:
                snapshot = json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, json.JSONDecodeError) as exc:
            print(f"cannot scrape {url}: {exc}", file=sys.stderr)
            return EXIT_MISSING_INPUT
        if args.json:
            print(json.dumps(snapshot, sort_keys=True))
        else:
            print(_monitor_line(snapshot), flush=True)
        iterations += 1
        if args.iterations and iterations >= args.iterations:
            return 0
        _time.sleep(args.interval)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Discriminative frequent pattern analysis for effective "
            "classification (ICDE 2007 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("datasets", help="list built-in datasets").set_defaults(
        handler=_cmd_datasets
    )

    def add_common(sub):
        sub.add_argument("dataset", help="built-in name or .csv/.arff path")
        sub.add_argument("--scale", type=float, default=1.0)
        sub.add_argument("--min-support", type=float, default=0.1,
                         dest="min_support")
        sub.add_argument("--max-length", type=int, default=5, dest="max_length")
        add_jobs(sub)

    def jobs_type(value):
        jobs = int(value)
        if jobs < 1 and jobs != -1:
            raise argparse.ArgumentTypeError(
                "must be a positive integer or -1 (all CPUs)"
            )
        return jobs

    def add_jobs(sub):
        sub.add_argument(
            "--jobs", type=jobs_type, default=1, dest="jobs",
            help="parallel workers (1 = serial, -1 = all CPUs)",
        )

    def add_trace(sub):
        sub.add_argument(
            "--trace", default=None, metavar="FILE",
            help="run instrumented and write a JSONL trace here "
                 "(summarize with 'repro report FILE')",
        )
        sub.add_argument(
            "--trace-memory", action="store_true", dest="trace_memory",
            help="with --trace, also record Python peak memory per span "
                 "(tracemalloc; slower)",
        )

    mine = commands.add_parser("mine", help="mine closed frequent patterns")
    add_common(mine)
    mine.add_argument("--miner", choices=("closed", "all"), default="closed")
    mine.add_argument("--output", help="write patterns JSON here")
    add_trace(mine)
    mine.set_defaults(handler=_cmd_mine)

    select = commands.add_parser("select", help="run MMRFS feature selection")
    add_common(select)
    add_trace(select)
    select.add_argument("--delta", type=int, default=3)
    select.add_argument(
        "--relevance", choices=("information_gain", "fisher", "chi2"),
        default="information_gain",
    )
    select.add_argument("--top", type=int, default=10, help="patterns to print")
    select.set_defaults(handler=_cmd_select)

    evaluate = commands.add_parser("evaluate", help="cross-validate variants")
    evaluate.add_argument("dataset")
    evaluate.add_argument("--scale", type=float, default=1.0)
    evaluate.add_argument("--model", choices=("svm", "c45"), default="svm")
    evaluate.add_argument("--folds", type=int, default=3)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument(
        "--variants", nargs="+",
        default=["Item_All", "Pat_All", "Pat_FS"],
    )
    add_jobs(evaluate)
    add_trace(evaluate)
    evaluate.set_defaults(handler=_cmd_evaluate)

    table = commands.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    table.add_argument("--datasets", nargs="*", default=None)
    table.add_argument("--folds", type=int, default=3)
    table.add_argument("--scale", type=float, default=0.5)
    table.add_argument("--budget", type=int, default=150_000)
    add_trace(table)
    table.set_defaults(handler=_cmd_table)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", type=int, choices=(1, 2, 3))
    figure.add_argument("--dataset", default="austral")
    figure.add_argument("--scale", type=float, default=0.5)
    figure.add_argument("--min-support", type=float, default=0.1,
                        dest="min_support")
    add_trace(figure)
    figure.set_defaults(handler=_cmd_figure)

    report = commands.add_parser(
        "report", help="validate and summarize a JSONL trace"
    )
    report.add_argument("trace_file", help="trace written by --trace")
    report.set_defaults(handler=_cmd_report)

    from .obs.analysis import DEFAULT_ABS_FLOOR_S, DEFAULT_REL_TOLERANCE
    from .obs.bench import DEFAULT_CONFIG_PATH, DEFAULT_HISTORY_DIR

    trace_cmd = commands.add_parser(
        "trace", help="analyze JSONL traces (diff two runs, rank hotspots)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)

    diff = trace_sub.add_parser(
        "diff", help="per-phase wall/CPU/RSS deltas between two traces"
    )
    diff.add_argument("trace_a", help="baseline trace")
    diff.add_argument("trace_b", help="candidate trace")
    diff.add_argument(
        "--rel-tolerance", type=float, default=DEFAULT_REL_TOLERANCE,
        dest="rel_tolerance",
        help="relative noise threshold on a phase's self wall time "
             f"(default {DEFAULT_REL_TOLERANCE})",
    )
    diff.add_argument(
        "--abs-floor", type=float, default=DEFAULT_ABS_FLOOR_S,
        dest="abs_floor",
        help="absolute noise floor in seconds "
             f"(default {DEFAULT_ABS_FLOOR_S})",
    )
    diff.add_argument(
        "--json", action="store_true", help="emit the diff as JSON"
    )
    diff.add_argument(
        "--explain", action="store_true",
        help="mine the base-vs-candidate span populations and name the "
             "pattern that discriminates them",
    )
    diff.set_defaults(handler=_cmd_trace_diff)

    top = trace_sub.add_parser(
        "top", help="rank span paths by self time (exclusive wall)"
    )
    top.add_argument("trace_file", help="trace written by --trace")
    top.add_argument(
        "-n", "--limit", type=int, default=15, help="paths to show"
    )
    top.add_argument(
        "--json", action="store_true", help="emit the ranking as JSON"
    )
    top.set_defaults(handler=_cmd_trace_top)

    diagnose = commands.add_parser(
        "diagnose",
        help="mine discriminative patterns from the system's own traces",
    )
    source = diagnose.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--traces", nargs="+", metavar="FILE",
        help="trace JSONL files to sessionize (pipeline --trace output "
             "and serving event logs both work)",
    )
    source.add_argument(
        "--synthetic", type=int, metavar="N",
        help="generate N synthetic sessions instead of reading traces",
    )
    diagnose.add_argument(
        "--synthetic-config", default=None, metavar="FILE",
        dest="synthetic_config",
        help="JSON persona/motif config for --synthetic "
             "(default: built-in workload mix)",
    )
    diagnose.add_argument("--seed", type=int, default=0,
                          help="synthetic generator seed")
    diagnose.add_argument(
        "--label", choices=("wall", "failure"), default="wall",
        help="labeler: slow/fast by wall-time quantile, or failed/clean "
             "by error signals",
    )
    diagnose.add_argument(
        "--quantile", type=float, default=0.75,
        help="wall-time quantile above which a session is 'slow' "
             "(default: 0.75)",
    )
    diagnose.add_argument("--min-support", type=float, default=0.05,
                          dest="min_support")
    diagnose.add_argument(
        "--max-length", type=int, default=None, dest="max_length",
        help="cap pattern length (default: uncapped, lossless closed "
             "mining)",
    )
    diagnose.add_argument(
        "--sequences", action="store_true",
        help="mine discriminative subsequences (prefixspan) instead of "
             "itemsets",
    )
    diagnose.add_argument("--delta", type=int, default=1,
                          help="MMRFS coverage delta")
    diagnose.add_argument("--top", type=int, default=10,
                          help="patterns to report")
    diagnose.add_argument("--json", action="store_true",
                          help="emit the report as JSON")
    add_trace(diagnose)
    diagnose.set_defaults(handler=_cmd_diagnose)

    bench = commands.add_parser(
        "bench", help="benchmark trend store utilities"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    check = bench_sub.add_parser(
        "check", help="verdicts vs the rolling baseline; exit 1 on regression"
    )
    check.add_argument(
        "--history", default=str(DEFAULT_HISTORY_DIR),
        help=f"trend store directory (default {DEFAULT_HISTORY_DIR})",
    )
    check.add_argument(
        "--config", default=str(DEFAULT_CONFIG_PATH),
        help=f"gating config JSON (default {DEFAULT_CONFIG_PATH})",
    )
    check.add_argument(
        "--json", action="store_true", help="emit verdicts as JSON"
    )
    check.set_defaults(handler=_cmd_bench_check)

    experiment = commands.add_parser(
        "experiment",
        help="run the checkpointed end-to-end experiment (resumable)",
    )
    add_common(experiment)
    experiment.add_argument(
        "--out", required=True, metavar="DIR",
        help="run directory for checkpoints and final artifacts",
    )
    experiment.add_argument(
        "--resume", action="store_true",
        help="restore completed stages from DIR instead of starting fresh",
    )
    experiment.add_argument("--delta", type=int, default=3)
    experiment.add_argument(
        "--relevance", choices=("information_gain", "fisher", "chi2"),
        default="information_gain",
    )
    experiment.add_argument(
        "--variant", default="Pat_FS",
        help="model variant column (e.g. Pat_FS, Pat_All, Item_All)",
    )
    experiment.add_argument("--model", choices=("svm", "c45"), default="svm")
    experiment.add_argument("--folds", type=int, default=3)
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument(
        "--shard-rows", type=int, default=None, dest="shard_rows",
        metavar="N",
        help="mine out-of-core over mmap shards of N rows instead of "
             "in-memory (identical results; bounded memory)",
    )
    experiment.add_argument(
        "--condense", action="store_true",
        help="non-derivable-itemset condensation for the sharded "
             "counting pass (requires --shard-rows)",
    )
    add_trace(experiment)
    experiment.set_defaults(handler=_cmd_experiment)

    stream = commands.add_parser(
        "stream",
        help="consume a transaction stream with windowed top-k mining "
             "and drift-triggered re-selection (resumable)",
    )
    stream.add_argument(
        "input", metavar="EVENTS",
        help='JSONL event file, one {"items": [...], "label": int} per line',
    )
    stream.add_argument(
        "--out", required=True, metavar="DIR",
        help="run directory for shard checkpoints and the final report",
    )
    stream.add_argument(
        "--resume", action="store_true",
        help="restore from the last sealed-shard checkpoint in DIR",
    )
    stream.add_argument("--k", type=int, default=20,
                        help="top-k patterns per re-selection (default 20)")
    stream.add_argument("--min-length", type=int, default=1, dest="min_length")
    stream.add_argument("--max-length", type=int, default=4, dest="max_length")
    stream.add_argument(
        "--shard-rows", type=int, default=32, dest="shard_rows",
        help="events per window shard; the window advances when one seals",
    )
    stream.add_argument(
        "--window-shards", type=int, default=8, dest="window_shards",
        help="sealed shards the sliding window spans",
    )
    stream.add_argument(
        "--drift-tolerance", type=float, default=0.05, dest="drift_tolerance",
        help="IG shift (bits) that triggers re-selection (default 0.05)",
    )
    stream.add_argument("--delta", type=int, default=1,
                        help="MMRFS coverage threshold (default 1)")
    stream.add_argument(
        "--n-items", type=int, default=None, dest="n_items",
        help="item-space size (default: derived from the events)",
    )
    stream.add_argument(
        "--n-classes", type=int, default=None, dest="n_classes",
        help="class count (default: derived from the events)",
    )
    stream.add_argument("--json", action="store_true",
                        help="print a JSON summary instead of prose")
    add_trace(stream)
    stream.set_defaults(handler=_cmd_stream)

    def add_registry(sub):
        sub.add_argument(
            "--registry", required=True, metavar="DIR",
            help="model registry directory",
        )

    models = commands.add_parser(
        "models", help="publish and list models in a fingerprinted registry"
    )
    models_sub = models.add_subparsers(dest="models_command", required=True)

    publish = models_sub.add_parser(
        "publish", help="publish a fitted pipeline into the registry"
    )
    add_registry(publish)
    source = publish.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--pipeline", metavar="FILE",
        help="saved pipeline JSON (see repro.io.save_pipeline)",
    )
    source.add_argument(
        "--dataset", metavar="NAME",
        help="train on a built-in dataset / .csv/.arff and publish the fit",
    )
    publish.add_argument("--name", default="", help="human-friendly model name")
    publish.add_argument("--scale", type=float, default=1.0)
    publish.add_argument("--min-support", type=float, default=0.1,
                         dest="min_support")
    publish.add_argument("--max-length", type=int, default=5, dest="max_length")
    publish.add_argument("--delta", type=int, default=3)
    publish.set_defaults(handler=_cmd_models_publish)

    listing = models_sub.add_parser(
        "list", help="list published models (corrupt artifacts flagged)"
    )
    add_registry(listing)
    listing.set_defaults(handler=_cmd_models_list)

    predict = commands.add_parser(
        "predict", help="batch-predict a JSON workload with a published model"
    )
    predict.add_argument("model", help="model id, unique id prefix, or name")
    predict.add_argument(
        "--input", required=True, metavar="FILE",
        help="JSON workload: a list of transactions (lists of item ids)",
    )
    add_registry(predict)
    predict.add_argument("--output", metavar="FILE",
                         help="write predictions JSON here (default: stdout)")
    predict.add_argument("--chunk-rows", type=int, default=None,
                         dest="chunk_rows")
    add_trace(predict)
    predict.set_defaults(handler=_cmd_predict)

    serve = commands.add_parser(
        "serve",
        help="run a workload through the concurrent serving frontend",
    )
    serve.add_argument("model", help="model id, unique id prefix, or name")
    serve.add_argument(
        "--input", required=True, metavar="FILE",
        help="JSON workload: a list of transactions (lists of item ids)",
    )
    add_registry(serve)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--batch-rows", type=int, default=256, dest="batch_rows")
    serve.add_argument("--queue-size", type=int, default=64, dest="queue_size")
    serve.add_argument("--chunk-rows", type=int, default=None, dest="chunk_rows")
    serve.add_argument("--json", action="store_true",
                       help="emit serving stats as JSON")
    serve.add_argument("--repeat", type=int, default=1,
                       help="run the workload this many times (default: 1)")
    serve.add_argument("--min-seconds", type=float, default=0.0,
                       dest="min_seconds",
                       help="keep replaying the workload until this much "
                            "wall time has elapsed")
    serve.add_argument("--telemetry", action="store_true",
                       help="attach live windowed telemetry even without "
                            "a metrics endpoint")
    serve.add_argument("--metrics-port", type=int, default=None,
                       dest="metrics_port", metavar="PORT",
                       help="serve /stats.json and /metrics on this port "
                            "(0 picks an ephemeral port); implies telemetry")
    serve.add_argument("--metrics-host", default="127.0.0.1",
                       dest="metrics_host",
                       help="bind address for the metrics endpoint "
                            "(default: 127.0.0.1)")
    serve.add_argument("--trace-events", default=None, dest="trace_events",
                       metavar="FILE",
                       help="append sampled request events to this JSONL "
                            "trace (schema-v2; readable by `repro report`)")
    serve.add_argument("--sample-every", type=int, default=16,
                       dest="sample_every", metavar="K",
                       help="trace every K-th request id (default: 16)")
    serve.add_argument("--slice-seconds", type=float, default=10.0,
                       dest="slice_seconds",
                       help="width of one telemetry window slice "
                            "(default: 10; 6 slices make the window)")
    serve.add_argument("--slo-p99-ms", type=float, default=None,
                       dest="slo_p99_ms", metavar="MS",
                       help="alert when windowed p99 latency exceeds MS")
    serve.add_argument("--slo-error-rate", type=float, default=None,
                       dest="slo_error_rate", metavar="FRAC",
                       help="alert when windowed error rate exceeds FRAC")
    serve.add_argument("--slo-queue-saturation", type=float, default=None,
                       dest="slo_queue_saturation", metavar="FRAC",
                       help="alert when queue depth/capacity exceeds FRAC")
    add_trace(serve)
    serve.set_defaults(handler=_cmd_serve)

    monitor = commands.add_parser(
        "monitor",
        help="poll a serving metrics endpoint; one line per interval",
    )
    monitor.add_argument("--host", default="127.0.0.1")
    monitor.add_argument("--port", type=int, required=True)
    monitor.add_argument("--interval", type=float, default=2.0,
                         help="seconds between polls (default: 2)")
    monitor.add_argument("--iterations", type=int, default=0,
                         help="stop after N polls (default: run forever)")
    monitor.add_argument("--timeout", type=float, default=5.0,
                         help="per-request HTTP timeout in seconds")
    monitor.add_argument("--json", action="store_true",
                         help="print the raw snapshot JSON per poll")
    monitor.set_defaults(handler=_cmd_monitor)

    return parser


def _run_traced(args: argparse.Namespace, argv: list[str] | None) -> int:
    """Execute a handler inside an instrumentation session, then write the
    JSONL trace (manifest + spans + counters + rollup) to ``args.trace``."""
    from . import obs

    with obs.session(trace_memory=getattr(args, "trace_memory", False)) as sess:
        sess.manifest.update(
            obs.build_manifest(
                command=args.command,
                config=vars(args),
                seed=getattr(args, "seed", None),
                argv=argv,
            )
        )
        with obs.span(f"cli.{args.command}") as root:
            status = args.handler(args)
            root.set(exit_status=status)
    obs.write_trace(args.trace, sess)
    print(f"trace written to {args.trace}", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "trace", None):
        return _run_traced(args, argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
