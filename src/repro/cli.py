"""Command-line interface: ``python -m repro <command>``.

Commands (``repro <command> --help`` lists each one's options):

=====================================  =======================================
``datasets``                           list the built-in benchmark datasets
``mine`` / ``select``                  mine closed patterns; run MMRFS on them
``evaluate``                           cross-validate the paper's variants
``table`` / ``figure``                 regenerate a paper table (1-5) or
                                       figure (1-3)
``experiment``                         the checkpointed mine → select → CV
                                       run; ``--resume`` after a crash
``stream``                             windowed top-k mining over a JSONL
                                       event stream, resumable per seal
``report``, ``trace diff``/``top``     summarize, compare (``--explain``
                                       names the discriminating pattern) or
                                       rank the hotspots of ``--trace``
                                       output
``diagnose``                           the paper's pipeline over the
                                       system's own traces: which patterns
                                       separate slow/failed sessions
``bench check``                        gate the benchmark trend store
``models publish`` / ``models list``   fingerprinted model registry
``predict`` / ``serve``                a published model, compiled, over a
                                       JSON workload; ``serve`` adds the
                                       concurrent frontend and telemetry
``monitor``                            poll ``serve``'s metrics endpoint
=====================================  =======================================

Every experiment command accepts ``--trace FILE``: the run then executes
inside an instrumentation session (:mod:`repro.obs`) and writes a JSONL
trace — run manifest first, then spans/counters/series/events, then a
per-phase rollup — which ``repro report FILE`` renders as a summary.

Error paths exit with *distinct* codes so scripts and CI can tell
failure modes apart without parsing stderr: ``3`` for a missing
input (dataset, trace file, run directory, model), ``4`` for
schema-invalid input (a malformed trace or input file, a resume
fingerprint mismatch), ``5`` for a corrupt checkpoint artifact.
Handlers raise; one dispatcher (:func:`_dispatch`) prints the error and
turns it into the exit code, traced or not.
"""

from __future__ import annotations

import argparse
import json
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


class CliError(Exception):
    """A failure the CLI reports as its message on stderr and ``code``."""

    def __init__(self, message: str, code: int) -> None:
        super().__init__(message)
        self.code = code


def _exit_code(exc: Exception) -> int | None:
    """The exit code for an error the CLI reports, None for any other."""
    from .runtime.cache import CorruptArtifactError
    from .runtime.experiment import ResumeMismatchError, ResumeMissingError
    from .serving.registry import ModelNotFoundError

    if isinstance(exc, CliError):
        return exc.code
    if isinstance(exc, (ResumeMissingError, ModelNotFoundError)):
        return EXIT_MISSING_INPUT
    if isinstance(exc, ResumeMismatchError):
        return EXIT_SCHEMA_INVALID
    if isinstance(exc, CorruptArtifactError):
        return EXIT_CORRUPT_CHECKPOINT
    return None


def _dispatch(args: argparse.Namespace) -> int:
    """Run the command's handler; a reported error goes to stderr and
    becomes the exit code, anything else propagates."""
    try:
        return args.handler(args)
    except Exception as exc:
        code = _exit_code(exc)
        if code is None:
            raise
        print(str(exc), file=sys.stderr)
        return code


def _existing(path_arg: str, missing: str) -> Path:
    """``path_arg`` as a Path; exit 3 with ``missing: path`` if absent."""
    path = Path(path_arg)
    if not path.exists():
        raise CliError(f"{missing}: {path}", EXIT_MISSING_INPUT)
    return path


def _read_json(path_arg: str, missing: str):
    """The JSON document at ``path_arg``: exit 3 with ``missing: path`` if
    there is no such file, 4 if it is not JSON."""
    path = _existing(path_arg, missing)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CliError(
            f"{path}: not valid JSON ({exc})", EXIT_SCHEMA_INVALID
        ) from None


def _nonneg_ints(values) -> bool:
    """Whether ``values`` is a list of non-negative ints (bools excluded)."""
    return isinstance(values, list) and all(
        isinstance(i, int) and not isinstance(i, bool) and i >= 0 for i in values
    )


def _load_transactions(source: str, scale: float) -> TransactionDataset:
    """A built-in dataset name, or a path to a .csv/.arff file."""
    if source in available_datasets():
        data = TransactionDataset.from_dataset(load_uci(source, scale=scale))
    else:
        path = Path(source)
        if not path.exists():
            raise CliError(
                f"unknown dataset {source!r}: not a built-in name "
                f"({', '.join(available_datasets())}) and no such file",
                EXIT_MISSING_INPUT,
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


def _validated_trace_path(path_arg: str) -> Path:
    """The trace file at ``path_arg``, checked to exist (else exit 3) and
    to pass the trace schema (else exit 4)."""
    from .obs import validate_file

    path = _existing(path_arg, "no such trace file")
    errors = validate_file(path)
    if errors:
        lines = [f"{path}: {len(errors)} schema violation(s)"]
        lines += [f"  {error}" for error in errors]
        raise CliError("\n".join(lines), EXIT_SCHEMA_INVALID)
    return path


def _load_validated_trace(path_arg: str):
    """The schema-valid trace at ``path_arg`` as ``TraceData``."""
    from .obs import load_trace

    return load_trace(_validated_trace_path(path_arg))


def _cmd_report(args: argparse.Namespace) -> int:
    from .obs import render_report

    print(render_report(_load_validated_trace(args.trace_file)))
    return 0


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .obs.analysis import diff_traces, render_diff

    base = _load_validated_trace(args.trace_a)
    other = _load_validated_trace(args.trace_b)
    diff = diff_traces(
        base,
        other,
        rel_tolerance=args.rel_tolerance,
        abs_floor_s=args.abs_floor,
    )
    explanation = explain_note = None
    if args.explain:
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
    from .obs.analysis import render_top, top_paths

    ranked = top_paths(_load_validated_trace(args.trace_file), limit=args.limit)
    if args.json:
        print(json.dumps(ranked, indent=2, sort_keys=True))
    else:
        print(render_top(ranked))
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from .obs.diagnose import DiagnosisConfig, diagnose_corpus, label_corpus
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
    if args.synthetic is not None:
        from .obs.synth import SynthConfig, default_config, generate_sessions

        if args.synthetic_config:
            payload = _read_json(args.synthetic_config, "no such synthetic config")
            try:
                synth = SynthConfig.from_dict(
                    payload, n_sessions=args.synthetic, seed=args.seed
                )
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise CliError(
                    f"{Path(args.synthetic_config)}: not a synthetic config "
                    f"({type(exc).__name__}: {exc})",
                    EXIT_SCHEMA_INVALID,
                ) from None
        else:
            synth = default_config(n_sessions=args.synthetic, seed=args.seed)
        corpus = generate_sessions(synth)
    else:
        paths = sorted(args.traces, key=str)
        for path_arg in paths:
            _validated_trace_path(path_arg)
        corpus = sessionize_traces(paths)
    try:
        labels, class_names = label_corpus(corpus, config)
        report = diagnose_corpus(corpus, labels, class_names, config)
    except ValueError as exc:
        raise CliError(f"diagnosis failed: {exc}", 1) from None
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0


def _cmd_bench_check(args: argparse.Namespace) -> int:
    from .obs.bench import check_regressions, load_gating_config, render_verdicts

    config = load_gating_config(_existing(args.config, "no such gating config"))
    verdicts = check_regressions(Path(args.history), config)
    if args.json:
        print(json.dumps(verdicts, indent=2, sort_keys=True))
    else:
        print(render_verdicts(verdicts))
    return 1 if any(v["verdict"] == "regressed" for v in verdicts) else 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .runtime.experiment import ExperimentSpec, run_experiment

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
    )
    result = run_experiment(
        data, spec, out_dir=args.out, resume=args.resume, n_jobs=args.jobs
    )
    report = result.cv
    print(
        f"{data.name:10s} {spec.variant:10s} "
        f"{100 * report.mean_accuracy:6.2f}% ± {100 * report.std_accuracy:.2f}  "
        f"({result.n_patterns} mined, {result.n_selected} selected)"
    )
    print(f"artifacts in {result.out_dir}")
    return 0


def _read_stream_events(path_arg: str) -> list:
    """Events from a JSONL stream file; exit 3 if it is missing, 4 if a
    line is not a valid event.

    One event per line: ``{"items": [...], "label": int}``.  Lines
    carrying a ``"format"`` or ``"expected"`` key are fixture metadata
    (manifest / golden-expectation lines) and are skipped, so checked-in
    golden fixtures feed the CLI directly.
    """
    path = _existing(path_arg, "no such input file")
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
            raise CliError(
                f"{path}:{lineno}: not valid JSON ({exc})", EXIT_SCHEMA_INVALID
            ) from None
        if isinstance(payload, dict) and ("format" in payload or "expected" in payload):
            continue
        if (
            not isinstance(payload, dict)
            or not _nonneg_ints(payload.get("items"))
            or not _nonneg_ints([payload.get("label")])
        ):
            raise CliError(
                f'{path}:{lineno}: expected {{"items": [...], "label": int}} '
                "with non-negative ints",
                EXIT_SCHEMA_INVALID,
            )
        events.append((tuple(payload["items"]), payload["label"]))
    return events


def _cmd_stream(args: argparse.Namespace) -> int:
    from .streaming import StreamSpec, run_stream

    events = _read_stream_events(args.input)
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
    result = run_stream(events, spec, out_dir=args.out, resume=args.resume)
    if args.json:
        summary = {
            "fingerprint": result.fingerprint,
            "events_consumed": result.events_consumed,
            "seals": result.seals,
            "n_reselections": result.n_reselections,
            "report": str(result.report_path),
        }
        print(json.dumps(summary, sort_keys=True))
    else:
        print(
            f"consumed {result.events_consumed} events: {result.seals} window "
            f"advances, {result.n_reselections} re-selections"
        )
        print(f"report in {result.report_path}")
    return 0


def _read_workload(path_arg: str) -> list[tuple[int, ...]]:
    """Transactions from a JSON workload file; exit 3 if it is missing,
    4 if it is not a workload.

    Accepted shapes: a bare list of transactions, or an object with a
    ``"transactions"`` key — each transaction a list of non-negative ints.
    """
    payload = _read_json(path_arg, "no such input file")
    if isinstance(payload, dict):
        payload = payload.get("transactions")
    if not isinstance(payload, list) or not all(_nonneg_ints(t) for t in payload):
        raise CliError(
            f"{Path(path_arg)}: expected a JSON list of transactions "
            "(lists of non-negative item ids)",
            EXIT_SCHEMA_INVALID,
        )
    return [tuple(t) for t in payload]


def _workload_and_model(args: argparse.Namespace):
    """``(transactions, model_id, compiled)`` for ``predict``/``serve``:
    the ``--input`` workload, then the ``model`` resolved in
    ``--registry`` and loaded compiled."""
    from .serving import ModelRegistry

    transactions = _read_workload(args.input)
    registry = ModelRegistry(args.registry)
    model_id = registry.resolve(args.model)
    compiled = registry.load_compiled(model_id, chunk_rows=args.chunk_rows)
    return transactions, model_id, compiled


def _cmd_models_publish(args: argparse.Namespace) -> int:
    from .serving import ModelRegistry

    if args.pipeline:
        from .io import load_pipeline

        path = _existing(args.pipeline, "no such pipeline file")
        try:
            pipeline = load_pipeline(path)
        except (ValueError, KeyError, TypeError) as exc:
            raise CliError(
                f"{path}: not a saved pipeline ({exc})", EXIT_SCHEMA_INVALID
            ) from None
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
    transactions, model_id, compiled = _workload_and_model(args)
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
    from .obs.manifest import jsonable_config
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
            config=jsonable_config(vars(args)),
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


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from .serving import ServingFrontend

    transactions, model_id, compiled = _workload_and_model(args)
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
            raise CliError(
                f"cannot scrape {url}: {exc}", EXIT_MISSING_INPUT
            ) from None
        if args.json:
            print(json.dumps(snapshot, sort_keys=True))
        else:
            print(_monitor_line(snapshot), flush=True)
        iterations += 1
        if args.iterations and iterations >= args.iterations:
            return 0
        _time.sleep(args.interval)


def jobs_type(value: str) -> int:
    """``--jobs``: a positive worker count, or -1 for all CPUs."""
    jobs = int(value)
    if jobs < 1 and jobs != -1:
        raise argparse.ArgumentTypeError(
            "must be a positive integer or -1 (all CPUs)"
        )
    return jobs


def positive_int(value: str) -> int:
    """A count that must be at least one, such as ``--synthetic N``."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Discriminative frequent pattern analysis for effective "
            "classification (ICDE 2007 reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, name, handler, help):
        sub = subparsers.add_parser(name, help=help)
        sub.set_defaults(handler=handler)
        return sub

    # Option groups that several commands share, each defined once.
    def add_data(sub, thresholds=True):
        sub.add_argument("--scale", type=float, default=1.0)
        if thresholds:
            sub.add_argument("--min-support", type=float, default=0.1,
                             dest="min_support")
            sub.add_argument("--max-length", type=int, default=5,
                             dest="max_length")

    def add_jobs(sub):
        sub.add_argument(
            "--jobs", type=jobs_type, default=1, dest="jobs",
            help="parallel workers (1 = serial, -1 = all CPUs)",
        )

    def add_common(sub):
        sub.add_argument("dataset", help="built-in name or .csv/.arff path")
        add_data(sub)
        add_jobs(sub)

    def add_selection(sub):
        sub.add_argument("--delta", type=int, default=3)
        sub.add_argument(
            "--relevance", choices=("information_gain", "fisher", "chi2"),
            default="information_gain",
        )

    def add_model_cv(sub):
        sub.add_argument("--model", choices=("svm", "c45"), default="svm")
        sub.add_argument("--folds", type=int, default=3)
        sub.add_argument("--seed", type=int, default=0)

    def add_registry(sub):
        sub.add_argument(
            "--registry", required=True, metavar="DIR",
            help="model registry directory",
        )

    def add_published_model(sub):
        sub.add_argument("model", help="model id, unique id prefix, or name")
        sub.add_argument(
            "--input", required=True, metavar="FILE",
            help="JSON workload: a list of transactions (lists of item ids)",
        )
        add_registry(sub)
        sub.add_argument("--chunk-rows", type=int, default=None,
                         dest="chunk_rows")

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

    command(commands, "datasets", _cmd_datasets, "list built-in datasets")

    mine = command(commands, "mine", _cmd_mine, "mine closed frequent patterns")
    add_common(mine)
    mine.add_argument("--miner", choices=("closed", "all"), default="closed")
    mine.add_argument("--output", help="write patterns JSON here")
    add_trace(mine)

    select = command(
        commands, "select", _cmd_select, "run MMRFS feature selection"
    )
    add_common(select)
    add_selection(select)
    select.add_argument("--top", type=int, default=10, help="patterns to print")
    add_trace(select)

    evaluate = command(
        commands, "evaluate", _cmd_evaluate, "cross-validate variants"
    )
    evaluate.add_argument("dataset")
    add_data(evaluate, thresholds=False)
    add_model_cv(evaluate)
    evaluate.add_argument(
        "--variants", nargs="+",
        default=["Item_All", "Pat_All", "Pat_FS"],
    )
    add_jobs(evaluate)
    add_trace(evaluate)

    table = command(commands, "table", _cmd_table, "regenerate a paper table")
    table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    table.add_argument("--datasets", nargs="*", default=None)
    table.add_argument("--folds", type=int, default=3)
    table.add_argument("--scale", type=float, default=0.5)
    table.add_argument("--budget", type=int, default=150_000)
    add_trace(table)

    figure = command(
        commands, "figure", _cmd_figure, "regenerate a paper figure"
    )
    figure.add_argument("number", type=int, choices=(1, 2, 3))
    figure.add_argument("--dataset", default="austral")
    figure.add_argument("--scale", type=float, default=0.5)
    figure.add_argument("--min-support", type=float, default=0.1,
                        dest="min_support")
    add_trace(figure)

    report = command(
        commands, "report", _cmd_report, "validate and summarize a JSONL trace"
    )
    report.add_argument("trace_file", help="trace written by --trace")

    from .obs.analysis import DEFAULT_ABS_FLOOR_S, DEFAULT_REL_TOLERANCE
    from .obs.bench import DEFAULT_CONFIG_PATH, DEFAULT_HISTORY_DIR

    trace_cmd = commands.add_parser(
        "trace", help="analyze JSONL traces (diff two runs, rank hotspots)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)

    diff = command(
        trace_sub, "diff", _cmd_trace_diff,
        "per-phase wall/CPU/RSS deltas between two traces",
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

    top = command(
        trace_sub, "top", _cmd_trace_top,
        "rank span paths by self time (exclusive wall)",
    )
    top.add_argument("trace_file", help="trace written by --trace")
    top.add_argument(
        "-n", "--limit", type=int, default=15, help="paths to show"
    )
    top.add_argument(
        "--json", action="store_true", help="emit the ranking as JSON"
    )

    diagnose = command(
        commands, "diagnose", _cmd_diagnose,
        "mine discriminative patterns from the system's own traces",
    )
    source = diagnose.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--traces", nargs="+", metavar="FILE",
        help="trace JSONL files to sessionize (pipeline --trace output "
             "and serving event logs both work)",
    )
    source.add_argument(
        "--synthetic", type=positive_int, metavar="N",
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

    bench = commands.add_parser(
        "bench", help="benchmark trend store utilities"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)

    check = command(
        bench_sub, "check", _cmd_bench_check,
        "verdicts vs the rolling baseline; exit 1 on regression",
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

    experiment = command(
        commands, "experiment", _cmd_experiment,
        "run the checkpointed end-to-end experiment (resumable)",
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
    add_selection(experiment)
    experiment.add_argument(
        "--variant", default="Pat_FS",
        help="model variant column (e.g. Pat_FS, Pat_All, Item_All)",
    )
    add_model_cv(experiment)
    experiment.add_argument(
        "--shard-rows", type=int, default=None, dest="shard_rows",
        metavar="N",
        help="mine out-of-core over mmap shards of N rows instead of "
             "in-memory (identical results; bounded memory)",
    )
    add_trace(experiment)

    stream = command(
        commands, "stream", _cmd_stream,
        "consume a transaction stream with windowed top-k mining "
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

    models = commands.add_parser(
        "models", help="publish and list models in a fingerprinted registry"
    )
    models_sub = models.add_subparsers(dest="models_command", required=True)

    publish = command(
        models_sub, "publish", _cmd_models_publish,
        "publish a fitted pipeline into the registry",
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
    add_data(publish)
    publish.add_argument("--delta", type=int, default=3)

    listing = command(
        models_sub, "list", _cmd_models_list,
        "list published models (corrupt artifacts flagged)",
    )
    add_registry(listing)

    predict = command(
        commands, "predict", _cmd_predict,
        "batch-predict a JSON workload with a published model",
    )
    add_published_model(predict)
    predict.add_argument("--output", metavar="FILE",
                         help="write predictions JSON here (default: stdout)")
    add_trace(predict)

    serve = command(
        commands, "serve", _cmd_serve,
        "run a workload through the concurrent serving frontend",
    )
    add_published_model(serve)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--batch-rows", type=int, default=256, dest="batch_rows")
    serve.add_argument("--queue-size", type=int, default=64, dest="queue_size")
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

    monitor = command(
        commands, "monitor", _cmd_monitor,
        "poll a serving metrics endpoint; one line per interval",
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
            status = _dispatch(args)
            root.set(exit_status=status)
    obs.write_trace(args.trace, sess)
    print(f"trace written to {args.trace}", file=sys.stderr)
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "trace", None):
        return _run_traced(args, argv)
    return _dispatch(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
