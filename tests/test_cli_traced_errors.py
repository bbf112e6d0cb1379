"""A failing command under ``--trace`` still exits with its code and keeps
its trace.

``main`` and the traced path share one dispatcher, so each reported error
prints the library's own message, maps to its documented exit code, and
the trace is written with that code as the ``cli.<command>`` span's
``exit_status``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import (
    EXIT_CORRUPT_CHECKPOINT,
    EXIT_MISSING_INPUT,
    EXIT_SCHEMA_INVALID,
    main,
)
from repro.datasets.transactions import TransactionDataset
from repro.datasets.uci import load_uci
from repro.obs import load_trace, validate_file
from repro.runtime import ExperimentSpec, run_experiment
from repro.testing.faults import corrupt_artifact

SPEC = ExperimentSpec(dataset="austral", scale=0.15, min_support=0.3, folds=2)


@pytest.fixture(scope="module")
def data():
    return TransactionDataset.from_dataset(load_uci("austral", scale=SPEC.scale))


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory, data):
    out = tmp_path_factory.mktemp("runs") / "done"
    run_experiment(data, SPEC, out)
    return out


def _experiment_argv(out, min_support=SPEC.min_support) -> list[str]:
    return [
        "experiment", SPEC.dataset,
        "--scale", str(SPEC.scale),
        "--min-support", str(min_support),
        "--folds", str(SPEC.folds),
        "--out", str(out),
        "--resume",
    ]


def _library_message(call) -> str:
    with pytest.raises(Exception) as error:
        call()
    return str(error.value)


def _assert_traced_failure(argv, trace, code, message, capsys):
    command = argv[0]
    assert main([*argv, "--trace", str(trace)]) == code
    assert capsys.readouterr().err == (
        f"{message}\ntrace written to {trace}\n"
    )
    assert validate_file(trace) == []
    roots = [s for s in load_trace(trace).spans if s["parent"] is None]
    assert [s["name"] for s in roots] == [f"cli.{command}"]
    assert roots[0]["attrs"]["exit_status"] == code


def test_missing_resume_manifest_exits_3(tmp_path, data, capsys):
    out = tmp_path / "never-ran"
    message = _library_message(
        lambda: run_experiment(data, SPEC, out, resume=True)
    )
    assert message.startswith("cannot resume: no run manifest")
    _assert_traced_failure(
        _experiment_argv(out), tmp_path / "t.jsonl",
        EXIT_MISSING_INPUT, message, capsys,
    )


def test_mismatched_run_exits_4(tmp_path, data, completed_run, capsys):
    other = ExperimentSpec(
        dataset="austral", scale=SPEC.scale, min_support=0.4, folds=SPEC.folds
    )
    message = _library_message(
        lambda: run_experiment(data, other, completed_run, resume=True)
    )
    assert "rerun without --resume" in message
    _assert_traced_failure(
        _experiment_argv(completed_run, min_support=0.4),
        tmp_path / "t.jsonl", EXIT_SCHEMA_INVALID, message, capsys,
    )


def test_corrupt_artifact_exits_5(tmp_path, data, completed_run, capsys):
    victim = sorted((completed_run / "cache" / "fold").iterdir())[0]
    original = victim.read_bytes()
    corrupt_artifact(victim, seed=4)
    try:
        message = _library_message(
            lambda: run_experiment(data, SPEC, completed_run, resume=True)
        )
        assert message.startswith(f"corrupt checkpoint {victim}: ")
        _assert_traced_failure(
            _experiment_argv(completed_run), tmp_path / "t.jsonl",
            EXIT_CORRUPT_CHECKPOINT, message, capsys,
        )
    finally:
        victim.write_bytes(original)  # leave the module fixture intact


def test_unknown_model_for_predict_exits_3(tmp_path, capsys):
    from repro.serving import ModelRegistry

    registry = tmp_path / "registry"
    workload = tmp_path / "workload.json"
    workload.write_text(json.dumps([[0, 1], [2]]))
    message = _library_message(lambda: ModelRegistry(registry).resolve("ghost"))
    assert message.startswith("no model 'ghost' in registry")
    _assert_traced_failure(
        ["predict", "ghost", "--registry", str(registry),
         "--input", str(workload)],
        tmp_path / "t.jsonl", EXIT_MISSING_INPUT, message, capsys,
    )
