"""Tests for self-diagnosing telemetry (repro.obs.diagnose).

The acceptance contract from the issue, pinned end to end:

* **fault recall** — a corpus with an injected slow-span motif (synthetic
  generator) or an injected sleep fault (real traced CLI runs) must rank
  a pattern naming the slowed span top-1 by information gain;
* **golden fixture** — the seeded synthetic diagnosis is byte-stable:
  ``tests/data/diagnose_golden_v1.json`` pins the exact top pattern,
  supports and IG the CI job asserts against;
* **both mining modes** — itemsets (closed + MMRFS) and sequences
  (prefixspan) run over the same corpus;
* **CLI surface** — ``repro diagnose`` exit codes and JSON output,
  ``repro trace diff --explain``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from repro.cli import EXIT_MISSING_INPUT, EXIT_SCHEMA_INVALID, main
from repro.obs.diagnose import (
    DiagnosisConfig,
    diagnose_corpus,
    diagnose_traces,
    explain_diff,
    label_corpus,
)
from repro.obs.report import TraceData
from repro.obs.sessions import label_by_failure, label_by_quantile
from repro.obs.synth import default_config, generate_sessions
from repro.testing.faults import Fault, injected_faults

GOLDEN = Path(__file__).parent / "data" / "diagnose_golden_v1.json"


def run_cli(*argv: str, expect: int = 0) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer), redirect_stderr(io.StringIO()):
        exit_code = main(list(argv))
    assert exit_code == expect, buffer.getvalue()
    return buffer.getvalue()


def span(span_id, parent, name, wall):
    return {
        "type": "span", "id": span_id, "parent": parent, "name": name,
        "start_unix": 0.0, "wall_s": wall, "cpu_s": 0.0, "rss_kb": None,
        "pid": 1, "thread": 1, "attrs": {},
    }


MANIFEST = {
    "type": "manifest", "schema_version": 2, "command": "test", "argv": [],
    "config": {}, "git_sha": None, "python": "3", "platform": "test",
    "started_unix": 0.0, "datasets": [],
}


def synthetic_trace(mine_wall=0.03) -> TraceData:
    return TraceData(
        [
            dict(MANIFEST),
            span("s1", None, "root", mine_wall + 0.02 + 0.01),
            span("s2", "s1", "mine", mine_wall),
            span("s3", "s1", "select", 0.02),
        ]
    )


class TestSyntheticFaultRecall:
    """The injected slow-generate motif must surface as the top pattern."""

    def _report(self, **overrides):
        corpus = generate_sessions(default_config(600, seed=7))
        config = DiagnosisConfig(**overrides)
        labels, class_names = label_corpus(corpus, config)
        return diagnose_corpus(corpus, labels, class_names, config)

    def test_top_pattern_names_the_slowed_span(self):
        report = self._report()
        assert report.mode == "itemsets"
        top = report.top
        assert top is not None
        assert top["majority_class"] == "slow"
        assert any("mining.generate" in item for item in top["items"])
        assert any(item.startswith("dur:") for item in top["items"])

    def test_failure_label_names_the_flaky_motif(self):
        report = self._report(label="failure")
        assert report.class_names == ("clean", "failed")
        top = report.top
        assert top["majority_class"] == "failed"
        assert "event:warning" in top["items"]

    def test_ranking_is_by_information_gain(self):
        entries = self._report().entries
        assert [e["rank"] for e in entries] == list(range(1, len(entries) + 1))
        gains = [e["ig"] for e in entries]
        assert gains == sorted(gains, reverse=True)

    def test_sequences_mode_mines_subsequences(self):
        report = self._report(label="failure", sequences=True, top=5)
        assert report.mode == "sequences"
        assert report.entries
        assert "event:warning" in report.top["items"]
        assert " -> " in report.render() or len(report.top["items"]) == 1

    def test_degenerate_single_class_raises(self):
        corpus = generate_sessions(default_config(50, seed=0))
        with pytest.raises(ValueError, match="two populated classes"):
            diagnose_corpus(corpus, [0] * len(corpus), ("fast", "slow"))

    def test_label_count_mismatch_raises(self):
        corpus = generate_sessions(default_config(10, seed=0))
        with pytest.raises(ValueError, match="labels for"):
            diagnose_corpus(corpus, [0, 1], ("a", "b"))

    def test_generation_is_seed_deterministic(self):
        config = default_config(200, seed=11)
        assert (
            generate_sessions(config).content_bytes()
            == generate_sessions(config).content_bytes()
        )
        other = generate_sessions(default_config(200, seed=12))
        assert other.content_bytes() != generate_sessions(config).content_bytes()


class TestGoldenFixture:
    """The CI job's contract: seeded synthetic diagnose reproduces the
    checked-in golden report exactly (items, supports) and to float
    tolerance (IG, covered wall)."""

    ARGS = ("diagnose", "--synthetic", "600", "--seed", "7", "--json")

    def test_matches_golden_report(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        fresh = json.loads(run_cli(*self.ARGS))
        assert fresh["class_names"] == golden["class_names"]
        assert fresh["class_totals"] == golden["class_totals"]
        assert fresh["n_sessions"] == golden["n_sessions"]
        assert fresh["n_candidates"] == golden["n_candidates"]
        assert len(fresh["entries"]) == len(golden["entries"])
        for mine, theirs in zip(fresh["entries"], golden["entries"]):
            assert mine["items"] == theirs["items"]
            assert mine["class_supports"] == theirs["class_supports"]
            assert mine["majority_class"] == theirs["majority_class"]
            assert mine["ig"] == pytest.approx(theirs["ig"], abs=1e-12)

    def test_golden_top_pattern_contains_the_injected_span(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        top = golden["entries"][0]
        assert any("mining.generate" in item for item in top["items"])


class TestExplainDiff:
    def test_explain_names_the_slowed_span(self):
        base = synthetic_trace(mine_wall=0.03)
        slow = synthetic_trace(mine_wall=2.0)
        report = explain_diff(base, slow)
        top = report.top
        assert top["majority_class"] == "candidate"
        assert any("dur:root/mine:" in item for item in top["items"])

    def test_explain_requires_spans_on_both_sides(self):
        empty = TraceData([dict(MANIFEST)])
        with pytest.raises(ValueError, match="spans on both sides"):
            explain_diff(empty, synthetic_trace())

    def test_identical_traces_yield_no_discriminative_pattern(self):
        report = explain_diff(synthetic_trace(), synthetic_trace())
        for entry in report.entries:
            assert entry["ig"] == pytest.approx(0.0)


class TestDiagnoseCli:
    def test_synthetic_json_smoke(self):
        payload = json.loads(
            run_cli("diagnose", "--synthetic", "120", "--seed", "3", "--json")
        )
        assert payload["n_sessions"] == 120
        assert payload["entries"]

    def test_text_rendering_lists_ranked_patterns(self):
        out = run_cli("diagnose", "--synthetic", "120", "--seed", "3")
        assert "diagnosed 120 sessions" in out
        assert "information gain" in out

    def test_missing_trace_file_exits_3(self, capsys):
        code = main(["diagnose", "--traces", "/nonexistent/run.jsonl"])
        assert code == EXIT_MISSING_INPUT
        assert "no such trace file" in capsys.readouterr().err

    def test_invalid_trace_file_exits_4(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"type": "span"}) + "\n")
        code = main(["diagnose", "--traces", str(bad)])
        assert code == EXIT_SCHEMA_INVALID

    def test_missing_synthetic_config_exits_3(self, tmp_path):
        code = main(
            [
                "diagnose", "--synthetic", "10",
                "--synthetic-config", str(tmp_path / "nope.json"),
            ]
        )
        assert code == EXIT_MISSING_INPUT

    def test_malformed_synthetic_config_exits_4(self, tmp_path, capsys):
        config = tmp_path / "mix.json"
        config.write_text("{not json")
        code = main(
            ["diagnose", "--synthetic", "10", "--synthetic-config", str(config)]
        )
        assert code == EXIT_SCHEMA_INVALID
        assert capsys.readouterr().err == (
            f"{config}: not valid JSON (Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1))\n"
        )

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_non_positive_synthetic_count_is_a_usage_error(self, count, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["diagnose", "--synthetic", count])
        assert exit_info.value.code == 2
        assert (
            "argument --synthetic: must be a positive integer"
            in capsys.readouterr().err
        )

    def test_synthetic_config_overrides_personas(self, tmp_path):
        config = tmp_path / "mix.json"
        config.write_text(
            json.dumps(
                {
                    "personas": [
                        {
                            "name": "only",
                            "spans": [["phase.run", 0.01]],
                            "config": [["mode", "x"]],
                        }
                    ],
                    "motifs": [
                        {"name": "slow", "rate": 0.2, "slow_span": "phase.run"}
                    ],
                }
            )
        )
        payload = json.loads(
            run_cli(
                "diagnose", "--synthetic", "300", "--seed", "1",
                "--synthetic-config", str(config), "--json",
            )
        )
        top = payload["entries"][0]
        assert any("phase.run" in item for item in top["items"])


class TestEndToEndRecall:
    """The issue's recall criterion against *real* traced CLI runs: with
    a seeded sleep fault injected into half the corpus, the top-1
    pattern must contain the slowed span (``mining.generate``) as a
    span-path or duration-bucket item."""

    MINE = ("mine", "austral", "--scale", "0.2", "--min-support", "0.4")

    @pytest.fixture(scope="class")
    def traced_corpus(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("diagnose-e2e")
        clean, slow = [], []
        for i in range(2):
            path = tmp_path / f"clean{i}.jsonl"
            run_cli(*self.MINE, "--trace", str(path))
            clean.append(path)
        for i in range(2):
            path = tmp_path / f"slow{i}.jsonl"
            with injected_faults(
                [Fault("mine:*", action="sleep", times=1, seconds=1.0)],
                tmp_path / f"fault-state-{i}",
            ):
                run_cli(*self.MINE, "--trace", str(path))
            slow.append(path)
        return clean, slow

    def test_diagnose_ranks_the_slowed_span_top_1(self, traced_corpus):
        clean, slow = traced_corpus
        report = diagnose_traces(
            [str(p) for p in clean + slow],
            DiagnosisConfig(quantile=0.5),
        )
        assert report.class_totals == (2, 2)
        top = report.top
        assert top["majority_class"] == "slow"
        assert top["class_supports"] == [0, 2]
        assert any(
            "mining.generate" in item for item in top["items"]
        ), top["items"]

    def test_cli_diagnose_over_traces(self, traced_corpus):
        clean, slow = traced_corpus
        payload = json.loads(
            run_cli(
                "diagnose", "--traces",
                *[str(p) for p in clean + slow],
                "--quantile", "0.5", "--json",
            )
        )
        top = payload["entries"][0]
        assert any("mining.generate" in item for item in top["items"])

    def test_trace_diff_explain_names_the_regression(self, traced_corpus):
        clean, slow = traced_corpus
        out = run_cli(
            "trace", "diff", str(clean[0]), str(slow[0]),
            "--abs-floor", "0.5", "--explain",
            expect=1,  # regressions exit non-zero
        )
        assert "discriminating patterns" in out
        # Top explain line names the slowed span.
        table = out.split("discriminating patterns", 1)[1].splitlines()
        top_line = next(
            line for line in table if line.strip().startswith("1 ")
        )
        assert "mining.generate" in top_line

    def test_trace_diff_explain_json_embeds_report(self, traced_corpus):
        clean, slow = traced_corpus
        out = run_cli(
            "trace", "diff", str(clean[0]), str(slow[0]),
            "--abs-floor", "0.5", "--explain", "--json",
            expect=1,
        )
        diff = json.loads(out)
        explain = diff["explain"]
        assert explain["class_names"] == ["base", "candidate"]
        assert explain["entries"]


class TestProgressHeartbeats:
    """The satellite: sharded mining and the stream consumer publish
    ``progress.*`` done/total counters plus an ETA series."""

    def test_mine_sharded_emits_progress_counters(self, tmp_path):
        import numpy as np

        from repro.core.shards import shard_dataset
        from repro.datasets.transactions import TransactionDataset
        from repro.mining.sharded import mine_sharded
        from repro.obs import core as _obs

        rng = np.random.default_rng(0)
        transactions = [
            tuple(sorted(set(rng.integers(0, 12, size=4).tolist())))
            for _ in range(64)
        ]
        labels = [i % 2 for i in range(64)]
        data = TransactionDataset(
            transactions, labels, n_items=12, n_classes=2, name="t"
        )
        shards = shard_dataset(data, tmp_path / "shards", 16)
        with _obs.session() as session:
            mine_sharded(shards, min_support=0.2)
        counters = session.counters
        assert counters["progress.mine_sharded.shards_total"] == 4
        assert counters["progress.mine_sharded.rows_total"] == 64
        assert counters["progress.mine_sharded.cells_total"] == 8
        assert (
            counters["progress.mine_sharded.cells_done"]
            == counters["progress.mine_sharded.cells_total"]
        )
        assert (
            counters["progress.mine_sharded.count_shards_done"]
            == counters["progress.mine_sharded.count_shards_total"]
            > 0
        )
        assert "progress.mine_sharded.eta_s" in session.series
        # ETA converges to zero once all work units are done.
        assert session.series["progress.mine_sharded.eta_s"][-1] == 0.0

    def test_run_stream_emits_progress_counters(self, tmp_path):
        from repro.obs import core as _obs
        from repro.streaming.consumer import StreamSpec, run_stream

        events = [((i % 5, (i + 1) % 5), i % 2) for i in range(48)]
        spec = StreamSpec(n_items=5, n_classes=2, shard_rows=8, window_shards=3)
        with _obs.session() as session:
            run_stream(events, spec, tmp_path / "stream")
        counters = session.counters
        assert counters["progress.stream.events_total"] == 48
        assert counters["progress.stream.events_done"] == 48
        assert counters["progress.stream.seals_total"] == 6
        assert counters["progress.stream.seals_done"] == 6
        assert len(session.series["progress.stream.eta_s"]) == 6
        assert session.series["progress.stream.eta_s"][-1] == 0.0
