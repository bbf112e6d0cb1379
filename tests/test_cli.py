"""Tests for the command-line interface."""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro.cli import EXIT_MISSING_INPUT, build_parser, main


def run_cli(*argv: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        exit_code = main(list(argv))
    assert exit_code == 0
    return buffer.getvalue()


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestDatasetsCommand:
    def test_lists_all(self):
        output = run_cli("datasets")
        for name in ("austral", "chess", "letter", "zoo"):
            assert name in output
        assert "scalability" in output


class TestMineCommand:
    def test_mines_and_writes_json(self, tmp_path):
        target = tmp_path / "patterns.json"
        output = run_cli(
            "mine", "iris", "--min-support", "0.2", "--output", str(target)
        )
        assert "mined" in output
        payload = json.loads(target.read_text())
        assert payload["patterns"]
        assert "item_names" in payload

    def test_unknown_dataset_exits(self, capsys):
        assert main(["mine", "not-a-dataset"]) == EXIT_MISSING_INPUT
        err = capsys.readouterr().err
        assert err.startswith(
            "unknown dataset 'not-a-dataset': not a built-in name (anneal, "
        )
        assert err.endswith(") and no such file\n")

    def test_csv_file_input(self, tmp_path):
        csv_path = tmp_path / "toy.csv"
        csv_path.write_text(
            "f1,f2,class\n" + "\n".join(
                ["a,x,yes", "a,y,no", "b,x,yes", "b,y,no"] * 5
            )
        )
        output = run_cli("mine", str(csv_path), "--min-support", "0.3")
        assert "mined" in output


class TestSelectCommand:
    def test_prints_selection(self):
        output = run_cli("select", "iris", "--min-support", "0.2", "--top", "3")
        assert "selected" in output
        assert "support=" in output

    def test_fisher_relevance(self):
        output = run_cli(
            "select", "iris", "--min-support", "0.2", "--relevance", "fisher"
        )
        assert "selected" in output


class TestEvaluateCommand:
    def test_runs_variants(self):
        output = run_cli(
            "evaluate", "iris", "--folds", "2",
            "--variants", "Item_All", "Pat_FS",
        )
        assert "Item_All" in output
        assert "Pat_FS" in output
        assert "%" in output


class TestFigureCommand:
    def test_figure2(self):
        output = run_cli(
            "figure", "2", "--dataset", "breast", "--scale", "0.3",
            "--min-support", "0.15",
        )
        assert "information_gain" in output
        assert "bound violations: 0" in output


class TestTableCommand:
    @pytest.mark.slow
    def test_scalability_table_small(self):
        output = run_cli("table", "3", "--scale", "0.08", "--budget", "5000")
        assert "min_sup" in output
        assert "#Patterns" in output

    def test_accuracy_table_tiny_battery(self):
        output = run_cli(
            "table", "2", "--datasets", "iris", "--folds", "2",
            "--scale", "0.5",
        )
        assert "iris" in output
        assert "Pat_FS" in output


class TestSelectChi2:
    def test_chi2_relevance_via_cli(self):
        output = run_cli(
            "select", "iris", "--min-support", "0.25", "--relevance", "chi2"
        )
        assert "selected" in output
