"""Aggregate-report generation tests."""

import pytest

from repro.bench.harness import evaluate_app
from repro.bench.report import collect_results, render_markdown_report
from repro.cli import main
from tests.conftest import tiny_app


@pytest.fixture
def results_dir(tmp_path):
    directory = tmp_path / "results"
    directory.mkdir()
    (directory / "fig09_mat.txt").write_text("== Fig. 9 ==\nrow")
    (directory / "zz_custom.txt").write_text("custom section")
    (directory / "table1_dataset.txt").write_text("== Table I ==")
    return directory


class TestCollect:
    def test_canonical_order_then_extras(self, results_dir):
        names = [name for name, _ in collect_results(results_dir)]
        assert names == ["table1_dataset", "fig09_mat", "zz_custom"]

    def test_empty_directory(self, tmp_path):
        assert collect_results(tmp_path) == []


class TestRender:
    def test_sections_embedded(self, results_dir):
        text = render_markdown_report(results_dir)
        assert "## fig09_mat" in text
        assert "custom section" in text

    def test_headline_summary_from_rows(self, results_dir):
        rows = [evaluate_app(tiny_app(0))]
        text = render_markdown_report(results_dir, rows)
        assert "Headline summary" in text
        assert "MAT vs plain" in text

    def test_empty_results_note(self, tmp_path):
        text = render_markdown_report(tmp_path)
        assert "No persisted benchmark results" in text


class TestCliReport:
    def test_report_to_file(self, results_dir, tmp_path, capsys):
        out = tmp_path / "report.md"
        assert main(
            ["report", "--results", str(results_dir), "--out", str(out)]
        ) == 0
        assert "experiment report" in out.read_text()

    def test_report_to_stdout(self, results_dir, capsys):
        assert main(["report", "--results", str(results_dir)]) == 0
        assert "fig09_mat" in capsys.readouterr().out
