"""The benchmark baseline recorder/comparator (``tools/bench_baseline.py``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import repro.bench.harness as harness
from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile
from repro.bench.harness import evaluate_corpus, last_run_stats
from tests.conftest import TINY_PROFILE

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import bench_baseline  # noqa: E402


def _metrics(seed: int = 881000):
    corpus = AppCorpus(size=2, base_seed=seed, profile=TINY_PROFILE)
    rows = evaluate_corpus(corpus, no_cache=True)
    return bench_baseline.collect_metrics(rows, last_run_stats())


class TestCollectMetrics:
    def test_every_gating_metric_present(self):
        collected = _metrics()
        assert set(collected["metrics"]) == set(bench_baseline.METRICS)
        assert all(value > 0 for value in collected["metrics"].values())
        assert set(collected["informational"]) == set(
            bench_baseline.INFORMATIONAL
        )

    def test_no_rows_is_an_error(self):
        with pytest.raises(ValueError):
            bench_baseline.collect_metrics([], None)


class TestComparator:
    BASE = {"gdroid_speedup": 50.0, "full_s": 0.001}

    def test_identical_metrics_pass(self):
        comparison = bench_baseline.compare_metrics(
            self.BASE, dict(self.BASE), tolerance=0.02
        )
        assert comparison.ok
        assert comparison.regressions == []
        assert comparison.improvements == []

    def test_speedup_drop_beyond_tolerance_regresses(self):
        current = dict(self.BASE, gdroid_speedup=45.0)  # -10%
        comparison = bench_baseline.compare_metrics(self.BASE, current, 0.02)
        assert not comparison.ok
        assert [d.metric for d in comparison.regressions] == ["gdroid_speedup"]
        assert comparison.regressions[0].relative == pytest.approx(-0.1)

    def test_modeled_time_increase_regresses(self):
        current = dict(self.BASE, full_s=0.0011)  # +10%, "lower is better"
        comparison = bench_baseline.compare_metrics(self.BASE, current, 0.02)
        assert [d.metric for d in comparison.regressions] == ["full_s"]

    def test_drift_within_tolerance_passes(self):
        current = dict(self.BASE, gdroid_speedup=49.5, full_s=0.00101)  # ~1%
        assert bench_baseline.compare_metrics(self.BASE, current, 0.02).ok

    def test_good_direction_drift_is_improvement_not_failure(self):
        current = dict(self.BASE, gdroid_speedup=60.0, full_s=0.0005)
        comparison = bench_baseline.compare_metrics(self.BASE, current, 0.02)
        assert comparison.ok
        assert {d.metric for d in comparison.improvements} == {
            "gdroid_speedup",
            "full_s",
        }

    def test_tolerance_is_the_knob(self):
        current = dict(self.BASE, gdroid_speedup=47.5)  # -5%
        assert not bench_baseline.compare_metrics(self.BASE, current, 0.02).ok
        assert bench_baseline.compare_metrics(self.BASE, current, 0.10).ok

    def test_unknown_metrics_are_ignored(self):
        comparison = bench_baseline.compare_metrics(
            {"gdroid_speedup": 50.0, "mystery": 1.0},
            {"gdroid_speedup": 50.0, "apps_per_second": 3.0},
            0.02,
        )
        assert [d.metric for d in comparison.deltas] == ["gdroid_speedup"]


class TestCommandLine:
    def _record(self, tmp_path, monkeypatch, seed=881100):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out = tmp_path / "BENCH_baseline.json"
        code = bench_baseline.main(
            [
                "record",
                "--apps", "2",
                "--scale", "0.06",
                "--out", str(out),
            ]
        )
        assert code == 0
        return out

    def test_record_then_compare_round_trip(self, tmp_path, monkeypatch):
        out = self._record(tmp_path, monkeypatch)
        baseline = json.loads(out.read_text())
        assert baseline["schema"] == bench_baseline.BASELINE_SCHEMA
        assert baseline["corpus"] == {"apps": 2, "scale": 0.06}
        # Modeled metrics are deterministic: a re-run compares clean.
        assert bench_baseline.main(["compare", "--baseline", str(out)]) == 0

    def test_injected_regression_exits_nonzero(self, tmp_path, monkeypatch):
        out = self._record(tmp_path, monkeypatch)
        baseline = json.loads(out.read_text())
        # Pretend the recorded run was 25% faster than reality.
        baseline["metrics"]["gdroid_speedup"] *= 1.25
        out.write_text(json.dumps(baseline))
        assert bench_baseline.main(["compare", "--baseline", str(out)]) == 1

    def test_injected_regression_within_tolerance_passes(
        self, tmp_path, monkeypatch
    ):
        out = self._record(tmp_path, monkeypatch)
        baseline = json.loads(out.read_text())
        baseline["metrics"]["gdroid_speedup"] *= 1.25
        out.write_text(json.dumps(baseline))
        code = bench_baseline.main(
            ["compare", "--baseline", str(out), "--tolerance", "0.5"]
        )
        assert code == 0

    def test_missing_baseline_is_usage_error(self, tmp_path):
        code = bench_baseline.main(
            ["compare", "--baseline", str(tmp_path / "absent.json")]
        )
        assert code == 2

    def test_compare_json_report(self, tmp_path, monkeypatch, capsys):
        out = self._record(tmp_path, monkeypatch)
        capsys.readouterr()  # drain the record command's output
        code = bench_baseline.main(
            ["compare", "--baseline", str(out), "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert len(report["deltas"]) == len(bench_baseline.METRICS)

    def test_compare_never_reads_cached_rows(self, tmp_path, monkeypatch, capsys):
        """A doctored row in the on-disk cache cannot move compare's
        numbers: the cache is keyed by version and schema, not code."""
        out = self._record(tmp_path, monkeypatch)
        capsys.readouterr()
        # Fill the row cache for the baseline corpus, then doctor it.
        harness._CACHE.clear()
        evaluate_corpus(AppCorpus(size=2, profile=GeneratorProfile(scale=0.06)))
        cached = list((tmp_path / "cache").glob("*.json"))
        assert len(cached) == 2
        for path in cached:
            payload = json.loads(path.read_text())
            payload["full_s"] *= 10
            path.write_text(json.dumps(payload))
        harness._CACHE.clear()
        code = bench_baseline.main(
            ["compare", "--baseline", str(out), "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [d["relative"] for d in report["deltas"]] == [0.0] * len(
            bench_baseline.METRICS
        )
        assert report["informational"]["current"]["hit_rate"] == 0.0
