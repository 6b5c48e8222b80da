"""The benchmark's own tests: tiny slices of every workload, and the checks.

Run from the checkout root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

from vetbench import inputs, metrics, spans, verify

WORKLOADS = ("ingest", "revet", "serve-burst")


def _jobs(workload: str) -> int:
    """Jobs a one-second slice attempts (``revet`` re-vets every app per bump)."""
    from vetbench.workloads import WORKLOADS as ALL, Revet

    return ALL[workload].size(1) * (Revet.bumps if workload == "revet" else 1)


def _run(root, *args, cwd=None):
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=cwd or root,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return done


def _result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_the_metric_tables(repo_root):
    declared = _declared(repo_root)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == metrics.PER_LAYER
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_slice_prints_every_end_to_end_metric(repo_root, workload):
    result = _result(
        _run(repo_root, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", "0")
    )
    assert result["correct"] is True
    assert result["attempted"] == _jobs(workload) and result["failed"] == 0
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == metrics.END_TO_END
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    for value in result["metrics"].values():
        assert math.isfinite(value["value"]) and value["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_slice_traced_stages_add_up(repo_root, workload):
    result = _result(
        _run(repo_root, "--workload", workload, "--seed", "3", "--seconds", "1",
             "--trace", "1")
    )
    # ``correct`` also requires every app's stages to add up.
    assert result["correct"] is True
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    assert got == metrics.PER_LAYER
    record = json.loads(
        (repo_root / ".perfbench" / "results" / f"{workload}-seed3-trace1.json").read_text()
    )
    assert record["meta"]["addup_ok"] is True
    assert record["meta"]["addup_apps_checked"] == _jobs(workload)
    values = {name: value["value"] for name, value in result["metrics"].items()}
    assert values["apk.load_s"] > 0 and values["vetting.vet_s"] > 0
    if workload == "revet":
        assert values["store.hits"] > 0 and values["incremental.wall_speedup"] > 0
        assert values["gpu.price_s"] == 0  # the re-vet never prices
    else:
        assert values["core.fixpoint_s"] > 0 and values["gpu.launches"] > 0
    if workload.startswith("serve"):
        assert values["serve.poll_calls"] > 0 and values["serve.journal_records"] > 0
        assert values["serve.worker_pipeline_s"] > 0


def test_benchmark_alone_fails_without_printing_a_result(repo_root, tmp_path):
    shutil.copytree(repo_root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(repo_root / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# -- the checks catch wrong outputs --------------------------------------------


def _tiny(workload_name, tmp_path):
    from vetbench.workloads import WORKLOADS as ALL

    workload = ALL[workload_name]
    state = workload.setup(3, 4, tmp_path / "work")
    outcome = workload.run(state)
    checked = workload.verify(state, outcome, 3)
    assert all(checked.ok) and not checked.problems
    return workload, state, outcome


def test_corrupted_verdict_drives_ok_frac_below_one(tmp_path, isolated_cache):
    workload, state, outcome = _tiny("ingest", tmp_path)
    outcome.apps[2].verdict = "clean" if outcome.apps[2].verdict != "clean" else "malicious"
    checked = workload.verify(state, outcome, 3)
    assert checked.ok == [True, True, False, True]


def test_dropped_job_drives_ok_frac_below_one(tmp_path, isolated_cache):
    workload, state, outcome = _tiny("serve-burst", tmp_path)
    job = outcome.extra["report"].jobs[1]
    outcome.extra["completes"].pop(job.job_id)
    outcome.apps[1] = None
    checked = workload.verify(state, outcome, 3)
    assert checked.ok_count == 3 and not checked.ok[1]


def test_duplicated_job_drives_ok_frac_below_one(tmp_path, isolated_cache):
    workload, state, outcome = _tiny("serve-burst", tmp_path)
    job = outcome.extra["report"].jobs[0]
    outcome.extra["completes"][job.job_id].append(0.0)
    assert not workload.verify(state, outcome, 3).ok[0]


def test_committed_digest_mismatch_is_caught(tmp_path, isolated_cache, monkeypatch):
    workload, state, outcome = _tiny("revet", tmp_path)
    digests = [app.digest() for app in outcome.apps]
    digests[3] = "0" * 16
    monkeypatch.setattr(
        verify, "committed_digests", lambda name, seed, apps: digests
    )
    checked = workload.verify(state, outcome, 3)
    assert checked.digest_checked
    assert [i for i, ok in enumerate(checked.ok) if not ok] == [3]


# -- the add-up check catches unattributed time -------------------------------


def _traced(workload_name, tmp_path):
    """A traced pass over a 4-app slice; worker span files left uncollected."""
    from vetbench.workloads import WORKLOADS as ALL

    workload = ALL[workload_name]
    state = workload.setup(3, 4, tmp_path / "work")
    recorder = spans.SpanRecorder(tmp_path / "spans")
    saved = spans.install(recorder)
    try:
        traced = workload.run(state, recorder)
    finally:
        spans.uninstall(saved)
    return recorder, traced


def _addup_errors(recorder, traced):
    return metrics.per_layer(recorder, traced, traced)["addup_errors"]


def test_unwrapped_layer_fails_the_addup(tmp_path, isolated_cache, monkeypatch):
    assert not _addup_errors(*_traced("ingest", tmp_path / "all"))
    every = spans._targets
    monkeypatch.setattr(
        spans, "_targets", lambda: [t for t in every() if t[2] != "gpu.price"]
    )
    errors = _addup_errors(*_traced("ingest", tmp_path / "unwrapped"))
    assert errors and all("unattributed" in e for e in errors)


def test_lost_worker_span_file_fails_the_addup(tmp_path, isolated_cache):
    recorder, traced = _traced("serve-burst", tmp_path)
    files = sorted(recorder.out_dir.glob("spans-*.json"))
    assert files
    files[0].unlink()
    recorder.collect_workers()
    errors = _addup_errors(recorder, traced)
    assert errors and all("no worker-side spans" in e for e in errors)


# -- inputs and spans ----------------------------------------------------------


def test_app_sets_are_seeded_and_stratified():
    first = inputs.draw_apps(1, 50)
    assert first == inputs.draw_apps(1, 50)
    assert {a.seed for a in first} != {a.seed for a in inputs.draw_apps(2, 50)}
    # The i-th lightest drawn app comes from the i-th cost stratum.
    keys = sorted(key for key in inputs.strata_keys() if key >= 0)
    keys = keys[: round(len(keys) * inputs.POOL_SHARE)]
    for stratum, key in enumerate(sorted(a.key for a in first)):
        low, high = stratum * len(keys) // 50, (stratum + 1) * len(keys) // 50
        assert keys[low] <= key <= keys[high - 1]


def test_every_ten_consecutive_apps_span_the_cost_deciles():
    apps = inputs.draw_apps(4, 120)
    ranks = {app.seed: rank for rank, app in enumerate(sorted(apps, key=lambda a: a.key))}
    for start in range(0, 120, 10):
        block = apps[start:start + 10]
        assert sorted(ranks[app.seed] * 10 // 120 for app in block) == list(range(10))


def test_bump_plan_rotates_an_exact_split():
    specs = inputs.draw_apps(1, 40)
    plan = inputs.bump_plan(specs, [40] * 40, 1, 4)
    for sizes in plan:
        assert sorted(sizes) == [1] * 10 + [2] * 10 + [3] * 10 + [10] * 10
    for app in range(40):
        assert sorted(sizes[app] for sizes in plan) == [1, 2, 3, 10]


def test_self_times_subtract_children():
    recorder = spans.SpanRecorder(".")
    recorder.spans = [
        spans.Span(1, 0, "bench.app", 0.0, 10.0, 0, 1),
        spans.Span(2, 1, "apk.load", 1.0, 3.0, 0, 1),
        spans.Span(3, 1, "bench.run_pipeline", 3.0, 9.0, 0, 1),
        spans.Span(4, 3, "core.fixpoint", 4.0, 8.0, 0, 1),
    ]
    selfs = spans.self_times(recorder.spans)
    assert selfs == {(1, 1): 2.0, (1, 2): 2.0, (1, 3): 2.0, (1, 4): 4.0}
    totals = spans.request_totals(recorder.spans, selfs)[0]
    assert sum(totals.values()) == 10.0
