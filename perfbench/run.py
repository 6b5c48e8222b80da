"""Wall-clock vetting benchmark: one workload per process, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload twice, untraced and then with spans around every layer's
public calls, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The run's full
record (metadata, checks, metrics) goes to ``.perfbench/results/``,
and a traced run's spans to ``.perfbench/traces/``.

See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from vetbench.env import (  # noqa: E402
    CheckoutError,
    checkout_root,
    import_program,
    scratch_dir,
    source_revision,
)
from vetbench.verify import DEFAULT_SEED  # noqa: E402

WORKLOAD_NAMES = ("ingest", "revet", "serve-burst")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digest", action="store_true",
        help="commit this run's per-app outcome digests as the expected "
        "ones for its seed and run size -- only after every check passed",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def _meta(args, workload, count, root) -> dict:
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "apps": count,
        "scale": workload.scale,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "commit": source_revision(root),
    }


def _setup_once(workload, args, count, work: Path):
    gc.collect()
    start = time.perf_counter()
    state = workload.setup(args.seed, count, work)
    return state, time.perf_counter() - start


def run_untraced(workload, args, count, tmp: Path) -> dict:
    from vetbench import metrics, stats

    setups = []
    for repeat in range(SETUP_REPEATS):
        work = tmp / f"setup-{repeat}"
        state, seconds = _setup_once(workload, args, count, work)
        setups.append(seconds)
        if repeat < SETUP_REPEATS - 1:
            del state
            shutil.rmtree(work)
    gc.collect()
    stats.reset_peak_rss()
    outcome = workload.run(state)
    peak = stats.peak_rss_mb()
    checked = workload.verify(state, outcome, args.seed)
    values = metrics.end_to_end(outcome, checked, setups, peak)
    samples = sum(not math.isnan(x) for x in outcome.latencies)
    return {
        "checked": checked,
        "digests": [a.digest() if a else None for a in outcome.apps],
        "metrics": {name: (values[name], unit) for name, unit in metrics.END_TO_END.items()},
        "extra_meta": {
            "setup_s_all": setups,
            "timed_wall_s": outcome.wall_s,
            "percentile_samples": {"latency_p50_s": samples, "latency_p90_s": samples},
            "verify_sample": len(checked.sampled),
            "latencies_s": [round(x, 6) for x in outcome.latencies],
        },
    }


def run_traced(workload, args, count, tmp: Path, root: Path) -> dict:
    from vetbench import metrics, spans

    state, setup_seconds = _setup_once(workload, args, count, tmp / "setup")
    workload.snapshot(state)
    gc.collect()
    plain = workload.run(state)
    workload.restore(state)
    recorder = spans.SpanRecorder(tmp / "spans")
    gc.collect()
    saved = spans.install(recorder)
    try:
        traced = workload.run(state, recorder)
    finally:
        spans.uninstall(saved)
    recorder.collect_workers()
    speedup = workload.wall_speedup(state, plain)
    checked = workload.verify(state, traced, args.seed)
    same = [a.digest() if a else None for a in plain.apps] == [
        a.digest() if a else None for a in traced.apps
    ]
    if not same:
        checked.problems.append("traced and untraced passes disagree")
    layer = metrics.per_layer(recorder, traced, plain, speedup)
    checked.problems.extend(layer["addup_errors"])
    traces = scratch_dir(root) / "traces"
    traces.mkdir(exist_ok=True)
    trace_path = traces / f"{workload.name}-seed{args.seed}.jsonl"
    spans.write_trace(trace_path, recorder.spans, spans.self_times(recorder.spans))
    values = layer["metrics"]
    return {
        "checked": checked,
        "digests": [a.digest() if a else None for a in traced.apps],
        "metrics": {name: (values[name], unit) for name, unit in metrics.PER_LAYER.items()},
        "extra_meta": {
            "setup_s": setup_seconds,
            "plain_wall_s": plain.wall_s,
            "traced_wall_s": traced.wall_s,
            "spans": len(recorder.spans),
            "trace_file": str(trace_path.relative_to(root)),
            "addup_apps_checked": layer["apps_checked"],
            "addup_tolerance": {
                "rel": metrics.ADDUP_REL,
                "abs_s": metrics.ADDUP_ABS_S,
                "unattributed_max": metrics.UNATTRIBUTED_MAX,
            },
            "addup_ok": not layer["addup_errors"] and same,
            "verify_sample": len(checked.sampled),
        },
    }


def run_one(args, root: Path) -> int:
    from vetbench import verify
    from vetbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    count = workload.size(args.seconds)
    scratch = scratch_dir(root)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch))
    # Fresh caches and stores: no cold run turns warm.
    os.environ["REPRO_CACHE_DIR"] = str(tmp / "cache")
    try:
        if args.trace:
            result = run_traced(workload, args, count, tmp, root)
        else:
            result = run_untraced(workload, args, count, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    checked = result["checked"]
    correct = checked.ok_count == len(checked.ok) and not checked.problems
    meta = _meta(args, workload, count, root)
    meta.update(result["extra_meta"])
    meta["checks"] = checked.summary()
    if args.record_digest:
        if not correct:
            print("not recording digests: the run has failed checks", file=sys.stderr)
        else:
            verify.record_digests(workload.name, args.seed, result["digests"])
    summary = {
        "correct": correct,
        "attempted": len(checked.ok),
        "failed": len(checked.ok) - checked.ok_count,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }
    results = scratch / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, **summary}, indent=1) + "\n"
    )
    for problem in checked.problems[:20]:
        print(f"check failed: {problem}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{workload.name:<13} {name:<30} {value:>14.6g} {unit}")
    print("meta " + json.dumps(meta))
    print(json.dumps(summary))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process (its own RSS and CPU counters)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        root = checkout_root()
        import_program(root)
    except (CheckoutError, ImportError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args, root)


if __name__ == "__main__":
    sys.exit(main())
