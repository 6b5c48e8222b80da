#!/usr/bin/env python3
"""Benchmark baseline recorder / regression comparator.

The reproduction's argument is quantitative, so every PR needs to be
judged against a recorded trajectory of the headline numbers: modeled
per-config times, the paper's speedup ratios, sweep throughput, and
cache effectiveness.  This tool maintains that trajectory:

* ``record`` evaluates a corpus slice and writes the headline metrics
  to a baseline JSON (default ``benchmarks/results/BENCH_baseline.json``);
* ``compare`` re-evaluates the same slice and flags any *gating*
  metric that drifted beyond ``--tolerance`` in its bad direction
  (modeled times up, speedups down), exiting 1 so CI can surface the
  regression.

Gating metrics are means of *modeled* quantities -- pure functions of
the corpus seeds and the cost model, so they are bit-stable across
machines and any drift is a real model change.  Wall-clock throughput
(``apps_per_second``) and cache ``hit_rate`` are machine- and
state-dependent, so they are recorded as *informational*: reported,
never gating.

Both commands always evaluate fresh rows and never read the on-disk
row cache: its keys carry the package version and cache schema, not
the code, so after an engine or pricing change a cached row would be
recorded as the new baseline, or compared as 0% drift, whatever the
code now computes.

Usage::

    python tools/bench_baseline.py record  [--apps 6] [--scale 0.1] [--out PATH]
    python tools/bench_baseline.py compare [--baseline PATH] [--tolerance 0.02]

``compare`` re-runs with the corpus parameters recorded in the
baseline unless ``--apps``/``--scale`` override them.  Exit codes:
0 = within tolerance, 1 = regression, 2 = usage/missing baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

try:
    import repro  # noqa: F401
except ImportError:  # running from a checkout without installation
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import repro  # noqa: F401

#: Bump when the baseline JSON layout changes.
BASELINE_SCHEMA = 1

DEFAULT_BASELINE = "benchmarks/results/BENCH_baseline.json"

#: Gating metrics and the direction that counts as a regression.
#: "lower": higher-than-baseline is a regression (modeled times).
#: "higher": lower-than-baseline is a regression (speedups).
METRICS = {
    "plain_s": "lower",
    "mat_s": "lower",
    "grp_s": "lower",
    "full_s": "lower",
    "cpu_s": "lower",
    "plain_vs_cpu": "higher",
    "mat_speedup": "higher",
    "grp_speedup": "higher",
    "mer_speedup": "higher",
    "gdroid_speedup": "higher",
    "memory_ratio": "lower",
}

#: Machine/state-dependent metrics: recorded and reported, never gating.
INFORMATIONAL = ("apps_per_second", "hit_rate")

#: Worker-process counts the serving-throughput sweep records.
SERVE_WORKER_COUNTS = (1, 2, 4)

#: Sink category of the demand-driven informational metrics.
TARGETED_SINKS = "SMS"

#: ICC-resolution sweep shape: seeds per ground-truth scenario kind and
#: the base seed / generator scale of the sweep corpus.
ICC_SEEDS_PER_SCENARIO = 4
ICC_BASE_SEED = 993300
ICC_SCALE = 0.4

#: Informational metric names :func:`collect_icc_metrics` produces.
ICC_METRIC_NAMES = (
    "icc_resolved_fraction",
    "icc_receiver_shrinkage",
    "icc_linked_flows",
)


def serve_metric_names(counts: Sequence[int] = SERVE_WORKER_COUNTS) -> List[str]:
    """Informational metric names produced by :func:`collect_serve_metrics`."""
    return [f"serve_pool_jobs_per_s_w{count}" for count in counts]


def collect_metrics(rows: Sequence[Any], stats: Any) -> Dict[str, Any]:
    """Headline metric means over one evaluated corpus slice."""
    from repro.bench.harness import AppEvaluation

    evaluations = [row for row in rows if isinstance(row, AppEvaluation)]
    if not evaluations:
        raise ValueError("no evaluated rows to record")
    metrics = {
        name: statistics.mean(getattr(row, name) for row in evaluations)
        for name in METRICS
    }
    informational = {
        "apps_per_second": stats.apps_per_second if stats else 0.0,
        "hit_rate": stats.hit_rate if stats else 0.0,
    }
    return {"metrics": metrics, "informational": informational}


def collect_targeted_metrics(
    full_rows: Sequence[Any],
    corpus: Any,
    jobs: Optional[int] = None,
) -> Dict[str, Any]:
    """Demand-driven vetting metrics for one corpus slice.

    Informational only (merged into the baseline's ``informational``
    block by ``record``, never gating): the targeted path's cost is a
    function of where the generator happened to place sinks, so small
    slices have high variance.  ``targeted_speedup_modeled`` is the
    band-total modeled-time ratio for a single-sink query
    (:data:`TARGETED_SINKS`); ``None`` when every app was skipped (the
    query was answered entirely by the pre-scan, for free).
    """
    from repro.bench.harness import AppEvaluation, evaluate_corpus
    from repro.vetting.targeted import TargetSpec

    spec = TargetSpec.parse(TARGETED_SINKS)
    targeted_rows = evaluate_corpus(
        corpus, jobs=jobs, no_cache=True, targets=spec
    )
    full_s = sum(
        row.full_s for row in full_rows if isinstance(row, AppEvaluation)
    )
    targeted_s = sum(
        row.full_s
        for row in targeted_rows
        if isinstance(row, AppEvaluation)
    )
    skipped = sum(
        1 for row in targeted_rows if not isinstance(row, AppEvaluation)
    )
    return {
        "targeted_sinks": TARGETED_SINKS,
        "targeted_skip_rate": (
            skipped / len(targeted_rows) if targeted_rows else 0.0
        ),
        "targeted_speedup_modeled": (
            full_s / targeted_s if targeted_s else None
        ),
    }


def collect_serve_metrics(
    corpus: Any, counts: Sequence[int] = SERVE_WORKER_COUNTS
) -> Dict[str, Any]:
    """Process-pool serving throughput at each worker count.

    Informational only: jobs/s through ``run_soak`` with the
    ``process`` pool is wall-clock (spawn/fork overhead, scheduler
    noise, core count), so it is recorded to show how throughput
    scales with worker processes, never gated.  Each sweep point runs
    against its own scratch state dir so partition stores from one
    count cannot leak into the next.
    """
    import shutil
    import tempfile

    from repro.serve import ServeConfig, run_soak
    from repro.serve.jobs import JobState

    metrics: Dict[str, Any] = {}
    for count in counts:
        state_dir = tempfile.mkdtemp(prefix="bench-serve-")
        try:
            report = run_soak(
                corpus,
                config=ServeConfig(
                    workers=count,
                    vet=False,
                    pool="process",
                    state_dir=state_dir,
                ),
            )
        finally:
            shutil.rmtree(state_dir, ignore_errors=True)
        done = sum(1 for job in report.jobs if job.state == JobState.DONE)
        metrics[f"serve_pool_jobs_per_s_w{count}"] = (
            done / report.wall_s if report.wall_s else 0.0
        )
    return metrics


def collect_icc_metrics(
    per_scenario: int = ICC_SEEDS_PER_SCENARIO,
    base_seed: int = ICC_BASE_SEED,
    scale: float = ICC_SCALE,
) -> Dict[str, Any]:
    """ICC target-resolution quality over the ground-truth sweep corpus.

    Informational only (the values are deterministic functions of the
    sweep seeds, but they measure *analysis precision*, not the cost
    model the gating metrics guard):

    * ``icc_resolved_fraction`` -- tainted sends classified better than
      ``over-approx`` (``exact`` or ``filtered``);
    * ``icc_receiver_shrinkage`` -- 1 minus the ratio of resolved
      receiver-set sizes to the legacy over-approximated sizes (0 when
      resolution never prunes anything);
    * ``icc_linked_flows`` -- inter-component leaks stitched across
      exactly-resolved edges.
    """
    from repro.apk.generator import (
        ICC_SCENARIOS,
        generate_app,
        icc_scenario_profile,
    )
    from repro.vetting.report import vet_app

    sends = resolved = 0
    over_receivers = resolved_receivers = 0
    linked = 0
    for kind_index, scenario in enumerate(ICC_SCENARIOS):
        profile = icc_scenario_profile(scenario, scale=scale)
        for offset in range(per_scenario):
            seed = base_seed + kind_index * per_scenario + offset
            app = generate_app(seed, profile)
            report = vet_app(app)
            legacy = vet_app(app, resolve_icc=False)
            over = {
                (flow.method, flow.send_label): flow.candidate_receivers
                for flow in legacy.icc_flows
            }
            for flow in report.icc_flows:
                sends += 1
                if flow.resolution != "over-approx":
                    resolved += 1
                resolved_receivers += len(flow.candidate_receivers)
                over_receivers += len(
                    over[(flow.method, flow.send_label)]
                )
            linked += len(report.linked_flows)
    return {
        "icc_resolved_fraction": resolved / sends if sends else 0.0,
        "icc_receiver_shrinkage": (
            1.0 - resolved_receivers / over_receivers
            if over_receivers
            else 0.0
        ),
        "icc_linked_flows": linked,
    }


@dataclass(frozen=True)
class Delta:
    """One metric's baseline-vs-current comparison."""

    metric: str
    baseline: float
    current: float
    #: Signed relative change: (current - baseline) / baseline.
    relative: float
    direction: str
    regressed: bool
    improved: bool

    def describe(self) -> str:
        state = (
            "REGRESSION"
            if self.regressed
            else ("improved" if self.improved else "ok")
        )
        return (
            f"{self.metric:16s} {self.baseline:12.6g} -> "
            f"{self.current:12.6g}  ({self.relative:+.2%})  {state}"
        )


@dataclass(frozen=True)
class Comparison:
    """Full comparator result for one baseline/current pair."""

    deltas: List[Delta]
    tolerance: float

    @property
    def regressions(self) -> List[Delta]:
        return [delta for delta in self.deltas if delta.regressed]

    @property
    def improvements(self) -> List[Delta]:
        return [delta for delta in self.deltas if delta.improved]

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_metrics(
    baseline: Dict[str, float],
    current: Dict[str, float],
    tolerance: float,
) -> Comparison:
    """Flag gating metrics that drifted beyond ``tolerance``.

    Drift in the *bad* direction (per :data:`METRICS`) beyond the
    tolerance is a regression; drift in the good direction beyond the
    tolerance is reported as an improvement (a hint to re-record the
    baseline) but never fails the comparison.
    """
    deltas: List[Delta] = []
    for metric, direction in METRICS.items():
        if metric not in baseline or metric not in current:
            continue
        base = float(baseline[metric])
        now = float(current[metric])
        relative = (now - base) / base if base else 0.0
        bad = relative > tolerance if direction == "lower" else relative < -tolerance
        good = relative < -tolerance if direction == "lower" else relative > tolerance
        deltas.append(
            Delta(
                metric=metric,
                baseline=base,
                current=now,
                relative=relative,
                direction=direction,
                regressed=bad,
                improved=good,
            )
        )
    return Comparison(deltas=deltas, tolerance=tolerance)


def _evaluate(apps: int, scale: float, jobs: Optional[int]):
    """Fresh rows for the slice (the on-disk row cache is never read)."""
    from repro.apk.corpus import AppCorpus
    from repro.apk.generator import GeneratorProfile
    from repro.bench.harness import evaluate_corpus, last_run_stats

    corpus = AppCorpus(size=apps, profile=GeneratorProfile(scale=scale))
    rows = evaluate_corpus(corpus, jobs=jobs, no_cache=True)
    return rows, last_run_stats(), corpus


def cmd_record(args: argparse.Namespace) -> int:
    rows, stats, corpus = _evaluate(args.apps, args.scale, args.jobs)
    collected = collect_metrics(rows, stats)
    collected["informational"].update(
        collect_targeted_metrics(rows, corpus, jobs=args.jobs)
    )
    collected["informational"].update(collect_serve_metrics(corpus))
    collected["informational"].update(collect_icc_metrics())
    baseline = {
        "schema": BASELINE_SCHEMA,
        "version": repro.__version__,
        "corpus": {"apps": args.apps, "scale": args.scale},
        "metrics": collected["metrics"],
        "informational": collected["informational"],
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(baseline, sort_keys=True, indent=2) + "\n")
    print(f"recorded baseline of {len(METRICS)} gating metrics to {out}")
    for name, value in sorted(baseline["metrics"].items()):
        print(f"  {name:16s} {value:12.6g}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    path = Path(args.baseline)
    try:
        baseline = json.loads(path.read_text())
    except (OSError, ValueError) as error:
        print(f"error: cannot load baseline {path}: {error}", file=sys.stderr)
        return 2
    corpus = baseline.get("corpus", {})
    apps = args.apps or int(corpus.get("apps", 6))
    scale = args.scale or float(corpus.get("scale", 0.1))

    rows, stats, _ = _evaluate(apps, scale, args.jobs)
    collected = collect_metrics(rows, stats)
    comparison = compare_metrics(
        baseline.get("metrics", {}), collected["metrics"], args.tolerance
    )

    if args.json:
        print(
            json.dumps(
                {
                    "tolerance": comparison.tolerance,
                    "ok": comparison.ok,
                    "deltas": [vars(delta) for delta in comparison.deltas],
                    "informational": {
                        "baseline": baseline.get("informational", {}),
                        "current": collected["informational"],
                    },
                },
                sort_keys=True,
                indent=2,
            )
        )
    else:
        print(
            f"baseline {path} ({apps} apps, scale {scale}), "
            f"tolerance {args.tolerance:.1%}:"
        )
        for delta in comparison.deltas:
            print(f"  {delta.describe()}")
        base_info = baseline.get("informational", {})
        for name in INFORMATIONAL:
            print(
                f"  {name:16s} {base_info.get(name, 0.0):12.6g} -> "
                f"{collected['informational'][name]:12.6g}  (informational)"
            )
        # Serve-pool throughput is measured by ``record`` only (three
        # pooled soaks are too slow for every compare); report the
        # recorded scaling so it stays visible in CI logs.
        for name in serve_metric_names():
            if name in base_info:
                print(
                    f"  {name:24s} {base_info[name]:12.6g}  "
                    "(informational, recorded)"
                )
        # ICC-resolution precision is deterministic but measured over
        # its own scenario sweep; ``record`` computes it, compare just
        # keeps the recorded values visible.
        for name in ICC_METRIC_NAMES:
            if name in base_info:
                print(
                    f"  {name:24s} {base_info[name]:12.6g}  "
                    "(informational, recorded)"
                )
        if comparison.regressions:
            names = ", ".join(d.metric for d in comparison.regressions)
            print(f"REGRESSION beyond {args.tolerance:.1%}: {names}")
        elif comparison.improvements:
            names = ", ".join(d.metric for d in comparison.improvements)
            print(f"ok (improvements worth re-recording: {names})")
        else:
            print("ok: all gating metrics within tolerance")
    return 0 if comparison.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench_baseline",
        description="record / compare the benchmark headline baseline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("record", "compare"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--apps", type=int, default=6 if name == "record" else 0)
        cmd.add_argument(
            "--scale", type=float, default=0.1 if name == "record" else 0.0
        )
        cmd.add_argument("--jobs", type=int, default=None)
    sub.choices["record"].add_argument("--out", default=DEFAULT_BASELINE)
    compare = sub.choices["compare"]
    compare.add_argument("--baseline", default=DEFAULT_BASELINE)
    compare.add_argument(
        "--tolerance", type=float, default=0.02,
        help="relative drift allowed before a gating metric regresses",
    )
    compare.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return {"record": cmd_record, "compare": cmd_compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
