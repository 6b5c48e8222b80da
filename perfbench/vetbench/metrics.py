"""Metric names, units and how each is computed from a run.

``END_TO_END`` and ``PER_LAYER`` are the tables ``BENCHMARK.json``
declares; the benchmark's tests check the two agree.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from typing import Dict, List, NamedTuple, Optional

from vetbench import spans as spans_mod
from vetbench.stats import median, percentile

END_TO_END: Dict[str, str] = {
    "apps_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "cpu_s_per_app": "s",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {
    "apk.load_s": "s",
    "apk.bytes": "bytes",
    "lint.check_s": "s",
    "lint.rejects": "count",
    "core.fixpoint_s": "s",
    "core.build_self_s": "s",
    "core.visits": "count",
    "core.visits_per_s": "1/s",
    "gpu.price_s": "s",
    "gpu.launches": "count",
    "cpu.models_s": "s",
    "vetting.vet_s": "s",
    "vetting.flows": "count",
    "vetting.findings": "count",
    "incremental.analyze_self_s": "s",
    "store.load_s": "s",
    "store.write_s": "s",
    "store.hits": "count",
    "store.misses": "count",
    "store.writes": "count",
    "store.hit_frac": "fraction",
    "incremental.reused_frac": "fraction",
    "incremental.modeled_speedup": "x",
    "incremental.wall_speedup": "x",
    "serve.queue_wait_s": "s",
    "serve.dispatch_s": "s",
    "serve.worker_pipeline_s": "s",
    "serve.overhead_s": "s",
    "serve.poll_calls": "count",
    "serve.poll_s": "s",
    "serve.poll_useful_frac": "fraction",
    "serve.poll_entries_mean": "count",
    "serve.journal_records": "count",
    "serve.journal_s": "s",
    "serve.orchestrator_cpu_frac": "fraction",
    "serve.jobs_per_batch": "count",
    "serve.queue_high_water": "count",
    "serve.retries": "count",
    "serve.generator_late_max_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.addup_err_max_s": "s",
    "bench.unattributed_s": "s",
}

#: Per-app stage sums must match the traced end-to-end within this
#: share of the app's time plus :data:`ADDUP_ABS_S`.
ADDUP_REL = 0.01
ADDUP_ABS_S = 0.002
#: The glue between layers (``bench.unattributed_s``) may take at most
#: this share of a run's traced app time.  The glue measures 2-3% of a
#: run; a layer call made from the glue that is no longer wrapped lands
#: in it and fails the run.  The cap is per run, not per app: the
#: collector's full collections (17-27 per run, 35-47 ms each) land in
#: whichever span is open, and one landing in a short app's glue would
#: break any per-app cap.
UNATTRIBUTED_MAX = 0.10


def _finite(values: List[float]) -> List[float]:
    return [value for value in values if not math.isnan(value)]


def end_to_end(
    outcome, checked, setup_times: List[float], peak_rss_mb: float
) -> Dict[str, float]:
    ok = checked.ok_count
    attempted = len(checked.ok)
    latencies = _finite(outcome.latencies)
    return {
        "apps_per_s": ok / outcome.wall_s,
        "latency_p50_s": median(latencies),
        "latency_p90_s": percentile(latencies, 90),
        "cpu_s_per_app": outcome.cpu_s / max(ok, 1),
        "ok_frac": ok / attempted,
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class _AppStages(NamedTuple):
    """One app's traced time, split by the spans."""

    request: int
    #: Layer self times plus glue (and, for a served job, orchestration).
    stages: float
    #: Traced end-to-end.
    e2e: float
    #: Glue self time: ``bench.unattributed_s`` of this app.
    glue: float
    #: Traced time the glue is a share of (a served job: worker side).
    glue_base: float


def per_layer(
    recorder,
    traced,
    plain,
    wall_speedup: Optional[float] = None,
) -> Dict[str, object]:
    """Per-layer metrics of a traced pass, plus the stage add-up check.

    Returns ``{"metrics": {...}, "addup_errors": [...], "apps_checked":
    n}``; see :func:`_addup_errors` for what an add-up error is.
    """
    spans = recorder.spans
    selfs = spans_mod.self_times(spans)
    layers = spans_mod.layer_totals(spans, selfs)
    counts: Counter = recorder.counts
    metrics: Dict[str, float] = {name: 0.0 for name in PER_LAYER}
    metrics.update(
        {
            "apk.load_s": layers["apk"],
            "apk.bytes": counts["apk.bytes"],
            "lint.check_s": layers["lint"],
            "lint.rejects": counts["lint.rejects"],
            "core.fixpoint_s": layers["core.fixpoint"],
            "core.build_self_s": layers["core.build"],
            "core.visits": counts["core.visits"],
            "core.visits_per_s": _ratio(counts["core.visits"], layers["core.fixpoint"]),
            "gpu.price_s": layers["gpu"],
            "gpu.launches": counts["gpu.launches"],
            "cpu.models_s": layers["cpu"],
            "vetting.vet_s": layers["vetting"],
            "vetting.flows": counts["vetting.flows"],
            "vetting.findings": counts["vetting.findings"],
            "incremental.analyze_self_s": layers["incremental"],
            "store.load_s": layers["store.load"],
            "store.write_s": layers["store.write"],
            "store.hits": counts["store.hits"],
            "store.misses": counts["store.misses"],
            "store.writes": counts["store.writes"],
            "store.hit_frac": _ratio(
                counts["store.hits"], counts["store.hits"] + counts["store.misses"]
            ),
            "bench.unattributed_s": layers["bench"],
            "trace.overhead_frac": _ratio(traced.wall_s - plain.wall_s, plain.wall_s),
        }
    )
    stats = traced.extra.get("stats")
    if stats:
        metrics["incremental.reused_frac"] = _ratio(
            sum(s.methods_reused for s in stats), sum(s.methods_total for s in stats)
        )
        metrics["incremental.modeled_speedup"] = _ratio(
            sum(s.visits_cold for s in stats), sum(s.visits_incremental for s in stats)
        )
    if wall_speedup is not None:
        metrics["incremental.wall_speedup"] = wall_speedup

    per_request = spans_mod.request_totals(spans, selfs)
    if "report" in traced.extra:
        metrics.update(_serve_metrics(recorder, traced, layers, counts))
        apps, errors = _serve_stages(recorder, traced, per_request)
    else:
        apps = [
            _AppStages(
                span.request, sum(per_request[span.request].values()),
                span.duration, per_request[span.request]["bench"], span.duration,
            )
            for span in spans
            if span.name == "bench.app"
        ]
        errors = []
    errors.extend(_addup_errors(apps))
    metrics["trace.addup_err_max_s"] = max(
        (abs(app.stages - app.e2e) for app in apps), default=0.0
    )
    return {"metrics": metrics, "addup_errors": errors, "apps_checked": len(apps)}


def _addup_errors(apps: List[_AppStages]) -> List[str]:
    """The add-up fails for an app whose stages miss its end-to-end by
    more than ``ADDUP_REL`` + ``ADDUP_ABS_S`` -- a span outside its
    parent's or its job's window, or charged to the wrong app -- and for
    the run when its glue exceeds ``UNATTRIBUTED_MAX`` of its traced
    time, i.e. a layer's time went unattributed."""
    errors = [
        f"app {app.request}: stages sum to {app.stages:.6f}s, "
        f"end-to-end {app.e2e:.6f}s"
        for app in apps
        if abs(app.stages - app.e2e) > ADDUP_REL * app.e2e + ADDUP_ABS_S
    ]
    glue = sum(app.glue for app in apps)
    base = sum(app.glue_base for app in apps)
    if glue > UNATTRIBUTED_MAX * base:
        errors.append(
            f"{glue:.6f}s of {base:.6f}s traced app time unattributed to any layer"
        )
    return errors


def journal_times(events: List[dict]) -> Dict[str, Dict[str, float]]:
    """First admit / assign / complete time per job."""
    from repro.serve.journal import EV_ADMIT, EV_ASSIGN, EV_COMPLETE

    times: Dict[str, Dict[str, float]] = {}
    for event in events:
        if event["ev"] in (EV_ADMIT, EV_ASSIGN, EV_COMPLETE):
            times.setdefault(event["job"], {}).setdefault(event["ev"], event["at"])
    return times


def _serve_metrics(recorder, traced, layers, counts) -> Dict[str, float]:
    from repro.serve.journal import EV_ADMIT, EV_ASSIGN, EV_COMPLETE

    extra = traced.extra
    report = extra["report"]
    times = journal_times(extra["events"])
    pipeline_by_request = {}
    for span in recorder.spans:
        if span.name == "bench.run_pipeline" and span.request is not None:
            pipeline_by_request[span.request] = span.duration
    queue_wait, dispatch, overhead = [], [], []
    for job in report.jobs:
        stamps = times.get(job.job_id, {})
        if len(stamps) == 3:
            queue_wait.append(stamps[EV_ASSIGN] - stamps[EV_ADMIT])
            dispatch.append(stamps[EV_COMPLETE] - stamps[EV_ASSIGN])
            if job.index in pipeline_by_request:
                overhead.append(dispatch[-1] - pipeline_by_request[job.index])
    batches = report.counters.get("serve.batches", 0)
    feed = extra["feed"]
    return {
        "serve.queue_wait_s": median(queue_wait) if queue_wait else 0.0,
        "serve.dispatch_s": median(dispatch) if dispatch else 0.0,
        "serve.worker_pipeline_s": (
            median(list(pipeline_by_request.values())) if pipeline_by_request else 0.0
        ),
        "serve.overhead_s": median(overhead) if overhead else 0.0,
        "serve.poll_calls": counts["serve.poll_calls"],
        "serve.poll_s": layers["serve.poll"],
        "serve.poll_useful_frac": _ratio(
            counts["serve.poll_useful"], counts["serve.poll_calls"]
        ),
        "serve.poll_entries_mean": _ratio(
            counts["serve.poll_entries"], counts["serve.poll_calls"]
        ),
        "serve.journal_records": counts["serve.journal_records"],
        "serve.journal_s": layers["serve.journal"],
        "serve.orchestrator_cpu_frac": _ratio(
            extra["orchestrator_cpu_s"], extra["serve_wall_s"]
        ),
        "serve.jobs_per_batch": _ratio(
            report.counters.get("serve.dispatched", 0), batches
        ),
        "serve.queue_high_water": report.counters.get("serve.queue_high_water", 0),
        "serve.retries": report.counters.get("serve.retries", 0),
        "serve.generator_late_max_s": max(feed.late) if feed.late else 0.0,
    }


def _serve_stages(recorder, traced, per_request):
    """Per completed job: orchestration time (due to complete, minus the
    worker-side spans) plus worker-side self times, against due to
    complete.  A job with no worker-side spans (a worker's span file
    lost) is an error.  Worker spans are on the same monotonic clock;
    due and complete (wall clock) are mapped onto it with the offset
    taken at the end of the run."""
    offset = time.time() - time.perf_counter()
    feed = traced.extra["feed"]
    completes = traced.extra["completes"]
    worker_roots: Dict[int, List] = {}
    for span in recorder.spans:
        if span.parent == 0 and span.request is not None and span.pid != recorder.pid:
            worker_roots.setdefault(span.request, []).append((span.start, span.end))
    apps, errors = [], []
    for job in traced.extra["report"].jobs:
        done = completes.get(job.job_id)
        if not done:
            continue
        roots = worker_roots.get(job.index)
        if not roots:
            errors.append(f"app {job.index}: no worker-side spans")
            continue
        due = feed.t0 - offset
        complete = min(done) - offset
        stages = per_request[job.index]
        apps.append(
            _AppStages(
                job.index,
                (complete - due - spans_mod.covered(roots, due, complete))
                + sum(stages.values()),
                complete - due,
                stages["bench"],
                spans_mod.covered(roots, -math.inf, math.inf),
            )
        )
    return apps, errors
