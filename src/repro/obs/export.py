"""Run-ledger and Chrome-trace exports of a finished tracer.

Two serialisations of the same span log:

* :func:`run_ledger` -- structured JSON: per-category stage totals,
  counters, the full span list, and (optionally) the
  :class:`repro.bench.harness.CorpusRunStats` of the run it profiled.
  ``tests/test_obs.py`` asserts the stage totals reconcile with the
  harness's own stopwatches.
* :func:`chrome_trace_document` -- trace-event JSON loadable in
  ``chrome://tracing`` / Perfetto: one complete ("X") event per span on
  a per-worker thread lane, counters as trailing "C" events, and "M"
  metadata events naming the process and lanes.

:func:`write_chrome_trace` writes any trace-event list as one such
document; the simulated kernel schedule
(:func:`repro.gpu.timeline.kernel_timeline_events`) goes through it too.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

import repro
from repro.obs.tracer import Tracer

#: Bump when the ledger layout changes.
LEDGER_SCHEMA = 1

#: Stage categories whose durations the harness also times itself;
#: their ledger totals must reconcile with ``CorpusRunStats``.
HARNESS_STAGES = ("lookup", "evaluate", "store")


def chrome_trace_events(tracer: Tracer) -> List[Dict[str, Any]]:
    """Trace events (Chrome trace-event format) for every span."""
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "gdroid run ledger"},
        }
    ]
    lanes = sorted({span.worker for span in tracer.spans})
    for lane in lanes:
        label = "main" if lane == 0 else f"worker {lane}"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": lane,
                "args": {"name": label},
            }
        )
    for span in tracer.spans:
        events.append(
            {
                "name": span.name,
                "ph": "X",
                "ts": span.start_s * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": 0,
                "tid": span.worker,
                "cat": span.category,
                "args": dict(span.args),
            }
        )
    end_us = tracer.total_s() * 1e6
    for name in sorted(tracer.counters):
        events.append(
            {
                "name": name,
                "ph": "C",
                "ts": end_us,
                "pid": 0,
                "tid": 0,
                "args": {name: tracer.counters[name]},
            }
        )
    return events


def _trace_document(
    events: List[Dict[str, Any]], metadata: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    document_metadata = {"source": "repro.obs", "version": repro.__version__}
    if metadata:
        document_metadata.update(metadata)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": document_metadata,
    }


def chrome_trace_document(
    tracer: Tracer, metadata: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The full ``chrome://tracing`` JSON document."""
    return _trace_document(chrome_trace_events(tracer), metadata)


def write_chrome_trace(
    events: List[Dict[str, Any]],
    path: str,
    metadata: Optional[Dict[str, Any]] = None,
) -> int:
    """Write ``events`` as one Chrome-trace JSON document; returns the
    event count.  ``metadata`` entries override the document's
    ``source`` and ``version``."""
    Path(path).write_text(json.dumps(_trace_document(events, metadata)))
    return len(events)


def export_chrome_trace(
    tracer: Tracer, path: str, metadata: Optional[Dict[str, Any]] = None
) -> int:
    """Write the tracer's Chrome-trace JSON; returns the event count."""
    return write_chrome_trace(chrome_trace_events(tracer), path, metadata)


def run_ledger(
    tracer: Tracer,
    run_stats: Optional[Any] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Structured run-ledger JSON document for one traced run."""
    ledger: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "version": repro.__version__,
        "total_s": tracer.total_s(),
        "stages": tracer.stage_totals(),
        "counters": dict(sorted(tracer.counters.items())),
        "span_count": len(tracer.spans),
        "spans": tracer.export_spans(),
    }
    if run_stats is not None:
        ledger["run_stats"] = dataclasses.asdict(run_stats)
    if metadata:
        ledger["metadata"] = metadata
    return ledger


def export_run_ledger(
    tracer: Tracer,
    path: str,
    run_stats: Optional[Any] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Write the run-ledger JSON; returns the document."""
    ledger = run_ledger(tracer, run_stats, metadata)
    Path(path).write_text(json.dumps(ledger, sort_keys=True, indent=2))
    return ledger


def render_ledger(ledger: Dict[str, Any], top: int = 5) -> str:
    """Human-readable summary of a run-ledger document."""
    lines = [
        f"run ledger: {ledger['span_count']} spans, "
        f"{ledger['total_s']:.3f}s total"
    ]
    stages = ledger["stages"]
    if stages:
        lines.append("  stages (summed span time per category):")
        width = max(len(name) for name in stages)
        for name in sorted(stages, key=stages.get, reverse=True):
            lines.append(f"    {name:<{width}}  {stages[name]:9.4f}s")
    counters = ledger["counters"]
    if counters:
        lines.append("  counters:")
        width = max(len(name) for name in counters)
        for name, value in counters.items():
            lines.append(f"    {name:<{width}}  {value:,.0f}")
    run_stats = ledger.get("run_stats")
    if run_stats:
        # Embedded CorpusRunStats: purge sweeps and hit counts used to
        # be visible only on cache open; the ledger now renders them.
        lines.append("  run stats:")
        width = max(len(name) for name in run_stats)
        for name in sorted(run_stats):
            value = run_stats[name]
            if isinstance(value, float):
                rendered = f"{value:,.3f}"
            else:
                rendered = f"{value}"
            lines.append(f"    {name:<{width}}  {rendered}")
    spans = sorted(
        ledger["spans"], key=lambda s: s["duration_s"], reverse=True
    )[:top]
    if spans:
        lines.append(f"  slowest {len(spans)} spans:")
        for span in spans:
            worker = f" [worker {span['worker']}]" if span["worker"] else ""
            lines.append(
                f"    {span['duration_s']:9.4f}s  {span['category']}: "
                f"{span['name']}{worker}"
            )
    return "\n".join(lines)
