"""In-memory spans around the program's public calls (traced runs only).

A traced run installs :func:`install` wrappers on the public functions
each layer exposes; every call records one span -- name, start, end,
parent span, request id (app index) and process id -- into a
:class:`SpanRecorder` held in memory.  Nothing inside ``src/`` changes:
the wrappers replace module and class attributes, which the program
resolves at call time, and :func:`uninstall` puts the originals back.

Worker processes of the serve pool are forked from the benchmark, so
they inherit the wrappers.  A worker keeps its own spans and writes
them to ``<out_dir>/spans-<pid>.json`` when it exits; the benchmark
merges those files once the pool has stopped.

Self time of a span is its duration minus the part its children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from multiprocessing import util as mp_util
from pathlib import Path
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Span name -> layer its self time is charged to.  ``bench`` spans are
#: the glue between layers (the benchmark's per-app span, the pipeline
#: and incremental-vet entry points); their self time is reported as
#: ``bench.unattributed_s``.
LAYER_OF = {
    "bench.app": "bench",
    "bench.run_pipeline": "bench",
    "bench.vet_incremental": "bench",
    "apk.load": "apk",
    "lint.check": "lint",
    "core.build": "core.build",
    "core.fixpoint": "core.fixpoint",
    "gpu.price": "gpu",
    "cpu.multicore": "cpu",
    "cpu.amandroid": "cpu",
    "vetting.vet": "vetting",
    "incremental.analyze": "incremental",
    "store.load": "store.load",
    "store.write": "store.write",
    "serve.poll": "serve.poll",
    "serve.journal": "serve.journal",
}


class Span(NamedTuple):
    sid: int
    parent: int
    name: str
    start: float
    end: float
    request: Optional[int]
    pid: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans and counters of one process, kept in memory."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        #: ``.gdx`` path -> request id, so a load in a worker process
        #: (which only sees the path) is charged to its app.
        self.requests_by_path: Dict[str, int] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _check_process(self) -> None:
        """In a forked worker, start empty and flush at process exit."""
        pid = os.getpid()
        if pid == self.pid:
            return
        self.pid = pid
        self.spans = []
        self.counts = Counter()
        self._local = threading.local()
        mp_util.Finalize(None, self.flush, exitpriority=10)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def flush(self) -> None:
        """Write this (worker) process's spans and counters out."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.json"
        payload = {
            "pid": self.pid,
            "spans": [list(span) for span in self.spans],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(payload))

    def collect_workers(self) -> None:
        """Merge the span files stopped worker processes left behind."""
        for path in sorted(self.out_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            if payload["pid"] == self.pid:
                continue
            self.spans.extend(Span(*fields) for fields in payload["spans"])
            self.counts.update(payload["counts"])
            path.unlink()

    @contextmanager
    def span(self, name: str, request: Optional[int] = None):
        """A span opened by the benchmark itself."""
        self._check_process()
        stack = self._stack()
        parent, inherited = stack[-1] if stack else (0, None)
        request = inherited if request is None else request
        sid = next(self._ids)
        stack.append((sid, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(sid, parent, name, start, end, request, self.pid)
            )

    def wrap(
        self,
        func: Callable,
        name: str,
        on_result: Optional[Callable] = None,
        on_error: Optional[Callable] = None,
        request_of: Optional[Callable] = None,
    ) -> Callable:
        """``func`` recording one span per call.

        ``on_result(counts, args, result)`` / ``on_error(counts, error)``
        update this process's counters; ``request_of(recorder, args,
        kwargs)`` names the request when no enclosing span carries one.
        """
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            recorder._check_process()
            stack = recorder._stack()
            parent, request = stack[-1] if stack else (0, None)
            if request is None and request_of is not None:
                request = request_of(recorder, args, kwargs)
            sid = next(recorder._ids)
            stack.append((sid, request))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except Exception as error:
                if on_error is not None:
                    on_error(recorder.counts, error)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    Span(sid, parent, name, start, end, request, recorder.pid)
                )
            if on_result is not None:
                on_result(recorder.counts, args, result)
            return result

        return wrapper


# -- the layer wrappers --------------------------------------------------------


def _on_load(counts, args, result) -> None:
    counts["apk.bytes"] += os.path.getsize(args[0])


def _on_lint_error(counts, error) -> None:
    from repro.lint import LintError

    if isinstance(error, LintError):
        counts["lint.rejects"] += 1


def _on_block(counts, args, result) -> None:
    visits = result.trace_sync.visit_count
    if result.trace_mer is not None:
        visits += result.trace_mer.visit_count
    counts["core.visits"] += visits


def _on_price(counts, args, result) -> None:
    counts["gpu.launches"] += len(result.kernels)


def _on_vet(counts, args, result) -> None:
    counts["vetting.flows"] += len(result.flows)
    counts["vetting.findings"] += len(result.findings)


def _on_store_load(counts, args, result) -> None:
    counts["store.hits" if result is not None else "store.misses"] += 1


def _on_store_write(counts, args, result) -> None:
    counts["store.writes"] += 1


def _on_poll(counts, args, result) -> None:
    counts["serve.poll_calls"] += 1
    counts["serve.poll_useful"] += 1 if result else 0
    # ``seen`` holds every result file published so far: the files
    # this poll had to list.
    counts["serve.poll_entries"] += len(args[1])


def _on_journal(counts, args, result) -> None:
    counts["serve.journal_records"] += 1


def _index_request(recorder, args, kwargs):
    return args[1] if len(args) > 1 else kwargs.get("index")


def _path_request(recorder, args, kwargs):
    return recorder.requests_by_path.get(str(args[0])) if args else None


def _targets():
    """``(owner, attribute, span name, hooks)`` for every wrapped call."""
    import repro.lint as lint
    from repro.apk import loader
    from repro.core.blockexec import BlockRunner
    from repro.core.engine import AppWorkload, GDroid
    from repro.cpu.amandroid import AmandroidModel
    from repro.cpu.multicore import MulticoreWorklist
    from repro.dataflow import incremental
    from repro.serve import journal, workers
    from repro.vetting import report

    return [
        (loader, "load_gdx", "apk.load",
         {"on_result": _on_load, "request_of": _path_request}),
        (lint, "check_app", "lint.check", {"on_error": _on_lint_error}),
        (AppWorkload, "build", "core.build", {}),
        (BlockRunner, "run", "core.fixpoint", {"on_result": _on_block}),
        (GDroid, "price", "gpu.price", {"on_result": _on_price}),
        (MulticoreWorklist, "analyze", "cpu.multicore", {}),
        (AmandroidModel, "analyze", "cpu.amandroid", {}),
        (report, "vet_workload", "vetting.vet", {"on_result": _on_vet}),
        (incremental, "analyze_app_incremental", "incremental.analyze", {}),
        (incremental, "vet_incremental", "bench.vet_incremental", {}),
        (incremental.MethodSummaryStore, "load", "store.load",
         {"on_result": _on_store_load}),
        (incremental.MethodSummaryStore, "store", "store.write",
         {"on_result": _on_store_write}),
        (workers, "run_pipeline", "bench.run_pipeline",
         {"request_of": _index_request}),
        (journal.PartitionResultStore, "poll", "serve.poll",
         {"on_result": _on_poll}),
        (journal.JobJournal, "record", "serve.journal",
         {"on_result": _on_journal}),
    ]


def install(recorder: SpanRecorder) -> List[Tuple[object, str, object]]:
    """Wrap every layer entry point; returns what :func:`uninstall` restores."""
    saved = []
    for owner, attribute, name, hooks in _targets():
        original = owner.__dict__[attribute]
        func = original.__func__ if isinstance(original, classmethod) else original
        wrapped = recorder.wrap(func, name, **hooks)
        if isinstance(original, classmethod):
            wrapped = classmethod(wrapped)
        setattr(owner, attribute, wrapped)
        saved.append((owner, attribute, original))
    return saved


def uninstall(saved: Iterable[Tuple[object, str, object]]) -> None:
    for owner, attribute, original in saved:
        setattr(owner, attribute, original)


# -- self times ----------------------------------------------------------------


def covered(intervals: List[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, sid)``."""
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent:
            children[(span.pid, span.parent)].append((span.start, span.end))
    return {
        (span.pid, span.sid): span.duration
        - covered(children.get((span.pid, span.sid), []), span.start, span.end)
        for span in spans
    }


def layer_totals(spans: List[Span], selfs: Dict[Tuple[int, int], float]) -> Counter:
    """Self time summed per layer."""
    totals: Counter = Counter()
    for span in spans:
        totals[LAYER_OF[span.name]] += selfs[(span.pid, span.sid)]
    return totals


def request_totals(
    spans: List[Span], selfs: Dict[Tuple[int, int], float]
) -> Dict[int, Counter]:
    """Self time per layer, per request (spans without a request skipped)."""
    totals: Dict[int, Counter] = defaultdict(Counter)
    for span in spans:
        if span.request is not None:
            totals[span.request][LAYER_OF[span.name]] += selfs[(span.pid, span.sid)]
    return totals


def write_trace(path: Path, spans: List[Span], selfs) -> None:
    """All spans as JSON lines (name, layer, times, parent, request, pid, self)."""
    with open(path, "w") as handle:
        for span in sorted(spans, key=lambda s: (s.start, s.pid, s.sid)):
            handle.write(
                json.dumps(
                    {
                        "name": span.name,
                        "layer": LAYER_OF[span.name],
                        "start": span.start,
                        "end": span.end,
                        "self": selfs[(span.pid, span.sid)],
                        "sid": span.sid,
                        "parent": span.parent,
                        "request": span.request,
                        "pid": span.pid,
                    }
                )
                + "\n"
            )
