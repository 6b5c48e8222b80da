"""Parallel corpus evaluation (host-side performance layer).

:func:`evaluate_parallel` fans a :func:`repro.bench.harness.run_pipeline`
sweep out over a process pool (``fork`` where available, ``spawn``
otherwise -- see :func:`worker_context`).  The corpus is never
pickled: each worker receives only ``(base_seed, size, profile)`` plus
a chunk of app indices and regenerates its apps locally -- apps are
pure functions of ``base_seed + index`` (see :mod:`repro.apk.corpus`),
so a worker's rows are bit-identical to a serial run's no matter how
chunks land on workers.  The full generator profile travels with the
task (not just its scale) so non-default layer bounds regenerate the
same apps the serial path sees -- and, on the ``spawn`` path, so the
freshly-imported worker sees the exact profile at all.

Scheduling is chunked round-robin: index ``i`` goes to chunk
``i % chunks`` so every worker sees a representative size mix (corpus
app sizes vary with the seed, and contiguous runs of large apps would
straggle).  Results are reassembled by index, so ordering is
deterministic regardless of worker completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import random
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import obs
from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile

#: Upper bound on worker count; corpus chunks beyond this only add
#: pool overhead.
MAX_JOBS = 32


def worker_context(
    start_method: Optional[str] = None,
) -> multiprocessing.context.BaseContext:
    """The multiprocessing context worker processes are started from.

    ``fork`` when the platform offers it (cheap: the corpus generator
    and interned IR inherit copy-on-write), else ``spawn`` -- every
    task already travels fully pickled (seed, size, *full* generator
    profile, indices), so a spawned worker regenerates bit-identical
    apps from scratch.  An explicit ``start_method`` argument or the
    ``REPRO_MP_START`` environment variable overrides the choice
    (``spawn`` forces the portable path on fork platforms, e.g. in
    tests); an unknown name falls back to the automatic choice rather
    than aborting a sweep.
    """
    method = start_method or os.environ.get("REPRO_MP_START", "").strip()
    if method:
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            pass
    try:
        return multiprocessing.get_context("fork")
    except ValueError:
        return multiprocessing.get_context("spawn")


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Effective worker count: explicit arg, else ``REPRO_BENCH_JOBS``.

    A malformed environment value falls back to serial rather than
    aborting a sweep.
    """
    if jobs is None:
        try:
            jobs = int(os.environ.get("REPRO_BENCH_JOBS", "1") or "1")
        except ValueError:
            jobs = 1
    return max(1, min(int(jobs), MAX_JOBS))


def plan_chunks(indices: Sequence[int], chunks: int) -> List[List[int]]:
    """Deal indices round-robin into ``chunks`` non-empty lists."""
    chunks = max(1, min(chunks, len(indices)))
    plan: List[List[int]] = [[] for _ in range(chunks)]
    for position, index in enumerate(indices):
        plan[position % chunks].append(index)
    return [chunk for chunk in plan if chunk]


#: What one worker chunk returns: its ``(index, row)`` pairs plus the
#: serialised tracer spans and counters it recorded (empty unless
#: tracing).
ChunkResult = Tuple[
    List[Tuple[int, "EvaluationRow"]],
    List[Mapping[str, Any]],
    Dict[str, float],
]


def _evaluate_chunk(
    task: Tuple[int, int, GeneratorProfile, Sequence[int], bool, bool, Any, Any]
) -> ChunkResult:
    """Worker body: regenerate the corpus and evaluate one index chunk.

    Re-seeds the module-level RNG per app from the corpus namespace so
    any future global-random use inside evaluation stays deterministic
    and independent of chunk placement (today all generator randomness
    is instance-local already).  The caller's global RNG state is saved
    and restored, so the in-process fallback never perturbs the
    parent's ``random`` module the way a forked worker trivially
    wouldn't.  Under ``strict`` each app passes the lint gate and
    rejections come back as ``LintErrorRow`` entries, exactly as in a
    serial run.

    With ``trace`` set, the chunk runs under its own private tracer and
    ships the recorded spans home (a forked worker's tracer appends
    would otherwise die with the fork).
    """
    from repro.bench.harness import ENGINE_GDROID, run_pipeline

    base_seed, size, profile, indices, strict, trace, *rest = task
    targets = rest[0] if rest else None
    rules = rest[1] if len(rest) > 1 else None
    corpus = AppCorpus(size=size, base_seed=base_seed, profile=profile)
    tracer = obs.Tracer() if trace else None
    previous = obs.activate(tracer) if tracer is not None else None
    rng_state = random.getstate()
    rows: List[Tuple[int, "EvaluationRow"]] = []
    try:
        for index in indices:
            random.seed(base_seed * 1_000_003 + index)
            with obs.span(f"app[{index}]", category="app", index=index):
                result = run_pipeline(
                    corpus.app(index), index, ENGINE_GDROID, strict, False,
                    targets, rules,
                )
            rows.append((index, result.row))
    finally:
        random.setstate(rng_state)
        if tracer is not None:
            if previous is not None:
                obs.activate(previous)
            else:
                obs.deactivate()
    if tracer is None:
        return rows, [], {}
    return rows, tracer.export_spans(), dict(tracer.counters)


def evaluate_parallel(
    corpus: AppCorpus,
    indices: Sequence[int],
    jobs: int,
    strict: bool = False,
    targets=None,
    rules=None,
) -> Dict[int, "EvaluationRow"]:
    """Evaluate ``indices`` of ``corpus`` across ``jobs`` workers.

    Returns ``{index: row}``.  Falls back to in-process evaluation when
    a pool cannot be started (restricted environments) or the request
    degenerates to a single worker/chunk.  When a tracer is active the
    workers' spans are merged back onto per-worker lanes.
    """
    jobs = resolve_jobs(jobs)
    chunks = plan_chunks(indices, jobs)
    tracer = obs.active()
    trace = tracer is not None
    offset_s = tracer.now() if tracer is not None else 0.0
    tasks = [
        (
            corpus.base_seed,
            corpus.size,
            corpus.profile,
            tuple(chunk),
            strict,
            trace,
            targets,
            rules,
        )
        for chunk in chunks
    ]
    if jobs <= 1 or len(tasks) <= 1:
        results = list(map(_evaluate_chunk, tasks))
    else:
        try:
            context = worker_context()
            with context.Pool(processes=len(tasks)) as pool:
                results = pool.map(_evaluate_chunk, tasks)
        except (OSError, ValueError):
            results = list(map(_evaluate_chunk, tasks))
    rows: Dict[int, "EvaluationRow"] = {}
    for worker, (chunk_rows, spans, counters) in enumerate(results, start=1):
        if tracer is not None:
            if spans:
                tracer.merge(spans, worker=worker, offset_s=offset_s)
            for name, value in counters.items():
                tracer.count(name, value)
        for index, row in chunk_rows:
            rows[index] = row
    return rows
