"""The asyncio batch-vetting service orchestrator.

``VettingService`` fronts the existing analysis pipeline (loader ->
lint gate -> GDroid kernel -> vetting report) with the robustness
layer a long-running vetting deployment needs:

* a bounded intake queue with admission control and backpressure
  (:mod:`repro.serve.queue`);
* a sharding dispatcher that batches small apps per Table-I size class
  and LPT-places batches onto N simulated device workers
  (:mod:`repro.serve.sharder`, reusing the multi-GPU placement);
* per-job retry with exponential backoff + deterministic jitter, and
  an optional per-job timeout;
* pluggable fault injection (:mod:`repro.serve.faults`) driving the
  crash / OOM / corrupt-APK / stall paths in tests and soak runs;
* graceful degradation: an OOM marks a device unhealthy and its worker
  falls down the engine ladder (GDroid -> plain GPU -> multicore CPU)
  instead of going dark (:mod:`repro.serve.workers`).

Everything is observable: the run is wrapped in :mod:`repro.obs` spans
and counters, so ``gdroid serve --soak --profile P`` exports one
timeline covering admissions, dispatches, retries and fallbacks.

Accounting invariant: every submitted job reaches exactly one terminal
state.  :class:`SoakReport` exposes ``lost`` and ``duplicates`` so a
soak can assert both are zero.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    AsyncIterator,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
)

from repro import obs
from repro.apk.corpus import AppCorpus
from repro.bench.harness import PipelineResult, check_options
from repro.serve.faults import (
    CORRUPT_APK,
    DEVICE_OOM,
    FaultInjector,
    NULL_INJECTOR,
    TIMEOUT,
    WORKER_CRASH,
    build_injector,
)
from repro.serve.jobs import JobState, VetJob
from repro.serve.journal import (
    EV_COMPLETE,
    JobJournal,
    PartitionResultStore,
    job_from_spec,
    job_spec,
    make_result_record,
    replay_journal,
    row_from_payload,
)
from repro.serve.pool import PoolSpec, ProcessWorkerPool
from repro.serve.queue import AdmissionQueue
from repro.serve.sharder import JobBatch, Sharder, classify, make_batches
from repro.serve.workers import DeviceWorker


class ServiceCrash(RuntimeError):
    """Simulated orchestrator death (``ServeConfig.crash_after``).

    Raised by :meth:`VettingService.serve` after the configured number
    of terminal jobs: the worker pool is torn down, in-memory state is
    abandoned, and only the journal survives -- the closest thing to
    ``kill -9`` a test (or the CI crash soak) can stage without losing
    the process it is asserting from.
    """


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one service instance."""

    workers: int = 4
    #: Admission window: pending jobs the intake queue will hold.
    queue_capacity: int = 32
    #: Total processing attempts per job (first run included).
    max_attempts: int = 4
    #: Exponential backoff: base * 2^(attempt-1), capped, jittered.
    backoff_base_s: float = 0.005
    backoff_cap_s: float = 0.25
    #: Jitter span as a fraction of the delay (0.5 => 50%..100%).
    backoff_jitter: float = 0.5
    #: Seed for the deterministic backoff jitter.
    retry_seed: int = 7
    #: Small-app batch width (Table-I size classes).
    small_batch_max: int = 4
    #: Per-job wall-clock timeout (None = no timeout).
    timeout_s: Optional[float] = None
    #: Crash-restart delay for a dead worker.
    restart_delay_s: float = 0.002
    #: Lint-gate every app (rejections become LintErrorRow results).
    strict: bool = False
    #: Run the taint/vetting plugin and record verdicts.
    vet: bool = True
    #: Worker execution: ``"async"`` (in-process simulated devices) or
    #: ``"process"`` (real OS worker processes via
    #: :class:`repro.serve.pool.ProcessWorkerPool`).
    pool: str = "async"
    #: Multiprocessing start method for ``pool="process"`` (None = the
    #: platform default via :func:`repro.bench.parallel.worker_context`).
    start_method: Optional[str] = None
    #: Append-only job journal path (None = no durable transitions).
    journal_path: Optional[str] = None
    #: fsync the journal after every record (power-loss durability;
    #: default is process-crash durability only).
    journal_fsync: bool = False
    #: Partitioned result-store root (required for ``pool="process"``;
    #: in async mode it additionally persists completed rows so a
    #: recovery run can reload them).
    state_dir: Optional[str] = None
    #: Simulated orchestrator death: raise :class:`ServiceCrash` once
    #: this many jobs reached a terminal state (None = run to the end).
    crash_after: Optional[int] = None


class CorpusSource:
    """App source backed by a deterministic generated corpus."""

    def __init__(self, corpus: AppCorpus) -> None:
        self.corpus = corpus
        # The sharder needs sizes before evaluation and the worker the
        # app itself; memoise so each corpus app generates once.
        self._app = functools.lru_cache(maxsize=512)(corpus.app)

    def jobs(
        self,
        count: Optional[int] = None,
        targets=None,
        targeted_every: int = 1,
        rules: Optional[str] = None,
        resolve_icc: bool = True,
        baseline: Optional[str] = None,
    ) -> List[VetJob]:
        """Job records for the first ``count`` corpus apps.

        With ``targets`` (a :class:`repro.vetting.targeted.TargetSpec`)
        every ``targeted_every``-th job is demand-driven: its placement
        cost and Table-I size class come from the backward slice, since
        the slice is all the device will analyze -- a targeted job on a
        large app can land in the small band (or cost ~nothing, when
        the pre-scan finds no targeted sink at all).

        With ``rules`` (a pack name/path) every job vets under that
        rule pack; workers resolve and cache the pack by name.

        With ``baseline`` every job re-vets incrementally against a
        baseline ref: ``"corpus"`` marks the job as a resubmission of
        its own container (the summary store is seeded from it), any
        other value is a prior-version ``.gdx`` path.

        ``targets`` with a ``baseline`` is rejected
        (:func:`repro.bench.harness.check_options`) before any job
        exists to admit.
        """
        check_options(targets, baseline)
        count = self.corpus.size if count is None else count
        jobs = []
        for index in range(count):
            app = self._app(index)
            nodes = app.describe()["cfg_nodes"]
            job_targets = None
            if targets is not None and index % max(1, targeted_every) == 0:
                from repro.vetting.targeted import slice_estimate

                _, nodes = slice_estimate(app, targets)
                job_targets = list(targets.sinks)
            jobs.append(
                VetJob(
                    job_id=f"job-{index:04d}",
                    index=index,
                    package=app.package,
                    source="corpus",
                    est_cost=float(nodes),
                    size_class=classify(nodes),
                    targets=job_targets,
                    rules=rules,
                    resolve_icc=resolve_icc,
                    baseline=baseline,
                )
            )
        return jobs

    def app_for(self, job: VetJob):
        if job.source != "corpus":
            # Journal recovery replays watch/path-fed runs through a
            # corpus-backed service: those jobs carry their .gdx path
            # in ``source`` and must be loaded from it, never
            # regenerated by index (the process-pool workers make the
            # same branch in ``pool._attempt``).
            from repro.apk.loader import load_gdx

            return load_gdx(job.source)
        return self._app(job.index)


class PathSource:
    """App source backed by submitted ``.gdx`` files."""

    def __init__(self, paths: Sequence[str]) -> None:
        self.paths = [str(path) for path in paths]

    def jobs(self, baseline: Optional[str] = None) -> List[VetJob]:
        jobs = []
        for index, path in enumerate(self.paths):
            try:
                size = float(Path(path).stat().st_size)
            except OSError:
                size = 0.0
            jobs.append(
                VetJob(
                    job_id=f"job-{index:04d}",
                    index=index,
                    package=Path(path).stem,
                    source=path,
                    # File bytes proxy CFG nodes well enough for LPT.
                    est_cost=size,
                    size_class=classify(size / 12.0),
                    baseline=baseline,
                )
            )
        return jobs

    def app_for(self, job: VetJob):
        from repro.apk.loader import load_gdx

        return load_gdx(self.paths[job.index])


class _PathFeedBase:
    """Shared plumbing of the streaming admission feeds.

    A feed doubles as the service's app *source*: streamed jobs carry
    their ``.gdx`` path in ``source``, and :meth:`app_for` loads from
    it directly (no index table -- the job set is open-ended).

    Every streamed job carries the feed's ``rules`` pack name,
    ``resolve_icc`` mode and ``baseline`` ref, as corpus and ``submit``
    jobs do.  Path-fed jobs take no targets.
    """

    def __init__(
        self,
        rules: Optional[str] = None,
        resolve_icc: bool = True,
        baseline: Optional[str] = None,
    ) -> None:
        self._next_index = 0
        self._options = {
            "rules": rules,
            "resolve_icc": resolve_icc,
            "baseline": baseline,
        }

    def app_for(self, job: VetJob):
        from repro.apk.loader import load_gdx

        return load_gdx(job.source)

    def _job_for(self, path: Path) -> VetJob:
        index = self._next_index
        self._next_index += 1
        try:
            size = float(path.stat().st_size)
        except OSError:
            size = 0.0
        return VetJob(
            job_id=f"feed-{index:04d}",
            index=index,
            package=path.stem,
            source=str(path),
            est_cost=size,
            size_class=classify(size / 12.0),
            **self._options,
        )


class DirectoryFeed(_PathFeedBase):
    """Streaming admission from a watched directory (``--watch DIR``).

    Polls ``root`` for ``.gdx`` files and yields each exactly once, in
    sorted order per poll.  The feed ends when a ``STOP`` sentinel file
    appears (after admitting anything that arrived alongside it) or
    when no new file has arrived for ``idle_s`` seconds -- so a test or
    batch producer can simply stop writing and the service drains and
    exits.
    """

    #: Sentinel file name that cleanly ends the watch.
    STOP = "STOP"

    def __init__(
        self, root, poll_s: float = 0.05, idle_s: float = 5.0, **options
    ) -> None:
        super().__init__(**options)
        self.root = Path(root)
        self.poll_s = poll_s
        self.idle_s = idle_s
        self._seen: set = set()

    async def jobs(self) -> AsyncIterator[VetJob]:
        last_arrival = time.monotonic()
        while True:
            stop = (self.root / self.STOP).exists()
            fresh = sorted(
                path
                for path in self.root.glob("*.gdx")
                if str(path) not in self._seen
            )
            for path in fresh:
                self._seen.add(str(path))
                last_arrival = time.monotonic()
                yield self._job_for(path)
            if stop:
                return
            if time.monotonic() - last_arrival >= self.idle_s:
                return
            await asyncio.sleep(self.poll_s)


class StdinFeed(_PathFeedBase):
    """Streaming admission from newline-separated paths (``--watch -``).

    Reads one ``.gdx`` path per line until EOF.  The blocking readline
    runs on a dedicated *daemon* thread (never the loop's executor):
    if the service finishes before stdin reaches EOF -- ``crash_after``,
    early completion -- the thread stays parked on the read, and a
    daemon thread, unlike an executor thread, is not joined at
    interpreter shutdown, so exit cannot hang on an open pipe.
    """

    def __init__(self, stream=None, **options) -> None:
        super().__init__(**options)
        self.stream = stream if stream is not None else sys.stdin

    async def jobs(self) -> AsyncIterator[VetJob]:
        loop = asyncio.get_running_loop()
        lines: asyncio.Queue = asyncio.Queue()

        def pump() -> None:
            try:
                for line in iter(self.stream.readline, ""):
                    loop.call_soon_threadsafe(lines.put_nowait, line)
                loop.call_soon_threadsafe(lines.put_nowait, None)
            except RuntimeError:
                # The loop closed while we were blocked on a read:
                # nobody is left to deliver to.
                pass

        threading.Thread(
            target=pump, name="gdroid-stdin-feed", daemon=True
        ).start()
        while True:
            line = await lines.get()
            if line is None:
                return
            path = line.strip()
            if path:
                yield self._job_for(Path(path))


@dataclass
class SoakReport:
    """Everything one service run produced."""

    jobs: List[VetJob]
    counters: Dict[str, float]
    wall_s: float
    workers: int

    @property
    def submitted(self) -> int:
        return len(self.jobs)

    @property
    def completed(self) -> int:
        return sum(1 for job in self.jobs if job.state == JobState.DONE)

    @property
    def failed(self) -> int:
        return sum(1 for job in self.jobs if job.state == JobState.FAILED)

    @property
    def lost(self) -> int:
        """Jobs that never reached a terminal state (must be zero)."""
        return sum(1 for job in self.jobs if not job.terminal)

    @property
    def duplicates(self) -> int:
        """Terminal transitions beyond the first (must be zero)."""
        return int(self.counters.get("serve.duplicate_finishes", 0))

    @property
    def ok(self) -> bool:
        return self.lost == 0 and self.duplicates == 0

    def rows(self) -> Dict[int, Any]:
        """Harness rows by job index (jobs that produced one)."""
        return {
            job.index: job.row for job in self.jobs if job.row is not None
        }

    def summary(self) -> str:
        """Human-readable soak digest for the CLI."""
        retries = int(self.counters.get("serve.retries", 0))
        crashes = int(self.counters.get("serve.worker_crashes", 0))
        ooms = int(self.counters.get("serve.oom_events", 0))
        corrupt = int(self.counters.get("serve.corrupt_apks", 0))
        timeouts = int(self.counters.get("serve.timeouts", 0))
        degraded = sum(
            int(value)
            for name, value in self.counters.items()
            if name.startswith("serve.fallback.")
        )
        latencies = [
            job.modeled_latency_s
            for job in self.jobs
            if job.modeled_latency_s is not None
        ]
        modeled = sum(latencies)
        lines = [
            f"serve run: {self.submitted} jobs on {self.workers} workers "
            f"in {self.wall_s:.2f}s wall",
            f"  terminal: {self.completed} done, {self.failed} failed, "
            f"{self.lost} lost, {self.duplicates} duplicated",
            f"  faults: {crashes} worker crashes, {ooms} OOMs, "
            f"{corrupt} corrupt APKs, {timeouts} timeouts -> "
            f"{retries} retries",
            f"  degraded serves: {degraded} "
            f"(modeled device time {modeled * 1e3:.2f} ms"
            + (
                f", mean {modeled / len(latencies) * 1e3:.2f} ms/app)"
                if latencies
                else ")"
            ),
        ]
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        return {
            "jobs": [job.to_json() for job in self.jobs],
            "counters": dict(sorted(self.counters.items())),
            "wall_s": self.wall_s,
            "workers": self.workers,
            "ok": self.ok,
        }


def backoff_fraction(seed: int, job_id: str, attempt: int) -> float:
    """Deterministic jitter fraction in ``[0, 1)``: a pure hash.

    Derived from ``sha256(f"{seed}:{job_id}:{attempt}")``, never from a
    shared RNG, so the value is a function of the *job*, not of the
    order completions happened to interleave in -- identical across
    shuffled retry orders, event-loop scheduling and OS processes.
    (``hash()`` would not do: builtin string hashing is salted per
    interpreter, so worker processes would disagree.)
    """
    digest = hashlib.sha256(
        f"{seed}:{job_id}:{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class _LaneProxy:
    """Worker-shaped view of a pool lane for the outcome hooks.

    The hooks (:meth:`VettingService.on_job_success` & co.) only read
    ``worker_id`` / ``engine`` / ``healthy`` from their worker
    argument, so pooled results -- where the real worker lives in
    another process -- present this stand-in built from the published
    result record.
    """

    worker_id: int
    engine: Optional[str] = None
    healthy: bool = True


class VettingService:
    """Asyncio orchestrator tying queue, sharder, workers and faults."""

    def __init__(
        self,
        source,
        config: Optional[ServeConfig] = None,
        injector: Optional[FaultInjector] = None,
    ) -> None:
        self.source = source
        self.config = config or ServeConfig()
        self.injector = injector or NULL_INJECTOR
        self.counters: Dict[str, float] = {}
        self.sharder = Sharder(self.config.workers)
        self._workers: List[DeviceWorker] = []
        self._intake: Optional[AdmissionQueue] = None
        self._terminal = 0
        self._total = 0
        self._all_done: Optional[asyncio.Event] = None
        self._retry_tasks: List[asyncio.Task] = []
        # Durable-state / process-pool plumbing (None in plain async
        # runs without a journal or state dir).
        self._journal: Optional[JobJournal] = None
        self._store: Optional[PartitionResultStore] = None
        self._pool: Optional[ProcessWorkerPool] = None
        self._jobs: List[VetJob] = []
        self._jobs_by_id: Dict[str, VetJob] = {}
        #: Per-lane in-flight jobs (pooled mode crash rehoming).
        self._owned: List[Dict[str, VetJob]] = []
        self._lane_loads: List[float] = []
        #: Lane liveness (pooled mode): False between reap and restart,
        #: when the lane's queue belongs to a corpse and anything
        #: submitted to it would be silently dropped by the restart.
        self._lane_alive: List[bool] = []
        #: Batches parked because every lane was dead at placement time.
        self._deferred: List[JobBatch] = []
        self._feed_open = False
        self._crashed = False

    # -- counters --------------------------------------------------------------

    def _count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value
        obs.count(name, value)

    # -- lifecycle -------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[VetJob] = (),
        feed=None,
        recovered: Sequence[VetJob] = (),
    ) -> SoakReport:
        """Synchronous front door: drive :meth:`serve` to completion."""
        return asyncio.run(self.serve(jobs, feed=feed, recovered=recovered))

    def _open_durable_state(self) -> None:
        config = self.config
        if config.journal_path:
            self._journal = JobJournal(
                config.journal_path, fsync=config.journal_fsync
            )
        if config.state_dir and config.pool != "process":
            # Async-mode durability: the orchestrator itself persists
            # completed rows (pooled workers write their own store).
            self._store = PartitionResultStore(config.state_dir)
            if self._store.tmp_purged:
                self._count("serve.store.tmp_purged", self._store.tmp_purged)

    def _build_pool(self) -> ProcessWorkerPool:
        config = self.config
        state_dir = config.state_dir or tempfile.mkdtemp(
            prefix="gdroid-serve-"
        )
        corpus = getattr(self.source, "corpus", None)
        spec = PoolSpec(
            state_dir=str(state_dir),
            corpus=(
                (corpus.base_seed, corpus.size, corpus.profile)
                if corpus is not None
                else None
            ),
            strict=config.strict,
            vet=config.vet,
            fault_config=self.injector.config,
            fault_jobs=self.injector.jobs,
            fault_workers=config.workers,
        )
        return ProcessWorkerPool(spec, config.workers, config.start_method)

    async def serve(
        self,
        jobs: Sequence[VetJob] = (),
        feed=None,
        recovered: Sequence[VetJob] = (),
    ) -> SoakReport:
        """Admit, shard, process and retry ``jobs`` until all terminal.

        ``feed`` streams additional jobs in while the service runs (an
        object with an async-generator ``jobs()`` method, e.g.
        :class:`DirectoryFeed`); the run completes when the feed is
        exhausted *and* every admitted job is terminal.  ``recovered``
        jobs are already-terminal records stitched back in from a
        journal replay -- reported, never re-served.
        """
        config = self.config
        self._jobs = list(jobs)
        self._total = len(self._jobs)
        self._terminal = 0
        self._crashed = False
        self._feed_open = feed is not None
        self._all_done = asyncio.Event()
        self._intake = AdmissionQueue(config.queue_capacity)
        self._jobs_by_id = {job.job_id: job for job in self._jobs}
        self._open_durable_state()
        pooled = config.pool == "process"
        self._maybe_all_done()
        started = time.perf_counter()
        with obs.span(
            "serve.run",
            category="serve",
            jobs=len(self._jobs),
            workers=config.workers,
            pool=config.pool,
        ):
            if pooled:
                self._owned = [{} for _ in range(config.workers)]
                self._lane_loads = [0.0] * config.workers
                self._lane_alive = [True] * config.workers
                self._deferred = []
                self._pool = self._build_pool()
                if self._pool.store.tmp_purged:
                    self._count(
                        "serve.store.tmp_purged", self._pool.store.tmp_purged
                    )
                self._pool.start()
                worker_tasks = [asyncio.ensure_future(self._pump_loop())]
            else:
                self._workers = [
                    DeviceWorker(worker_id, self)
                    for worker_id in range(config.workers)
                ]
                worker_tasks = [
                    asyncio.ensure_future(worker.run())
                    for worker in self._workers
                ]
            dispatcher = asyncio.ensure_future(self._dispatch_loop())
            feed_task = (
                asyncio.ensure_future(self._feed_loop(feed))
                if feed is not None
                else None
            )
            try:
                for job in self._jobs:
                    # Backpressure: the submitter waits for window space.
                    await self._admit(job)
                await self._all_done.wait()
            finally:
                dispatcher.cancel()
                if feed_task is not None:
                    feed_task.cancel()
                for task in self._retry_tasks:
                    task.cancel()
                if pooled:
                    for task in worker_tasks:
                        task.cancel()
                    await asyncio.gather(*worker_tasks, return_exceptions=True)
                    assert self._pool is not None
                    self._pool.stop(kill=self._crashed)
                else:
                    for worker in self._workers:
                        worker.queue.put_nowait(None)
                    await asyncio.gather(*worker_tasks, return_exceptions=True)
                if self._journal is not None:
                    self._journal.close()
                    self._journal = None
        self._count("serve.queue_high_water", self._intake.high_water)
        if self._intake.rejected:
            self._count("serve.rejected", self._intake.rejected)
        if self._crashed:
            raise ServiceCrash(
                f"simulated orchestrator crash after {self._terminal} "
                f"terminal jobs (journal: {config.journal_path})"
            )
        return SoakReport(
            jobs=list(recovered) + self._jobs,
            counters=dict(self.counters),
            wall_s=time.perf_counter() - started,
            workers=config.workers,
        )

    async def _admit(self, job: VetJob) -> None:
        job.state = JobState.ADMITTED
        self._jobs_by_id[job.job_id] = job
        if self._journal is not None:
            self._journal.admit(job)
        await self._intake.submit(job)
        self._count("serve.submitted")

    async def _feed_loop(self, feed) -> None:
        """Admit jobs from a streaming feed until it reports exhaustion."""
        try:
            async for job in feed.jobs():
                self._total += 1
                self._jobs.append(job)
                self._count("serve.feed.admitted")
                await self._admit(job)
        finally:
            self._feed_open = False
            self._maybe_all_done()

    # -- dispatch --------------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Drain intake in waves, batch, and LPT-place onto workers."""
        assert self._intake is not None
        while True:
            wave = [await self._intake.get()]
            while True:
                try:
                    wave.append(self._intake.get_nowait())
                except asyncio.QueueEmpty:
                    break
            batches = make_batches(wave, self.config.small_batch_max)
            self._count("serve.batches", len(batches))
            self._place(batches)

    def _place(self, batches: Sequence[JobBatch]) -> None:
        if self._pool is not None:
            self._place_pooled(batches)
            return
        loads = [worker.load for worker in self._workers]
        placement = self.sharder.assign(batches, loads)
        for worker, worker_batches in zip(self._workers, placement):
            for batch in worker_batches:
                for job in batch.jobs:
                    job.state = JobState.ASSIGNED
                    worker.load += job.est_cost
                    if self._journal is not None:
                        self._journal.assign(job, worker.worker_id)
                worker.queue.put_nowait(batch)
                self._count("serve.dispatched", len(batch.jobs))

    def _place_pooled(self, batches: Sequence[JobBatch]) -> None:
        """LPT-place batches onto worker-process lanes.

        Unlike the async path (where :class:`DeviceWorker` stamps the
        attempt as it starts processing), the orchestrator accounts the
        attempt at dispatch: the worker process cannot mutate this
        process's job records, and the attempt number is what ties a
        published result record back to the dispatch that caused it.

        A reaped-but-not-yet-restarted lane must never be a target: its
        queue belongs to a corpse and :meth:`ProcessWorkerPool.restart`
        swaps in a fresh one, so anything submitted in the window would
        be dropped and the job stuck ASSIGNED forever.  Dead lanes are
        presented to LPT with infinite load (never the minimum while a
        live lane exists); if *every* lane is dead the batches are
        parked on ``_deferred`` and re-placed after the next restart.
        """
        assert self._pool is not None
        loads = [
            load if self._lane_alive[worker_id] else float("inf")
            for worker_id, load in enumerate(self._lane_loads)
        ]
        placement = self.sharder.assign(batches, loads)
        for worker_id, worker_batches in enumerate(placement):
            if worker_batches and not self._lane_alive[worker_id]:
                self._deferred.extend(worker_batches)
                self._count(
                    "serve.deferred",
                    sum(len(batch) for batch in worker_batches),
                )
                continue
            for batch in worker_batches:
                descriptors = []
                for job in batch.jobs:
                    job.state = JobState.ASSIGNED
                    job.attempts += 1
                    job.workers.append(worker_id)
                    self._lane_loads[worker_id] += job.est_cost
                    self._owned[worker_id][job.job_id] = job
                    if self._journal is not None:
                        self._journal.assign(job, worker_id)
                    descriptors.append(
                        {**job_spec(job), "attempt": job.attempts}
                    )
                self._pool.submit(worker_id, descriptors)
                self._count("serve.dispatched", len(batch.jobs))

    async def _pump_loop(self) -> None:
        """Pooled mode: poll result partitions, reap and restart lanes.

        The blocking filesystem poll runs on the loop's executor so the
        orchestrator stays responsive; lane death is detected by exit
        code and every job the lane still owned is retried, exactly
        like the async path's :meth:`on_worker_crash`.
        """
        assert self._pool is not None
        loop = asyncio.get_running_loop()
        while True:
            records = await loop.run_in_executor(None, self._pool.poll, 0.02)
            for record in records:
                self._handle_pool_result(record)
            for worker_id in self._pool.reap():
                self._count("serve.worker_crashes")
                # Dead until restarted: the await below yields to the
                # dispatcher and expiring retry tasks, and their
                # placements must not target this lane's corpse queue
                # (restart() discards it, losing the jobs forever).
                self._lane_alive[worker_id] = False
                orphans = list(self._owned[worker_id].values())
                self._owned[worker_id].clear()
                self._lane_loads[worker_id] = 0.0
                for job in orphans:
                    if job.state not in (JobState.ASSIGNED, JobState.RUNNING):
                        continue
                    self._retry_or_fail(
                        job,
                        WORKER_CRASH,
                        f"worker process {worker_id} died",
                    )
                await asyncio.sleep(self.config.restart_delay_s)
                self._pool.restart(worker_id)
                self._lane_alive[worker_id] = True
                self._count("serve.pool.restarts")
            if self._deferred and any(self._lane_alive):
                deferred, self._deferred = self._deferred, []
                self._place_pooled(deferred)

    def _handle_pool_result(self, record: Dict[str, Any]) -> None:
        """Route one published result record through the outcome hooks.

        A record is *stale* when its job is already terminal or its
        attempt stamp is not the job's current attempt -- e.g. a lane
        published the result, died before the orchestrator polled it,
        and the job was already re-dispatched.  Stale records are
        counted and dropped; acting on them would double-finish.
        """
        job = self._jobs_by_id.get(record.get("job_id", ""))
        if (
            job is None
            or job.terminal
            or record.get("attempt") != job.attempts
        ):
            self._count("serve.stale_results")
            return
        worker_id = int(record.get("worker", 0))
        if 0 <= worker_id < len(self._owned):
            self._owned[worker_id].pop(job.job_id, None)
            self._lane_loads[worker_id] = max(
                0.0, self._lane_loads[worker_id] - job.est_cost
            )
        lane = _LaneProxy(
            worker_id=worker_id,
            engine=record.get("engine"),
            healthy=bool(record.get("healthy", True)),
        )
        kind = record.get("kind")
        if kind == "ok":
            self.on_job_success(
                job,
                lane,
                PipelineResult(
                    row=row_from_payload(record.get("row")),
                    verdict=record.get("verdict"),
                    risk_score=record.get("risk_score"),
                    latency_s=record.get("latency_s"),
                    findings=record.get("findings"),
                    incremental=record.get("incremental"),
                ),
            )
        elif kind == "corrupt":
            self.on_corrupt_apk(job, lane, record.get("error") or "")
        elif record.get("fault") == "oom":
            self.on_device_oom(
                job, lane, record.get("engine") or "", record.get("error") or ""
            )
        else:
            self._count("serve.worker_faults")
            self._retry_or_fail(
                job,
                record.get("fault") or "error",
                record.get("error") or "worker fault",
            )

    def _redispatch(self, job: VetJob) -> None:
        """Re-place one retried job (already admitted: bypass intake)."""
        self._place([JobBatch(jobs=[job])])

    # -- outcome hooks (called by workers) -------------------------------------

    def _maybe_all_done(self) -> None:
        """Signal completion: every admitted job terminal, feed drained."""
        if self._all_done is None or self._feed_open:
            return
        if self._terminal >= self._total:
            self._all_done.set()

    def _finish(self, job: VetJob, state: str) -> None:
        if job.terminal:
            # A terminal job finishing again would be a duplicated
            # result; count it loudly instead of silently overwriting.
            self._count("serve.duplicate_finishes")
            return
        job.state = state
        self._terminal += 1
        self._count(
            "serve.completed" if state == JobState.DONE else "serve.failed"
        )
        if self._journal is not None:
            if state == JobState.DONE:
                self._journal.complete(job)
            else:
                self._journal.fail(job)
        if self._store is not None and state == JobState.DONE:
            # Async-mode durability: persist the finished row so a
            # recovery run reloads it instead of re-evaluating the app.
            self._store.write(
                0,
                job.job_id,
                job.attempts,
                make_result_record(
                    job.job_id,
                    job.attempts,
                    0,
                    "ok",
                    engine=job.engine,
                    row=job.row,
                    verdict=job.verdict,
                    risk_score=job.risk_score,
                    findings=job.findings,
                    latency_s=job.modeled_latency_s,
                ),
            )
        if (
            self.config.crash_after is not None
            and self._terminal >= self.config.crash_after
            and not self._crashed
        ):
            # Simulated orchestrator death: stop making progress NOW;
            # serve() tears the run down and raises ServiceCrash.
            self._crashed = True
            if self._all_done is not None:
                self._all_done.set()
            return
        self._maybe_all_done()

    def on_job_success(
        self, job: VetJob, worker: DeviceWorker, result: PipelineResult
    ) -> None:
        job.row = result.row
        job.verdict = result.verdict
        job.risk_score = result.risk_score
        job.findings = result.findings
        job.modeled_latency_s = result.latency_s
        job.engine = worker.engine
        if result.findings:
            self._count("serve.findings", result.findings)
        incremental = getattr(result, "incremental", None)
        if incremental:
            self._count("serve.incremental.jobs")
            self._count("serve.incremental.hits", incremental.get("hits", 0))
            self._count(
                "serve.incremental.misses", incremental.get("misses", 0)
            )
            self._count(
                "serve.incremental.reused_methods",
                incremental.get("methods_reused", 0),
            )
            self._count(
                "serve.incremental.baseline_replays",
                int(incremental.get("baseline_replayed", False)),
            )
        if not worker.healthy:
            self._count(f"serve.fallback.{worker.engine}")
        self._finish(job, JobState.DONE)

    def on_corrupt_apk(
        self, job: VetJob, worker: DeviceWorker, error: str
    ) -> None:
        """Corrupt container: deterministic, so fail without retrying."""
        job.faults.append(CORRUPT_APK)
        job.error = f"corrupt apk: {error}"
        job.engine = worker.engine
        self._count("serve.corrupt_apks")
        self._finish(job, JobState.FAILED)

    def on_device_oom(
        self, job: VetJob, worker: DeviceWorker, engine: str, error: str
    ) -> None:
        """Device heap blew: degrade the worker, retry the job."""
        self._count("serve.oom_events")
        self._count("serve.degraded")
        self._retry_or_fail(job, DEVICE_OOM, f"device OOM: {error}")

    def on_job_fault(
        self, job: VetJob, worker: DeviceWorker, kind: str, error: str
    ) -> None:
        if kind == TIMEOUT:
            self._count("serve.timeouts")
        self._retry_or_fail(job, kind, error)

    def on_worker_crash(
        self, worker: DeviceWorker, unfinished: Sequence[VetJob]
    ) -> None:
        """A worker died mid-batch: retry every job the batch still owns.

        Jobs in ``retry-wait`` are *not* owned by the batch any more --
        a pending retry task holds them, and retrying here too would
        double-dispatch (duplicated results, early completion).
        """
        self._count("serve.worker_crashes")
        for job in unfinished:
            if job.state not in (JobState.ASSIGNED, JobState.RUNNING):
                continue
            self._retry_or_fail(
                job, WORKER_CRASH, f"worker {worker.worker_id} crashed"
            )

    # -- retry policy ----------------------------------------------------------

    def _retry_or_fail(self, job: VetJob, kind: str, error: str) -> None:
        job.faults.append(kind)
        if job.attempts >= self.config.max_attempts:
            job.error = f"retries exhausted after {kind}: {error}"
            self._finish(job, JobState.FAILED)
            return
        self._count("serve.retries")
        job.state = JobState.RETRY_WAIT
        task = asyncio.ensure_future(self._retry_later(job))
        self._retry_tasks.append(task)

    def backoff_s(self, job_id: str, attempt: int) -> float:
        """Exponential backoff with deterministic, order-independent jitter.

        ``base * 2^(attempt-1)`` capped at ``backoff_cap_s``, then
        scaled into ``(1-jitter, 1]`` by :func:`backoff_fraction` -- a
        pure hash of ``(retry_seed, job_id, attempt)``.  No RNG object
        is consulted, so the schedule cannot depend on how many *other*
        jobs drew jitter first: shuffled completion orders (and worker
        processes computing delays independently) all see the same
        per-job backoff.
        """
        config = self.config
        raw = config.backoff_base_s * (2 ** max(0, attempt - 1))
        capped = min(config.backoff_cap_s, raw)
        fraction = backoff_fraction(config.retry_seed, job_id, attempt)
        return capped * (1.0 - config.backoff_jitter * fraction)

    async def _retry_later(self, job: VetJob) -> None:
        delay = self.backoff_s(job.job_id, job.attempts)
        job.backoffs_s.append(delay)
        self._count("serve.backoff_s", delay)
        await asyncio.sleep(delay)
        self._redispatch(job)


# -- high-level entry points ---------------------------------------------------


def run_soak(
    corpus: AppCorpus,
    apps: Optional[int] = None,
    config: Optional[ServeConfig] = None,
    inject: FrozenSet[str] = frozenset(),
    fault_seed: int = 2020,
    targets=None,
    targeted_every: int = 1,
    rules: Optional[str] = None,
    resolve_icc: bool = True,
    baseline: Optional[str] = None,
    **fault_overrides,
) -> SoakReport:
    """Push a corpus slice through a fresh service instance.

    ``inject`` lists fault kinds (see :mod:`repro.serve.faults`); the
    schedule is deterministic in ``fault_seed``, the corpus identity
    and the worker count.  ``targets`` marks every ``targeted_every``-th
    job demand-driven (see :meth:`CorpusSource.jobs`) so mixed
    targeted/full soaks exercise both pipelines under the same faults.
    ``rules`` (a pack name/path) makes every job vet under that pack.
    ``baseline`` re-vets every job incrementally (``"corpus"`` =
    resubmission of the job's own container; otherwise a ``.gdx``
    path of the previous version).
    """
    config = config or ServeConfig()
    source = CorpusSource(corpus)
    count = corpus.size if apps is None else min(apps, corpus.size)
    jobs = source.jobs(
        count,
        targets=targets,
        targeted_every=targeted_every,
        rules=rules,
        resolve_icc=resolve_icc,
        baseline=baseline,
    )
    injector = (
        build_injector(
            inject, fault_seed, len(jobs), config.workers, **fault_overrides
        )
        if inject
        else NULL_INJECTOR
    )
    service = VettingService(source, config=config, injector=injector)
    return service.run(jobs)


def submit_paths(
    paths: Sequence[str],
    config: Optional[ServeConfig] = None,
    baseline: Optional[str] = None,
) -> SoakReport:
    """Vet submitted ``.gdx`` files through a fresh service instance.

    ``baseline`` marks every submission as an incremental re-vet:
    ``"corpus"`` treats each file as a resubmission of itself, any
    other value is a prior-version ``.gdx`` path.
    """
    source = PathSource(paths)
    service = VettingService(source, config=config or ServeConfig())
    return service.run(source.jobs(baseline=baseline))


def serve_stream(feed, config: Optional[ServeConfig] = None) -> SoakReport:
    """Serve a streaming admission feed until it is exhausted.

    The ``feed`` (:class:`DirectoryFeed` / :class:`StdinFeed`) is both
    the job stream and the app source: the run starts with an empty job
    set and completes when the feed ends and every streamed job is
    terminal.
    """
    service = VettingService(feed, config=config or ServeConfig())
    return service.run(jobs=(), feed=feed)


def recover(
    source,
    config: ServeConfig,
    injector: Optional[FaultInjector] = None,
) -> SoakReport:
    """Resume a crashed service run from its journal.

    Replays ``config.journal_path`` and splits the admitted jobs in
    two: jobs the dead run drove to a terminal state are reconstructed
    as-finished (rows reloaded from the partition store under
    ``config.state_dir`` -- no app is re-evaluated), every other
    admitted job is re-served on a fresh service instance.  The
    returned report covers the union, so the zero-lost /
    zero-duplicated invariant is asserted across the crash: every job
    the dead service admitted is terminal exactly once.

    Recovery appends to the same journal, so a recovery run that
    crashes again is itself recoverable.
    """
    if not config.journal_path:
        raise ValueError("recovery needs ServeConfig.journal_path")
    state = replay_journal(config.journal_path)
    merged: Dict[str, Dict[str, Any]] = {}
    if config.state_dir:
        merged = PartitionResultStore(config.state_dir).merge()
    finished: List[VetJob] = []
    pending: List[VetJob] = []
    for job_id, spec in state.admits.items():
        job = job_from_spec(spec)
        final = state.terminal.get(job_id)
        if final is None:
            pending.append(job)
            continue
        job.attempts = int(final.get("attempts", 0))
        if final["ev"] == EV_COMPLETE:
            job.state = JobState.DONE
            job.engine = final.get("engine")
            record = merged.get(job_id)
            if record is not None and record.get("row") is not None:
                job.row = row_from_payload(record["row"])
                job.verdict = record.get("verdict")
                job.risk_score = record.get("risk_score")
                job.findings = record.get("findings")
                job.modeled_latency_s = record.get("latency_s")
        else:
            job.state = JobState.FAILED
            job.error = final.get("error")
        finished.append(job)
    service = VettingService(source, config=config, injector=injector)
    if state.truncated:
        service._count("serve.journal.truncated", state.truncated)
    if state.corrupt:
        service._count("serve.journal.corrupt", state.corrupt)
    service._count("serve.recovered.finished", len(finished))
    service._count("serve.recovered.pending", len(pending))
    return service.run(pending, recovered=finished)
