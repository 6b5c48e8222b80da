"""Real OS-process device workers behind the asyncio orchestrator.

:class:`ProcessWorkerPool` is the scale-out counterpart of the
in-process :class:`repro.serve.workers.AsyncWorkerPool`, with the same
submit / results / reap / restart / stop interface and the same
:func:`repro.serve.workers.attempt` inside each lane: the orchestrator
stays a single asyncio dispatcher, but each worker lane is a real OS
process started from :func:`repro.bench.parallel.worker_context`
(``fork`` where available, ``spawn`` otherwise -- the same machinery
as the parallel bench sweep).  Apps are never pickled: corpus workers
regenerate them from ``(base_seed, size, profile)``, path workers load
their ``.gdx`` from disk, exactly like the bench workers.

Channels are chosen for crash-safety, not elegance:

* **tasks** travel orchestrator -> worker over a per-lane
  ``multiprocessing.Queue`` (only the orchestrator writes, so a killed
  *worker* can never corrupt it; a lane restart gets a fresh queue so
  tasks queued to a corpse are dropped, never double-served);
* **results** travel worker -> orchestrator through the
  :class:`repro.serve.journal.PartitionResultStore` -- one atomically
  published JSON file per attempt.  A worker ``kill -9``-ed mid-write
  leaves a ``.tmp-*`` dropping, never a torn record, so the
  orchestrator's poll loop is immune to worker death at any
  instruction.

Worker death is detected by exit code (:meth:`ProcessWorkerPool.reap`)
and the lane restarted with its fault-injection start counter carried
forward, so an injected crash schedule fires the same total number of
times as in the single-process service.  Injected ``worker-crash``
faults here are *real* deaths: the worker calls ``os._exit`` at a job
boundary, indistinguishable (to the orchestrator) from ``kill -9``.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.faults import FaultConfig, FaultInjector, WorkerCrash
from repro.serve.journal import PartitionResultStore
from repro.serve.workers import Device, attempt

#: Exit code of an injected worker crash (``os._exit``): visibly
#: distinct from a Python traceback's exit 1 in ``reap`` logs.
CRASH_EXIT_CODE = 23


def _progress_path(state_dir, worker_id: int) -> Path:
    """Per-lane job-start marker file.

    A dot-prefixed non-``.json`` name, so the result store's poll loop
    never mistakes it for a record.  Holds the lane's consumed-start
    count as a fixed-width decimal, rewritten in place with a single
    small ``pwrite`` per job start -- :meth:`ProcessWorkerPool.reap`
    reads it for *exact* fault-schedule continuity across restarts
    (the counter only grows, so fixed width never leaves stale
    trailing digits).
    """
    return Path(state_dir) / f".lane-{worker_id:02d}.starts"


def _publish_starts(fd: int, started: int) -> None:
    os.pwrite(fd, b"%010d\n" % started, 0)


@dataclass(frozen=True)
class PoolSpec:
    """Everything a worker process needs, picklable for ``spawn``.

    ``corpus`` (``(base_seed, size, profile)``) regenerates the apps of
    ``"corpus"`` jobs by index; any other job source is loaded as a
    ``.gdx`` path.
    """

    state_dir: str
    corpus: Optional[Tuple[int, int, Any]] = None
    strict: bool = False
    vet: bool = True
    timeout_s: Optional[float] = None
    fault_config: FaultConfig = FaultConfig()
    fault_jobs: int = 0
    fault_workers: int = 1


def _pool_worker_main(
    worker_id: int,
    spec: PoolSpec,
    task_queue,
    start_at: int = 0,
) -> None:
    """Worker process body: drain batches until ``None`` arrives.

    ``start_at`` continues the job-start counter across lane restarts
    so the seeded fault schedule is a property of the *lane*, not of
    one process incarnation.
    """
    from repro.apk.corpus import AppCorpus

    corpus = None
    if spec.corpus is not None:
        base_seed, size, profile = spec.corpus
        corpus = AppCorpus(size=size, base_seed=base_seed, profile=profile)
    injector = FaultInjector(
        spec.fault_config, spec.fault_jobs, spec.fault_workers
    )
    store = PartitionResultStore(spec.state_dir)
    device = Device(worker_id, started=start_at)
    progress_fd = os.open(
        _progress_path(spec.state_dir, worker_id),
        os.O_CREAT | os.O_WRONLY,
        0o644,
    )
    while True:
        task = task_queue.get()
        if task is None:
            return
        for job in task["jobs"]:
            # Publish the start this attempt consumes BEFORE it checks
            # the crash schedule, so the marker is exact however this
            # lane dies: injected crash, kill -9 mid-job, or kill -9
            # between jobs.
            _publish_starts(progress_fd, device.started + 1)
            try:
                record = attempt(
                    job, device, injector, corpus,
                    spec.strict, spec.vet, spec.timeout_s,
                )
            except WorkerCrash:
                # A real death at a job boundary: the orchestrator sees
                # a dead process, exactly like kill -9 from outside.
                os._exit(CRASH_EXIT_CODE)
            store.write(worker_id, job["job_id"], job["attempt"], record)


class ProcessWorkerPool:
    """N worker-process lanes plus the poll/reap/restart machinery."""

    def __init__(
        self,
        spec: PoolSpec,
        workers: int,
        start_method: Optional[str] = None,
    ) -> None:
        from repro.bench.parallel import worker_context

        if workers < 1:
            raise ValueError("need at least one worker process")
        self.spec = spec
        self.workers = workers
        self.context = worker_context(start_method)
        self.store = PartitionResultStore(spec.state_dir)
        self._queues: List[Any] = [None] * workers
        self._procs: List[Any] = [None] * workers
        #: Job starts each lane has consumed (crash-schedule continuity).
        self._starts: List[int] = [0] * workers
        #: Results seen from each lane since its last (re)start.
        self._lane_results: List[int] = [0] * workers
        self._seen: set = set()

    # -- lifecycle -------------------------------------------------------------

    def _spawn(self, worker_id: int) -> None:
        # Seed the lane's progress marker with the carried-forward
        # start count before the process exists: a lane killed before
        # it ever dequeues a job then reads back exactly what it
        # inherited, not a stale prior incarnation's counter.
        _progress_path(self.spec.state_dir, worker_id).write_bytes(
            b"%010d\n" % self._starts[worker_id]
        )
        queue = self.context.Queue()
        process = self.context.Process(
            target=_pool_worker_main,
            args=(worker_id, self.spec, queue, self._starts[worker_id]),
            daemon=True,
        )
        process.start()
        self._queues[worker_id] = queue
        self._procs[worker_id] = process
        self._lane_results[worker_id] = 0

    def start(self) -> None:
        for worker_id in range(self.workers):
            self._spawn(worker_id)

    @property
    def pids(self) -> List[Optional[int]]:
        """Live lane PIDs (None for a lane between death and restart)."""
        return [
            process.pid if process is not None else None
            for process in self._procs
        ]

    def stop(self, kill: bool = False) -> None:
        """Shut every lane down (politely, or ``kill=True`` hard)."""
        for worker_id, process in enumerate(self._procs):
            if process is None:
                continue
            if not kill:
                try:
                    self._queues[worker_id].put(None)
                except (OSError, ValueError):
                    pass
        for process in self._procs:
            if process is None:
                continue
            if kill:
                process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        self._procs = [None] * self.workers

    # -- dispatch --------------------------------------------------------------

    def submit(self, worker_id: int, jobs: Sequence[Dict[str, Any]]) -> None:
        """Queue one batch of job descriptors onto a lane."""
        self._queues[worker_id].put({"jobs": list(jobs)})

    # -- results / liveness ----------------------------------------------------

    async def results(self) -> List[Dict[str, Any]]:
        """Fresh result records, polled off the event loop."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self.poll, 0.02)

    def poll(self, timeout_s: float = 0.0) -> List[Dict[str, Any]]:
        """Fresh result records, blocking up to ``timeout_s`` for one."""
        deadline = time.monotonic() + timeout_s
        while True:
            records = self.store.poll(self._seen)
            if records or time.monotonic() >= deadline:
                for record in records:
                    worker = record.get("worker")
                    if worker is not None and 0 <= worker < self.workers:
                        self._lane_results[worker] += 1
                return records
            time.sleep(0.005)

    def reap(self) -> List[int]:
        """Lanes whose process died without being told to stop.

        Each dead lane is reported exactly once; the caller re-homes
        the lane's in-flight jobs and then calls :meth:`restart`.  The
        carried-forward start count comes from the lane's progress
        marker -- written by the worker at every job start -- so the
        fault schedule stays exact even when an external ``kill -9``
        lands *between* jobs (which consumes no start) or stale result
        records from a prior incarnation arrive late.
        """
        dead = []
        for worker_id, process in enumerate(self._procs):
            if process is not None and process.exitcode is not None:
                dead.append(worker_id)
                process.join()
                self._procs[worker_id] = None
                self._starts[worker_id] = self._read_starts(
                    worker_id,
                    # Heuristic fallback for an unreadable marker: one
                    # start per result published since the (re)start,
                    # plus one for the attempt the lane died on.
                    self._starts[worker_id]
                    + self._lane_results[worker_id]
                    + 1,
                )
        return dead

    def _read_starts(self, worker_id: int, fallback: int) -> int:
        try:
            text = _progress_path(self.spec.state_dir, worker_id).read_text()
            return int(text.strip())
        except (OSError, ValueError):
            return fallback

    def restart(self, worker_id: int) -> None:
        """Bring a reaped lane back with a fresh process *and* queue.

        The fresh queue is load-bearing: tasks still queued to the
        corpse have already been re-dispatched by the orchestrator, so
        serving them from the replacement process would double-serve.
        """
        self._spawn(worker_id)
