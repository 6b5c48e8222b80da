"""Device lanes: the one job attempt, the engine ladder, in-process lanes.

Each lane models one GPU-equipped vetting node.  Its :class:`Device`
owns a real :class:`repro.gpu.allocator.DeviceAllocator` (so injected
OOM is a genuine :class:`DeviceOutOfMemory` from the device-heap
model) and a position on the **engine ladder**:

    gdroid  ->  plain-gpu  ->  multicore-cpu

A healthy device serves with the full GDroid kernel; every OOM marks
the device unhealthy and drops it one rung, trading modeled latency
for survival (the paper's plain kernel, then the 10-core CPU model).
A crash-restart brings up a fresh device, presumed healthy.

Both lane kinds run the same :func:`attempt`: the in-process lanes of
:class:`AsyncWorkerPool` (``pool="async"``) on the orchestrator's event
loop, and the OS processes of :class:`repro.serve.pool.ProcessWorkerPool`
(``pool="process"``).  An attempt returns one
:func:`repro.serve.journal.make_result_record` dict, whichever lane ran
it.

The *functional* result is engine-independent: every attempt runs
:func:`repro.bench.harness.run_pipeline`, the same function
``evaluate_corpus`` calls, so a row served by a degraded worker is
bit-identical to one served at full health and to a direct sweep.  The
rung only selects which modeled platform time is reported as the job's
serving latency, exactly like re-pointing a request at a slower
replica.  :func:`attempt` looks ``run_pipeline`` up through this
module, and ``load_gdx`` through :mod:`repro.apk.loader`, at call time,
so a wrapper set on either module attribute sees every served job.
"""

from __future__ import annotations

import asyncio
import functools
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, TYPE_CHECKING

from repro import obs
from repro.apk import loader
from repro.apk.dex import GdxFormatError, pack_app, unpack_app
from repro.apk.diff import BaselineError, load_baseline
from repro.bench.harness import (
    ENGINE_CPU,
    ENGINE_GDROID,
    ENGINE_PLAIN,
    run_pipeline,
)
from repro.gpu.allocator import DeviceAllocator, DeviceOutOfMemory
from repro.serve.faults import DEVICE_OOM, TIMEOUT, FaultInjector, WorkerCrash
from repro.serve.journal import PartitionResultStore, make_result_record

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.app import AndroidApp

#: Degradation ladder, healthiest first.
ENGINE_LADDER = (ENGINE_GDROID, ENGINE_PLAIN, ENGINE_CPU)


@functools.lru_cache(maxsize=8)
def resolve_pack(name: str):
    """Load (and memoise) a rule pack by name/path for job processing.

    Jobs carry pack *names* so their records stay JSON; every worker in
    the process shares this cache, so a soak resolves each pack once.
    """
    from repro.rules.pack import load_pack

    return load_pack(name)


def job_options(job: Mapping[str, Any], app: "AndroidApp") -> Dict[str, Any]:
    """A job spec's options as :func:`run_pipeline` keyword arguments.

    Sink names become a :class:`repro.vetting.targeted.TargetSpec`, the
    pack name a compiled pack (:func:`resolve_pack`), and the baseline
    ref the baseline app: ``"corpus"`` is the job's own container (a
    resubmission), any other ref a prior-version ``.gdx`` path.  An
    unreadable baseline raises :class:`repro.apk.diff.BaselineError`,
    which :func:`attempt` reports as a corrupt job.
    """
    targets = None
    if job.get("targets"):
        from repro.vetting.targeted import TargetSpec

        targets = TargetSpec(sinks=tuple(job["targets"]))
    baseline = job.get("baseline")
    if baseline == "corpus":
        baseline_app = app
    elif baseline:
        baseline_app = load_baseline(baseline)
    else:
        baseline_app = None
    return {
        "targets": targets,
        "rules": resolve_pack(job["rules"]) if job.get("rules") else None,
        "resolve_icc": bool(job.get("resolve_icc", True)),
        "baseline_app": baseline_app,
    }


def corrupt_roundtrip(app: "AndroidApp") -> None:
    """Model a corrupt APK: container round-trip with flipped magic.

    Raises the loader's structured :class:`repro.apk.dex.GdxFormatError`,
    the same failure a damaged ``.gdx`` file produces on disk.
    """
    blob = bytearray(pack_app(app))
    blob[0] ^= 0xFF
    unpack_app(bytes(blob))


def load_app(job: Mapping[str, Any], corpus=None) -> "AndroidApp":
    """The app a job names: a ``"corpus"`` job's app by index from
    ``corpus`` (anything with an ``app(index)`` method), any other
    source loaded as a ``.gdx`` path.

    Journal recovery replays watch/path-fed jobs through a
    corpus-backed service, so the branch is on the job's ``source``,
    never on the kind of service that runs it.
    """
    if job["source"] == "corpus":
        return corpus.app(job["index"])
    return loader.load_gdx(job["source"])


class Device:
    """One lane's simulated GPU: its heap, its ladder rung, its starts.

    ``started`` counts job starts over the lane's whole life: a
    restarted lane gets a fresh device that carries the count forward,
    so the seeded crash/OOM schedule is a property of the lane, not of
    one incarnation.
    """

    def __init__(self, worker_id: int, started: int = 0) -> None:
        self.worker_id = worker_id
        self.started = started
        self.rung = 0
        self.allocator = DeviceAllocator()

    @property
    def engine(self) -> str:
        return ENGINE_LADDER[self.rung]


def attempt(
    job: Mapping[str, Any],
    device: Device,
    injector: FaultInjector,
    corpus=None,
    strict: bool = False,
    vet: bool = True,
    timeout_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Run one processing attempt of ``job`` on ``device``.

    ``job`` is a dispatch descriptor: the job spec plus the ``attempt``
    stamp the orchestrator gave it.  Returns the attempt's result
    record: ``ok`` (row attached), ``corrupt`` (an unreadable app or
    baseline: deterministic, never retried) or ``fault`` (retryable:
    ``oom`` degrades the device one rung, ``timeout``, ``error``).

    ``timeout_s`` bounds the injected stall: a longer stall ends as a
    ``timeout`` fault after ``timeout_s``.  It cannot pre-empt a
    running pipeline, in either lane kind.

    Raises :class:`WorkerCrash` when the fault schedule kills the
    device at this job start.
    """
    device.started += 1
    if injector.should_crash(device.worker_id, device.started):
        raise WorkerCrash(f"worker {device.worker_id} crashed on job start")

    def record(kind: str, **fields: Any) -> Dict[str, Any]:
        return make_result_record(
            job["job_id"], job["attempt"], device.worker_id, kind,
            engine=device.engine, healthy=device.rung == 0, **fields,
        )

    index = job["index"]
    stall = injector.stall_seconds(index)
    if timeout_s is not None and stall > timeout_s:
        time.sleep(timeout_s)
        return record("fault", fault=TIMEOUT, error="per-job timeout hit")
    if stall:
        time.sleep(stall)
    try:
        with obs.span(
            f"serve.job[{job['job_id']}]#a{job['attempt']}",
            category="serve",
            worker=device.worker_id,
            engine=device.engine,
            attempt=job["attempt"],
        ):
            try:
                # A genuinely unreadable/corrupt .gdx on disk (the app's
                # or its baseline's) fails the same structured way an
                # injected corruption does.
                app = load_app(job, corpus)
                if injector.is_corrupt(index):
                    corrupt_roundtrip(app)
                if injector.should_oom(device.worker_id, device.started):
                    device.allocator.reserve(
                        device.allocator.spec.global_memory_bytes + 1
                    )
                options = job_options(job, app)
            except (OSError, GdxFormatError, BaselineError) as error:
                return record("corrupt", error=str(error))
            result = run_pipeline(
                app, index, device.engine, strict, vet, **options
            )
    except DeviceOutOfMemory as error:
        device.rung = min(device.rung + 1, len(ENGINE_LADDER) - 1)
        return record("fault", fault=DEVICE_OOM, error=str(error))
    except Exception as error:  # noqa: BLE001 - jobs must stay accounted
        # An unexpected pipeline error must never strand a job in a
        # non-terminal state: report it as a retryable fault.
        return record(
            "fault", fault="error", error=f"{type(error).__name__}: {error}"
        )
    return record(
        "ok",
        row=result.row,
        verdict=result.verdict,
        risk_score=result.risk_score,
        findings=result.findings,
        latency_s=result.latency_s,
        incremental=result.incremental,
    )


class AsyncWorkerPool:
    """In-process device lanes behind :class:`ProcessWorkerPool`'s interface.

    Each lane is an asyncio task on the orchestrator's loop that drains
    batches from its own queue and runs :func:`attempt` on them
    synchronously, as the pipeline itself is.  With a ``store`` (a
    state dir) each record is published there before the orchestrator
    sees it, as the process lanes publish theirs.  An injected crash
    kills the lane: it drops its queue and every batch on it, and
    :meth:`reap` reports it dead, exactly once, like a process exit.
    """

    def __init__(
        self,
        workers: int,
        injector: FaultInjector,
        corpus=None,
        strict: bool = False,
        vet: bool = True,
        timeout_s: Optional[float] = None,
        store: Optional[PartitionResultStore] = None,
    ) -> None:
        self.workers = workers
        self.injector = injector
        self.corpus = corpus
        self.strict = strict
        self.vet = vet
        self.timeout_s = timeout_s
        self.store = store
        self._devices = [Device(worker_id) for worker_id in range(workers)]
        self._queues: List[Any] = [None] * workers
        self._tasks: List[Any] = [None] * workers
        self._records: List[Dict[str, Any]] = []
        self._dead: List[int] = []
        #: Set whenever a record or a lane death is waiting.
        self._wake = asyncio.Event()

    def _spawn(self, worker_id: int) -> None:
        queue: asyncio.Queue = asyncio.Queue()
        self._queues[worker_id] = queue
        self._tasks[worker_id] = asyncio.ensure_future(
            self._lane(self._devices[worker_id], queue)
        )

    def start(self) -> None:
        for worker_id in range(self.workers):
            self._spawn(worker_id)

    async def _lane(self, device: Device, queue: asyncio.Queue) -> None:
        while True:
            for job in await queue.get():
                try:
                    record = attempt(
                        job, device, self.injector, self.corpus,
                        self.strict, self.vet, self.timeout_s,
                    )
                except WorkerCrash:
                    self._dead.append(device.worker_id)
                    self._wake.set()
                    return
                if self.store is not None:
                    self.store.write(
                        device.worker_id, job["job_id"], job["attempt"], record
                    )
                self._records.append(record)
                self._wake.set()
                # Let the orchestrator act on the record before the next
                # attempt blocks the loop again.
                await asyncio.sleep(0)

    def submit(self, worker_id: int, jobs: Sequence[Dict[str, Any]]) -> None:
        """Queue one batch of job descriptors onto a lane."""
        self._queues[worker_id].put_nowait(list(jobs))

    async def results(self) -> List[Dict[str, Any]]:
        """Records produced since the last call; waits for a record or
        a lane death."""
        await self._wake.wait()
        self._wake.clear()
        records, self._records = self._records, []
        return records

    def reap(self) -> List[int]:
        """Lanes that crashed since the last call, each reported once."""
        dead, self._dead = self._dead, []
        return dead

    def restart(self, worker_id: int) -> None:
        """Bring a reaped lane back: fresh device and queue, same starts."""
        self._devices[worker_id] = Device(
            worker_id, started=self._devices[worker_id].started
        )
        self._spawn(worker_id)

    def stop(self, kill: bool = False) -> None:
        """Cancel every lane (``kill`` changes nothing: a lane is only
        ever parked at an await, never mid-attempt)."""
        for task in self._tasks:
            task.cancel()
