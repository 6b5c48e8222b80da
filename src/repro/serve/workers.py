"""Simulated device workers: job decoding + degradation ladder.

Each :class:`DeviceWorker` models one GPU-equipped vetting node.  It
owns a real :class:`repro.gpu.allocator.DeviceAllocator` (so injected
OOM is a genuine :class:`DeviceOutOfMemory` from the device-heap
model) and a position on the **engine ladder**:

    gdroid  ->  plain-gpu  ->  multicore-cpu

A healthy device serves with the full GDroid kernel; every OOM marks
the device unhealthy and drops it one rung, trading modeled latency
for survival (the paper's plain kernel, then the 10-core CPU model).
A crash-restart resets the ladder -- a fresh device is presumed
healthy.

The *functional* result is engine-independent: every attempt runs
:func:`repro.bench.harness.run_pipeline`, the same function
``evaluate_corpus`` calls, so a row served by a degraded worker is
bit-identical to one served at full health and to a direct sweep.  The
rung only selects which modeled platform time is reported as the job's
serving latency, exactly like re-pointing a request at a slower
replica.  Both lanes (this in-process worker and the process pool's
``_attempt``) look ``run_pipeline`` up through this module at call
time, so a wrapper set on this module's attribute sees every served
job.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Dict, Mapping, TYPE_CHECKING

from repro import obs
from repro.apk.dex import pack_app, unpack_app
from repro.bench.harness import (
    ENGINE_CPU,
    ENGINE_GDROID,
    ENGINE_PLAIN,
    engine_latency_s,  # noqa: F401 - part of the serve call surface
    run_pipeline,
)
from repro.gpu.allocator import DeviceAllocator, DeviceOutOfMemory
from repro.serve.faults import WorkerCrash
from repro.serve.jobs import JobState, VetJob
from repro.serve.journal import job_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ir.app import AndroidApp
    from repro.serve.service import VettingService

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
    which both lanes report as a corrupt job.
    """
    targets = None
    if job.get("targets"):
        from repro.vetting.targeted import TargetSpec

        targets = TargetSpec(sinks=tuple(job["targets"]))
    baseline = job.get("baseline")
    if baseline == "corpus":
        baseline_app = app
    elif baseline:
        from repro.apk.diff import load_baseline

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


class DeviceWorker:
    """One simulated vetting device consuming batches from its queue."""

    def __init__(self, worker_id: int, service: "VettingService") -> None:
        self.worker_id = worker_id
        self.service = service
        self.queue: asyncio.Queue = asyncio.Queue()
        #: Outstanding placement cost (the sharder balances against it).
        self.load = 0.0
        self.rung = 0
        self.jobs_started = 0
        self.jobs_done = 0
        self.crashes = 0
        self.allocator = DeviceAllocator()

    @property
    def engine(self) -> str:
        return ENGINE_LADDER[self.rung]

    @property
    def healthy(self) -> bool:
        return self.rung == 0

    def degrade(self) -> str:
        """Mark the device unhealthy: drop one ladder rung (floor: CPU)."""
        self.rung = min(self.rung + 1, len(ENGINE_LADDER) - 1)
        return self.engine

    def inject_oom(self) -> None:
        """Blow the device heap through the real allocator model."""
        self.allocator.reserve(self.allocator.spec.global_memory_bytes + 1)

    async def run(self) -> None:
        """Main loop: drain batches until the service sends ``None``."""
        while True:
            batch = await self.queue.get()
            if batch is None:
                return
            try:
                for job in batch.jobs:
                    if job.state != JobState.ASSIGNED:
                        # Terminal, or no longer owned by this batch (a
                        # crash rehomed it): never attempt it here.
                        self.load = max(0.0, self.load - job.est_cost)
                        continue
                    await self._attempt(job)
                    self.load = max(0.0, self.load - job.est_cost)
            except WorkerCrash:
                self.crashes += 1
                unfinished = [j for j in batch.jobs if not j.terminal]
                for job in unfinished:
                    self.load = max(0.0, self.load - job.est_cost)
                self.service.on_worker_crash(self, unfinished)
                # Restart: fresh device, fresh heap, healthy ladder.
                self.rung = 0
                self.allocator.reset()
                await asyncio.sleep(self.service.config.restart_delay_s)

    async def _attempt(self, job: VetJob) -> None:
        """One processing attempt; faults propagate to the service."""
        service = self.service
        injector = service.injector
        self.jobs_started += 1
        job.state = JobState.RUNNING
        job.attempts += 1
        job.workers.append(self.worker_id)
        started = self.jobs_started
        if injector.should_crash(self.worker_id, started):
            # The crash takes the whole in-flight batch down; the run
            # loop requeues every unfinished job, this one included.
            raise WorkerCrash(
                f"worker {self.worker_id} crashed on job start"
            )
        try:
            await asyncio.wait_for(
                self._process(job), timeout=service.config.timeout_s
            )
        except asyncio.TimeoutError:
            service.on_job_fault(job, self, "timeout", "per-job timeout hit")
        except DeviceOutOfMemory as error:
            engine = self.degrade()
            service.on_device_oom(job, self, engine, str(error))
        except Exception as error:  # noqa: BLE001 - jobs must stay accounted
            # An unexpected pipeline error must never strand a job in a
            # non-terminal state (that would hang the whole run): treat
            # it like any other retryable fault.
            service.on_job_fault(
                job, self, "error", f"{type(error).__name__}: {error}"
            )
        else:
            self.jobs_done += 1

    async def _process(self, job: VetJob) -> None:
        service = self.service
        injector = service.injector
        stall = injector.stall_seconds(job.index)
        if stall:
            await asyncio.sleep(stall)
        with obs.span(
            f"serve.job[{job.job_id}]#a{job.attempts}",
            category="serve",
            worker=self.worker_id,
            engine=self.engine,
            attempt=job.attempts,
        ):
            from repro.apk.diff import BaselineError
            from repro.apk.dex import GdxFormatError

            try:
                # A genuinely unreadable/corrupt .gdx on disk (the app's
                # or its baseline's) fails the same structured way an
                # injected corruption does.
                app = service.source.app_for(job)
                if injector.is_corrupt(job.index):
                    corrupt_roundtrip(app)
                if injector.should_oom(self.worker_id, self.jobs_started):
                    self.inject_oom()
                options = job_options(job_spec(job), app)
            except (OSError, GdxFormatError, BaselineError) as error:
                service.on_corrupt_apk(job, self, str(error))
                return
            result = run_pipeline(
                app,
                job.index,
                self.engine,
                service.config.strict,
                service.config.vet,
                **options,
            )
        service.on_job_success(job, self, result)
