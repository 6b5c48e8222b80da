"""Batch-vetting service: the deployment layer above the analysis kernels.

The paper's pitch is mass app vetting -- thousands of Play-store apps
per day through one GPU box.  This package is that deployment story
for the reproduction: a long-running asyncio service that accepts
apps, shards them across simulated device workers, survives worker
failure, and degrades gracefully instead of going dark.

Layout::

    jobs.py     VetJob records and the job state machine
    queue.py    bounded intake with admission control / backpressure
    sharder.py  Table-I size-class batching + LPT worker placement
    faults.py   seeded fault injection (crash / OOM / corrupt / stall)
    workers.py  the one job attempt, engine ladder, in-process lanes
                (AsyncWorkerPool)
    journal.py  durable state: job journal + partitioned result stores
    pool.py     real OS-process worker lanes (ProcessWorkerPool)
    service.py  the orchestrator: one placement path, one result
                handler, retries, backoff, accounting, obs

Quickstart::

    from repro.apk.corpus import AppCorpus
    from repro.serve import ServeConfig, run_soak

    report = run_soak(
        AppCorpus(size=24),
        config=ServeConfig(workers=4),
        inject=frozenset({"worker-crash", "oom"}),
    )
    assert report.ok          # zero lost, zero duplicated jobs
    print(report.summary())

CLI: ``gdroid serve --soak --apps 24 --inject worker-crash,oom`` and
``gdroid submit app.gdx --json``.
"""

from __future__ import annotations

from repro.serve.faults import (
    ALL_KINDS,
    FaultConfig,
    FaultInjector,
    WorkerCrash,
    build_injector,
    parse_inject,
)
from repro.serve.jobs import JobState, VetJob
from repro.serve.journal import (
    JobJournal,
    JournalState,
    PartitionResultStore,
    job_from_spec,
    job_spec,
    replay_journal,
)
from repro.serve.pool import CRASH_EXIT_CODE, PoolSpec, ProcessWorkerPool
from repro.serve.queue import AdmissionError, AdmissionQueue
from repro.serve.sharder import JobBatch, Sharder, classify, make_batches
from repro.serve.service import (
    CorpusSource,
    DirectoryFeed,
    PathSource,
    ServeConfig,
    ServiceCrash,
    SoakReport,
    StdinFeed,
    VettingService,
    backoff_fraction,
    recover,
    run_soak,
    serve_stream,
    submit_paths,
)
from repro.serve.workers import ENGINE_LADDER, run_pipeline

__all__ = [
    "ALL_KINDS",
    "AdmissionError",
    "AdmissionQueue",
    "CRASH_EXIT_CODE",
    "CorpusSource",
    "DirectoryFeed",
    "ENGINE_LADDER",
    "FaultConfig",
    "FaultInjector",
    "JobBatch",
    "JobJournal",
    "JobState",
    "JournalState",
    "PartitionResultStore",
    "PathSource",
    "PoolSpec",
    "ProcessWorkerPool",
    "ServeConfig",
    "ServiceCrash",
    "Sharder",
    "SoakReport",
    "StdinFeed",
    "VetJob",
    "VettingService",
    "WorkerCrash",
    "backoff_fraction",
    "build_injector",
    "classify",
    "job_from_spec",
    "job_spec",
    "make_batches",
    "parse_inject",
    "recover",
    "replay_journal",
    "run_pipeline",
    "run_soak",
    "serve_stream",
    "submit_paths",
]
