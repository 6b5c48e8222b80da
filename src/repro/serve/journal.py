"""Durable service state: the job journal and partitioned result stores.

The asyncio orchestrator keeps its bookkeeping in memory, so before
this module a crashed service forgot every in-flight job.  Two on-disk
structures make a run recoverable:

**Job journal** (:class:`JobJournal`) -- an append-only JSONL file the
orchestrator writes one record to per state transition::

    {"ev": "admit",    "job": "job-0007", "spec": {...}}   # + full job spec
    {"ev": "assign",   "job": "job-0007", "worker": 2, "attempt": 1}
    {"ev": "complete", "job": "job-0007", "state": "done", ...}
    {"ev": "fail",     "job": "job-0007", "error": "..."}

Appends are atomic at the record level: the file is opened with
``O_APPEND`` and every record is written as one complete line (a
single ``os.write`` in the common case, looped to completion on the
rare short write -- disk full, tiny pipe buffers), so concurrent
readers never see interleaved records and a crash can only ever
truncate the *final* line.  :func:`replay_journal` tolerates exactly
that -- a trailing partial record is dropped (counted as
``truncated``), never a parse error; an undecodable line *before* the
tail is counted separately as ``corrupt``, because a torn ``admit``
mid-file can swallow the only copy of a job spec and deserves a louder
signal than routine tail truncation.  Durability is process-crash-deep
by default; pass ``fsync=True`` for power-loss durability at the cost
of one ``fsync`` per transition.  The ``admit`` record carries the full
job spec, so a journal is self-sufficient: a restarted service can
rebuild its job set from the journal alone and re-serve everything
that never reached a terminal record.

**Partition result store** (:class:`PartitionResultStore`) -- one
directory per worker, one atomically-written JSON record per attempt
(``worker-03/job-0007.a2.json``).  Process workers use it as their
*result channel*: a record is ``mkstemp`` + ``os.replace``-published,
so the orchestrator's poll loop only ever observes complete records
even if the writing worker is ``kill -9``-ed mid-write.  Because rows
live here and transitions live in the journal, a restarted service
recovers completed rows without re-evaluating a single app:
:meth:`PartitionResultStore.merge` is the shutdown/recovery merge of
every partition.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.serve.jobs import VetJob

#: Journal event vocabulary, in lifecycle order.
EV_ADMIT = "admit"
EV_ASSIGN = "assign"
EV_COMPLETE = "complete"
EV_FAIL = "fail"

#: Events that end a job's journey (mirror :data:`JobState.TERMINAL`).
TERMINAL_EVENTS = (EV_COMPLETE, EV_FAIL)

#: Stale ``.tmp-*`` droppings older than this are swept on store open
#: (a ``kill -9`` between ``mkstemp`` and ``os.replace`` orphans them).
TMP_MAX_AGE_S = 3600.0


def job_spec(job: VetJob) -> Dict[str, Any]:
    """The identity fields an ``admit`` record needs to rebuild ``job``."""
    return {
        "job_id": job.job_id,
        "index": job.index,
        "package": job.package,
        "source": job.source,
        "est_cost": job.est_cost,
        "size_class": job.size_class,
        "targets": list(job.targets) if job.targets else None,
        "rules": job.rules,
        "resolve_icc": job.resolve_icc,
        "baseline": job.baseline,
    }


def job_from_spec(spec: Dict[str, Any]) -> VetJob:
    """Rebuild a fresh (pending) :class:`VetJob` from an admit spec."""
    return VetJob(
        job_id=spec["job_id"],
        index=spec["index"],
        package=spec["package"],
        source=spec["source"],
        est_cost=spec["est_cost"],
        size_class=spec["size_class"],
        targets=list(spec["targets"]) if spec.get("targets") else None,
        rules=spec.get("rules"),
        resolve_icc=bool(spec.get("resolve_icc", True)),
        baseline=spec.get("baseline"),
    )


class JobJournal:
    """Append-only JSONL log of job state transitions.

    One journal per service run (recovery runs append to the same
    file).  Records are written with a single ``os.write`` on an
    ``O_APPEND`` descriptor, so each is all-or-nothing on crash.
    """

    def __init__(self, path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fd: Optional[int] = os.open(
            self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )
        #: Flush each record to stable storage (power-loss durability).
        self.fsync = fsync
        self.records_written = 0

    def record(self, event: str, job_id: str, **fields: Any) -> None:
        """Append one transition record (one complete line, always)."""
        if self._fd is None:
            raise ValueError("journal is closed")
        payload: Dict[str, Any] = {"ev": event, "job": job_id, **fields}
        payload["at"] = round(time.time(), 6)
        line = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        data = (line + "\n").encode("utf-8")
        # os.write may report fewer bytes written than asked (ENOSPC
        # partway through a buffer, exotic filesystems): stopping there
        # would tear this record mid-file -- the one shape of damage
        # replay cannot attribute to a crash -- so loop to completion
        # and raise if the descriptor stops accepting bytes at all.
        view = memoryview(data)
        while view:
            written = os.write(self._fd, view)
            if written <= 0:
                raise OSError(
                    f"journal append stalled with {len(view)} of "
                    f"{len(data)} bytes unwritten ({self.path})"
                )
            view = view[written:]
        if self.fsync:
            os.fsync(self._fd)
        self.records_written += 1

    # -- transition shorthands -------------------------------------------------

    def admit(self, job: VetJob) -> None:
        self.record(EV_ADMIT, job.job_id, spec=job_spec(job))

    def assign(self, job: VetJob, worker: int) -> None:
        self.record(
            EV_ASSIGN, job.job_id, worker=worker, attempt=job.attempts
        )

    def complete(self, job: VetJob) -> None:
        self.record(
            EV_COMPLETE,
            job.job_id,
            state=job.state,
            engine=job.engine,
            attempts=job.attempts,
        )

    def fail(self, job: VetJob) -> None:
        self.record(
            EV_FAIL, job.job_id, error=job.error, attempts=job.attempts
        )

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class JournalState:
    """Everything one :func:`replay_journal` pass reconstructs."""

    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Trailing partial/undecodable line dropped during replay (a
    #: crash mid-append leaves at most one, always the final line).
    truncated: int = 0
    #: Undecodable lines *before* the tail: mid-file tears.  Unlike
    #: tail truncation these are never the benign crash signature --
    #: a torn ``admit`` here silently removes a job from recovery --
    #: so they are surfaced on their own counter.
    corrupt: int = 0

    @property
    def admits(self) -> Dict[str, Dict[str, Any]]:
        """First admit spec per job id, in admission order."""
        specs: Dict[str, Dict[str, Any]] = {}
        for record in self.records:
            if record["ev"] == EV_ADMIT and record["job"] not in specs:
                specs[record["job"]] = record["spec"]
        return specs

    @property
    def terminal(self) -> Dict[str, Dict[str, Any]]:
        """First terminal record per job id (later ones are anomalies)."""
        finals: Dict[str, Dict[str, Any]] = {}
        for record in self.records:
            if record["ev"] in TERMINAL_EVENTS and record["job"] not in finals:
                finals[record["job"]] = record
        return finals

    def jobs(self) -> List[VetJob]:
        """Every admitted job, rebuilt in admission order (all pending)."""
        return [job_from_spec(spec) for spec in self.admits.values()]

    def pending_ids(self) -> List[str]:
        """Jobs admitted but never journaled terminal: the recovery set."""
        finals = self.terminal
        return [job_id for job_id in self.admits if job_id not in finals]


def replay_journal(path) -> JournalState:
    """Parse a journal, dropping (and counting) undecodable lines.

    The final line failing to decode is the expected crash signature
    (``truncated``); an undecodable line anywhere earlier is a mid-file
    tear (``corrupt``) and counted separately.  A missing journal
    replays as empty: recovery from "never ran" is a clean first run.
    """
    state = JournalState()
    try:
        blob = Path(path).read_bytes()
    except OSError:
        return state
    lines = [line for line in blob.split(b"\n") if line.strip()]
    last = len(lines) - 1
    for position, line in enumerate(lines):
        try:
            record = json.loads(line.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            record = None
        if not isinstance(record, dict) or "ev" not in record:
            if position == last:
                state.truncated += 1
            else:
                state.corrupt += 1
            continue
        state.records.append(record)
    return state


# -- result rows over process / crash boundaries -------------------------------


def row_to_payload(row: Any) -> Optional[Dict[str, Any]]:
    """JSON-ready payload for any harness row (None passes through)."""
    if row is None:
        return None
    return {
        "type": type(row).__name__,
        "data": dataclasses.asdict(row),
    }


def row_from_payload(payload: Optional[Dict[str, Any]]) -> Any:
    """Rebuild a harness row (the inverse of :func:`row_to_payload`).

    JSON turns tuples into lists; each row type restores its tuple
    fields so recovered rows compare equal (``==``) to fresh ones.
    """
    if payload is None:
        return None
    from repro.bench.cache import _row_from_payload
    from repro.bench.harness import (
        IncrementalVetRow,
        LintErrorRow,
        TargetedSkipRow,
    )

    kind, data = payload["type"], dict(payload["data"])
    if kind == "AppEvaluation":
        return _row_from_payload(data)
    if kind == "LintErrorRow":
        data["rules"] = tuple(data["rules"])
        return LintErrorRow(**data)
    if kind == "TargetedSkipRow":
        data["targets"] = tuple(data["targets"])
        return TargetedSkipRow(**data)
    if kind == "IncrementalVetRow":
        return IncrementalVetRow(**data)
    raise ValueError(f"unknown row payload type {kind!r}")


class PartitionResultStore:
    """Per-worker partitions of atomically-published result records.

    Layout: ``root/worker-NN/<job_id>.a<attempt>.json``.  Writers
    publish with ``mkstemp`` + ``os.replace`` so a reader polling the
    partitions never observes a torn record -- the file either is not
    there yet or is complete.  The attempt number is part of the file
    name, so a retried job's record never silently overwrites (or
    masks) an earlier attempt's.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Stale temp files swept on open (crash-orphaned ``.tmp-*``).
        self.tmp_purged = self._sweep_stale_tmp()

    def _sweep_stale_tmp(self, max_age_s: float = TMP_MAX_AGE_S) -> int:
        purged = 0
        now = time.time()
        for directory in [self.root, *self.root.glob("worker-*")]:
            try:
                entries = list(os.scandir(directory))
            except OSError:
                continue
            for entry in entries:
                if not entry.name.startswith(".tmp-"):
                    continue
                try:
                    if now - entry.stat().st_mtime >= max_age_s:
                        os.unlink(entry.path)
                        purged += 1
                except OSError:
                    continue
        return purged

    def partition(self, worker_id: int) -> Path:
        return self.root / f"worker-{worker_id:02d}"

    def write(
        self, worker_id: int, job_id: str, attempt: int,
        record: Dict[str, Any],
    ) -> None:
        """Atomically publish one attempt's result record."""
        directory = self.partition(worker_id)
        directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(record, sort_keys=True)
        fd, tmp = tempfile.mkstemp(
            dir=directory, prefix=".tmp-", suffix=".json"
        )
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, directory / f"{job_id}.a{attempt}.json")
        except BaseException:
            os.unlink(tmp)
            raise

    def poll(self, seen: Set[Tuple[str, int]]) -> List[Dict[str, Any]]:
        """Records published since ``seen`` (which is updated in place).

        Ordered oldest-first by (mtime, name) so the orchestrator
        consumes results roughly in completion order.  A record is
        known by path *and* inode: a recovery run re-serving an attempt
        a dead run already published replaces the file under the same
        path, and that republished record must still be read.
        """
        fresh: List[Tuple[float, str, Dict[str, Any]]] = []
        for directory in sorted(self.root.glob("worker-*")):
            try:
                entries = list(os.scandir(directory))
            except OSError:
                continue
            for entry in entries:
                key = (entry.path, entry.inode())
                if (
                    key in seen
                    or entry.name.startswith(".tmp-")
                    or not entry.name.endswith(".json")
                ):
                    continue
                try:
                    record = json.loads(Path(entry.path).read_text())
                except (OSError, ValueError):
                    continue
                seen.add(key)
                name = f"{directory.name}/{entry.name}"
                fresh.append((entry.stat().st_mtime, name, record))
        fresh.sort(key=lambda item: (item[0], item[1]))
        return [record for _, _, record in fresh]

    def merge(self) -> Dict[str, Dict[str, Any]]:
        """The shutdown/recovery merge: latest-attempt record per job.

        Scans every partition and keeps, per job id, the record of the
        highest attempt number (ties: lexicographically last partition
        wins, which is deterministic).
        """
        best: Dict[str, Tuple[int, Dict[str, Any]]] = {}
        for record in self.poll(set()):
            job_id = record.get("job_id")
            if job_id is None:
                continue
            attempt = int(record.get("attempt", 0))
            current = best.get(job_id)
            if current is None or attempt >= current[0]:
                best[job_id] = (attempt, record)
        return {job_id: record for job_id, (_, record) in best.items()}


def make_result_record(
    job_id: str,
    attempt: int,
    worker: int,
    kind: str,
    *,
    engine: Optional[str] = None,
    healthy: bool = True,
    row: Any = None,
    verdict: Optional[str] = None,
    risk_score: Optional[int] = None,
    findings: Optional[int] = None,
    latency_s: Optional[float] = None,
    fault: Optional[str] = None,
    error: Optional[str] = None,
    incremental: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """One attempt's outcome, as the JSON record workers publish.

    ``kind`` is ``"ok"`` (row attached), ``"corrupt"`` (structured
    non-retryable failure) or ``"fault"`` (retryable; ``fault`` names
    the kind, e.g. ``oom`` / ``error``).  ``incremental`` carries the
    summary-store reuse counters of a baseline job so pool workers can
    ship them back to the orchestrator's ``serve.incremental.*``
    accounting.
    """
    return {
        "job_id": job_id,
        "attempt": attempt,
        "worker": worker,
        "kind": kind,
        "engine": engine,
        "healthy": healthy,
        "row": row_to_payload(row),
        "verdict": verdict,
        "risk_score": risk_score,
        "findings": findings,
        "latency_s": latency_s,
        "fault": fault,
        "error": error,
        "incremental": incremental,
    }
