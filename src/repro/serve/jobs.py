"""Job records: the unit of work the vetting service tracks.

A :class:`VetJob` is one app travelling through the service.  It is a
mutable record: the orchestrator updates the state machine

    pending -> admitted -> assigned -----------> done | failed
                             ^    |
                             |    +--> retry-wait  (retryable fault)
                             +-----------+

and appends to the audit fields (workers visited, faults hit, backoff
delays slept) as the job progresses; lanes only see the job's spec.
``to_json`` renders the record for the ``gdroid serve`` / ``gdroid
submit`` CLIs, so every field here is part of the service's
machine-readable surface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.harness import EvaluationRow


class JobState:
    """The job state machine's vocabulary (plain strings, JSON-ready)."""

    PENDING = "pending"
    ADMITTED = "admitted"
    ASSIGNED = "assigned"
    RETRY_WAIT = "retry-wait"
    DONE = "done"
    FAILED = "failed"

    #: States a job never leaves.
    TERMINAL = (DONE, FAILED)


@dataclass
class VetJob:
    """One app's journey through the vetting service."""

    job_id: str
    #: Index into the service's app source (corpus index / path ordinal).
    index: int
    package: str
    #: ``"corpus"`` or the submitted file path.
    source: str
    #: Placement cost estimate (CFG nodes; file bytes for path jobs).
    est_cost: float
    #: Table-I size class: ``small`` / ``medium`` / ``large``.  For a
    #: targeted job this reflects the backward slice, not the full app:
    #: the slice is what the device will actually analyze.
    size_class: str
    #: Sink signatures for demand-driven vetting (None = full vet).
    targets: Optional[List[str]] = None
    #: Rule-pack name/path to vet under (None = legacy grading only).
    #: A name, not a compiled pack: job records stay JSON-serializable
    #: and workers resolve (and cache) the pack themselves.
    rules: Optional[str] = None
    #: Whether workers resolve ICC targets (and stitch linked leaks)
    #: when vetting this job.  Mirrors ``gdroid vet --resolve-icc``.
    resolve_icc: bool = True
    #: Baseline ref for incremental re-vetting: ``"corpus"`` (the job's
    #: own container -- resubmission), a ``.gdx`` path (the previous
    #: version), or None (cold vet).  Mirrors ``gdroid vet --baseline``.
    baseline: Optional[str] = None
    state: str = JobState.PENDING
    #: Processing attempts started (first run counts as attempt 1).
    attempts: int = 0
    max_attempts: int = 4
    #: Worker id of every attempt, in order.
    workers: List[int] = field(default_factory=list)
    #: Fault kinds this job hit, in order (may repeat).
    faults: List[str] = field(default_factory=list)
    #: Backoff delays slept between attempts (seconds).
    backoffs_s: List[float] = field(default_factory=list)
    #: Engine that served the final result (degradation ladder rung).
    engine: Optional[str] = None
    #: The harness row (AppEvaluation or LintErrorRow) once evaluated.
    row: Optional["EvaluationRow"] = None
    #: Vetting verdict / risk when the service runs the taint plugin.
    verdict: Optional[str] = None
    risk_score: Optional[int] = None
    #: Total rule-pack findings (None unless the job ran with rules).
    findings: Optional[int] = None
    #: Modeled single-app latency on the serving engine (seconds).
    modeled_latency_s: Optional[float] = None
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def retried(self) -> bool:
        return self.attempts > 1

    def to_json(self) -> Dict[str, Any]:
        """The CLI's JSON job record (stable key set, sorted dumps)."""
        return {
            "job_id": self.job_id,
            "index": self.index,
            "package": self.package,
            "source": self.source,
            "size_class": self.size_class,
            "targets": list(self.targets) if self.targets else None,
            "rules": self.rules,
            "resolve_icc": self.resolve_icc,
            "baseline": self.baseline,
            "state": self.state,
            "attempts": self.attempts,
            "workers": list(self.workers),
            "faults": list(self.faults),
            "backoffs_s": [round(b, 6) for b in self.backoffs_s],
            "engine": self.engine,
            "verdict": self.verdict,
            "risk_score": self.risk_score,
            "findings": self.findings,
            "modeled_latency_s": self.modeled_latency_s,
            "error": self.error,
        }
