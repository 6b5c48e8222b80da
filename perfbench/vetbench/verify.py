"""Output checks that feed ``ok_frac``.

Every run checks its outputs after the timed phase (outside it and
outside ``setup_s``):

* every app's verdict, risk and findings against the committed digest
  in ``perfbench/digests.json`` when the run's ``(seed, apps)`` has one
  (the default seed does) -- this catches a change that alters vetting
  output on every path at once;
* a seeded sample of apps against independent references (the CPU
  reference IDFG, a cold vet, the serial pipeline -- see each workload);
* for the serve workloads, that every job was done exactly once.

An app is ok only if every check that covers it passes.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from vetbench.env import BENCH_DIR

DIGEST_FILE = BENCH_DIR / "digests.json"

#: Seed whose per-app digests are committed for the default run sizes.
DEFAULT_SEED = 1


def app_digest(
    package: str,
    verdict: Optional[str],
    risk: Optional[int],
    findings: Optional[int],
    severity_counts: Sequence[int],
) -> str:
    """Short stable digest of one app's vetting outcome."""
    blob = json.dumps(
        [package, verdict, risk, findings, list(severity_counts)],
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _digest_key(seed: int, apps: int) -> str:
    return f"{seed}:{apps}"


def committed_digests(workload: str, seed: int, apps: int) -> Optional[List[str]]:
    """The committed per-app digests for this run shape, if any."""
    if not DIGEST_FILE.exists():
        return None
    table = json.loads(DIGEST_FILE.read_text())
    return table.get(workload, {}).get(_digest_key(seed, apps))


def record_digests(workload: str, seed: int, digests: List[str]) -> None:
    """Commit ``digests`` as the expected outcome of this run shape."""
    table = json.loads(DIGEST_FILE.read_text()) if DIGEST_FILE.exists() else {}
    table.setdefault(workload, {})[_digest_key(seed, len(digests))] = digests
    DIGEST_FILE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def sample(seed: int, count: int, size: int) -> List[int]:
    """Seeded sample of app indices checked against the references."""
    rng = random.Random(f"verify:{seed}")
    return sorted(rng.sample(range(count), min(size, count)))


@dataclass
class Checked:
    """Per-app verdict of every check, plus what was checked."""

    ok: List[bool]
    problems: List[str] = field(default_factory=list)
    sampled: List[int] = field(default_factory=list)
    digest_checked: bool = False

    def fail(self, index: int, problem: str) -> None:
        if 0 <= index < len(self.ok):
            self.ok[index] = False
        self.problems.append(f"app {index}: {problem}")

    @property
    def ok_count(self) -> int:
        return sum(self.ok)

    def summary(self) -> Dict[str, object]:
        return {
            "ok": self.ok_count,
            "attempted": len(self.ok),
            "sampled": len(self.sampled),
            "digest_checked": self.digest_checked,
            "problems": self.problems[:20],
        }


def check_digests(
    checked: Checked, workload: str, seed: int, digests: List[Optional[str]]
) -> None:
    """Compare every app's digest with the committed one (if committed)."""
    expected = committed_digests(workload, seed, len(digests))
    if expected is None:
        return
    checked.digest_checked = True
    for index, (got, want) in enumerate(zip(digests, expected)):
        if got != want:
            checked.fail(index, f"outcome digest {got} != committed {want}")


class ReferenceWorkload:
    """The slice of a workload vetting reads, built from the CPU reference.

    :func:`repro.vetting.report.vet_workload` only reads
    ``analyzed_app`` and ``idfg``, so vetting this object is a cold vet
    whose IDFG comes from ``analyze_app_reference`` -- independent of
    the GDroid engine and of the summary store.
    """

    def __init__(self, app) -> None:
        from repro.cfg.environment import app_with_environments
        from repro.dataflow.worklist import analyze_app_reference

        self.analyzed_app = app_with_environments(app) if app.components else app
        self.idfg = analyze_app_reference(app)
