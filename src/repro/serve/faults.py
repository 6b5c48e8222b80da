"""Pluggable fault injection for the vetting service.

Soak runs and tests turn these on (``gdroid serve --inject
worker-crash,oom``); production-shaped runs leave the injector empty
and every hook is a cheap "no".  All injection points are derived from
one seed, so a soak run is exactly reproducible: the same jobs crash
the same workers, the same apps arrive corrupt, the same stalls fire.

Kinds:

``worker-crash``
    The worker dies at a job boundary (``WorkerCrash``); every
    unfinished job of its in-flight batch is retried elsewhere and the
    worker restarts after a delay.
``oom``
    The device heap overflows mid-job -- injected through the real
    :class:`repro.gpu.allocator.DeviceAllocator` so the service sees a
    genuine :class:`~repro.gpu.allocator.DeviceOutOfMemory`.  The
    worker's device is marked unhealthy and degrades one rung down the
    engine ladder; the job retries.
``corrupt-apk``
    The app's container bytes are flipped before lifting, so the
    loader raises its structured :class:`~repro.apk.dex.GdxFormatError`.
    Deterministic, therefore *not retryable*: the job fails with a
    structured error.
``stall``
    The worker hangs before processing; a hang longer than the
    service's ``timeout_s`` ends as a ``timeout`` fault after
    ``timeout_s``, which exercises the timeout -> retry path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Set

WORKER_CRASH = "worker-crash"
DEVICE_OOM = "oom"
CORRUPT_APK = "corrupt-apk"
STALL = "stall"
TIMEOUT = "timeout"  # fault *tag* recorded on jobs; never injected directly

#: Kinds accepted by ``--inject`` / :func:`parse_inject`.
ALL_KINDS = frozenset({WORKER_CRASH, DEVICE_OOM, CORRUPT_APK, STALL})


class WorkerCrash(RuntimeError):
    """A simulated device worker died mid-batch."""


def parse_inject(spec: str) -> FrozenSet[str]:
    """Parse a ``--inject worker-crash,oom`` list; rejects unknowns."""
    kinds: Set[str] = set()
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if token not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {token!r} "
                f"(choose from {', '.join(sorted(ALL_KINDS))})"
            )
        kinds.add(token)
    return frozenset(kinds)


@dataclass(frozen=True)
class FaultConfig:
    """Shape of an injection campaign (all schedules derive from seed)."""

    kinds: FrozenSet[str] = frozenset()
    seed: int = 2020
    #: Crashes per worker over the horizon.
    crashes_per_worker: int = 1
    #: OOM events per worker over the horizon.
    ooms_per_worker: int = 1
    #: Fraction of jobs arriving with corrupt container bytes.
    corrupt_fraction: float = 0.08
    #: Fraction of jobs that stall, and for how long.
    stall_fraction: float = 0.05
    stall_s: float = 0.05


class FaultInjector:
    """Deterministic, seeded fault schedule over a known job horizon.

    ``horizon`` is the expected number of job *starts* per worker;
    crash/OOM points are drawn per worker within it, so every enabled
    kind actually fires during a soak of that size.
    """

    def __init__(
        self, config: FaultConfig, jobs: int, workers: int
    ) -> None:
        self.config = config
        self.workers = workers
        self.jobs = jobs
        per_worker = max(2, (jobs + workers - 1) // workers)
        self._crash_points: Dict[int, FrozenSet[int]] = {}
        self._oom_points: Dict[int, FrozenSet[int]] = {}
        for worker in range(workers):
            rng = random.Random(f"{config.seed}:faults:{worker}")
            population = list(range(1, per_worker + 1))
            crashes = min(config.crashes_per_worker, len(population))
            ooms = min(config.ooms_per_worker, len(population))
            self._crash_points[worker] = frozenset(
                rng.sample(population, crashes)
            )
            self._oom_points[worker] = frozenset(
                rng.sample(population, ooms)
            )
        rng = random.Random(f"{config.seed}:jobs")
        corrupt: Set[int] = set()
        stalled: Set[int] = set()
        for index in range(jobs):
            if rng.random() < config.corrupt_fraction:
                corrupt.add(index)
            if rng.random() < config.stall_fraction:
                stalled.add(index)
        self._corrupt = frozenset(corrupt)
        self._stalled = frozenset(stalled)
        #: Injections actually fired, per kind (observability).
        self.fired: Dict[str, int] = {}

    # -- hooks (each returns False/0.0 unless its kind is enabled) -----------

    def _fire(self, kind: str) -> bool:
        self.fired[kind] = self.fired.get(kind, 0) + 1
        return True

    def should_crash(self, worker: int, started: int) -> bool:
        """Crash ``worker`` as it starts its ``started``-th job?"""
        if WORKER_CRASH not in self.config.kinds:
            return False
        if started in self._crash_points.get(worker, frozenset()):
            return self._fire(WORKER_CRASH)
        return False

    def should_oom(self, worker: int, started: int) -> bool:
        """Blow the device heap during this worker's ``started``-th job?"""
        if DEVICE_OOM not in self.config.kinds:
            return False
        if started in self._oom_points.get(worker, frozenset()):
            return self._fire(DEVICE_OOM)
        return False

    def is_corrupt(self, index: int) -> bool:
        """Does the app at ``index`` arrive with corrupt bytes?"""
        if CORRUPT_APK not in self.config.kinds:
            return False
        if index in self._corrupt:
            return self._fire(CORRUPT_APK)
        return False

    def stall_seconds(self, index: int) -> float:
        """Pre-processing hang for the app at ``index`` (0.0 = none)."""
        if STALL not in self.config.kinds:
            return 0.0
        if index in self._stalled:
            self._fire(STALL)
            return self.config.stall_s
        return 0.0


#: Injector used when no faults are requested (every hook says no).
NULL_INJECTOR = FaultInjector(FaultConfig(), jobs=0, workers=1)


def build_injector(
    kinds: Iterable[str], seed: int, jobs: int, workers: int, **overrides
) -> FaultInjector:
    """Convenience constructor used by the CLI and tests."""
    config = FaultConfig(kinds=frozenset(kinds), seed=seed, **overrides)
    return FaultInjector(config, jobs=jobs, workers=workers)
