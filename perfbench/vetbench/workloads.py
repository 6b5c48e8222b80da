"""The three workloads: what each sets up, times and checks.

Each workload drives the program only through the entry points users
call -- ``load_gdx``, ``repro.serve.run_pipeline``, ``vet_incremental``
and ``serve_stream`` -- always through their module attribute, so a
traced run's wrappers (:mod:`vetbench.spans`) see every call.

A workload object is stateless; :meth:`setup` returns the state one
run uses.  ``run`` is the timed phase and returns an :class:`Outcome`;
``verify`` checks it (see :mod:`vetbench.verify`).
"""

from __future__ import annotations

import random
import resource
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.apk import loader
from repro.apk.generator import AppGenerator, GeneratorProfile, mutate_app
from repro.bench.harness import AppEvaluation, finding_severity_counts
from repro.core.engine import AppWorkload
from repro.dataflow import incremental
from repro.rules.pack import load_pack
from repro.serve import service, workers
from repro.serve.jobs import JobState, VetJob
from repro.serve.journal import EV_COMPLETE, replay_journal
from repro.serve.sharder import classify
from repro.vetting.report import vet_app, vet_workload

from vetbench import inputs, verify
from vetbench.stats import cpu_seconds

#: Rule pack every workload vets under.
PACK = "exfiltration"
#: Serving engine rung named to ``run_pipeline`` (the healthy device).
ENGINE = workers.ENGINE_GDROID


@dataclass
class AppOutcome:
    """What the program returned for one app, as the checks need it."""

    package: str
    verdict: Optional[str]
    risk: Optional[int]
    findings: Optional[int]
    severity_counts: tuple
    #: The full result (pipeline result, vetting report or served job).
    detail: object = None

    def digest(self) -> str:
        return verify.app_digest(
            self.package, self.verdict, self.risk, self.findings,
            self.severity_counts,
        )


@dataclass
class Outcome:
    """One timed phase."""

    #: Timed-phase wall time (s).
    wall_s: float
    #: Per-app time to verdict (s), by app index.
    latencies: List[float]
    #: Per-app outcome by index (None: the app produced nothing).
    apps: List[Optional[AppOutcome]]
    #: CPU seconds of the benchmark process and its reaped workers.
    cpu_s: float
    extra: Dict[str, object] = field(default_factory=dict)


def _pipeline_outcome(package: str, result) -> AppOutcome:
    row = result.row
    counts = row.finding_counts if isinstance(row, AppEvaluation) else ()
    return AppOutcome(
        package, result.verdict, result.risk_score, result.findings,
        tuple(counts), detail=result,
    )


def _report_outcome(package: str, report) -> AppOutcome:
    return AppOutcome(
        package, report.verdict, report.risk_score, len(report.findings),
        finding_severity_counts(report.findings), detail=report,
    )


def _check_row(checked: verify.Checked, index: int, row) -> None:
    if not isinstance(row, AppEvaluation):
        checked.fail(index, f"refused: {type(row).__name__}")


class Workload:
    name = ""
    #: Apps per second of ``--seconds``: sizes the run so its timed
    #: phase lasts about ``--seconds`` (see perfbench/README.md).
    apps_per_second: float
    #: Apps checked against the independent references per run.
    verify_sample = 10
    scale = inputs.SCALE

    def size(self, seconds: int) -> int:
        return max(1, round(self.apps_per_second * seconds))

    def _generator(self) -> AppGenerator:
        return AppGenerator(GeneratorProfile(scale=self.scale))

    # A traced run makes two passes over one set-up: untraced, then
    # traced.  Workloads whose first pass changes durable state put it
    # back in between.

    def snapshot(self, state) -> None:
        """Before the first pass."""

    def restore(self, state) -> None:
        """Between the two passes."""

    def wall_speedup(self, state, plain: Outcome) -> Optional[float]:
        """``incremental.wall_speedup`` (only ``revet`` has one)."""
        return None


# -- ingest --------------------------------------------------------------------


@dataclass
class IngestState:
    paths: List[Path]
    packages: List[str]
    pack: object


class Ingest(Workload):
    """Closed loop, one client: load, lint-gated pipeline, vet, per app."""

    name = "ingest"
    apps_per_second = 8.0

    def setup(self, seed: int, count: int, work: Path) -> IngestState:
        specs = inputs.draw_apps(seed, count)
        generator = self._generator()
        apps = [generator.generate(spec.seed) for spec in specs]
        paths = inputs.write_apps(apps, work / "apps")
        pack = load_pack(PACK)
        warm = generator.generate(inputs.WARMUP_SEED)
        (warm_path,) = inputs.write_apps([warm], work / "warmup")
        workers.run_pipeline(
            loader.load_gdx(warm_path), -1, ENGINE, True, True, rules=pack
        )
        return IngestState(paths, [app.package for app in apps], pack)

    def run(self, state: IngestState, recorder=None) -> Outcome:
        apps: List[Optional[AppOutcome]] = []
        latencies = []
        cpu0 = cpu_seconds()
        begin = time.perf_counter()
        for index, path in enumerate(state.paths):
            start = time.perf_counter()
            with recorder.span("bench.app", index) if recorder else nullcontext():
                app = loader.load_gdx(path)
                result = workers.run_pipeline(
                    app, index, ENGINE, True, True, rules=state.pack
                )
            latencies.append(time.perf_counter() - start)
            apps.append(_pipeline_outcome(state.packages[index], result))
        wall = time.perf_counter() - begin
        return Outcome(wall, latencies, apps, cpu_seconds() - cpu0)

    def verify(self, state: IngestState, outcome: Outcome, seed: int) -> verify.Checked:
        """Digests for every app; for the sample, the GDroid IDFG must
        equal the CPU reference IDFG, and vetting the reference IDFG must
        reproduce the served verdict, risk and findings."""
        checked = verify.Checked(ok=[True] * len(state.paths))
        for index, app_outcome in enumerate(outcome.apps):
            _check_row(checked, index, app_outcome.detail.row)
        verify.check_digests(
            checked, self.name, seed, [a.digest() for a in outcome.apps]
        )
        checked.sampled = verify.sample(seed, len(state.paths), self.verify_sample)
        for index in checked.sampled:
            app = loader.load_gdx(state.paths[index])
            reference = verify.ReferenceWorkload(app)
            engine_idfg = AppWorkload.build(app, lint_gate=True).idfg
            if not engine_idfg.equivalent_to(reference.idfg):
                checked.fail(index, "GDroid IDFG differs from the CPU reference")
            cold = _report_outcome(
                app.package, vet_workload(app, reference, rules=state.pack)
            )
            if cold.digest() != outcome.apps[index].digest():
                checked.fail(index, "verdict/risk/findings differ from a reference vet")
        return checked


# -- revet ---------------------------------------------------------------------


@dataclass
class RevetState:
    specs: List[inputs.AppSpec]
    #: ``versions[r][i]``: app ``i`` at version ``r`` (0 is the oldest).
    versions: List[List[Path]]
    packages: List[str]
    pack: object
    store_root: Path

    def job(self, index: int):
        """``(new, old)`` containers of re-vet job ``index``."""
        count = len(self.specs)
        bump, app = divmod(index, count)
        return self.versions[bump + 1][app], self.versions[bump][app]



class Revet(Workload):
    """Closed loop, one client: version N+1 re-vetted against version N.

    Each app gets :attr:`bumps` successive version bumps.  Set-up seeds
    the store with every first version; each later re-vet finds its
    version N stored by the one before, as a store serving many apps'
    release histories does.  Jobs run bump by bump: every app's first
    bump, then every app's second, and so on.  Many bumps over few apps
    keep the timed phase long while set-up, which seeds the store with
    a cold analysis of every app, stays short.  :attr:`bumps` is a
    multiple of four, so every app gets each bump size of
    :func:`vetbench.inputs.bump_plan` equally often.
    """

    name = "revet"
    apps_per_second = 2.4
    verify_sample = 12
    bumps = 8

    def setup(self, seed: int, count: int, work: Path) -> RevetState:
        specs = inputs.draw_apps(seed, count)
        generator = self._generator()
        chain = [[generator.generate(spec.seed) for spec in specs]]
        plan = inputs.bump_plan(
            specs, [len(app.methods) for app in chain[0]], seed, self.bumps
        )
        rng = random.Random(f"bump-seeds:{seed}")
        for sizes in plan:
            chain.append(
                [
                    mutate_app(app, seed=rng.randrange(2**31), count=size)[0]
                    for app, size in zip(chain[-1], sizes)
                ]
            )
        versions = [
            inputs.write_apps(apps, work / f"v{number}")
            for number, apps in enumerate(chain)
        ]
        pack = load_pack(PACK)
        store_root = work / "summaries"
        store = incremental.MethodSummaryStore(root=store_root)
        for app in chain[0]:
            incremental.analyze_app_incremental(app, store)
        warm_old = generator.generate(inputs.WARMUP_SEED)
        warm_new, _ = mutate_app(warm_old, seed=0, count=2)
        (warm_old_path, warm_new_path) = inputs.write_apps(
            [warm_old, warm_new], work / "warmup"
        )
        incremental.vet_incremental(
            loader.load_gdx(warm_new_path),
            loader.load_gdx(warm_old_path),
            store,
            rules=pack,
        )
        return RevetState(
            specs, versions, [app.package for app in chain[0]], pack, store_root
        )

    def snapshot(self, state: RevetState) -> None:
        """Keep the freshly seeded store so a second pass starts from it."""
        shutil.copytree(state.store_root, state.store_root.with_suffix(".seeded"))

    def restore(self, state: RevetState) -> None:
        shutil.rmtree(state.store_root)
        shutil.copytree(state.store_root.with_suffix(".seeded"), state.store_root)

    def run(self, state: RevetState, recorder=None) -> Outcome:
        store = incremental.MethodSummaryStore(root=state.store_root)
        count = len(state.specs)
        apps: List[Optional[AppOutcome]] = []
        latencies = []
        stats = []
        cpu0 = cpu_seconds()
        begin = time.perf_counter()
        for index in range(count * self.bumps):
            new_path, old_path = state.job(index)
            start = time.perf_counter()
            with recorder.span("bench.app", index) if recorder else nullcontext():
                new = loader.load_gdx(new_path)
                old = loader.load_gdx(old_path)
                report, stat = incremental.vet_incremental(
                    new, old, store, rules=state.pack
                )
            latencies.append(time.perf_counter() - start)
            apps.append(_report_outcome(state.packages[index % count], report))
            stats.append(stat)
        wall = time.perf_counter() - begin
        return Outcome(
            wall, latencies, apps, cpu_seconds() - cpu0, extra={"stats": stats}
        )

    def wall_speedup(self, state: RevetState, plain: Outcome) -> float:
        """Cold vets (``gdroid vet NEW``) of the first bump's new versions
        over the untraced re-vets of the same versions."""
        count = len(state.specs)
        begin = time.perf_counter()
        for index in range(count):
            vet_app(loader.load_gdx(state.job(index)[0]), rules=state.pack)
        return (time.perf_counter() - begin) / sum(plain.latencies[:count])

    def verify(self, state: RevetState, outcome: Outcome, seed: int) -> verify.Checked:
        """Digests for every job; for the sample, the store-replayed IDFG
        must equal the CPU reference IDFG, and each re-vet's flows, ICC
        and linked flows, verdict, risk and findings must equal a cold
        vet of the same version."""
        jobs = len(outcome.apps)
        checked = verify.Checked(ok=[True] * jobs)
        verify.check_digests(
            checked, self.name, seed, [a.digest() for a in outcome.apps]
        )
        store = incremental.MethodSummaryStore(root=state.store_root)
        checked.sampled = verify.sample(seed, jobs, self.verify_sample)
        for index in checked.sampled:
            app = loader.load_gdx(state.job(index)[0])
            reference = verify.ReferenceWorkload(app)
            replayed = incremental.analyze_app_incremental(app, store).idfg
            if not replayed.equivalent_to(reference.idfg):
                checked.fail(index, "incremental IDFG differs from the CPU reference")
            cold = vet_workload(app, reference, rules=state.pack)
            served = outcome.apps[index].detail
            for attribute in (
                "flows", "icc_flows", "linked_flows", "risk_score", "verdict",
                "findings",
            ):
                if getattr(cold, attribute) != getattr(served, attribute):
                    checked.fail(index, f"re-vet {attribute} differ from a cold vet")
        return checked


# -- serve ---------------------------------------------------------------------


class BacklogFeed:
    """Admission feed for ``serve_stream``: every job due at once.

    Jobs are due when the feed starts (when the service begins pulling
    jobs, after the worker pool is up), as with ``gdroid submit`` of a
    backlog.  ``late`` records how long after that each job was handed
    over -- how long admission back-pressure held it.
    """

    def __init__(self, jobs: List[VetJob]) -> None:
        self._jobs = jobs
        self.t0: Optional[float] = None
        self.late: List[float] = []

    async def jobs(self):
        self.t0 = time.time()
        for job in self._jobs:
            self.late.append(time.time() - self.t0)
            yield job


@dataclass
class ServeState:
    paths: List[Path]
    packages: List[str]
    sizes: List[int]
    work: Path
    passes: int = 0


class ServeBurst(Workload):
    """``serve_stream`` over a backlog all due at once: process pool,
    2 workers."""

    name = "serve-burst"
    apps_per_second = 14.0
    verify_sample = 12
    #: Worker processes (the 2-vCPU reference host's ``nproc``).
    workers = 2

    def setup(self, seed: int, count: int, work: Path) -> ServeState:
        specs = inputs.draw_apps(seed, count)
        generator = self._generator()
        apps = [generator.generate(spec.seed) for spec in specs]
        paths = inputs.write_apps(apps, work / "apps")
        # Workers resolve the pack by name through this per-process
        # cache; loading it here is the set-up's pack load, and forked
        # workers inherit it.
        workers.resolve_pack.cache_clear()
        pack = workers.resolve_pack(PACK)
        warm = generator.generate(inputs.WARMUP_SEED)
        (warm_path,) = inputs.write_apps([warm], work / "warmup")
        workers.run_pipeline(
            loader.load_gdx(warm_path), -1, ENGINE, True, True, rules=pack
        )
        return ServeState(
            paths, [app.package for app in apps],
            [path.stat().st_size for path in paths], work,
        )

    def config(self, state: ServeState) -> service.ServeConfig:
        state.passes += 1
        run_dir = state.work / f"serve-{state.passes}"
        return service.ServeConfig(
            workers=self.workers,
            pool="process",
            start_method="fork",
            strict=True,
            vet=True,
            journal_path=str(run_dir / "journal.jsonl"),
            state_dir=str(run_dir / "state"),
        )

    def run(self, state: ServeState, recorder=None) -> Outcome:
        if recorder is not None:
            # Workers only see a job's .gdx path when they load it.
            recorder.requests_by_path.update(
                {str(path): index for index, path in enumerate(state.paths)}
            )
        jobs = [
            VetJob(
                job_id=f"job-{index:04d}",
                index=index,
                package=package,
                source=str(path),
                # File bytes stand in for CFG nodes, as for --watch feeds.
                est_cost=float(size),
                size_class=classify(size / 12.0),
                rules=PACK,
            )
            for index, (path, package, size) in enumerate(
                zip(state.paths, state.packages, state.sizes)
            )
        ]
        feed = BacklogFeed(jobs)
        config = self.config(state)
        own0 = cpu_seconds()
        children0 = cpu_seconds(resource.RUSAGE_CHILDREN)
        begin = time.perf_counter()
        report = service.serve_stream(feed, config)
        serve_wall = time.perf_counter() - begin
        own = cpu_seconds() - own0
        children = cpu_seconds(resource.RUSAGE_CHILDREN) - children0

        events = replay_journal(config.journal_path).records
        completes: Dict[str, List[float]] = {}
        for event in events:
            if event["ev"] == EV_COMPLETE:
                completes.setdefault(event["job"], []).append(event["at"])
        latencies = []
        apps: List[Optional[AppOutcome]] = []
        finished = []
        for job in jobs:
            done_at = completes.get(job.job_id)
            if job.state != JobState.DONE or not done_at:
                latencies.append(float("nan"))
                apps.append(None)
                continue
            finished.append(min(done_at))
            latencies.append(min(done_at) - feed.t0)
            counts = job.row.finding_counts if isinstance(job.row, AppEvaluation) else ()
            apps.append(
                AppOutcome(
                    job.package, job.verdict, job.risk_score, job.findings,
                    tuple(counts), detail=job,
                )
            )
        wall = (max(finished) - feed.t0) if finished else serve_wall
        return Outcome(
            wall, latencies, apps, own + children,
            extra={
                "report": report,
                "events": events,
                "completes": completes,
                "feed": feed,
                "serve_wall_s": serve_wall,
                "orchestrator_cpu_s": own,
            },
        )

    def verify(self, state: ServeState, outcome: Outcome, seed: int) -> verify.Checked:
        """Every job done exactly once; digests for every job; for the
        sample, row, verdict, risk and findings equal to the serial
        ``run_pipeline`` result for the same ``.gdx``."""
        checked = verify.Checked(ok=[True] * len(state.paths))
        report = outcome.extra["report"]
        completes = outcome.extra["completes"]
        if report.lost or report.duplicates:
            checked.problems.append(
                f"service lost {report.lost}, duplicated {report.duplicates}"
            )
        by_index = {job.index: job for job in report.jobs}
        for index in range(len(state.paths)):
            job = by_index.get(index)
            if job is None or outcome.apps[index] is None:
                checked.fail(index, "job never completed")
                continue
            if len(completes.get(job.job_id, [])) != 1:
                checked.fail(
                    index, f"{len(completes.get(job.job_id, []))} complete records"
                )
            _check_row(checked, index, job.row)
        if report.duplicates:
            checked.ok = [False] * len(checked.ok)
        digests = [a.digest() if a is not None else None for a in outcome.apps]
        verify.check_digests(checked, self.name, seed, digests)
        checked.sampled = verify.sample(seed, len(state.paths), self.verify_sample)
        pack = workers.resolve_pack(PACK)
        for index in checked.sampled:
            job = by_index.get(index)
            if job is None:
                continue
            serial = workers.run_pipeline(
                loader.load_gdx(state.paths[index]), index, ENGINE, True, True,
                rules=pack,
            )
            if (serial.row, serial.verdict, serial.risk_score, serial.findings) != (
                job.row, job.verdict, job.risk_score, job.findings,
            ):
                checked.fail(index, "served result differs from the serial pipeline")
        return checked


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (Ingest(), Revet(), ServeBurst())
}
