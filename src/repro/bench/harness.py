"""The analysis pipeline and the per-app evaluation harness.

:func:`run_pipeline` is the only code that turns an app and its options
into a result: one lint gate, one build step (whole app, backward slice
or summary-store replay), one pricing pass, one vet and one row.  Every
entry point calls it -- the serial and forked corpus sweeps, the
baseline sweep and both serving lanes -- so their rows agree by
construction.

Its pricing pass is :func:`evaluate_app`: the functional workload,
built once, priced under every platform -- the exact experiment matrix
behind the paper's Figures 4 and 8-12 and Tables I-II.  Results are
cached per (corpus identity, app index) inside a process so multiple
benchmarks over the same corpus never repeat the functional run.

:func:`evaluate_corpus` layers two more mechanisms on top:

* an incremental on-disk cache (:mod:`repro.bench.cache`) keyed by the
  corpus identity and the config-matrix fingerprint, so repeated
  sweeps across processes resume instead of recompute, and
* a ``jobs=N`` multiprocessing path (:mod:`repro.bench.parallel`) for
  the rows that still need evaluating.

Every run records a :class:`CorpusRunStats` (hits, misses, workers,
per-stage wall time) retrievable via :func:`last_run_stats`.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.apk.corpus import AppCorpus
from repro.bench.stats import size_mix
from repro.core.config import GDroidConfig
from repro.core.engine import AppWorkload, GDroid
from repro.cpu.amandroid import AmandroidModel
from repro.cpu.multicore import MulticoreWorklist
from repro.ir.app import AndroidApp


@dataclass(frozen=True)
class AppEvaluation:
    """Every number one app contributes to the paper's evaluation."""

    package: str
    category: str
    # Table I
    cfg_nodes: int
    methods: int
    variables: int
    max_worklist: int
    # Modeled times (seconds)
    plain_s: float
    mat_s: float
    grp_s: float
    full_s: float
    cpu_s: float
    ama_total_s: float
    ama_idfg_s: float
    # Fig. 10
    set_mem: int
    mat_mem: int
    # Table II
    iterations_sync: int
    iterations_mer: int
    visits_sync: int
    visits_mer: int
    wl_mix_sync: Tuple[int, int, int]
    wl_mix_mer: Tuple[int, int, int]
    #: Rule-pack findings per severity band, in
    #: :data:`repro.rules.findings.SEVERITIES` order
    #: (info, low, medium, high, critical).  All zeros when the sweep
    #: ran without a pack.
    finding_counts: Tuple[int, int, int, int, int] = (0, 0, 0, 0, 0)

    # -- derived ratios (the figures' y-axes) ---------------------------------

    @property
    def plain_vs_cpu(self) -> float:
        """Fig. 4: plain-GPU speedup over the 10-core CPU."""
        return self.cpu_s / self.plain_s

    @property
    def mat_speedup(self) -> float:
        """Fig. 9: MAT over plain."""
        return self.plain_s / self.mat_s

    @property
    def grp_speedup(self) -> float:
        """Fig. 11: MAT+GRP over MAT."""
        return self.mat_s / self.grp_s

    @property
    def mer_speedup(self) -> float:
        """Fig. 12: full GDroid over MAT+GRP."""
        return self.grp_s / self.full_s

    @property
    def gdroid_speedup(self) -> float:
        """Fig. 8: full GDroid over plain."""
        return self.plain_s / self.full_s

    @property
    def memory_ratio(self) -> float:
        """Fig. 10: matrix footprint / set footprint."""
        return self.mat_mem / self.set_mem if self.set_mem else 0.0

    @property
    def idfg_fraction(self) -> float:
        """Fig. 1: IDFG share of Amandroid's total."""
        return self.ama_idfg_s / self.ama_total_s if self.ama_total_s else 0.0

    @property
    def total_findings(self) -> int:
        """Rule-pack findings across all severity bands."""
        return sum(self.finding_counts)


@dataclass(frozen=True)
class LintErrorRow:
    """A row for an app the strict lint gate rejected.

    Produced by :func:`run_pipeline` under ``strict=True`` so one
    malformed app becomes a structured result instead of aborting the
    sweep.  Never cached: a strict run always re-verifies.
    """

    package: str
    category: str
    index: int
    #: Sorted distinct rule ids that fired (e.g. ``("FP-002",)``).
    rules: Tuple[str, ...]
    #: Total error-severity findings.
    error_count: int
    #: The one-line ``LintError`` message.
    message: str


@dataclass(frozen=True)
class TargetedSkipRow:
    """A row for an app the targeted pre-scan skipped entirely.

    Produced by targeted runs when none of the requested sinks is
    called anywhere in the app: there is nothing to slice, no IDFG is
    built, and the row records that (near-free) outcome.  Never
    cached -- the pre-scan is cheaper than a cache round-trip.
    """

    package: str
    category: str
    index: int
    #: The sink signatures that were asked about.
    targets: Tuple[str, ...]


@dataclass(frozen=True)
class IncrementalVetRow:
    """A row produced by a baseline-seeded incremental re-vet.

    Produced by :func:`run_pipeline` with a baseline app: the app is
    vetted through :func:`repro.dataflow.incremental.vet_incremental`
    after its baseline version seeded the summary store, and the row
    records the reuse accounting instead of the pricing matrix.  Never
    disk-cached -- reuse numbers are relative to this run's store
    state, so a cached copy would be meaningless.
    """

    package: str
    category: str
    index: int
    methods_total: int
    methods_reused: int
    methods_recomputed: int
    #: Modeled worklist visits of a from-scratch run vs this run.
    visits_cold: float
    visits_incremental: float
    modeled_speedup: float
    verdict: str
    risk_score: int
    flow_count: int
    finding_count: int


#: What one app evaluates to.
EvaluationRow = Union[
    AppEvaluation, LintErrorRow, TargetedSkipRow, IncrementalVetRow
]


#: The four GPU configurations of the cumulative evaluation.
_CONFIGS = {
    "plain": GDroidConfig.plain(),
    "mat": GDroidConfig.mat_only(),
    "grp": GDroidConfig.mat_grp(),
    "full": GDroidConfig.all_optimizations(),
}

#: Serving engines, healthiest first (the serve degradation ladder).
#: The engine only selects which modeled platform time is reported as
#: a result's latency; the row itself is engine-independent.
ENGINE_GDROID = "gdroid"
ENGINE_PLAIN = "plain-gpu"
ENGINE_CPU = "multicore-cpu"


def engine_latency_s(row, engine: str) -> Optional[float]:
    """Modeled single-app serving latency of ``row`` on ``engine``."""
    if not isinstance(row, AppEvaluation):
        return None
    return {
        ENGINE_GDROID: row.full_s,
        ENGINE_PLAIN: row.plain_s,
        ENGINE_CPU: row.cpu_s,
    }[engine]


def finding_severity_counts(findings) -> Tuple[int, int, int, int, int]:
    """Findings tallied per severity band, in ``SEVERITIES`` order."""
    from repro.rules.findings import SEVERITIES

    counts = [0] * len(SEVERITIES)
    for finding in findings:
        counts[SEVERITIES.index(finding.severity)] += 1
    return tuple(counts)


def evaluate_app(
    app: AndroidApp, workload: Optional[AppWorkload] = None
) -> AppEvaluation:
    """Price one app under the full experiment matrix.

    ``workload`` is the app's built workload (built here when omitted).
    The row carries no findings: :func:`run_pipeline` vets once and
    stamps the pack's per-severity counts onto it.
    """
    workload = workload or AppWorkload.build(app)
    priced = {
        name: GDroid(config).price(workload)
        for name, config in _CONFIGS.items()
    }
    with obs.span(f"cpu.analyze:{app.package}", category="price"):
        cpu = MulticoreWorklist().analyze(workload)
    with obs.span(f"amandroid.analyze:{app.package}", category="price"):
        amandroid = AmandroidModel().analyze(workload)
    profile = workload.profile
    return AppEvaluation(
        package=app.package,
        category=app.category,
        cfg_nodes=profile.cfg_nodes,
        methods=profile.methods,
        variables=profile.variables,
        max_worklist=profile.max_worklist,
        plain_s=priced["plain"].modeled_time_s,
        mat_s=priced["mat"].modeled_time_s,
        grp_s=priced["grp"].modeled_time_s,
        full_s=priced["full"].modeled_time_s,
        cpu_s=cpu.modeled_time_s,
        ama_total_s=amandroid.total_seconds,
        ama_idfg_s=amandroid.idfg_seconds,
        set_mem=workload.set_store_footprint(),
        mat_mem=workload.matrix_store_footprint(),
        iterations_sync=profile.iterations_sync,
        iterations_mer=profile.iterations_mer,
        visits_sync=profile.visits_sync,
        visits_mer=profile.visits_mer,
        wl_mix_sync=size_mix(profile.worklist_sizes_sync),
        wl_mix_mer=size_mix(profile.worklist_sizes_mer),
    )


def check_options(targets, baseline) -> None:
    """Reject the one option pair no entry point serves.

    A backward slice and a summary-store replay are two different build
    steps, so ``targets`` together with a ``baseline`` raises this one
    :class:`ValueError` from :func:`run_pipeline`,
    :func:`evaluate_corpus`, corpus job creation and the CLIs alike.
    """
    if targets is not None and baseline is not None:
        raise ValueError(
            "--baseline cannot be combined with --targets "
            "(an incremental re-vet is always a full vet)"
        )


def _rejection_row(app: AndroidApp, index: int, error) -> LintErrorRow:
    """The row of an app the strict gate rejected with ``error``."""
    errors = error.report.errors()
    return LintErrorRow(
        package=app.package,
        category=app.category,
        index=index,
        rules=tuple(sorted({d.rule for d in errors})),
        error_count=len(errors),
        message=str(error),
    )


def _lint_gate(app: AndroidApp, index: int) -> Optional[LintErrorRow]:
    """The strict lint gate: None when ``app`` passes, else its row."""
    import repro.lint as lint

    try:
        lint.check_app(app)
    except lint.LintError as error:
        return _rejection_row(app, index, error)
    return None


@dataclass
class PipelineResult:
    """What one :func:`run_pipeline` pass produces."""

    row: object
    verdict: Optional[str]
    risk_score: Optional[int]
    latency_s: Optional[float]
    #: Total rule-pack findings (None unless the pass ran with rules).
    findings: Optional[int] = None
    #: Summary-store reuse counters (None unless the pass re-vetted
    #: against a baseline): hits, misses, methods_reused,
    #: methods_recomputed, modeled_speedup, baseline_replayed -- plain
    #: JSON so pool workers can ship it.
    incremental: Optional[dict] = None


def run_pipeline(
    app: AndroidApp,
    index: int,
    engine: str,
    strict: bool,
    vet: bool,
    targets=None,
    rules=None,
    resolve_icc: bool = True,
    baseline_app: Optional[AndroidApp] = None,
    store=None,
) -> PipelineResult:
    """Lint gate -> build -> price -> vet, once, for one app.

    * **Gate.** Under ``strict`` the app passes the lint gate first; a
      rejection becomes a :class:`LintErrorRow` instead of an
      exception, whatever the build step.  A whole-app build gates
      through ``AppWorkload.build(lint_gate=True)``, whose FP-001
      audit runs on the plans the build compiles; the other build
      steps gate before they start.
    * **Build.** The whole app by default.  With ``targets`` (a
      :class:`repro.vetting.targeted.TargetSpec`) only the backward
      slice into those sinks; an app calling none of them yields a
      :class:`TargetedSkipRow` without building any IDFG.  With
      ``baseline_app`` (the previous version, or the app itself to
      model resubmission) a replay of the method-summary ``store``
      (default: the one under ``REPRO_CACHE_DIR``) that reuses every
      untouched SCC and yields an :class:`IncrementalVetRow` plus the
      reuse counters; a replay is not priced.
    * **Price.** A built workload is priced under the full experiment
      matrix; ``engine`` picks which modeled time is the latency.
    * **Vet.** Once, when ``vet`` or ``rules`` asks for it, with that
      latency as the report's analysis time.  Under ``rules`` (a
      :class:`repro.rules.pack.RulePack`) the row carries the pack's
      per-severity finding counts and the result their total.

    ``targets`` with a baseline is rejected (:func:`check_options`).
    """
    check_options(targets, baseline_app)
    whole_app = targets is None and baseline_app is None
    if strict and not whole_app:
        with obs.span(f"lint.gate:{app.package}", category="lint"):
            rejected = _lint_gate(app, index)
        if rejected is not None:
            return PipelineResult(rejected, None, None, None)
    report = latency = incremental = None
    if baseline_app is not None:
        from repro.dataflow import incremental as replay

        if store is None:
            store = replay.MethodSummaryStore()
        report, stats = replay.vet_incremental(
            app, baseline_app, store, rules=rules, resolve_icc=resolve_icc
        )
        row = IncrementalVetRow(
            package=app.package,
            category=app.category,
            index=index,
            methods_total=stats.methods_total,
            methods_reused=stats.methods_reused,
            methods_recomputed=stats.methods_recomputed,
            visits_cold=stats.visits_cold,
            visits_incremental=stats.visits_incremental,
            modeled_speedup=stats.modeled_speedup,
            verdict=report.verdict,
            risk_score=report.risk_score,
            flow_count=len(report.flows),
            finding_count=len(report.findings),
        )
        incremental = {
            "hits": stats.scc_hits,
            "misses": stats.scc_misses,
            "methods_reused": stats.methods_reused,
            "methods_recomputed": stats.methods_recomputed,
            "modeled_speedup": stats.modeled_speedup,
            "baseline_replayed": stats.baseline_replayed,
        }
    else:
        if targets is not None:
            from repro.vetting import targeted

            built = targeted.build_targeted_workload(app, targets)
            analyzed, workload = built.sliced_app, built.workload
            vet_built = functools.partial(targeted.vet_targeted_report, built)
        else:
            from repro.lint import LintError
            from repro.vetting import report as reporting

            analyzed = app
            try:
                workload = AppWorkload.build(app, lint_gate=strict)
            except LintError as error:
                return PipelineResult(
                    _rejection_row(app, index, error), None, None, None
                )
            vet_built = functools.partial(
                reporting.vet_workload, app, workload, resolve_icc=resolve_icc
            )
        if workload is None:
            row = TargetedSkipRow(
                package=app.package,
                category=app.category,
                index=index,
                targets=targets.sinks,
            )
            latency = 0.0
        else:
            row = evaluate_app(analyzed, workload)
            latency = engine_latency_s(row, engine)
        if vet or rules is not None:
            report = vet_built(analysis_time_s=latency or 0.0, rules=rules)
            if rules is not None and workload is not None:
                row = replace(
                    row,
                    finding_counts=finding_severity_counts(report.findings),
                )
    return PipelineResult(
        row=row,
        verdict=report.verdict if vet else None,
        risk_score=report.risk_score if vet else None,
        latency_s=latency,
        findings=len(report.findings) if rules is not None else None,
        incremental=incremental,
    )


def _relint_cached_row(
    app: AndroidApp, index: int, row: AppEvaluation
) -> "EvaluationRow":
    """Re-verify a cache-served row under the strict gate.

    Caches only ever hold :class:`AppEvaluation` rows, and nothing in a
    cache key says the row passed the lint gate -- it may have been
    written by a non-strict run, or the lint rules may have changed
    since.  A strict run therefore re-lints every cached row; a
    rejection replaces the row, upholding the "a strict run always
    re-verifies" contract.
    """
    with obs.span(f"relint[{index}]", category="lint", index=index):
        rejected = _lint_gate(app, index)
    return rejected or row


#: Process-wide evaluation cache:
#: (base_seed, size, profile fingerprint, index, targets fingerprint,
#: rules fingerprint) -> row.  The targets fingerprint is "" for
#: full-IDFG sweeps; the rules fingerprint is "" for pack-less sweeps.
_CACHE: Dict[Tuple[int, int, str, int, str, str], AppEvaluation] = {}


@dataclass
class CorpusRunStats:
    """Counters for one :func:`evaluate_corpus` call."""

    apps: int = 0
    #: Rows served from the in-process cache.
    process_hits: int = 0
    #: Rows served from the on-disk cache.
    disk_hits: int = 0
    #: Rows actually (re)evaluated this run.
    evaluated: int = 0
    #: Rows persisted to the on-disk cache this run.
    disk_stores: int = 0
    #: Corrupt on-disk entries purged during lookup.
    cache_purged: int = 0
    #: Crash-orphaned ``.tmp-*`` files swept when the cache opened.
    tmp_purged: int = 0
    #: Cache-served rows re-verified by the strict lint gate.
    strict_relints: int = 0
    #: Summary-store SCC hits/misses (baseline-seeded sweeps only).
    summary_hits: int = 0
    summary_misses: int = 0
    #: Method fixed points restored instead of recomputed.
    methods_reused: int = 0
    #: Requested worker count and what was actually used.
    jobs: int = 1
    workers: int = 1
    cache_enabled: bool = True
    #: Per-stage wall time (seconds).
    lookup_s: float = 0.0
    evaluate_s: float = 0.0
    store_s: float = 0.0
    total_s: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of rows served from either cache."""
        if not self.apps:
            return 0.0
        return (self.process_hits + self.disk_hits) / self.apps

    @property
    def apps_per_second(self) -> float:
        if self.total_s <= 0:
            return 0.0
        return self.apps / self.total_s

    def summary(self) -> str:
        """One-paragraph counter report for CLI / benchmark output."""
        cache = "on" if self.cache_enabled else "off"
        extras = ""
        if self.cache_purged:
            extras += f", {self.cache_purged} corrupt purged"
        if self.tmp_purged:
            extras += f", {self.tmp_purged} stale tmp swept"
        if self.strict_relints:
            extras += f", {self.strict_relints} strict re-lints"
        if self.summary_hits or self.summary_misses:
            extras += (
                f"\n  incremental: {self.summary_hits} summary hits, "
                f"{self.summary_misses} misses, "
                f"{self.methods_reused} methods reused"
            )
        return (
            f"corpus run: {self.apps} apps in {self.total_s:.2f}s "
            f"({self.apps_per_second:.2f} apps/s)\n"
            f"  cache [{cache}]: {self.process_hits} process hits, "
            f"{self.disk_hits} disk hits, {self.evaluated} misses "
            f"(hit rate {self.hit_rate:.0%}), {self.disk_stores} stored"
            f"{extras}\n"
            f"  workers: {self.workers}/{self.jobs} used/requested\n"
            f"  stages: lookup {self.lookup_s:.2f}s, "
            f"evaluate {self.evaluate_s:.2f}s, store {self.store_s:.2f}s"
        )


#: Counters from the most recent evaluate_corpus call in this process.
_LAST_RUN_STATS: Optional[CorpusRunStats] = None


def last_run_stats() -> Optional[CorpusRunStats]:
    """Counters for the most recent :func:`evaluate_corpus` call."""
    return _LAST_RUN_STATS


def _evaluate_incremental(
    corpus: AppCorpus,
    baseline,
    count: int,
    strict: bool,
    rules,
    disk,
    stats: CorpusRunStats,
) -> Dict[int, EvaluationRow]:
    """Baseline-seeded incremental sweep: one :func:`run_pipeline` per app.

    ``baseline`` provides the version-N app per index (any object with
    an ``app(index)`` method -- typically another :class:`AppCorpus`,
    or the corpus itself to model resubmission).  Rows are never
    cached; the summary store underneath -- the cache's ``summaries/``
    level, so ``no_cache`` turns it off too -- *is* the cache.
    """
    store = disk.summary_store()
    rows: Dict[int, EvaluationRow] = {}
    for index in range(count):
        with obs.span(
            f"incremental[{index}]", category="app", index=index
        ):
            result = run_pipeline(
                corpus.app(index), index, ENGINE_GDROID, strict, False,
                rules=rules, baseline_app=baseline.app(index), store=store,
            )
        rows[index] = result.row
        if result.incremental:
            stats.methods_reused += result.incremental["methods_reused"]
        stats.evaluated += 1
    stats.summary_hits = store.hits
    stats.summary_misses = store.misses
    return rows


def evaluate_corpus(
    corpus: AppCorpus,
    limit: Optional[int] = None,
    jobs: Optional[int] = None,
    no_cache: bool = False,
    strict: bool = False,
    targets=None,
    rules=None,
    baseline=None,
) -> List[EvaluationRow]:
    """Evaluate a corpus slice with caching and optional parallelism.

    Lookup order per app index: in-process cache, then the on-disk
    cache (unless disabled), then :func:`run_pipeline` -- serially, or
    fanned out over ``jobs`` forked workers (default from
    ``REPRO_BENCH_JOBS``).  Rows are returned in index order either
    way, and newly computed rows are persisted for the next run.

    Under ``strict=True`` every returned row has passed the lint gate
    *this run*: freshly evaluated apps are gated before evaluation, and
    cache-served rows are re-linted (a cached row proves nothing about
    the gate).  A rejected app contributes a :class:`LintErrorRow` at
    its index (never cached) and the sweep continues.

    With ``targets`` (a :class:`repro.vetting.targeted.TargetSpec`)
    every row is the *targeted* evaluation: the matrix priced on the
    app's backward slice, or a :class:`TargetedSkipRow` when the
    pre-scan finds no anchors.  Cache keys fingerprint the target set
    (in-process and on disk), so targeted rows and full rows never
    alias even for the same corpus index.

    With ``rules`` (a :class:`repro.rules.pack.RulePack` or a pack
    name/path for :func:`repro.rules.pack.load_pack`) every app is also
    vetted under the pack and its row carries per-severity finding
    counts.  Cache keys fingerprint the pack content, so rows vetted
    under different packs -- or under no pack -- never alias.

    With ``baseline`` (any object exposing ``app(index)``, typically
    the previous-version corpus -- or this corpus itself to model
    resubmission) every app is vetted *incrementally*: the baseline
    app seeds the cache's method-summary store, the new version reuses
    every untouched SCC, and the row is an :class:`IncrementalVetRow`
    carrying the reuse accounting (or a :class:`LintErrorRow` under
    ``strict``).  Incremental rows are never row-cached (the summary
    store underneath is the cache) and the sweep runs serially.
    ``targets`` with a ``baseline`` is rejected (:func:`check_options`).

    An explicit ``limit=0`` evaluates nothing; ``limit=None`` means the
    whole corpus.
    """
    global _LAST_RUN_STATS
    from repro.bench.cache import (
        EvaluationCache,
        cache_enabled,
        config_fingerprint,
        profile_fingerprint,
        row_key,
    )
    from repro.bench.parallel import evaluate_parallel, resolve_jobs

    check_options(targets, baseline)
    if limit is None:
        count = corpus.size
    else:
        count = max(0, min(limit, corpus.size))
    if isinstance(rules, str):
        from repro.rules.pack import load_pack

        rules = load_pack(rules)
    jobs = resolve_jobs(jobs)
    disk = EvaluationCache(enabled=cache_enabled(no_cache))
    stats = CorpusRunStats(
        apps=count, jobs=jobs, cache_enabled=disk.enabled,
        tmp_purged=disk.tmp_purged,
    )
    started = time.perf_counter()

    if baseline is not None:
        with obs.span(
            "corpus.evaluate", category="evaluate", missing=count
        ):
            rows = _evaluate_incremental(
                corpus, baseline, count, strict, rules, disk, stats
            )
        stats.evaluate_s = time.perf_counter() - started
        stats.total_s = stats.evaluate_s
        obs.count("corpus.apps", count)
        obs.count("corpus.evaluated", stats.evaluated)
        obs.count("corpus.tmp_purged", stats.tmp_purged)
        obs.count("corpus.cache_purged", stats.cache_purged)
        obs.count("corpus.incremental.summary_hits", stats.summary_hits)
        obs.count(
            "corpus.incremental.summary_misses", stats.summary_misses
        )
        obs.count(
            "corpus.incremental.methods_reused", stats.methods_reused
        )
        _LAST_RUN_STATS = stats
        return [rows[index] for index in range(count)]

    profile_fp = profile_fingerprint(corpus.profile)
    fingerprint = config_fingerprint(_CONFIGS) if disk.enabled else ""
    targets_fp = targets.fingerprint() if targets is not None else ""
    rules_fp = rules.fingerprint() if rules is not None else ""
    rows: Dict[int, EvaluationRow] = {}
    missing: List[int] = []
    disk_keys: Dict[int, str] = {}
    with obs.span("corpus.lookup", category="lookup", apps=count):
        for index in range(count):
            key = (
                corpus.base_seed, corpus.size, profile_fp, index,
                targets_fp, rules_fp,
            )
            row = _CACHE.get(key)
            if row is not None:
                stats.process_hits += 1
            elif disk.enabled:
                disk_keys[index] = row_key(
                    corpus.base_seed,
                    corpus.size,
                    profile_fp,
                    index,
                    fingerprint,
                    targets_fp,
                    rules_fp,
                )
                row = disk.load(disk_keys[index])
                if row is not None:
                    _CACHE[key] = row
            if row is None:
                missing.append(index)
                continue
            if strict:
                # The cache only proves the row was evaluated, not that
                # it passed the (possibly newer) lint rules.
                row = _relint_cached_row(corpus.app(index), index, row)
                stats.strict_relints += 1
            rows[index] = row
    stats.disk_hits = disk.hits
    stats.cache_purged = disk.purged
    stats.lookup_s = time.perf_counter() - started

    evaluated_at = time.perf_counter()
    if missing:
        with obs.span(
            "corpus.evaluate", category="evaluate", missing=len(missing)
        ):
            if jobs > 1 and len(missing) > 1:
                fresh = evaluate_parallel(
                    corpus, missing, jobs, strict=strict, targets=targets,
                    rules=rules,
                )
                stats.workers = min(jobs, len(missing))
            else:
                fresh = {}
                for index in missing:
                    with obs.span(f"app[{index}]", category="app", index=index):
                        fresh[index] = run_pipeline(
                            corpus.app(index), index, ENGINE_GDROID, strict,
                            False, targets, rules,
                        ).row
        stats.evaluated = len(missing)
        stats.evaluate_s = time.perf_counter() - evaluated_at

        stored_at = time.perf_counter()
        with obs.span("corpus.store", category="store"):
            for index in missing:
                row = fresh[index]
                rows[index] = row
                if not isinstance(row, AppEvaluation):
                    continue  # lint-error / targeted-skip rows: never cached
                _CACHE[
                    (corpus.base_seed, corpus.size, profile_fp, index,
                     targets_fp, rules_fp)
                ] = row
                if disk.enabled:
                    disk.store(disk_keys[index], row)
        stats.disk_stores = disk.stores
        stats.store_s = time.perf_counter() - stored_at

    stats.total_s = time.perf_counter() - started
    obs.count("corpus.apps", count)
    obs.count("corpus.process_hits", stats.process_hits)
    obs.count("corpus.disk_hits", stats.disk_hits)
    obs.count("corpus.evaluated", stats.evaluated)
    obs.count("corpus.strict_relints", stats.strict_relints)
    # Purge sweeps only ever surfaced on cache open; count them so the
    # run ledger (gdroid stats) shows them alongside the hit counters.
    obs.count("corpus.tmp_purged", stats.tmp_purged)
    obs.count("corpus.cache_purged", stats.cache_purged)
    _LAST_RUN_STATS = stats
    return [rows[index] for index in range(count)]
