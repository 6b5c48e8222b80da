"""Demand-driven targeted vetting: pre-scan, backward slice, sliced IDFG.

Full vetting builds the whole-app IDFG to fixpoint even when the
caller only asks about a handful of sinks -- the dominant cost on
large apps.  BackDroid (*When Program Analysis Meets Bytecode Search*)
shows the demand-driven alternative: search the bytecode for the
security APIs of interest first, then analyze only the program slice
that can reach them.  This module is that pipeline:

1. **Pre-scan** -- :func:`scan_blob` does a raw substring search over
   a packed ``.gdx`` container (both GDX1 concrete syntax and GDX2
   pooled bytecode intern callee signatures as UTF-8 strings), and
   :func:`find_anchors` walks the parsed IR for the precise call sites
   of the requested sink signatures.  No IDFG, no fixpoint.
2. **Backward slice** -- :func:`backward_slice` closes the anchor
   methods over the call graph: every transitive internal callee (so
   summaries and fact spaces stay bit-identical), every *taint-
   relevant* transitive caller (they can push tainted arguments down),
   and the taint-relevant writers of every global a slice member
   touches (they feed the cross-method global channel).
3. **Sliced run** -- :func:`build_targeted_workload` feeds the slice
   through the unchanged :class:`repro.core.engine.AppWorkload`
   machinery, so the sliced worklist reuses the same packed-bitset
   fast paths and produces bit-identical per-method facts for every
   slice member.

Soundness: methods outside the taint-relevance over-approximation can
never hold a tainted instance (no source reaches them through the
call-down, return-up or global channel), so excluding them changes no
provenance at any anchored sink.  The full-IDFG path stays untouched
as the precision oracle; ``tests/test_targeted.py`` asserts flow-set
equality against it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.cfg.callgraph import CallGraph
from repro.cfg.environment import app_with_environments
from repro.core.config import GDroidConfig, TuningParameters
from repro.core.engine import AppWorkload, GDroid, _lint_gate_enabled
from repro.ir.app import AndroidApp
from repro.ir.expressions import StaticFieldAccessExpr
from repro.ir.method import Method
from repro.ir.statements import AssignmentStatement, callee_of
from repro.vetting.sources_sinks import (
    DEFAULT_REGISTRY,
    KIND_SINK,
    ApiRegistry,
    is_source,
)


class TargetSpecError(ValueError):
    """A target token does not name a known sink or sink category."""


@dataclass(frozen=True)
class TargetSpec:
    """The normalized set of sink signatures a targeted run asks about."""

    sinks: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sinks", tuple(sorted(set(self.sinks))))

    def __bool__(self) -> bool:
        return bool(self.sinks)

    def __len__(self) -> int:
        return len(self.sinks)

    def __contains__(self, signature: str) -> bool:
        return signature in self.sinks

    @classmethod
    def parse(
        cls, text: str, registry: ApiRegistry = DEFAULT_REGISTRY
    ) -> "TargetSpec":
        """Parse a comma-separated target list.

        Each token is either a full sink signature or a sink category
        (``SMS``, ``NETWORK``, ...), which expands to every sink of
        that category.  Unknown tokens raise :class:`TargetSpecError`
        naming the valid choices.
        """
        sinks: Set[str] = set()
        for token in (t.strip() for t in text.split(",")):
            if not token:
                continue
            entry = registry.get(token)
            if entry is not None and entry.kind == KIND_SINK:
                sinks.add(token)
                continue
            by_category = registry.signatures(
                kind=KIND_SINK, category=token.upper()
            )
            if by_category:
                sinks.update(by_category)
                continue
            known = ", ".join(registry.categories(kind=KIND_SINK))
            raise TargetSpecError(
                f"unknown sink target {token!r}; expected a sink "
                f"signature or one of the categories: {known}"
            )
        return cls(sinks=tuple(sinks))

    @classmethod
    def from_file(
        cls, path: "Path | str", registry: ApiRegistry = DEFAULT_REGISTRY
    ) -> "TargetSpec":
        """Parse targets from a file, one token per line (# comments)."""
        tokens = []
        for line in Path(path).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                tokens.append(line)
        return cls.parse(",".join(tokens), registry)

    @classmethod
    def all_sinks(
        cls, registry: ApiRegistry = DEFAULT_REGISTRY
    ) -> "TargetSpec":
        """Every registered sink (targeted machinery, full coverage)."""
        return cls(sinks=registry.signatures(kind=KIND_SINK))

    def fingerprint(self) -> str:
        """Stable digest of the target set (cache-key component)."""
        digest = hashlib.sha256("\n".join(self.sinks).encode("utf-8"))
        return digest.hexdigest()[:16]

    def describe(self) -> str:
        """Short human-readable form (for logs and reports)."""
        from repro.vetting.sources_sinks import sink_category

        return ",".join(
            sorted({sink_category(s) or s for s in self.sinks})
        )


@dataclass(frozen=True)
class Anchor:
    """One call site of a targeted sink, found by the pre-scan."""

    method: str
    label: str
    sink_api: str


def scan_blob(blob: bytes, spec: TargetSpec) -> Tuple[str, ...]:
    """Sink signatures of ``spec`` present in a packed ``.gdx`` blob.

    A raw substring search: GDX1 stores statements in concrete syntax
    and GDX2 interns callee signatures in its string pool, so a sink's
    UTF-8 bytes appear in the container iff some statement (or pooled
    string) references it.  The scan never misses a real call site; a
    hit only means the precise IR scan (:func:`find_anchors`) is worth
    running.  An app whose blob contains none of the targets can skip
    parsing and analysis entirely.
    """
    return tuple(
        sink for sink in spec.sinks if sink.encode("utf-8") in blob
    )


def scan_gdx(path: "Path | str", spec: TargetSpec) -> Tuple[str, ...]:
    """:func:`scan_blob` over a ``.gdx`` file on disk."""
    return scan_blob(Path(path).read_bytes(), spec)


def find_anchors(app: AndroidApp, spec: TargetSpec) -> List[Anchor]:
    """Precise call sites of the targeted sinks in the parsed IR."""
    anchors: List[Anchor] = []
    for method in app.methods:
        for statement in method.statements:
            callee = callee_of(statement)
            if callee is not None and callee in spec.sinks:
                anchors.append(
                    Anchor(
                        method=str(method.signature),
                        label=statement.label,
                        sink_api=callee,
                    )
                )
    return anchors


# -- taint relevance -----------------------------------------------------------


def _direct_globals(method: Method) -> Tuple[Set[str], Set[str]]:
    """(reads, writes) of global slots appearing in the method body."""
    reads: Set[str] = set()
    writes: Set[str] = set()
    for statement in method.statements:
        if not isinstance(statement, AssignmentStatement):
            continue
        if isinstance(statement.rhs, StaticFieldAccessExpr):
            reads.add(statement.rhs.global_slot)
        if isinstance(statement.lhs_access, StaticFieldAccessExpr):
            writes.add(statement.lhs_access.global_slot)
    return reads, writes


def taint_relevant_methods(
    app: AndroidApp, call_graph: CallGraph
) -> FrozenSet[str]:
    """Over-approximate the methods that can ever hold a tainted instance.

    A cheap boolean fixpoint over method-level facts, mirroring the
    three channels of :class:`repro.vetting.taint.TaintAnalysis`:

    * seed: the method calls a source API;
    * calls down: callees of a relevant method may receive tainted
      arguments;
    * returns up: callers of a relevant method may receive a tainted
      return (or launder taint through an external call they own);
    * globals across: once any relevant method writes a global, every
      reader of that global may observe taint.

    Methods outside this set have no tainted instances in the full
    analysis either, so dropping them from a slice cannot change any
    anchored flow.
    """
    has_source: Set[str] = set()
    reads_of: Dict[str, Set[str]] = {}
    writes_of: Dict[str, Set[str]] = {}
    for method in app.methods:
        signature = str(method.signature)
        reads_of[signature], writes_of[signature] = _direct_globals(method)
        if any(is_source(callee) for callee in method.callees()):
            has_source.add(signature)

    relevant: Set[str] = set(has_source)
    tainted_globals: Set[str] = set()
    frontier = list(relevant)
    while frontier:
        next_frontier: Set[str] = set()
        for signature in frontier:
            for neighbor in call_graph.callees(signature):
                if neighbor not in relevant:
                    next_frontier.add(neighbor)
            for neighbor in call_graph.callers(signature):
                if neighbor not in relevant:
                    next_frontier.add(neighbor)
            fresh_globals = writes_of[signature] - tainted_globals
            if fresh_globals:
                tainted_globals |= fresh_globals
                for other, reads in reads_of.items():
                    if other not in relevant and reads & fresh_globals:
                        next_frontier.add(other)
        relevant |= next_frontier
        frontier = list(next_frontier)
    return frozenset(relevant)


# -- the backward slice --------------------------------------------------------


@dataclass(frozen=True)
class SliceResult:
    """Outcome of the backward closure from the anchors."""

    anchors: Tuple[Anchor, ...]
    #: Method signatures the sliced analysis must include.
    members: FrozenSet[str]
    #: The taint-relevance over-approximation used for callers/writers.
    relevant: FrozenSet[str]


def backward_slice(
    app: AndroidApp,
    anchors: Sequence[Anchor],
    call_graph: Optional[CallGraph] = None,
) -> SliceResult:
    """Close the anchor methods over the three taint channels.

    The closure iterates three rules to a fixed point:

    * **callees** -- every internal transitive callee of a member
      joins.  Required unconditionally: a member's fact space and
      summary are functions of its callees' footprints/summaries, so
      bit-identity of the sliced facts needs the full callee cone.
    * **relevant callers** -- a direct caller joins iff it is taint-
      relevant: only relevant callers can push tainted arguments into
      a member's ``("param", j)`` instances.
    * **relevant global writers** -- for every global a member touches,
      the taint-relevant methods writing it directly join: they are
      the origins of that global's cross-method taint (their callers,
      whose exit facts repeat the write via summary substitution, join
      through the relevant-callers rule).
    """
    call_graph = call_graph or CallGraph(app)
    relevant = taint_relevant_methods(app, call_graph)

    writers_of: Dict[str, Set[str]] = {}
    for method in app.methods:
        signature = str(method.signature)
        _, writes = _direct_globals(method)
        for name in writes:
            writers_of.setdefault(name, set()).add(signature)

    members: Set[str] = {anchor.method for anchor in anchors}
    frontier = list(members)
    seen_globals: Set[str] = set()
    while frontier:
        next_frontier: Set[str] = set()
        for signature in frontier:
            for callee in call_graph.callees(signature):
                if callee not in members:
                    next_frontier.add(callee)
            for caller in call_graph.callers(signature):
                if caller in relevant and caller not in members:
                    next_frontier.add(caller)
            reads, writes = _direct_globals(app.method_table[signature])
            for name in (reads | writes) - seen_globals:
                seen_globals.add(name)
                for writer in writers_of.get(name, ()):
                    if writer in relevant and writer not in members:
                        next_frontier.add(writer)
        members |= next_frontier
        frontier = list(next_frontier)
    return SliceResult(
        anchors=tuple(anchors),
        members=frozenset(members),
        relevant=relevant,
    )


def restrict_app(app: AndroidApp, members: FrozenSet[str]) -> AndroidApp:
    """The sub-app containing exactly the slice members.

    Components are dropped (environment synthesis already ran before
    slicing, so its methods are ordinary members here) and the global
    table is filtered to slots the slice references.
    """
    methods = tuple(
        method
        for method in app.methods
        if str(method.signature) in members
    )
    referenced: Set[str] = set()
    for method in methods:
        reads, writes = _direct_globals(method)
        referenced |= reads | writes
    globals_kept = tuple(
        g for g in app.global_fields if g.name in referenced
    )
    return AndroidApp(
        package=app.package,
        components=(),
        methods=methods,
        global_fields=globals_kept,
        category=app.category,
    )


def slice_estimate(app: AndroidApp, spec: TargetSpec) -> Tuple[int, int]:
    """``(anchors, slice CFG nodes)`` without building any workload.

    The cheap sizing pass placement layers use: a targeted job's
    effective app size is its slice, so schedulers should weigh (and
    size-classify) the slice, not the whole app.  ``(0, 0)`` means the
    pre-scan will skip the IDFG entirely.
    """
    anchors = find_anchors(app, spec)
    if not anchors:
        return 0, 0
    analyzed = app_with_environments(app) if app.components else app
    slice_result = backward_slice(analyzed, anchors)
    nodes = sum(
        len(analyzed.method_table[signature])
        for signature in slice_result.members
    )
    return len(anchors), nodes


# -- the targeted workload -----------------------------------------------------


@dataclass(frozen=True)
class TargetedStats:
    """Pre-scan / slice accounting for one app (obs + benchmark feed)."""

    package: str
    targets: int
    anchors: int
    full_methods: int
    slice_methods: int
    full_nodes: int
    slice_nodes: int
    #: True when no anchor was found and the IDFG build was skipped.
    skipped_idfg: bool

    @property
    def slice_fraction(self) -> float:
        """Slice size as a fraction of the full app (method count)."""
        return (
            self.slice_methods / self.full_methods
            if self.full_methods
            else 0.0
        )


class TargetedWorkload:
    """A sliced (or skipped) workload plus its pre-scan accounting."""

    __slots__ = ("spec", "stats", "slice", "sliced_app", "workload")

    def __init__(
        self,
        spec: TargetSpec,
        stats: TargetedStats,
        slice_result: Optional[SliceResult],
        sliced_app: Optional[AndroidApp],
        workload: Optional[AppWorkload],
    ) -> None:
        self.spec = spec
        self.stats = stats
        self.slice = slice_result
        self.sliced_app = sliced_app
        #: None iff the pre-scan found no anchors (nothing to analyze).
        self.workload = workload


def build_targeted_workload(
    app: AndroidApp,
    spec: TargetSpec,
    tuning: Optional[TuningParameters] = None,
    record_mer: bool = True,
    lint_gate: Optional[bool] = None,
) -> TargetedWorkload:
    """Pre-scan, slice, and analyze only the slice.

    Mirrors :meth:`AppWorkload.build` semantics (including the strict
    lint gate, which verifies the *original* app), but skips the IDFG
    entirely when no targeted sink is called anywhere, and otherwise
    analyzes the backward slice instead of the whole app.
    """
    if not spec:
        raise TargetSpecError("targeted vetting needs a non-empty target set")
    if _lint_gate_enabled(lint_gate):
        from repro.lint import check_app

        with obs.span(f"lint.gate:{app.package}", category="lint"):
            check_app(app)

    with obs.span(
        f"vet.targeted.prescan:{app.package}",
        category="vetting",
        package=app.package,
    ):
        # Environment methods only dispatch callbacks -- they never
        # call a sink -- so anchors can be found on the raw app and
        # absence decided before environment synthesis.
        anchors = find_anchors(app, spec)
        obs.count("vet.targeted.anchors", len(anchors))

    if not anchors:
        stats = TargetedStats(
            package=app.package,
            targets=len(spec),
            anchors=0,
            full_methods=app.method_count(),
            slice_methods=0,
            full_nodes=app.statement_count(),
            slice_nodes=0,
            skipped_idfg=True,
        )
        obs.count("vet.targeted.skipped_idfg", 1)
        return TargetedWorkload(spec, stats, None, None, None)

    with obs.span(
        f"vet.targeted.slice:{app.package}",
        category="vetting",
        package=app.package,
        anchors=len(anchors),
    ):
        analyzed = app_with_environments(app) if app.components else app
        slice_result = backward_slice(analyzed, anchors)
        sliced_app = restrict_app(analyzed, slice_result.members)

    stats = TargetedStats(
        package=app.package,
        targets=len(spec),
        anchors=len(anchors),
        full_methods=analyzed.method_count(),
        slice_methods=sliced_app.method_count(),
        full_nodes=analyzed.statement_count(),
        slice_nodes=sliced_app.statement_count(),
        skipped_idfg=False,
    )
    obs.count("vet.targeted.slice_methods", stats.slice_methods)
    obs.count("vet.targeted.full_methods", stats.full_methods)
    obs.count("vet.targeted.slice_nodes", stats.slice_nodes)
    obs.count("vet.targeted.full_nodes", stats.full_nodes)
    obs.count(
        "vet.targeted.nodes_skipped", stats.full_nodes - stats.slice_nodes
    )

    workload = AppWorkload.build(
        sliced_app, tuning=tuning, record_mer=record_mer, lint_gate=False
    )
    obs.count(
        "vet.targeted.iterations_sync", workload.profile.iterations_sync
    )
    return TargetedWorkload(spec, stats, slice_result, sliced_app, workload)


def vet_targeted_report(
    targeted: TargetedWorkload,
    analysis_time_s: float = 0.0,
    rules=None,
    manifest=None,
):
    """Report for a built :class:`TargetedWorkload`.

    The flow set is exactly the full-IDFG oracle's flows whose sink is
    in the target spec (the equivalence suite asserts this); ICC flows
    are out of scope for targeted runs, so the report never contains
    them.  A skipped workload yields a clean empty report.
    """
    from repro.vetting.ddg import flow_witnesses
    from repro.vetting.report import VettingReport, _grade
    from repro.vetting.sources_sinks import (
        DEFAULT_REGISTRY,
        KIND_SOURCE,
    )
    from repro.vetting.taint import TaintAnalysis

    registry = rules.registry() if rules is not None else DEFAULT_REGISTRY
    package = targeted.stats.package
    if targeted.workload is None:
        return VettingReport(
            package=package,
            flows=(),
            icc_flows=(),
            risk_score=0,
            verdict="clean",
            implied_permissions=(),
            analysis_time_s=analysis_time_s,
        )

    workload = targeted.workload
    with obs.span(f"vet.targeted:{package}", category="vetting"):
        analysis = TaintAnalysis(
            workload.analyzed_app, workload.idfg, registry=registry
        )
        flows = tuple(
            flow
            for flow in analysis.run()
            if flow.sink_api in targeted.spec
        )
        witnesses = flow_witnesses(
            workload.analyzed_app, workload.idfg, flows
        )
        score, verdict = _grade(flows)
        category_permissions = registry.category_permissions(KIND_SOURCE)
        permissions = tuple(
            sorted(
                {
                    category_permissions[category]
                    for flow in flows
                    for category in flow.source_categories
                    if category in category_permissions
                }
            )
        )
        findings = ()
        if rules is not None:
            from repro.rules.engine import build_findings

            findings = build_findings(
                rules,
                workload.analyzed_app,
                flows=flows,
                icc_flows=(),
                witnesses=witnesses,
                sanitizer_kills=tuple(analysis.sanitizer_kills),
                manifest=manifest,
                package=package,
            )
    return VettingReport(
        package=package,
        flows=flows,
        icc_flows=(),
        risk_score=score,
        verdict=verdict,
        implied_permissions=permissions,
        analysis_time_s=analysis_time_s,
        witnesses=witnesses,
        findings=findings,
        sanitizer_kills=tuple(analysis.sanitizer_kills),
    )


def vet_targeted(
    app: AndroidApp,
    spec: TargetSpec,
    config: Optional[GDroidConfig] = None,
    rules=None,
    manifest=None,
) -> "tuple":
    """Demand-driven security screen: report only the targeted sinks.

    Returns ``(report, stats)``.  An app calling none of the targets is
    reported clean without building any IDFG.
    """
    config = config or GDroidConfig.all_optimizations()
    targeted = build_targeted_workload(
        app, spec, tuning=config.tuning, record_mer=config.use_mer
    )
    time_s = 0.0
    if targeted.workload is not None:
        time_s = GDroid(config).price(targeted.workload).modeled_time_s
    return (
        vet_targeted_report(
            targeted, time_s, rules=rules, manifest=manifest
        ),
        targeted.stats,
    )
