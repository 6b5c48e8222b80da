"""Vetting verdicts: the end-to-end output of the accelerated pipeline.

``vet_app`` is the one-call security screen: build (or reuse) the
IDFG, run the taint plugin, derive DDG witnesses, and grade the app.
This is the workload the paper's introduction motivates -- screening
the Play store's ingest stream -- so it is also what the examples and
the throughput benchmark drive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.core.config import GDroidConfig
from repro.core.engine import AppWorkload, GDroid
from repro.ir.app import AndroidApp
from repro.vetting.ddg import flow_witnesses
from repro.vetting.icc import IccAnalysis, IccFlow, LinkedIccFlow
from repro.vetting.sources_sinks import (
    DEFAULT_REGISTRY,
    KIND_SOURCE,
    ApiRegistry,
    flow_severity,
)
from repro.vetting.taint import SanitizerKill, TaintAnalysis, TaintFlow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.apk.manifest import AndroidManifest
    from repro.rules.findings import Finding
    from repro.rules.pack import RulePack


@dataclass(frozen=True)
class VettingReport:
    """Security screen of one app."""

    package: str
    flows: Tuple[TaintFlow, ...]
    #: Sensitive data crossing component boundaries through Intents.
    icc_flows: Tuple[IccFlow, ...]
    #: 0 (clean) .. 10 (exfiltrates identifiers over SMS).
    risk_score: int
    verdict: str
    #: Permissions the detected source usage implies.
    implied_permissions: Tuple[str, ...]
    #: Modeled GDroid analysis time that produced the IDFG (seconds).
    analysis_time_s: float
    #: Dependence-chain witness per flow (sink label -> chain), where
    #: an intra-method chain exists.
    witnesses: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: Rule-pack findings (empty unless vetted with a rule pack).
    findings: Tuple["Finding", ...] = ()
    #: Taint facts dropped at registered sanitizer calls (evidence for
    #: why a would-be flow did not surface).
    sanitizer_kills: Tuple[SanitizerKill, ...] = ()
    #: Inter-component leaks stitched across resolved ICC edges
    #: (source in one component, sink in another).
    linked_flows: Tuple[LinkedIccFlow, ...] = ()

    @property
    def is_suspicious(self) -> bool:
        """True when the risk score warrants review."""
        return self.risk_score >= 4

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"package   : {self.package}",
            f"verdict   : {self.verdict} (risk {self.risk_score}/10)",
            f"flows     : {len(self.flows)}",
        ]
        for flow in self.flows:
            lines.append(f"  - {flow}")
            witness = self.witnesses.get(flow.sink_label)
            if witness:
                lines.append(f"      via {' -> '.join(witness)}")
        if self.icc_flows:
            lines.append(f"icc flows : {len(self.icc_flows)}")
            for icc_flow in self.icc_flows:
                lines.append(f"  - {icc_flow}")
        if self.linked_flows:
            lines.append(f"linked    : {len(self.linked_flows)}")
            for linked in self.linked_flows:
                lines.append(f"  - {linked}")
        if self.implied_permissions:
            lines.append(
                "permissions: " + ", ".join(self.implied_permissions)
            )
        lines.append(f"IDFG time : {self.analysis_time_s * 1e3:.2f} ms (modeled GDroid)")
        return "\n".join(lines)


def _grade(
    flows: Tuple[TaintFlow, ...],
    icc_flows: Tuple[IccFlow, ...] = (),
    linked_flows: Tuple[LinkedIccFlow, ...] = (),
) -> Tuple[int, str]:
    score = 0
    if flows:
        score = max(
            flow_severity(api, flow.sink_api)
            for flow in flows
            for api in flow.source_apis
        )
    for icc_flow in icc_flows:
        # Tainted Intents to hijackable (exported) components are a
        # serious channel; internal-only ones are merely noteworthy.
        score = max(score, 6 if icc_flow.escapes_app else 3)
    if linked_flows:
        # A proven source-to-sink path across components is as bad as
        # a direct identifier exfiltration.
        score = max(score, 9)
    if score == 0:
        return 0, "clean"
    if score >= 7:
        return score, "likely-malicious"
    if score >= 4:
        return score, "suspicious"
    return score, "low-risk"


def vet_workload(
    app: AndroidApp,
    workload: AppWorkload,
    analysis_time_s: float = 0.0,
    rules: Optional["RulePack"] = None,
    manifest: Optional["AndroidManifest"] = None,
    resolve_icc: bool = True,
) -> VettingReport:
    """Vet an app whose IDFG has already been constructed."""
    from repro import obs

    with obs.span(f"vet:{app.package}", category="vetting"):
        return _vet_workload(
            app, workload, analysis_time_s, rules, manifest, resolve_icc
        )


def _vet_workload(
    app: AndroidApp,
    workload: AppWorkload,
    analysis_time_s: float,
    rules: Optional["RulePack"] = None,
    manifest: Optional["AndroidManifest"] = None,
    resolve_icc: bool = True,
) -> VettingReport:
    registry: ApiRegistry = (
        rules.registry() if rules is not None else DEFAULT_REGISTRY
    )
    analysis = TaintAnalysis(
        workload.analyzed_app, workload.idfg, registry=registry
    )
    flows = tuple(analysis.run())
    icc = IccAnalysis(
        workload.analyzed_app,
        workload.idfg,
        analysis,
        resolve=resolve_icc,
    )
    icc_flow_list = icc.run()
    icc_flows = tuple(icc_flow_list)
    linked_flows: Tuple[LinkedIccFlow, ...] = ()
    if resolve_icc:
        linked_flows = tuple(icc.stitch(icc_flow_list))
    witnesses = flow_witnesses(workload.analyzed_app, workload.idfg, flows)
    score, verdict = _grade(flows, icc_flows, linked_flows)
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
    findings: Tuple["Finding", ...] = ()
    if rules is not None:
        from repro.rules.engine import build_findings

        findings = build_findings(
            rules,
            app,
            flows=flows,
            icc_flows=icc_flows,
            linked_flows=linked_flows,
            witnesses=witnesses,
            sanitizer_kills=tuple(analysis.sanitizer_kills),
            manifest=manifest,
        )
    return VettingReport(
        package=app.package,
        flows=flows,
        icc_flows=icc_flows,
        risk_score=score,
        verdict=verdict,
        implied_permissions=permissions,
        analysis_time_s=analysis_time_s,
        witnesses=witnesses,
        findings=findings,
        sanitizer_kills=tuple(analysis.sanitizer_kills),
        linked_flows=linked_flows,
    )


def vet_app(
    app: AndroidApp,
    config: Optional[GDroidConfig] = None,
    rules: Optional["RulePack"] = None,
    manifest: Optional["AndroidManifest"] = None,
    resolve_icc: bool = True,
) -> VettingReport:
    """Full pipeline: GDroid IDFG construction, then the taint plugin."""
    config = config or GDroidConfig.all_optimizations()
    workload = AppWorkload.build(app, tuning=config.tuning, record_mer=config.use_mer)
    result = GDroid(config).price(workload)
    return vet_workload(
        app,
        workload,
        analysis_time_s=result.modeled_time_s,
        rules=rules,
        manifest=manifest,
        resolve_icc=resolve_icc,
    )
