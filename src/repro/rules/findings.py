"""Severity-graded findings: the rule-pack evaluation output.

A :class:`Finding` is one rule violation with everything a triage
pipeline needs: the rule that fired, its pack, the severity band and
base confidence, the statement-level location, witness path from the
DDG, and the manifest-permission cross-check.  Findings serialize to a
schema-versioned JSON document so downstream consumers can detect
format changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Bump when the JSON layout of findings documents changes.
#: 2: per-finding ``resolution`` provenance + ``icc-linked`` kind.
FINDINGS_SCHEMA_VERSION = 2

#: Severity bands, least to most severe.
SEVERITIES: Tuple[str, ...] = ("info", "low", "medium", "high", "critical")

#: Severity name -> rank (higher = more severe).
SEVERITY_RANK: Dict[str, int] = {
    name: rank for rank, name in enumerate(SEVERITIES)
}

#: Finding kinds.
KIND_TAINT = "taint"
KIND_ICC = "icc"
KIND_ICC_LINKED = "icc-linked"
KIND_LINT = "lint"


def severity_band(score: int) -> str:
    """Map a legacy 1-10 ``flow_severity`` score onto a band."""
    if score >= 9:
        return "critical"
    if score >= 7:
        return "high"
    if score >= 4:
        return "medium"
    if score >= 2:
        return "low"
    return "info"


def cap_severity(severity: str, permission_declared: Optional[bool]) -> str:
    """Apply the manifest cross-check ceiling.

    A flow whose implied permission is *known absent* from the manifest
    cannot succeed on a real device, so its severity is capped at
    ``medium``.  ``None`` (no manifest available) leaves the severity
    untouched -- absence of evidence is not a downgrade.
    """
    if permission_declared is False:
        if SEVERITY_RANK[severity] > SEVERITY_RANK["medium"]:
            return "medium"
    return severity


@dataclass(frozen=True)
class Finding:
    """One rule violation in one app."""

    rule_id: str
    pack: str
    #: ``taint`` / ``icc`` / ``lint``.
    kind: str
    severity: str
    #: Base confidence of the rule, 0.0-1.0.
    confidence: float
    package: str
    #: Method (or lint location) the violation anchors to.
    method: str
    #: Statement label of the sink / send / diagnostic site.
    sink_label: str
    #: API called at the sink site ("" for lint findings).
    sink_api: str
    message: str
    source_apis: Tuple[str, ...] = ()
    source_categories: Tuple[str, ...] = ()
    sink_category: str = ""
    #: Intra-method dependence chain ending at the sink, when found.
    witness: Tuple[str, ...] = ()
    #: Permissions the matched sources imply.
    implied_permissions: Tuple[str, ...] = ()
    #: True/False when a manifest was checked; None when unknown.
    permission_declared: Optional[bool] = None
    #: How the receiver set of an ICC finding was computed (``exact`` /
    #: ``filtered`` / ``over-approx``); "" for non-ICC findings.
    resolution: str = ""

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable)."""
        return {
            "rule_id": self.rule_id,
            "pack": self.pack,
            "kind": self.kind,
            "severity": self.severity,
            "confidence": round(self.confidence, 4),
            "package": self.package,
            "method": self.method,
            "sink_label": self.sink_label,
            "sink_api": self.sink_api,
            "message": self.message,
            "source_apis": list(self.source_apis),
            "source_categories": list(self.source_categories),
            "sink_category": self.sink_category,
            "witness": list(self.witness),
            "implied_permissions": list(self.implied_permissions),
            "permission_declared": self.permission_declared,
            "resolution": self.resolution,
        }


def sort_findings(findings: Sequence[Finding]) -> List[Finding]:
    """Most severe first; deterministic tiebreak on location."""
    return sorted(
        findings,
        key=lambda f: (
            -SEVERITY_RANK.get(f.severity, 0),
            -f.confidence,
            f.package,
            f.method,
            f.sink_label,
            f.rule_id,
        ),
    )


def findings_document(
    findings: Sequence[Finding],
    pack_name: str,
    pack_fingerprint: str = "",
) -> Dict:
    """Schema-versioned JSON document for a set of findings."""
    ordered = sort_findings(findings)
    by_severity = {name: 0 for name in SEVERITIES}
    for finding in ordered:
        by_severity[finding.severity] += 1
    return {
        "schema": FINDINGS_SCHEMA_VERSION,
        "pack": pack_name,
        "pack_fingerprint": pack_fingerprint,
        "counts": by_severity,
        "findings": [finding.to_dict() for finding in ordered],
    }


def findings_to_json(
    findings: Sequence[Finding],
    pack_name: str,
    pack_fingerprint: str = "",
    indent: Optional[int] = 2,
) -> str:
    """JSON string form of :func:`findings_document`."""
    return json.dumps(
        findings_document(findings, pack_name, pack_fingerprint),
        indent=indent,
        sort_keys=True,
    )
