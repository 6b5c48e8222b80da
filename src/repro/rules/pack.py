"""Rule packs: versioned, pluggable vetting policies.

A rule pack is a JSON or TOML document declaring

* the **API sets** the analyses key on -- sources, sinks,
  **sanitizers** and ICC sends, each with a category and (for sources)
  the implied Android permission;
* **taint rules**: source-category x sink-category selectors with a
  severity band and base confidence;
* **ICC rules**: component-kind selectors for tainted Intent sends;
* **lint selections**: :mod:`repro.lint` rule IDs surfaced as findings.

``load_pack`` accepts a shipped pack name (see :func:`shipped_packs`)
or a ``.json`` / ``.toml`` path; the document is validated eagerly --
unknown severities, unknown lint rules, category selectors that match
nothing in the pack's own API set, and malformed API entries all fail
at load time, not silently at match time.  ``RulePack.registry()``
compiles the API set into a validated
:class:`repro.vetting.sources_sinks.ApiRegistry`, and
``RulePack.fingerprint()`` hashes the canonical document for cache
keying (two packs with the same rules share cache rows; any edit
changes the key).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.rules.findings import SEVERITIES
from repro.vetting.sources_sinks import (
    DEFAULT_REGISTRY,
    FLOW_SEVERITY,
    KIND_ICC_SEND,
    KIND_SINK,
    KIND_SOURCE,
    ApiEntry,
    ApiRegistry,
    _DEFAULT_BY_SINK,
)
from repro.rules.findings import severity_band

#: Bump when the pack document layout changes incompatibly.
PACK_SCHEMA_VERSION = 1

#: Directory the shipped packs live in.
PACKS_DIR = Path(__file__).resolve().parent / "packs"

#: Wildcard selector: matches any category / component kind.
WILDCARD = "*"

_COMPONENT_KINDS = ("activity", "service", "receiver", "provider")

#: Valid values for an ICC rule's ``resolutions`` selector (mirrors
#: :data:`repro.vetting.icc_resolve.RESOLUTIONS`).
_RESOLUTIONS = frozenset(("exact", "filtered", "over-approx"))


class PackError(ValueError):
    """A rule-pack document failed validation."""


@dataclass(frozen=True)
class TaintRule:
    """Source-category -> sink-category taint selector."""

    id: str
    description: str
    #: Source categories ("*" entry matches any).
    sources: Tuple[str, ...]
    #: Sink categories ("*" entry matches any).
    sinks: Tuple[str, ...]
    severity: str
    confidence: float

    def matches(
        self, source_categories: Sequence[str], sink_category: str
    ) -> bool:
        """True when the rule selects this flow."""
        if WILDCARD not in self.sinks and sink_category not in self.sinks:
            return False
        if WILDCARD in self.sources:
            return True
        return any(c in self.sources for c in source_categories)


@dataclass(frozen=True)
class IccRule:
    """Tainted-Intent-send selector."""

    id: str
    description: str
    #: Target component kinds ("*" entry matches any).
    targets: Tuple[str, ...]
    #: When True, only flows with an exported candidate receiver match
    #: (the hijackable boundary); internal-only sends fall through to
    #: later rules.
    exported_only: bool
    severity: str
    confidence: float
    #: Resolution provenances the rule applies to ("*" matches any).
    #: An exposure rule scoped to ``["over-approx", "filtered"]`` stays
    #: silent on sends whose target resolved exactly (the
    #: constant-target false-positive fix).
    resolutions: Tuple[str, ...] = (WILDCARD,)
    #: When True the rule selects *linked* inter-component leaks
    #: (:class:`repro.vetting.icc.LinkedIccFlow`) instead of plain
    #: tainted sends; linked flows never match non-linked rules.
    linked: bool = False

    def matches(
        self,
        target_kind: str,
        escapes_app: bool,
        resolution: str = "over-approx",
        linked: bool = False,
    ) -> bool:
        """True when the rule selects this ICC flow."""
        if self.linked != linked:
            return False
        if self.exported_only and not escapes_app:
            return False
        if (
            WILDCARD not in self.resolutions
            and resolution not in self.resolutions
        ):
            return False
        return WILDCARD in self.targets or target_kind in self.targets


@dataclass(frozen=True)
class LintSelection:
    """One :mod:`repro.lint` rule surfaced as a finding."""

    id: str
    severity: str
    confidence: float


@dataclass(frozen=True)
class RulePack:
    """A compiled, validated rule pack."""

    name: str
    version: str
    description: str
    apis: Tuple[ApiEntry, ...]
    taint_rules: Tuple[TaintRule, ...]
    icc_rules: Tuple[IccRule, ...]
    lint_rules: Tuple[LintSelection, ...]
    #: Scenario-corpus shape hint: leaks exit through ICC sends
    #: instead of data sinks (set by ICC-centric packs).
    scenarios_via_icc: bool = False

    def registry(self) -> ApiRegistry:
        """Compile the pack's API set into a queryable registry."""
        return ApiRegistry(self.apis)

    def to_dict(self) -> Dict:
        """Canonical plain-dict form (stable key order via json)."""
        return {
            "pack_schema": PACK_SCHEMA_VERSION,
            "name": self.name,
            "version": self.version,
            "description": self.description,
            "apis": [
                {
                    "signature": e.signature,
                    "kind": e.kind,
                    "category": e.category,
                    **(
                        {"permission": e.permission}
                        if e.permission is not None
                        else {}
                    ),
                }
                for e in self.apis
            ],
            "taint_rules": [
                {
                    "id": r.id,
                    "description": r.description,
                    "sources": list(r.sources),
                    "sinks": list(r.sinks),
                    "severity": r.severity,
                    "confidence": r.confidence,
                }
                for r in self.taint_rules
            ],
            "icc_rules": [
                {
                    "id": r.id,
                    "description": r.description,
                    "targets": list(r.targets),
                    "exported_only": r.exported_only,
                    "severity": r.severity,
                    "confidence": r.confidence,
                    "resolutions": list(r.resolutions),
                    "linked": r.linked,
                }
                for r in self.icc_rules
            ],
            "lint_rules": [
                {
                    "id": s.id,
                    "severity": s.severity,
                    "confidence": s.confidence,
                }
                for s in self.lint_rules
            ],
            "scenarios": {"via_icc": self.scenarios_via_icc},
        }

    def fingerprint(self) -> str:
        """Stable content hash (cache-key component)."""
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def match_taint(
        self, source_categories: Sequence[str], sink_category: str
    ) -> Optional[TaintRule]:
        """First taint rule selecting the flow (declaration order)."""
        for rule in self.taint_rules:
            if rule.matches(source_categories, sink_category):
                return rule
        return None

    def match_icc(
        self,
        target_kind: str,
        escapes_app: bool,
        resolution: str = "over-approx",
        linked: bool = False,
    ) -> Optional[IccRule]:
        """First ICC rule selecting the flow (declaration order)."""
        for rule in self.icc_rules:
            if rule.matches(target_kind, escapes_app, resolution, linked):
                return rule
        return None


# -- parsing / validation ------------------------------------------------------


def _require(condition: bool, origin: str, message: str) -> None:
    if not condition:
        raise PackError(f"{origin}: {message}")


def _check_severity(value, origin: str, where: str) -> str:
    _require(
        isinstance(value, str) and value in SEVERITIES,
        origin,
        f"{where}: severity {value!r} not one of {', '.join(SEVERITIES)}",
    )
    return value


def _check_confidence(value, origin: str, where: str) -> float:
    _require(
        isinstance(value, (int, float)) and 0.0 <= float(value) <= 1.0,
        origin,
        f"{where}: confidence {value!r} not in [0, 1]",
    )
    return float(value)


def _check_selector(
    values, known: frozenset, origin: str, where: str, what: str
) -> Tuple[str, ...]:
    _require(
        isinstance(values, (list, tuple)) and len(values) > 0,
        origin,
        f"{where}: {what} selector must be a non-empty list",
    )
    out = tuple(str(v) for v in values)
    for value in out:
        _require(
            value == WILDCARD or value in known,
            origin,
            f"{where}: {what} {value!r} matches nothing in this pack "
            f"(known: {', '.join(sorted(known)) or 'none'})",
        )
    return out


def parse_pack(document: Dict, origin: str = "<pack>") -> RulePack:
    """Validate a plain-dict pack document and compile it."""
    _require(isinstance(document, dict), origin, "document must be a table")
    schema = document.get("pack_schema")
    _require(
        schema == PACK_SCHEMA_VERSION,
        origin,
        f"pack_schema {schema!r} != supported {PACK_SCHEMA_VERSION}",
    )
    name = document.get("name")
    _require(
        isinstance(name, str) and name != "", origin, "missing pack name"
    )
    version = str(document.get("version", "0"))
    description = str(document.get("description", ""))

    apis: List[ApiEntry] = []
    for index, raw in enumerate(document.get("apis", ())):
        where = f"apis[{index}]"
        _require(isinstance(raw, dict), origin, f"{where}: must be a table")
        for key in ("signature", "kind", "category"):
            _require(key in raw, origin, f"{where}: missing {key!r}")
        permission = raw.get("permission")
        _require(
            permission is None or isinstance(permission, str),
            origin,
            f"{where}: permission must be a string",
        )
        apis.append(
            ApiEntry(
                signature=str(raw["signature"]),
                kind=str(raw["kind"]),
                category=str(raw["category"]),
                permission=permission,
            )
        )
    try:
        registry = ApiRegistry(apis)
    except ValueError as error:
        raise PackError(f"{origin}: {error}") from error

    source_categories = frozenset(registry.categories(KIND_SOURCE))
    sink_categories = frozenset(registry.categories(KIND_SINK))
    icc_targets = frozenset(registry.categories(KIND_ICC_SEND))
    for target in icc_targets:
        _require(
            target in _COMPONENT_KINDS,
            origin,
            f"icc-send category {target!r} is not a component kind",
        )

    seen_rule_ids: set = set()

    def _rule_id(raw: Dict, where: str) -> str:
        rule_id = raw.get("id")
        _require(
            isinstance(rule_id, str) and rule_id != "",
            origin,
            f"{where}: missing rule id",
        )
        _require(
            rule_id not in seen_rule_ids,
            origin,
            f"{where}: duplicate rule id {rule_id!r}",
        )
        seen_rule_ids.add(rule_id)
        return rule_id

    taint_rules: List[TaintRule] = []
    for index, raw in enumerate(document.get("taint_rules", ())):
        where = f"taint_rules[{index}]"
        _require(isinstance(raw, dict), origin, f"{where}: must be a table")
        taint_rules.append(
            TaintRule(
                id=_rule_id(raw, where),
                description=str(raw.get("description", "")),
                sources=_check_selector(
                    raw.get("sources"),
                    source_categories,
                    origin,
                    where,
                    "source category",
                ),
                sinks=_check_selector(
                    raw.get("sinks"),
                    sink_categories,
                    origin,
                    where,
                    "sink category",
                ),
                severity=_check_severity(raw.get("severity"), origin, where),
                confidence=_check_confidence(
                    raw.get("confidence"), origin, where
                ),
            )
        )

    icc_rules: List[IccRule] = []
    for index, raw in enumerate(document.get("icc_rules", ())):
        where = f"icc_rules[{index}]"
        _require(isinstance(raw, dict), origin, f"{where}: must be a table")
        icc_rules.append(
            IccRule(
                id=_rule_id(raw, where),
                description=str(raw.get("description", "")),
                targets=_check_selector(
                    raw.get("targets"),
                    icc_targets,
                    origin,
                    where,
                    "target kind",
                ),
                exported_only=bool(raw.get("exported_only", False)),
                severity=_check_severity(raw.get("severity"), origin, where),
                confidence=_check_confidence(
                    raw.get("confidence"), origin, where
                ),
                resolutions=_check_selector(
                    raw.get("resolutions", [WILDCARD]),
                    _RESOLUTIONS,
                    origin,
                    where,
                    "resolution",
                ),
                linked=bool(raw.get("linked", False)),
            )
        )

    from repro.lint.diagnostics import RULES as LINT_RULES

    lint_rules: List[LintSelection] = []
    for index, raw in enumerate(document.get("lint_rules", ())):
        where = f"lint_rules[{index}]"
        _require(isinstance(raw, dict), origin, f"{where}: must be a table")
        lint_id = _rule_id(raw, where)
        _require(
            lint_id in LINT_RULES,
            origin,
            f"{where}: unknown lint rule {lint_id!r}",
        )
        lint_rules.append(
            LintSelection(
                id=lint_id,
                severity=_check_severity(raw.get("severity"), origin, where),
                confidence=_check_confidence(
                    raw.get("confidence"), origin, where
                ),
            )
        )

    _require(
        bool(taint_rules or icc_rules or lint_rules),
        origin,
        "pack declares no rules at all",
    )
    scenarios = document.get("scenarios", {})
    _require(
        isinstance(scenarios, dict), origin, "scenarios must be a table"
    )
    return RulePack(
        name=name,
        version=version,
        description=description,
        apis=tuple(apis),
        taint_rules=tuple(taint_rules),
        icc_rules=tuple(icc_rules),
        lint_rules=tuple(lint_rules),
        scenarios_via_icc=bool(scenarios.get("via_icc", False)),
    )


def shipped_packs() -> Tuple[str, ...]:
    """Names of the packs shipped inside the package."""
    return tuple(
        sorted(path.stem for path in PACKS_DIR.glob("*.json"))
    )


def load_pack(name_or_path: Union[str, Path]) -> RulePack:
    """Load and validate a pack by shipped name or file path.

    A bare name resolves against the shipped packs directory; a path
    ending in ``.json`` or ``.toml`` is parsed from disk.
    """
    text_name = str(name_or_path)
    if text_name == "default":
        return default_pack()
    path = Path(name_or_path)
    if path.suffix not in (".json", ".toml"):
        candidate = PACKS_DIR / f"{text_name}.json"
        if not candidate.is_file():
            known = ", ".join(shipped_packs() + ("default",))
            raise PackError(
                f"unknown rule pack {text_name!r} (shipped: {known})"
            )
        path = candidate
    if not path.is_file():
        raise PackError(f"rule pack file not found: {path}")
    if path.suffix == ".toml":
        import tomllib

        try:
            document = tomllib.loads(path.read_text())
        except tomllib.TOMLDecodeError as error:
            raise PackError(f"{path}: invalid TOML: {error}") from error
    else:
        try:
            document = json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise PackError(f"{path}: invalid JSON: {error}") from error
    return parse_pack(document, origin=str(path))


def default_pack() -> RulePack:
    """The built-in registry expressed as a pack.

    Severities derive from the legacy ``flow_severity`` table (max
    score per sink channel, banded), so default-pack findings grade the
    same way the legacy risk score does.  No sanitizers: the default
    taint semantics are untouched.
    """
    rules: List[TaintRule] = []
    for sink in DEFAULT_REGISTRY.categories(KIND_SINK):
        scores = [
            score
            for (_, pair_sink), score in FLOW_SEVERITY.items()
            if pair_sink == sink
        ]
        score = max(scores) if scores else _DEFAULT_BY_SINK.get(sink, 5)
        rules.append(
            TaintRule(
                id=f"DEF-{sink}",
                description=f"sensitive data reaches the {sink} channel",
                sources=(WILDCARD,),
                sinks=(sink,),
                severity=severity_band(score),
                confidence=0.8,
            )
        )
    icc_rules = (
        IccRule(
            id="DEF-ICC-LINKED",
            description=(
                "sensitive data crosses a resolved component boundary and "
                "reaches a sink in the receiving component"
            ),
            targets=(WILDCARD,),
            exported_only=False,
            severity=severity_band(9),
            confidence=0.9,
            linked=True,
        ),
        IccRule(
            id="DEF-ICC-EXPORTED",
            description="sensitive data in an Intent to an exported component",
            targets=(WILDCARD,),
            exported_only=True,
            severity=severity_band(6),
            confidence=0.7,
        ),
        IccRule(
            id="DEF-ICC-INTERNAL",
            description="sensitive data crosses an internal component boundary",
            targets=(WILDCARD,),
            exported_only=False,
            severity=severity_band(3),
            confidence=0.5,
        ),
    )
    return RulePack(
        name="default",
        version="1",
        description="built-in source/sink registry with legacy severities",
        apis=tuple(DEFAULT_REGISTRY),
        taint_rules=tuple(rules),
        icc_rules=icc_rules,
        lint_rules=(),
    )
