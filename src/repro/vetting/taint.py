"""Interprocedural taint analysis over the IDFG.

Taint attaches to *abstract instances*: the opaque result instance of
a source-API call is tainted, and because the IDFG's facts already
track where every instance can flow (including through heap cells and
summaries), intra-method propagation is free -- a slot is tainted at a
node exactly when its points-to set there contains a tainted instance.

Interprocedural propagation iterates three monotone channels to a
fixed point:

* **calls down**: if an argument points to a tainted instance at the
  call site, the callee's ``("param", j)`` symbolic instance becomes
  tainted;
* **returns up**: if a callee's return slot may be tainted, the call
  site's opaque result instance becomes tainted (external callees
  launder conservatively: tainted argument in, tainted result out);
* **globals across**: a tainted instance reaching a global slot at any
  method's exit taints the global's symbolic instance everywhere.

External calls registered as *sanitizers* are the one exception to the
laundering rule: their result is clean regardless of argument taint
(declassification), and each kill is recorded as evidence in
:attr:`TaintAnalysis.sanitizer_kills`.

A *leak* is a sink-API call one of whose arguments points to a tainted
instance at the call node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.dataflow.bitset import bit_indices
from repro.dataflow.idfg import IDFG
from repro.ir.app import AndroidApp
from repro.ir.statements import AssignmentStatement, CallStatement
from repro.ir.expressions import CallRhs
from repro.vetting.sources_sinks import (
    DEFAULT_REGISTRY,
    KIND_SANITIZER,
    KIND_SINK,
    KIND_SOURCE,
    ApiRegistry,
)

#: Provenance: the set of source API signatures a value may stem from.
Provenance = FrozenSet[str]


@dataclass(frozen=True)
class TaintFlow:
    """One detected source -> sink flow."""

    method: str
    sink_label: str
    sink_api: str
    sink_category: str
    source_apis: Tuple[str, ...]
    source_categories: Tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - display helper
        sources = ", ".join(self.source_categories)
        return (
            f"{self.method} @ {self.sink_label}: "
            f"{sources} -> {self.sink_category}"
        )


@dataclass(frozen=True)
class SanitizerKill:
    """Evidence of one taint fact dropped at a sanitizer call."""

    method: str
    label: str
    api: str
    #: Source APIs whose taint was declassified at this statement.
    killed_sources: Tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - display helper
        sources = ", ".join(self.killed_sources)
        return f"{self.method} @ {self.label}: sanitized [{sources}]"


class _CallSite:
    """Pre-extracted call-site info for one method."""

    __slots__ = ("node", "label", "callee", "args", "result")

    def __init__(self, node, label, callee, args, result):
        self.node = node
        self.label = label
        self.callee = callee
        self.args = args
        self.result = result


def _call_sites(app: AndroidApp, signature: str) -> List[_CallSite]:
    sites: List[_CallSite] = []
    method = app.method_table[signature]
    for node, statement in enumerate(method.statements):
        if isinstance(statement, CallStatement):
            sites.append(
                _CallSite(
                    node,
                    statement.label,
                    statement.callee,
                    statement.args,
                    statement.result,
                )
            )
        elif isinstance(statement, AssignmentStatement) and isinstance(
            statement.rhs, CallRhs
        ):
            sites.append(
                _CallSite(
                    node,
                    statement.label,
                    statement.rhs.callee,
                    statement.rhs.args,
                    statement.lhs if statement.lhs_access is None else None,
                )
            )
    return sites


class TaintAnalysis:
    """Whole-app taint fixed point over a finished IDFG."""

    def __init__(
        self,
        app: AndroidApp,
        idfg: IDFG,
        registry: ApiRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.app = app
        self.idfg = idfg
        self.registry = registry
        #: (method, label) -> (api, killed provenance); monotone across
        #: fixpoint passes, flattened into records by :meth:`run`.
        self._kills: Dict[Tuple[str, str], Tuple[str, Provenance]] = {}
        self.sanitizer_kills: List[SanitizerKill] = []
        #: method -> instance id -> provenance.
        self.tainted: Dict[str, Dict[int, Provenance]] = {}
        #: global name -> provenance (cross-method channel).
        self.tainted_globals: Dict[str, Provenance] = {}
        #: method -> provenance of a possibly-tainted return.
        self.returns_tainted: Dict[str, Provenance] = {}
        #: method -> param index -> provenance (calls-down channel).
        self.param_taint: Dict[str, Dict[int, Provenance]] = {}
        self._sites: Dict[str, List[_CallSite]] = {
            signature: _call_sites(app, signature)
            for signature in idfg.method_facts
            if signature in app.method_table
        }
        self.flows: List[TaintFlow] = []

    # -- helpers -----------------------------------------------------------------

    def _pts_provenance(
        self,
        signature: str,
        node: int,
        variable: Optional[str],
        deep: bool = True,
    ) -> Provenance:
        """Union provenance reachable from ``variable`` at ``node``.

        ``deep`` follows heap cells: an argument is tainted not only
        when it *is* sensitive data but also when it is an object (an
        Intent, a StringBuilder) whose fields transitively hold
        sensitive data -- what actually leaks at a sink or ICC send.
        """
        if variable is None:
            return frozenset()
        facts = self.idfg.method_facts[signature]
        space = facts.space
        slot = space.var_slot(variable)
        if slot is None:
            return frozenset()
        taint = self.tainted.get(signature, {})

        out: Set[str] = set()
        pending = facts.instances(node, slot)
        seen = 0
        while pending:
            seen |= pending
            reached = 0
            for instance in bit_indices(pending):
                provenance = taint.get(instance)
                if provenance:
                    out.update(provenance)
                if not deep:
                    continue
                for field in space.fields:
                    heap = space.heap_slot(instance, field)
                    if heap is not None:
                        reached |= facts.instances(node, heap)
            pending = reached & ~seen
        return frozenset(out)

    @staticmethod
    def _merge(
        table: Dict[int, Provenance], key: int, provenance: Provenance
    ) -> bool:
        if not provenance:
            return False
        existing = table.get(key, frozenset())
        merged = existing | provenance
        if merged != existing:
            table[key] = merged
            return True
        return False

    # -- one method pass -------------------------------------------------------------

    def _pass_method(self, signature: str) -> bool:
        changed = False
        facts = self.idfg.method_facts[signature]
        space = facts.space
        taint = self.tainted.setdefault(signature, {})

        # Seeds: source calls, tainted params, tainted globals.
        for site in self._sites[signature]:
            if self.registry.is_kind(site.callee, KIND_SOURCE):
                inst = space.call_instance(site.label)
                if inst is not None:
                    changed |= self._merge(
                        taint, inst, frozenset((site.callee,))
                    )
        for index, provenance in self.param_taint.get(signature, {}).items():
            inst = space.param_instance(index)
            if inst is not None:
                changed |= self._merge(taint, inst, provenance)
        for name, provenance in self.tainted_globals.items():
            inst = space.global_instance(name)
            if inst is not None:
                changed |= self._merge(taint, inst, provenance)

        # Calls: push taint down args, pull taint up returns.
        for site in self._sites[signature]:
            arg_taints = [
                self._pts_provenance(signature, site.node, arg)
                for arg in site.args
            ]
            internal = site.callee in self.idfg.method_facts
            if internal:
                down = self.param_taint.setdefault(site.callee, {})
                for index, provenance in enumerate(arg_taints):
                    if provenance:
                        changed |= self._merge(down, index, provenance)
                up = self.returns_tainted.get(site.callee, frozenset())
            elif self.registry.is_kind(site.callee, KIND_SANITIZER):
                # Declassifier: the result is clean no matter what went
                # in; record what was dropped as evidence.
                killed = (
                    frozenset().union(*arg_taints)
                    if arg_taints
                    else frozenset()
                )
                if killed:
                    key = (signature, site.label)
                    prior = self._kills.get(key)
                    merged = killed | (prior[1] if prior else frozenset())
                    self._kills[key] = (site.callee, merged)
                up = frozenset()
            else:
                # External library call: conservatively launder any
                # tainted argument into the opaque result.
                up = frozenset().union(*arg_taints) if arg_taints else frozenset()
            if up and site.result is not None:
                inst = space.call_instance(site.label)
                if inst is not None:
                    changed |= self._merge(taint, inst, up)

        # Exit effects: tainted returns and tainted global writes.
        return_slot = space.return_slot()
        for fact in bit_indices(facts.exit_facts):
            slot_index, instance_index = space.decode(fact)
            provenance = taint.get(instance_index)
            if not provenance:
                continue
            slot = space.slots[slot_index]
            if slot_index == return_slot:
                existing = self.returns_tainted.get(signature, frozenset())
                merged = existing | provenance
                if merged != existing:
                    self.returns_tainted[signature] = merged
                    changed = True
            elif slot[0] == "global":
                existing = self.tainted_globals.get(slot[1], frozenset())
                merged = existing | provenance
                if merged != existing:
                    self.tainted_globals[slot[1]] = merged
                    changed = True
        return changed

    # -- public API ---------------------------------------------------------------------

    def run(self) -> List[TaintFlow]:
        """Fixed point, then collect sink violations."""
        changed = True
        while changed:
            changed = False
            for signature in self._sites:
                changed |= self._pass_method(signature)

        self.flows = []
        for signature, sites in self._sites.items():
            for site in sites:
                if not self.registry.is_kind(site.callee, KIND_SINK):
                    continue
                provenance: Set[str] = set()
                for arg in site.args:
                    provenance.update(
                        self._pts_provenance(signature, site.node, arg)
                    )
                if provenance:
                    apis = tuple(sorted(provenance))
                    self.flows.append(
                        TaintFlow(
                            method=signature,
                            sink_label=site.label,
                            sink_api=site.callee,
                            sink_category=self._category(
                                site.callee, KIND_SINK
                            ),
                            source_apis=apis,
                            source_categories=tuple(
                                self._category(api, KIND_SOURCE)
                                for api in apis
                            ),
                        )
                    )
        self.sanitizer_kills = [
            SanitizerKill(
                method=method,
                label=label,
                api=api,
                killed_sources=tuple(sorted(killed)),
            )
            for (method, label), (api, killed) in sorted(self._kills.items())
        ]
        return self.flows

    def _category(self, signature: str, kind: str) -> str:
        entry = self.registry.get(signature)
        if entry is not None and entry.kind == kind:
            return entry.category
        return "?"
