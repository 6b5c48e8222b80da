"""ICC target resolution: shrink the receiver over-approximation.

:mod:`repro.vetting.icc` historically treated *every* exported
component of the matching kind as a candidate receiver -- the
abstraction slack IccTA-class tools spend most of their machinery
removing.  This module removes it where the program text allows:

1. run :class:`repro.dataflow.strings.StringConstantSolver` (a second
   IDE client on the shared ICFG worklist substrate) over the app, so
   every variable has a string-lattice value at every node;
2. collect *target-binding* sites -- calls to the registry's
   ``icc-target`` APIs (``Intent.setClassName`` writes an explicit
   component name, ``Intent.setAction`` a filter-matched action);
3. associate bindings with ICC *send* sites through the IDFG's
   points-to facts: a binding applies to a send iff the Intent
   argument of both may reference a common abstract instance;
4. classify each send site:

   * ``exact`` -- every applicable class binding evaluates to a string
     constant: the receiver set is exactly those named components
     (intersected with the old over-approximation, so resolution can
     only *shrink* the hijack surface, never grow it);
   * ``filtered`` -- no class binding, but every applicable action
     binding is constant: receivers are the over-approximated
     components that actually advertise one of those actions in an
     intent filter;
   * ``over-approx`` -- anything else (no binding reaches the send, or
     some binding is ``TOP``): the legacy receiver set stands.

Soundness: resolved receiver sets are computed by *filtering* the
over-approximated set, so ``resolved ⊆ over-approx`` holds by
construction (property-tested across a generated corpus in
``tests/test_icc_resolve.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.dataflow.idfg import IDFG
from repro.dataflow.strings import StringConstantSolver, const_value
from repro.ir.app import AndroidApp
from repro.vetting.sources_sinks import (
    DEFAULT_REGISTRY,
    KIND_ICC_TARGET,
    ApiRegistry,
)

#: The three provenance values a flow's ``resolution`` may carry.
RESOLUTION_EXACT = "exact"
RESOLUTION_FILTERED = "filtered"
RESOLUTION_OVER_APPROX = "over-approx"
RESOLUTIONS = (RESOLUTION_EXACT, RESOLUTION_FILTERED, RESOLUTION_OVER_APPROX)


@dataclass(frozen=True)
class TargetBinding:
    """One ``icc-target`` call site with its evaluated string value."""

    method: str
    label: str
    node: int
    #: ``class`` (setClassName) or ``action`` (setAction).
    category: str
    #: Variable naming the Intent being written.
    intent_var: Optional[str]
    #: The bound string when constant, else None (``TOP``/``BOTTOM``).
    value: Optional[str]


@dataclass(frozen=True)
class ResolvedTarget:
    """Resolution outcome for one ICC send site."""

    resolution: str
    #: Hijack-surface receivers; always a subset of the over-approx set.
    receivers: Tuple[str, ...]
    #: In-app components the Intent provably reaches (``exact`` only);
    #: the stitching phase continues taint into their callbacks.
    components: Tuple[str, ...]


class IccResolver:
    """Resolve Intent targets for the ICC send sites of one app."""

    def __init__(
        self,
        app: AndroidApp,
        idfg: IDFG,
        registry: ApiRegistry = DEFAULT_REGISTRY,
    ) -> None:
        self.app = app
        self.idfg = idfg
        self.registry = registry
        self._target_kinds: Dict[str, str] = {
            e.signature: e.category
            for e in registry.entries(KIND_ICC_TARGET)
        }
        with obs.span(
            f"icc.resolve.strings:{app.package}", category="vetting"
        ):
            # Root the string solver at *every* method: the IDFG covers
            # all methods (SBDA analyzes each one), so binding sites in
            # methods unreachable from component environments must
            # still evaluate instead of KeyError-ing.
            from repro.cfg.icfg import build_icfg

            self.solver = StringConstantSolver(
                app, icfg=build_icfg(app, roots=tuple(app.method_table))
            )
            self.solver.solve()
        self._bindings: Dict[str, List[TargetBinding]] = {}
        self._collect_bindings()
        obs.count(
            "icc.resolve.bindings",
            sum(len(b) for b in self._bindings.values()),
        )

    def _collect_bindings(self) -> None:
        from repro.vetting.taint import _call_sites

        for signature in self.idfg.method_facts:
            if signature not in self.app.method_table:
                continue
            bindings: List[TargetBinding] = []
            for site in _call_sites(self.app, signature):
                category = self._target_kinds.get(site.callee)
                if category is None:
                    continue
                intent_var = site.args[0] if site.args else None
                name_var = site.args[1] if len(site.args) > 1 else None
                value = None
                if name_var is not None:
                    env = self.solver.environment_at(signature, site.label)
                    value = const_value(env.of(name_var))
                bindings.append(
                    TargetBinding(
                        method=signature,
                        label=site.label,
                        node=site.node,
                        category=category,
                        intent_var=intent_var,
                        value=value,
                    )
                )
            if bindings:
                self._bindings[signature] = bindings

    # -- points-to association -------------------------------------------------

    def _pts(self, signature: str, node: int, variable) -> int:
        """Mask of the abstract instances ``variable`` may reference at
        ``node``."""
        if variable is None:
            return 0
        facts = self.idfg.method_facts[signature]
        slot = facts.space.var_slot(variable)
        if slot is None:
            return 0
        return facts.instances(node, slot)

    # -- classification --------------------------------------------------------

    def resolve(
        self,
        signature: str,
        node: int,
        intent_var,
        over_approx: Tuple[str, ...],
    ) -> ResolvedTarget:
        """Classify one send site and compute its receiver set.

        ``over_approx`` is the legacy candidate set (sorted); the
        returned receivers are always a subset of it.
        """
        fallback = ResolvedTarget(
            RESOLUTION_OVER_APPROX, tuple(over_approx), ()
        )
        bindings = self._bindings.get(signature)
        if not bindings:
            return fallback
        send_pts = self._pts(signature, node, intent_var)
        if not send_pts:
            return fallback

        class_values: List[str] = []
        action_values: List[str] = []
        unresolved_class = unresolved_action = False
        for binding in bindings:
            if not (
                self._pts(signature, binding.node, binding.intent_var)
                & send_pts
            ):
                continue
            if binding.category == "class":
                if binding.value is None:
                    unresolved_class = True
                else:
                    class_values.append(binding.value)
            elif binding.category == "action":
                if binding.value is None:
                    unresolved_action = True
                else:
                    action_values.append(binding.value)

        if unresolved_class:
            # A dynamically computed explicit target may name anything.
            return fallback
        if class_values:
            named = frozenset(class_values)
            receivers = tuple(n for n in over_approx if n in named)
            components = tuple(
                sorted(
                    component.name
                    for component in self.app.components
                    if component.name in named
                )
            )
            return ResolvedTarget(RESOLUTION_EXACT, receivers, components)
        if action_values and not unresolved_action:
            actions = frozenset(action_values)
            by_name = {c.name: c for c in self.app.components}
            receivers = tuple(
                name
                for name in over_approx
                if name in by_name
                and actions.intersection(by_name[name].intent_filters)
            )
            return ResolvedTarget(RESOLUTION_FILTERED, receivers, ())
        return fallback
