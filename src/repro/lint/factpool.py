"""Fact-pool bounds sanitizer -- the MAT-store equivalent of ASan.

The MAT fact rows (the int masks of :mod:`repro.dataflow.bitset` that
every fixed point, :class:`~repro.dataflow.idfg.MethodFacts` and the
summary store keep, and the GPU cost model built on them) index a
dense ``slot_count x instance_count`` pool with
``fact = slot * instance_count + instance``; an out-of-range slot or
instance id is a silent bit-matrix corruption, and the transfer
compiler's policy for *untracked* registers (no pool slot) is to drop
the GEN/KILL on the floor (see ``TransferFunctions._compile``), which
silently under-approximates flows instead of crashing.

Two complementary checks:

* FP-001 audits every compiled :class:`~repro.dataflow.transfer.NodePlan`
  -- each kill slot, value source, heap-target base and call-effect
  index a transfer function can ever emit is checked against the
  method's pre-determined pools.  Defense in depth: it holds for any
  plan the compiler produces, today's or tomorrow's.
* FP-002/FP-003 catch the *dropped* facts FP-001 cannot see: a value
  that is unambiguously an object reference assigned into a register
  declared primitive (hence slot-less), or a heap store through such a
  base.  Either way the engine silently loses taint -- the
  mis-analysis the acceptance test demonstrates.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.dataflow.facts import FactSpace
from repro.dataflow.transfer import NodePlan, TransferFunctions
from repro.ir.expressions import Expression
from repro.ir.method import Method
from repro.ir.statements import AssignmentStatement, CallStatement, Statement
from repro.lint.context import LintContext
from repro.lint.diagnostics import RULES, Diagnostic, LintError, finalize
from repro.lint.passes import Emitter, LintPass


class FactPoolPass(LintPass):
    """Statically bound every GEN/KILL index against the app's pools."""

    name = "fact-pool"
    rules = ("FP-001", "FP-002", "FP-003")

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        for method in ctx.app.methods:
            if not method.statements:
                continue
            self._check_dropped_facts(ctx, method, emit)
            self._audit_plans(ctx, method, emit)

    # -- FP-002 / FP-003: facts the compiler silently drops ----------------

    def _check_dropped_facts(
        self, ctx: LintContext, method: Method, emit: Emitter
    ) -> None:
        primitives = ctx.primitive_declared(method)
        if not primitives:
            return
        signature = str(method.signature)
        for index, statement in enumerate(method.statements):
            target = self._bound_register(statement)
            if (
                target is not None
                and target in primitives
                and self._is_object_value(ctx, method, statement)
            ):
                emit(
                    "FP-002", signature, statement.label, index,
                    f"object value flows into '{target}', declared primitive: "
                    "the register has no fact-pool slot, so the GEN is "
                    "silently dropped",
                    hint="declare the register with an object type",
                )
            base = self._store_base(statement)
            if base is not None and base in primitives:
                emit(
                    "FP-003", signature, statement.label, index,
                    f"heap store through '{base}', declared primitive: the "
                    "base has no fact-pool slot, so the store is silently "
                    "dropped",
                    hint="declare the base register with an object type",
                )

    @staticmethod
    def _bound_register(statement: Statement) -> Optional[str]:
        """The register a statement binds a (non-heap) value into."""
        if isinstance(statement, CallStatement):
            return statement.result or None
        if isinstance(statement, AssignmentStatement) and statement.lhs_access is None:
            return statement.lhs
        return None

    @staticmethod
    def _store_base(statement: Statement) -> Optional[str]:
        """The base register of a heap store, if the statement is one."""
        if isinstance(statement, AssignmentStatement) and statement.lhs_access is not None:
            return getattr(statement.lhs_access, "base", None) or None
        return None

    def _is_object_value(
        self, ctx: LintContext, method: Method, statement: Statement
    ) -> bool:
        """True when the bound value is unambiguously a reference."""
        if isinstance(statement, CallStatement):
            return self._returns_object(ctx, statement.callee)
        assert isinstance(statement, AssignmentStatement)
        rhs: Expression = statement.rhs
        kind = rhs.kind
        if kind in ("NewExpr", "NullExpr", "ExceptionExpr", "ConstClassExpr"):
            return True
        if kind == "LiteralExpr":
            return isinstance(rhs.value, str)
        if kind == "VariableNameExpr":
            return rhs.name in ctx.object_declared(method)
        if kind == "CastExpr":
            return rhs.target.is_object
        if kind == "CallRhs":
            return self._returns_object(ctx, rhs.callee)
        # Field/array reads and arithmetic are left to the declared
        # type: flagging them would need a full type inference.
        return False

    def _returns_object(self, ctx: LintContext, callee: str) -> bool:
        resolved = ctx.app.method_table.get(callee)
        if resolved is not None:
            return resolved.signature.return_type.is_object
        parsed = ctx.parsed_signature(callee)
        return parsed is not None and parsed.return_type.is_object

    # -- FP-001: audit every compiled plan against the pools ---------------

    def _audit_plans(
        self, ctx: LintContext, method: Method, emit: Emitter
    ) -> None:
        if ctx.build_table is not None:
            return  # the gated build audits the plans it compiles
        space = FactSpace(method)
        for index, message in plan_violations(space, TransferFunctions(space)):
            emit(
                "FP-001",
                str(method.signature),
                method.statements[index].label,
                index,
                message,
                hint=FP001_HINT,
            )

    @staticmethod
    def _plan_indices(plan: NodePlan, space: FactSpace):
        """Yield ``(description, index, exclusive bound)`` for every id."""
        slots = space.slot_count
        instances = space.instance_count
        checks: list = []
        if plan.kill_slot is not None:
            checks.append(("kill slot", plan.kill_slot, slots))
        if plan.value is not None:
            checks.extend(("const instance", c, instances) for c in plan.value.consts)
            checks.extend(("source slot", s, slots) for s in plan.value.slots)
            checks.extend(("deref base slot", d[0], slots) for d in plan.value.derefs)
        if plan.heap_target is not None:
            checks.append(("heap-target base slot", plan.heap_target[0], slots))
        for effect in plan.call_effects:
            if effect.target_kind in ("result", "global"):
                checks.append((f"{effect.target_kind} target slot", effect.target, slots))
            else:  # "field": (base, f); "field2": (base, inner, f)
                checks.append((f"{effect.target_kind} target base slot", effect.target[0], slots))
            for source in effect.sources:
                if source[0] == "const":
                    checks.append(("effect const instance", source[1], instances))
                else:  # ("slot", s) or ("deref", s, f)
                    checks.append(("effect source slot", source[1], slots))
        return checks


FP001_HINT = "fact-pool construction and transfer compilation disagree"


def plan_violations(space: FactSpace, transfer: TransferFunctions) -> Iterator[Tuple[int, str]]:
    """Yield ``(node, message)`` for every out-of-pool id in ``transfer``'s plans."""
    for index, plan in enumerate(transfer.plans):
        if (
            plan.kill_slot is None
            and plan.value is None
            and plan.heap_target is None
            and not plan.call_effects
        ):
            continue  # no id to check
        for what, value, bound in FactPoolPass._plan_indices(plan, space):
            if not 0 <= value < bound:
                message = f"compiled plan {what} id {value} is outside the pool (bound {bound})"
                yield index, message


def raise_on_plan_violations(
    package: str, method: Method, space: FactSpace, transfer: TransferFunctions
) -> None:
    """FP-001 over one compiled plan set: raise :class:`LintError` on a
    violation.  The strict gate's audit of the plans a build runs
    (:class:`repro.core.compiletable.CompileTable`)."""
    found = [
        Diagnostic(
            rule="FP-001",
            severity=RULES["FP-001"][0],
            method=str(method.signature),
            label=method.statements[index].label,
            index=index,
            message=message,
            hint=FP001_HINT,
        )
        for index, message in plan_violations(space, transfer)
    ]
    if found:
        raise LintError(finalize(package, found))
