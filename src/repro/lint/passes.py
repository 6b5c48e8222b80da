"""Structural verification passes over IR, CFG and call graph.

Each pass is a small object with a ``name``, the tuple of rule ids it
can emit, and a ``run(ctx, emit)`` body.  Passes are deliberately
scoped so their rules are disjoint: a single injected defect class
fires exactly one rule (the property ``tools/lint_mutants.py``
measures).  The fact-pool sanitizer lives in
:mod:`repro.lint.factpool`; everything cheaper is here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.ir.component import LIFECYCLE_CALLBACKS
from repro.ir.expressions import ExceptionExpr
from repro.ir.statements import (
    AssignmentStatement,
    CallStatement,
    IfStatement,
    MonitorStatement,
    Statement,
    SwitchStatement,
    ThrowStatement,
    callee_of,
)
from repro.ir.types import VOID
from repro.lint.context import LintContext

#: ``emit(rule, method, label, index, message, hint="")``
Emitter = Callable[..., None]


class LintPass:
    """Base class: a named rule group over one :class:`LintContext`."""

    name = ""
    rules: Tuple[str, ...] = ()

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        raise NotImplementedError


def _call_result(statement: Statement) -> Tuple[str, ...]:
    """Registers a call statement binds its result to, if any."""
    if isinstance(statement, CallStatement) and statement.result:
        return (statement.result,)
    if (
        isinstance(statement, AssignmentStatement)
        and statement.rhs.kind == "CallRhs"
        and statement.lhs_access is None
    ):
        return (statement.lhs,)
    return ()


def _call_args(statement: Statement) -> Tuple[str, ...]:
    """Argument registers of a call statement (either encoding)."""
    if isinstance(statement, CallStatement):
        return tuple(statement.args)
    if isinstance(statement, AssignmentStatement) and statement.rhs.kind == "CallRhs":
        return tuple(statement.rhs.args)
    return ()


class CfgStructurePass(LintPass):
    """Terminator discipline: every body ends in a non-falling statement."""

    name = "cfg-structure"
    rules = ("CFG-001", "CFG-002")

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        for method in ctx.app.methods:
            if not method.statements:
                emit(
                    "CFG-002", str(method.signature), "", -1,
                    "method body has no statements",
                    hint="add a return statement or drop the method",
                )
                continue
            last = method.statements[-1]
            if last.falls_through:
                emit(
                    "CFG-001", str(method.signature), last.label,
                    len(method.statements) - 1,
                    f"control falls off the end after '{last.text()}'",
                    hint="terminate the body with a return, goto, or throw",
                )


class ExceptionPass(LintPass):
    """Handler-range consistency and catch-head discipline.

    At most one diagnostic per handler; a handler caught inside its own
    protected range (EXC-001) is not additionally blamed for its head.
    """

    name = "cfg-exceptions"
    rules = ("EXC-001", "EXC-002")

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        for method in ctx.app.methods:
            for handler in method.handlers:
                start = method.index_of(handler.start)
                end = method.index_of(handler.end)
                head_index = method.index_of(handler.handler)
                if start <= head_index <= end:
                    emit(
                        "EXC-001", str(method.signature), handler.handler,
                        head_index,
                        f"handler {handler.handler} lies inside its own "
                        f"protected range [{handler.start}, {handler.end}]",
                        hint="a throwing handler re-enters itself; shrink the range",
                    )
                    continue
                head = method.statements[head_index]
                binds_exception = (
                    isinstance(head, AssignmentStatement)
                    and head.lhs_access is None
                    and isinstance(head.rhs, ExceptionExpr)
                )
                if not binds_exception:
                    emit(
                        "EXC-002", str(method.signature), handler.handler,
                        head_index,
                        f"catch head '{head.text()}' does not bind the "
                        "pending exception",
                        hint="the first handler statement must be 'v := Exception'",
                    )


class TypeArityPass(LintPass):
    """Declared-type discipline over the statement kinds.

    Arity/void checks only apply to calls resolvable in the app's
    method table (unresolvable targets are the call-graph pass's
    business); operand-type checks only apply to *declared* registers
    (undeclared ones are the def-before-use pass's business).
    """

    name = "types-arity"
    rules = ("TY-001", "TY-002", "TY-003", "TY-004")

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        table = ctx.app.method_table
        for method in ctx.app.methods:
            signature = str(method.signature)
            declared = ctx.declared(method)
            objects = ctx.object_declared(method)
            for index, statement in enumerate(method.statements):
                callee = callee_of(statement)
                if callee is not None and callee in table:
                    target = table[callee].signature
                    args = _call_args(statement)
                    if len(args) != len(target.param_types):
                        emit(
                            "TY-001", signature, statement.label, index,
                            f"call to {callee} passes {len(args)} argument(s), "
                            f"signature declares {len(target.param_types)}",
                            hint="match the argument list to the callee signature",
                        )
                    if _call_result(statement) and target.return_type == VOID:
                        emit(
                            "TY-002", signature, statement.label, index,
                            f"result register bound on void callee {callee}",
                            hint="drop the result binding or fix the callee's return type",
                        )
                if isinstance(statement, (MonitorStatement, ThrowStatement)):
                    operand = statement.operand
                    if operand in declared and operand not in objects:
                        emit(
                            "TY-003", signature, statement.label, index,
                            f"operand '{operand}' of '{statement.text()}' is "
                            "declared with a primitive type",
                            hint="monitor/throw operands must be object registers",
                        )
                condition = None
                if isinstance(statement, IfStatement):
                    condition = statement.condition
                elif isinstance(statement, SwitchStatement):
                    condition = statement.operand
                if condition is not None and condition in objects:
                    emit(
                        "TY-004", signature, statement.label, index,
                        f"branch condition '{condition}' is declared with an "
                        "object type",
                        hint="branch conditions must be primitive registers",
                    )


class DefBeforeUsePass(LintPass):
    """Undeclared-register uses, classified via the dominator tree.

    Declared registers (parameters and locals) are implicitly
    initialized by the runtime model, so only *undeclared* names are
    findings: DBU-001 when some definition dominates the use (the
    declaration is merely missing), DBU-002 when no definition
    dominates it (the read observes garbage on some path).
    """

    name = "dataflow-init"
    rules = ("DBU-001", "DBU-002")

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        for method in ctx.app.methods:
            if not method.statements:
                continue
            declared = ctx.declared(method)
            undeclared_defs: Dict[str, List[int]] = {}
            for index, statement in enumerate(method.statements):
                defined = statement.defines()
                if defined is not None and defined not in declared:
                    undeclared_defs.setdefault(defined, []).append(index)
            signature = str(method.signature)
            dominators = None
            for index, statement in enumerate(method.statements):
                for name in dict.fromkeys(statement.uses()):
                    if name in declared:
                        continue
                    if dominators is None:
                        dominators = ctx.dominators(method)
                    dominated = any(
                        site != index and dominators.dominates(site, index)
                        for site in undeclared_defs.get(name, ())
                    )
                    if dominated:
                        emit(
                            "DBU-001", signature, statement.label, index,
                            f"register '{name}' is defined but never declared",
                            hint="declare a local (or parameter) for the register",
                        )
                    else:
                        emit(
                            "DBU-002", signature, statement.label, index,
                            f"register '{name}' is read without declaration "
                            "or dominating definition",
                            hint="initialize the register on every path before use",
                        )


class DeadCodePass(LintPass):
    """Statements unreachable from the entry (exceptional edges included)."""

    name = "dead-code"
    rules = ("DEAD-001",)

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        for method in ctx.app.methods:
            if not method.statements:
                continue
            reachable = ctx.cfg(method).reachable_nodes()
            signature = str(method.signature)
            for index, statement in enumerate(method.statements):
                if index not in reachable:
                    emit(
                        "DEAD-001", signature, statement.label, index,
                        f"statement '{statement.text()}' is unreachable",
                        hint="remove it or restore an edge from live code",
                    )


class CallGraphPass(LintPass):
    """Call-graph resolution: dangling internal targets, bad signatures."""

    name = "callgraph"
    rules = ("CG-001", "CG-002")

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        table = ctx.app.method_table
        package = ctx.app.package
        prefix = package + "."
        for method in ctx.app.methods:
            signature = str(method.signature)
            for index, statement in enumerate(method.statements):
                callee = callee_of(statement)
                if callee is None or callee in table:
                    continue
                parsed = ctx.parsed_signature(callee)
                if parsed is None:
                    emit(
                        "CG-002", signature, statement.label, index,
                        f"callee signature '{callee}' is unparseable",
                        hint="use 'owner.name(param-descriptors)return-descriptor'",
                    )
                    continue
                if parsed.owner == package or parsed.owner.startswith(prefix):
                    emit(
                        "CG-001", signature, statement.label, index,
                        f"internal callee {callee} is not in the method table",
                        hint="define the method or mark the call external",
                    )


class ManifestPass(LintPass):
    """Manifest/component consistency: lifecycle endpoints present,
    exported components advertise how they are reached."""

    name = "manifest"
    rules = ("MAN-001", "MAN-002", "MAN-003")

    @staticmethod
    def _icc_send_kinds(ctx: LintContext) -> Set[str]:
        """Component kinds some ICC send site in the app targets."""
        from repro.vetting.sources_sinks import ICC_SEND_APIS

        kinds: Set[str] = set()
        for method in ctx.app.methods:
            for statement in method.statements:
                callee = callee_of(statement)
                if callee is not None and callee in ICC_SEND_APIS:
                    kinds.add(ICC_SEND_APIS[callee])
        return kinds

    def run(self, ctx: LintContext, emit: Emitter) -> None:
        send_kinds: Optional[Set[str]] = None
        for component in ctx.app.components:
            if not component.callbacks:
                emit(
                    "MAN-001", component.name, "", -1,
                    f"{component.kind.value} component declares no callbacks",
                    hint="wire at least one lifecycle callback or drop the component",
                )
                continue
            lifecycle: Set[str] = set(LIFECYCLE_CALLBACKS[component.kind])
            if not lifecycle & set(component.callbacks):
                emit(
                    "MAN-002", component.name, "", -1,
                    f"{component.kind.value} component has callbacks but none "
                    f"of its lifecycle set ({', '.join(sorted(lifecycle))})",
                    hint="analysis entry points come from lifecycle callbacks",
                )
                continue
            if component.exported and not component.intent_filters:
                if send_kinds is None:
                    send_kinds = self._icc_send_kinds(ctx)
                if component.kind.value in send_kinds:
                    emit(
                        "MAN-003", component.name, "", -1,
                        f"exported {component.kind.value} component has no "
                        "intent filter, yet the app sends Intents to "
                        f"{component.kind.value} components",
                        hint="declare an intent filter or unexport the component",
                    )
