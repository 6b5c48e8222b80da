"""An IDE solver (Sagiv, Reps & Horwitz, TCS'96) for copy-constant
propagation.

The paper cites IDE as the IFDS extension in the same breath ("the
inter-procedural distributed environment transformers (IDE)"); where
IFDS answers *reachability* of facts, IDE computes a *value* per fact
by composing micro-functions along the exploded supergraph's edges.

This instance is classic copy-constant propagation over the IR's
primitive locals:

* value lattice: ``BOTTOM`` (undefined / unreached) < constants <
  ``TOP`` (non-constant);
* edge functions: the identity, the constant function ``const(c)``,
  and ``top`` -- a function space closed under composition and meet,
  which is exactly what makes the IDE phase-2 value computation exact.

The solver reuses the package's ICFG and follows the two-phase
structure: a tabulation over (node, variable) jump functions, then a
value propagation pass.  For this tiny function space the two phases
fuse naturally into one fixed point on environments.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from repro.cfg.icfg import ICFG, build_icfg
from repro.ir.app import AndroidApp
from repro.ir.expressions import BinaryExpr, CallRhs, LiteralExpr, UnaryExpr, VariableNameExpr
from repro.ir.statements import (
    AssignmentStatement,
    CallStatement,
    ReturnStatement,
    Statement,
)

#: Lattice sentinels.  Constants are plain ints between them.
BOTTOM = "bottom"  # unreached / undefined
TOP = "top"  # provably non-constant

Value = object  # BOTTOM | TOP | int


def meet(a: Value, b: Value) -> Value:
    """The IDE meet: join of information loss."""
    if a == BOTTOM:
        return b
    if b == BOTTOM:
        return a
    if a == TOP or b == TOP:
        return TOP
    return a if a == b else TOP


@dataclass(frozen=True)
class ConstantEnvironment:
    """Variable -> lattice value at one program point."""

    values: Mapping[str, Value]

    def of(self, variable: str) -> Value:
        """Lattice value bound to ``variable`` (BOTTOM if absent)."""
        return self.values.get(variable, BOTTOM)

    def constants(self) -> Dict[str, int]:
        """The provably-constant bindings only."""
        return {
            variable: value
            for variable, value in self.values.items()
            if value not in (BOTTOM, TOP)
        }


class IdeConstantSolver:
    """Copy-constant propagation over the whole-app ICFG."""

    def __init__(self, app: AndroidApp, icfg: Optional[ICFG] = None) -> None:
        self.app = app
        self.icfg = icfg or build_icfg(app)
        #: node -> variable -> value (the environment entering the node).
        self.environments: Dict[int, Dict[str, Value]] = {}

    # -- transformers ----------------------------------------------------------------

    def _transform(
        self, statement: Statement, env: Dict[str, Value]
    ) -> Dict[str, Value]:
        """Apply one statement's environment transformer."""
        if not isinstance(statement, AssignmentStatement):
            return env
        if statement.lhs_access is not None:
            return env
        rhs = statement.rhs
        target = statement.lhs
        out = dict(env)
        if isinstance(rhs, LiteralExpr) and isinstance(rhs.value, int) and not isinstance(rhs.value, bool):
            out[target] = rhs.value
        elif isinstance(rhs, VariableNameExpr):
            out[target] = env.get(rhs.name, BOTTOM)
        elif isinstance(rhs, UnaryExpr) and rhs.op == "-":
            operand = env.get(rhs.operand, BOTTOM)
            out[target] = (
                -operand if isinstance(operand, int) else meet(operand, TOP)
                if operand != BOTTOM
                else BOTTOM
            )
        elif isinstance(rhs, BinaryExpr) and rhs.op in ("+", "-", "*"):
            left = env.get(rhs.left, BOTTOM)
            right = env.get(rhs.right, BOTTOM)
            if isinstance(left, int) and isinstance(right, int):
                ops = {"+": left + right, "-": left - right, "*": left * right}
                out[target] = ops[rhs.op]
            elif left == BOTTOM or right == BOTTOM:
                out[target] = BOTTOM
            else:
                out[target] = TOP
        elif isinstance(rhs, CallRhs):
            out[target] = TOP
        else:
            # Loads, comparisons, casts, foreign expressions: unknown.
            out[target] = TOP
        return out

    # -- the fixed point ----------------------------------------------------------------

    @staticmethod
    def _merge_into(
        target: Dict[str, Value], source: Mapping[str, Value]
    ) -> bool:
        changed = False
        for variable, value in source.items():
            met = meet(target.get(variable, BOTTOM), value)
            if target.get(variable, BOTTOM) != met:
                target[variable] = met
                changed = True
        return changed

    def solve(self) -> None:
        """Run the propagation to its fixed point."""
        icfg = self.icfg
        worklist: deque = deque()
        for signature in icfg.roots:
            entry = icfg.entry_of(signature)
            if entry is not None:
                self.environments.setdefault(entry, {})
                worklist.append(entry)
        visited: Set[int] = set()

        while worklist:
            node = worklist.popleft()
            visited.add(node)
            statement = icfg.statement_of(node)
            env = self.environments.setdefault(node, {})
            out = self._transform(statement, env)

            # Intraprocedural successors.
            for successor in icfg.successors[node]:
                target = self.environments.setdefault(successor, {})
                if self._merge_into(target, out) or successor not in visited:
                    worklist.append(successor)

            # Call edges: map argument values onto parameters.
            for site, callee_entry in icfg.call_edges:
                if site != node:
                    continue
                callee = icfg.method_of(callee_entry)
                method = self.app.method_table[callee]
                args = _call_args(statement)
                callee_env: Dict[str, Value] = {}
                for index, parameter in enumerate(method.parameters):
                    if index < len(args):
                        callee_env[parameter.name] = env.get(args[index], BOTTOM)
                target = self.environments.setdefault(callee_entry, {})
                if self._merge_into(target, callee_env) or callee_entry not in visited:
                    worklist.append(callee_entry)

            # Return edges: map returned values onto call results.
            if isinstance(statement, ReturnStatement):
                for source, ret_target in icfg.return_edges:
                    if source != node:
                        continue
                    value = (
                        env.get(statement.operand, BOTTOM)
                        if statement.operand is not None
                        else BOTTOM
                    )
                    # The return edge targets the call site's successors;
                    # find the call site to learn the result variable.
                    for site, callee_entry in icfg.call_edges:
                        if icfg.method_of(callee_entry) != icfg.method_of(node):
                            continue
                        result = _call_result(icfg.statement_of(site))
                        if result is None:
                            continue
                        if ret_target in icfg.successors[site]:
                            target = self.environments.setdefault(ret_target, {})
                            if self._merge_into(target, {result: value}):
                                worklist.append(ret_target)

    # -- results --------------------------------------------------------------------------

    def environment_at(self, method: str, label: str) -> ConstantEnvironment:
        """The constant environment entering ``label`` of ``method``."""
        start, _end = self.icfg.method_span[method]
        index = self.app.method_table[method].index_of(label)
        return ConstantEnvironment(
            values=dict(self.environments.get(start + index, {}))
        )

    def constant_conditions(self) -> List[Tuple[str, str, int]]:
        """(method, label, value) for if-conditions proven constant --
        the dead-branch candidates a client optimization would use."""
        from repro.ir.statements import IfStatement

        found: List[Tuple[str, str, int]] = []
        for node in range(len(self.icfg)):
            statement = self.icfg.statement_of(node)
            if not isinstance(statement, IfStatement):
                continue
            value = self.environments.get(node, {}).get(statement.condition, BOTTOM)
            if isinstance(value, int) and not isinstance(value, bool):
                found.append(
                    (self.icfg.method_of(node), statement.label, value)
                )
        return found


def _call_args(statement: Statement) -> Tuple[str, ...]:
    if isinstance(statement, CallStatement):
        return statement.args
    if isinstance(statement, AssignmentStatement) and isinstance(
        statement.rhs, CallRhs
    ):
        return statement.rhs.args
    return ()


def _call_result(statement: Statement) -> Optional[str]:
    if isinstance(statement, CallStatement):
        return statement.result
    if isinstance(statement, AssignmentStatement) and isinstance(
        statement.rhs, CallRhs
    ):
        return statement.lhs if statement.lhs_access is None else None
    return None
