"""Concrete IR interpreter for soundness validation.

Static analysis results are only trustworthy if they *over-approximate*
every concrete execution.  This module executes a method concretely --
real object identities on a real heap, branch outcomes driven by a
seeded RNG -- and records, at every executed statement, which abstract
instance each object-typed variable currently holds.  The test-suite
then asserts the observation is contained in the analysis' fact set at
that node (``tests/test_soundness.py``).

Scope matches the per-method analysis semantics: the interpreter runs
one method with opaque argument objects (the analysis' symbolic
``("param", i)`` instances), materializes opaque results for external
calls, and executes internal calls by recursive interpretation (so
cross-method observations check summary instantiation, too).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dataflow.facts import ARRAY_FIELD
from repro.ir.app import AndroidApp
from repro.ir.expressions import (
    AccessExpr,
    CallRhs,
    CastExpr,
    ConstClassExpr,
    ExceptionExpr,
    Expression,
    IndexingExpr,
    LiteralExpr,
    NewExpr,
    NullExpr,
    StaticFieldAccessExpr,
    TupleExpr,
    VariableNameExpr,
)
from repro.ir.method import Method
from repro.ir.statements import (
    AssignmentStatement,
    CallStatement,
    GotoStatement,
    IfStatement,
    ReturnStatement,
    SwitchStatement,
    ThrowStatement,
)

#: Abstract tag of a concrete object: mirrors the instance vocabulary
#: of :mod:`repro.dataflow.facts` so observations map directly onto
#: analysis instances.  ``frame`` distinguishes allocations from
#: different (possibly recursive) activations of the same method.
Tag = Tuple


@dataclass
class ConcreteObject:
    """One heap object: an abstract tag plus mutable fields.

    ``birth_depth`` records the call depth of the allocating frame so
    that returns can distinguish callee-fresh objects (which the
    caller's analysis names by the call site) from caller objects
    flowing back unchanged.
    """

    tag: Tag
    fields: Dict[str, "Value"] = field(default_factory=dict)
    birth_depth: int = 0


#: A runtime value: an object reference, None (null), or a primitive.
Value = Optional[object]


@dataclass(frozen=True)
class Observation:
    """variable -> tag seen at the entry of one executed statement."""

    node: int
    variable: str
    tag: Tag


class ExecutionBudgetExceeded(RuntimeError):
    """The random walk exceeded its step budget (e.g. a hot loop)."""


class ConcreteInterpreter:
    """Randomized single-method executor with observation logging."""

    def __init__(
        self,
        app: Optional[AndroidApp],
        method: Method,
        seed: int = 0,
        max_steps: int = 2000,
        max_depth: int = 4,
    ) -> None:
        self.app = app
        self.method = method
        self.rng = random.Random(seed)
        self.max_steps = max_steps
        self.max_depth = max_depth
        self.steps = 0
        self.observations: List[Observation] = []
        #: Global (static field) storage shared across frames.
        self.globals: Dict[str, Value] = {}

    # -- value helpers ----------------------------------------------------------

    def _fresh_param_object(self, index: int) -> ConcreteObject:
        """An opaque caller-provided argument: fields hold the
        symbolic pfield placeholders the analysis seeds."""
        obj = ConcreteObject(tag=("param", index))
        return obj

    def _global_object(self, name: str) -> Value:
        if name not in self.globals:
            self.globals[name] = ConcreteObject(tag=("global", name))
        return self.globals[name]

    # -- execution ----------------------------------------------------------------

    def run(self) -> List[Observation]:
        """Execute to completion and return the results."""
        method = self.method
        arguments: List[Value] = []
        for index, parameter in enumerate(method.parameters):
            if parameter.type.is_object:
                arguments.append(self._fresh_param_object(index))
            else:
                arguments.append(self.rng.randint(-4, 4))
        self._run_frame(method, arguments, depth=0, top_level=True)
        return self.observations

    def _run_frame(
        self,
        method: Method,
        arguments: Sequence[Value],
        depth: int,
        top_level: bool,
    ) -> Value:
        env: Dict[str, Value] = {}
        for parameter, value in zip(method.parameters, arguments):
            env[parameter.name] = value
        for local in method.locals:
            env[local.name] = None if local.type.is_object else 0

        object_vars = set(method.object_variables())
        index = 0
        count = len(method.statements)
        return_value: Value = None
        while 0 <= index < count:
            self.steps += 1
            if self.steps > self.max_steps:
                raise ExecutionBudgetExceeded(str(method.signature))
            statement = method.statements[index]

            if top_level:
                for variable in sorted(object_vars):
                    value = env.get(variable)
                    if isinstance(value, ConcreteObject):
                        self.observations.append(
                            Observation(
                                node=index, variable=variable, tag=value.tag
                            )
                        )

            if isinstance(statement, ReturnStatement):
                if statement.operand is not None:
                    return_value = env.get(statement.operand)
                break
            if isinstance(statement, ThrowStatement):
                target = self._handler_for(method, index)
                if target is None:
                    break
                index = target
                continue
            if isinstance(statement, GotoStatement):
                index = method.index_of(statement.target)
                continue
            if isinstance(statement, IfStatement):
                if self.rng.random() < 0.5:
                    index = method.index_of(statement.target)
                else:
                    index += 1
                continue
            if isinstance(statement, SwitchStatement):
                choices = [method.index_of(label) for _, label in statement.cases]
                if statement.default:
                    choices.append(method.index_of(statement.default))
                if not choices or (statement.falls_through and self.rng.random() < 0.3):
                    index += 1
                else:
                    index = self.rng.choice(choices)
                continue
            if isinstance(statement, CallStatement):
                result = self._execute_call(
                    statement.label,
                    statement.callee,
                    statement.args,
                    env,
                    depth,
                )
                if statement.result is not None:
                    env[statement.result] = result
                index += 1
                continue
            if isinstance(statement, AssignmentStatement):
                self._execute_assignment(statement, env, depth)
                index += 1
                continue
            # Empty / Monitor: no effect.
            index += 1
        return return_value

    def _handler_for(self, method: Method, index: int) -> Optional[int]:
        for handler in method.handlers:
            start = method.index_of(handler.start)
            end = method.index_of(handler.end)
            if start <= index <= end:
                return method.index_of(handler.handler)
        return None

    # -- statement semantics ----------------------------------------------------------

    @staticmethod
    def _has_fields(value: Value) -> bool:
        """Constants, class literals and null carry no user fields --
        storing through them raises at runtime (NPE / no such field),
        so those paths simply do not produce heap state."""
        return isinstance(value, ConcreteObject) and value.tag[0] not in (
            "const",
            "null",
            "class",
        )

    def _execute_assignment(
        self,
        statement: AssignmentStatement,
        env: Dict[str, Value],
        depth: int,
    ) -> None:
        value = self._evaluate(statement, statement.rhs, env, depth)
        access = statement.lhs_access
        if access is None:
            env[statement.lhs] = value
            return
        if isinstance(access, StaticFieldAccessExpr):
            self.globals[access.global_slot] = value
            return
        if isinstance(access, AccessExpr):
            base = env.get(access.base)
            if self._has_fields(base):
                base.fields[access.field_name] = value
            return
        assert isinstance(access, IndexingExpr)
        base = env.get(access.base)
        if self._has_fields(base):
            base.fields[ARRAY_FIELD] = value

    def _evaluate(
        self,
        statement: AssignmentStatement,
        expression: Expression,
        env: Dict[str, Value],
        depth: int,
    ) -> Value:
        if isinstance(expression, NewExpr):
            return ConcreteObject(
                tag=("site", statement.label, expression.allocated.class_name),
                birth_depth=depth,
            )
        if isinstance(expression, NullExpr):
            return ConcreteObject(tag=("null",), birth_depth=depth)
        if isinstance(expression, LiteralExpr):
            if isinstance(expression.value, str):
                return ConcreteObject(tag=("const", "str"), birth_depth=depth)
            return expression.value
        if isinstance(expression, ConstClassExpr):
            return ConcreteObject(
                tag=("class", expression.referenced.class_name),
                birth_depth=depth,
            )
        if isinstance(expression, ExceptionExpr):
            return ConcreteObject(tag=("exc", statement.label), birth_depth=depth)
        if isinstance(expression, VariableNameExpr):
            return env.get(expression.name)
        if isinstance(expression, CastExpr):
            return env.get(expression.operand)
        if isinstance(expression, TupleExpr):
            # Aggregation: model as whichever element the runtime picks.
            candidates = [
                env.get(element)
                for element in expression.elements
                if isinstance(env.get(element), ConcreteObject)
            ]
            return self.rng.choice(candidates) if candidates else None
        if isinstance(expression, StaticFieldAccessExpr):
            name = expression.global_slot
            if name not in self.globals:
                self.globals[name] = ConcreteObject(tag=("global", name))
            return self.globals[name]
        if isinstance(expression, AccessExpr):
            return self._load_field(env.get(expression.base), expression.field_name)
        if isinstance(expression, IndexingExpr):
            return self._load_field(env.get(expression.base), ARRAY_FIELD)
        if isinstance(expression, CallRhs):
            return self._execute_call(
                statement.label, expression.callee, expression.args, env, depth
            )
        # Binary / Unary / Cmp / InstanceOf / Length: primitive result.
        return self.rng.randint(-4, 4)

    def _load_field(self, base: Value, field_name: str) -> Value:
        if not isinstance(base, ConcreteObject):
            return None
        if field_name not in base.fields:
            # Uninitialized field of an opaque caller object: the
            # analysis models it as the symbolic pfield placeholder.
            if base.tag[0] == "param":
                base.fields[field_name] = ConcreteObject(
                    tag=("pfield", base.tag[1], field_name)
                )
            else:
                return None
        return base.fields[field_name]

    def _execute_call(
        self,
        label: str,
        callee: str,
        args: Sequence[str],
        env: Dict[str, Value],
        depth: int,
    ) -> Value:
        internal = (
            self.app is not None and callee in getattr(self.app, "method_table", {})
        )
        if internal and depth < self.max_depth:
            method = self.app.method_table[callee]
            arguments: List[Value] = []
            for index, parameter in enumerate(method.parameters):
                arguments.append(
                    env.get(args[index]) if index < len(args) else None
                )
            value = self._run_frame(
                method, arguments, depth=depth + 1, top_level=False
            )
            # Objects the *callee* allocated are opaque to the caller's
            # fact space: the analysis names them by the call site.
            # Caller objects flowing back unchanged keep their tags.
            if (
                isinstance(value, ConcreteObject)
                and value.birth_depth > depth
            ):
                return ConcreteObject(
                    tag=("call", label),
                    fields=value.fields,
                    birth_depth=depth,
                )
            return value
        # External (or too-deep) call: opaque fresh result.
        return ConcreteObject(tag=("call", label), birth_depth=depth)


def soundness_violations(
    method: Method,
    observations: Sequence[Observation],
    node_facts: Sequence[int],
    space,
) -> List[Observation]:
    """Observations NOT covered by the static facts (should be empty).

    An observation maps onto the analysis fact ``(var slot, instance)``
    when its tag is representable in the method's fact space; tags from
    deeper activations (which the per-method space cannot name) are
    skipped.
    """
    violations: List[Observation] = []
    for observation in observations:
        slot = space.var_slot(observation.variable)
        if slot is None:
            continue
        instance = space.instance_id.get(observation.tag)
        if instance is None:
            continue  # not representable in this space; vacuous
        fact = space.encode(slot, instance)
        if not node_facts[observation.node] >> fact & 1:
            violations.append(observation)
    return violations
