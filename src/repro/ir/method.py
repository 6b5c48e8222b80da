"""Method signatures and bodies.

A :class:`Method` is an ordered list of labelled statements plus its
signature and declared locals.  Label uniqueness and jump-target
resolution are validated eagerly so downstream layers (CFG, data-flow)
can assume well-formed bodies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir.statements import Statement, callee_of, is_call
from repro.ir.types import JawaType, VOID


@dataclass(frozen=True, slots=True)
class Parameter:
    """A formal parameter: name plus declared type."""

    name: str
    type: JawaType


@dataclass(frozen=True, slots=True)
class ExceptionHandler:
    """A try/catch region: throwing statements in [start, end] (body
    order, inclusive) gain an exceptional CFG edge to ``handler``."""

    start: str
    end: str
    handler: str


@dataclass(frozen=True, slots=True)
class MethodSignature:
    """Fully qualified method identity: ``owner.name(params)ret``.

    Signatures are the keys of the app-wide method table and of the
    call graph; the synthetic corpus guarantees they are unique.
    """

    owner: str
    name: str
    param_types: Tuple[JawaType, ...] = ()
    return_type: JawaType = VOID

    def __str__(self) -> str:
        params = "".join(t.descriptor() for t in self.param_types)
        return f"{self.owner}.{self.name}({params}){self.return_type.descriptor()}"

    @property
    def qualified_name(self) -> str:
        """``owner.name`` without the descriptor suffix."""
        return f"{self.owner}.{self.name}"


class Method:
    """A method body: signature, parameters, locals and statements.

    The constructor validates the body:

    * statement labels are unique;
    * every jump target refers to an existing label.

    Iteration yields statements in body order.
    """

    __slots__ = (
        "signature",
        "parameters",
        "locals",
        "statements",
        "handlers",
        "_label_index",
    )

    def __init__(
        self,
        signature: MethodSignature,
        parameters: Sequence[Parameter] = (),
        locals: Sequence[Parameter] = (),
        statements: Sequence[Statement] = (),
        handlers: Sequence[ExceptionHandler] = (),
    ) -> None:
        self.signature = signature
        self.parameters: Tuple[Parameter, ...] = tuple(parameters)
        self.locals: Tuple[Parameter, ...] = tuple(locals)
        self.statements: Tuple[Statement, ...] = tuple(statements)
        self.handlers: Tuple[ExceptionHandler, ...] = tuple(handlers)
        self._label_index: Dict[str, int] = {}
        for index, statement in enumerate(self.statements):
            if statement.label in self._label_index:
                raise ValueError(
                    f"{signature}: duplicate label {statement.label!r}"
                )
            self._label_index[statement.label] = index
        for statement in self.statements:
            for target in statement.jump_targets():
                if target not in self._label_index:
                    raise ValueError(
                        f"{signature}: jump target {target!r} of "
                        f"{statement.label!r} does not exist"
                    )
        for handler in self.handlers:
            for label in (handler.start, handler.end, handler.handler):
                if label not in self._label_index:
                    raise ValueError(
                        f"{signature}: catch clause references unknown "
                        f"label {label!r}"
                    )
            if self._label_index[handler.start] > self._label_index[handler.end]:
                raise ValueError(
                    f"{signature}: catch range {handler.start}..{handler.end} "
                    "is inverted"
                )

    # -- structural queries -------------------------------------------------

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def index_of(self, label: str) -> int:
        """Body position of the statement carrying ``label``."""
        return self._label_index[label]

    def statement_at(self, label: str) -> Statement:
        """Statement carrying ``label``."""
        return self.statements[self._label_index[label]]

    @property
    def entry(self) -> Optional[Statement]:
        """The first statement, or None for an empty (abstract) body."""
        return self.statements[0] if self.statements else None

    def variable_names(self) -> Tuple[str, ...]:
        """All parameter and local names, parameters first."""
        return tuple(p.name for p in self.parameters) + tuple(
            v.name for v in self.locals
        )

    def object_variables(self) -> Tuple[str, ...]:
        """Names of parameters/locals whose type may hold references."""
        return tuple(
            p.name
            for p in (*self.parameters, *self.locals)
            if p.type.is_object
        )

    def callees(self) -> List[str]:
        """Signature strings of all statically referenced callees."""
        found: List[str] = []
        for statement in self.statements:
            target = callee_of(statement)
            if target is not None:
                found.append(target)
        return found

    @property
    def has_calls(self) -> bool:
        """True when any statement is a call."""
        return any(is_call(statement) for statement in self.statements)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Method({self.signature}, {len(self.statements)} stmts)"
