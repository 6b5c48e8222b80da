"""Parser for the textual Jawa-like IR.

Exact inverse of :mod:`repro.ir.printer`; see that module for the
format.  The parser is deliberately strict -- malformed input raises
:class:`IRSyntaxError` with a line number -- because the generator and
the dex loader are the only producers and silent tolerance would mask
their bugs.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

from repro.ir.app import AndroidApp, GlobalField
from repro.ir.component import Component, ComponentKind
from repro.ir.expressions import (
    AccessExpr,
    BinaryExpr,
    CallRhs,
    CastExpr,
    CmpExpr,
    ConstClassExpr,
    ExceptionExpr,
    Expression,
    IndexingExpr,
    InstanceOfExpr,
    LengthExpr,
    LiteralExpr,
    NewExpr,
    NullExpr,
    StaticFieldAccessExpr,
    TupleExpr,
    UnaryExpr,
    VariableNameExpr,
)
from repro.ir.method import ExceptionHandler, Method, MethodSignature, Parameter
from repro.ir.statements import (
    AssignmentStatement,
    CallStatement,
    EmptyStatement,
    GotoStatement,
    IfStatement,
    MonitorStatement,
    ReturnStatement,
    Statement,
    SwitchStatement,
    ThrowStatement,
)
from repro.ir.types import ObjectType, parse_descriptor

_IDENT = r"[A-Za-z_$][A-Za-z0-9_$]*"
_BINARY_OP = r"\+|-|\*|/|%|&|\||\^|<<|>>>|>>"
#: Every right-hand-side form a pattern decides.  The forms are
#: disjoint -- each needs its own first character, or its own character
#: after the leading identifier -- so one anchored pattern tries them
#: all, and ``lastgroup`` (always the form's last group) names the one
#: that matched; a bare ``name`` is a variable.  An assignment target
#: is a ``name``, ``access``, ``index`` or ``static`` form.
_EXPRESSION_RE = re.compile(
    "^(?:"
    rf"(?P<name>{_IDENT})(?:"
    rf"\.(?P<access>{_IDENT})"
    rf"|\[(?P<index>{_IDENT})\]"
    rf"|\s*(?P<binary_op>{_BINARY_OP})\s*(?P<binary>{_IDENT})"
    r"|\s+instanceof\s+(?P<instanceof>\S+)"
    ")?"
    rf"|@@(?P<static_owner>[A-Za-z0-9_.$]+)\.(?P<static>{_IDENT})"
    rf"|\((?P<cast_type>\S+)\)\s+(?P<cast>{_IDENT})"
    r"|(?P<number>-?\d+(?P<fraction>\.\d+)?)"
    rf"|(?P<unary_op>[-!~])(?P<unary>{_IDENT})"
    rf"|(?P<cmp_op>cmpl?|cmpg|cmp)\((?P<cmp_left>{_IDENT}),\s*(?P<cmp>{_IDENT})\)"
    rf"|length\((?P<length>{_IDENT})\)"
    ")$"
)
_IF_RE = re.compile(rf"^if\s+({_IDENT})\s+then\s+goto\s+(\S+)$")
_CALL_STMT_RE = re.compile(rf"^call\s+(?:({_IDENT})\s*:=\s*)?(.+)$")
_SIG_RE = re.compile(r"^([A-Za-z0-9_.$]+)\.([A-Za-z0-9_$<>]+)\((.*)\)(.+)$")
_SWITCH_RE = re.compile(rf"^switch\s+({_IDENT})\s*\{{\s*(.*)\s*\}}$")
_CASE_RE = re.compile(r"^case\s+(-?\d+):\s*goto\s+(\S+)$")
_DEFAULT_RE = re.compile(r"^default:\s*goto\s+(\S+)$")


class IRSyntaxError(ValueError):
    """Raised for malformed textual IR, carrying the offending line."""

    def __init__(self, line_number: int, message: str) -> None:
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_signature(text: str) -> MethodSignature:
    """Parse ``owner.name(paramdescs)retdesc`` into a signature."""
    match = _SIG_RE.match(text.strip())
    if match is None:
        raise ValueError(f"malformed method signature: {text!r}")
    owner_and_name = match.group(1) + "." + match.group(2)
    owner, _, name = owner_and_name.rpartition(".")
    param_blob, return_blob = match.group(3), match.group(4)
    try:
        params = tuple(
            parse_descriptor(d) for d in _split_descriptors(param_blob)
        )
        return MethodSignature(owner, name, params, parse_descriptor(return_blob))
    except ValueError as error:
        raise ValueError(
            f"malformed method signature {text!r}: {error}"
        ) from error


def _split_descriptors(blob: str) -> List[str]:
    """Split concatenated dex descriptors (``ILjava/lang/String;[I``)."""
    out: List[str] = []
    i = 0
    while i < len(blob):
        start = i
        while i < len(blob) and blob[i] == "[":
            i += 1
        if i >= len(blob):
            raise ValueError(
                f"unterminated array descriptor at offset {start} in {blob!r}"
            )
        if blob[i] == "L":
            end = blob.find(";", i)
            if end < 0:
                raise ValueError(
                    f"unterminated class descriptor at offset {i} in {blob!r}"
                )
            i = end + 1
        else:
            i += 1
        out.append(blob[start:i])
    return out


#: ``_EXPRESSION_RE`` form -> constructor of the matched expression.
_EXPRESSION_FORMS: Dict[Optional[str], Callable[["re.Match[str]"], Expression]] = {
    "name": lambda m: VariableNameExpr(name=m["name"]),
    "access": lambda m: AccessExpr(base=m["name"], field_name=m["access"]),
    "index": lambda m: IndexingExpr(base=m["name"], index=m["index"]),
    "binary": lambda m: BinaryExpr(op=m["binary_op"], left=m["name"], right=m["binary"]),
    "instanceof": lambda m: InstanceOfExpr(
        operand=m["name"], tested=parse_descriptor(m["instanceof"])
    ),
    "static": lambda m: StaticFieldAccessExpr(owner=m["static_owner"], field_name=m["static"]),
    "cast": lambda m: CastExpr(target=parse_descriptor(m["cast_type"]), operand=m["cast"]),
    "number": lambda m: LiteralExpr(
        value=float(m["number"]) if m["fraction"] else int(m["number"])
    ),
    "unary": lambda m: UnaryExpr(op=m["unary_op"], operand=m["unary"]),
    "cmp": lambda m: CmpExpr(op=m["cmp_op"], left=m["cmp_left"], right=m["cmp"]),
    "length": lambda m: LengthExpr(operand=m["length"]),
}


def parse_expression(text: str) -> Expression:
    """Parse one right-hand-side expression (any of the 17 kinds).

    Exact words and prefixes are tested first, then one anchored
    pattern decides every other form.
    """
    text = text.strip()
    if text == "null":
        return NullExpr()
    if text == "Exception":
        return ExceptionExpr()
    if text == "true" or text == "false":
        return LiteralExpr(value=text == "true")
    word, space, rest = text.partition(" ")
    if space:
        if word == "new":
            return NewExpr(allocated=ObjectType(rest.strip()))
        if word == "constclass":
            return ConstClassExpr(referenced=ObjectType(rest.strip()))
        if word == "call":
            callee, args = _parse_call_target(rest)
            return CallRhs(callee=callee, args=args)
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        inner = text[1:-1].replace('\\"', '"').replace("\\\\", "\\")
        return LiteralExpr(value=inner)
    match = _EXPRESSION_RE.match(text)
    if match is not None:
        return _EXPRESSION_FORMS[match.lastgroup](match)
    if text.startswith("(") and text.endswith(")"):
        inner = text[1:-1].strip()
        elements = tuple(e.strip() for e in inner.split(",")) if inner else ()
        return TupleExpr(elements=elements)
    raise ValueError(f"cannot parse expression: {text!r}")


def _parse_call_target(text: str) -> Tuple[str, Tuple[str, ...]]:
    """Split ``sig(arg, arg)`` where *sig* itself contains parentheses."""
    text = text.strip()
    open_paren = text.rfind("(")
    if open_paren < 0 or not text.endswith(")"):
        raise ValueError(f"malformed call: {text!r}")
    callee = text[:open_paren].strip()
    blob = text[open_paren + 1 : -1].strip()
    args = tuple(a.strip() for a in blob.split(",")) if blob else ()
    return callee, args


def _parse_lhs(text: str) -> Tuple[str, Optional[Expression]]:
    """Parse an assignment left-hand side into (name, heap access)."""
    text = text.strip()
    match = _EXPRESSION_RE.match(text)
    if match is not None:
        if match.lastgroup == "name":
            return text, None
        if match.lastgroup in ("access", "index"):
            return match["name"], _EXPRESSION_FORMS[match.lastgroup](match)
        if match.lastgroup == "static":
            access = StaticFieldAccessExpr(
                owner=match["static_owner"], field_name=match["static"]
            )
            return access.global_slot, access
    raise ValueError(f"cannot parse assignment target: {text!r}")


def parse_statement(label: str, text: str) -> Statement:
    """Parse one statement body (text after the ``Lx:`` label).

    The first word picks the statement form, so a statement runs at most
    one pattern; any other text is a switch, an assignment or malformed.
    """
    text = text.strip()
    word, space, rest = text.partition(" ")
    if not space:
        if text == "nop":
            return EmptyStatement(label=label)
        if text == "return":
            return ReturnStatement(label=label)
    elif word == "return":
        return ReturnStatement(label=label, operand=rest.strip())
    elif word == "throw":
        return ThrowStatement(label=label, operand=rest.strip())
    elif word == "monitorenter" or word == "monitorexit":
        return MonitorStatement(
            label=label, enter=word == "monitorenter", operand=text.split()[1]
        )
    elif word == "goto":
        return GotoStatement(label=label, target=text.split()[1])
    elif word == "if":
        match = _IF_RE.match(text)
        if match is None:
            raise ValueError(f"malformed if: {text!r}")
        return IfStatement(label=label, condition=match.group(1), target=match.group(2))
    elif word == "call":
        match = _CALL_STMT_RE.match(text)
        if match is None:
            raise ValueError(f"malformed call statement: {text!r}")
        result, rest = match.group(1), match.group(2)
        callee, args = _parse_call_target(rest)
        return CallStatement(label=label, callee=callee, args=args, result=result)
    match = _SWITCH_RE.match(text) if text.startswith("switch") else None
    if match is not None:
        operand, body = match.group(1), match.group(2)
        cases: List[Tuple[int, str]] = []
        default = ""
        for clause in (c.strip() for c in body.split(";") if c.strip()):
            case_match = _CASE_RE.match(clause)
            if case_match is not None:
                cases.append((int(case_match.group(1)), case_match.group(2)))
                continue
            default_match = _DEFAULT_RE.match(clause)
            if default_match is not None:
                default = default_match.group(1)
                continue
            raise ValueError(f"malformed switch clause: {clause!r}")
        return SwitchStatement(
            label=label, operand=operand, cases=tuple(cases), default=default
        )
    if ":=" in text:
        lhs_text, rhs_text = text.split(":=", 1)
        lhs, lhs_access = _parse_lhs(lhs_text)
        rhs = parse_expression(rhs_text)
        return AssignmentStatement(label=label, lhs=lhs, rhs=rhs, lhs_access=lhs_access)
    raise ValueError(f"cannot parse statement: {text!r}")


def parse_app(source: str) -> AndroidApp:
    """Parse a full textual app; inverse of ``printer.print_app``."""
    package = ""
    category = "uncategorized"
    globals_: List[GlobalField] = []
    components: List[Component] = []
    methods: List[Method] = []

    lines = source.splitlines()
    index = 0

    def error(message: str) -> IRSyntaxError:
        return IRSyntaxError(index + 1, message)

    while index < len(lines):
        line = lines[index].strip()
        if not line or line.startswith("#"):
            index += 1
            continue
        if line.startswith("app "):
            parts = line.split()
            if len(parts) not in (2, 4) or (len(parts) == 4 and parts[2] != "category"):
                raise error(f"malformed app header: {line!r}")
            package = parts[1]
            if len(parts) == 4:
                category = parts[3]
            index += 1
            continue
        if line.startswith("global "):
            match = re.match(r"^global\s+(\S+):\s*(\S+)$", line)
            if match is None:
                raise error(f"malformed global: {line!r}")
            try:
                global_type = parse_descriptor(match.group(2))
            except ValueError as exc:
                raise error(f"bad global descriptor: {exc}") from exc
            globals_.append(
                GlobalField(name=match.group(1), type=global_type)
            )
            index += 1
            continue
        if line.startswith("component "):
            component, index = _parse_component(lines, index)
            components.append(component)
            continue
        if line.startswith("method "):
            method, index = _parse_method(lines, index)
            methods.append(method)
            continue
        raise error(f"unexpected line: {line!r}")

    if not package:
        raise IRSyntaxError(1, "missing 'app' header")
    return AndroidApp(
        package=package,
        components=components,
        methods=methods,
        global_fields=globals_,
        category=category,
    )


def _parse_component(lines: List[str], index: int) -> Tuple[Component, int]:
    header = lines[index].strip().split()
    if len(header) < 3:
        raise IRSyntaxError(index + 1, f"malformed component header: {lines[index]!r}")
    name = header[1]
    try:
        kind = ComponentKind(header[2])
    except ValueError as error:
        raise IRSyntaxError(
            index + 1, f"unknown component kind {header[2]!r}"
        ) from error
    exported = "exported" in header[3:]
    callbacks: Dict[str, str] = {}
    filters: List[str] = []
    index += 1
    while index < len(lines):
        line = lines[index].strip()
        if line == "end":
            return (
                Component(
                    name=name,
                    kind=kind,
                    callbacks=callbacks,
                    exported=exported,
                    intent_filters=filters,
                ),
                index + 1,
            )
        if line.startswith("filter "):
            filters.append(line[len("filter "):].strip())
        elif line.startswith("callback "):
            parts = line.split(None, 2)
            if len(parts) != 3:
                raise IRSyntaxError(
                    index + 1, f"malformed callback: {line!r}"
                )
            callbacks[parts[1]] = parts[2].strip()
        elif line:
            raise IRSyntaxError(index + 1, f"unexpected component line: {line!r}")
        index += 1
    raise IRSyntaxError(index, "unterminated component block")


def _parse_method(lines: List[str], index: int) -> Tuple[Method, int]:
    try:
        signature = parse_signature(lines[index].strip()[len("method "):])
    except ValueError as exc:
        raise IRSyntaxError(index + 1, str(exc)) from exc
    parameters: List[Parameter] = []
    locals_: List[Parameter] = []
    statements: List[Statement] = []
    handlers: List[ExceptionHandler] = []
    index += 1
    while index < len(lines):
        line = lines[index].strip()
        if line == "end":
            try:
                method = Method(
                    signature=signature,
                    parameters=parameters,
                    locals=locals_,
                    statements=statements,
                    handlers=handlers,
                )
            except ValueError as exc:
                raise IRSyntaxError(
                    index + 1, f"invalid method {signature}: {exc}"
                ) from exc
            return method, index + 1
        if line.startswith("catch "):
            match = re.match(r"^catch\s+(\S+)\s+from\s+(\S+)\s+to\s+(\S+)$", line)
            if match is None:
                raise IRSyntaxError(index + 1, f"malformed catch: {line!r}")
            handlers.append(
                ExceptionHandler(
                    handler=match.group(1),
                    start=match.group(2),
                    end=match.group(3),
                )
            )
            index += 1
            continue
        if line.startswith("param "):
            match = re.match(r"^param\s+(\S+):\s*(\S+)$", line)
            if match is None:
                raise IRSyntaxError(index + 1, f"malformed param: {line!r}")
            try:
                parameters.append(
                    Parameter(name=match.group(1), type=parse_descriptor(match.group(2)))
                )
            except ValueError as exc:
                raise IRSyntaxError(index + 1, f"bad param descriptor: {exc}") from exc
        elif line.startswith("local "):
            match = re.match(r"^local\s+(\S+):\s*(\S+)$", line)
            if match is None:
                raise IRSyntaxError(index + 1, f"malformed local: {line!r}")
            try:
                locals_.append(
                    Parameter(name=match.group(1), type=parse_descriptor(match.group(2)))
                )
            except ValueError as exc:
                raise IRSyntaxError(index + 1, f"bad local descriptor: {exc}") from exc
        elif line:
            match = re.match(r"^(\S+):\s*(.+)$", line)
            if match is None:
                raise IRSyntaxError(index + 1, f"missing label: {line!r}")
            try:
                statements.append(parse_statement(match.group(1), match.group(2)))
            except ValueError as exc:
                raise IRSyntaxError(index + 1, str(exc)) from exc
        index += 1
    raise IRSyntaxError(index, "unterminated method block")
