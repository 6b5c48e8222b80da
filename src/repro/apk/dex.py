"""The ``.gdx`` binary container -- our stand-in for classes.dex.

A compact, versioned binary serialization of a whole app (manifest,
globals, components, method bodies).  The loader path
``bytes -> unpack_app -> IR -> CFG -> analysis`` exercises the same
pipeline stages an Androguard-style frontend would feed.

Layout (all integers little-endian)::

    magic   "GDX1"
    u16     format version (currently 1)
    str     package
    str     category
    u32     global count,   then per global:  str name, str descriptor
    u32     component count, then per component:
                str name, str kind, u8 exported,
                u16 filter count + str each,
                u16 callback count + (str callback, str signature) each
    u32     method count, then per method record:
                str signature
                u16 param count + (str name, str descriptor) each
                u16 local count + (str name, str descriptor) each
                u16 handler count + (str start, str end, str handler) each
                u32 statement count + (str label, str text) each

where ``str`` is ``u32 length + UTF-8 bytes``.  Statement text uses the
concrete syntax shared with the textual format, so both containers have
a single, well-tested statement grammar.

Record reuse.  Version bumps of one app arrive back to back (a re-vet
loads the new version, then the old one), and most of their method
records are byte-identical.  :func:`unpack_app` therefore keeps one
table for the last container it decoded successfully: signature text
-> (record bytes, decoded :class:`Method`).  A record whose bytes equal
the table's record for the same signature is not decoded again; the
table's ``Method`` is reused and decoding resumes after the record.
This cannot change a result: a record's decode is a pure function of
its bytes (the parsers and ``Method``'s validation read nothing else),
a record in the table decoded without error, and IR objects are
immutable, so sharing a ``Method`` between apps is what
:func:`repro.apk.generator.mutate_app` already does.  App-level
validation runs on every load, and the table is replaced only once
:class:`AndroidApp` accepts a container.  ``apk.methods_decoded`` and
``apk.methods_reused`` count both paths in the run ledger.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Tuple

from repro import obs
from repro.ir.app import AndroidApp, GlobalField
from repro.ir.component import Component, ComponentKind
from repro.ir.method import ExceptionHandler, Method, Parameter
from repro.ir.parser import parse_signature, parse_statement
from repro.ir.types import parse_descriptor

MAGIC = b"GDX1"
VERSION = 1

_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")

#: The last container decoded successfully: signature text -> (method
#: record bytes, decoded Method).  See "Record reuse" above.
_last_records: Dict[str, Tuple[bytes, Method]] = {}


class GdxFormatError(ValueError):
    """Raised on malformed ``.gdx`` input."""


# -- packing ---------------------------------------------------------------------


def _put_str(out: List[bytes], text: str) -> None:
    blob = text.encode("utf-8")
    out.append(_U32.pack(len(blob)))
    out.append(blob)


def pack_app(app: AndroidApp) -> bytes:
    """Serialize an app into ``.gdx`` bytes."""
    out: List[bytes] = [MAGIC, _U16.pack(VERSION)]
    _put_str(out, app.package)
    _put_str(out, app.category)

    out.append(_U32.pack(len(app.global_fields)))
    for field in app.global_fields:
        _put_str(out, field.name)
        _put_str(out, field.type.descriptor())

    out.append(_U32.pack(len(app.components)))
    for component in app.components:
        _put_str(out, component.name)
        _put_str(out, component.kind.value)
        out.append(_U8.pack(1 if component.exported else 0))
        out.append(_U16.pack(len(component.intent_filters)))
        for intent_filter in component.intent_filters:
            _put_str(out, intent_filter)
        callbacks = sorted(component.callbacks.items())
        out.append(_U16.pack(len(callbacks)))
        for callback, signature in callbacks:
            _put_str(out, callback)
            _put_str(out, signature)

    out.append(_U32.pack(len(app.methods)))
    for method in app.methods:
        _put_str(out, str(method.signature))
        for variables in (method.parameters, method.locals):
            out.append(_U16.pack(len(variables)))
            for variable in variables:
                _put_str(out, variable.name)
                _put_str(out, variable.type.descriptor())
        out.append(_U16.pack(len(method.handlers)))
        for handler in method.handlers:
            _put_str(out, handler.start)
            _put_str(out, handler.end)
            _put_str(out, handler.handler)
        out.append(_U32.pack(len(method.statements)))
        for statement in method.statements:
            _put_str(out, statement.label)
            _put_str(out, statement.text())
    return b"".join(out)


# -- unpacking ----------------------------------------------------------------------
#
# Readers take the buffer and an offset and return ``(value, offset
# after it)``.  A parse error quotes the offset just past the last field
# read.


def _truncated() -> GdxFormatError:
    return GdxFormatError("truncated .gdx stream")


def _read_int(blob: bytes, pos: int, field: struct.Struct) -> Tuple[int, int]:
    try:
        return field.unpack_from(blob, pos)[0], pos + field.size
    except struct.error:
        raise _truncated() from None


def _read_text(blob: bytes, pos: int) -> Tuple[str, int]:
    try:
        (length,) = _U32.unpack_from(blob, pos)
    except struct.error:
        raise _truncated() from None
    start = pos + 4
    end = start + length
    if end > len(blob):
        raise _truncated()
    try:
        return blob[start:end].decode(), end
    except UnicodeDecodeError as error:
        raise GdxFormatError(
            f"undecodable string at offset {end}: {error}"
        ) from error


def _located(what: str, pos: int, error: Exception) -> GdxFormatError:
    """Attach the buffer offset to a parse error."""
    return GdxFormatError(f"{what} at offset {pos}: {error}")


def _read_variables(
    blob: bytes, pos: int, what: str
) -> Tuple[List[Parameter], int]:
    count, pos = _read_int(blob, pos, _U16)
    variables = []
    for _ in range(count):
        name, pos = _read_text(blob, pos)
        descriptor, pos = _read_text(blob, pos)
        try:
            variables.append(Parameter(name=name, type=parse_descriptor(descriptor)))
        except ValueError as error:
            raise _located(f"{what} '{name}'", pos, error) from error
    return variables, pos


def _read_method(
    blob: bytes, pos: int, signature_text: str
) -> Tuple[Method, int]:
    """Decode one method record after its signature string."""
    try:
        signature = parse_signature(signature_text)
    except ValueError as error:
        raise _located(
            f"method signature '{signature_text}'", pos, error
        ) from error
    parameters, pos = _read_variables(blob, pos, "parameter")
    locals_, pos = _read_variables(blob, pos, "local")
    count, pos = _read_int(blob, pos, _U16)
    handlers = []
    for _ in range(count):
        start, pos = _read_text(blob, pos)
        end, pos = _read_text(blob, pos)
        handler, pos = _read_text(blob, pos)
        handlers.append(ExceptionHandler(start=start, end=end, handler=handler))
    count, pos = _read_int(blob, pos, _U32)
    statements = []
    for _ in range(count):
        label, pos = _read_text(blob, pos)
        text, pos = _read_text(blob, pos)
        try:
            statements.append(parse_statement(label, text))
        except ValueError as error:
            raise _located(f"statement '{label}: {text}'", pos, error) from error
    try:
        method = Method(
            signature=signature,
            parameters=parameters,
            locals=locals_,
            statements=statements,
            handlers=handlers,
        )
    except ValueError as error:
        raise _located(f"method {signature}", pos, error) from error
    return method, pos


def unpack_app(blob: bytes) -> AndroidApp:
    """Reconstruct an app from ``.gdx`` bytes.

    Any input that does not start with the ``GDX1`` magic is rejected
    with :class:`GdxFormatError`, as is every malformed field after it.
    """
    global _last_records
    if len(blob) < len(MAGIC):
        raise _truncated()
    if blob[: len(MAGIC)] != MAGIC:
        raise GdxFormatError("bad magic; not a .gdx container")
    version, pos = _read_int(blob, len(MAGIC), _U16)
    if version != VERSION:
        raise GdxFormatError(f"unsupported .gdx version {version}")
    package, pos = _read_text(blob, pos)
    category, pos = _read_text(blob, pos)

    count, pos = _read_int(blob, pos, _U32)
    globals_: List[GlobalField] = []
    for _ in range(count):
        name, pos = _read_text(blob, pos)
        descriptor, pos = _read_text(blob, pos)
        try:
            field_type = parse_descriptor(descriptor)
        except ValueError as error:
            raise _located(f"global field '{name}'", pos, error) from error
        globals_.append(GlobalField(name=name, type=field_type))

    count, pos = _read_int(blob, pos, _U32)
    components: List[Component] = []
    for _ in range(count):
        name, pos = _read_text(blob, pos)
        kind_text, pos = _read_text(blob, pos)
        try:
            kind = ComponentKind(kind_text)
        except ValueError as error:
            raise _located(f"component '{name}' kind", pos, error) from error
        exported, pos = _read_int(blob, pos, _U8)
        filter_count, pos = _read_int(blob, pos, _U16)
        filters = []
        for _ in range(filter_count):
            intent_filter, pos = _read_text(blob, pos)
            filters.append(intent_filter)
        callback_count, pos = _read_int(blob, pos, _U16)
        callbacks = {}
        for _ in range(callback_count):
            callback, pos = _read_text(blob, pos)
            signature, pos = _read_text(blob, pos)
            callbacks[callback] = signature
        components.append(
            Component(
                name=name,
                kind=kind,
                callbacks=callbacks,
                exported=bool(exported),
                intent_filters=filters,
            )
        )

    count, pos = _read_int(blob, pos, _U32)
    previous = _last_records
    records: Dict[str, Tuple[bytes, Method]] = {}
    methods: List[Method] = []
    reused = 0
    for _ in range(count):
        start = pos
        signature_text, pos = _read_text(blob, pos)
        known = previous.get(signature_text)
        if known is not None and blob.startswith(known[0], start):
            record, method = known
            pos = start + len(record)
            reused += 1
        else:
            method, pos = _read_method(blob, pos, signature_text)
            record = blob[start:pos]
        records[signature_text] = (record, method)
        methods.append(method)
    obs.count("apk.methods_decoded", count - reused)
    obs.count("apk.methods_reused", reused)

    try:
        app = AndroidApp(
            package=package,
            components=components,
            methods=methods,
            global_fields=globals_,
            category=category,
        )
    except ValueError as error:
        raise _located(f"app '{package}'", pos, error) from error
    _last_records = records
    return app
