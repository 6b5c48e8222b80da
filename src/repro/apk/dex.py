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
    u32     method count, then per method:
                str signature
                u16 param count + (str name, str descriptor) each
                u16 local count + (str name, str descriptor) each
                u32 statement count + (str label, str text) each

where ``str`` is ``u32 length + UTF-8 bytes``.  Statement text uses the
concrete syntax shared with the textual format, so both containers have
a single, well-tested statement grammar.
"""

from __future__ import annotations

import struct
from io import BytesIO
from typing import BinaryIO, List

from repro.ir.app import AndroidApp, GlobalField
from repro.ir.component import Component, ComponentKind
from repro.ir.method import ExceptionHandler, Method, Parameter
from repro.ir.parser import parse_signature, parse_statement
from repro.ir.types import parse_descriptor

MAGIC = b"GDX1"
VERSION = 1


class GdxFormatError(ValueError):
    """Raised on malformed ``.gdx`` input."""


# -- primitives ---------------------------------------------------------------


def _write_str(out: BinaryIO, text: str) -> None:
    blob = text.encode("utf-8")
    out.write(struct.pack("<I", len(blob)))
    out.write(blob)


def _read_exact(src: BinaryIO, count: int) -> bytes:
    blob = src.read(count)
    if len(blob) != count:
        raise GdxFormatError("truncated .gdx stream")
    return blob


def _read_str(src: BinaryIO) -> str:
    (length,) = struct.unpack("<I", _read_exact(src, 4))
    blob = _read_exact(src, length)
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as error:
        raise GdxFormatError(
            f"undecodable string at offset {src.tell()}: {error}"
        ) from error


def _rewrap(src: BinaryIO, what: str, error: Exception) -> GdxFormatError:
    """Attach stream-offset context to a parse error, once."""
    if isinstance(error, GdxFormatError):
        return error
    return GdxFormatError(f"{what} at offset {src.tell()}: {error}")


def _write_u(out: BinaryIO, fmt: str, value: int) -> None:
    out.write(struct.pack(fmt, value))


def _read_u(src: BinaryIO, fmt: str) -> int:
    size = struct.calcsize(fmt)
    (value,) = struct.unpack(fmt, _read_exact(src, size))
    return value


# -- packing ---------------------------------------------------------------------


def pack_app(app: AndroidApp) -> bytes:
    """Serialize an app into ``.gdx`` bytes."""
    out = BytesIO()
    out.write(MAGIC)
    _write_u(out, "<H", VERSION)
    _write_str(out, app.package)
    _write_str(out, app.category)

    _write_u(out, "<I", len(app.global_fields))
    for field in app.global_fields:
        _write_str(out, field.name)
        _write_str(out, field.type.descriptor())

    _write_u(out, "<I", len(app.components))
    for component in app.components:
        _write_str(out, component.name)
        _write_str(out, component.kind.value)
        _write_u(out, "<B", 1 if component.exported else 0)
        _write_u(out, "<H", len(component.intent_filters))
        for intent_filter in component.intent_filters:
            _write_str(out, intent_filter)
        callbacks = sorted(component.callbacks.items())
        _write_u(out, "<H", len(callbacks))
        for callback, signature in callbacks:
            _write_str(out, callback)
            _write_str(out, signature)

    _write_u(out, "<I", len(app.methods))
    for method in app.methods:
        _write_str(out, str(method.signature))
        _write_u(out, "<H", len(method.parameters))
        for parameter in method.parameters:
            _write_str(out, parameter.name)
            _write_str(out, parameter.type.descriptor())
        _write_u(out, "<H", len(method.locals))
        for local in method.locals:
            _write_str(out, local.name)
            _write_str(out, local.type.descriptor())
        _write_u(out, "<H", len(method.handlers))
        for handler in method.handlers:
            _write_str(out, handler.start)
            _write_str(out, handler.end)
            _write_str(out, handler.handler)
        _write_u(out, "<I", len(method.statements))
        for statement in method.statements:
            _write_str(out, statement.label)
            _write_str(out, statement.text())
    return out.getvalue()


# -- unpacking ----------------------------------------------------------------------


def unpack_app(blob: bytes) -> AndroidApp:
    """Reconstruct an app from ``.gdx`` bytes.

    Any input that does not start with the ``GDX1`` magic is rejected
    with :class:`GdxFormatError`, as is every malformed field after it.
    """
    src = BytesIO(blob)
    if _read_exact(src, 4) != MAGIC:
        raise GdxFormatError("bad magic; not a .gdx container")
    version = _read_u(src, "<H")
    if version != VERSION:
        raise GdxFormatError(f"unsupported .gdx version {version}")
    package = _read_str(src)
    category = _read_str(src)

    global_count = _read_u(src, "<I")
    globals_: List[GlobalField] = []
    for _ in range(global_count):
        name = _read_str(src)
        descriptor = _read_str(src)
        try:
            field_type = parse_descriptor(descriptor)
        except ValueError as error:
            raise _rewrap(src, f"global field '{name}'", error) from error
        globals_.append(GlobalField(name=name, type=field_type))

    component_count = _read_u(src, "<I")
    components: List[Component] = []
    for _ in range(component_count):
        name = _read_str(src)
        try:
            kind = ComponentKind(_read_str(src))
        except ValueError as error:
            raise _rewrap(src, f"component '{name}' kind", error) from error
        exported = bool(_read_u(src, "<B"))
        filters = [_read_str(src) for _ in range(_read_u(src, "<H"))]
        callbacks = {}
        for _ in range(_read_u(src, "<H")):
            callback = _read_str(src)
            callbacks[callback] = _read_str(src)
        components.append(
            Component(
                name=name,
                kind=kind,
                callbacks=callbacks,
                exported=exported,
                intent_filters=filters,
            )
        )

    method_count = _read_u(src, "<I")
    methods: List[Method] = []
    for _ in range(method_count):
        signature_text = _read_str(src)
        try:
            signature = parse_signature(signature_text)
        except ValueError as error:
            raise _rewrap(
                src, f"method signature '{signature_text}'", error
            ) from error
        parameters = []
        for _ in range(_read_u(src, "<H")):
            pname = _read_str(src)
            try:
                parameters.append(
                    Parameter(name=pname, type=parse_descriptor(_read_str(src)))
                )
            except ValueError as error:
                raise _rewrap(src, f"parameter '{pname}'", error) from error
        locals_ = []
        for _ in range(_read_u(src, "<H")):
            lname = _read_str(src)
            try:
                locals_.append(
                    Parameter(name=lname, type=parse_descriptor(_read_str(src)))
                )
            except ValueError as error:
                raise _rewrap(src, f"local '{lname}'", error) from error
        handlers = []
        for _ in range(_read_u(src, "<H")):
            start = _read_str(src)
            end = _read_str(src)
            handlers.append(
                ExceptionHandler(start=start, end=end, handler=_read_str(src))
            )
        statements = []
        for _ in range(_read_u(src, "<I")):
            label = _read_str(src)
            text = _read_str(src)
            try:
                statements.append(parse_statement(label, text))
            except ValueError as error:
                raise _rewrap(
                    src, f"statement '{label}: {text}'", error
                ) from error
        try:
            methods.append(
                Method(
                    signature=signature,
                    parameters=parameters,
                    locals=locals_,
                    statements=statements,
                    handlers=handlers,
                )
            )
        except ValueError as error:
            raise _rewrap(src, f"method {signature}", error) from error

    try:
        return AndroidApp(
            package=package,
            components=components,
            methods=methods,
            global_fields=globals_,
            category=category,
        )
    except ValueError as error:
        raise _rewrap(src, f"app '{package}'", error) from error
