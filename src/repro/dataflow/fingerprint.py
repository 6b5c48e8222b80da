"""Content fingerprints for incremental re-analysis.

Incremental SBDA (see :mod:`repro.dataflow.incremental`) keys persisted
per-method results by *what the analysis actually consumes*:

* the method body -- :func:`method_fingerprint` hashes the exact
  printer text (:func:`repro.ir.printer.print_method`), which covers
  the signature, parameters, locals, exception handlers, and every
  lifted IR statement including callee names.  The printer/parser are
  an exact round-trip pair, so two methods share a fingerprint iff
  they are the same method.
* the callees' summaries -- :func:`summary_fingerprint` hashes a
  stable JSON encoding of a :class:`MethodSummary`.  A caller's
  per-method fixed point is a pure function of its body and its
  callees' summaries (the transfer compiler consults nothing else), so
  a callee edit that leaves the summary *content* unchanged leaves
  every caller's key unchanged.

:func:`body_fingerprint` drops the signature header line: it matches a
method that was renamed but whose body is otherwise identical, which
the ``.gdx`` differ (:mod:`repro.apk.diff`) reports as a rename.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List

from repro.dataflow.summaries import MethodSummary
from repro.ir.method import Method
from repro.ir.printer import print_method


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def method_fingerprint(method: Method) -> str:
    """Digest of the full printed method (signature + body)."""
    return _digest(print_method(method))


def body_fingerprint(method: Method) -> str:
    """Digest of the printed method minus its signature header line.

    Two methods with equal body fingerprints differ at most in name --
    the differ uses this to classify renamed-but-identical methods.
    """
    text = print_method(method)
    return _digest(text.split("\n", 1)[1] if "\n" in text else "")


def summary_to_payload(summary: MethodSummary) -> Dict[str, Any]:
    """Stable JSON-ready encoding of a :class:`MethodSummary`.

    Frozensets are sorted, tuple keys become lists; the encoding is
    deterministic so it doubles as fingerprint material.  Source terms
    never mix value types within a tag, so the sorts are total.
    """
    return {
        "signature": summary.signature,
        "returns_fresh": summary.returns_fresh,
        "return_params": sorted(summary.return_params),
        "return_globals": sorted(summary.return_globals),
        "return_pfields": sorted(
            [list(p) for p in summary.return_pfields]
        ),
        "global_writes": [
            [name, sorted([list(s) for s in sources])]
            for name, sources in sorted(summary.global_writes.items())
        ],
        "field_writes": [
            [[list(target), field_name],
             sorted([list(s) for s in sources])]
            for (target, field_name), sources in sorted(
                summary.field_writes.items()
            )
        ],
        "globals_read": sorted(summary.globals_read),
    }


def summary_from_payload(payload: Dict[str, Any]) -> MethodSummary:
    """Inverse of :func:`summary_to_payload` (``==`` to the original)."""
    return MethodSummary(
        signature=payload["signature"],
        returns_fresh=bool(payload["returns_fresh"]),
        return_params=frozenset(payload["return_params"]),
        return_globals=frozenset(payload["return_globals"]),
        return_pfields=frozenset(
            tuple(p) for p in payload["return_pfields"]
        ),
        global_writes={
            name: frozenset(tuple(s) for s in sources)
            for name, sources in payload["global_writes"]
        },
        field_writes={
            (tuple(target), field_name): frozenset(
                tuple(s) for s in sources
            )
            for (target, field_name), sources in payload["field_writes"]
        },
        globals_read=frozenset(payload["globals_read"]),
    )


def summary_fingerprint(summary: MethodSummary) -> str:
    """Content digest of a summary (pure function of its fields)."""
    return _digest(
        json.dumps(summary_to_payload(summary), sort_keys=True)
    )


def scc_store_key(
    schema: int,
    member_fingerprints: List[List[str]],
    callee_summary_fps: List[List[str]],
) -> str:
    """Summary-store key for one call-graph SCC.

    ``member_fingerprints`` is ``[[signature, method_fp], ...]`` for
    every SCC member; ``callee_summary_fps`` is
    ``[[signature, summary_fp], ...]`` for every *out-of-SCC in-app*
    callee.  In-SCC callees are covered by the member fingerprints
    jointly; external callees need no entry because their conservative
    summary is a pure function of the signature, and the signature is
    already part of the caller's printed body.
    """
    blob = json.dumps(
        {
            "schema": schema,
            "members": sorted(member_fingerprints),
            "callees": sorted(callee_summary_fps),
        },
        sort_keys=True,
    )
    return _digest(blob)


def app_store_key(schema: int, method_fingerprints: Dict[str, str]) -> str:
    """Summary-store index key for one analyzed app.

    ``method_fingerprints`` maps every method of the analyzed app
    (environments included) to its :func:`method_fingerprint`.  Those
    pairs determine every SCC key of the app, so two apps that share
    this key share their whole list of SCC entries.
    """
    blob = json.dumps(
        {"schema": schema, "methods": sorted(method_fingerprints.items())}
    )
    return _digest(blob)
