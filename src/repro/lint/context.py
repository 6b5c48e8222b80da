"""Shared, lazily-built state for one lint run.

Several passes need the same derived structures (per-method CFGs,
dominator trees, parsed callee signatures).  :class:`LintContext`
builds each at most once per run so the pass suite stays close to a
single traversal of the app.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, FrozenSet, Iterator, Optional, Protocol

from repro.cfg.dominators import DominatorTree
from repro.cfg.intra import IntraCFG, build_intra_cfg
from repro.ir.app import AndroidApp
from repro.ir.method import Method, MethodSignature
from repro.ir.parser import parse_signature

#: Sentinel distinguishing "parse failed" from "not yet parsed".
_PARSE_FAILED = object()

class BuildTable(Protocol):
    """What the gate needs of a build's compile table."""

    def cfg(self, method: Method) -> IntraCFG: ...


#: The compile table of the build that a running strict gate guards.
_GATED_BUILD: ContextVar[Optional[BuildTable]] = ContextVar("gated_build", default=None)


@contextmanager
def gating(table: BuildTable) -> Iterator[None]:
    """Lint inside this block as the strict gate of a build compiling with ``table``.

    ``table`` (a :class:`repro.core.compiletable.CompileTable` built
    with ``audit``) runs FP-001 on every plan set it compiles: the plans
    that run, environment methods and summary-instantiated call effects
    included, which a summary-free lint compile never sees.  So the
    gate leaves FP-001 to it, and takes its CFGs from it instead of
    building its own.
    """
    token = _GATED_BUILD.set(table)
    try:
        yield
    finally:
        _GATED_BUILD.reset(token)


class LintContext:
    """Caches derived per-method structures across passes."""

    def __init__(self, app: AndroidApp) -> None:
        self.app = app
        #: The compile table of the build this run gates (see
        #: :func:`gating`), or None.
        self.build_table = _GATED_BUILD.get()
        self._cfgs: Dict[str, IntraCFG] = {}
        self._dominators: Dict[str, DominatorTree] = {}
        self._declared: Dict[str, FrozenSet[str]] = {}
        self._objects: Dict[str, FrozenSet[str]] = {}
        self._signatures: Dict[str, object] = {}

    def cfg(self, method: Method) -> IntraCFG:
        """The method's intra-procedural CFG (built once)."""
        if self.build_table is not None:
            return self.build_table.cfg(method)
        key = str(method.signature)
        cfg = self._cfgs.get(key)
        if cfg is None:
            cfg = build_intra_cfg(method)
            self._cfgs[key] = cfg
        return cfg

    def dominators(self, method: Method) -> DominatorTree:
        """The method's dominator tree (built once, over its CFG)."""
        key = str(method.signature)
        tree = self._dominators.get(key)
        if tree is None:
            tree = DominatorTree(self.cfg(method))
            self._dominators[key] = tree
        return tree

    def declared(self, method: Method) -> FrozenSet[str]:
        """All declared register names (parameters + locals)."""
        key = str(method.signature)
        names = self._declared.get(key)
        if names is None:
            names = frozenset(method.variable_names())
            self._declared[key] = names
        return names

    def object_declared(self, method: Method) -> FrozenSet[str]:
        """Registers declared with an object (reference) type."""
        key = str(method.signature)
        names = self._objects.get(key)
        if names is None:
            names = frozenset(method.object_variables())
            self._objects[key] = names
        return names

    def primitive_declared(self, method: Method) -> FrozenSet[str]:
        """Registers declared with a primitive type (no fact-pool slot)."""
        return self.declared(method) - self.object_declared(method)

    def parsed_signature(self, text: str) -> Optional[MethodSignature]:
        """``parse_signature(text)``, memoized; ``None`` on parse failure."""
        cached = self._signatures.get(text)
        if cached is None:
            try:
                cached = parse_signature(text)
            except ValueError:
                cached = _PARSE_FAILED
            self._signatures[text] = cached
        return None if cached is _PARSE_FAILED else cached
