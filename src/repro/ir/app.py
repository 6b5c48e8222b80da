"""Whole-application container.

An :class:`AndroidApp` bundles everything the analysis pipeline needs:
the manifest-level component list, the method table, and the global
(static field) slots.  It is what the APK loader produces and what
:class:`repro.core.engine.GDroid` consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.ir.component import Component
from repro.ir.method import Method
from repro.ir.types import JawaType


@dataclass(frozen=True, slots=True)
class GlobalField:
    """A static field: a global points-to slot shared across methods."""

    name: str
    type: JawaType


class AndroidApp:
    """An analyzable Android application.

    Parameters
    ----------
    package:
        The application package name (e.g. ``"com.example.game"``).
    components:
        Manifest-declared components.
    methods:
        All method bodies, callbacks and helpers alike.  Keyed by
        signature string in :attr:`method_table`.
    global_fields:
        Static fields referenced by ``StaticFieldAccessExpr`` nodes.
    category:
        Play-store-style category label; carried through to the corpus
        statistics (the paper samples "from different categories").
    """

    __slots__ = (
        "package",
        "components",
        "methods",
        "global_fields",
        "category",
        "method_table",
    )

    def __init__(
        self,
        package: str,
        components: Iterable[Component],
        methods: Iterable[Method],
        global_fields: Iterable[GlobalField] = (),
        category: str = "uncategorized",
    ) -> None:
        self.package = package
        self.components: Tuple[Component, ...] = tuple(components)
        self.methods: Tuple[Method, ...] = tuple(methods)
        self.global_fields: Tuple[GlobalField, ...] = tuple(global_fields)
        self.category = category
        self.method_table: Dict[str, Method] = {}
        for method in self.methods:
            key = str(method.signature)
            if key in self.method_table:
                raise ValueError(f"duplicate method signature: {key}")
            self.method_table[key] = method
        for component in self.components:
            for callback, signature in component.callbacks.items():
                if signature not in self.method_table:
                    raise ValueError(
                        f"component {component.name}: callback {callback} "
                        f"references unknown method {signature}"
                    )

    # -- lookups ------------------------------------------------------------

    def method(self, signature: str) -> Method:
        """Look up a method body by signature string."""
        return self.method_table[signature]

    def find_method(self, signature: str) -> Optional[Method]:
        """Like :meth:`method` but returns None when absent."""
        return self.method_table.get(signature)

    def global_field_names(self) -> Tuple[str, ...]:
        """Names of the app's static fields."""
        return tuple(g.name for g in self.global_fields)

    # -- statistics (feed Table I) -------------------------------------------

    def statement_count(self) -> int:
        """Total statements == total intra-procedural CFG nodes."""
        return sum(len(m) for m in self.methods)

    def method_count(self) -> int:
        """Number of methods in the app."""
        return len(self.methods)

    def variable_count(self) -> int:
        """Distinct variable *names* app-wide (registers are reused
        across methods, dex-style) plus the global fields -- the
        paper's Table I "no. of Variable" interpretation."""
        names = {g.name for g in self.global_fields}
        for method in self.methods:
            names.update(method.object_variables())
        return len(names)

    def describe(self) -> Dict[str, int]:
        """Summary statistics used by the corpus/Table I reporting."""
        return {
            "cfg_nodes": self.statement_count(),
            "methods": self.method_count(),
            "variables": self.variable_count(),
            "components": len(self.components),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"AndroidApp({self.package!r}, {len(self.components)} components, "
            f"{len(self.methods)} methods, {self.statement_count()} stmts)"
        )
