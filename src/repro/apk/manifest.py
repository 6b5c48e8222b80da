"""AndroidManifest model.

A light structural mirror of the manifest data the vetting layer
needs: the package name, declared components with their kinds, export
status and intent filters, and the requested permissions.  Serializes
to/from plain dictionaries (the ``.gdx`` container embeds it as JSON).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.ir.app import AndroidApp


@dataclass(frozen=True)
class ManifestComponent:
    """One ``<activity>`` / ``<service>`` / ... declaration."""

    name: str
    kind: str
    exported: bool = False
    intent_filters: tuple = ()


@dataclass(frozen=True)
class AndroidManifest:
    """The manifest of one app."""

    package: str
    components: tuple = ()
    permissions: tuple = ()

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable)."""
        return {
            "package": self.package,
            "permissions": list(self.permissions),
            "components": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "exported": c.exported,
                    "intent_filters": list(c.intent_filters),
                }
                for c in self.components
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "AndroidManifest":
        """Inverse of :meth:`to_dict`."""
        return cls(
            package=data["package"],
            permissions=tuple(data.get("permissions", ())),
            components=tuple(
                ManifestComponent(
                    name=c["name"],
                    kind=c["kind"],
                    exported=bool(c.get("exported", False)),
                    intent_filters=tuple(c.get("intent_filters", ())),
                )
                for c in data.get("components", ())
            ),
        )

    def to_json(self) -> str:
        """JSON string form."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, blob: str) -> "AndroidManifest":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(blob))

    def exported_components(self) -> List[ManifestComponent]:
        """Attack-surface components (exported or filter-matched)."""
        return [
            c for c in self.components if c.exported or c.intent_filters
        ]


def manifest_of(app: AndroidApp, permissions: Sequence[str] = ()) -> AndroidManifest:
    """Derive the manifest from an in-memory app."""
    return AndroidManifest(
        package=app.package,
        permissions=tuple(permissions),
        components=tuple(
            ManifestComponent(
                name=component.name,
                kind=component.kind.value,
                exported=component.exported,
                intent_filters=tuple(component.intent_filters),
            )
            for component in app.components
        ),
    )
