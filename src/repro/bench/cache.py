"""Incremental on-disk cache of per-app harness evaluations.

Corpus sweeps are embarrassingly resumable: an :class:`AppEvaluation`
is a pure function of ``(corpus seed, size, scale, app index)`` and of
the pricing configuration, so a finished row can be persisted and
reused across processes and sessions.  Each row lives in its own JSON
file named by a SHA-256 key over

* the corpus identity ``(base_seed, size, profile fingerprint, index)``
  -- the *full* :class:`repro.apk.generator.GeneratorProfile`, not just
  its scale, so corpora that differ only in (say) layer bounds never
  alias,
* a *config fingerprint* -- the full experiment matrix
  (:data:`repro.bench.harness._CONFIGS` flattened to dicts, covering
  GPU spec, cost table, tuning and optimization flags), and
* the code version (``repro.__version__`` plus a cache schema tag),

so any change to the model, the costs, or the row schema silently
invalidates stale entries instead of serving them.

Layout: ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-gdroid``), one
``<key>.json`` per row, written atomically (temp file + ``os.replace``)
so concurrent workers never observe torn entries; the ``summaries/``
subtree underneath is the cache's second level, the per-method summary
store that incremental re-vets (``--baseline``) reuse.
``REPRO_BENCH_CACHE=0`` or the ``gdroid bench --no-cache`` flag
disables the cache entirely.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

import repro

#: Bump when the on-disk row layout changes (invalidates old entries).
#: 2: row keys carry the full generator-profile fingerprint, not just
#: the scale (corpora differing only in layer bounds used to alias).
#: 3: row keys carry the targeted-vetting fingerprint, so a row priced
#: on a backward slice can never serve a full-vet request or vice
#: versa (same aliasing class as the schema-2 fix).
#: 4: rows carry per-severity finding counts and keys carry the rule-pack
#: fingerprint -- a row vetted under one pack (or under none) can never
#: serve a sweep running a different pack.
#: 5: keys carry the ICC-resolution mode -- a row vetted with resolved
#: receiver sets (and stitched linked findings) can never serve a
#: ``--no-resolve-icc`` sweep or vice versa.
#: 6: the cache is two-level -- run rows sit on top of a per-method
#: summary store (``summaries/`` subtree, content-addressed SCC
#: entries keyed by body + callee-summary fingerprints) backing
#: incremental re-vets; pre-incremental rows are invalidated.
#: 7: keys drop the ICC-resolution mode (corpus sweeps always resolve),
#: and targeted rows vetted under a pack count the targeted report's
#: findings -- one pipeline for sweeps and serving -- not a full vet of
#: the slice.
CACHE_SCHEMA = 7

_FALSY = {"0", "false", "off", "no"}

#: ``.tmp-*`` files older than this are swept on cache open.  A writer
#: killed (``kill -9``, OOM-killer) between ``mkstemp`` and
#: ``os.replace`` orphans its temp file forever -- no later store ever
#: reuses or replaces it.  The age floor keeps the sweep from racing a
#: *live* concurrent writer mid-publish.
TMP_MAX_AGE_S = 3600.0


def cache_enabled(no_cache: bool = False) -> bool:
    """Cache policy: ``--no-cache`` flag, else ``REPRO_BENCH_CACHE``."""
    if no_cache:
        return False
    return os.environ.get(
        "REPRO_BENCH_CACHE", "1"
    ).strip().lower() not in _FALSY


def cache_dir() -> Path:
    """Root directory for cached rows."""
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root)
    return Path.home() / ".cache" / "repro-gdroid"


def config_fingerprint(configs: Mapping[str, Any]) -> str:
    """Digest of the full experiment matrix (spec, costs, flags)."""
    payload = {
        name: dataclasses.asdict(config)
        for name, config in sorted(configs.items())
    }
    payload["__version__"] = repro.__version__
    payload["__schema__"] = CACHE_SCHEMA
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def profile_fingerprint(profile: Any) -> str:
    """Digest of a full :class:`GeneratorProfile` (every knob, not just
    ``scale``): two corpora generate the same apps iff their profiles
    fingerprint identically."""
    payload = dataclasses.asdict(profile)
    payload["__class__"] = type(profile).__name__
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def row_key(
    base_seed: int,
    size: int,
    profile_fp: str,
    index: int,
    fingerprint: str,
    targets_fp: str = "",
    rules_fp: str = "",
) -> str:
    """Cache key for one app of one corpus under one config matrix.

    ``targets_fp`` is the :meth:`repro.vetting.targeted.TargetSpec.
    fingerprint` of a targeted sweep, or ``""`` for a full-IDFG sweep.
    A targeted row's metrics are functions of the backward slice, not
    of the whole app, so the two must never share a key.

    ``rules_fp`` is the :meth:`repro.rules.pack.RulePack.fingerprint`
    of the pack the sweep vets under, or ``""`` when no pack is run.
    A row's ``finding_counts`` are a function of the pack, so rows
    vetted under different packs must never alias.
    """
    blob = json.dumps(
        [base_seed, size, profile_fp, index, fingerprint, targets_fp,
         rules_fp],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class EvaluationCache:
    """Two-level cache: file-per-row JSON rows over a summary store.

    The top level holds finished :class:`AppEvaluation` rows (one JSON
    file per row key).  The bottom level -- reachable via
    :meth:`summary_store` -- is a :class:`repro.dataflow.incremental.
    MethodSummaryStore` rooted at ``root/summaries``, holding per-SCC
    method summaries and fixed points that incremental re-vets reuse.
    Both levels share the root (``REPRO_CACHE_DIR``) and the enabled
    flag, but account hits/misses separately.
    """

    def __init__(
        self, root: Optional[Path] = None, enabled: bool = True
    ) -> None:
        self.root = root or cache_dir()
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt entries deleted on load failure.
        self.purged = 0
        #: Crash-orphaned ``.tmp-*`` files swept on open.
        self.tmp_purged = self._sweep_stale_tmp() if enabled else 0
        self._summaries: Optional[Any] = None

    def summary_store(self):
        """The method-summary level of the cache (built on first use)."""
        if self._summaries is None:
            from repro.dataflow.incremental import MethodSummaryStore

            self._summaries = MethodSummaryStore(
                root=self.root / "summaries", enabled=self.enabled
            )
        return self._summaries

    def _sweep_stale_tmp(self, max_age_s: float = TMP_MAX_AGE_S) -> int:
        """Delete ``.tmp-*`` droppings older than ``max_age_s``.

        Orphans accumulate silently (one per writer death mid-store)
        and are invisible to ``load``/``store``, so open is the only
        point that ever reclaims them.  Every level is swept: row
        writes leave them in the root, the summary store in
        ``summaries/`` and its index in ``summaries/apps/``.
        """
        purged = 0
        now = time.time()
        for directory, _, names in os.walk(self.root):
            for name in names:
                if not name.startswith(".tmp-"):
                    continue
                path = os.path.join(directory, name)
                try:
                    if now - os.stat(path).st_mtime >= max_age_s:
                        os.unlink(path)
                        purged += 1
                except OSError:
                    continue
        return purged

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def load(self, key: str) -> Optional["AppEvaluation"]:
        """Fetch a row, or None on miss/corruption (counted as a miss).

        A file that exists but fails to parse is deleted so the next
        sweep re-evaluates once instead of re-parsing the corpse every
        run.
        """
        if not self.enabled:
            return None
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            row = _row_from_payload(json.loads(text))
        except (ValueError, TypeError, KeyError):
            self.misses += 1
            try:
                path.unlink()
                self.purged += 1
            except OSError:
                pass
            return None
        self.hits += 1
        return row

    def store(self, key: str, row: "AppEvaluation") -> None:
        """Persist a row atomically; failures are non-fatal (cache only)."""
        if not self.enabled:
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(dataclasses.asdict(row), sort_keys=True)
            fd, tmp = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, self._path(key))
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return
        self.stores += 1


def _row_from_payload(payload: Dict[str, Any]) -> "AppEvaluation":
    """Rebuild an :class:`AppEvaluation` from its JSON dict.

    JSON round-trips tuples as lists; the two worklist-mix fields are
    restored so cached rows compare equal (``==``) to fresh ones.
    """
    from repro.bench.harness import AppEvaluation

    fields = {field.name for field in dataclasses.fields(AppEvaluation)}
    if set(payload) != fields:
        raise KeyError("cache schema mismatch")
    payload = dict(payload)
    payload["wl_mix_sync"] = tuple(payload["wl_mix_sync"])
    payload["wl_mix_mer"] = tuple(payload["wl_mix_mer"])
    payload["finding_counts"] = tuple(payload["finding_counts"])
    return AppEvaluation(**payload)
