"""Incremental SBDA: persist per-method fixed points, re-run only dirty work.

A production vetting service sees the same app at version N and N+1,
where a one-method diff used to recompute the whole IDFG.  This module
makes the re-run pay only for what changed:

* Per-method fixed points are pure functions of ``(printed method
  body, callee summaries)`` -- the fact space consults only the
  callees' footprints and the transfer compiler only the callees'
  summaries.  :class:`MethodSummaryStore` therefore persists finished
  SCC results content-addressed by :func:`repro.dataflow.fingerprint.
  scc_store_key`: the members' body fingerprints plus the *summary
  content* fingerprints of out-of-SCC in-app callees.
* :func:`analyze_app_incremental` replays the exact bottom-up SBDA
  schedule of :func:`repro.dataflow.worklist.analyze_app_reference`,
  but consults the store per SCC first.  A hit restores the members'
  summaries and node facts without running a single worklist visit; a
  miss computes the SCC on the reference's schedule and persists it.
  The miss runs :meth:`SequentialWorklist.run_masked`, which visits the
  same nodes as the set-based oracle on int masks.

* After its SCC entries are written, each pass writes one *index
  entry*, ``apps/<app key>.json`` under the store root, listing the
  app's SCC keys in bottom-up order.  The app key
  (:func:`repro.dataflow.fingerprint.app_store_key`) digests the
  schema and the analyzed app's (signature, method fingerprint) pairs,
  which determine every SCC key.  :func:`vet_incremental` reads it to
  skip replaying a baseline version the store already holds.

The dirty-seeding property falls out of the keying: editing one method
changes that SCC's key (recompute) and -- only if the edit changes the
method's *summary content* -- the keys of its callers, transitively.
Callers whose callee summaries are unchanged hit the store, which is
sound because their inputs are bit-identical to the cold run's.  The
result is asserted ``IDFG.equivalent_to`` the cold reference in tests,
benchmarks, and the CI incremental-smoke gate.

Costs are modeled in worklist node visits: a stored SCC records the
visits its cold computation executed; a reused method is charged
:data:`REUSED_METHOD_COST` visit-equivalents.  ``modeled_speedup`` is
the cold total over the incremental total, deterministic across runs.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.dataflow.facts import CalleeFootprint, FactSpace
from repro.dataflow.fingerprint import (
    app_store_key,
    method_fingerprint,
    scc_store_key,
    summary_fingerprint,
    summary_from_payload,
    summary_to_payload,
)
from repro.dataflow.idfg import IDFG, MethodFacts
from repro.dataflow.summaries import MethodSummary, SummaryBuilder
from repro.dataflow.worklist import SequentialWorklist, _is_self_recursive
from repro.ir.app import AndroidApp

#: Bump when the store entry layout or the keying scheme changes.
#: Generation 2 stores each node's facts as its MAT row in lowercase
#: hex, where generation 1 stored sorted fact lists.  Hex, because JSON
#: writes ints in decimal and CPython refuses to convert an int of more
#: than ``sys.get_int_max_str_digits()`` (4,300) digits, which a row
#: past bit ~14,300 has.  Keys digest the schema, so entries of another
#: generation are never read.
STORE_SCHEMA = 2

#: Modeled cost (in worklist node visits) of serving one method from
#: the store instead of re-running its fixed point.  It models a store
#: whose restore is a copy of the method's stored fact rows, about as
#: cheap as one node visit, and it feeds ``modeled_speedup`` and the
#: >= 10x re-vet gate, so it stays 1.0.  This host implementation pays
#: far more per hit: over the 918 methods of the ``revet`` benchmark's
#: 60 seed-1 first versions (2-vCPU Xeon), an all-hit pass takes 27-30x
#: the wall time of one worklist visit of a cold pass (all costs of
#: both passes included) per reused method, and the store read alone
#: (read, JSON decode, decode and check every member) 9-10 visits.
#: ``incremental.wall_speedup`` reports the wall-clock result beside
#: the modeled one.
REUSED_METHOD_COST = 1.0


class MethodSummaryStore:
    """Content-addressed store of finished SCC analyses.

    One JSON file per SCC key under ``root`` (default: the bench
    cache's ``summaries/`` subdirectory, so ``REPRO_CACHE_DIR`` governs
    both levels of the two-level cache), plus one index entry per
    analyzed app under ``root/apps`` listing its SCC keys.  Writes are
    atomic (temp file + ``os.replace``); corrupt SCC entries are
    deleted on load and counted in :attr:`purged`, mirroring
    :class:`repro.bench.cache.EvaluationCache`.
    """

    def __init__(
        self, root: Optional[Path] = None, enabled: bool = True
    ) -> None:
        if root is None:
            from repro.bench.cache import cache_dir

            root = cache_dir() / "summaries"
        self.root = Path(root)
        self.enabled = enabled
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt or schema-mismatched entries deleted on load.
        self.purged = 0

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def _index_path(self, app_key: str) -> Path:
        return self.root / "apps" / f"{app_key}.json"

    def indexed(self, app_key: str) -> bool:
        """True when the app's index entry names only entries on disk.

        A presence check: it reads the small index entry and stats the
        SCC entry files, but decodes none of them.  A missing or
        unreadable index, or one naming a deleted entry, reads False.
        """
        try:
            keys = json.loads(self._index_path(app_key).read_text())["keys"]
            return all(self._path(key).is_file() for key in keys)
        except (OSError, ValueError, TypeError, KeyError):
            return False

    def store_index(self, app_key: str, keys: Sequence[str]) -> None:
        """Persist one app's SCC key list atomically; non-fatal."""
        if self.enabled:
            self._write(self._index_path(app_key), {"keys": list(keys)})

    def _write(self, path: Path, entry: Dict[str, Any]) -> bool:
        """Write ``entry`` as JSON via a temp file + ``os.replace``."""
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(entry, sort_keys=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=".tmp-", suffix=".json"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return False
        return True

    def load(
        self, key: str, members: Mapping[str, int]
    ) -> Optional["StoredScc"]:
        """Fetch and decode one SCC entry, or None on miss/corruption.

        ``members`` maps each expected member signature to its
        statement count.  Every member is decoded and checked here,
        before the caller restores anything: an entry that fails to
        parse, carries the wrong schema or member set, lacks a field,
        holds a summary that does not decode, a row that is not
        non-negative hex, or not exactly one row per statement, is
        purged and counted as a miss.
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
            entry = json.loads(text)
            if entry["schema"] != STORE_SCHEMA:
                raise ValueError("store schema mismatch")
            if set(entry["members"]) != set(members):
                raise ValueError("store member mismatch")
            stored = StoredScc(visits=float(entry["visits"]), members={})
            for signature, statements in members.items():
                member = entry["members"][signature]
                summary = summary_from_payload(member["summary"])
                rows = tuple(_row(row) for row in member["node_facts"])
                if summary.signature != signature or len(rows) != statements:
                    raise ValueError("store member does not fit its method")
                stored.members[signature] = (
                    summary, rows, _row(member["exit_facts"])
                )
        except (ValueError, TypeError, KeyError):
            self.misses += 1
            try:
                path.unlink()
                self.purged += 1
            except OSError:
                pass
            return None
        self.hits += 1
        return stored

    def store(
        self,
        key: str,
        results: Dict[str, MethodFacts],
        summaries: Dict[str, MethodSummary],
        visits: int,
    ) -> None:
        """Persist one finished SCC atomically; failures are non-fatal."""
        if not self.enabled:
            return
        entry = {
            "schema": STORE_SCHEMA,
            "visits": visits,
            "members": {
                signature: {
                    "summary": summary_to_payload(summaries[signature]),
                    "node_facts": [
                        format(row, "x") for row in result.node_facts
                    ],
                    "exit_facts": format(result.exit_facts, "x"),
                }
                for signature, result in results.items()
            },
        }
        if self._write(self._path(key), entry):
            self.stores += 1


def _row(text: str) -> int:
    """One stored MAT row: non-negative lowercase-hex text."""
    row = int(text, 16)
    if row < 0:
        raise ValueError("negative fact row")
    return row


@dataclass
class StoredScc:
    """One SCC entry as :meth:`MethodSummaryStore.load` decoded it."""

    #: Worklist visits the SCC's cold computation executed.
    visits: float
    #: Member signature -> (summary, node rows, exit row).
    members: Dict[str, Tuple[MethodSummary, Tuple[int, ...], int]]


@dataclass
class IncrementalStats:
    """Reuse accounting for one :func:`analyze_app_incremental` call."""

    methods_total: int = 0
    #: Methods whose fixed point was restored from the store.
    methods_reused: int = 0
    #: Methods whose fixed point was (re)computed this run.
    methods_recomputed: int = 0
    scc_hits: int = 0
    scc_misses: int = 0
    #: Modeled cold cost: worklist visits a from-scratch run executes
    #: (stored SCCs contribute their recorded visits).
    visits_cold: float = 0.0
    #: Modeled cost actually paid this run: visits executed plus
    #: :data:`REUSED_METHOD_COST` per reused method.
    visits_incremental: float = 0.0
    #: Whether :func:`vet_incremental` re-analyzed the baseline version
    #: because the store's index did not show it already stored.
    baseline_replayed: bool = False

    @property
    def modeled_speedup(self) -> float:
        """Cold cost over incremental cost (1.0 on an all-miss run)."""
        if self.visits_incremental <= 0:
            return 1.0
        return self.visits_cold / self.visits_incremental

    def summary(self) -> str:
        """One-line counter report for CLI output."""
        return (
            f"incremental: {self.methods_reused}/{self.methods_total} "
            f"methods reused ({self.scc_hits} SCC hits, "
            f"{self.scc_misses} misses), modeled cost "
            f"{self.visits_incremental:.0f} vs {self.visits_cold:.0f} "
            f"cold ({self.modeled_speedup:.1f}x); baseline replayed: "
            f"{'yes' if self.baseline_replayed else 'no'}"
        )


@dataclass
class IncrementalResult:
    """IDFG plus reuse accounting from an incremental analysis."""

    #: The analyzed app (environments applied), matching the IDFG.
    analyzed_app: AndroidApp
    idfg: IDFG
    stats: IncrementalStats
    #: Per-SCC store keys in bottom-up order (diff reports).
    keys: Tuple[str, ...] = ()


class _IncrementalWorkload:
    """Duck-typed stand-in for :class:`repro.core.engine.AppWorkload`.

    :func:`repro.vetting.report.vet_workload` consumes only
    ``analyzed_app`` and ``idfg``; the incremental path never builds
    the GPU pricing profile, so a full workload would be wasted work.
    """

    __slots__ = ("analyzed_app", "idfg")

    def __init__(self, analyzed_app: AndroidApp, idfg: IDFG) -> None:
        self.analyzed_app = analyzed_app
        self.idfg = idfg


def _analyzed_app(app: AndroidApp) -> AndroidApp:
    """``app`` as the analysis sees it: environments synthesized."""
    return app_with_environments(app) if app.components else app


def _method_fingerprints(app: AndroidApp) -> Dict[str, str]:
    return {
        signature: method_fingerprint(method)
        for signature, method in app.method_table.items()
    }


def analyze_app_incremental(
    app: AndroidApp,
    store: MethodSummaryStore,
    with_environments: bool = True,
) -> IncrementalResult:
    """Reference-equivalent analysis that reuses stored SCC results.

    Replays the bottom-up SBDA schedule of ``analyze_app_reference``;
    each SCC is served from ``store`` when its key (member bodies +
    out-of-SCC callee summary contents) matches a finished entry, and
    computed-and-persisted otherwise.  The returned IDFG is
    bit-identical to the cold reference by construction (asserted in
    tests and the CI incremental-smoke gate).  Once every SCC entry is
    written, the app's index entry is written too.
    """
    if with_environments:
        app = _analyzed_app(app)
    fingerprints = _method_fingerprints(app)
    layering = SBDALayering(CallGraph(app))
    call_graph = layering.call_graph

    summaries: Dict[str, MethodSummary] = {}
    footprints: Dict[str, CalleeFootprint] = {}
    summary_fps: Dict[str, str] = {}
    method_facts: Dict[str, MethodFacts] = {}
    stats = IncrementalStats(methods_total=len(app.methods))
    keys: List[str] = []

    for scc in layering.bottom_up():
        scc_set = set(scc)
        callee_fps = {
            (callee, summary_fps[callee])
            for signature in scc
            for callee in call_graph.callees(signature)
            if callee not in scc_set
        }
        key = scc_store_key(
            STORE_SCHEMA,
            [[signature, fingerprints[signature]] for signature in scc],
            [list(pair) for pair in callee_fps],
        )
        keys.append(key)

        stored = store.load(
            key,
            {
                signature: len(app.method_table[signature].statements)
                for signature in scc
            },
        )
        if stored is not None:
            # Restore every member's summary before building any fact
            # space: recursive members consult each other's footprints.
            for signature in scc:
                summary = stored.members[signature][0]
                summaries[signature] = summary
                footprints[signature] = summary.footprint()
                summary_fps[signature] = summary_fingerprint(summary)
            for signature in scc:
                _, rows, exit_row = stored.members[signature]
                space = FactSpace(app.method_table[signature], footprints)
                method_facts[signature] = MethodFacts(
                    space=space, node_facts=rows, exit_facts=exit_row
                )
            stats.scc_hits += 1
            stats.methods_reused += len(scc)
            stats.visits_cold += stored.visits
            stats.visits_incremental += REUSED_METHOD_COST * len(scc)
            continue

        # Miss: compute as compute_summaries/analyze_app_reference would,
        # on int masks (same visits, same fixed point).  For a
        # non-recursive method the summary-building run already *is*
        # the final pass (same callee summaries), so its facts are
        # reused; recursive SCCs get one extra per-member run with the
        # converged summaries to produce final-pass facts.
        executed = 0
        results: Dict[str, MethodFacts] = {}
        if len(scc) == 1 and not _is_self_recursive(app, scc[0]):
            signature = scc[0]
            worklist = SequentialWorklist(
                app.method_table[signature], summaries
            )
            result = worklist.run_masked()
            executed += worklist.visits
            summaries[signature] = SummaryBuilder(result.space).build(
                result.exit_facts
            )
            results[signature] = result
        else:
            for signature in scc:
                summaries[signature] = MethodSummary(signature=signature)
            changed = True
            while changed:
                changed = False
                for signature in scc:
                    worklist = SequentialWorklist(
                        app.method_table[signature], summaries
                    )
                    result = worklist.run_masked()
                    executed += worklist.visits
                    updated = SummaryBuilder(result.space).build(
                        result.exit_facts
                    )
                    if updated != summaries[signature]:
                        summaries[signature] = updated
                        changed = True
            for signature in scc:
                worklist = SequentialWorklist(
                    app.method_table[signature], summaries
                )
                results[signature] = worklist.run_masked()
                executed += worklist.visits

        for signature in scc:
            footprints[signature] = summaries[signature].footprint()
            summary_fps[signature] = summary_fingerprint(
                summaries[signature]
            )
            method_facts[signature] = results[signature]
        store.store(key, results, summaries, executed)
        stats.scc_misses += 1
        stats.methods_recomputed += len(scc)
        stats.visits_cold += float(executed)
        stats.visits_incremental += float(executed)

    store.store_index(app_store_key(STORE_SCHEMA, fingerprints), keys)
    idfg = IDFG(method_facts=method_facts, summaries=summaries)
    return IncrementalResult(
        analyzed_app=app, idfg=idfg, stats=stats, keys=tuple(keys)
    )


def vet_incremental(
    app: AndroidApp,
    baseline_app: Optional[AndroidApp],
    store: MethodSummaryStore,
    rules=None,
    resolve_icc: bool = True,
):
    """Vet ``app`` reusing everything its baseline version already paid for.

    The baseline is version N of the app, or None to rely on whatever
    the store already holds.  Its SCC results must be in the store
    before the new version runs, so that the new version hits the store
    for every SCC the version bump left untouched.  The store's index
    (``apps/<app key>.json``, written by every
    :func:`analyze_app_incremental` pass) says whether they are: the
    baseline is replayed -- analyzed in full, every stored SCC read and
    decoded -- only when its index entry is missing, cannot be read,
    or names an SCC entry file that is not on disk.  A disabled store
    never replays, since it can neither store nor serve an entry.

    Skipping the replay cannot change a result.  Keys are content
    addresses, so an entry holds the fixed point of exactly the method
    bodies and callee summaries it is keyed by, and the new pass still
    loads and validates every entry it uses; an entry that vanished or
    went corrupt after the check is a miss, and a miss recomputes.

    Returns ``(report, stats)`` where ``stats`` accounts the *new*
    app's run only -- the number the ">= 10x cheaper re-vet" gates
    measure -- plus whether the baseline was replayed.
    """
    from repro.vetting.report import vet_workload

    replayed = False
    if baseline_app is not None and store.enabled:
        baseline_app = _analyzed_app(baseline_app)
        key = app_store_key(STORE_SCHEMA, _method_fingerprints(baseline_app))
        if not store.indexed(key):
            analyze_app_incremental(
                baseline_app, store, with_environments=False
            )
            replayed = True
    result = analyze_app_incremental(app, store)
    result.stats.baseline_replayed = replayed
    workload = _IncrementalWorkload(
        analyzed_app=result.analyzed_app, idfg=result.idfg
    )
    report = vet_workload(
        app, workload, rules=rules, resolve_icc=resolve_icc
    )
    return report, result.stats
