"""Regression tests: strict-vs-cache, profile aliasing, limit=0, RNG.

Each test pins one of the harness/cache correctness bugs fixed in the
run-ledger PR:

* ``evaluate_corpus(strict=True)`` used to serve cached rows without
  re-running the lint gate;
* cache keys hashed only the generator ``scale``, so corpora with the
  same scale but different layer bounds aliased;
* an explicit ``limit=0`` evaluated the whole corpus;
* the in-process fallback of ``evaluate_parallel`` reseeded the global
  ``random`` module, perturbing caller RNG state;
* corrupt on-disk cache entries were re-parsed every sweep instead of
  being deleted.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import repro.lint as lint_module
from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile
from repro.bench.cache import EvaluationCache, profile_fingerprint
from repro.bench.harness import (
    AppEvaluation,
    LintErrorRow,
    evaluate_corpus,
    last_run_stats,
)
from repro.bench.parallel import _evaluate_chunk, evaluate_parallel
from tests.conftest import TINY_PROFILE

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import lint_mutants  # noqa: E402


# -- strict runs must re-verify cached rows -----------------------------------


class TestStrictVsCache:
    def test_warm_cache_rows_are_relinted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=2, base_seed=880100, profile=TINY_PROFILE)
        warm = evaluate_corpus(corpus)

        linted = []
        real_check = lint_module.check_app
        monkeypatch.setattr(
            lint_module,
            "check_app",
            lambda app: (linted.append(app.package), real_check(app))[1],
        )
        rows = evaluate_corpus(corpus, strict=True)
        stats = last_run_stats()
        assert stats.process_hits == 2  # served from cache...
        assert len(linted) == 2  # ...but every row passed the gate anyway
        assert stats.strict_relints == 2
        assert rows == warm

    def test_warm_disk_cache_rows_are_relinted(self, tmp_path, monkeypatch):
        from repro.bench.harness import _CACHE

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=2, base_seed=880150, profile=TINY_PROFILE)
        evaluate_corpus(corpus)
        _CACHE.clear()  # force the disk-hit path

        linted = []
        real_check = lint_module.check_app
        monkeypatch.setattr(
            lint_module,
            "check_app",
            lambda app: (linted.append(app.package), real_check(app))[1],
        )
        evaluate_corpus(corpus, strict=True)
        stats = last_run_stats()
        assert stats.disk_hits == 2
        assert len(linted) == 2

    def test_poisoned_cached_row_is_rejected(self, tmp_path, monkeypatch):
        """A cached row for an app that *no longer* lints clean must not
        be served by a strict run -- the old behaviour leaked it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=2, base_seed=880200, profile=TINY_PROFILE)
        evaluate_corpus(corpus)  # caches both rows

        real_app = corpus.app
        broken = lint_mutants.mutate_primitive_alloc(real_app(1))
        monkeypatch.setattr(
            corpus, "app", lambda i: broken if i == 1 else real_app(i)
        )
        rows = evaluate_corpus(corpus, strict=True)
        assert isinstance(rows[0], AppEvaluation)
        assert isinstance(rows[1], LintErrorRow)
        assert rows[1].rules == ("FP-002",)
        assert last_run_stats().process_hits == 2

    def test_non_strict_runs_skip_the_relint(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=2, base_seed=880250, profile=TINY_PROFILE)
        evaluate_corpus(corpus)
        monkeypatch.setattr(
            lint_module,
            "check_app",
            lambda app: (_ for _ in ()).throw(AssertionError("gate ran")),
        )
        rows = evaluate_corpus(corpus)  # warm, non-strict: no lint calls
        assert len(rows) == 2
        assert last_run_stats().strict_relints == 0


# -- cache keys must cover the full generator profile -------------------------


class TestProfileAliasing:
    def test_fingerprint_covers_every_knob(self):
        base = GeneratorProfile(scale=0.06, layers_low=2, layers_high=4)
        same = GeneratorProfile(scale=0.06, layers_low=2, layers_high=4)
        bounds = GeneratorProfile(scale=0.06, layers_low=3, layers_high=5)
        loops = GeneratorProfile(scale=0.06, layers_low=2, layers_high=4,
                                 loop_probability=0.9)
        assert profile_fingerprint(base) == profile_fingerprint(same)
        assert profile_fingerprint(base) != profile_fingerprint(bounds)
        assert profile_fingerprint(base) != profile_fingerprint(loops)

    def test_same_scale_different_bounds_never_share_rows(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        scale = 0.06
        a = AppCorpus(
            size=2, base_seed=880300,
            profile=GeneratorProfile(scale=scale, layers_low=2, layers_high=4),
        )
        b = AppCorpus(
            size=2, base_seed=880300,
            profile=GeneratorProfile(scale=scale, layers_low=3, layers_high=5),
        )
        rows_a = evaluate_corpus(a)
        rows_b = evaluate_corpus(b)
        stats = last_run_stats()
        # Corpus B was evaluated from scratch: nothing aliased.
        assert stats.process_hits == 0
        assert stats.disk_hits == 0
        assert stats.evaluated == 2
        # And the two corpora genuinely differ.
        assert rows_a != rows_b

    def test_rerun_still_hits_its_own_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        profile = GeneratorProfile(scale=0.06, layers_low=2, layers_high=4)
        corpus = AppCorpus(size=2, base_seed=880350, profile=profile)
        first = evaluate_corpus(corpus)
        again = evaluate_corpus(
            AppCorpus(size=2, base_seed=880350, profile=profile)
        )
        assert last_run_stats().process_hits == 2
        assert again == first


# -- limit semantics ----------------------------------------------------------


class TestLimit:
    def test_limit_zero_yields_zero_rows(self):
        corpus = AppCorpus(size=2, base_seed=880400, profile=TINY_PROFILE)
        rows = evaluate_corpus(corpus, limit=0, no_cache=True)
        assert rows == []
        stats = last_run_stats()
        assert stats.apps == 0
        assert stats.evaluated == 0

    def test_limit_none_means_whole_corpus(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=2, base_seed=880450, profile=TINY_PROFILE)
        assert len(evaluate_corpus(corpus)) == 2

    def test_negative_limit_clamps_to_zero(self):
        corpus = AppCorpus(size=2, base_seed=880460, profile=TINY_PROFILE)
        assert evaluate_corpus(corpus, limit=-3, no_cache=True) == []

    def test_limit_above_size_clamps_to_size(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=2, base_seed=880470, profile=TINY_PROFILE)
        assert len(evaluate_corpus(corpus, limit=99)) == 2


# -- RNG isolation ------------------------------------------------------------


class TestRngIsolation:
    def test_in_process_fallback_preserves_caller_rng(self):
        corpus = AppCorpus(size=2, base_seed=880500, profile=TINY_PROFILE)
        random.seed(12345)
        expected_state = random.getstate()
        expected_draws = [random.random() for _ in range(3)]
        random.seed(12345)
        # Single index -> one chunk -> the in-process fallback path.
        rows = evaluate_parallel(corpus, [0], jobs=4)
        assert set(rows) == {0}
        assert random.getstate() == expected_state
        assert [random.random() for _ in range(3)] == expected_draws

    def test_chunk_worker_body_restores_rng(self):
        corpus = AppCorpus(size=2, base_seed=880550, profile=TINY_PROFILE)
        random.seed(999)
        state = random.getstate()
        rows, spans, counters = _evaluate_chunk(
            (corpus.base_seed, corpus.size, TINY_PROFILE, (0,), False, False)
        )
        assert random.getstate() == state
        assert rows[0][0] == 0
        assert spans == [] and counters == {}

    def test_chunk_rows_match_serial(self):
        corpus = AppCorpus(size=2, base_seed=880560, profile=TINY_PROFILE)
        parallel_rows = evaluate_parallel(corpus, [0, 1], jobs=1)
        serial = evaluate_corpus(corpus, no_cache=True, jobs=1)
        assert [parallel_rows[i] for i in (0, 1)] == serial


# -- corrupt cache entries are purged -----------------------------------------


class TestCorruptCachePurge:
    def test_unparsable_entry_is_deleted(self, tmp_path):
        cache = EvaluationCache(root=tmp_path)
        path = tmp_path / "deadbeef.json"
        path.write_text("{truncated")
        assert cache.load("deadbeef") is None
        assert not path.exists()
        assert cache.purged == 1
        assert cache.misses == 1
        # The next lookup is a plain miss, not another parse of a corpse.
        assert cache.load("deadbeef") is None
        assert cache.purged == 1

    def test_schema_mismatch_entry_is_deleted(self, tmp_path):
        cache = EvaluationCache(root=tmp_path)
        path = tmp_path / "oldrow.json"
        path.write_text('{"package": "com.a", "not_the_schema": 1}')
        assert cache.load("oldrow") is None
        assert not path.exists()
        assert cache.purged == 1

    def test_missing_entry_is_not_a_purge(self, tmp_path):
        cache = EvaluationCache(root=tmp_path)
        assert cache.load("absent") is None
        assert cache.purged == 0
        assert cache.misses == 1

    def test_purge_count_surfaces_in_run_stats(self, tmp_path, monkeypatch):
        from repro.bench.cache import config_fingerprint, row_key
        from repro.bench.harness import _CACHE, _CONFIGS

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=1, base_seed=880600, profile=TINY_PROFILE)
        evaluate_corpus(corpus)
        _CACHE.clear()
        key = row_key(
            corpus.base_seed,
            corpus.size,
            profile_fingerprint(corpus.profile),
            0,
            config_fingerprint(_CONFIGS),
        )
        (tmp_path / f"{key}.json").write_text("garbage")
        evaluate_corpus(corpus)
        stats = last_run_stats()
        assert stats.cache_purged == 1
        assert stats.evaluated == 1
        assert "corrupt purged" in stats.summary()


# -- crash-orphaned temp files are swept on open ------------------------------


class TestStaleTmpSweep:
    """A writer killed between ``mkstemp`` and ``os.replace`` leaves a
    ``.tmp-*`` orphan no later store ever reclaims; opening the cache
    sweeps orphans older than the safety age."""

    @staticmethod
    def _orphan(root: Path, name: str, age_s: float) -> Path:
        import os
        import time

        path = root / name
        path.write_text("{}")
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_old_orphans_swept_fresh_ones_kept(self, tmp_path):
        old = self._orphan(tmp_path, ".tmp-dead1.json", age_s=7200.0)
        older = self._orphan(tmp_path, ".tmp-dead2.json", age_s=9000.0)
        fresh = self._orphan(tmp_path, ".tmp-live.json", age_s=1.0)
        row = self._orphan(tmp_path, "a-real-row.json", age_s=9000.0)
        cache = EvaluationCache(root=tmp_path)
        assert cache.tmp_purged == 2
        assert not old.exists() and not older.exists()
        assert fresh.exists(), "a live writer's temp file must survive"
        assert row.exists(), "only .tmp-* files are sweep candidates"

    def test_summary_store_levels_swept(self, tmp_path):
        # The summary store writes its temp files under summaries/ and
        # its app index under summaries/apps/: open sweeps both.
        apps = tmp_path / "summaries" / "apps"
        apps.mkdir(parents=True)
        entry = self._orphan(
            tmp_path / "summaries", ".tmp-entry.json", age_s=7200.0
        )
        index = self._orphan(apps, ".tmp-index.json", age_s=7200.0)
        fresh = self._orphan(apps, ".tmp-live.json", age_s=1.0)
        stored = self._orphan(apps, "an-index.json", age_s=9000.0)
        cache = EvaluationCache(root=tmp_path)
        assert cache.tmp_purged == 2
        assert not entry.exists() and not index.exists()
        assert fresh.exists() and stored.exists()

    def test_disabled_cache_never_touches_disk(self, tmp_path):
        orphan = self._orphan(tmp_path, ".tmp-dead.json", age_s=7200.0)
        cache = EvaluationCache(root=tmp_path, enabled=False)
        assert cache.tmp_purged == 0
        assert orphan.exists()

    def test_missing_root_is_a_clean_open(self, tmp_path):
        cache = EvaluationCache(root=tmp_path / "nope")
        assert cache.tmp_purged == 0

    def test_sweep_count_surfaces_in_run_stats(self, tmp_path, monkeypatch):
        from repro.bench.harness import _CACHE

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self._orphan(tmp_path, ".tmp-dead.json", age_s=7200.0)
        _CACHE.clear()
        corpus = AppCorpus(size=1, base_seed=880700, profile=TINY_PROFILE)
        evaluate_corpus(corpus)
        stats = last_run_stats()
        assert stats.tmp_purged == 1
        assert "stale tmp swept" in stats.summary()
