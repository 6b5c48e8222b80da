"""Host-side performance layer: bit-exactness and cache/parallel tests.

The int-mask rows, masked dynamics, vectorized pricing, parallel
corpus pipeline and on-disk cache are all *transparent* accelerations:
every observable number -- per-node fact sets, traces, and modeled
cycle counts -- must be identical to the seed implementation's.  These
tests pin that contract against the references the fast paths replace
(patched in with :func:`tests.conftest.seed_path`).
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bench.harness as harness
from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile, generate_app
from repro.bench.cache import EvaluationCache, config_fingerprint, row_key
from repro.bench.parallel import plan_chunks, resolve_jobs
from repro.dataflow.bitset import bit_indices, mask_from
from repro.cfg.environment import app_with_environments
from repro.dataflow.transfer import MaskTransfer
from repro.dataflow.worklist import SequentialWorklist, analyze_app_reference
from repro.gpu.memory import MemoryModel, transactions_for_addresses
from tests.conftest import seed_path


@pytest.fixture()
def app():
    return generate_app(31, GeneratorProfile(scale=0.5))


# -- bitset primitives --------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=199), max_size=40))
def test_pack_unpack_roundtrip(indices):
    mask = mask_from(indices)
    assert bit_indices(mask) == sorted(set(indices))
    assert mask.bit_count() == len(set(indices))


# -- masked transfer and the oracle worklist ----------------------------------


def test_mask_transfer_matches_set_transfer(app):
    for method in app.methods[:12]:
        wl = SequentialWorklist(method)
        masked = MaskTransfer(wl.transfer)
        result = wl.run()
        for node, in_mask in enumerate(result.node_facts):
            out_set = wl.transfer.out_facts(node, set(bit_indices(in_mask)))
            assert masked.out_mask(node, in_mask) == mask_from(out_set)


def test_masked_worklist_matches_legacy_oracle(app):
    """The mask loop walks the set loop's trajectory, method by method."""
    analyzed = app_with_environments(app)
    summaries = analyze_app_reference(analyzed, with_environments=False).summaries
    for method in analyzed.methods:
        oracle = SequentialWorklist(method, summaries)
        masked = SequentialWorklist(method, summaries)
        reference = oracle.run()
        fast = masked.run_masked()
        assert fast.node_facts == reference.node_facts
        assert fast.exit_facts == reference.exit_facts
        assert (masked.visits, masked.iterations) == (
            oracle.visits,
            oracle.iterations,
        )


def test_oracle_runs_no_mask_code(app, monkeypatch, tmp_path):
    """The CPU reference evaluates set transfers only, so the block
    runner's mask code cannot agree with it by sharing a defect; the
    incremental miss path is the one worklist caller on masks."""
    from repro.dataflow.incremental import MethodSummaryStore, analyze_app_incremental

    expected = analyze_app_reference(app)
    mask_calls = []

    def forbidden(*args):
        mask_calls.append(args)
        raise AssertionError("the oracle called MaskTransfer")

    monkeypatch.setattr(MaskTransfer, "out_mask", forbidden)
    monkeypatch.setattr(MaskTransfer, "entry_mask", forbidden)
    assert analyze_app_reference(app).equivalent_to(expected)
    assert not mask_calls
    with pytest.raises(AssertionError, match="MaskTransfer"):
        analyze_app_incremental(app, MethodSummaryStore(root=tmp_path))


# -- memory transaction model -------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=4096), min_size=1, max_size=32
    ),
    element_bytes=st.integers(min_value=1, max_value=128),
    region=st.integers(min_value=0, max_value=3),
)
def test_transactions_fast_equals_scalar(indices, element_bytes, region):
    """``MemoryModel.access``'s first/last-segment count vs the walk."""
    model = MemoryModel()
    base = model.region_base(region)
    addresses = [base + index * element_bytes for index in indices]
    scalar = transactions_for_addresses(
        addresses, element_bytes, model.spec.memory_segment_bytes
    )
    assert model.access(region, indices, element_bytes) == scalar


# -- end-to-end bit-exactness -------------------------------------------------


def test_evaluate_app_bit_exact_vs_seed_path(app):
    """The acceptance criterion: identical fact sets AND cycle counts.

    AppEvaluation equality covers every modeled float time (plain,
    MAT, GRP, full, CPU, Amandroid), the memory footprints and the
    worklist profile -- any drift in facts, traces or accumulation
    order shows up here.
    """
    with seed_path():
        legacy = harness.evaluate_app(app)
    fast = harness.evaluate_app(app)
    assert fast == legacy


# -- parallel pipeline --------------------------------------------------------


def test_plan_chunks_round_robin_and_total():
    assert plan_chunks([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]
    assert plan_chunks([7], 4) == [[7]]
    chunks = plan_chunks(list(range(10)), 3)
    assert sorted(i for chunk in chunks for i in chunk) == list(range(10))


def test_resolve_jobs_env_and_clamping(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_JOBS", raising=False)
    assert resolve_jobs(None) == 1
    monkeypatch.setenv("REPRO_BENCH_JOBS", "3")
    assert resolve_jobs(None) == 3
    assert resolve_jobs(0) == 1
    assert resolve_jobs(10_000) > 1


def test_parallel_rows_identical_to_serial():
    corpus = AppCorpus(size=3, profile=GeneratorProfile(scale=0.4))
    harness._CACHE.clear()
    serial = harness.evaluate_corpus(corpus, jobs=1, no_cache=True)
    harness._CACHE.clear()
    parallel = harness.evaluate_corpus(corpus, jobs=2, no_cache=True)
    assert parallel == serial
    stats = harness.last_run_stats()
    assert stats.workers == 2
    assert stats.evaluated == 3


def test_worker_context_honors_override_and_env(monkeypatch):
    from repro.bench.parallel import worker_context

    monkeypatch.delenv("REPRO_MP_START", raising=False)
    assert worker_context("spawn").get_start_method() == "spawn"
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert worker_context().get_start_method() == "spawn"
    # Unknown names fall back to the automatic choice, never abort.
    monkeypatch.setenv("REPRO_MP_START", "frobnicate")
    assert worker_context().get_start_method() in ("fork", "spawn")


def test_parallel_spawn_path_matches_serial(monkeypatch):
    """The pool must not hard-code fork: a forced ``spawn`` run (the
    only path on fork-less platforms) regenerates bit-identical rows
    from the fully-pickled task tuples."""
    corpus = AppCorpus(size=3, profile=GeneratorProfile(scale=0.4))
    harness._CACHE.clear()
    serial = harness.evaluate_corpus(corpus, jobs=1, no_cache=True)
    harness._CACHE.clear()
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    spawned = harness.evaluate_corpus(corpus, jobs=2, no_cache=True)
    assert spawned == serial


# -- on-disk cache ------------------------------------------------------------


def test_cache_roundtrip_and_warm_skip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_BENCH_CACHE", raising=False)
    corpus = AppCorpus(size=2, profile=GeneratorProfile(scale=0.4))

    harness._CACHE.clear()
    cold = harness.evaluate_corpus(corpus, jobs=1)
    stats = harness.last_run_stats()
    assert stats.evaluated == 2 and stats.disk_stores == 2
    assert stats.hit_rate == 0.0

    # A fresh process cache must resume entirely from disk.
    harness._CACHE.clear()
    warm = harness.evaluate_corpus(corpus, jobs=1)
    stats = harness.last_run_stats()
    assert stats.disk_hits == 2 and stats.evaluated == 0
    assert stats.hit_rate == 1.0
    assert warm == cold

    # Rows restored from JSON must compare equal field by field.
    for fresh, cached in zip(cold, warm):
        assert dataclasses.asdict(fresh) == dataclasses.asdict(cached)
        assert isinstance(cached.wl_mix_sync, tuple)

    # --no-cache ignores the populated cache.
    harness._CACHE.clear()
    harness.evaluate_corpus(corpus, jobs=1, no_cache=True)
    stats = harness.last_run_stats()
    assert stats.evaluated == 2 and not stats.cache_enabled


def test_cache_key_tracks_config_fingerprint(tmp_path):
    fingerprint = config_fingerprint(harness._CONFIGS)
    key = row_key(2020, 10, 1.0, 3, fingerprint)
    assert key != row_key(2020, 10, 1.0, 4, fingerprint)
    assert key != row_key(2020, 10, 1.0, 3, "other-config")
    cache = EvaluationCache(root=tmp_path, enabled=True)
    assert cache.load(key) is None
    assert cache.misses == 1


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = EvaluationCache(root=tmp_path, enabled=True)
    key = row_key(1, 1, 1.0, 0, "fp")
    tmp_path.mkdir(exist_ok=True)
    (tmp_path / f"{key}.json").write_text("{not json")
    assert cache.load(key) is None
    assert cache.misses == 1
