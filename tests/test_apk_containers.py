"""Binary container, loader, corpus and manifest tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apk.corpus import AppCorpus, CORPUS_BASE_SEED
from repro.apk.dex import GdxFormatError, MAGIC, pack_app, unpack_app
from repro.apk.loader import load_directory, load_gdx, save_corpus, save_gdx
from repro.apk.manifest import AndroidManifest, manifest_of
from repro.ir.printer import print_app
from tests.conftest import TINY_PROFILE, tiny_app


class TestDexContainer:
    def test_round_trip(self, demo_app):
        assert print_app(unpack_app(pack_app(demo_app))) == print_app(demo_app)

    def test_magic_checked(self):
        with pytest.raises(GdxFormatError, match="magic"):
            unpack_app(b"NOPE" + b"\x00" * 32)

    def test_version_checked(self, demo_app):
        blob = bytearray(pack_app(demo_app))
        blob[4:6] = (99).to_bytes(2, "little")
        with pytest.raises(GdxFormatError, match="version"):
            unpack_app(bytes(blob))

    def test_truncation_detected(self, demo_app):
        blob = pack_app(demo_app)
        with pytest.raises(GdxFormatError, match="truncated"):
            unpack_app(blob[: len(blob) // 2])

    def test_magic_constant(self):
        assert MAGIC == b"GDX1"

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=500))
    def test_generated_apps_round_trip(self, seed):
        app = tiny_app(seed)
        assert print_app(unpack_app(pack_app(app))) == print_app(app)


class TestLoader:
    def test_save_load_file(self, tmp_path, demo_app):
        path = tmp_path / "demo.gdx"
        size = save_gdx(demo_app, path)
        assert path.stat().st_size == size
        assert print_app(load_gdx(path)) == print_app(demo_app)

    def test_save_corpus_and_directory_scan(self, tmp_path):
        apps = [tiny_app(seed) for seed in range(3)]
        written = save_corpus(apps, tmp_path / "corpus")
        assert len(written) == 3
        loaded = list(load_directory(tmp_path / "corpus"))
        assert [a.package for a in loaded] == [a.package for a in apps]


class TestCorpus:
    def test_lazy_and_reproducible(self):
        corpus = AppCorpus(size=5, profile=TINY_PROFILE)
        assert print_app(corpus.app(3)) == print_app(corpus.app(3))
        assert len(corpus) == 5

    def test_index_bounds(self):
        corpus = AppCorpus(size=2, profile=TINY_PROFILE)
        with pytest.raises(IndexError):
            corpus.app(2)

    def test_iteration(self):
        corpus = AppCorpus(size=3, profile=TINY_PROFILE)
        assert len(list(corpus)) == 3

    def test_stats(self):
        corpus = AppCorpus(size=4, profile=TINY_PROFILE)
        stats = corpus.stats()
        assert stats.apps == 4
        assert stats.mean_methods > 0
        assert sum(stats.categories.values()) == 4
        table = stats.as_table1()
        assert set(table) == {
            "no. of CFG Nodes", "no. of Methods", "no. of Variable"
        }

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_APPS", "7")
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.5")
        corpus = AppCorpus.from_env()
        assert corpus.size == 7
        assert corpus.profile.scale == 0.5
        assert corpus.base_seed == CORPUS_BASE_SEED

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AppCorpus(size=0)


class TestManifest:
    def test_manifest_of(self, demo_app):
        manifest = manifest_of(demo_app, permissions=["android.permission.INTERNET"])
        assert manifest.package == "com.demo"
        assert manifest.components[0].kind == "activity"
        assert manifest.permissions == ("android.permission.INTERNET",)

    def test_json_round_trip(self, demo_app):
        manifest = manifest_of(demo_app)
        assert AndroidManifest.from_json(manifest.to_json()) == manifest

    def test_exported_components(self, demo_app):
        manifest = manifest_of(demo_app)
        assert manifest.exported_components()
