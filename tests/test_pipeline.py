"""One pipeline for every entry point: agreement, rejection, honoured options.

:func:`repro.bench.harness.run_pipeline` is the only code that turns an
app and its options into a row.  These tests hold every entry point to
it: ``evaluate_corpus`` (serial and forked), async and pooled
``run_soak``, streamed ``--watch`` jobs and the ``gdroid vet`` /
``gdroid serve`` CLIs.  Each combination of options gives the same
answer everywhere, or is rejected with the same message everywhere.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import sys
from pathlib import Path

import pytest

from repro.apk.corpus import AppCorpus
from repro.apk.loader import load_gdx, save_gdx
from repro.bench.harness import (
    ENGINE_GDROID,
    IncrementalVetRow,
    LintErrorRow,
    _CACHE,
    check_options,
    evaluate_corpus,
    run_pipeline,
)
from repro.cli import main
from repro.ir.parser import parse_app
from repro.rules.pack import load_pack
from repro.serve import CorpusSource, ServeConfig, run_soak
from repro.vetting.targeted import TargetSpec

from tests.conftest import LEAKY_APP_SOURCE, TINY_PROFILE, tiny_app

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import lint_mutants  # noqa: E402

#: Corpus index the strict gate must reject (a lint mutant, see below).
BROKEN = 1


def _rejection_message() -> str:
    with pytest.raises(ValueError) as excinfo:
        check_options(TargetSpec.parse("SMS"), "corpus")
    return str(excinfo.value)


@pytest.fixture
def broken_corpus_app(monkeypatch):
    """Make corpus app ``BROKEN`` a lint mutant for every entry point.

    Patched on the class, so forked bench workers and pool lanes --
    which rebuild the corpus from its seed -- see the same mutant.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("worker processes must inherit the patched corpus")
    monkeypatch.delenv("REPRO_MP_START", raising=False)
    real_app = AppCorpus.app

    def app(self, index):
        built = real_app(self, index)
        if index == BROKEN:
            return lint_mutants.mutate_primitive_alloc(built)
        return built

    monkeypatch.setattr(AppCorpus, "app", app)


# -- the strict gate on the baseline path --------------------------------------


class TestStrictBaseline:
    def test_run_pipeline_gates_the_new_version(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        mutant = lint_mutants.mutate_primitive_alloc(tiny_app(2020))
        strict = run_pipeline(
            mutant, 0, ENGINE_GDROID, True, True, baseline_app=mutant
        )
        assert isinstance(strict.row, LintErrorRow)
        assert strict.row.rules == ("FP-002",)
        assert strict.verdict is None and strict.incremental is None
        lax = run_pipeline(
            mutant, 0, ENGINE_GDROID, False, True, baseline_app=mutant
        )
        assert isinstance(lax.row, IncrementalVetRow)

    def test_evaluate_corpus_gates_the_baseline_sweep(
        self, tmp_path, monkeypatch, broken_corpus_app
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=3, base_seed=992100, profile=TINY_PROFILE)
        rows = evaluate_corpus(corpus, strict=True, baseline=corpus)
        assert [type(row).__name__ for row in rows] == [
            "IncrementalVetRow", "LintErrorRow", "IncrementalVetRow",
        ]
        assert rows[BROKEN].rules == ("FP-002",)


# -- targets plus baseline: one rejection --------------------------------------


class TestTargetsWithBaseline:
    def test_cli_vet_and_serve_print_the_one_message(self, tmp_path, capsys):
        message = _rejection_message()
        gdx = str(tmp_path / "app.gdx")
        save_gdx(tiny_app(3), gdx)
        for argv in (
            ["vet", gdx, "--targets", "SMS", "--baseline", gdx],
            ["serve", "--soak", "--apps", "4", "--scale", "0.06",
             "--targets", "SMS", "--baseline", "corpus"],
        ):
            assert main(argv) == 2
            assert capsys.readouterr().err.strip() == f"error: {message}"

    def test_job_creation_rejects_before_admission(self):
        corpus = AppCorpus(size=2, base_seed=992200, profile=TINY_PROFILE)
        with pytest.raises(ValueError) as excinfo:
            CorpusSource(corpus).jobs(
                targets=TargetSpec.parse("SMS"), baseline="corpus"
            )
        assert str(excinfo.value) == _rejection_message()


# -- streamed jobs honour the serve options -------------------------------------


class TestWatchOptions:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--rules", "exfiltration"],
            ["--rules", "exfiltration", "--no-resolve-icc",
             "--baseline", "corpus"],
        ],
        ids=["rules", "rules-no-resolve-baseline"],
    )
    def test_watched_job_matches_run_pipeline(
        self, tmp_path, monkeypatch, capsys, flags
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        inbox = tmp_path / "inbox"
        inbox.mkdir()
        path = inbox / "leaky.gdx"
        save_gdx(parse_app(LEAKY_APP_SOURCE), path)
        (inbox / "STOP").touch()
        assert main(
            ["serve", "--soak", "--watch", str(inbox), "--workers", "1",
             "--json", *flags]
        ) == 0
        (record,) = json.loads(capsys.readouterr().out)["jobs"]
        baseline = "corpus" if "--baseline" in flags else None
        resolve_icc = "--no-resolve-icc" not in flags
        assert record["rules"] == "exfiltration"
        assert record["resolve_icc"] is resolve_icc
        assert record["baseline"] == baseline
        app = load_gdx(path)
        expected = run_pipeline(
            app, 0, ENGINE_GDROID, False, True,
            rules=load_pack("exfiltration"),
            resolve_icc=resolve_icc,
            baseline_app=app if baseline else None,
        )
        assert expected.findings is not None
        assert (record["verdict"], record["risk_score"], record["findings"]) == (
            expected.verdict, expected.risk_score, expected.findings,
        )

    def test_watch_rejects_targets(self, tmp_path, capsys):
        assert main(
            ["serve", "--soak", "--watch", str(tmp_path), "--targets", "SMS"]
        ) == 2
        assert "--watch takes no --targets" in capsys.readouterr().err


# -- the option matrix ----------------------------------------------------------


MATRIX = list(
    itertools.product(
        (False, True),  # strict
        (None, "SMS"),  # targets
        (None, "exfiltration"),  # rules
        (None, "corpus"),  # baseline
    )
)


def _matrix_id(case) -> str:
    strict, targets, rules, baseline = case
    return "-".join(
        [
            "strict" if strict else "lax",
            f"targets={targets}",
            f"rules={rules}",
            f"baseline={baseline}",
        ]
    )


@pytest.mark.parametrize(
    "strict,targets,rules,baseline", MATRIX, ids=map(_matrix_id, MATRIX)
)
def test_option_matrix(
    strict, targets, rules, baseline, tmp_path, monkeypatch, broken_corpus_app
):
    """Every entry point serves every option combination identically,
    or rejects it with the same message."""
    corpus = AppCorpus(size=3, base_seed=992300, profile=TINY_PROFILE)
    spec = TargetSpec.parse(targets) if targets else None
    pack = load_pack(rules) if rules else None

    def fresh_cache(name: str) -> None:
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / name))
        _CACHE.clear()

    def sweep(jobs: int):
        fresh_cache(f"corpus-j{jobs}")
        return evaluate_corpus(
            corpus, jobs=jobs, strict=strict, targets=spec, rules=rules,
            baseline=corpus if baseline else None,
        )

    def soak(pool: str):
        fresh_cache(f"serve-{pool}")
        config = ServeConfig(
            workers=2, strict=strict, pool=pool, start_method="fork",
            state_dir=str(tmp_path / f"state-{pool}"),
        )
        return run_soak(
            corpus, config=config, targets=spec, rules=rules,
            baseline=baseline,
        )

    def pipeline(index: int):
        app = corpus.app(index)
        return run_pipeline(
            app, index, ENGINE_GDROID, strict, True, spec, pack,
            baseline_app=app if baseline else None,
        )

    if spec is not None and baseline:
        message = _rejection_message()
        fresh_cache("pipeline")
        for call in (
            lambda: pipeline(0),
            lambda: sweep(1),
            lambda: sweep(2),
            lambda: soak("async"),
            lambda: soak("process"),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message
        return

    fresh_cache("pipeline")
    expected = [pipeline(index) for index in range(corpus.size)]
    assert isinstance(expected[BROKEN].row, LintErrorRow) is strict
    rows = [result.row for result in expected]
    served = [
        (result.verdict, result.risk_score, result.findings)
        for result in expected
    ]
    assert sweep(1) == rows
    assert sweep(2) == rows
    for pool in ("async", "process"):
        report = soak(pool)
        assert report.ok and report.completed == corpus.size, pool
        jobs = sorted(report.jobs, key=lambda job: job.index)
        assert [job.row for job in jobs] == rows, pool
        assert [
            (job.verdict, job.risk_score, job.findings) for job in jobs
        ] == served, pool
