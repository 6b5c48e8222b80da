"""The ``repro.lint`` verifier: rules, determinism, gates, acceptance."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import sys
from pathlib import Path

import pytest

from repro.apk.corpus import AppCorpus
from repro.apk.generator import AppGenerator
from repro.apk.loader import load_gdx, save_gdx
from repro.bench.harness import (
    ENGINE_GDROID,
    AppEvaluation,
    LintErrorRow,
    _CACHE,
    evaluate_corpus,
    run_pipeline,
)
from repro.core.engine import AppWorkload
from repro.dataflow.facts import FactSpace
from repro.dataflow.transfer import TransferFunctions
from repro.ir.parser import parse_app
from repro.lint import (
    JSON_SCHEMA_VERSION,
    PASSES,
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    LintError,
    check_app,
    run_lint,
)
from repro.lint.factpool import FactPoolPass
from repro.vetting.report import vet_workload

from tests.conftest import LEAKY_APP_SOURCE, TINY_PROFILE, tiny_app

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import lint_mutants  # noqa: E402


def _lint_rules(source: str):
    return run_lint(parse_app(source)).rules()


_HEADER = """
app com.t category tools
component com.t.Main activity exported
  callback onCreate com.t.Main.m()V
end
"""


# -- rule registry ------------------------------------------------------------


class TestRegistry:
    def test_every_pass_rule_is_registered(self):
        for lint_pass in PASSES:
            for rule in lint_pass.rules:
                assert rule in RULES, f"{lint_pass.name} emits unknown {rule}"

    def test_severities_are_valid(self):
        for rule, (severity, description) in RULES.items():
            assert severity in (SEVERITY_WARNING, SEVERITY_ERROR)
            assert description, f"{rule} has no description"

    def test_pass_names_unique(self):
        names = [lint_pass.name for lint_pass in PASSES]
        assert len(names) == len(set(names))


# -- one hand-built app per pass ---------------------------------------------


class TestHandBuiltRules:
    def test_cfg_001_fall_off_end(self):
        source = _HEADER + """
method com.t.Main.m()V
  local i: I
  L0: i := 1
end
"""
        assert _lint_rules(source) == ("CFG-001",)

    def test_exc_001_handler_in_own_range(self):
        source = _HEADER + """
method com.t.Main.m()V
  local e: Ljava/lang/Object;
  L0: nop
  L1: e := Exception
  L2: return
  catch L1 from L0 to L1
end
"""
        assert _lint_rules(source) == ("EXC-001",)

    def test_exc_002_bad_catch_head(self):
        source = _HEADER + """
method com.t.Main.m()V
  local o: Ljava/lang/Object;
  L0: o := new java.lang.Object
  L1: nop
  L2: return
  catch L1 from L0 to L0
end
"""
        assert _lint_rules(source) == ("EXC-002",)

    def test_ty_001_arity_mismatch(self):
        source = _HEADER + """
method com.t.Main.m()V
  local o: Ljava/lang/Object;
  L0: o := new java.lang.Object
  L1: call com.t.Main.h(Ljava/lang/Object;)V(o, o)
  L2: return
end
method com.t.Main.h(Ljava/lang/Object;)V
  param p: Ljava/lang/Object;
  L0: return
end
"""
        assert _lint_rules(source) == ("TY-001",)

    def test_dbu_002_undeclared_use(self):
        source = _HEADER + """
method com.t.Main.m()V
  local o: Ljava/lang/Object;
  L0: o := ghost
  L1: return
end
"""
        assert _lint_rules(source) == ("DBU-002",)

    def test_dead_001_is_a_warning(self):
        source = _HEADER + """
method com.t.Main.m()V
  L0: goto L2
  L1: nop
  L2: return
end
"""
        report = run_lint(parse_app(source))
        assert report.rules() == ("DEAD-001",)
        assert not report.errors()
        check_app(parse_app(source))  # warnings never gate

    def test_cg_001_dangling_internal_callee(self):
        source = _HEADER + """
method com.t.Main.m()V
  L0: call com.t.Ghost.missing()V()
  L1: return
end
"""
        assert _lint_rules(source) == ("CG-001",)

    def test_man_002_no_lifecycle_callback(self):
        source = """
app com.t category tools
component com.t.Main activity exported
  callback onClick com.t.Main.m()V
end
method com.t.Main.m()V
  L0: return
end
"""
        report = run_lint(parse_app(source))
        assert report.rules() == ("MAN-002",)
        assert not report.errors()


# -- clean inputs stay clean --------------------------------------------------


class TestCleanApps:
    def test_demo_app_clean(self, demo_app):
        assert run_lint(demo_app).is_clean

    def test_leaky_app_clean(self, leaky_app):
        assert run_lint(leaky_app).is_clean

    @pytest.mark.parametrize("seed", [2020, 2021, 2022, 2023])
    def test_generated_corpus_clean(self, seed):
        assert run_lint(tiny_app(seed)).is_clean

    def test_generator_self_check_passes(self):
        app = AppGenerator(TINY_PROFILE, self_check=True).generate(99)
        assert app.method_count() > 0

    def test_generator_self_check_rejects_dirty_output(self, monkeypatch):
        import repro.lint as lint_module

        clean = AppGenerator(TINY_PROFILE).generate(99)
        dirty_report = run_lint(lint_mutants.mutate_fall_off_end(clean))
        assert not dirty_report.is_clean
        monkeypatch.setattr(lint_module, "run_lint", lambda app: dirty_report)
        with pytest.raises(LintError):
            AppGenerator(TINY_PROFILE, self_check=True).generate(99)


# -- determinism --------------------------------------------------------------


def _lint_seed_json(seed: int) -> str:
    return run_lint(tiny_app(seed)).to_json_text()


class TestDeterminism:
    def test_same_app_twice_byte_identical(self):
        app = tiny_app(2020)
        assert run_lint(app).to_json_text() == run_lint(app).to_json_text()

    def test_reparsed_app_identical(self, demo_app):
        from repro.ir.printer import print_app

        again = parse_app(print_app(demo_app))
        assert (
            run_lint(demo_app).to_json_text() == run_lint(again).to_json_text()
        )

    def test_fork_pool_matches_serial(self):
        seeds = [2020, 2021, 2022, 2023]
        serial = [_lint_seed_json(seed) for seed in seeds]
        try:
            context = multiprocessing.get_context("fork")
            with context.Pool(processes=2) as pool:
                forked = pool.map(_lint_seed_json, seeds)
        except (OSError, ValueError):
            pytest.skip("fork pool unavailable")
        assert forked == serial

    def test_strict_corpus_parallel_matches_serial(self):
        corpus = AppCorpus(size=4, base_seed=991100, profile=TINY_PROFILE)
        serial = evaluate_corpus(corpus, no_cache=True, jobs=1, strict=True)
        _CACHE.clear()
        parallel = evaluate_corpus(corpus, no_cache=True, jobs=2, strict=True)
        assert parallel == serial
        assert all(isinstance(row, AppEvaluation) for row in parallel)


# -- strict gate --------------------------------------------------------------


def _mutant_app():
    return lint_mutants.mutate_primitive_alloc(tiny_app(2020))


class TestStrictGate:
    def test_build_arg_gates(self):
        with pytest.raises(LintError) as excinfo:
            AppWorkload.build(_mutant_app(), lint_gate=True)
        assert "FP-002" in str(excinfo.value)

    def test_build_default_does_not_gate(self):
        AppWorkload.build(_mutant_app())

    def test_strict_corpus_yields_lint_error_row(self, monkeypatch):
        corpus = AppCorpus(size=3, base_seed=991200, profile=TINY_PROFILE)
        real_app = corpus.app
        broken = lint_mutants.mutate_primitive_alloc(real_app(1))
        monkeypatch.setattr(
            corpus, "app", lambda i: broken if i == 1 else real_app(i)
        )
        rows = evaluate_corpus(corpus, no_cache=True, jobs=1, strict=True)
        assert [type(row).__name__ for row in rows] == [
            "AppEvaluation", "LintErrorRow", "AppEvaluation",
        ]
        row = rows[1]
        assert isinstance(row, LintErrorRow)
        assert row.index == 1
        assert row.rules == ("FP-002",)
        assert row.error_count >= 1
        # Rejections are never cached, even in-process.
        from repro.bench.cache import profile_fingerprint

        key = (corpus.base_seed, corpus.size, profile_fingerprint(TINY_PROFILE), 1)
        assert key not in _CACHE

    def test_non_strict_corpus_unaffected(self):
        corpus = AppCorpus(size=2, base_seed=991300, profile=TINY_PROFILE)
        rows = evaluate_corpus(corpus, no_cache=True, jobs=1, strict=False)
        assert all(isinstance(row, AppEvaluation) for row in rows)


# -- fact-pool sanitizer acceptance ------------------------------------------


#: The leaky app with the identifier carrier declared as a primitive:
#: ``id`` then has no fact-pool slot, the taint GEN at the source call
#: is silently dropped, and the unguarded pipeline misses the leak.
MISTYPED_LEAK_SOURCE = LEAKY_APP_SOURCE.replace(
    "local id: Ljava/lang/String;", "local id: I"
)


class TestFactPoolAcceptance:
    def test_seed_pipeline_misses_the_leak(self, leaky_app):
        baseline = vet_workload(leaky_app, AppWorkload.build(leaky_app))
        assert baseline.flows  # the well-typed app leaks, and we see it

        mistyped = parse_app(MISTYPED_LEAK_SOURCE)
        silent = vet_workload(mistyped, AppWorkload.build(mistyped))
        assert not silent.flows  # same leak, silently gone

    def test_lint_flags_the_dropped_fact(self):
        report = run_lint(parse_app(MISTYPED_LEAK_SOURCE))
        assert "FP-002" in report.rules()
        assert report.errors()

    def test_strict_gate_rejects_the_mistyped_app(self):
        with pytest.raises(LintError) as excinfo:
            AppWorkload.build(parse_app(MISTYPED_LEAK_SOURCE), lint_gate=True)
        assert "FP-002" in str(excinfo.value)

    def test_fp001_flags_out_of_range_plan(self):
        method = tiny_app(2020).methods[0]
        space = FactSpace(method)
        plans = TransferFunctions(space).plans
        corrupt = dataclasses.replace(plans[0], kill_slot=space.slot_count + 7)
        violations = [
            (what, value, bound)
            for what, value, bound in FactPoolPass._plan_indices(corrupt, space)
            if not 0 <= value < bound
        ]
        assert violations
        assert any(what == "kill slot" for what, _, _ in violations)

    def test_fp001_silent_on_real_plans(self):
        app = tiny_app(2020)
        for method in app.methods:
            if not method.statements:
                continue
            space = FactSpace(method)
            for plan in TransferFunctions(space).plans:
                for _, value, bound in FactPoolPass._plan_indices(plan, space):
                    assert 0 <= value < bound


# -- FP-001 on the plans a build runs -----------------------------------------


@pytest.fixture
def out_of_range_compiler(monkeypatch):
    """Patch the transfer compiler to emit a kill slot past the pool
    (only in the methods ``wants(signature)`` picks)."""
    compile_plan = TransferFunctions._compile
    wants = {"method": lambda signature: True}

    def corrupt(self, statement, summaries):
        plan = compile_plan(self, statement, summaries)
        if plan.kill_slot is not None and wants["method"](str(self.space.method.signature)):
            plan = dataclasses.replace(plan, kill_slot=self.space.slot_count + 7)
        return plan

    monkeypatch.setattr(TransferFunctions, "_compile", corrupt)
    return wants


def _error_rules(report):
    return sorted({d.rule for d in report.errors()})


class TestFp001OnCompiledPlans:
    """Under ``strict`` a whole-app build audits the plans it compiles;
    every other gate audits a lint compile of its own.  Each rejects a
    compiler that emits an out-of-range slot."""

    APP_SEED = 2020

    def test_run_lint(self, out_of_range_compiler):
        assert _error_rules(run_lint(tiny_app(self.APP_SEED))) == ["FP-001"]

    def test_gated_build(self, out_of_range_compiler):
        with pytest.raises(LintError) as excinfo:
            AppWorkload.build(tiny_app(self.APP_SEED), lint_gate=True)
        assert _error_rules(excinfo.value.report) == ["FP-001"]

    @pytest.mark.parametrize("path", ["full", "targeted", "baseline"])
    def test_strict_run_pipeline(self, path, out_of_range_compiler, tmp_path):
        from repro.dataflow.incremental import MethodSummaryStore
        from repro.vetting.targeted import TargetSpec

        app = tiny_app(self.APP_SEED)
        options = {
            "full": {},
            "targeted": {"targets": TargetSpec.parse("SMS")},
            "baseline": {
                "baseline_app": app,
                "store": MethodSummaryStore(tmp_path / "store"),
            },
        }[path]
        result = run_pipeline(app, 0, ENGINE_GDROID, True, True, **options)
        assert isinstance(result.row, LintErrorRow)
        assert result.row.rules == ("FP-001",)
        assert result.verdict is None

    def test_gated_build_audits_environment_plans(self, out_of_range_compiler):
        """Environment methods exist only in the build: a lint compile
        of the app never sees their plans, the gated build does."""
        out_of_range_compiler["method"] = lambda signature: "__env__" in signature
        app = tiny_app(self.APP_SEED)
        assert app.components
        assert not run_lint(app).errors()
        with pytest.raises(LintError) as excinfo:
            AppWorkload.build(app, lint_gate=True)
        assert _error_rules(excinfo.value.report) == ["FP-001"]
        assert all("__env__" in d.method for d in excinfo.value.report.errors())

    def test_gated_build_compiles_each_plan_set_once(self, monkeypatch):
        """The gate draws its CFGs from the build's table and leaves
        FP-001 to it: no method is compiled or given a CFG twice."""
        from repro import obs
        from repro.cfg.intra import IntraCFG

        made = {IntraCFG: 0, TransferFunctions: 0}
        for cls in made:
            def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
                made[_cls] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        with obs.tracing() as tracer:
            workload = AppWorkload.build(tiny_app(self.APP_SEED), lint_gate=True)
        assert made[TransferFunctions] == tracer.counters["block.compiles"]
        assert made[IntraCFG] == len(workload.analyzed_app.methods)


# -- JSON / report shape ------------------------------------------------------


class TestReportShape:
    def test_json_roundtrip_and_schema(self):
        report = run_lint(parse_app(MISTYPED_LEAK_SOURCE))
        payload = json.loads(report.to_json_text())
        assert payload["schema"] == JSON_SCHEMA_VERSION
        assert payload["package"] == "com.leaky"
        assert payload["clean"] is False
        assert payload["rules"] == list(report.rules())
        assert len(payload["diagnostics"]) == len(report.diagnostics)
        for entry in payload["diagnostics"]:
            assert set(entry) >= {
                "rule", "severity", "method", "label", "index", "message",
            }

    def test_render_mentions_rule_and_method(self):
        report = run_lint(parse_app(MISTYPED_LEAK_SOURCE))
        text = report.render()
        assert "FP-002" in text
        assert "com.leaky.Main.leak()V" in text

    def test_diagnostics_sorted(self):
        report = run_lint(
            parse_app(_HEADER + """
method com.t.Main.m()V
  local o: Ljava/lang/Object;
  L0: o := ghost
  L1: goto L3
  L2: nop
  L3: o := ghost2
  L4: return
end
""")
        )
        keys = [d.sort_key for d in report.diagnostics]
        assert keys == sorted(keys)
        assert set(report.rules()) == {"DBU-002", "DEAD-001"}


# -- mutation harness ---------------------------------------------------------


class TestMutationHarness:
    def test_full_recall_on_small_corpus(self, capsys):
        assert lint_mutants.run_harness(apps=4, scale=0.06) == 0
        out = capsys.readouterr().out
        assert "recall: 18/18" in out

    def test_matrix_covers_every_pass(self):
        expected = {rule for _, rule, _ in lint_mutants.MUTATORS}
        assert len(lint_mutants.MUTATORS) >= 8
        prefixes = {rule.split("-")[0] for rule in expected}
        assert prefixes == {"CFG", "EXC", "TY", "DBU", "DEAD", "CG", "MAN", "FP"}
        for rule in expected:
            assert rule in RULES


# -- CLI ----------------------------------------------------------------------


class TestLintCli:
    def test_corpus_clean_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "--corpus", "2", "--scale", "0.06"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_missing_path_exit_two(self, capsys):
        from repro.cli import main

        assert main(["lint", "no-such-app.gdx"]) == 2
        assert "error" in capsys.readouterr().err

    def test_nothing_to_lint_exit_two(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 2

    def test_dirty_file_exit_one_and_stable_json(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "bad.gdx")
        save_gdx(_mutant_app(), path)
        assert main(["lint", path]) == 1
        capsys.readouterr()

        assert main(["lint", "--json", path]) == 1
        first = capsys.readouterr().out
        assert main(["lint", "--json", path]) == 1
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == JSON_SCHEMA_VERSION
        assert payload["apps"][0]["rules"] == ["FP-002"]

    def test_loaded_file_roundtrips_lint(self, tmp_path, demo_app):
        path = str(tmp_path / "demo.gdx")
        save_gdx(demo_app, path)
        assert run_lint(load_gdx(path)).is_clean
