"""Generator tests: determinism, Table I bands, structural validity."""

import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apk.generator import (
    GeneratorProfile,
    SINK_APIS,
    SOURCE_APIS,
    generate_app,
)
from repro.cfg.intra import build_intra_cfg
from repro.ir.printer import print_app
from repro.ir.statements import STATEMENT_KINDS, branch_class
from tests.conftest import SMALL_PROFILE, TINY_PROFILE


class TestDeterminism:
    def test_same_seed_same_app(self):
        assert print_app(generate_app(42, TINY_PROFILE)) == print_app(
            generate_app(42, TINY_PROFILE)
        )

    def test_different_seeds_differ(self):
        assert print_app(generate_app(1, TINY_PROFILE)) != print_app(
            generate_app(2, TINY_PROFILE)
        )


class TestStructuralValidity:
    @pytest.mark.parametrize("seed", range(5))
    def test_bodies_validate(self, seed):
        # Method construction validates labels/jumps/handlers; building
        # every CFG exercises the exceptional edges too.
        app = generate_app(seed, SMALL_PROFILE)
        for method in app.methods:
            build_intra_cfg(method)

    def test_components_reference_real_methods(self):
        app = generate_app(7, SMALL_PROFILE)
        for component in app.components:
            for signature in component.callbacks.values():
                assert signature in app.method_table

    def test_internal_callees_resolve_or_are_apis(self):
        from repro.vetting.sources_sinks import ICC_SEND_APIS

        app = generate_app(11, SMALL_PROFILE)
        known_apis = set(SOURCE_APIS) | set(SINK_APIS) | set(ICC_SEND_APIS)
        for method in app.methods:
            for callee in method.callees():
                assert callee in app.method_table or callee in known_apis

    def test_scale_shrinks_apps(self):
        big = generate_app(3, GeneratorProfile(scale=1.0))
        small = generate_app(3, GeneratorProfile(scale=0.1))
        assert small.method_count() < big.method_count()


class TestStatementDiversity:
    def test_many_branch_classes_exercised(self):
        classes = set()
        for seed in range(6):
            app = generate_app(seed, SMALL_PROFILE)
            for method in app.methods:
                for statement in method.statements:
                    classes.add(branch_class(statement))
        # The corpus exercises most of the taxonomy (the exact count
        # varies by seed; divergence needs variety, not completeness).
        assert len(classes) >= 18

    def test_all_statement_categories_present(self):
        kinds = set()
        for seed in range(6):
            app = generate_app(seed, SMALL_PROFILE)
            for method in app.methods:
                for statement in method.statements:
                    kinds.add(statement.kind)
        assert kinds == set(STATEMENT_KINDS)

    def test_handlers_generated(self):
        found = any(
            method.handlers
            for seed in range(4)
            for method in generate_app(seed, SMALL_PROFILE).methods
        )
        assert found


class TestTableIBands:
    """Corpus averages within a band of Table I (full fit is asserted
    by the calibration tool over larger samples)."""

    def test_sampled_averages(self):
        apps = [generate_app(seed) for seed in range(12)]
        nodes = statistics.mean(a.statement_count() for a in apps)
        methods = statistics.mean(a.method_count() for a in apps)
        variables = statistics.mean(a.variable_count() for a in apps)
        assert 3000 < nodes < 12000       # paper: 6217
        assert 120 < methods < 500        # paper: 268
        assert 90 < variables < 140       # paper: 116

    def test_leaky_fraction_rough(self):
        profile = GeneratorProfile(scale=0.08, leaky_fraction=1.0)
        apps = [generate_app(seed, profile) for seed in range(6)]
        from repro.vetting.sources_sinks import is_sink, is_source

        def has_source_and_sink(app):
            callees = [c for m in app.methods for c in m.callees()]
            return any(map(is_source, callees)) and any(map(is_sink, callees))

        assert all(has_source_and_sink(app) for app in apps)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2_000))
def test_generated_apps_always_constructible(seed):
    """Property: generation never produces invalid IR."""
    app = generate_app(seed, TINY_PROFILE)
    assert app.method_count() >= 4
    for method in app.methods:
        build_intra_cfg(method)
