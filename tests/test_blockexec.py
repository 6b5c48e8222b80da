"""Block-runner tests: dynamics correctness and trace invariants.

The load-bearing property: every dynamics variant (synchronous, MER)
lands on the same least fixed point as the sequential oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.core.blockexec import BlockRunner, WARP_SIZE
from repro.core.blocks import partition_layers
from repro.core.config import TuningParameters
from repro.core.engine import AppWorkload
from repro.dataflow.worklist import analyze_app_reference
from tests.conftest import seed_path, tiny_app


def run_blocks(app, record_mer=True):
    """Mimic the engine's layer-by-layer block execution."""
    analyzed = app_with_environments(app) if app.components else app
    layering = SBDALayering(CallGraph(analyzed))
    partition = partition_layers(analyzed, layering, TuningParameters())
    summaries = {}
    results = []
    for layer_blocks in partition:
        layer_results = [
            BlockRunner(analyzed, a, summaries, record_mer=record_mer).run()
            for a in layer_blocks
        ]
        for result in layer_results:
            summaries.update(result.summaries)
        results.extend(layer_results)
    return results


class TestFixedPointAgreement:
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_matches_sequential_oracle(self, seed):
        app = tiny_app(seed)
        workload = AppWorkload.build(app)
        reference = analyze_app_reference(app)
        assert workload.idfg.equivalent_to(reference), workload.idfg.diff(
            reference
        )

    def test_mer_equals_sync_is_asserted_internally(self, demo_app):
        # BlockRunner asserts mer_facts == sync facts; reaching here
        # without AssertionError is the test.
        results = run_blocks(demo_app, record_mer=True)
        assert all(r.trace_mer is not None for r in results)

    def test_mer_divergence_is_an_error(self, demo_app, monkeypatch):
        """The check is an explicit raise, so ``python -O`` keeps it."""
        dynamics = BlockRunner._run_dynamics

        def perturbed(self, states, merging, trace, transfers):
            facts = dynamics(self, states, merging, trace, transfers)
            if merging and facts:
                facts[0] ^= 1
            return facts

        monkeypatch.setattr(BlockRunner, "_run_dynamics", perturbed)
        with pytest.raises(RuntimeError, match="MER dynamics diverged"):
            run_blocks(demo_app, record_mer=True)


def iteration_nodes(trace):
    """The visited nodes of each iteration, in processing order."""
    nodes = trace.nodes.tolist()
    return [nodes[start:stop] for start, stop in trace.iteration_bounds()]


class TestTraceInvariants:
    def test_visits_bounded_by_worklist(self, demo_app):
        for result in run_blocks(demo_app):
            for trace in (result.trace_sync, result.trace_mer):
                for visits, size in zip(
                    trace.iteration_visits, trace.iteration_worklist
                ):
                    assert visits <= size

    def test_mer_processes_at_most_one_warp(self, demo_app):
        for result in run_blocks(demo_app):
            for visits in result.trace_mer.iteration_visits:
                assert visits <= WARP_SIZE

    def test_sync_processes_whole_worklist(self, demo_app):
        for result in run_blocks(demo_app):
            trace = result.trace_sync
            assert trace.iteration_visits == trace.iteration_worklist
            assert sum(trace.iteration_visits) == trace.visit_count

    def test_first_visit_flags(self, demo_app):
        for result in run_blocks(demo_app):
            seen = set()
            trace = result.trace_sync
            for node, first_visit in zip(trace.nodes, trace.first_visits):
                if first_visit:
                    assert node not in seen
                seen.add(node)

    def test_fact_counts_are_fixed_point_sizes(self, demo_app):
        """``fact_counts`` (which replace the per-iteration growth
        records) hold one size per real node: its fixed-point set."""
        for result in run_blocks(demo_app):
            sizes = [
                facts.bit_count()
                for signature in result.assignment.methods
                for facts in result.method_facts[signature].node_facts
            ]
            assert list(result.fact_counts) == sizes
            assert len(sizes) == result.trace_sync.node_count
            assert any(size > 0 for size in sizes)

    def test_node_meta_consistency(self, demo_app):
        for result in run_blocks(demo_app):
            meta = result.trace_sync.node_meta
            grouped = sorted(m.grouped_position for m in meta)
            assert grouped == list(range(len(meta)))
            for m in meta:
                assert all(0 <= s < len(meta) for s in m.successors)
                assert 0 <= m.group <= 2
                assert 0 <= m.branch_class < 25

    def test_mer_dedup(self, demo_app):
        """MER worklists contain no duplicate entries (Fig. 7)."""
        for result in run_blocks(demo_app):
            for nodes in iteration_nodes(result.trace_mer):
                assert len(nodes) == len(set(nodes))


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=100, max_value=400))
def test_dynamics_agree_on_random_apps(seed):
    """Property: parallel dynamics == sequential oracle on random apps."""
    app = tiny_app(seed)
    workload = AppWorkload.build(app)
    reference = analyze_app_reference(app)
    assert workload.idfg.equivalent_to(reference)


# -- the round transfer memo --------------------------------------------------


#: Every column of a :class:`BlockTrace`.
TRACE_COLUMNS = (
    "nodes",
    "in_sizes",
    "out_sizes",
    "new_facts",
    "first_visits",
    "iteration_worklist",
    "iteration_visits",
    "iteration_merged",
)


def assert_traces_match_seed_dynamics(app):
    """Memoized mask dynamics vs the seed's set dynamics, column for
    column, for both runs of every block; returns the most summary
    rounds any block needed."""
    fast = run_blocks(app)
    with seed_path():
        reference = run_blocks(app)
    assert len(fast) == len(reference)
    for got, want in zip(fast, reference):
        for trace, expected in (
            (got.trace_sync, want.trace_sync),
            (got.trace_mer, want.trace_mer),
        ):
            assert trace.summary_rounds == expected.summary_rounds
            assert trace.iteration_count == expected.iteration_count
            for column in TRACE_COLUMNS:
                assert getattr(trace, column) == getattr(expected, column), column
        assert got.fact_counts == want.fact_counts
        for signature, facts in want.method_facts.items():
            assert got.method_facts[signature].node_facts == facts.node_facts
            assert got.method_facts[signature].exit_facts == facts.exit_facts
        assert got.summaries == want.summaries
    return max(result.trace_sync.summary_rounds for result in fast)


@pytest.mark.parametrize("seed", [13, 26])
def test_memo_traces_match_across_summary_rounds(seed):
    """Blocks that need several summary rounds: a memo that leaked
    from one round into the next would replay stale call transfers."""
    assert assert_traces_match_seed_dynamics(tiny_app(seed)) > 1


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=500, max_value=900))
def test_memo_traces_match_seed_dynamics(seed):
    assert_traces_match_seed_dynamics(tiny_app(seed))


def test_transfer_counts_in_run_ledger(demo_app):
    """``block.transfer_evals`` / ``block.transfer_memo_hits`` repeat
    exactly, and the MER run reuses the sync run's transfers (the mask
    dynamics' memo; the seed set dynamics never calls ``out_mask``)."""
    counts = []
    for _ in range(2):
        with obs.tracing() as tracer:
            AppWorkload.build(demo_app)
        counts.append(
            (
                tracer.counters["block.transfer_evals"],
                tracer.counters["block.transfer_memo_hits"],
            )
        )
    assert counts[0] == counts[1]
    evals, hits = counts[0]
    assert evals > 0 and hits > 0
    for seed in (3, 13):
        with obs.tracing() as tracer:
            AppWorkload.build(tiny_app(seed))
        assert tracer.counters["block.transfer_memo_hits"] > 0
