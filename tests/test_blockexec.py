"""Block-runner tests: dynamics correctness and trace invariants.

The load-bearing property: every dynamics variant (synchronous, MER)
lands on the same least fixed point as the sequential oracle.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.core.blockexec import BlockRunner, WARP_SIZE
from repro.core.blocks import partition_layers
from repro.core.compiletable import CompileTable
from repro.core.config import TuningParameters
from repro.core.engine import AppWorkload
from repro.dataflow.worklist import analyze_app_reference
from repro.ir.parser import parse_app
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
            arrays = result.trace_sync.node_arrays
            count = len(arrays)
            assert sorted(arrays.grouped_position) == list(range(count))
            for node in range(count):
                assert all(0 <= s < count for s in arrays.successors[node])
                assert 0 <= arrays.group[node] <= 2
                assert 0 <= arrays.branch_class[node] < 25
            # The CSR form holds the same successors.
            start, ids = arrays.successor_start, arrays.successor_ids
            assert [
                tuple(ids[start[node] : start[node + 1]]) for node in range(count)
            ] == list(arrays.successors)

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


def reused_visits_matching_seed_dynamics(app):
    """:func:`assert_traces_match_seed_dynamics` on ``app``; returns the
    most summary rounds any block needed and the visits the mask
    dynamics reused (the seed's set dynamics reuse none)."""
    with obs.tracing() as tracer:
        rounds = assert_traces_match_seed_dynamics(app)
    return rounds, tracer.counters["block.visits_reused"]


@pytest.mark.parametrize("seed", [13, 26])
def test_memo_traces_match_across_summary_rounds(seed):
    """Blocks that need several summary rounds: a memo that leaked
    from one round into the next would replay stale call transfers,
    and a reused visit carried across rounds would replay a stale OUT."""
    rounds, reused = reused_visits_matching_seed_dynamics(tiny_app(seed))
    assert rounds > 1
    assert reused > 0


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=500, max_value=900))
def test_memo_traces_match_seed_dynamics(seed):
    _, reused = reused_visits_matching_seed_dynamics(tiny_app(seed))
    # Every drawn app is checked; the examples that count are the ones
    # where some visit reused its previous OUT (a few small apps never
    # schedule a node twice with an unchanged IN).
    assume(reused > 0)


def test_demo_app_traces_match_seed_dynamics(demo_app):
    """The demo app schedules no node twice with an unchanged IN, so it
    checks the full-visit path alone."""
    rounds, reused = reused_visits_matching_seed_dynamics(demo_app)
    assert rounds == 1
    assert reused == 0


#: A component whose ``L2`` is its own successor.
SELF_LOOP_SOURCE = """
app com.spin category tools
component com.spin.Main activity exported
  callback onCreate com.spin.Main.onCreate(Landroid/content/Intent;)V
end
method com.spin.Main.onCreate(Landroid/content/Intent;)V
  param intent: Landroid/content/Intent;
  local obj: Ljava/lang/Object;
  local tmp: Ljava/lang/Object;
  local i: I
  L0: obj := new java.lang.Object
  L1: obj.f := intent
  L2: if i then goto L2
  L3: tmp := obj.f
  L4: obj.g := tmp
  L5: if i then goto L1
  L6: return
end
"""


def test_self_looping_node_traces_match_seed_dynamics():
    """A node that is its own successor sees its own row at once: its
    recorded sizes are the live ones, and a visit that grew its own row
    is never reused."""
    app = parse_app(SELF_LOOP_SOURCE)
    loops = [
        node
        for result in run_blocks(app)
        for node, successors in enumerate(result.trace_sync.node_arrays.successors)
        if node in successors
    ]
    assert loops
    _, reused = reused_visits_matching_seed_dynamics(app)
    assert reused > 0


class TestCompileTable:
    """Each method's plans are compiled once per distinct set of callee
    summaries, however many summary rounds its block runs."""

    @staticmethod
    def recorded_compiles(app, monkeypatch):
        """Build ``app``; returns the ledger's ``block.compiles`` and, per
        block, every ``(signature, callee summaries, compile)`` asked for."""
        calls = []
        compiled = CompileTable.compiled

        def recording(table, method, summaries):
            entry = compiled(table, method, summaries)
            calls.append((entry.signature, entry.callee_summaries, entry))
            return entry

        monkeypatch.setattr(CompileTable, "compiled", recording)
        with obs.tracing() as tracer:
            workload = AppWorkload.build(app)
        return tracer.counters["block.compiles"], calls, workload

    @pytest.mark.parametrize("seed", [13, 26])
    def test_compiles_equal_distinct_callee_summary_sets(self, seed, monkeypatch):
        compiles, calls, workload = self.recorded_compiles(tiny_app(seed), monkeypatch)
        distinct = []
        for signature, key, _ in calls:
            if (signature, key) not in distinct:
                distinct.append((signature, key))
        assert compiles == len(distinct)
        # One compile object per distinct pair, and the same one
        # whenever the pair recurs.
        first = {}
        for signature, key, entry in calls:
            index = distinct.index((signature, key))
            assert first.setdefault(index, entry) is entry
        assert any(r.trace_sync.summary_rounds > 1 for r in workload.block_results)

    @pytest.mark.parametrize("seed", [13, 26])
    def test_scc_rounds_recompile_only_changed_members(self, seed, monkeypatch):
        _, calls, workload = self.recorded_compiles(tiny_app(seed), monkeypatch)
        rounds_by_block = [
            (set(r.assignment.methods), r.trace_sync.summary_rounds)
            for r in workload.block_results
        ]
        kept = recompiled = 0
        for members, rounds in rounds_by_block:
            if rounds < 2:
                continue
            seen = {}
            for signature, key, entry in calls:
                if signature not in members:
                    continue
                previous = seen.get(signature)
                if previous is not None:
                    # Unchanged callee summaries: the last compile again.
                    # Changed: a new compile.
                    assert (entry is previous[1]) == (key == previous[0])
                    kept += entry is previous[1]
                    recompiled += entry is not previous[1]
                seen[signature] = (key, entry)
        assert kept > 0 and recompiled > 0


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


def test_reuse_and_compile_counts_in_run_ledger():
    """``block.visits_reused`` and ``block.compiles`` join the transfer
    counts in the run ledger and repeat exactly run to run."""
    names = (
        "block.transfer_evals",
        "block.transfer_memo_hits",
        "block.visits_reused",
        "block.compiles",
    )
    counts = []
    for _ in range(2):
        with obs.tracing() as tracer:
            AppWorkload.build(tiny_app(26))
        counts.append(tuple(tracer.counters[name] for name in names))
    assert counts[0] == counts[1]
    evals, _, reused, compiles = counts[0]
    assert evals > 0 and reused > 0 and compiles > 0
