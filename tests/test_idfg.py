"""IDFG result-structure tests."""

from repro.apk.generator import GeneratorProfile, generate_app
from repro.dataflow.bitset import bit_indices
from repro.dataflow.idfg import IDFG, MethodFacts
from repro.dataflow.worklist import analyze_app_reference


class TestEquivalence:
    def test_self_equivalence(self, demo_app):
        idfg = analyze_app_reference(demo_app)
        assert idfg.equivalent_to(idfg)
        assert idfg.diff(idfg) == {}

    def test_detects_missing_method(self, demo_app):
        idfg = analyze_app_reference(demo_app)
        partial = IDFG(
            method_facts={
                k: v
                for i, (k, v) in enumerate(idfg.method_facts.items())
                if i > 0
            },
            summaries=idfg.summaries,
        )
        assert not idfg.equivalent_to(partial)
        assert partial.methods() != idfg.methods()

    def test_detects_fact_difference(self, demo_app):
        idfg = analyze_app_reference(demo_app)
        signature = next(iter(idfg.method_facts))
        original = idfg.method_facts[signature]
        mutated_nodes = list(original.node_facts)
        mutated_nodes[0] = mutated_nodes[0] | 1 << 99_999
        mutated = dict(idfg.method_facts)
        mutated[signature] = MethodFacts(
            space=original.space,
            node_facts=tuple(mutated_nodes),
            exit_facts=original.exit_facts,
        )
        other = IDFG(method_facts=mutated, summaries=idfg.summaries)
        assert not idfg.equivalent_to(other)
        assert idfg.diff(other)[signature] == (0,)

    def test_counts(self, demo_app):
        idfg = analyze_app_reference(demo_app)
        assert idfg.node_count() == sum(
            len(mf.node_facts) for mf in idfg.method_facts.values()
        )
        assert idfg.total_fact_count() == sum(
            mf.fact_count() for mf in idfg.method_facts.values()
        )

    def test_decoded_facts_are_named(self, demo_app):
        idfg = analyze_app_reference(demo_app)
        signature = "com.demo.Main.onCreate(Landroid/content/Intent;)V"
        facts = idfg.facts_of(signature)
        for slot, instance in facts.decoded(0):
            assert isinstance(slot, tuple) and isinstance(instance, tuple)


class TestRowLayout:
    def test_instances_matches_the_fact_scan(self):
        """Taint, the DDG and the ICC resolver all read a slot through
        ``instances``; it must agree with scanning the row's facts."""
        idfg = analyze_app_reference(generate_app(31, GeneratorProfile(scale=0.5)))
        for facts in idfg.method_facts.values():
            count = facts.space.instance_count
            for node, row in enumerate(facts.node_facts):
                indices = bit_indices(row)
                for slot in range(facts.space.slot_count):
                    base = slot * count
                    scanned = [f - base for f in indices if base <= f < base + count]
                    assert bit_indices(facts.instances(node, slot)) == scanned
