"""Fixed-point order-independence: the property MER's soundness rests on.

"Since the worklist algorithm is insensitive to the node processing
order, the MER will not affect the final results" (paper Section IV-C).
We verify the stronger statement: *any* processing schedule that
eventually processes every pending node converges to the same least
fixed point.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.intra import build_intra_cfg
from repro.dataflow.bitset import mask_from
from repro.dataflow.facts import FactSpace
from repro.dataflow.transfer import TransferFunctions
from repro.dataflow.worklist import SequentialWorklist
from tests.conftest import tiny_app


def randomized_fixpoint(method, seed: int):
    """A chaos-monkey worklist: random processing order, random batch
    sizes, duplicate tolerance -- only fairness is guaranteed."""
    rng = random.Random(seed)
    cfg = build_intra_cfg(method)
    space = FactSpace(method)
    transfer = TransferFunctions(space)
    count = len(method.statements)
    if count == 0:
        return []
    facts = [set() for _ in range(count)]
    facts[0] = set(space.entry_facts())
    visited = [False] * count
    pending = [0]
    while pending:
        rng.shuffle(pending)
        batch = pending[: rng.randint(1, len(pending))]
        rest = pending[len(batch):]
        next_pending = set(rest)
        for node in batch:
            visited[node] = True
            out = transfer.out_facts(node, facts[node])
            for successor in cfg.successors[node]:
                before = len(facts[successor])
                facts[successor] |= out
                if len(facts[successor]) > before or not visited[successor]:
                    next_pending.add(successor)
        pending = list(next_pending)
    return facts


@settings(max_examples=6, deadline=None)
@given(
    app_seed=st.integers(min_value=0, max_value=150),
    order_seed=st.integers(min_value=0, max_value=10_000),
)
def test_any_fair_schedule_reaches_the_same_fixed_point(app_seed, order_seed):
    app = tiny_app(app_seed)
    # Pick the largest leaf method (no *internal* callees) so no
    # summaries are needed.  API callees are fine -- their effects are
    # built into the transfer functions -- and some seeds generate
    # apps where every method makes at least one API call, so
    # filtering on ``not m.callees()`` would leave no candidates.
    internal = {str(m.signature) for m in app.methods}
    candidates = [
        m
        for m in app.methods
        if not any(callee in internal for callee in m.callees())
    ]
    method = max(candidates, key=len)
    reference = SequentialWorklist(method).run()
    chaotic = randomized_fixpoint(method, order_seed)
    assert [mask_from(f) for f in chaotic] == list(reference.node_facts)


def test_two_different_chaos_seeds_agree(demo_app):
    method = demo_app.method(
        "com.demo.Main.helper(Ljava/lang/Object;)Ljava/lang/Object;"
    )
    a = randomized_fixpoint(method, 1)
    b = randomized_fixpoint(method, 2)
    assert a == b
