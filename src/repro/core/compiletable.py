"""One app build's compile table.

Every block of a build needs, for each of its methods, the method's
CFG and, for the callee summaries the block sees, its fact space,
compiled transfer plans, their bitset view and entry row.  The table
builds each method's CFG once, and the rest once per distinct set of
callee summaries: a method's compile reads the summaries of its own
callees only, so an SCC round recompiles just the members whose
callees' summaries changed.  The paper builds its fact pools and node
groups once, before the kernel launches (MAT, GRP, Alg. 3); so does
the table, once per app.

Under the strict lint gate the table also runs FP-001, the fact-pool
bounds audit, over each plan set as it compiles it: the plans that
actually run, environment methods and summary-instantiated call
effects included.  The gate itself then leaves FP-001 to the table
(:func:`repro.lint.gating`) and draws its CFGs from it.

The table yields each block's :class:`~repro.core.trace.NodeArrays`
(successors, branch class, group, grouped position, row words and
method of every node), which the dynamics, the trace columns, the
pricing replay and the CPU model read directly.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cfg.intra import IntraCFG, build_intra_cfg
from repro.core.grouping import access_group, branch_class_id, grouped_storage_order
from repro.core.trace import NodeArrays
from repro.dataflow.facts import FactSpace
from repro.dataflow.summaries import MethodSummary
from repro.dataflow.transfer import MaskTransfer, NodePlan, TransferFunctions
from repro.ir.method import Method


def _walks_points_to(plan: NodePlan) -> bool:
    """True for a call, a heap store, or a read through a field."""
    return plan.op in ("call", "store_heap") or bool(
        plan.value is not None and plan.value.derefs
    )


class CompiledMethod:
    """One method compiled against one set of callee summaries."""

    __slots__ = (
        "signature",
        "method",
        "cfg",
        "callee_summaries",
        "space",
        "transfer",
        "entry_row",
        "evaluate",
        "memoized",
        "groups",
        "row_words",
    )

    def __init__(
        self,
        method: Method,
        cfg: IntraCFG,
        callee_summaries: Tuple[Optional[MethodSummary], ...],
        space: FactSpace,
        transfer: TransferFunctions,
    ) -> None:
        self.signature = str(method.signature)
        self.method = method
        self.cfg = cfg
        #: The summary of each distinct callee (None: not in the table,
        #: so the compile used the external summary), in body order.
        self.callee_summaries = callee_summaries
        self.space = space
        self.transfer = transfer
        masked = MaskTransfer(transfer)
        #: The method's entry facts as a row.
        self.entry_row = masked.entry_mask()
        #: Per node: ``masked.out_mask``, or None for an identity node,
        #: which forwards IN without a call.
        self.evaluate = tuple(
            None if masked.is_identity(local) else masked.out_mask
            for local in range(len(transfer.plans))
        )
        #: Per node: whether a round memoizes its transfer.  Only the
        #: plans that walk points-to sets are: a cheap assign costs less
        #: to recompute than its IN row costs to hash.
        self.memoized = tuple(
            evaluate is not None and _walks_points_to(plan)
            for evaluate, plan in zip(self.evaluate, transfer.plans)
        )
        #: Per node: 0..2 access-pattern group (GRP).
        self.groups = tuple(
            access_group(transfer, local) for local in range(len(transfer.plans))
        )
        #: Words per fact-matrix row of this method.
        self.row_words = max(1, (space.fact_universe + 63) // 64)


class _BlockShape:
    """The per-node arrays of one block that no summary round changes."""

    __slots__ = (
        "methods",
        "method_start",
        "method_index",
        "successors",
        "successor_start",
        "successor_ids",
        "branch_class",
    )

    def __init__(self, table: "CompileTable", methods: Sequence[Method]) -> None:
        self.methods = tuple(str(method.signature) for method in methods)
        sizes = [len(method.statements) for method in methods]
        self.method_start = tuple(accumulate(sizes, initial=0))[:-1]
        self.method_index = array(
            "i", chain.from_iterable([m] * size for m, size in enumerate(sizes))
        )
        successors: List[Tuple[int, ...]] = []
        branch_class = array("i")
        for method, start in zip(methods, self.method_start):
            cfg, classes = table.cfg_and_classes(method)
            if start:
                successors.extend(
                    tuple(start + succ for succ in local) for local in cfg.successors
                )
            else:
                successors.extend(cfg.successors)
            branch_class.extend(classes)
        self.successors = tuple(successors)
        self.successor_start = array(
            "i", accumulate(map(len, successors), initial=0)
        )
        self.successor_ids = array("i", chain.from_iterable(successors))
        self.branch_class = branch_class


class CompileTable:
    """Every method of one app build, compiled once per callee summaries.

    ``compiles`` counts the ``TransferFunctions`` the table built.  With
    ``audit``, FP-001 checks each compiled plan set and a violation
    raises :class:`repro.lint.LintError` for ``package`` before any
    block runs the plans.
    """

    __slots__ = ("package", "audit", "compiles", "_cfgs", "_compiled", "_shapes")

    def __init__(self, package: str, audit: bool = False) -> None:
        self.package = package
        self.audit = audit
        self.compiles = 0
        #: id(method) -> (CFG, branch class per node).  The CFG holds
        #: its method, so the id stays the method's for the table's life.
        self._cfgs: Dict[int, Tuple[IntraCFG, Tuple[int, ...]]] = {}
        #: Signature -> every compile of the method, one per distinct
        #: set of callee summaries.
        self._compiled: Dict[str, List[CompiledMethod]] = {}
        #: Block methods -> the block's round-invariant node arrays.
        self._shapes: Dict[Tuple[str, ...], _BlockShape] = {}

    def cfg_and_classes(self, method: Method) -> Tuple[IntraCFG, Tuple[int, ...]]:
        """``method``'s CFG and the branch class of each node, built once."""
        entry = self._cfgs.get(id(method))
        if entry is None:
            entry = self._cfgs[id(method)] = (
                build_intra_cfg(method),
                tuple(branch_class_id(statement) for statement in method.statements),
            )
        return entry

    def cfg(self, method: Method) -> IntraCFG:
        """``method``'s intra-procedural CFG, built once."""
        return self.cfg_and_classes(method)[0]

    def compiled(
        self, method: Method, summaries: Mapping[str, MethodSummary]
    ) -> CompiledMethod:
        """``method`` compiled against the summaries of its callees.

        Only the method's own callees' summaries reach its fact space
        and plans, so a compile is reused for every summary table that
        agrees with it on them.
        """
        signature = str(method.signature)
        callees = tuple(dict.fromkeys(method.callees()))
        key = tuple(summaries.get(callee) for callee in callees)
        compiles = self._compiled.setdefault(signature, [])
        for compiled in compiles:
            if compiled.callee_summaries == key:
                return compiled
        footprints = {
            callee: summary.footprint()
            for callee, summary in zip(callees, key)
            if summary is not None
        }
        space = FactSpace(method, footprints)
        transfer = TransferFunctions(space, summaries)
        self.compiles += 1
        if self.audit:
            from repro.lint.factpool import raise_on_plan_violations

            raise_on_plan_violations(self.package, method, space, transfer)
        compiled = CompiledMethod(method, self.cfg(method), key, space, transfer)
        compiles.append(compiled)
        return compiled

    def node_arrays(self, compiled: Sequence[CompiledMethod]) -> NodeArrays:
        """The per-node arrays of the block holding ``compiled``, in order."""
        methods = tuple(entry.signature for entry in compiled)
        shape = self._shapes.get(methods)
        if shape is None:
            shape = self._shapes[methods] = _BlockShape(
                self, [entry.method for entry in compiled]
            )
        groups = list(chain.from_iterable(entry.groups for entry in compiled))
        return NodeArrays(
            methods=shape.methods,
            method_start=shape.method_start,
            method_index=shape.method_index,
            successors=shape.successors,
            successor_start=shape.successor_start,
            successor_ids=shape.successor_ids,
            branch_class=shape.branch_class,
            group=array("i", groups),
            grouped_position=array("i", grouped_storage_order(groups)),
            row_words=array(
                "i",
                chain.from_iterable(
                    [entry.row_words] * len(entry.groups) for entry in compiled
                ),
            ),
        )
