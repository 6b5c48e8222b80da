"""The GDroid analysis engine: Android app in, IDFG + modeled time out.

Two-phase design:

1. :class:`AppWorkload` runs the *functional* analysis once per app --
   environment synthesis, SBDA layering, per-block fixed points with
   trace recording -- independent of any GPU configuration.
2. :class:`GDroid` prices a workload under one
   :class:`repro.core.config.GDroidConfig`: per-layer kernel launches,
   SM scheduling, dual-buffered staging, memory footprint.

Benchmarks exploit the split to evaluate many configurations against
one workload; ``GDroid(config).analyze(app)`` does both steps for the
simple API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro import obs
from repro.cfg.callgraph import CallGraph, SBDALayering
from repro.cfg.environment import app_with_environments
from repro.core.blockexec import BlockResult, BlockRunner
from repro.core.blocks import BlockAssignment, partition_layers
from repro.core.compiletable import CompileTable
from repro.core.config import GDroidConfig, TuningParameters
from repro.core.costing import price_traces, set_store_bytes
from repro.core.gdroid_kernel import select_trace
from repro.core.trace import TraceColumns
from repro.dataflow.idfg import IDFG
from repro.dataflow.summaries import MethodSummary
from repro.gpu.kernel import BlockCost, KernelCost
from repro.gpu.sim import GPUDevice
from repro.ir.app import AndroidApp

#: Modeled bytes staged to the device per ICFG node: the node record,
#: statement operands, successor lists and worklist slots.
STAGED_BYTES_PER_NODE = 256


@dataclass
class WorkloadProfile:
    """Aggregate dynamics statistics (Tables I and II)."""

    cfg_nodes: int = 0
    methods: int = 0
    variables: int = 0
    layers: int = 0
    blocks: int = 0
    iterations_sync: int = 0
    iterations_mer: int = 0
    visits_sync: int = 0
    visits_mer: int = 0
    worklist_sizes_sync: List[int] = field(default_factory=list)
    worklist_sizes_mer: List[int] = field(default_factory=list)

    @property
    def max_worklist(self) -> int:
        """Largest worklist observed (sync dynamics)."""
        return max(self.worklist_sizes_sync, default=0)


class AppWorkload:
    """The functional analysis of one app, ready to be priced."""

    __slots__ = (
        "app",
        "analyzed_app",
        "layering",
        "partition",
        "block_results",
        "summaries",
        "idfg",
        "profile",
        "tuning",
        "_columns",
    )

    def __init__(
        self,
        app: AndroidApp,
        analyzed_app: AndroidApp,
        layering: SBDALayering,
        partition: List[List[BlockAssignment]],
        block_results: List[BlockResult],
        summaries: Dict[str, MethodSummary],
        idfg: IDFG,
        profile: WorkloadProfile,
        tuning: TuningParameters,
    ) -> None:
        self.app = app
        self.analyzed_app = analyzed_app
        self.layering = layering
        self.partition = partition
        self.block_results = block_results
        self.summaries = summaries
        self.idfg = idfg
        self.profile = profile
        self.tuning = tuning
        #: Concatenated traces per dynamics variant (``use_mer``),
        #: built by the first configuration priced on that variant.
        self._columns: Dict[bool, TraceColumns] = {}

    @classmethod
    def build(
        cls,
        app: AndroidApp,
        tuning: Optional[TuningParameters] = None,
        record_mer: bool = True,
        lint_gate: bool = False,
    ) -> "AppWorkload":
        """Run the functional analysis and record all dynamics traces.

        ``lint_gate=True`` verifies the app against :mod:`repro.lint`
        first and raises :class:`repro.lint.LintError` on any
        error-severity finding, so malformed IR is rejected before it
        can corrupt the fact pools.  The gate's FP-001 audit runs on the
        plans the build compiles, as it compiles them, before any block
        runs them (:class:`repro.core.compiletable.CompileTable`).  The
        gate is off by default; the pipeline's ``strict`` option
        (:func:`repro.bench.harness.run_pipeline`) gates through it and
        turns a rejection into a row instead.  The workload's IDFG holds
        every node's facts as MAT rows
        (:class:`repro.dataflow.idfg.MethodFacts`).
        """
        table = CompileTable(app.package, audit=lint_gate)
        if lint_gate:
            from repro.lint import check_app, gating

            with obs.span(f"lint.gate:{app.package}", category="lint"), gating(table):
                check_app(app)
        tuning = tuning or TuningParameters()
        with obs.span(
            f"workload.build:{app.package}",
            category="engine",
            package=app.package,
        ):
            return cls._build(app, tuning, record_mer, table)

    @classmethod
    def _build(
        cls,
        app: AndroidApp,
        tuning: TuningParameters,
        record_mer: bool,
        table: CompileTable,
    ) -> "AppWorkload":
        analyzed = app_with_environments(app) if app.components else app
        layering = SBDALayering(CallGraph(analyzed))
        partition = partition_layers(analyzed, layering, tuning)

        summaries: Dict[str, MethodSummary] = {}
        block_results: List[BlockResult] = []
        method_facts = {}
        for layer_blocks in partition:
            layer_results: List[BlockResult] = []
            for assignment in layer_blocks:
                runner = BlockRunner(
                    analyzed, assignment, summaries, record_mer=record_mer,
                    table=table,
                )
                result = runner.run()
                layer_results.append(result)
                method_facts.update(result.method_facts)
            # Summaries become visible to the next layer only: blocks
            # within one layer are independent by construction.
            for result in layer_results:
                summaries.update(result.summaries)
            block_results.extend(layer_results)

        idfg = IDFG(method_facts=method_facts, summaries=summaries)

        profile = WorkloadProfile(
            cfg_nodes=analyzed.statement_count(),
            methods=analyzed.method_count(),
            variables=analyzed.variable_count(),
            layers=len(layering),
            blocks=len(block_results),
        )
        for result in block_results:
            sync_rounds = result.trace_sync.summary_rounds
            profile.iterations_sync += (
                result.trace_sync.iteration_count * sync_rounds
            )
            profile.visits_sync += result.trace_sync.visit_count * sync_rounds
            # Recursive SCC blocks re-run the recorded dynamics once per
            # summary round, so their worklist sizes recur too.
            profile.worklist_sizes_sync.extend(
                result.trace_sync.worklist_sizes() * sync_rounds
            )
            if result.trace_mer is not None:
                mer_rounds = result.trace_mer.summary_rounds
                profile.iterations_mer += (
                    result.trace_mer.iteration_count * mer_rounds
                )
                profile.visits_mer += (
                    result.trace_mer.visit_count * mer_rounds
                )
                profile.worklist_sizes_mer.extend(
                    result.trace_mer.worklist_sizes() * mer_rounds
                )
        obs.count("engine.workloads", 1)
        obs.count("engine.cfg_nodes", profile.cfg_nodes)
        obs.count("engine.iterations_sync", profile.iterations_sync)
        obs.count("engine.visits_sync", profile.visits_sync)
        return cls(
            app=app,
            analyzed_app=analyzed,
            layering=layering,
            partition=partition,
            block_results=block_results,
            summaries=summaries,
            idfg=idfg,
            profile=profile,
            tuning=tuning,
        )

    # -- pricing -------------------------------------------------------------------

    def block_costs(self, config: GDroidConfig) -> Dict[int, BlockCost]:
        """Every block priced under ``config`` in one pass, by block id.

        The traces of ``config``'s dynamics variant are concatenated on
        first use and kept for the other configurations of the variant.
        """
        columns = self._columns.get(config.use_mer)
        if columns is None:
            columns = self._columns[config.use_mer] = TraceColumns(
                [select_trace(result, config) for result in self.block_results],
                [result.fact_counts for result in self.block_results],
            )
        return {
            result.assignment.block_id: cost
            for result, cost in zip(
                self.block_results, price_traces(columns, config)
            )
        }

    # -- memory footprints (Fig. 10) -----------------------------------------------

    def set_store_footprint(self) -> int:
        """Device bytes of the set-based fact store, app-wide."""
        return sum(
            set_store_bytes(result.fact_counts) for result in self.block_results
        )

    def matrix_store_footprint(self) -> int:
        """Device bytes of the MAT bit-matrix store, app-wide."""
        total = 0
        for result in self.block_results:
            for facts in result.method_facts.values():
                node_count = len(facts.node_facts)
                bits = facts.space.fact_universe * node_count
                total += (bits + 7) // 8
        return total

    def staged_bytes(self) -> int:
        """Host->device image size of this app."""
        return self.profile.cfg_nodes * STAGED_BYTES_PER_NODE


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of pricing one workload under one configuration."""

    config: GDroidConfig
    idfg: IDFG
    kernel_cycles: float
    transfer_cycles: float
    breakdown: Mapping[str, float]
    memory_bytes: int
    iterations: int
    visits: int
    kernels: Tuple[KernelCost, ...] = ()

    @property
    def total_cycles(self) -> float:
        """All charged cycles (kernel + exposed transfer)."""
        return self.kernel_cycles + self.transfer_cycles

    @property
    def modeled_time_s(self) -> float:
        """Charged cycles converted to seconds on this spec."""
        return self.config.spec.cycles_to_seconds(self.total_cycles)


class GDroid:
    """Public analyzer facade.

    >>> result = GDroid(GDroidConfig.all_optimizations()).analyze(app)
    >>> result.modeled_time_s, result.idfg.total_fact_count()
    """

    def __init__(self, config: Optional[GDroidConfig] = None) -> None:
        self.config = config or GDroidConfig.all_optimizations()

    def analyze(
        self, app_or_workload: Union[AndroidApp, AppWorkload]
    ) -> AnalysisResult:
        """Run the model over a built workload."""
        if isinstance(app_or_workload, AppWorkload):
            workload = app_or_workload
        else:
            workload = AppWorkload.build(
                app_or_workload,
                tuning=self.config.tuning,
                record_mer=self.config.use_mer,
            )
        return self.price(workload)

    def price(self, workload: AppWorkload) -> AnalysisResult:
        """Price an already-built workload under this configuration."""
        config = self.config
        with obs.span(
            f"gdroid.price:{workload.app.package}",
            category="price",
            package=workload.app.package,
            use_mat=config.use_mat,
            use_grp=config.use_grp,
            use_mer=config.use_mer,
        ):
            result = self._price(workload)
        obs.count("price.kernel_cycles", result.kernel_cycles)
        obs.count("price.transfer_cycles", result.transfer_cycles)
        obs.count("price.launches", len(result.kernels))
        return result

    def _price(self, workload: AppWorkload) -> AnalysisResult:
        from repro.gpu.occupancy import occupancy

        config = self.config
        device = GPUDevice(config.spec, config.costs)
        # Shared memory caps residency: a block's worklists must fit in
        # the SM's 48 KB, whatever the tuning knob asks for.
        report = occupancy(
            workload.profile.max_worklist,
            config.tuning.blocks_per_sm,
            config.spec,
            use_grp=config.use_grp,
        )
        blocks_per_sm = report.effective_blocks_per_sm

        kernels: List[KernelCost] = []
        breakdown: Dict[str, float] = {}
        iterations = 0
        visits = 0
        cost_by_block = workload.block_costs(config)
        for layer_blocks in workload.partition:
            block_costs: List[BlockCost] = []
            for assignment in layer_blocks:
                cost = cost_by_block[assignment.block_id]
                block_costs.append(cost)
                iterations += cost.iterations
                visits += cost.node_visits
            if not block_costs:
                continue
            kernel = device.launch(block_costs, blocks_per_sm)
            kernels.append(kernel)
            for key, value in kernel.breakdown().items():
                breakdown[key] = breakdown.get(key, 0.0) + value

        kernel_cycles = device.stats.kernel_cycles
        memory_bytes = (
            workload.matrix_store_footprint()
            if config.use_mat
            else workload.set_store_footprint()
        )
        # Stage the app image plus the resident fact store.  When the
        # total exceeds device memory, the ICFG is processed as
        # sub-graphs alternating between the two buffers (paper
        # Section III-A1); the dual-buffer schedule charges whatever
        # transfer time the kernels cannot hide.
        from repro.gpu.allocator import DeviceOutOfMemory

        image_bytes = workload.staged_bytes() + memory_bytes
        try:
            device.allocator.reserve(image_bytes)
        except DeviceOutOfMemory:
            pass  # chunked staging below covers the oversubscription
        device.stage_input(image_bytes, kernel_cycles)

        return AnalysisResult(
            config=config,
            idfg=workload.idfg,
            kernel_cycles=kernel_cycles,
            transfer_cycles=device.stats.transfer_cycles,
            breakdown=breakdown,
            memory_bytes=memory_bytes,
            iterations=iterations,
            visits=visits,
            kernels=tuple(kernels),
        )
