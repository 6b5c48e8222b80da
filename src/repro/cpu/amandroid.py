"""The Amandroid pipeline model (Fig. 1).

Fig. 1 plots, for 1000 apps, Amandroid's total analysis time and its
IDFG-construction share: 58-96 % of the total, up to 38 minutes per
app.  Amandroid is Scala on the JVM and constructs the IDFG without
the multithreaded-C re-implementation's parallelism, so its per-visit
constant is much larger than :mod:`repro.cpu.multicore`'s.

The model decomposes the pipeline the way Amandroid does:

* **frontend** -- APK unpack, dex lifting to Jawa IR, environment
  method generation: proportional to code size;
* **IDFG construction** -- the single-threaded worklist algorithm over
  the measured workload (visits and fact sizes), with JVM/Scala
  collection overhead;
* **plugins** -- DDG construction and the security analyses stacked on
  the IDFG: proportional to IDFG size (nodes and facts).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import AppWorkload
from repro.cpu.multicore import CPUSpec, XEON_GOLD_5115


@dataclass(frozen=True)
class AmandroidCostTable:
    """JVM/Scala-side cycle costs (calibrated; see tools/calibrate.py).

    The per-visit constants are an order of magnitude above the C
    re-implementation's: immutable Scala collections copy on update,
    and the JVM adds boxing and GC pressure.
    """

    #: Frontend cycles per IR statement (dex lifting + env generation;
    #: roughly 2 ms/statement, dominated by bytecode translation).
    frontend_cycles_per_node: float = 5.0e6
    #: Fixed frontend cost (APK unpack, manifest parsing, class load).
    frontend_base_cycles: float = 1.2e10
    #: IDFG worklist: cycles per node visit.  Roughly 10 ms -- what
    #: Amandroid-class tools actually exhibit (30 min / ~100K visits on
    #: large apps): context-sensitive transfer functions, immutable
    #: Scala collections, JVM boxing and GC.
    visit_cycles: float = 2.5e7
    #: IDFG worklist: cycles per fact scanned / inserted (immutable
    #: set rebuilds).
    fact_cycles: float = 3.0e5
    #: Plugin cycles per stored fact (DDG + taint passes).
    plugin_cycles_per_fact: float = 5.0e5
    #: Plugin cycles per ICFG node.
    plugin_cycles_per_node: float = 1.0e6


DEFAULT_AMANDROID_COSTS = AmandroidCostTable()


@dataclass(frozen=True)
class AmandroidTiming:
    """One app's modeled Amandroid breakdown."""

    frontend_cycles: float
    idfg_cycles: float
    plugin_cycles: float
    spec: CPUSpec

    @property
    def total_cycles(self) -> float:
        """All charged cycles (kernel + exposed transfer)."""
        return self.frontend_cycles + self.idfg_cycles + self.plugin_cycles

    @property
    def total_seconds(self) -> float:
        """Whole-pipeline modeled seconds."""
        return self.spec.cycles_to_seconds(self.total_cycles)

    @property
    def idfg_seconds(self) -> float:
        """IDFG-construction modeled seconds."""
        return self.spec.cycles_to_seconds(self.idfg_cycles)

    @property
    def idfg_fraction(self) -> float:
        """IDFG share of the total -- the paper reports 58-96 %."""
        total = self.total_cycles
        return self.idfg_cycles / total if total else 0.0


class AmandroidModel:
    """Price an :class:`AppWorkload` through the Amandroid pipeline."""

    def __init__(
        self,
        spec: CPUSpec = XEON_GOLD_5115,
        costs: AmandroidCostTable = DEFAULT_AMANDROID_COSTS,
    ) -> None:
        self.spec = spec
        self.costs = costs

    def analyze(self, workload: AppWorkload) -> AmandroidTiming:
        """Run the model over a built workload."""
        costs = self.costs
        nodes = workload.profile.cfg_nodes
        frontend = (
            costs.frontend_base_cycles + costs.frontend_cycles_per_node * nodes
        )

        idfg = 0.0
        total_facts = 0
        for result in workload.block_results:
            trace = result.trace_mer or result.trace_sync
            rounds = max(1, trace.summary_rounds)
            for in_size, new_facts in zip(trace.in_sizes, trace.new_facts):
                idfg += rounds * (
                    costs.visit_cycles + costs.fact_cycles * (in_size + new_facts)
                )
            for facts in result.method_facts.values():
                total_facts += facts.fact_count()

        plugins = (
            costs.plugin_cycles_per_fact * total_facts
            + costs.plugin_cycles_per_node * nodes
        )
        return AmandroidTiming(
            frontend_cycles=frontend,
            idfg_cycles=idfg,
            plugin_cycles=plugins,
            spec=self.spec,
        )
