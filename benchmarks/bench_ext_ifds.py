"""Extension -- IFDS tabulation vs the points-to taint plugin.

The related-work landscape the paper surveys splits into IFDS/IDE
tabulation (WALA, Heros) and points-to-based engines (Amandroid).
Both are implemented here; this benchmark runs them over the corpus,
checks they never disagree (IFDS-confirmed flows are a subset of the
plugin's), and reports how many flows are heap-laundered -- visible
only to the points-to engine GDroid accelerates.
"""

from repro.apk.generator import GeneratorProfile, generate_app
from repro.bench.figures import render_table
from repro.cfg.environment import app_with_environments
from repro.core.engine import AppWorkload
from repro.dataflow.ifds import IfdsSolver
from repro.vetting.taint import TaintAnalysis

from benchlib import publish

#: Leak-rich corpus slice so both engines have work to do.
N_APPS = 14
PROFILE = GeneratorProfile(scale=0.25, leaky_fraction=0.7)


def _engines_for(app):
    analyzed = app_with_environments(app)
    workload = AppWorkload.build(app, record_mer=False)
    plugin = {
        (f.method, f.sink_label)
        for f in TaintAnalysis(workload.analyzed_app, workload.idfg).run()
    }
    solver = IfdsSolver(analyzed)
    solver.solve()
    ifds = {(f.method, f.sink_label) for f in solver.sink_flows()}
    return plugin, ifds


def test_ifds_vs_pointsto(benchmark, corpus_rows):
    app0 = generate_app(0, PROFILE)

    def run_ifds():
        solver = IfdsSolver(app_with_environments(app0))
        solver.solve()
        return len(solver.path_edges)

    benchmark(run_ifds)

    plugin_total = ifds_total = heap_only = disagreements = 0
    for seed in range(N_APPS):
        plugin, ifds = _engines_for(generate_app(seed, PROFILE))
        plugin_total += len(plugin)
        ifds_total += len(ifds)
        heap_only += len(plugin - ifds)
        disagreements += len(ifds - plugin)

    rows = [
        ("points-to plugin flows", "heap-aware", str(plugin_total)),
        ("IFDS tabulation flows", "variable-level", str(ifds_total)),
        ("heap-laundered (plugin-only)", "IFDS blind spot", str(heap_only)),
        ("disagreements (must be 0)", "0", str(disagreements)),
    ]
    publish("ext_ifds", render_table("IFDS vs points-to taint", rows))

    assert disagreements == 0
    assert plugin_total >= ifds_total
    assert plugin_total > 0, "the leak-rich corpus must produce flows"
