#!/usr/bin/env python3
"""Profile the simulated kernels like a CUDA developer would.

Exports a chrome://tracing timeline of the per-layer kernel schedule
and prints profiler-style counters (occupancy, SIMD efficiency,
bottleneck mix) for the plain port and full GDroid side by side --
the workflow the paper's Section III-B2 bottleneck hunt implies.

Run:  python examples/profile_kernels.py [seed] [trace_out.json]
"""

import sys

from repro import GDroid, GDroidConfig, generate_app
from repro.apk.generator import GeneratorProfile
from repro.core.engine import AppWorkload
from repro.gpu.counters import run_counters
from repro.gpu.spec import TESLA_P40
from repro.gpu.timeline import kernel_timeline_events
from repro.obs.export import write_chrome_trace


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 2
    trace_path = sys.argv[2] if len(sys.argv) > 2 else "gdroid_trace.json"

    app = generate_app(seed, GeneratorProfile(scale=0.5))
    workload = AppWorkload.build(app)
    plain = GDroid(GDroidConfig.plain()).price(workload)
    full = GDroid(GDroidConfig.all_optimizations()).price(workload)

    print(f"app {app.package}: {workload.profile.blocks} blocks over "
          f"{workload.profile.layers} layers\n")
    print(f"{'counter':26s} {'plain':>14s} {'GDroid':>14s}")
    plain_counters = run_counters(plain.kernels)
    full_counters = run_counters(full.kernels)
    rows = (
        ("achieved occupancy", lambda c: f"{100 * c.achieved_occupancy:.1f}%"),
        ("SIMD efficiency", lambda c: f"{100 * c.simd_efficiency:.1f}%"),
        ("visits / kcycle", lambda c: f"{c.visits_per_kcycle:.2f}"),
        ("dominant bottleneck", lambda c: c.dominant_bottleneck().replace("_cycles", "")),
    )
    for label, fmt in rows:
        print(f"{label:26s} {fmt(plain_counters):>14s} {fmt(full_counters):>14s}")

    print("\nbottleneck mix (GDroid):")
    for key, share in sorted(
        full_counters.bottleneck_mix.items(), key=lambda kv: -kv[1]
    ):
        print(f"  {key.replace('_cycles', ''):18s} {100 * share:5.1f}%")

    events = write_chrome_trace(
        kernel_timeline_events(full.kernels, TESLA_P40),
        trace_path,
        {"device": TESLA_P40.name, "source": "repro.gpu simulator"},
    )
    print(f"\nwrote {trace_path} ({events} events) — open in chrome://tracing")


if __name__ == "__main__":
    main()
