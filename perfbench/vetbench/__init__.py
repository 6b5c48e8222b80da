"""The repository's wall-clock vetting benchmark.

``perfbench/run.py`` is the only entry point; this package holds its
parts:

    env.py        locate the checkout and import the program from ``src/``
    inputs.py     seeded inputs: stratified app sets and version bumps
    spans.py      in-memory span recorder and the layer wrappers
    workloads.py  ingest / revet / serve-burst
    verify.py     reference checks feeding ``ok_frac``
    metrics.py    metric tables, end-to-end and per-layer values
    stats.py      percentiles, medians, CPU and peak-RSS readings

See ``perfbench/README.md`` for the metrics, workloads and run lengths.
"""
