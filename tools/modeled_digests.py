#!/usr/bin/env python3
"""Per-app digests of every modeled output: the bit-identical gate.

``tools/bench_baseline.py compare`` gates the means of a few modeled
metrics with a tolerance.  A change that moves them by less than the
tolerance, or that changes which facts hold without changing how many,
passes it.  This tool pins every modeled output of every app exactly:

* ``record`` runs the lint-gated pipeline over a fixed app set and
  writes one digest per app and output to
  ``benchmarks/results/BENCH_digests.json``, with the stated reason;
* ``check`` recomputes them and names the first app and output that
  differ (exit 1).

The app set is the wall-clock benchmark's seed-1 ``ingest`` draw (200
apps at scale 0.05, one per cost stratum, drawn by
``perfbench/vetbench/inputs.py``, which this tool only imports) plus
:data:`LARGE_APPS` apps at scale 1.0, for sizes that draw never
reaches.  Each app is packed and decoded in order, as the benchmark
loads its ``.gdx`` files, and runs ``run_pipeline`` with the strict
gate, vetting and the benchmark's rule pack.

Per app, the digested outputs are:

``traces``
    every column of both runs (sync and MER) of every block, with the
    block's id, layer, methods and summary rounds;
``nodes``
    every node's metadata: method, local index, branch class, group,
    grouped position, successors and row words;
``fact_counts``
    every block's per-node fixed-point fact counts;
``rows``
    every node row and exit row, as hex;
``summaries``
    every method summary (``summary_to_payload``, sorted-key JSON);
``evaluation``
    the ``AppEvaluation`` row;
``block_costs``
    every block's cost under each of the four configurations;
``verdict``
    verdict, risk score and every finding of the vetting report.

Every encoding is canonical JSON over sorted keys and lists, so a
digest does not depend on ``PYTHONHASHSEED`` or on set order.

Usage::

    python tools/modeled_digests.py record --reason "why the outputs moved"
    python tools/modeled_digests.py check [--digests PATH]

Exit codes: 0 = identical, 1 = an output differs, 2 = usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

#: Bump when the digest file layout or any field encoding changes.
DIGEST_SCHEMA = 1
DEFAULT_DIGESTS = ROOT / "benchmarks" / "results" / "BENCH_digests.json"

#: The benchmark draw the first apps come from.
INGEST_SEED = 1
INGEST_APPS = 200
#: Generator seeds of the scale-1.0 apps, and how many.
LARGE_BASE_SEED = 7_100_000
LARGE_APPS = 12
LARGE_SCALE = 1.0
#: The rule pack the benchmark vets under.
PACK = "exfiltration"

#: The digested outputs, in the order ``check`` compares them.
FIELDS = (
    "traces",
    "nodes",
    "fact_counts",
    "rows",
    "summaries",
    "evaluation",
    "block_costs",
    "verdict",
)

#: Every column of a block trace.
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


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_plain)


def _plain(value):
    """JSON for the values ``json`` does not know: sets sort, tuples list."""
    if isinstance(value, (set, frozenset)):
        return sorted(_canonical(item) for item in value)
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    raise TypeError(f"no canonical encoding for {type(value).__name__}")


def _digest(value) -> str:
    return hashlib.blake2b(_canonical(value).encode(), digest_size=12).hexdigest()


# -- the app set ---------------------------------------------------------------


def app_sources() -> List[Tuple[str, int, float]]:
    """``(name, generator seed, scale)`` of every digested app, in order."""
    from vetbench import inputs

    sources = [
        (f"ingest-{INGEST_SEED}/{spec.index:03d}", spec.seed, inputs.SCALE)
        for spec in inputs.draw_apps(INGEST_SEED, INGEST_APPS)
    ]
    sources.extend(
        (f"scale-1.0/{offset:02d}", LARGE_BASE_SEED + offset, LARGE_SCALE)
        for offset in range(LARGE_APPS)
    )
    return sources


# -- one app's outputs ---------------------------------------------------------


def _trace_payload(trace) -> Optional[dict]:
    if trace is None:
        return None
    payload = {column: getattr(trace, column).tolist() for column in TRACE_COLUMNS}
    payload["summary_rounds"] = trace.summary_rounds
    return payload


def node_metadata(result) -> List[list]:
    """One block's per-node metadata, in node order."""
    arrays = result.trace_sync.node_arrays
    return [
        [
            node,
            arrays.method_of(node),
            arrays.local_index(node),
            arrays.branch_class[node],
            arrays.group[node],
            arrays.grouped_position[node],
            list(arrays.successors[node]),
            arrays.row_words[node],
        ]
        for node in range(len(arrays))
    ]


def app_fields(workload, row, report) -> Dict[str, str]:
    """Every digested output of one app, by field name."""
    from repro.bench.harness import _CONFIGS
    from repro.dataflow.fingerprint import summary_to_payload

    results = workload.block_results
    values = {
        "traces": [
            {
                "block": result.assignment.block_id,
                "layer": result.assignment.layer,
                "methods": list(result.assignment.methods),
                "sync": _trace_payload(result.trace_sync),
                "mer": _trace_payload(result.trace_mer),
            }
            for result in results
        ],
        "nodes": [node_metadata(result) for result in results],
        "fact_counts": [list(result.fact_counts) for result in results],
        "rows": [
            [
                signature,
                [format(mask, "x") for mask in facts.node_facts],
                format(facts.exit_facts, "x"),
            ]
            for result in results
            for signature, facts in result.method_facts.items()
        ],
        "summaries": [
            summary_to_payload(workload.summaries[signature])
            for signature in sorted(workload.summaries)
        ],
        "evaluation": dataclasses.asdict(row),
        "block_costs": {
            name: [
                [block_id, dataclasses.asdict(cost)]
                for block_id, cost in sorted(workload.block_costs(config).items())
            ]
            for name, config in _CONFIGS.items()
        },
        "verdict": {
            "verdict": report.verdict,
            "risk": report.risk_score,
            "findings": [dataclasses.asdict(f) for f in report.findings],
        },
    }
    return {name: _digest(values[name]) for name in FIELDS}


@contextmanager
def _capture(owner, attribute: str, into: list) -> Iterator[None]:
    """Record every value ``owner.attribute`` returns inside the block."""
    original = owner.__dict__[attribute]
    func = original.__func__ if isinstance(original, classmethod) else original

    def recording(*args, **kwargs):
        value = func(*args, **kwargs)
        into.append(value)
        return value

    wrapped = classmethod(recording) if isinstance(original, classmethod) else recording
    setattr(owner, attribute, wrapped)
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def compute(progress: bool = False) -> List[dict]:
    """Run the pipeline over the app set; one digest record per app."""
    from repro.apk.dex import pack_app, unpack_app
    from repro.apk.generator import AppGenerator, GeneratorProfile
    from repro.bench.harness import AppEvaluation, ENGINE_GDROID, run_pipeline
    from repro.core.engine import AppWorkload
    from repro.rules.pack import load_pack
    from repro.vetting import report as reporting

    pack = load_pack(PACK)
    generators: Dict[float, AppGenerator] = {}
    records: List[dict] = []
    for index, (name, seed, scale) in enumerate(app_sources()):
        generator = generators.get(scale)
        if generator is None:
            generator = generators[scale] = AppGenerator(GeneratorProfile(scale=scale))
        app = unpack_app(pack_app(generator.generate(seed)))
        workloads: list = []
        reports: list = []
        with _capture(AppWorkload, "build", workloads), _capture(
            reporting, "vet_workload", reports
        ):
            result = run_pipeline(app, index, ENGINE_GDROID, True, True, rules=pack)
        if not isinstance(result.row, AppEvaluation):
            raise RuntimeError(f"{name}: the pipeline refused the app: {result.row}")
        (workload,) = workloads
        (report,) = reports
        records.append(
            {
                "app": name,
                "package": app.package,
                "fields": app_fields(workload, result.row, report),
            }
        )
        if progress and (index + 1) % 50 == 0:
            print(f"  {index + 1} apps digested", file=sys.stderr)
    return records


def first_difference(
    want: Sequence[dict], got: Sequence[dict]
) -> Optional[Tuple[str, str]]:
    """``(app, field)`` of the first output that differs, else None."""
    for expected, actual in zip(want, got):
        if expected["app"] != actual["app"] or expected["package"] != actual["package"]:
            return expected["app"], "package"
        for field in FIELDS:
            if expected["fields"].get(field) != actual["fields"].get(field):
                return expected["app"], field
    if len(want) != len(got):
        return f"app #{min(len(want), len(got))}", "app count"
    return None


# -- command line --------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    record = sub.add_parser("record", help="write the digest file")
    record.add_argument("--reason", required=True, help="why the outputs moved")
    record.add_argument("--out", type=Path, default=DEFAULT_DIGESTS)
    check = sub.add_parser("check", help="compare against the digest file")
    check.add_argument("--digests", type=Path, default=DEFAULT_DIGESTS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if args.command == "check" and not args.digests.is_file():
        print(f"error: no digest file at {args.digests}", file=sys.stderr)
        return 2
    records = compute(progress=True)
    elapsed = time.perf_counter() - start
    if args.command == "record":
        document = {
            "schema": DIGEST_SCHEMA,
            "reason": args.reason,
            "fields": list(FIELDS),
            "apps": records,
        }
        args.out.write_text(json.dumps(document, indent=1) + "\n")
        print(f"recorded {len(records)} apps to {args.out} in {elapsed:.1f} s")
        return 0

    document = json.loads(args.digests.read_text())
    if document.get("schema") != DIGEST_SCHEMA:
        print(
            f"error: {args.digests} has digest schema {document.get('schema')}, "
            f"this tool writes {DIGEST_SCHEMA}: re-record it",
            file=sys.stderr,
        )
        return 2
    difference = first_difference(document["apps"], records)
    if difference is not None:
        app, field = difference
        print(f"DIGEST MISMATCH: app {app}, field {field}")
        return 1
    print(f"{len(records)} apps, {len(FIELDS)} outputs each: identical ({elapsed:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
