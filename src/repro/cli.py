"""``gdroid`` command-line interface.

Subcommands::

    gdroid generate  --seed 7 --out app.gdx [--scale 1.0]
    gdroid analyze   app.gdx [--config plain|mat|mat-grp|full] [--all]
    gdroid vet       app.gdx [--rules PACK] [--baseline OLD.gdx]
    gdroid packs     [--validate] [--scan --html report.html]
    gdroid corpus    --apps 20 [--scale 1.0]      # Table I statistics
    gdroid bench     --apps 12 [--scale 1.0] [--rules PACK]
    gdroid stats     --apps 8  [--scale 1.0]      # run-ledger profile
    gdroid serve     --soak --apps 24 --inject worker-crash,oom
    gdroid serve     --pool process --journal j.jsonl --state-dir st/
    gdroid serve     --watch inbox/ [--watch-idle-s 5]
    gdroid serve     --recover --journal j.jsonl --state-dir st/
    gdroid submit    app.gdx [more.gdx ...] --json

All times are *modeled* seconds on the simulated Tesla P40 / Xeon
hosts; see DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile, generate_app
from repro.apk.loader import load_gdx, save_gdx
from repro.core.config import GDroidConfig
from repro.core.engine import AppWorkload, GDroid
from repro.cpu.multicore import MulticoreWorklist
from repro.vetting.report import vet_workload

_CONFIGS = {
    "plain": GDroidConfig.plain,
    "mat": GDroidConfig.mat_only,
    "mat-grp": GDroidConfig.mat_grp,
    "full": GDroidConfig.all_optimizations,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdroid",
        description="GDroid reproduction: GPU-accelerated Android static "
        "data-flow analysis (IPDPS 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic app")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("--out", required=True, help="output .gdx path")
    generate.add_argument(
        "--icc-scenario", default=None, metavar="KIND",
        choices=["constant-target", "dynamic-target", "linked-leak"],
        help="generate an ICC-resolution ground-truth app instead of a "
        "corpus one: constant-target (exact, inert receiver), "
        "dynamic-target (unresolvable) or linked-leak (source in one "
        "component, sink in another)",
    )
    generate.add_argument(
        "--mutate-from", default=None, metavar="BASE.gdx",
        help="instead of generating from scratch, load BASE.gdx and "
        "mutate K method bodies (a realistic version bump for "
        "incremental re-vetting); --seed/--scale are ignored",
    )
    generate.add_argument(
        "--mutate-methods", type=int, default=1, metavar="K",
        help="with --mutate-from, how many method bodies to touch",
    )
    generate.add_argument(
        "--mutate-seed", type=int, default=0, metavar="N",
        help="with --mutate-from, the deterministic mutation seed",
    )

    analyze = sub.add_parser("analyze", help="build an app's IDFG")
    analyze.add_argument("app", help="input .gdx path")
    analyze.add_argument(
        "--config", choices=sorted(_CONFIGS), default="full"
    )
    analyze.add_argument(
        "--all", action="store_true", help="price every configuration"
    )
    analyze.add_argument(
        "--timeline",
        default=None,
        help="write a chrome://tracing JSON of the kernel schedule",
    )

    vet = sub.add_parser("vet", help="security-vet an app")
    vet.add_argument("app", help="input .gdx path")
    vet.add_argument(
        "--targets", default=None, metavar="SINK[,SINK...]",
        help="demand-driven vetting: only analyze flows into these sink "
        "signatures or categories (e.g. SMS,NETWORK); apps calling none "
        "of them are served clean from a bytecode pre-scan alone",
    )
    vet.add_argument(
        "--targets-file", default=None, metavar="PATH",
        help="read targeted sinks from a file (one per line, # comments)",
    )
    vet.add_argument(
        "--rules", default=None, metavar="PACK",
        help="vet under a rule pack (shipped name, 'default', or a "
        ".json/.toml path): sanitizer-aware taint + graded findings",
    )
    vet.add_argument(
        "--findings-json", default=None, metavar="PATH",
        help="with --rules, write the schema-versioned findings JSON",
    )
    vet.add_argument(
        "--findings-html", default=None, metavar="PATH",
        help="with --rules, write a self-contained HTML findings report",
    )
    vet.add_argument(
        "--resolve-icc",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resolve ICC send targets via interprocedural string-"
        "constant propagation and stitch taint across exactly-resolved "
        "in-app edges (default: on; --no-resolve-icc restores the "
        "kind-wide receiver over-approximation)",
    )
    vet.add_argument(
        "--baseline", default=None, metavar="OLD.gdx",
        help="incremental re-vet: seed the per-method summary store "
        "from this previous version, print the method-level diff, and "
        "recompute only dirty SCCs (bit-identical to a cold vet)",
    )

    packs = sub.add_parser(
        "packs", help="list, validate and gate-check rule packs"
    )
    packs.add_argument(
        "names", nargs="*",
        help="pack names/paths (default: every shipped pack)",
    )
    packs.add_argument(
        "--validate", action="store_true",
        help="load + schema-validate the packs and print their rules",
    )
    packs.add_argument(
        "--scan", action="store_true",
        help="run each pack's seeded scenario gate (100%% recall, zero "
        "false positives); exit non-zero on any gate failure",
    )
    packs.add_argument(
        "--html", default=None, metavar="PATH",
        help="with --scan, write the corpus gate report as HTML",
    )
    packs.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable output",
    )

    lint = sub.add_parser(
        "lint", help="statically verify app IR before analysis"
    )
    lint.add_argument("apps", nargs="*", help="input .gdx paths")
    lint.add_argument(
        "--corpus", type=int, default=0, metavar="N",
        help="also lint the first N generated corpus apps",
    )
    lint.add_argument(
        "--scale", type=float, default=1.0, help="corpus generator scale"
    )
    lint.add_argument(
        "--seed", type=int, default=2020, help="corpus base seed"
    )
    lint.add_argument(
        "--json", action="store_true", dest="as_json",
        help="machine-readable report (stable ordering, sorted keys)",
    )

    corpus = sub.add_parser("corpus", help="corpus statistics (Table I)")
    corpus.add_argument("--apps", type=int, default=20)
    corpus.add_argument("--scale", type=float, default=1.0)

    bench = sub.add_parser("bench", help="headline figure rows")
    bench.add_argument("--apps", type=int, default=12)
    bench.add_argument("--scale", type=float, default=1.0)
    bench.add_argument(
        "--jobs", type=int, default=None,
        help="evaluate apps across N worker processes "
        "(default: REPRO_BENCH_JOBS or 1)",
    )
    bench.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not update the on-disk evaluation cache",
    )
    bench.add_argument(
        "--strict", action="store_true",
        help="lint-gate every app; malformed apps become LintError rows",
    )
    bench.add_argument(
        "--profile", metavar="PREFIX", default=None,
        help="trace the run; writes PREFIX.trace.json (chrome://tracing "
        "/ Perfetto) and PREFIX.ledger.json (run-ledger stages/counters)",
    )
    bench.add_argument(
        "--rules", metavar="PACK", default=None,
        help="vet every app under a rule pack; rows carry per-severity "
        "finding counts and cache rows are keyed by the pack fingerprint",
    )

    stats = sub.add_parser(
        "stats", help="profile a corpus sweep and print its run ledger"
    )
    stats.add_argument("--apps", type=int, default=8)
    stats.add_argument("--scale", type=float, default=1.0)
    stats.add_argument(
        "--jobs", type=int, default=None,
        help="evaluate apps across N worker processes",
    )
    stats.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not update the on-disk evaluation cache",
    )
    stats.add_argument(
        "--strict", action="store_true",
        help="lint-gate every app (cached rows are re-verified)",
    )
    stats.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full run-ledger JSON instead of the summary",
    )
    stats.add_argument(
        "--profile", metavar="PREFIX", default=None,
        help="also write PREFIX.trace.json and PREFIX.ledger.json",
    )
    stats.add_argument(
        "--ledger", metavar="FILE", default=None,
        help="render an existing run-ledger JSON instead of sweeping",
    )

    serve = sub.add_parser(
        "serve", help="run the async sharded vetting service over a corpus"
    )
    serve.add_argument("--apps", type=int, default=24)
    serve.add_argument("--scale", type=float, default=1.0)
    serve.add_argument(
        "--workers", type=int, default=4, help="simulated device workers"
    )
    serve.add_argument(
        "--soak", action="store_true",
        help="soak mode: exit non-zero unless zero jobs were lost or "
        "duplicated (fault-injection endurance run)",
    )
    serve.add_argument(
        "--inject", default="", metavar="KINDS",
        help="comma-separated fault kinds to inject "
        "(worker-crash, oom, corrupt-apk, stall)",
    )
    serve.add_argument(
        "--fault-seed", type=int, default=2020,
        help="seed of the deterministic fault schedule",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=32,
        help="admission window (pending jobs before backpressure)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=4,
        help="processing attempts per job before it fails",
    )
    serve.add_argument(
        "--timeout-s", type=float, default=None,
        help="per-job wall-clock timeout (default: none)",
    )
    serve.add_argument(
        "--strict", action="store_true",
        help="lint-gate every app (rejections become structured rows)",
    )
    serve.add_argument(
        "--targets", default=None, metavar="SINK[,SINK...]",
        help="serve some jobs demand-driven: pre-scan + backward slice "
        "restricted to these sink signatures or categories",
    )
    serve.add_argument(
        "--targets-every", type=int, default=1, metavar="N",
        help="with --targets, make every N-th job targeted and the rest "
        "full vets (default 1: all targeted)",
    )
    serve.add_argument(
        "--rules", default=None, metavar="PACK",
        help="vet every job under this rule pack (workers resolve and "
        "cache the pack by name)",
    )
    serve.add_argument(
        "--resolve-icc",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resolve ICC send targets and stitch linked leaks when "
        "vetting jobs (default: on)",
    )
    serve.add_argument(
        "--baseline", default=None, metavar="REF",
        help="re-vet every job incrementally: 'corpus' seeds the "
        "summary store from each job's own container (resubmission), "
        "any other value is a prior-version .gdx path",
    )
    serve.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print the full JSON job records instead of the summary",
    )
    serve.add_argument(
        "--profile", metavar="PREFIX", default=None,
        help="trace the run; writes PREFIX.trace.json and "
        "PREFIX.ledger.json with every retry/fallback counter",
    )
    serve.add_argument(
        "--pool", choices=("async", "process"), default="async",
        help="worker execution: in-process simulated devices (async) "
        "or real OS worker processes (process)",
    )
    serve.add_argument(
        "--start-method", default=None,
        choices=("fork", "spawn", "forkserver"),
        help="multiprocessing start method for --pool process "
        "(default: platform choice, fork where available)",
    )
    serve.add_argument(
        "--journal", metavar="FILE", default=None,
        help="append-only job journal; with --recover, the journal a "
        "crashed run is resumed from",
    )
    serve.add_argument(
        "--journal-fsync", action="store_true",
        help="fsync the journal after every record (power-loss "
        "durability; default is process-crash durability only)",
    )
    serve.add_argument(
        "--state-dir", metavar="DIR", default=None,
        help="partitioned result-store root (worker result channel in "
        "process mode; persisted rows for recovery in async mode)",
    )
    serve.add_argument(
        "--recover", action="store_true",
        help="replay --journal: stitch in journaled-terminal jobs "
        "(rows reloaded from --state-dir) and re-serve the rest",
    )
    serve.add_argument(
        "--crash-after", type=int, default=None, metavar="N",
        help="simulate orchestrator death after N terminal jobs "
        "(exit 3; recover with --recover)",
    )
    serve.add_argument(
        "--watch", metavar="DIR|-", default=None,
        help="streaming admission: poll DIR for arriving .gdx files "
        "('-' reads paths from stdin); ends on a STOP file or "
        "--watch-idle-s of quiet",
    )
    serve.add_argument(
        "--watch-idle-s", type=float, default=5.0,
        help="with --watch DIR, exit after this long with no arrivals",
    )

    submit = sub.add_parser(
        "submit", help="submit .gdx files to an inline vetting service"
    )
    submit.add_argument("apps", nargs="+", help="input .gdx paths")
    submit.add_argument("--workers", type=int, default=2)
    submit.add_argument("--max-attempts", type=int, default=4)
    submit.add_argument(
        "--json", action="store_true", dest="as_json",
        help="print JSON job records instead of one line per job",
    )
    submit.add_argument(
        "--baseline", default=None, metavar="REF",
        help="re-vet incrementally: 'corpus' treats each file as a "
        "resubmission of itself, any other value is a prior-version "
        ".gdx path",
    )

    report = sub.add_parser(
        "report", help="aggregate persisted benchmark results to markdown"
    )
    report.add_argument(
        "--results", default="benchmarks/results", help="results directory"
    )
    report.add_argument("--out", default=None, help="write to file instead of stdout")
    report.add_argument(
        "--apps", type=int, default=0,
        help="also evaluate a fresh corpus slice for the headline summary",
    )

    tune = sub.add_parser("tune", help="auto-tune execution parameters")
    tune.add_argument("app", help="input .gdx path")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    if getattr(args, "mutate_from", None):
        from repro.apk.diff import BaselineError, load_baseline
        from repro.apk.generator import mutate_app

        try:
            base = load_baseline(args.mutate_from)
        except BaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        app, touched = mutate_app(
            base, seed=args.mutate_seed, count=args.mutate_methods
        )
        nbytes = save_gdx(app, args.out)
        print(
            f"wrote {args.out}: {app.package}, mutated "
            f"{len(touched)}/{app.method_count()} methods, {nbytes} bytes"
        )
        for signature in touched:
            print(f"  touched {signature}")
        return 0
    if getattr(args, "icc_scenario", None):
        from repro.apk.generator import icc_scenario_profile

        profile = icc_scenario_profile(args.icc_scenario, scale=args.scale)
    else:
        profile = GeneratorProfile(scale=args.scale)
    app = generate_app(args.seed, profile)
    nbytes = save_gdx(app, args.out)
    print(
        f"wrote {args.out}: {app.package}, {app.method_count()} methods, "
        f"{app.statement_count()} statements, {nbytes} bytes"
    )
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    app = load_gdx(args.app)
    workload = AppWorkload.build(app)
    names = sorted(_CONFIGS) if args.all else [args.config]
    print(
        f"{app.package}: IDFG {workload.idfg.node_count()} nodes, "
        f"{workload.idfg.total_fact_count()} facts"
    )
    last_result = None
    for name in names:
        last_result = GDroid(_CONFIGS[name]()).price(workload)
        print(
            f"  {name:8s} {last_result.modeled_time_s * 1e3:10.3f} ms  "
            f"mem {last_result.memory_bytes / 1e6:7.2f} MB  "
            f"iters {last_result.iterations}"
        )
    cpu = MulticoreWorklist().analyze(workload)
    print(f"  {'cpu':8s} {cpu.modeled_time_s * 1e3:10.3f} ms  (10-core host)")
    if args.timeline and last_result is not None:
        from repro.gpu.timeline import export_chrome_trace

        count = export_chrome_trace(last_result.kernels, args.timeline)
        print(f"  wrote {args.timeline} ({count} trace events)")
    return 0


def _parse_targets(args: argparse.Namespace):
    """Resolve --targets / --targets-file into a TargetSpec (or None)."""
    from repro.vetting.targeted import TargetSpec, TargetSpecError

    if getattr(args, "targets", None) and getattr(args, "targets_file", None):
        raise TargetSpecError("pass --targets or --targets-file, not both")
    if getattr(args, "targets", None):
        return TargetSpec.parse(args.targets)
    if getattr(args, "targets_file", None):
        return TargetSpec.from_file(args.targets_file)
    return None


def _render_findings(report, rules, args: argparse.Namespace) -> None:
    """Print graded findings and write the optional JSON/HTML artifacts."""
    from repro.rules import findings_to_json, render_findings_page

    if report.findings:
        print(f"findings under pack {rules.name!r}:")
        for finding in report.findings:
            print(
                f"  [{finding.severity:>8s}] {finding.rule_id} "
                f"({finding.confidence:.2f}) {finding.message} "
                f"@ {finding.method}:{finding.sink_label}"
            )
    else:
        print(f"no findings under pack {rules.name!r}")
    if report.sanitizer_kills:
        print(f"  {len(report.sanitizer_kills)} sanitizer kill(s) recorded")
    package = report.findings[0].package if report.findings else args.app
    if args.findings_json:
        Path(args.findings_json).write_text(
            findings_to_json(
                report.findings, rules.name, rules.fingerprint()
            )
        )
        print(f"wrote {args.findings_json}")
    if args.findings_html:
        Path(args.findings_html).write_text(
            render_findings_page(package, rules.name, report.findings)
        )
        print(f"wrote {args.findings_html}")


def _cmd_vet(args: argparse.Namespace) -> int:
    from repro.bench.harness import check_options

    try:
        spec = _parse_targets(args)
        check_options(spec, args.baseline)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    rules = None
    if args.rules:
        from repro.rules import PackError, load_pack

        try:
            rules = load_pack(args.rules)
        except PackError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if args.baseline:
        from repro.apk.diff import BaselineError, diff_apps, load_baseline
        from repro.bench.cache import EvaluationCache
        from repro.dataflow.incremental import vet_incremental

        try:
            baseline_app = load_baseline(args.baseline)
        except BaselineError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        app = load_gdx(args.app)
        print(diff_apps(baseline_app, app).summary())
        report, stats = vet_incremental(
            app,
            baseline_app,
            EvaluationCache().summary_store(),
            rules=rules,
            resolve_icc=args.resolve_icc,
        )
        print(stats.summary())
        print(report.summary())
        if rules is not None:
            _render_findings(report, rules, args)
        return 0 if not report.is_suspicious else 2
    app = load_gdx(args.app)
    if spec is not None:
        from repro.vetting.targeted import vet_targeted

        report, stats = vet_targeted(app, spec, rules=rules)
        print(
            f"targeted vet [{spec.describe()}]: {stats.anchors} anchor(s), "
            f"slice {stats.slice_methods}/{stats.full_methods} methods"
            + (" (IDFG skipped)" if stats.skipped_idfg else "")
        )
        print(report.summary())
        if rules is not None:
            _render_findings(report, rules, args)
        return 0 if not report.is_suspicious else 2
    workload = AppWorkload.build(app)
    result = GDroid(GDroidConfig.all_optimizations()).price(workload)
    report = vet_workload(
        app,
        workload,
        analysis_time_s=result.modeled_time_s,
        rules=rules,
        resolve_icc=args.resolve_icc,
    )
    print(report.summary())
    if rules is not None:
        _render_findings(report, rules, args)
    return 0 if not report.is_suspicious else 2


def _cmd_packs(args: argparse.Namespace) -> int:
    import json

    from repro.rules import (
        PackError,
        evaluate_pack,
        load_pack,
        render_corpus_page,
        scenario_corpus,
        shipped_packs,
    )

    names = list(args.names) or list(shipped_packs())
    packs = []
    for name in names:
        try:
            packs.append(load_pack(name))
        except PackError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    if not args.scan:
        # List / validate mode (loading *is* the schema validation).
        if args.as_json:
            print(
                json.dumps(
                    [pack.to_dict() for pack in packs],
                    sort_keys=True,
                    indent=2,
                )
            )
            return 0
        for pack in packs:
            rules = (
                len(pack.taint_rules)
                + len(pack.icc_rules)
                + len(pack.lint_rules)
            )
            print(
                f"{pack.name} v{pack.version} [{pack.fingerprint()}]: "
                f"{len(pack.apis)} APIs, {rules} rules"
                + (" -- valid" if args.validate else "")
            )
            if args.validate:
                for rule in pack.taint_rules:
                    print(
                        f"  taint {rule.id} [{rule.severity}] "
                        f"{','.join(rule.sources)} -> {','.join(rule.sinks)}"
                    )
                for rule in pack.icc_rules:
                    exported = "exported" if rule.exported_only else "any"
                    print(
                        f"  icc   {rule.id} [{rule.severity}] "
                        f"-> {','.join(rule.targets)} ({exported})"
                    )
                for rule in pack.lint_rules:
                    print(f"  lint  {rule.id} [{rule.severity}]")
        return 0

    reports = []
    for pack in packs:
        try:
            scenarios = scenario_corpus(pack)
        except PackError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        reports.append(evaluate_pack(pack, scenarios))
    if args.as_json:
        print(
            json.dumps(
                [report.to_dict() for report in reports],
                sort_keys=True,
                indent=2,
            )
        )
    else:
        for report in reports:
            print(report.summary())
    if args.html:
        Path(args.html).write_text(render_corpus_page(reports))
        print(f"wrote {args.html}")
    return 0 if all(report.passed for report in reports) else 1


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from repro.lint import JSON_SCHEMA_VERSION, run_lint

    targets = []
    for path in args.apps:
        try:
            targets.append((path, load_gdx(path)))
        except (OSError, ValueError) as error:
            print(f"error: {path}: {error}", file=sys.stderr)
            return 2
    if args.corpus:
        profile = GeneratorProfile(scale=args.scale)
        for index in range(args.corpus):
            app = generate_app(args.seed + index, profile)
            targets.append((app.package, app))
    if not targets:
        print(
            "error: nothing to lint (pass .gdx paths or --corpus N)",
            file=sys.stderr,
        )
        return 2
    reports = [run_lint(app) for _, app in targets]
    if args.as_json:
        payload = {
            "schema": JSON_SCHEMA_VERSION,
            "apps": [report.to_json() for report in reports],
        }
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for report in reports:
            print(report.render())
    return 0 if all(report.is_clean for report in reports) else 1


def _cmd_corpus(args: argparse.Namespace) -> int:
    corpus = AppCorpus(
        size=args.apps, profile=GeneratorProfile(scale=args.scale)
    )
    stats = corpus.stats()
    print(f"corpus of {stats.apps} apps (paper Table I in parentheses):")
    for key, paper in (
        ("no. of CFG Nodes", 6217),
        ("no. of Methods", 268),
        ("no. of Variable", 116),
    ):
        print(f"  {key:20s} {stats.as_table1()[key]:8.0f}  ({paper})")
    print("  categories:", dict(sorted(stats.categories.items())))
    return 0


def _write_profile(tracer, prefix: str, run_stats) -> bool:
    """Export a finished tracer as Chrome-trace + run-ledger JSON.

    Returns False (after an error message, not a traceback) when the
    profile destination is unwritable; the caller decides the exit
    code so the run's own output still lands first.
    """
    from repro.obs.export import export_chrome_trace, export_run_ledger

    trace_path = f"{prefix}.trace.json"
    ledger_path = f"{prefix}.ledger.json"
    try:
        events = export_chrome_trace(tracer, trace_path)
        ledger = export_run_ledger(tracer, ledger_path, run_stats=run_stats)
    except OSError as error:
        print(f"error: cannot write profile: {error}", file=sys.stderr)
        return False
    print(
        f"wrote {trace_path} ({events} trace events), "
        f"{ledger_path} ({ledger['span_count']} spans)"
    )
    return True


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.bench.harness import evaluate_corpus, last_run_stats

    corpus = AppCorpus(
        size=args.apps, profile=GeneratorProfile(scale=args.scale)
    )
    rules = None
    if args.rules:
        from repro.rules import PackError, load_pack

        try:
            rules = load_pack(args.rules)
        except PackError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    tracer = obs.Tracer() if args.profile else None
    if tracer is not None:
        obs.activate(tracer)
    try:
        all_rows = evaluate_corpus(
            corpus, jobs=args.jobs, no_cache=args.no_cache,
            strict=args.strict, rules=rules,
        )
    finally:
        if tracer is not None:
            obs.deactivate()
    stats = last_run_stats()
    if stats is not None:
        print(stats.summary())
    if rules is not None:
        from repro.bench.harness import AppEvaluation
        from repro.rules.findings import SEVERITIES

        totals = [0] * len(SEVERITIES)
        for row in all_rows:
            if isinstance(row, AppEvaluation):
                for slot, count in enumerate(row.finding_counts):
                    totals[slot] += count
        graded = ", ".join(
            f"{count} {name}"
            for name, count in zip(SEVERITIES, totals)
            if count
        )
        print(
            f"findings [{rules.name} {rules.fingerprint()}]: "
            f"{sum(totals)} total{': ' + graded if graded else ''}"
        )
    if tracer is not None and not _write_profile(tracer, args.profile, stats):
        return 1
    from repro.bench.harness import AppEvaluation

    rows = [r for r in all_rows if isinstance(r, AppEvaluation)]
    rejected = [r for r in all_rows if not isinstance(r, AppEvaluation)]
    for row in rejected:
        print(f"  lint-rejected app {row.index} ({row.package}): {row.message}")
    if not rows:
        print("no apps survived the lint gate")
        return 1
    mean = statistics.mean
    print(f"headline rows over {len(rows)} apps (paper in parentheses):")
    print(f"  plain GPU vs CPU     {mean(r.plain_vs_cpu for r in rows):6.2f}x  (1.81x)")
    print(f"  MAT vs plain         {mean(r.mat_speedup for r in rows):6.1f}x  (26.7x)")
    print(f"  GRP over MAT         {mean(r.grp_speedup for r in rows):6.2f}x  (~1.43x)")
    print(f"  MER over MAT+GRP     {mean(r.mer_speedup for r in rows):6.2f}x  (1.94x)")
    print(f"  GDroid vs plain      {mean(r.gdroid_speedup for r in rows):6.1f}x  (71.3x)")
    print(f"  memory matrix/set    {mean(r.memory_ratio for r in rows):6.2f}   (0.25)")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.bench.harness import evaluate_corpus, last_run_stats
    from repro.obs.export import render_ledger, run_ledger

    if args.ledger is not None:
        # Offline mode: render a previously exported run ledger.
        try:
            document = json.loads(Path(args.ledger).read_text())
        except OSError as error:
            print(f"error: {args.ledger}: {error}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as error:
            print(
                f"error: {args.ledger}: corrupt ledger JSON ({error})",
                file=sys.stderr,
            )
            return 2
        try:
            rendered = (
                json.dumps(document, sort_keys=True, indent=2)
                if args.as_json
                else render_ledger(document)
            )
        except (KeyError, TypeError, AttributeError):
            print(
                f"error: {args.ledger}: not a run-ledger document "
                "(missing stages/spans/counters)",
                file=sys.stderr,
            )
            return 2
        print(rendered)
        return 0

    corpus = AppCorpus(
        size=args.apps, profile=GeneratorProfile(scale=args.scale)
    )
    with obs.tracing() as tracer:
        evaluate_corpus(
            corpus, jobs=args.jobs, no_cache=args.no_cache, strict=args.strict
        )
    stats = last_run_stats()
    ledger = run_ledger(tracer, run_stats=stats)
    if args.as_json:
        print(json.dumps(ledger, sort_keys=True, indent=2))
    else:
        if stats is not None:
            print(stats.summary())
        print(render_ledger(ledger))
    if args.profile and not _write_profile(tracer, args.profile, stats):
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.bench.harness import check_options
    from repro.serve import (
        CorpusSource,
        DirectoryFeed,
        ServeConfig,
        ServiceCrash,
        StdinFeed,
        parse_inject,
        recover,
        run_soak,
        serve_stream,
    )

    try:
        inject = parse_inject(args.inject)
        targets = _parse_targets(args)
        check_options(targets, args.baseline)
        if args.watch and targets is not None:
            raise ValueError(
                "--watch takes no --targets: path-fed jobs are always "
                "full vets"
            )
        if args.rules:
            # Fail fast on an unknown pack instead of per-job in workers.
            from repro.rules import load_pack

            load_pack(args.rules)
        if args.recover and not args.journal:
            raise ValueError("--recover needs --journal FILE")
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    config = ServeConfig(
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        max_attempts=args.max_attempts,
        timeout_s=args.timeout_s,
        strict=args.strict,
        pool=args.pool,
        start_method=args.start_method,
        journal_path=args.journal,
        journal_fsync=args.journal_fsync,
        state_dir=args.state_dir,
        crash_after=args.crash_after,
    )
    corpus = AppCorpus(
        size=args.apps, profile=GeneratorProfile(scale=args.scale)
    )
    tracer = obs.Tracer() if args.profile else None
    if tracer is not None:
        obs.activate(tracer)
    try:
        if args.watch:
            options = dict(
                rules=args.rules,
                resolve_icc=args.resolve_icc,
                baseline=args.baseline,
            )
            feed = (
                StdinFeed(**options)
                if args.watch == "-"
                else DirectoryFeed(
                    args.watch, idle_s=args.watch_idle_s, **options
                )
            )
            report = serve_stream(feed, config=config)
        elif args.recover:
            # Recovery runs clean: the dead run's faults already
            # happened and are journaled; re-injecting would re-fail
            # already-failed jobs differently.
            report = recover(CorpusSource(corpus), config)
        else:
            report = run_soak(
                corpus,
                config=config,
                inject=inject,
                fault_seed=args.fault_seed,
                targets=targets,
                targeted_every=args.targets_every,
                rules=args.rules,
                resolve_icc=args.resolve_icc,
                baseline=args.baseline,
            )
    except ServiceCrash as error:
        print(f"service crashed: {error}", file=sys.stderr)
        return 3
    finally:
        if tracer is not None:
            obs.deactivate()
    if args.as_json:
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        print(report.summary())
    if tracer is not None and not _write_profile(tracer, args.profile, None):
        return 1
    if args.soak and not report.ok:
        print(
            f"error: soak failed: {report.lost} lost, "
            f"{report.duplicates} duplicated jobs",
            file=sys.stderr,
        )
        return 1
    return 0 if report.ok else 1


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ServeConfig, submit_paths

    config = ServeConfig(
        workers=args.workers, max_attempts=args.max_attempts
    )
    report = submit_paths(args.apps, config=config, baseline=args.baseline)
    if args.as_json:
        print(json.dumps(report.to_json(), sort_keys=True, indent=2))
    else:
        for job in report.jobs:
            verdict = job.verdict or "-"
            detail = (
                f"risk {job.risk_score}/10"
                if job.risk_score is not None
                else (job.error or "no result")
            )
            print(
                f"{job.job_id}  {job.package:24s} {job.state:8s} "
                f"{verdict:16s} {detail} "
                f"[{job.engine or '-'}, {job.attempts} attempts]"
            )
    return 0 if report.ok and report.failed == 0 else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.bench.report import render_markdown_report

    rows = None
    if args.apps:
        from repro.bench.harness import evaluate_corpus

        corpus = AppCorpus(size=args.apps)
        rows = evaluate_corpus(corpus)
    text = render_markdown_report(Path(args.results), rows)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(text)} chars)")
    else:
        print(text)
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from repro.core.autotune import AutoTuner

    app = load_gdx(args.app)
    result = AutoTuner().tune(app)
    print(f"{app.package}: swept {len(result.samples)} candidates")
    for sample in sorted(result.samples, key=lambda s: s.modeled_time_s)[:5]:
        print(
            f"  methods/block={sample.methods_per_block} "
            f"blocks/SM={sample.blocks_per_sm}: "
            f"{sample.modeled_time_s * 1e3:8.3f} ms"
        )
    print(
        f"optimum: {result.best.methods_per_block} methods/block, "
        f"{result.best.blocks_per_sm} blocks/SM"
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "analyze": _cmd_analyze,
        "vet": _cmd_vet,
        "packs": _cmd_packs,
        "lint": _cmd_lint,
        "corpus": _cmd_corpus,
        "bench": _cmd_bench,
        "stats": _cmd_stats,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "report": _cmd_report,
        "tune": _cmd_tune,
    }[args.command]
    try:
        return handler(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an
        # error worth a traceback.  Detach stdout so the interpreter's
        # shutdown flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
