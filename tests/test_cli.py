"""CLI smoke tests (argument wiring and output shape)."""

import pytest

from repro.apk.loader import save_gdx
from repro.cli import main
from tests.conftest import tiny_app


@pytest.fixture
def gdx_path(tmp_path):
    path = tmp_path / "app.gdx"
    save_gdx(tiny_app(0), path)
    return str(path)


def test_generate(tmp_path, capsys):
    out = str(tmp_path / "generated.gdx")
    assert main(["generate", "--seed", "3", "--scale", "0.06", "--out", out]) == 0
    captured = capsys.readouterr().out
    assert "wrote" in captured and "methods" in captured


def test_analyze_single_config(gdx_path, capsys):
    assert main(["analyze", gdx_path, "--config", "mat"]) == 0
    captured = capsys.readouterr().out
    assert "mat" in captured and "IDFG" in captured


def test_analyze_all_configs(gdx_path, capsys):
    assert main(["analyze", gdx_path, "--all"]) == 0
    captured = capsys.readouterr().out
    for name in ("plain", "mat", "mat-grp", "full", "cpu"):
        assert name in captured


def test_vet_exit_codes(gdx_path, capsys, tmp_path):
    code = main(["vet", gdx_path])
    captured = capsys.readouterr().out
    assert "verdict" in captured
    assert code in (0, 2)

    # A known-leaky app must exit 2.
    from repro.ir.parser import parse_app
    from tests.conftest import LEAKY_APP_SOURCE

    leaky = tmp_path / "leaky.gdx"
    save_gdx(parse_app(LEAKY_APP_SOURCE), leaky)
    assert main(["vet", str(leaky)]) == 2


def test_corpus_stats(capsys):
    assert main(["corpus", "--apps", "3", "--scale", "0.06"]) == 0
    captured = capsys.readouterr().out
    assert "no. of CFG Nodes" in captured


def test_bench_rows(capsys):
    assert main(["bench", "--apps", "2", "--scale", "0.06"]) == 0
    captured = capsys.readouterr().out
    assert "MAT vs plain" in captured
    assert "GDroid vs plain" in captured


def test_analyze_timeline_export(gdx_path, tmp_path, capsys):
    out = tmp_path / "trace.json"
    assert main(["analyze", gdx_path, "--config", "full", "--timeline", str(out)]) == 0
    import json

    document = json.loads(out.read_text())
    assert document["traceEvents"]


def test_tune(gdx_path, capsys):
    assert main(["tune", gdx_path]) == 0
    captured = capsys.readouterr().out
    assert "optimum" in captured


# -- unreadable containers ------------------------------------------------------

#: Each command that reads a ``.gdx``, given the bad file and a good one.
BAD_INPUT_COMMANDS = {
    "analyze": lambda bad, good: ["analyze", bad],
    "lint": lambda bad, good: ["lint", good, bad],
    "tune": lambda bad, good: ["tune", bad],
    "vet": lambda bad, good: ["vet", bad],
    "vet-targets": lambda bad, good: ["vet", bad, "--targets", "SMS"],
    "vet-new-version": lambda bad, good: ["vet", bad, "--baseline", good],
    "vet-baseline": lambda bad, good: ["vet", good, "--baseline", bad],
}

#: How each bad file is made from a good container, and the reason the
#: error line must give.
BAD_CONTAINERS = {
    "bad-magic": (lambda blob: b"NOPE" + blob[4:], "bad magic"),
    "gdx2": (lambda blob: b"GDX2" + blob[4:], "bad magic"),
    "truncated": (lambda blob: blob[: len(blob) // 2], "truncated"),
    "missing": (None, "No such file"),
}


@pytest.mark.parametrize("case", sorted(BAD_CONTAINERS))
@pytest.mark.parametrize("command", sorted(BAD_INPUT_COMMANDS))
def test_bad_container_is_rejected_the_same_way(
    command, case, gdx_path, tmp_path, capsys, monkeypatch
):
    """``error: PATH: message`` and exit 2, never a traceback.  The
    error line is checked too: a leaky verdict also exits 2."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    bad = tmp_path / f"{case}.gdx"
    corrupt, reason = BAD_CONTAINERS[case]
    if corrupt is not None:
        with open(gdx_path, "rb") as handle:
            bad.write_bytes(corrupt(handle.read()))
    assert main(BAD_INPUT_COMMANDS[command](str(bad), gdx_path)) == 2
    line = capsys.readouterr().err.strip().splitlines()[-1]
    assert line.startswith("error: ") and f"{bad}: " in line
    assert reason in line


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


# -- stats/bench error paths ---------------------------------------------------


def test_stats_ledger_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.ledger.json"
    assert main(["stats", "--ledger", str(missing)]) == 2
    assert "error" in capsys.readouterr().err


def test_stats_ledger_corrupt_json(tmp_path, capsys):
    bad = tmp_path / "mangled.ledger.json"
    bad.write_text('{"stages": {,,')
    assert main(["stats", "--ledger", str(bad)]) == 2
    assert "corrupt ledger JSON" in capsys.readouterr().err


def test_stats_ledger_wrong_document_shape(tmp_path, capsys):
    wrong = tmp_path / "other.json"
    wrong.write_text('{"traceEvents": []}')
    assert main(["stats", "--ledger", str(wrong)]) == 2
    assert "not a run-ledger document" in capsys.readouterr().err


def test_stats_ledger_empty_trace_renders(tmp_path, capsys):
    """An exported-but-empty trace is valid input, not an error."""
    import json

    from repro.obs import Tracer
    from repro.obs.export import run_ledger

    empty = tmp_path / "empty.ledger.json"
    empty.write_text(json.dumps(run_ledger(Tracer())))
    assert main(["stats", "--ledger", str(empty)]) == 0
    assert "0 spans" in capsys.readouterr().out


def test_stats_ledger_offline_round_trip(tmp_path, capsys):
    """stats --profile export feeds straight back into stats --ledger."""
    prefix = str(tmp_path / "run")
    assert (
        main(["stats", "--apps", "2", "--scale", "0.06", "--profile", prefix])
        == 0
    )
    capsys.readouterr()
    assert main(["stats", "--ledger", f"{prefix}.ledger.json"]) == 0
    assert "run ledger" in capsys.readouterr().out


def test_bench_profile_unwritable_destination(tmp_path, capsys):
    prefix = str(tmp_path / "no" / "such" / "dir" / "run")
    code = main(
        ["bench", "--apps", "2", "--scale", "0.06", "--profile", prefix]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert "cannot write profile" in captured.err
    # The run's own summary still lands before the failure.
    assert "corpus run" in captured.out


def test_stats_profile_unwritable_destination(tmp_path, capsys):
    prefix = str(tmp_path / "absent" / "run")
    code = main(
        ["stats", "--apps", "2", "--scale", "0.06", "--profile", prefix]
    )
    assert code == 1
    assert "cannot write profile" in capsys.readouterr().err


# -- serve / submit ------------------------------------------------------------


def test_serve_soak_with_injection_and_profile(tmp_path, capsys):
    prefix = str(tmp_path / "soak")
    code = main(
        [
            "serve",
            "--soak",
            "--apps",
            "8",
            "--scale",
            "0.06",
            "--workers",
            "2",
            "--inject",
            "worker-crash,oom",
            "--profile",
            prefix,
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "soak" in captured and "0 lost" in captured
    import json

    ledger = json.loads((tmp_path / "soak.ledger.json").read_text())
    assert ledger["counters"]["serve.submitted"] == 8
    assert ledger["counters"]["serve.completed"] == 8
    assert (tmp_path / "soak.trace.json").exists()


def test_serve_rejects_unknown_fault_kind(capsys):
    code = main(["serve", "--apps", "2", "--inject", "frobnicate"])
    assert code == 2
    assert "unknown fault kind" in capsys.readouterr().err


def test_serve_json_output(capsys):
    code = main(
        ["serve", "--apps", "3", "--scale", "0.06", "--json"]
    )
    assert code == 0
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert len(payload["jobs"]) == 3


def test_serve_process_pool_crash_soak(tmp_path, capsys):
    code = main(
        [
            "serve", "--soak", "--apps", "6", "--scale", "0.06",
            "--workers", "2", "--pool", "process",
            "--inject", "worker-crash",
            "--journal", str(tmp_path / "journal.jsonl"),
            "--state-dir", str(tmp_path / "state"),
        ]
    )
    assert code == 0
    assert "0 lost" in capsys.readouterr().out
    assert (tmp_path / "journal.jsonl").exists()
    assert list((tmp_path / "state").glob("worker-*/*.json"))


def test_serve_crash_after_then_recover(tmp_path, capsys):
    journal = str(tmp_path / "journal.jsonl")
    state = str(tmp_path / "state")
    base = [
        "serve", "--apps", "6", "--scale", "0.06", "--workers", "2",
        "--pool", "process", "--journal", journal, "--state-dir", state,
    ]
    code = main(base + ["--crash-after", "2"])
    assert code == 3
    assert "service crashed" in capsys.readouterr().err
    code = main(base + ["--recover", "--soak"])
    assert code == 0
    assert "6 done" in capsys.readouterr().out


def test_serve_recover_requires_journal(capsys):
    code = main(["serve", "--apps", "2", "--recover"])
    assert code == 2
    assert "--recover needs --journal" in capsys.readouterr().err


def test_serve_watch_directory(tmp_path, capsys):
    inbox = tmp_path / "inbox"
    inbox.mkdir()
    for seed in (21, 22):
        save_gdx(tiny_app(seed), inbox / f"app-{seed}.gdx")
    (inbox / "STOP").touch()
    code = main(
        ["serve", "--watch", str(inbox), "--workers", "2", "--soak"]
    )
    assert code == 0
    assert "2 jobs" in capsys.readouterr().out


def test_submit_mixed_paths(gdx_path, tmp_path, capsys):
    bad = tmp_path / "bad.gdx"
    bad.write_bytes(b"junk")
    code = main(["submit", gdx_path, str(bad)])
    captured = capsys.readouterr().out
    assert code == 1  # one job failed structurally
    assert "done" in captured and "failed" in captured


def test_submit_clean_path_exits_zero(gdx_path, capsys):
    assert main(["submit", gdx_path]) == 0
    assert "job-0000" in capsys.readouterr().out
