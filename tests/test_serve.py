"""Vetting-service tests: queue, sharding, faults, retries, soak.

The centrepiece is the soak acceptance test: 100 generated apps pushed
through the service under worker-crash + OOM injection must finish
with zero lost or duplicated jobs, rows bit-identical to a direct
``evaluate_corpus`` sweep, and every retry/fallback visible as obs
counters in the exported run ledger.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro import obs
from repro.apk.corpus import AppCorpus
from repro.apk.generator import GeneratorProfile
from repro.bench.harness import AppEvaluation, engine_latency_s, evaluate_corpus
from repro.serve import (
    AdmissionError,
    AdmissionQueue,
    FaultConfig,
    FaultInjector,
    JobState,
    ServeConfig,
    Sharder,
    VetJob,
    build_injector,
    classify,
    make_batches,
    parse_inject,
    run_soak,
    submit_paths,
)
from repro.serve.service import CorpusSource, VettingService
from repro.serve.workers import (
    ENGINE_CPU,
    ENGINE_GDROID,
    ENGINE_LADDER,
    ENGINE_PLAIN,
)

#: Small, fast corpus profile shared by the service tests.
SERVE_PROFILE = GeneratorProfile(scale=0.06)

#: The two lane kinds, which must give the same answer.
LANE_KINDS = ("async", "process")


def _lane_config(pool: str, tmp_path, **overrides) -> ServeConfig:
    """A config for one lane kind: process lanes fork and publish their
    records under a per-test state dir."""
    if pool == "process":
        overrides.update(
            pool="process",
            start_method="fork",
            state_dir=str(tmp_path / "state"),
        )
    return ServeConfig(**overrides)


def _job(index: int, cost: float = 100.0, size_class: str = "small") -> VetJob:
    return VetJob(
        job_id=f"job-{index:04d}",
        index=index,
        package=f"com.test.app{index}",
        source="corpus",
        est_cost=cost,
        size_class=size_class,
    )


# -- admission queue -----------------------------------------------------------


class TestAdmissionQueue:
    def test_try_submit_rejects_when_full(self):
        queue = AdmissionQueue(capacity=2)
        queue.try_submit("a")
        queue.try_submit("b")
        with pytest.raises(AdmissionError):
            queue.try_submit("c")
        assert queue.admitted == 2
        assert queue.rejected == 1
        assert queue.high_water == 2

    def test_submit_applies_backpressure(self):
        async def scenario():
            queue = AdmissionQueue(capacity=1)
            await queue.submit("a")
            waiter = asyncio.ensure_future(queue.submit("b"))
            await asyncio.sleep(0)
            assert not waiter.done()  # blocked on the full window
            assert await queue.get() == "a"
            await waiter  # slot freed -> admitted
            assert queue.admitted == 2

        asyncio.run(scenario())

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(capacity=0)


# -- sharding ------------------------------------------------------------------


class TestSharder:
    def test_size_classes(self):
        assert classify(500) == "small"
        assert classify(6217) == "medium"
        assert classify(20000) == "large"

    def test_small_jobs_coalesce_and_big_jobs_ship_alone(self):
        jobs = [
            _job(0), _job(1),
            _job(2, cost=9000, size_class="medium"),
            _job(3), _job(4), _job(5), _job(6), _job(7),
        ]
        batches = make_batches(jobs, small_batch_max=4)
        sizes = [len(batch) for batch in batches]
        # [0,1] flushed by the medium job, [2] alone, then [3..6], [7].
        assert sizes == [2, 1, 4, 1]
        assert all(
            job.size_class == "small"
            for batch in batches
            for job in batch.jobs
            if len(batch) > 1
        )

    def test_lpt_balances_against_existing_load(self):
        jobs = [_job(i, cost=100.0) for i in range(4)]
        batches = make_batches(jobs, small_batch_max=1)
        sharder = Sharder(workers=2)
        # Worker 0 is already heavily loaded: everything goes to 1.
        placement = sharder.assign(batches, loads=[1e9, 0.0])
        assert [len(b) for b in placement[0]] == []
        assert len(placement[1]) == 4

    def test_assignment_is_deterministic(self):
        jobs = [_job(i, cost=50.0 * (i + 1)) for i in range(7)]
        batches = make_batches(jobs, small_batch_max=2)
        sharder = Sharder(workers=3)
        first = sharder.assign(batches, loads=[0.0] * 3)
        second = sharder.assign(batches, loads=[0.0] * 3)
        ids = lambda placement: [  # noqa: E731
            [batch.batch_id for batch in worker] for worker in placement
        ]
        assert ids(first) == ids(second)


# -- fault injection -----------------------------------------------------------


class TestFaultInjection:
    def test_parse_inject(self):
        assert parse_inject("worker-crash,oom") == {"worker-crash", "oom"}
        assert parse_inject("") == frozenset()
        with pytest.raises(ValueError):
            parse_inject("worker-crash,frobnicate")

    def test_schedule_is_deterministic(self):
        a = build_injector({"worker-crash", "oom"}, 11, jobs=40, workers=4)
        b = build_injector({"worker-crash", "oom"}, 11, jobs=40, workers=4)
        for worker in range(4):
            for started in range(1, 12):
                assert a.should_crash(worker, started) == b.should_crash(
                    worker, started
                )
                assert a.should_oom(worker, started) == b.should_oom(
                    worker, started
                )

    def test_disabled_kinds_never_fire(self):
        injector = FaultInjector(
            FaultConfig(kinds=frozenset({"oom"})), jobs=20, workers=2
        )
        assert not any(
            injector.should_crash(w, n)
            for w in range(2)
            for n in range(1, 20)
        )
        assert any(
            injector.should_oom(w, n) for w in range(2) for n in range(1, 20)
        )
        assert not injector.is_corrupt(0)
        assert injector.stall_seconds(0) == 0.0

    def test_every_enabled_worker_kind_fires_within_horizon(self):
        injector = build_injector(
            {"worker-crash"}, 5, jobs=12, workers=3
        )
        for worker in range(3):
            assert any(
                injector.should_crash(worker, started)
                for started in range(1, 6)
            )


# -- engine ladder -------------------------------------------------------------


class TestEngineLadder:
    def test_ladder_order(self):
        assert ENGINE_LADDER == (ENGINE_GDROID, ENGINE_PLAIN, ENGINE_CPU)

    def test_latency_picks_the_engine_column(self, demo_app):
        from repro.bench.harness import evaluate_app

        row = evaluate_app(demo_app)
        assert engine_latency_s(row, ENGINE_GDROID) == row.full_s
        assert engine_latency_s(row, ENGINE_PLAIN) == row.plain_s
        assert engine_latency_s(row, ENGINE_CPU) == row.cpu_s


# -- service behaviour ---------------------------------------------------------


class TestService:
    def test_clean_run_completes_everything(self):
        corpus = AppCorpus(size=6, base_seed=910100, profile=SERVE_PROFILE)
        report = run_soak(corpus, config=ServeConfig(workers=2))
        assert report.ok
        assert report.completed == 6 and report.failed == 0
        assert all(job.attempts == 1 for job in report.jobs)
        assert all(job.engine == ENGINE_GDROID for job in report.jobs)
        assert all(job.verdict is not None for job in report.jobs)
        assert report.counters["serve.submitted"] == 6
        assert report.counters["serve.completed"] == 6

    @pytest.mark.parametrize("pool", LANE_KINDS)
    def test_worker_crash_retries_without_loss(self, pool, tmp_path):
        corpus = AppCorpus(size=10, base_seed=910200, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=_lane_config(pool, tmp_path, workers=3),
            inject=frozenset({"worker-crash"}),
        )
        assert report.ok and report.failed == 0
        assert report.counters["serve.worker_crashes"] >= 1
        assert report.counters["serve.retries"] >= 1
        retried = [job for job in report.jobs if "worker-crash" in job.faults]
        assert retried, "the crash must have hit at least one job"
        for job in retried:
            assert job.state == JobState.DONE
            assert job.backoffs_s, "retries must sleep a backoff"

    @pytest.mark.parametrize("pool", LANE_KINDS)
    def test_oom_degrades_down_the_ladder(self, pool, tmp_path):
        corpus = AppCorpus(size=10, base_seed=910300, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=_lane_config(pool, tmp_path, workers=2),
            inject=frozenset({"oom"}),
            ooms_per_worker=2,
        )
        assert report.ok and report.failed == 0
        assert report.counters["serve.oom_events"] >= 1
        assert report.counters["serve.degraded"] >= 1
        fallback = [
            job for job in report.jobs if job.engine != ENGINE_GDROID
        ]
        assert fallback, "some jobs must have been served degraded"
        for job in fallback:
            assert job.engine in (ENGINE_PLAIN, ENGINE_CPU)
            assert job.modeled_latency_s is not None

    def test_degraded_rows_stay_bit_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        corpus = AppCorpus(size=5, base_seed=910400, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=ServeConfig(workers=2),
            inject=frozenset({"oom", "worker-crash"}),
        )
        assert report.ok
        direct = evaluate_corpus(corpus)
        for index, row in report.rows().items():
            assert row == direct[index]

    @pytest.mark.parametrize("pool", LANE_KINDS)
    def test_corrupt_apk_fails_structurally_without_retry(
        self, pool, tmp_path
    ):
        corpus = AppCorpus(size=8, base_seed=910500, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=_lane_config(pool, tmp_path, workers=2),
            inject=frozenset({"corrupt-apk"}),
            corrupt_fraction=0.4,
        )
        assert report.ok
        corrupt = [job for job in report.jobs if job.state == JobState.FAILED]
        assert corrupt, "the corruption campaign must hit something"
        assert report.counters["serve.corrupt_apks"] == len(corrupt)
        for job in corrupt:
            assert job.faults == ["corrupt-apk"]
            assert job.attempts == 1  # deterministic fault: no retry burn
            assert "corrupt apk" in job.error
        clean = [job for job in report.jobs if job.state == JobState.DONE]
        assert len(clean) + len(corrupt) == 8

    @pytest.mark.parametrize("pool", LANE_KINDS)
    def test_stall_trips_timeout_and_is_retried(self, pool, tmp_path):
        corpus = AppCorpus(size=4, base_seed=910600, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=_lane_config(
                pool, tmp_path, workers=2, timeout_s=0.05, max_attempts=2
            ),
            inject=frozenset({"stall"}),
            stall_fraction=0.5,
            stall_s=0.5,
        )
        assert report.ok
        assert report.counters["serve.timeouts"] >= 1
        stalled = [job for job in report.jobs if "timeout" in job.faults]
        assert stalled
        # A stall is deterministic per app index, so retries stall too
        # and the job eventually exhausts its attempts.
        for job in stalled:
            assert job.state == JobState.FAILED
            assert "retries exhausted" in job.error

    @pytest.mark.parametrize("pool", LANE_KINDS)
    def test_journal_stamps_each_attempt_at_dispatch(self, pool, tmp_path):
        """The n-th ``assign`` record of a job carries attempt n, and its
        terminal record the last of them, whichever lane kind ran it."""
        from repro.serve import replay_journal

        journal = tmp_path / "journal.jsonl"
        corpus = AppCorpus(size=4, base_seed=910600, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=_lane_config(
                pool, tmp_path, workers=2, timeout_s=0.05, max_attempts=2,
                journal_path=str(journal),
            ),
            inject=frozenset({"stall"}),
            stall_fraction=0.5,
            stall_s=0.5,
        )
        assert report.ok
        stamps, finals = {}, {}
        for record in replay_journal(journal).records:
            if record["ev"] == "assign":
                stamps.setdefault(record["job"], []).append(record["attempt"])
            elif record["ev"] in ("complete", "fail"):
                finals[record["job"]] = record["attempts"]
        assert any(len(attempts) > 1 for attempts in stamps.values())
        for job in report.jobs:
            attempts = stamps[job.job_id]
            assert attempts == list(range(1, len(attempts) + 1))
            assert finals[job.job_id] == attempts[-1] == job.attempts

    @pytest.mark.parametrize("pool", LANE_KINDS)
    def test_row_is_stored_before_its_terminal_record(
        self, pool, tmp_path, monkeypatch
    ):
        """With a state dir, a job's result record is in the partition
        store before the journal says it completed: an orchestrator
        killed between the two must never recover a row-less DONE job."""
        from repro.serve import JobJournal, PartitionResultStore

        state = tmp_path / "state"
        unstored = []
        record = JobJournal.record

        def checked(journal, event, job_id, **fields):
            if event == "complete":
                merged = PartitionResultStore(state).merge()
                if merged.get(job_id, {}).get("row") is None:
                    unstored.append(job_id)
            record(journal, event, job_id, **fields)

        monkeypatch.setattr(JobJournal, "record", checked)
        corpus = AppCorpus(size=4, base_seed=910100, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=_lane_config(
                pool, tmp_path, workers=2, vet=False,
                journal_path=str(tmp_path / "journal.jsonl"),
                state_dir=str(state),
            ),
        )
        assert report.ok and report.completed == 4
        assert unstored == []

    @pytest.mark.parametrize("pool", LANE_KINDS)
    def test_retries_exhaust_into_failure(self, pool, tmp_path):
        corpus = AppCorpus(size=4, base_seed=910700, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=_lane_config(pool, tmp_path, workers=1, max_attempts=2),
            inject=frozenset({"worker-crash"}),
            crashes_per_worker=6,
        )
        assert report.ok  # exhausted jobs FAIL, they are never lost
        assert report.failed + report.completed == 4

    def test_strict_mode_reuses_lint_gate(self):
        corpus = AppCorpus(size=4, base_seed=910800, profile=SERVE_PROFILE)
        report = run_soak(
            corpus, config=ServeConfig(workers=2, strict=True)
        )
        assert report.ok
        # The seeded corpus lints clean, so all rows are evaluations.
        assert all(
            isinstance(job.row, AppEvaluation) for job in report.jobs
        )

    def test_backoff_is_exponential_capped_and_jittered(self):
        corpus = AppCorpus(size=1, base_seed=910900, profile=SERVE_PROFILE)
        service = VettingService(
            CorpusSource(corpus),
            config=ServeConfig(
                backoff_base_s=0.01, backoff_cap_s=0.05, backoff_jitter=0.5
            ),
        )
        delays = [service.backoff_s("job-0000", a) for a in range(1, 7)]
        # Deterministic for a given (seed, job, attempt) ...
        assert delays == [
            service.backoff_s("job-0000", a) for a in range(1, 7)
        ]
        # ... exponential-ish within the jitter band, capped at the top.
        for attempt, delay in enumerate(delays, start=1):
            raw = min(0.05, 0.01 * 2 ** (attempt - 1))
            assert raw / 2 <= delay <= raw
        assert max(delays) <= 0.05
        # Jitter decorrelates jobs.
        assert service.backoff_s("job-0001", 1) != delays[0]


# -- path submissions ----------------------------------------------------------


class TestSubmitPaths:
    def test_mixed_good_and_corrupt_files(self, tmp_path):
        from repro.apk.loader import save_gdx
        from tests.conftest import tiny_app

        good = tmp_path / "good.gdx"
        save_gdx(tiny_app(3), good)
        bad = tmp_path / "bad.gdx"
        bad.write_bytes(b"not a gdx container")
        report = submit_paths([str(good), str(bad)])
        assert report.ok
        by_source = {job.source: job for job in report.jobs}
        assert by_source[str(good)].state == JobState.DONE
        assert by_source[str(good)].verdict is not None
        assert by_source[str(bad)].state == JobState.FAILED
        assert "corrupt apk" in by_source[str(bad)].error

    def test_missing_file_fails_the_job_not_the_service(self, tmp_path):
        report = submit_paths([str(tmp_path / "nope.gdx")])
        assert report.ok
        assert report.jobs[0].state == JobState.FAILED


# -- the soak acceptance test --------------------------------------------------


class TestSoakAcceptance:
    def test_hundred_app_soak_with_crash_and_oom(
        self, tmp_path, monkeypatch
    ):
        """ISSUE 5 acceptance: 100 apps, crash+OOM, zero loss, identical
        rows, retries/fallbacks visible in the exported run ledger."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        profile = GeneratorProfile(scale=0.04)
        corpus = AppCorpus(size=100, base_seed=911000, profile=profile)
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            report = run_soak(
                corpus,
                config=ServeConfig(workers=4, queue_capacity=16, vet=False),
                inject=frozenset({"worker-crash", "oom"}),
            )
        # Zero lost or duplicated jobs.
        assert report.submitted == 100
        assert report.lost == 0
        assert report.duplicates == 0
        assert report.completed == 100 and report.failed == 0
        # Faults actually fired and were survived.
        assert report.counters["serve.worker_crashes"] >= 1
        assert report.counters["serve.oom_events"] >= 1
        assert report.counters["serve.retries"] >= 1
        assert any(
            name.startswith("serve.fallback.") for name in report.counters
        )
        # Backpressure engaged: the window is far smaller than the run.
        assert report.counters["serve.queue_high_water"] <= 16

        # Results bit-identical to a direct evaluate_corpus sweep.
        direct = evaluate_corpus(corpus)
        rows = report.rows()
        assert len(rows) == 100
        for index in range(100):
            assert rows[index] == direct[index]

        # Every retry/fallback visible in the exported run ledger.
        from repro.obs.export import run_ledger

        ledger = run_ledger(tracer)
        counters = ledger["counters"]
        for name in (
            "serve.submitted",
            "serve.retries",
            "serve.worker_crashes",
            "serve.oom_events",
            "serve.degraded",
        ):
            assert counters[name] == report.counters[name], name
        assert any(
            span["category"] == "serve" for span in ledger["spans"]
        )

    def test_soak_report_round_trips_to_json(self):
        corpus = AppCorpus(size=3, base_seed=911100, profile=SERVE_PROFILE)
        report = run_soak(corpus, config=ServeConfig(workers=2))
        payload = json.loads(json.dumps(report.to_json(), sort_keys=True))
        assert payload["ok"] is True
        assert len(payload["jobs"]) == 3
        assert payload["jobs"][0]["state"] == "done"


# -- admission high-water accounting (regression) ------------------------------


class TestQueueHighWater:
    def test_high_water_ignores_concurrent_drains(self):
        """Regression: ``_record_admit`` used to read ``qsize()`` after
        the put, so a consumer draining in between made the high-water
        mark under-report the depth the admission actually created."""
        queue = AdmissionQueue(capacity=4)
        # Model the racing consumer: qsize() always sees an empty queue.
        queue._queue.qsize = lambda: 0
        queue.try_submit("a")
        assert queue.high_water == 1  # was 0 with the qsize() read

    def test_high_water_tracks_peak_depth_across_interleaving(self):
        async def scenario():
            queue = AdmissionQueue(capacity=8)
            await queue.submit("a")
            await queue.submit("b")
            await queue.submit("c")
            assert queue.high_water == 3
            queue.get_nowait()
            queue.get_nowait()
            # Refills below the old peak must not move the mark ...
            await queue.submit("d")
            assert queue.high_water == 3
            # ... and pushing past it must.
            await queue.submit("e")
            await queue.submit("f")
            await queue.submit("g")
            assert queue.high_water == 5

        asyncio.run(scenario())


# -- backoff jitter is order-independent (regression) --------------------------


class TestBackoffDeterminism:
    def _service(self):
        corpus = AppCorpus(size=1, base_seed=912000, profile=SERVE_PROFILE)
        return VettingService(
            CorpusSource(corpus),
            config=ServeConfig(
                backoff_base_s=0.01, backoff_cap_s=0.05, backoff_jitter=0.5
            ),
        )

    def test_schedule_survives_shuffled_completion_order(self):
        """Regression: jitter drawn from a shared RNG made a job's delay
        depend on how many *other* jobs drew first.  The delay must be
        a pure function of (seed, job_id, attempt), so any completion
        interleaving produces the identical schedule."""
        import random as stdlib_random

        pairs = [
            (f"job-{index:04d}", attempt)
            for index in range(25)
            for attempt in (1, 2, 3)
        ]
        in_order = {
            pair: self._service().backoff_s(*pair) for pair in pairs
        }
        shuffled = list(pairs)
        stdlib_random.Random(99).shuffle(shuffled)
        service = self._service()
        out_of_order = {pair: service.backoff_s(*pair) for pair in shuffled}
        assert out_of_order == in_order

    def test_fraction_is_interpreter_stable(self):
        """Golden values pin the sha256 derivation: builtin ``hash()``
        is salted per interpreter, so worker processes would disagree
        on the schedule -- the digest never does."""
        from repro.serve import backoff_fraction

        assert backoff_fraction(7, "job-0000", 1) == pytest.approx(
            0.4606443601424649, abs=0.0
        )
        assert backoff_fraction(7, "job-0000", 2) == pytest.approx(
            0.3793549594461701, abs=0.0
        )
        assert backoff_fraction(8, "job-0000", 1) != backoff_fraction(
            7, "job-0000", 1
        )


# -- job journal ---------------------------------------------------------------


class TestJobJournal:
    def test_roundtrip_admit_assign_terminal(self, tmp_path):
        from repro.serve import JobJournal, replay_journal

        path = tmp_path / "journal.jsonl"
        a, b = _job(0), _job(1)
        with JobJournal(path) as journal:
            journal.admit(a)
            journal.admit(b)
            a.attempts = 1
            journal.assign(a, worker=2)
            a.state, a.engine = JobState.DONE, ENGINE_GDROID
            journal.complete(a)
        state = replay_journal(path)
        assert state.truncated == 0
        assert list(state.admits) == ["job-0000", "job-0001"]
        assert state.pending_ids() == ["job-0001"]
        final = state.terminal["job-0000"]
        assert final["ev"] == "complete"
        assert final["state"] == JobState.DONE
        assert final["engine"] == ENGINE_GDROID
        rebuilt = state.jobs()[0]
        assert rebuilt.job_id == a.job_id
        assert rebuilt.est_cost == a.est_cost
        assert rebuilt.size_class == a.size_class
        assert rebuilt.state == JobState.PENDING  # replay rebuilds fresh

    def test_truncated_trailing_line_is_dropped_not_fatal(self, tmp_path):
        from repro.serve import JobJournal, replay_journal

        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.admit(_job(0))
            journal.admit(_job(1))
        # A crash mid-append leaves a partial final line.
        with open(path, "ab") as handle:
            handle.write(b'{"ev": "complete", "job": "job-00')
        state = replay_journal(path)
        assert state.truncated == 1
        assert len(state.records) == 2
        assert state.pending_ids() == ["job-0000", "job-0001"]

    def test_missing_journal_replays_empty(self, tmp_path):
        from repro.serve import replay_journal

        state = replay_journal(tmp_path / "never-written.jsonl")
        assert state.records == [] and state.truncated == 0
        assert state.jobs() == []

    def test_midfile_tear_counted_as_corrupt_not_truncated(self, tmp_path):
        """An undecodable line *before* the tail is not the benign
        crash signature: it must land on the ``corrupt`` counter."""
        from repro.serve import JobJournal, replay_journal

        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.admit(_job(0))
            journal.admit(_job(1))
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(lines[0][:20] + b"\n" + b"\n".join(lines[1:]))
        state = replay_journal(path)
        assert state.corrupt == 1
        assert state.truncated == 0
        assert state.pending_ids() == ["job-0001"]

    def test_fsync_journal_replays_identically(self, tmp_path):
        from repro.serve import JobJournal, replay_journal

        path = tmp_path / "journal.jsonl"
        with JobJournal(path, fsync=True) as journal:
            journal.admit(_job(0))
        assert replay_journal(path).pending_ids() == ["job-0000"]

    def test_recovery_appends_to_the_same_journal(self, tmp_path):
        from repro.serve import JobJournal, replay_journal

        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            journal.admit(_job(0))
        with JobJournal(path) as journal:  # reopen == append, not truncate
            journal.admit(_job(0))
            job = _job(0)
            job.state = JobState.DONE
            journal.complete(job)
        state = replay_journal(path)
        assert len(state.records) == 3
        assert len(state.admits) == 1  # first admit wins, replay is stable
        assert state.pending_ids() == []


# -- partitioned result store --------------------------------------------------


class TestPartitionResultStore:
    def test_write_poll_merge(self, tmp_path):
        from repro.serve import PartitionResultStore
        from repro.serve.journal import make_result_record

        store = PartitionResultStore(tmp_path / "state")
        store.write(
            0, "job-0000", 1,
            make_result_record("job-0000", 1, 0, "fault", fault="oom"),
        )
        store.write(
            1, "job-0000", 2,
            make_result_record("job-0000", 2, 1, "ok", engine="gdroid"),
        )
        store.write(
            1, "job-0001", 1,
            make_result_record("job-0001", 1, 1, "ok", engine="gdroid"),
        )
        seen: set = set()
        first = store.poll(seen)
        assert {record["job_id"] for record in first} == {
            "job-0000", "job-0001"
        }
        assert store.poll(seen) == []  # nothing new
        merged = store.merge()
        assert merged["job-0000"]["attempt"] == 2  # latest attempt wins
        assert merged["job-0000"]["kind"] == "ok"
        assert len(merged) == 2

    def test_republished_record_is_read_again(self, tmp_path):
        """Regression: a recovery run re-serving an attempt that a dead
        run already published replaces the file under the same name.
        If the dead run's copy was polled (and dropped as stale) first,
        the republished record must still be read, or the recovered
        job never finishes."""
        from repro.serve import PartitionResultStore
        from repro.serve.journal import make_result_record

        store = PartitionResultStore(tmp_path / "state")
        seen: set = set()
        store.write(
            2, "job-0543", 1,
            make_result_record("job-0543", 1, 2, "fault", fault="oom"),
        )
        assert [record["kind"] for record in store.poll(seen)] == ["fault"]
        store.write(
            2, "job-0543", 1,
            make_result_record("job-0543", 1, 2, "ok", engine="gdroid"),
        )
        assert [record["kind"] for record in store.poll(seen)] == ["ok"]
        assert store.poll(seen) == []

    def test_row_payload_roundtrip(self, demo_app):
        from repro.bench.harness import evaluate_app
        from repro.serve.journal import row_from_payload, row_to_payload

        row = evaluate_app(demo_app)
        clone = row_from_payload(
            json.loads(json.dumps(row_to_payload(row)))
        )
        assert clone == row

    def test_stale_tmp_swept_on_open(self, tmp_path):
        import os
        import time as time_module

        from repro.serve import PartitionResultStore

        root = tmp_path / "state"
        partition = root / "worker-00"
        partition.mkdir(parents=True)
        dead = partition / ".tmp-orphan.json"
        dead.write_text("{}")
        stamp = time_module.time() - 7200.0
        os.utime(dead, (stamp, stamp))
        live = partition / ".tmp-live.json"
        live.write_text("{}")
        store = PartitionResultStore(root)
        assert store.tmp_purged == 1
        assert not dead.exists()
        assert live.exists()
        # .tmp files are invisible to poll either way.
        assert store.poll(set()) == []


# -- process worker pool -------------------------------------------------------


def _pool_config(tmp_path, **overrides):
    defaults = dict(
        workers=2,
        vet=False,
        pool="process",
        journal_path=str(tmp_path / "journal.jsonl"),
        state_dir=str(tmp_path / "state"),
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


class TestProcessPool:
    def test_clean_pooled_run_matches_async_rows(self, tmp_path):
        corpus = AppCorpus(size=8, base_seed=913000, profile=SERVE_PROFILE)
        pooled = run_soak(corpus, config=_pool_config(tmp_path))
        assert pooled.ok
        assert pooled.completed == 8 and pooled.failed == 0
        baseline = run_soak(corpus, config=ServeConfig(workers=2, vet=False))
        assert pooled.rows() == baseline.rows()
        # Transitions were journaled and rows persisted per partition.
        from repro.serve import PartitionResultStore, replay_journal

        state = replay_journal(tmp_path / "journal.jsonl")
        assert state.pending_ids() == []
        assert len(state.admits) == 8
        merged = PartitionResultStore(tmp_path / "state").merge()
        assert len(merged) == 8

    def test_injected_crash_is_a_real_process_death(self, tmp_path):
        """``worker-crash`` in pooled mode is ``os._exit`` in a real OS
        process: the orchestrator must reap the corpse, rehome its
        in-flight jobs and restart the lane -- losing nothing."""
        corpus = AppCorpus(size=10, base_seed=913100, profile=SERVE_PROFILE)
        report = run_soak(
            corpus,
            config=_pool_config(tmp_path, workers=2),
            inject=frozenset({"worker-crash"}),
        )
        assert report.ok and report.failed == 0
        assert report.counters["serve.worker_crashes"] >= 1
        assert report.counters["serve.pool.restarts"] >= 1
        assert report.counters["serve.retries"] >= 1

    def test_external_sigkill_mid_run_is_survived(self, tmp_path):
        """A worker SIGKILLed from *outside* (no injection cooperation
        at all) looks identical to the orchestrator: reap, rehome,
        restart, zero lost jobs."""
        import os
        import signal

        corpus = AppCorpus(size=12, base_seed=913200, profile=SERVE_PROFILE)
        source = CorpusSource(corpus)
        service = VettingService(source, config=_pool_config(tmp_path))

        async def scenario():
            async def killer():
                while service._pool is None or not any(service._pool.pids):
                    await asyncio.sleep(0.01)
                await asyncio.sleep(0.05)
                victim = next(
                    pid for pid in service._pool.pids if pid is not None
                )
                os.kill(victim, signal.SIGKILL)

            report, _ = await asyncio.gather(
                service.serve(source.jobs()), killer()
            )
            return report

        report = asyncio.run(scenario())
        assert report.ok
        assert report.completed + report.failed == 12
        assert report.counters["serve.worker_crashes"] >= 1
        assert report.counters["serve.pool.restarts"] >= 1

    def test_spawn_start_method_serves_identically(self, tmp_path):
        """Forcing ``spawn`` exercises the fully-pickled path (the only
        one available on fork-less platforms)."""
        corpus = AppCorpus(size=4, base_seed=913300, profile=SERVE_PROFILE)
        pooled = run_soak(
            corpus,
            config=_pool_config(tmp_path, start_method="spawn"),
        )
        assert pooled.ok and pooled.completed == 4
        baseline = run_soak(corpus, config=ServeConfig(workers=2, vet=False))
        assert pooled.rows() == baseline.rows()


class TestRunStateDir:
    """A process-pool run given no ``state_dir`` keeps its result store
    in a temp dir of its own and removes it however the run ends; a
    caller's ``state_dir`` is never removed."""

    @pytest.fixture
    def temp_root(self, tmp_path, monkeypatch):
        import tempfile

        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    @staticmethod
    def _config(**overrides) -> ServeConfig:
        return ServeConfig(
            workers=1, vet=False, pool="process", start_method="fork",
            **overrides,
        )

    def test_finished_run_removes_its_state_dir(self, temp_root):
        corpus = AppCorpus(size=3, base_seed=913700, profile=SERVE_PROFILE)
        assert run_soak(corpus, config=self._config()).ok
        assert list(temp_root.glob("gdroid-serve-*")) == []

    def test_crashed_run_removes_its_state_dir(self, temp_root, tmp_path):
        from repro.serve import ServiceCrash

        corpus = AppCorpus(size=4, base_seed=913710, profile=SERVE_PROFILE)
        config = self._config(
            journal_path=str(tmp_path / "journal.jsonl"), crash_after=2
        )
        with pytest.raises(ServiceCrash):
            run_soak(corpus, config=config)
        assert list(temp_root.glob("gdroid-serve-*")) == []

    def test_failed_run_removes_its_state_dir(self, temp_root, monkeypatch):
        from repro.serve.pool import ProcessWorkerPool

        made = []

        def failing_start(pool):
            made.append(pool.spec.state_dir)
            raise RuntimeError("lanes failed to start")

        monkeypatch.setattr(ProcessWorkerPool, "start", failing_start)
        corpus = AppCorpus(size=2, base_seed=913720, profile=SERVE_PROFILE)
        with pytest.raises(RuntimeError, match="failed to start"):
            run_soak(corpus, config=self._config())
        assert made and made[0].startswith(str(temp_root))
        assert list(temp_root.glob("gdroid-serve-*")) == []

    def test_caller_state_dir_is_kept(self, temp_root, tmp_path):
        state = tmp_path / "state"
        corpus = AppCorpus(size=2, base_seed=913730, profile=SERVE_PROFILE)
        assert run_soak(corpus, config=self._config(state_dir=str(state))).ok
        assert state.is_dir() and any(state.iterdir())


class _RecordingPool:
    """Stand-in pool capturing submissions, for placement unit tests."""

    def __init__(self, workers: int) -> None:
        self.submitted = {worker_id: [] for worker_id in range(workers)}

    def submit(self, worker_id, jobs):
        self.submitted[worker_id].extend(jobs)


class TestDeadLanePlacement:
    """Regression: between ``reap()`` and ``restart()`` a lane's queue
    belongs to a corpse -- ``restart()`` swaps in a fresh queue, so any
    placement that targets the lane in that window (a dispatcher wave,
    an expiring retry task) would be silently dropped and the job stuck
    ASSIGNED forever."""

    def _service(self, tmp_path, workers, alive):
        corpus = AppCorpus(size=4, base_seed=913700, profile=SERVE_PROFILE)
        source = CorpusSource(corpus)
        service = VettingService(
            source, config=_pool_config(tmp_path, workers=workers)
        )
        service._pool = _RecordingPool(workers)
        service._owned = [{} for _ in range(workers)]
        service._lane_loads = [0.0] * workers
        service._lane_alive = list(alive)
        service._deferred = []
        return service, source.jobs(4)

    def test_dead_lane_never_receives_placements(self, tmp_path):
        service, jobs = self._service(tmp_path, 2, [False, True])
        # The dead lane's load was reset to 0.0 at reap time, which
        # (pre-fix) made it the preferred LPT target.
        service._lane_loads = [0.0, 500.0]
        service._place(make_batches(jobs))
        assert service._pool.submitted[0] == []
        assert len(service._pool.submitted[1]) == 4
        assert all(job.state == JobState.ASSIGNED for job in jobs)

    def test_all_lanes_dead_parks_batches_until_restart(self, tmp_path):
        service, jobs = self._service(tmp_path, 1, [False])
        service._place(make_batches(jobs))
        assert service._pool.submitted[0] == []
        assert service._deferred
        # Parked jobs are untouched: no attempt burned, no ASSIGNED
        # state that would strand them if the service shut down now.
        assert all(job.attempts == 0 for job in jobs)
        # The pump loop re-places the parked batches after restart.
        service._lane_alive[0] = True
        deferred, service._deferred = service._deferred, []
        service._place(deferred)
        assert len(service._pool.submitted[0]) == 4
        assert all(job.attempts == 1 for job in jobs)


class TestLaneProgressMarker:
    def test_reap_reads_exact_starts_from_marker(self, tmp_path):
        """A lane SIGKILLed *between* jobs consumed no extra start: the
        marker says exactly how many it consumed, where the old
        results-plus-one heuristic would drift the fault schedule."""
        from repro.serve.pool import (
            PoolSpec,
            ProcessWorkerPool,
            _progress_path,
        )

        spec = PoolSpec(state_dir=str(tmp_path / "state"))
        pool = ProcessWorkerPool(spec, 1)
        marker = _progress_path(spec.state_dir, 0)
        marker.write_bytes(b"%010d\n" % 3)
        pool._lane_results[0] = 3
        heuristic = pool._starts[0] + pool._lane_results[0] + 1
        assert heuristic == 4  # what reap would have guessed pre-fix
        assert pool._read_starts(0, fallback=heuristic) == 3
        marker.unlink()  # unreadable marker falls back to the guess
        assert pool._read_starts(0, fallback=heuristic) == 4

    def test_spawn_seeds_marker_with_carried_starts(self, tmp_path):
        """A lane killed before its first job must read back what it
        inherited, not a stale prior incarnation's counter."""
        from repro.serve.pool import (
            PoolSpec,
            ProcessWorkerPool,
            _progress_path,
        )

        spec = PoolSpec(state_dir=str(tmp_path / "state"))
        pool = ProcessWorkerPool(spec, 1)
        pool._starts[0] = 5
        pool._spawn(0)
        try:
            marker = _progress_path(spec.state_dir, 0)
            assert int(marker.read_text().strip()) == 5
        finally:
            pool.stop()


# -- orchestrator crash + journal recovery -------------------------------------


class TestCrashRecovery:
    def test_crash_after_raises_and_recovery_stitches(self, tmp_path):
        from repro.serve import ServiceCrash, recover

        corpus = AppCorpus(size=10, base_seed=913400, profile=SERVE_PROFILE)
        crash_cfg = _pool_config(tmp_path, crash_after=4)
        with pytest.raises(ServiceCrash):
            run_soak(corpus, config=crash_cfg)
        report = recover(
            CorpusSource(corpus), _pool_config(tmp_path)
        )
        assert report.ok
        assert report.submitted == 10
        assert report.completed == 10 and report.failed == 0
        assert report.counters["serve.recovered.finished"] >= 4
        assert (
            report.counters["serve.recovered.finished"]
            + report.counters["serve.recovered.pending"]
            == 10
        )
        baseline = run_soak(
            corpus, config=ServeConfig(workers=2, vet=False)
        )
        assert report.rows() == baseline.rows()

    def test_recovered_rows_are_reloaded_not_reevaluated(self, tmp_path):
        """Jobs journaled terminal come back with their persisted rows:
        recovery of a fully-finished run re-serves nothing."""
        from repro.serve import recover

        corpus = AppCorpus(size=5, base_seed=913500, profile=SERVE_PROFILE)
        first = run_soak(corpus, config=_pool_config(tmp_path))
        assert first.ok
        report = recover(CorpusSource(corpus), _pool_config(tmp_path))
        assert report.ok
        assert report.counters["serve.recovered.finished"] == 5
        assert report.counters["serve.recovered.pending"] == 0
        assert report.counters.get("serve.submitted", 0) == 0
        assert report.rows() == first.rows()

    @pytest.mark.parametrize("pool", LANE_KINDS)
    def test_crash_after_stops_at_exactly_n_terminal_jobs(
        self, pool, tmp_path
    ):
        """A simulated orchestrator death stops all progress: no lane
        keeps serving and no later record is journaled terminal."""
        from repro.serve import ServiceCrash, replay_journal

        journal = tmp_path / "journal.jsonl"
        corpus = AppCorpus(size=8, base_seed=913600, profile=SERVE_PROFILE)
        config = _lane_config(
            pool, tmp_path, workers=2, vet=False,
            journal_path=str(journal), crash_after=3,
        )
        with pytest.raises(ServiceCrash, match="after 3 terminal jobs"):
            run_soak(corpus, config=config)
        assert len(replay_journal(journal).terminal) == 3

    def test_async_mode_journals_and_recovers_too(self, tmp_path):
        """Durability is not process-pool-only: the async orchestrator
        journals transitions and persists rows itself."""
        from repro.serve import ServiceCrash, recover

        corpus = AppCorpus(size=8, base_seed=913600, profile=SERVE_PROFILE)
        crash_cfg = _pool_config(
            tmp_path, pool="async", workers=2, crash_after=3
        )
        with pytest.raises(ServiceCrash):
            run_soak(corpus, config=crash_cfg)
        report = recover(
            CorpusSource(corpus), _pool_config(tmp_path, pool="async")
        )
        assert report.ok
        assert report.completed == 8
        baseline = run_soak(
            corpus, config=ServeConfig(workers=2, vet=False)
        )
        assert report.rows() == baseline.rows()


# -- streaming admission feeds -------------------------------------------------


class TestStreamingFeeds:
    def _write_apps(self, directory, seeds):
        from repro.apk.loader import save_gdx
        from tests.conftest import tiny_app

        directory.mkdir(parents=True, exist_ok=True)
        for seed in seeds:
            save_gdx(tiny_app(seed), directory / f"app-{seed}.gdx")

    def test_directory_feed_serves_arrivals_until_stop(self, tmp_path):
        from repro.serve import DirectoryFeed, serve_stream

        inbox = tmp_path / "inbox"
        self._write_apps(inbox, [1, 2, 3])
        (inbox / "STOP").touch()
        feed = DirectoryFeed(inbox, poll_s=0.01, idle_s=5.0)
        report = serve_stream(feed, config=ServeConfig(workers=2, vet=False))
        assert report.ok
        assert report.submitted == 3
        assert report.completed == 3
        assert report.counters["serve.feed.admitted"] == 3

    def test_directory_feed_idle_timeout_drains_and_exits(self, tmp_path):
        from repro.serve import DirectoryFeed, serve_stream

        inbox = tmp_path / "inbox"
        self._write_apps(inbox, [4])
        feed = DirectoryFeed(inbox, poll_s=0.01, idle_s=0.2)
        report = serve_stream(feed, config=ServeConfig(workers=1, vet=False))
        assert report.ok and report.completed == 1

    def test_directory_feed_streams_into_process_pool(self, tmp_path):
        from repro.serve import DirectoryFeed, serve_stream

        inbox = tmp_path / "inbox"
        self._write_apps(inbox, [5, 6])
        (inbox / "STOP").touch()
        feed = DirectoryFeed(inbox, poll_s=0.01)
        report = serve_stream(
            feed, config=_pool_config(tmp_path, workers=2)
        )
        assert report.ok and report.completed == 2
        for job in report.jobs:
            assert job.source.endswith(".gdx")

    def test_stdin_feed_reads_paths_until_eof(self, tmp_path):
        import io

        from repro.serve import StdinFeed, serve_stream

        inbox = tmp_path / "inbox"
        self._write_apps(inbox, [7, 8])
        listing = "".join(
            f"{path}\n" for path in sorted(inbox.glob("*.gdx"))
        )
        feed = StdinFeed(stream=io.StringIO(listing + "\n"))
        report = serve_stream(feed, config=ServeConfig(workers=2, vet=False))
        assert report.ok and report.completed == 2

    def test_empty_feed_completes_cleanly(self, tmp_path):
        from repro.serve import DirectoryFeed, serve_stream

        inbox = tmp_path / "inbox"
        inbox.mkdir()
        (inbox / "STOP").touch()
        feed = DirectoryFeed(inbox, poll_s=0.01)
        report = serve_stream(feed, config=ServeConfig(workers=1))
        assert report.ok and report.submitted == 0

    def test_stdin_feed_reader_is_daemon_and_cancellable(self):
        """Regression: the blocking readline must not run on the loop's
        default executor -- executor threads are joined at interpreter
        shutdown, so a run cancelled before stdin EOF would hang exit.
        A dedicated daemon thread parks harmlessly instead."""
        import os
        import threading

        from repro.serve import StdinFeed

        read_fd, write_fd = os.pipe()
        stream = os.fdopen(read_fd, "r")
        feed = StdinFeed(stream=stream)

        async def scenario():
            generator = feed.jobs().__aiter__()
            task = asyncio.ensure_future(generator.__anext__())
            await asyncio.sleep(0.05)
            pumps = [
                thread
                for thread in threading.enumerate()
                if thread.name == "gdroid-stdin-feed"
            ]
            assert pumps and all(thread.daemon for thread in pumps)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            return pumps

        pumps = asyncio.run(scenario())
        # EOF unblocks the parked reader; it must wind down on its own.
        os.close(write_fd)
        for thread in pumps:
            thread.join(timeout=2.0)
            assert not thread.is_alive()
        stream.close()

    def test_recovery_replays_watch_jobs_from_their_paths(self, tmp_path):
        """Regression: a crashed ``--watch`` run journals jobs whose
        ``source`` is a ``.gdx`` path.  ``--recover`` rebuilds with a
        corpus-backed source, which must load those journaled paths --
        not regenerate unrelated corpus apps by index."""
        from repro.apk.loader import load_gdx
        from repro.bench.harness import evaluate_app
        from repro.serve import JobJournal, recover
        from repro.serve.sharder import classify as classify_nodes

        inbox = tmp_path / "inbox"
        self._write_apps(inbox, [11, 12])
        paths = sorted(inbox.glob("*.gdx"))
        journal_path = tmp_path / "journal.jsonl"
        with JobJournal(journal_path) as journal:
            for index, path in enumerate(paths):
                size = float(path.stat().st_size)
                journal.admit(
                    VetJob(
                        job_id=f"feed-{index:04d}",
                        index=index,
                        package=path.stem,
                        source=str(path),
                        est_cost=size,
                        size_class=classify_nodes(size / 12.0),
                    )
                )
        corpus = AppCorpus(size=4, base_seed=913800, profile=SERVE_PROFILE)
        report = recover(
            CorpusSource(corpus),
            _pool_config(tmp_path, pool="async", workers=1),
        )
        assert report.ok and report.completed == 2
        by_index = {job.index: job for job in report.jobs}
        for index, path in enumerate(paths):
            expected = evaluate_app(load_gdx(path))
            assert by_index[index].row == expected


# -- the journal-recovery acceptance test --------------------------------------


class TestJournalRecoveryAcceptance:
    def test_thousand_app_soak_survives_sigkill_and_restart(
        self, tmp_path, monkeypatch
    ):
        """ISSUE 8 acceptance: a 1000-app soak whose worker process is
        ``kill -9``-ed mid-run and whose orchestrator then dies is
        restarted from the journal and finishes with zero lost or
        duplicated jobs and rows identical to an uninterrupted run."""
        import os
        import signal

        from repro.serve import ServiceCrash, recover

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        profile = GeneratorProfile(scale=0.02)
        corpus = AppCorpus(size=1000, base_seed=914100, profile=profile)
        source = CorpusSource(corpus)
        crash_cfg = _pool_config(tmp_path, workers=3, crash_after=400)
        service = VettingService(source, config=crash_cfg)

        async def interrupted_run():
            async def killer():
                # Wait for live lanes, let the run make progress, then
                # SIGKILL one worker from outside -- no cooperation.
                while service._pool is None or not any(service._pool.pids):
                    await asyncio.sleep(0.01)
                await asyncio.sleep(1.0)
                victim = next(
                    pid for pid in service._pool.pids if pid is not None
                )
                os.kill(victim, signal.SIGKILL)

            await asyncio.gather(service.serve(source.jobs()), killer())

        with pytest.raises(ServiceCrash):
            asyncio.run(interrupted_run())
        # The dead run observed the external kill before it crashed.
        assert service.counters["serve.worker_crashes"] >= 1

        report = recover(
            CorpusSource(corpus), _pool_config(tmp_path, workers=3)
        )
        # Zero lost, zero duplicated -- across the crash boundary.
        assert report.ok
        assert report.submitted == 1000
        assert report.completed == 1000 and report.failed == 0
        assert report.counters["serve.recovered.finished"] >= 1
        assert (
            report.counters["serve.recovered.finished"]
            + report.counters["serve.recovered.pending"]
            == 1000
        )
        # Result-set equality with an uninterrupted run.
        direct = evaluate_corpus(corpus)
        rows = report.rows()
        assert len(rows) == 1000
        for index in range(1000):
            assert rows[index] == direct[index]
