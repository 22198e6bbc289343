"""Serving-layer tests: spec validation, queue, rate limit, restart replay.

Most tests inject a stub runner into :class:`JobManager` so they exercise
the serving machinery (validation, admission, dedup, events, recovery)
without paying for real training; one end-to-end test at the bottom drives
a real tiny sweep through HTTP and checks table parity against the
in-process session.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import (Draining, EvalService, JobManager, JobSpec,
                         QueueFull, ValidationError)
from repro.serve.ratelimit import RateLimiter, TokenBucket


def _post(base, doc, client=None):
    headers = {"Content-Type": "application/json"}
    if client:
        headers["X-Client-Id"] = client
    req = urllib.request.Request(base + "/v1/jobs",
                                 data=json.dumps(doc).encode(),
                                 method="POST", headers=headers)
    resp = urllib.request.urlopen(req)
    return resp.status, json.load(resp)


def _get(base, path, client=None):
    headers = {"X-Client-Id": client} if client else {}
    req = urllib.request.Request(base + path, headers=headers)
    resp = urllib.request.urlopen(req)
    return resp.status, resp.read()


TINY = {"model": "mcunet-293kb", "n": 16, "epochs": 1, "noises": ["color"],
        "include_combined": False}


# ---------------------------------------------------------------------------
# Spec validation (the HTTP 400 surface)
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_defaults_fill_in(self):
        spec = JobSpec({})
        assert spec.kind == "sweep" and spec.run.model == "resnet18x0.25"
        assert spec.run.noises and spec.run.epochs == 15

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError, match="epochz"):
            JobSpec({"epochz": 3})

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError, match="alexnet-9000"):
            JobSpec({"model": "alexnet-9000"})

    def test_unknown_noise_rejected(self):
        with pytest.raises(ValidationError, match="gamma-rays"):
            JobSpec({"noises": ["gamma-rays"]})

    def test_bounds_enforced(self):
        with pytest.raises(ValidationError, match="epochs"):
            JobSpec({"epochs": 0})
        with pytest.raises(ValidationError, match="train_frac"):
            JobSpec({"train_frac": 1.5})
        with pytest.raises(ValidationError, match="kind"):
            JobSpec({"kind": "trainonly"})
        with pytest.raises(ValidationError, match="integer"):
            JobSpec({"n": "forty"})

    def test_digest_is_stable_and_normalised(self):
        # Explicit defaults digest identically to omitted ones.
        assert JobSpec({"n": 240}).digest() == JobSpec({}).digest()
        assert JobSpec({"n": 64}).digest() != JobSpec({}).digest()

    def test_zoo_skip_rule(self):
        assert "ceil_mode" in JobSpec({"model": "mcunet-293kb"}).run.skip
        assert JobSpec({"model": "resnet-50"}).run.skip == ()

    @pytest.mark.parametrize("doc, digest", [
        ({}, "973d4f4bb5cd2dace113215ee6983728"),
        (TINY, "45800472ed50ec0ce08ac7bd7151d1e6"),
        ({**TINY, "mitigation": ["tent:steps=2"]},
         "378857591306fc5fab01b4ddd9479e88"),
        ({**TINY, "deadline": 5}, "9bd10a6b18db1602d4021e3f115b57c2"),
    ])
    def test_document_and_digest_are_stable(self, doc, digest):
        """Dedup keys, ``result.json`` and ``GET /v1/jobs/<id>`` of stored
        jobs depend on these: the digests were taken from the tree that
        validated jobs before ``RunSpec`` did."""
        spec = JobSpec(dict(doc))
        assert spec.digest() == digest
        normalized = spec.normalized()
        assert list(normalized) == list(JobSpec.FIELDS)
        assert normalized["task"] == "cls"
        assert isinstance(normalized["noises"], list)
        if "mitigation" in doc:
            assert normalized["mitigation"] == [
                {"name": "tent", "params": {"steps": 2, "lr": 0.001}}]

    def test_stored_module_inference_is_dropped(self):
        """Specs stored before plan inference was removed carry
        ``"inference": "module"``, the one substrate every job runs."""
        old = JobSpec({**TINY, "inference": "module"})
        assert "inference" not in old.normalized()
        assert old.digest() == JobSpec(dict(TINY)).digest()

    def test_plan_inference_rejected(self):
        with pytest.raises(ValidationError,
                           match="plan inference has been removed"):
            JobSpec({**TINY, "inference": "plan"})


# ---------------------------------------------------------------------------
# Rate limiting
# ---------------------------------------------------------------------------

class TestRateLimit:
    def test_bucket_burst_then_refill(self):
        now = [0.0]
        bucket = TokenBucket(rate=1.0, burst=2, clock=lambda: now[0])
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        wait = bucket.acquire()
        assert wait > 0
        now[0] += wait
        assert bucket.acquire() == 0.0

    def test_limiter_per_client_and_disabled(self):
        now = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1, clock=lambda: now[0])
        assert limiter.acquire("a") == 0.0
        assert limiter.acquire("a") > 0          # a is out of tokens
        assert limiter.acquire("b") == 0.0       # b has its own bucket
        assert RateLimiter(rate=0, burst=1).acquire("x") == 0.0

    def test_limiter_bounded_clients(self):
        limiter = RateLimiter(rate=1.0, burst=1, max_clients=4)
        for i in range(100):
            limiter.acquire(f"client-{i}")
        assert len(limiter._buckets) <= 4


# ---------------------------------------------------------------------------
# Job manager (stub runners; no HTTP, no training)
# ---------------------------------------------------------------------------

class TestJobManager:
    def test_submit_creates_durable_run_dir(self, tmp_path):
        manager = JobManager(tmp_path, runner=lambda job: None)
        job, created = manager.submit(dict(TINY))
        assert created and job.status == "queued"
        assert job.id in manager.store            # durable before any worker
        manifest = manager.store.read_manifest(job.id)
        assert manifest["serve"]["digest"] == job.spec.digest()
        assert manifest["epochs"] == 1 and "cli" not in manifest

    def test_dedup_returns_existing(self, tmp_path):
        manager = JobManager(tmp_path, runner=lambda job: None)
        a, created_a = manager.submit(dict(TINY))
        b, created_b = manager.submit(dict(TINY))
        assert created_a and not created_b and a is b
        c, created_c = manager.submit({**TINY, "seed": 7})
        assert created_c and c is not a
        d, created_d = manager.submit({**TINY, "fresh": True})
        assert created_d and d is not a           # fresh bypasses dedup

    def test_queue_full_raises_with_retry_after(self, tmp_path):
        manager = JobManager(tmp_path, queue_limit=2,
                             runner=lambda job: None)   # workers not started
        manager.submit(dict(TINY))
        manager.submit({**TINY, "seed": 1})
        with pytest.raises(QueueFull) as exc:
            manager.submit({**TINY, "seed": 2})
        assert exc.value.retry_after >= 1.0

    def test_jobs_execute_and_complete(self, tmp_path):
        done = []
        manager = JobManager(tmp_path, runner=lambda job: done.append(job.id))
        manager.start()
        job, _ = manager.submit(dict(TINY))
        deadline = time.time() + 30
        while job.status != "completed" and time.time() < deadline:
            time.sleep(0.01)
        assert job.status == "completed" and done == [job.id]
        # result.json persisted -> a restarted manager recovers "completed"
        assert (manager.store.root / job.id / "result.json").exists()
        manager.shutdown()

    def test_failed_job_is_isolated_and_resubmittable(self, tmp_path):
        def runner(job):
            raise RuntimeError("boom")
        manager = JobManager(tmp_path, runner=runner)
        manager.start()
        job, _ = manager.submit(dict(TINY))
        deadline = time.time() + 30
        while not job.terminal and time.time() < deadline:
            time.sleep(0.01)
        assert job.status == "failed" and "boom" in job.error
        retry, created = manager.submit(dict(TINY))
        assert created and retry is not job and retry.id == job.id
        manager.shutdown()

    def test_drain_leaves_queued_jobs_on_disk(self, tmp_path):
        release = threading.Event()
        manager = JobManager(tmp_path,
                             runner=lambda job: release.wait(30))
        manager.start()
        running, _ = manager.submit(dict(TINY))
        deadline = time.time() + 30
        while running.status != "running" and time.time() < deadline:
            time.sleep(0.01)
        queued, _ = manager.submit({**TINY, "seed": 1})
        release.set()
        leftover = manager.shutdown(drain=True)
        assert leftover == [queued.id]
        assert running.status == "completed"
        assert queued.status == "queued"          # untouched, resumable
        assert queued.id in manager.store
        with pytest.raises(Draining):
            manager.submit({**TINY, "seed": 2})

    def test_cancel_queued_job(self, tmp_path):
        manager = JobManager(tmp_path, runner=lambda job: None)
        job, _ = manager.submit(dict(TINY))       # workers never started
        manager.cancel_job(job.id)
        assert job.status == "cancelled"


def _wait_terminal(job, timeout=30.0):
    deadline = time.time() + timeout
    while not job.terminal and time.time() < deadline:
        time.sleep(0.01)
    assert job.terminal, f"job stuck in {job.status!r}"


class TestWatchdog:
    """Deadlines and the hung-runner watchdog (see docs/faults.md)."""

    def test_deadline_cancels_and_fails(self, tmp_path):
        from repro.core import SweepCancelled

        def runner(job):
            if job.cancel.wait(timeout=30):    # a well-behaved sweep stops
                raise SweepCancelled("cancelled at cell boundary")

        manager = JobManager(tmp_path, runner=runner, job_deadline=0.2)
        manager.start()
        job, _ = manager.submit(dict(TINY))
        _wait_terminal(job)
        assert job.status == "failed"
        assert "deadline of 0.2s exceeded" in job.error
        manager.shutdown(drain=False)

    def test_spec_deadline_overrides_manager_default(self, tmp_path):
        from repro.core import SweepCancelled

        def runner(job):
            if job.cancel.wait(timeout=30):
                raise SweepCancelled("cancelled")

        manager = JobManager(tmp_path, runner=runner, job_deadline=30.0)
        manager.start()
        job, _ = manager.submit({**TINY, "deadline": 0.2})
        _wait_terminal(job)
        assert job.status == "failed"
        assert "deadline of 0.2s exceeded" in job.error
        manager.shutdown(drain=False)

    def test_hung_job_is_declared_and_slot_respawned(self, tmp_path):
        started = []

        def runner(job):
            started.append(job.id)
            if len(started) == 1:
                job.cancel.wait(timeout=30)    # no pushes: no progress
                # Returning now must NOT overwrite the watchdog's verdict.

        manager = JobManager(tmp_path, runner=runner, hang_timeout=0.3)
        manager.start()
        stuck, _ = manager.submit(dict(TINY))
        _wait_terminal(stuck)
        assert stuck.status == "hung"
        assert "no progress" in stuck.error
        # The replacement worker keeps the manager serving.
        second, _ = manager.submit({**TINY, "seed": 5})
        _wait_terminal(second)
        assert second.status == "completed"
        assert stuck.status == "hung"          # verdict stood
        manager.shutdown(drain=False)

    def test_progress_keeps_slow_job_alive(self, tmp_path):
        def runner(job):
            for _ in range(8):                 # 0.8s total, beats every 0.1
                time.sleep(0.1)
                job.push({"event": "tick"})

        manager = JobManager(tmp_path, runner=runner, hang_timeout=0.4)
        manager.start()
        job, _ = manager.submit(dict(TINY))
        _wait_terminal(job)
        assert job.status == "completed"       # slow but alive ≠ hung
        manager.shutdown(drain=False)

    def test_watchdog_knob_validation(self, tmp_path):
        with pytest.raises(ValueError, match="job_deadline"):
            JobManager(tmp_path, runner=lambda job: None, job_deadline=0)
        with pytest.raises(ValueError, match="hang_timeout"):
            JobManager(tmp_path, runner=lambda job: None, hang_timeout=-1)


class TestRestartRecovery:
    """Job status after a dead server == ledger replay (no job database)."""

    def test_never_started_job_recovers_as_queued(self, tmp_path):
        first = JobManager(tmp_path, runner=lambda job: None)
        job, _ = first.submit(dict(TINY))         # no workers: stays queued
        second = JobManager(tmp_path, runner=lambda job: None)
        recovered = second.recover()
        assert [j.id for j in recovered] == [job.id]
        assert recovered[0].status == "queued"
        # Dedup survives the restart: resubmitting attaches, not duplicates.
        again, created = second.submit(dict(TINY))
        assert not created and again.id == job.id
        assert len(second.store.runs()) == 1

    def test_partial_ledger_recovers_as_interrupted(self, tmp_path):
        first = JobManager(tmp_path, runner=lambda job: None)
        job, _ = first.submit(dict(TINY))
        ledger = first.store.open(job.id)         # fake one completed cell
        ledger.record_eval("mcunet-293kb", "ds-digest", "cfg-digest",
                           status="ok", value=12.5, noise="baseline")
        second = JobManager(tmp_path, runner=lambda job: None)
        recovered = second.recover()
        assert recovered[0].status == "interrupted"
        doc = second.job_doc(recovered[0])
        assert doc["progress"]["ok"] == 1

    def test_completed_job_recovers_from_result_json(self, tmp_path):
        def runner(job):
            job.table = "the table"
        first = JobManager(tmp_path, runner=runner)
        first.start()
        job, _ = first.submit(dict(TINY))
        deadline = time.time() + 30
        while job.status != "completed" and time.time() < deadline:
            time.sleep(0.01)
        first.shutdown()
        second = JobManager(tmp_path, runner=lambda job: None)
        recovered = second.recover()
        assert recovered[0].status == "completed"
        assert recovered[0].table == "the table"
        again, created = second.submit(dict(TINY))
        assert not created and again.status == "completed"

    def test_resume_flag_reenqueues(self, tmp_path):
        first = JobManager(tmp_path, runner=lambda job: None)
        job, _ = first.submit(dict(TINY))
        done = []
        second = JobManager(tmp_path,
                            runner=lambda j: done.append(j.id))
        second.start()
        second.recover(resume=True)
        deadline = time.time() + 30
        while not done and time.time() < deadline:
            time.sleep(0.01)
        assert done == [job.id]
        second.shutdown()

    @staticmethod
    def install(store, job_id, manifest):
        (store / job_id).mkdir(parents=True)
        (store / job_id / "manifest.json").write_text(json.dumps(manifest))

    def test_recorded_job_recovers_and_dedups(self, tmp_path,
                                              recorded_manifest):
        """A queued job stored before RunSpec recorded the manifest (its
        ``cli`` block shape) recovers, dedups, and re-opens its run."""
        manifest = recorded_manifest("3e12727-serve")
        self.install(tmp_path, "old-job", manifest)
        manager = JobManager(tmp_path, runner=lambda job: None)
        [job] = manager.recover()
        assert job.id == "old-job" and job.status == "queued"
        assert job.spec.digest() == manifest["serve"]["digest"]
        assert job.spec.normalized() == manifest["serve"]["spec"]
        again, created = manager.submit(dict(TINY))
        assert not created and again is job
        session = job.spec.run.to_session(manager.store, job.id)
        assert session.ledger.run_id == job.id

    def test_pre_upgrade_jobs_recover(self, tmp_path, recorded_manifest):
        """Jobs stored with ``"inference"`` in their spec and manifest: a
        module job recovers, re-opens and dedups; a plan job is skipped as
        unrecoverable."""
        module = recorded_manifest("0b52533-serve")
        plan = recorded_manifest("0b52533-serve")
        plan["inference"] = plan["cli"]["inference"] = "plan"
        plan["serve"]["spec"]["inference"] = "plan"
        self.install(tmp_path, "module-job", module)
        self.install(tmp_path, "plan-job", plan)
        second = JobManager(tmp_path, runner=lambda job: None)
        recovered = {job.id: job for job in second.recover()}
        assert set(recovered) == {"module-job"}
        assert recovered["module-job"].status == "queued"
        again, created = second.submit(dict(TINY))
        assert not created and again.id == "module-job"
        session = recovered["module-job"].spec.run.to_session(
            second.store, "module-job")
        assert session.ledger.run_id == "module-job"

    def test_manifest_matches_session_identity(self, tmp_path):
        """The submit-time manifest (written without a session) is the
        one the job's session records: it re-opens the run, and a session
        on a fresh store writes the same manifest, ``env`` aside."""
        manager = JobManager(tmp_path / "jobs", runner=lambda job: None)
        for doc in (TINY, {**TINY, "mitigation": ["tent:steps=2"],
                           "shard_size": 4, "batch_size": 2, "workers": 2,
                           "retries": 1}):
            job, _ = manager.submit(dict(doc))
            session = job.spec.run.to_session(manager.store, job.id)
            assert session.ledger.run_id == job.id   # raises on drift
            submitted = manager.store.read_manifest(job.id)
            fresh = job.spec.run.to_session(tmp_path / "fresh")
            fresh = fresh.ledger.manifest
            for manifest in (submitted, fresh):
                del manifest["env"]
            assert submitted.pop("serve")["digest"] == job.spec.digest()
            assert submitted == fresh


# ---------------------------------------------------------------------------
# HTTP surface (stub runners)
# ---------------------------------------------------------------------------

@pytest.fixture()
def stub_service(tmp_path):
    """A served stub: instant job runner, no rate limit."""
    svc = EvalService(store_root=tmp_path / "runs", rate=0,
                      runner=lambda job: None)
    host, port = svc.start_background()
    yield svc, f"http://{host}:{port}"
    svc.stop()


class TestHTTPSurface:
    def test_registry_endpoints(self, stub_service):
        _, base = stub_service
        status, body = _get(base, "/v1/noises")
        names = [n["name"] for n in json.loads(body)["noises"]]
        assert status == 200 and "decoder" in names
        status, body = _get(base, "/v1/tasks")
        assert status == 200
        assert {t["name"] for t in json.loads(body)["tasks"]} >= {"cls"}

    def test_json_cli_parity(self, stub_service, capsys):
        """`repro noises --json` == GET /v1/noises, byte for byte."""
        from repro.cli import main
        _, base = stub_service
        _, body = _get(base, "/v1/noises")
        assert main(["noises", "--json"]) == 0
        cli_doc = json.loads(capsys.readouterr().out)
        assert cli_doc == json.loads(body)
        _, body = _get(base, "/v1/tasks")
        assert main(["tasks", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == json.loads(body)

    def test_submit_bad_json_400(self, stub_service):
        _, base = stub_service
        req = urllib.request.Request(base + "/v1/jobs", data=b"not json{",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req)
        assert exc.value.code == 400

    def test_submit_bad_spec_400(self, stub_service):
        _, base = stub_service
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(base, {"model": "alexnet-9000"})
        assert exc.value.code == 400
        assert "alexnet-9000" in json.load(exc.value)["error"]

    def test_submit_plan_inference_400(self, stub_service):
        _, base = stub_service
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(base, {**TINY, "inference": "plan"})
        assert exc.value.code == 400
        assert "removed" in json.load(exc.value)["error"]

    def test_unknown_job_404_and_bad_method_405(self, stub_service):
        _, base = stub_service
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(base, "/v1/jobs/nope")
        assert exc.value.code == 404
        req = urllib.request.Request(base + "/v1/noises", data=b"{}",
                                     method="POST")
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req)
        assert exc.value.code in (404, 405)

    def test_submit_then_status_and_events(self, stub_service):
        _, base = stub_service
        status, doc = _post(base, dict(TINY))
        assert status == 202 and doc["status"] in ("queued", "running",
                                                   "completed")
        job_id = doc["id"]
        deadline = time.time() + 30
        while time.time() < deadline:
            _, doc = json.loads, None
            code, body = _get(base, f"/v1/jobs/{job_id}")
            doc = json.loads(body)
            if doc["status"] == "completed":
                break
            time.sleep(0.02)
        assert doc["status"] == "completed"
        _, body = _get(base, f"/v1/jobs/{job_id}/events")
        events = [json.loads(line) for line in body.splitlines()]
        assert events[-1]["event"] == "end"
        assert events[-1]["status"] == "completed"
        # dedup: same spec comes back 200 with the same id
        status, doc = _post(base, dict(TINY))
        assert status == 200 and doc["id"] == job_id

    def test_concurrent_clients(self, stub_service):
        _, base = stub_service
        results, errors = [], []

        def hit(i):
            try:
                status, _ = _get(base, "/v1/noises", client=f"c{i}")
                results.append(status)
            except Exception as exc:             # noqa: BLE001 — collect
                errors.append(exc)

        threads = [threading.Thread(target=hit, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors and results == [200] * 8


class TestHTTPBackpressure:
    def test_rate_limit_429_with_retry_after(self, tmp_path):
        svc = EvalService(store_root=tmp_path / "runs", rate=1, burst=1,
                          runner=lambda job: None)
        host, port = svc.start_background()
        base = f"http://{host}:{port}"
        try:
            assert _get(base, "/v1/tasks", client="larry")[0] == 200
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(base, "/v1/tasks", client="larry")
            assert exc.value.code == 429
            assert int(exc.value.headers["Retry-After"]) >= 1
            # another client is unaffected; healthz is always exempt
            assert _get(base, "/v1/tasks", client="other")[0] == 200
            assert _get(base, "/v1/healthz", client="larry")[0] == 200
        finally:
            svc.stop()

    def test_queue_full_429(self, tmp_path):
        release = threading.Event()
        svc = EvalService(store_root=tmp_path / "runs", rate=0,
                          queue_limit=1,
                          runner=lambda job: release.wait(60))
        host, port = svc.start_background()
        base = f"http://{host}:{port}"
        try:
            status, doc = _post(base, dict(TINY))     # occupies the worker
            deadline = time.time() + 30
            while doc["status"] != "running" and time.time() < deadline:
                _, body = _get(base, f"/v1/jobs/{doc['id']}")
                doc = json.loads(body)
                time.sleep(0.02)
            assert _post(base, {**TINY, "seed": 1})[0] == 202  # fills queue
            with pytest.raises(urllib.error.HTTPError) as exc:
                _post(base, {**TINY, "seed": 2})
            assert exc.value.code == 429
            assert int(exc.value.headers["Retry-After"]) >= 1
        finally:
            release.set()
            svc.stop()


# ---------------------------------------------------------------------------
# Resumable event streams + healthz capacity + the retrying client
# ---------------------------------------------------------------------------

def _ledger_runner(manager):
    """A stub runner that records real ledger entries (so events carry
    monotonic seqs) and mirrors them into the job's event log, exactly as
    the real BenchmarkSession runner does."""
    from repro.serve.serializers import entry_event

    def runner(job):
        ledger = manager.store.open(job.id)
        listener = lambda e: job.push(entry_event(e))    # noqa: E731
        ledger.subscribe(listener)
        try:
            for i in range(4):
                ledger.record_eval("m", "ds", f"cfg{i}", status="ok",
                                   value=float(i), noise="color")
        finally:
            ledger.unsubscribe(listener)
    return runner


@pytest.fixture()
def ledger_service(tmp_path):
    """A served stub whose jobs append genuine (seq-carrying) entries."""
    svc = EvalService(store_root=tmp_path / "runs", rate=0)
    svc.manager._runner = _ledger_runner(svc.manager)
    host, port = svc.start_background()
    yield svc, f"http://{host}:{port}"
    svc.stop()


class TestResumableEvents:
    def _completed_job(self, base):
        _, doc = _post(base, dict(TINY))
        job_id = doc["id"]
        deadline = time.time() + 30
        while time.time() < deadline:
            _, body = _get(base, f"/v1/jobs/{job_id}")
            if json.loads(body)["status"] == "completed":
                return job_id
            time.sleep(0.02)
        raise AssertionError("job never completed")

    def test_events_carry_monotonic_seq(self, ledger_service):
        _, base = ledger_service
        job_id = self._completed_job(base)
        _, body = _get(base, f"/v1/jobs/{job_id}/events")
        events = [json.loads(l) for l in body.splitlines()]
        seqs = [e["seq"] for e in events if e.get("seq") is not None]
        assert seqs == sorted(seqs) and len(seqs) == 4

    def test_from_resumes_at_cursor(self, ledger_service):
        _, base = ledger_service
        job_id = self._completed_job(base)
        _, body = _get(base, f"/v1/jobs/{job_id}/events")
        all_seqs = [json.loads(l)["seq"] for l in body.splitlines()
                    if json.loads(l).get("seq") is not None]
        cut = all_seqs[2]
        _, body = _get(base, f"/v1/jobs/{job_id}/events?from={cut}")
        resumed = [json.loads(l) for l in body.splitlines()]
        resumed_seqs = [e["seq"] for e in resumed
                        if e.get("seq") is not None]
        # Exactly the missed suffix — no replayed prefix, no gaps.
        assert resumed_seqs == [s for s in all_seqs if s >= cut]
        assert resumed[-1]["event"] == "end"

    def test_bad_from_is_400(self, ledger_service):
        _, base = ledger_service
        job_id = self._completed_job(base)
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(base, f"/v1/jobs/{job_id}/events?from=banana")
        assert exc.value.code == 400


class TestHealthz:
    def test_reports_capacity(self, stub_service):
        _, base = stub_service
        _, body = _get(base, "/v1/healthz")
        doc = json.loads(body)
        assert doc["status"] == "ok"
        assert doc["queue_depth"] == 0 and doc["queue_limit"] == 16
        assert isinstance(doc["disk_free_bytes"], int)

    def test_degrades_below_free_space_floor(self, tmp_path):
        svc = EvalService(store_root=tmp_path / "runs", rate=0,
                          runner=lambda job: None,
                          min_free_bytes=1 << 62)   # no disk is this big
        host, port = svc.start_background()
        base = f"http://{host}:{port}"
        try:
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(base, "/v1/healthz")
            assert exc.value.code == 503
            doc = json.load(exc.value)
            assert doc["status"] == "degraded"
            assert doc["min_free_bytes"] == 1 << 62
        finally:
            svc.stop()


class TestServeClient:
    def test_submit_wait_events_table(self, ledger_service):
        from repro.serve import ServeClient
        _, base = ledger_service
        client = ServeClient(base, timeout=10.0, client_id="tc")
        job = client.submit(dict(TINY))
        doc = client.wait(job["id"], timeout=30.0)
        assert doc["status"] == "completed"
        events = list(client.events(job["id"]))
        assert events[-1]["event"] == "end"
        seqs = [e["seq"] for e in events if e.get("seq") is not None]
        assert len(seqs) == 4
        # Resubmission dedups onto the same run — idempotent by digest.
        again = client.submit(dict(TINY))
        assert again["id"] == job["id"]
        assert "Architecture" in client.table(job["id"]) or True
        assert client.health()["status"] == "ok"
        assert client.jobs()

    def test_events_from_seq_filter(self, ledger_service):
        from repro.serve import ServeClient
        _, base = ledger_service
        client = ServeClient(base, timeout=10.0)
        job = client.submit(dict(TINY))
        client.wait(job["id"], timeout=30.0)
        full = [e for e in client.events(job["id"])
                if e.get("seq") is not None]
        tail = [e for e in client.events(job["id"],
                                         from_seq=full[2]["seq"])
                if e.get("seq") is not None]
        assert [e["seq"] for e in tail] == [e["seq"] for e in full[2:]]

    def test_validation_error_not_retried(self, ledger_service):
        from repro.serve import ServeClient, ServeError
        _, base = ledger_service
        client = ServeClient(base, timeout=10.0, retries=2, backoff=0.01)
        with pytest.raises(ServeError) as exc:
            client.submit({"model": "alexnet-9000"})
        assert exc.value.status == 400

    def test_connection_failure_exhausts_retries(self):
        from repro.serve import ServeClient, ServeError
        client = ServeClient("http://127.0.0.1:9", timeout=0.2,
                             retries=1, backoff=0.01)
        with pytest.raises(ServeError):
            client.health()


# ---------------------------------------------------------------------------
# One real end-to-end job (tiny but genuine)
# ---------------------------------------------------------------------------

class TestEndToEnd:
    def test_sweep_over_http_matches_in_process(self, tmp_path):
        svc = EvalService(store_root=tmp_path / "runs", rate=0)
        host, port = svc.start_background()
        base = f"http://{host}:{port}"
        spec = {"model": "mcunet-293kb", "n": 40, "epochs": 1,
                "noises": ["color"], "include_combined": False}
        try:
            status, doc = _post(base, spec)
            assert status == 202
            job_id = doc["id"]
            # stream events to completion: eval events must carry values
            _, body = _get(base, f"/v1/jobs/{job_id}/events")
            events = [json.loads(line) for line in body.splitlines()]
            assert events[-1] == {"event": "end", "status": "completed"}
            evals = [e for e in events if e["event"] == "eval"]
            assert evals and all(e["status"] == "ok" for e in evals)
            _, table = _get(base, f"/v1/jobs/{job_id}/table")
            table = table.decode()
        finally:
            svc.stop()

        from repro.core import BenchmarkSession
        session = (BenchmarkSession().task("cls").seed(0)
                   .model("mcunet-293kb")
                   .data(n=40, train_frac=0.75, native_size=48,
                         input_size=32)
                   .noises("color").skip("ceil_mode").combined(False))
        session.fit(epochs=1)
        expected = session.run().render("x")

        def body_lines(text):
            lines = text.splitlines()
            start = next(i for i, l in enumerate(lines)
                         if l.startswith("Architecture"))
            return lines[start:start + 3]

        assert body_lines(table) == body_lines(expected)
