#!/usr/bin/env python
"""Serving-layer load generator + gates -> BENCH_serve.json.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full numbers
    PYTHONPATH=src python benchmarks/bench_serve.py --smoke    # CI gate

Five suites, all driving a real ``repro serve`` subprocess over HTTP:

latency
    Request-latency distribution (p50/p99 ms) and request throughput of
    the read API (``GET /v1/noises``), sequential and concurrent.

parity (gate)
    Submits a sweep job, streams its NDJSON events to completion, fetches
    the rendered table — and requires it **byte-identical** to the same
    sweep run in-process through ``BenchmarkSession``.  The serving layer
    must be a transport, never a second evaluation path.

throughput
    End-to-end job throughput (jobs/s) of a batch of distinct tiny sweep
    jobs vs ``--job-workers``.

restart (gate)
    SIGKILLs the server mid-job, restarts it over the same store, and
    requires the job be reported ``interrupted`` with progress counts that
    match the on-disk ledger — status from ledger replay alone, no job
    database.  A second restart with ``--resume-jobs`` must then finish
    the job from where the ledger left off.

drain (gate)
    SIGTERMs a server with one running and one queued job: the running
    job must complete during the drain (its ``result.json`` lands), the
    queued job's run directory must stay untouched on disk, and plain
    ``repro resume`` must be able to finish it afterwards.

Results are appended to ``BENCH_serve.json`` at the repo root so the
serving-layer trajectory is tracked PR over PR.  Each record carries the
affinity-aware ``cores``, the ``blas_threads`` width read back from
OpenBLAS after the harness pins it, as ``repro serve`` pins its own, and
``heap_retained`` (what ``retain_heap()`` returned; ``repro serve`` applies
the same heap policy).  Any gate failure exits non-zero — this is the CI
``serve-smoke`` job.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backend.parallel import (available_cores, blas_threads,  # noqa: E402
                                    pin_blas_threads, retain_heap)

TIMEOUT_S = 600

#: The parity job: small but a real multi-noise sweep with a combined cell.
PARITY_SPEC = {"model": "mcunet-293kb", "n": 64, "epochs": 1, "seed": 0,
               "noises": ["decoder", "color"], "include_combined": True}

#: Big enough to SIGKILL mid-sweep (1 + 3 + 10 + 1 + 2 + 1 = 18 cells).
RESTART_SPEC = {"model": "mcunet-293kb", "n": 96, "epochs": 1, "seed": 1,
                "noises": ["decoder", "resize", "color", "precision"],
                "include_combined": True}

TINY_SPEC = {"model": "mcunet-293kb", "n": 40, "epochs": 1,
             "noises": ["color"], "include_combined": False}


# ---------------------------------------------------------------------------
# Helpers: server subprocess + HTTP client
# ---------------------------------------------------------------------------

def _env() -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


class Server:
    """A ``repro serve`` subprocess; parses its bound port from stdout."""

    def __init__(self, store: Path, *extra_args: str):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--rate", "0", "--store", str(store), *extra_args],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=_env(), start_new_session=True)
        self.lines: list[str] = []
        self.base = self._await_ready()
        self._reader = threading.Thread(target=self._drain_stdout,
                                        daemon=True)
        self._reader.start()

    def _await_ready(self) -> str:
        deadline = time.time() + TIMEOUT_S
        while time.time() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise AssertionError(
                    "server exited before binding:\n" + "".join(self.lines))
            self.lines.append(line)
            match = re.search(r"serving on (http://[\w.]+:\d+)", line)
            if match:
                return match.group(1)
        raise AssertionError("timed out waiting for the server to bind")

    def _drain_stdout(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def sigterm(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=TIMEOUT_S)

    def sigkill(self) -> None:
        os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.sigterm()


def get(base: str, path: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(base + path, timeout=TIMEOUT_S) as resp:
        return resp.status, resp.read()


def post(base: str, path: str, doc: dict) -> tuple[int, dict]:
    req = urllib.request.Request(base + path,
                                 data=json.dumps(doc).encode(),
                                 headers={"Content-Type": "application/json"},
                                 method="POST")
    with urllib.request.urlopen(req, timeout=TIMEOUT_S) as resp:
        return resp.status, json.load(resp)


def job_doc(base: str, job_id: str) -> dict:
    return json.loads(get(base, f"/v1/jobs/{job_id}")[1])


def wait_status(base: str, job_id: str, *statuses: str) -> dict:
    deadline = time.time() + TIMEOUT_S
    while time.time() < deadline:
        doc = job_doc(base, job_id)
        if doc["status"] in statuses:
            return doc
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never reached {statuses} "
                         f"(last: {doc['status']})")


def table_body(text: str) -> list[str]:
    """The rendered table minus its (run-id-specific) title line."""
    lines = text.splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("Architecture"))
    return [l.rstrip() for l in lines[start:start + 3]]


def ledger_ok_count(store: Path, run_id: str) -> int:
    path = store / run_id / "ledger.jsonl"
    if not path.exists():
        return 0
    count = 0
    for line in path.read_text().splitlines():
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        count += entry.get("kind") == "eval" and entry.get("status") == "ok"
    return count


def reference_table(spec: dict) -> list[str]:
    """The same sweep, in-process — the parity baseline."""
    from repro.core import BenchmarkSession
    from repro.models import MODEL_ZOO

    zoo = {s.name: s for s in MODEL_ZOO}
    skip = () if zoo[spec["model"]].has_maxpool else ("ceil_mode",)
    session = (BenchmarkSession().task("cls").seed(spec.get("seed", 0))
               .model(spec["model"])
               .data(n=spec["n"], train_frac=0.75, native_size=48,
                     input_size=32)
               .noises(*spec["noises"]).skip(*skip)
               .combined(spec["include_combined"]))
    session.fit(epochs=spec["epochs"])
    return table_body(session.run().render("x"))


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_latency(base: str, smoke: bool) -> dict:
    n_seq = 150 if smoke else 1000
    n_threads, per_thread = (8, 25) if smoke else (16, 100)

    samples = []
    t0 = time.perf_counter()
    for _ in range(n_seq):
        t = time.perf_counter()
        status, _ = get(base, "/v1/noises")
        assert status == 200
        samples.append((time.perf_counter() - t) * 1e3)
    seq_wall = time.perf_counter() - t0

    conc_samples: list[float] = []
    errors: list[Exception] = []
    lock = threading.Lock()

    def hammer():
        local = []
        try:
            for _ in range(per_thread):
                t = time.perf_counter()
                get(base, "/v1/noises")
                local.append((time.perf_counter() - t) * 1e3)
        except Exception as exc:               # noqa: BLE001 — report below
            errors.append(exc)
        with lock:
            conc_samples.extend(local)

    threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT_S)
    conc_wall = time.perf_counter() - t0
    assert not errors, f"concurrent requests failed: {errors[0]!r}"

    result = {
        "requests": n_seq,
        "p50_ms": round(percentile(samples, 0.50), 3),
        "p99_ms": round(percentile(samples, 0.99), 3),
        "mean_ms": round(statistics.fmean(samples), 3),
        "rps": round(n_seq / seq_wall, 1),
        "concurrent": {
            "clients": n_threads,
            "requests": n_threads * per_thread,
            "p50_ms": round(percentile(conc_samples, 0.50), 3),
            "p99_ms": round(percentile(conc_samples, 0.99), 3),
            "rps": round(len(conc_samples) / conc_wall, 1),
        },
    }
    print(f"latency: p50={result['p50_ms']}ms p99={result['p99_ms']}ms "
          f"{result['rps']} req/s sequential; "
          f"{result['concurrent']['rps']} req/s with {n_threads} clients")
    return result


def suite_parity(base: str) -> dict:
    t0 = time.perf_counter()
    status, doc = post(base, "/v1/jobs", PARITY_SPEC)
    assert status == 202, f"submit returned {status}: {doc}"
    job_id = doc["id"]

    _, stream = get(base, f"/v1/jobs/{job_id}/events")
    events = [json.loads(line) for line in stream.splitlines()]
    assert events[-1] == {"event": "end", "status": "completed"}, events[-1]
    evals = [e for e in events if e["event"] == "eval"]
    assert evals and all(e["status"] == "ok" for e in evals), \
        "event stream carried failed evaluations"
    wall = time.perf_counter() - t0

    _, table = get(base, f"/v1/jobs/{job_id}/table")
    served = table_body(table.decode())
    expected = reference_table(PARITY_SPEC)
    assert served == expected, (
        "PARITY GATE FAILED — served table differs from in-process run:\n"
        + "\n".join(expected) + "\n---\n" + "\n".join(served))
    print(f"parity: served table byte-identical to in-process sweep "
          f"({len(evals)} eval events, {wall:.1f}s end-to-end)")
    return {"job_wall_s": round(wall, 2), "eval_events": len(evals),
            "byte_identical": True}


def suite_throughput(tmp: Path, smoke: bool) -> dict:
    worker_counts = (1, 2) if smoke else (1, 2, 4)
    n_jobs = 3 if smoke else 6
    rows = []
    for workers in worker_counts:
        server = Server(tmp / f"thr{workers}", "--job-workers", str(workers),
                        "--queue-limit", str(n_jobs + 1))
        try:
            t0 = time.perf_counter()
            ids = []
            for seed in range(n_jobs):
                status, doc = post(server.base, "/v1/jobs",
                                   {**TINY_SPEC, "seed": seed})
                assert status == 202, doc
                ids.append(doc["id"])
            for job_id in ids:
                doc = wait_status(server.base, job_id, "completed", "failed")
                assert doc["status"] == "completed", doc
            wall = time.perf_counter() - t0
        finally:
            server.stop()
        rows.append({"job_workers": workers, "jobs": n_jobs,
                     "wall_s": round(wall, 2),
                     "jobs_per_s": round(n_jobs / wall, 3)})
        print(f"throughput: {n_jobs} jobs @ {workers} worker(s) -> "
              f"{wall:.1f}s ({rows[-1]['jobs_per_s']} jobs/s)")
    return {"rows": rows}


def suite_restart(tmp: Path) -> dict:
    store = tmp / "restart"
    server = Server(store)
    status, doc = post(server.base, "/v1/jobs", RESTART_SPEC)
    assert status == 202, doc
    job_id = doc["id"]

    # SIGKILL the whole server group once a few cells are ledgered.
    deadline = time.time() + TIMEOUT_S
    while ledger_ok_count(store, job_id) < 3:
        if server.proc.poll() is not None:
            raise AssertionError("server died early:\n"
                                 + "".join(server.lines))
        if time.time() > deadline:
            raise AssertionError("timed out waiting for ledger entries")
        time.sleep(0.02)
    server.sigkill()
    survived = ledger_ok_count(store, job_id)
    print(f"restart: SIGKILLed server with {survived} cell(s) ledgered")

    # Gate 1: a fresh server over the same store reports the job as
    # interrupted, with progress straight from ledger replay.
    server = Server(store)
    try:
        doc = job_doc(server.base, job_id)
        assert doc["status"] == "interrupted", (
            f"RESTART GATE FAILED — expected interrupted, got "
            f"{doc['status']}")
        ok = doc["progress"]["ok"]
        assert ok == survived, (
            f"RESTART GATE FAILED — progress.ok={ok} but the ledger "
            f"holds {survived}")
        print(f"restart: restarted server reports interrupted with "
              f"{ok}/{doc['progress']['expected']} cells, from the ledger "
              f"alone")
    finally:
        server.stop()

    # Gate 2: restarting with --resume-jobs finishes the job from where
    # the ledger left off (at most the remaining cells re-execute).
    server = Server(store, "--resume-jobs")
    try:
        doc = wait_status(server.base, job_id, "completed", "failed")
        assert doc["status"] == "completed", (
            f"RESTART GATE FAILED — resumed job ended {doc['status']}: "
            f"{doc.get('error')}")
        total = ledger_ok_count(store, job_id)
        expected = doc["progress"]["expected"]
        assert total - survived <= expected - survived, "resume over-ran"
        _, table = get(server.base, f"/v1/jobs/{job_id}/table")
        assert table_body(table.decode()), "resumed table empty"
        print(f"restart: --resume-jobs completed the job "
              f"({total - survived} cell(s) re-executed, "
              f"{survived} reused)")
    finally:
        server.stop()
    return {"killed_with_ok": survived, "resumed_ok": total,
            "status_from_ledger": "interrupted"}


def suite_drain(tmp: Path) -> dict:
    store = tmp / "drain"
    server = Server(store, "--job-workers", "1")
    status, doc = post(server.base, "/v1/jobs", RESTART_SPEC)
    assert status == 202, doc
    running_id = doc["id"]
    wait_status(server.base, running_id, "running")
    status, doc = post(server.base, "/v1/jobs", {**TINY_SPEC, "seed": 9})
    assert status == 202 and doc["status"] == "queued", doc
    queued_id = doc["id"]

    t0 = time.perf_counter()
    code = server.sigterm()
    drain_wall = time.perf_counter() - t0
    assert code == 0, f"server exited {code}:\n" + "".join(server.lines)

    # The running job finished during the drain; the queued one is an
    # untouched durable run directory.
    assert (store / running_id / "result.json").exists(), (
        "DRAIN GATE FAILED — running job has no result.json after drain:\n"
        + "".join(server.lines))
    assert ledger_ok_count(store, queued_id) == 0, (
        "DRAIN GATE FAILED — queued job was executed during drain")
    assert (store / queued_id / "manifest.json").exists(), (
        "DRAIN GATE FAILED — queued job's run directory disappeared")
    print(f"drain: SIGTERM drained in {drain_wall:.1f}s; running job "
          f"completed, queued job left on disk")

    # ...and plain `repro resume` can finish the queued job.
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "resume", queued_id,
         "--store", str(store)],
        capture_output=True, text=True, timeout=TIMEOUT_S, env=_env())
    assert resumed.returncode == 0, (
        "DRAIN GATE FAILED — repro resume on the queued job failed:\n"
        + resumed.stdout + resumed.stderr)
    assert table_body(resumed.stdout), "resumed queued job printed no table"
    print("drain: queued job finished via `repro resume`")
    return {"drain_wall_s": round(drain_wall, 2),
            "queued_resumable": True}


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized workload; gates still apply")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_serve.json"))
    args = parser.parse_args(argv)
    heap_retained = retain_heap()           # as every CLI process does
    pin_blas_threads()

    import tempfile
    tmp = Path(tempfile.mkdtemp(prefix="bench-serve-"))
    print(f"workdir: {tmp}")

    record = {"timestamp": datetime.now(timezone.utc).isoformat(),
              "mode": "smoke" if args.smoke else "full",
              "cores": available_cores(), "blas_threads": blas_threads(),
              "heap_retained": heap_retained}

    server = Server(tmp / "main")
    try:
        record["latency"] = suite_latency(server.base, args.smoke)
        record["parity"] = suite_parity(server.base)
    finally:
        server.stop()
    record["throughput"] = suite_throughput(tmp, args.smoke)
    record["restart"] = suite_restart(tmp)
    record["drain"] = suite_drain(tmp)

    out = Path(args.out)
    history = []
    if out.exists():
        try:
            history = json.loads(out.read_text())
        except ValueError:
            pass
    history.append(record)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"bench_serve: PASS (record appended to {out})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
