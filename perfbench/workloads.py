"""The three workloads, each driven against the real CLI or HTTP service.

Every process starts through ``entry.py``.  A workload returns a
:class:`Outcome`: its set-up samples, one :class:`Op` per timed operation
(a ``repro run`` table, a two-worker fleet's tables, or one served job),
and, when traced, the span summaries per operation.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import refs
import spans

__all__ = ["WORKLOADS", "Launcher", "Op", "Outcome", "spec_for"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENTRY = HERE / "entry.py"
#: Upper bound on any one launched process; the benchmark must exit in 180 s.
PROC_TIMEOUT_S = 120.0
#: Run id of every run the CLI workloads create.
RUN_ID = "bench"

#: Program seeds per workload: the benchmark seed picks one (runs) or a
#: permutation of the pool (served jobs); references exist for each.
RUN_SEEDS = 4
JOB_SEEDS = 400


def spec_for(workload: str, seed: int) -> dict:
    """The run spec a workload gives the program for one program seed."""
    if workload == "table2-run":        # Table 2 geometry: the CLI defaults
        return dict(model="resnet18x0.25", n=240, train_frac=0.75, epochs=15,
                    seed=seed, noises=None, combined=True, shard_size=None)
    if workload == "sweep-fleet":       # eval-heavy: 256 images, 4 shards
        return dict(model="resnet18x0.25", n=320, train_frac=0.2, epochs=2,
                    seed=seed, noises=None, combined=True, shard_size=64)
    if workload == "serve-jobs":        # the tiny served job
        return dict(model="mcunet-293kb", n=40, train_frac=0.75, epochs=1,
                    seed=seed, noises=["color"], combined=False,
                    shard_size=None)
    raise ValueError(f"unknown workload {workload!r}")


def run_args(spec: dict) -> list[str]:
    args = ["run", "--model", spec["model"], "--n", str(spec["n"]),
            "--train-frac", str(spec["train_frac"]),
            "--epochs", str(spec["epochs"]), "--seed", str(spec["seed"])]
    if spec["noises"]:
        args += ["--noises", ",".join(spec["noises"])]
    if not spec["combined"]:
        args.append("--no-combined")
    if spec["shard_size"]:
        args += ["--shard-size", str(spec["shard_size"])]
    return args


def job_doc(spec: dict) -> dict:
    return {"model": spec["model"], "n": spec["n"],
            "train_frac": spec["train_frac"], "epochs": spec["epochs"],
            "seed": spec["seed"], "noises": spec["noises"],
            "include_combined": spec["combined"]}


# -- processes -------------------------------------------------------------------

@dataclass
class Usage:
    rc: int
    cpu_s: float
    rss_mb: float


class Launcher:
    """Starts shim processes, reaps each with its rusage, kills leftovers."""

    def __init__(self):
        self.live: dict[int, subprocess.Popen] = {}

    def start(self, argv: list[str], out, trace_dir: Path | None = None,
              ) -> subprocess.Popen:
        env = dict(os.environ)
        env.pop("PERFBENCH_TRACE_DIR", None)
        if trace_dir is not None:
            env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
        proc = subprocess.Popen([sys.executable, str(ENTRY), *argv],
                                stdout=out, stderr=subprocess.STDOUT,
                                env=env, cwd=ROOT, start_new_session=True)
        self.live[proc.pid] = proc
        return proc

    def kill(self, proc: subprocess.Popen) -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:
            pass

    def reap(self, proc: subprocess.Popen,
             timeout: float = PROC_TIMEOUT_S) -> Usage:
        """Wait for ``proc`` (killing it after ``timeout``); its rusage."""
        watchdog = threading.Timer(timeout, self.kill, (proc,))
        watchdog.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.pop(proc.pid, None)
        return Usage(proc.returncode, ru.ru_utime + ru.ru_stime,
                     ru.ru_maxrss / 1024.0)

    def stop(self, proc: subprocess.Popen) -> Usage:
        """SIGTERM (a served process drains and exits), then reap."""
        try:
            proc.send_signal(signal.SIGTERM)
        except OSError:
            pass
        return self.reap(proc, timeout=30.0)

    def close(self) -> None:
        for proc in list(self.live.values()):
            self.kill(proc)
            self.reap(proc, timeout=10.0)


# -- outcomes --------------------------------------------------------------------

@dataclass
class Op:
    """One timed operation: launch or submit until its table is verified."""

    wall_s: float
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 1
    failed: int = 0
    traced: bool = False
    duplicates: int = 0             # cells or shards its ledger holds twice
    stages: dict = field(default_factory=dict)   # serve per-job stage times


@dataclass
class Outcome:
    setup_s: list[float]
    ops: list[Op]
    phase_s: float                  # untraced phase: first op start to end
    cpu_s: float | None = None      # server CPU per job; None: per-op CPU
    rss_mb: float | None = None     # server peak RSS; None: per-op RSS
    traces: list[dict] = field(default_factory=list)   # merged per op
    reference: str = "recorded"
    notes: list[str] = field(default_factory=list)


def _trace_summary(directory: Path) -> dict:
    """Merged span summary of one operation's traced processes.

    ``overlap`` is the largest, over processes, of self times plus
    unattributed time minus wall time: 0 when each instant is attributed
    once, positive where spans on concurrent threads overlap.
    """
    summaries = [spans.process_summary(json.loads(p.read_text()))
                 for p in sorted(directory.glob("*.json"))]
    merged = spans.merge_summaries(summaries)
    merged["processes"] = len(summaries)
    merged["overlap"] = max(
        (sum(s["self"].values()) + s["unattributed"] - s["wall"]
         for s in summaries), default=0.0)
    return merged


def _phases(seconds: float, trace: bool) -> list[tuple[bool, float]]:
    """Timed phases: the whole run untraced, or half untraced, half traced."""
    return [(False, seconds / 2), (True, seconds / 2)] if trace \
        else [(False, seconds)]


def _closed_loop(deadline_s: float, op) -> list:
    """Call ``op(i)`` back to back until ``deadline_s`` passes (at least once)."""
    out = []
    end = time.perf_counter() + deadline_s
    while not out or time.perf_counter() < end:
        out.append(op(len(out)))
    return out


class _References:
    """Recorded references for this host, computed in-process when absent."""

    def __init__(self, workload: str, key: str):
        self.workload = workload
        self.recorded = refs.load(workload, key)
        self.computed = 0

    def get(self, seed: int) -> dict:
        if seed not in self.recorded:
            self.recorded[seed] = refs.compute(spec_for(self.workload, seed))
            self.computed += 1
        return self.recorded[seed]

    def source(self) -> str:
        return (f"computed in-process for {self.computed} seed(s): no "
                f"reference recorded for this host" if self.computed
                else "recorded")


def _run_faults(text: str, faults: dict, ref: dict, rc: int,
                ) -> tuple[int, str]:
    """Failed cells of one run and why: errors, conflicts, wrong table."""
    failed = faults["errors"] + faults["conflicts"] + faults["corrupt"]
    failed += max(0, ref["cells"] - faults["cells"])
    why = f"ledger {faults}" if failed else ""
    if rc != 0 or refs.table_body(text) != ref["table"]:
        failed = ref["cells"]
        why = (f"exit code {rc}" if rc != 0 else
               f"table {refs.table_body(text)} differs from the reference")
    return min(failed, ref["cells"]), why


def _cli_runs(workload: str, seed: int, seconds: float, trace: bool,
              work: Path, launcher: Launcher, key: str, setup: list[float],
              argv, processes: int, template: Path | None = None) -> Outcome:
    """Timed closed loop of CLI operations, each verified afterwards.

    One operation launches ``processes`` copies of ``argv(spec, store)`` on
    a fresh store (a copy of ``template`` when given) and waits for all of
    them; every process must print the reference table, and the run's
    ledger must hold every cell, without errors or conflicting entries.
    """
    spec = spec_for(workload, seed % RUN_SEEDS)
    ops, traces, results = [], [], []
    phase_s = 0.0
    for traced, budget in _phases(seconds, trace):
        def op(i, traced=traced):
            store = work / f"{'t' if traced else 'u'}{i}"
            if template is not None:
                shutil.copytree(template, store)
            tdir = work / f"{store.name}-trace"
            if traced:
                tdir.mkdir()
            logs = [work / f"{store.name}-p{k}.log" for k in range(processes)]
            t0 = time.perf_counter()
            procs = []
            for log in logs:
                with open(log, "wb") as out:
                    procs.append(launcher.start(argv(spec, store), out,
                                                tdir if traced else None))
            usages = [launcher.reap(p) for p in procs]
            wall = time.perf_counter() - t0
            results.append((logs, store / RUN_ID / "ledger.jsonl",
                            [u.rc for u in usages]))
            if traced:
                traces.append(_trace_summary(tdir))
            return Op(wall, sum(u.cpu_s for u in usages),
                      max(u.rss_mb for u in usages), traced=traced)
        t0 = time.perf_counter()
        ops += _closed_loop(budget, op)
        if not traced:
            phase_s = time.perf_counter() - t0
    references = _References(workload, key)
    ref = references.get(spec["seed"])
    notes = []
    for i, (op_, (logs, ledger, rcs)) in enumerate(zip(ops, results)):
        op_.attempted = ref["cells"]
        faults = refs.ledger_faults(ledger)
        op_.duplicates = faults["duplicates"]
        checks = [_run_faults(log.read_text(errors="replace"), faults, ref, rc)
                  for log, rc in zip(logs, rcs)]
        op_.failed, why = max(checks)
        if op_.failed:
            notes.append(f"operation {i}: {op_.failed} failed cell(s): {why}")
    return Outcome(setup, ops, phase_s, traces=traces,
                   reference=references.source(), notes=notes)


def _setup(launcher: Launcher, work: Path, argv_list) -> list[float]:
    """Seconds of each set-up process; a failing one aborts the benchmark."""
    times = []
    for i, argv in enumerate(argv_list):
        log = work / f"setup{i}.log"
        t0 = time.perf_counter()
        with open(log, "wb") as out:
            usage = launcher.reap(launcher.start(argv, out))
        times.append(time.perf_counter() - t0)
        if usage.rc != 0:
            raise RuntimeError(f"set-up {argv} failed:\n{log.read_text()}")
    return times



def table2_run(seed: int, seconds: float, trace: bool, work: Path,
               launcher: Launcher, key: str) -> Outcome:
    """Serial ``repro run`` at Table 2 geometry, back to back.

    Set-up is a fresh interpreter importing ``repro.cli``, nine times.
    """
    setup = _setup(launcher, work, [["--import-only"]] * 9)
    return _cli_runs(
        "table2-run", seed, seconds, trace, work, launcher, key, setup,
        lambda spec, store: run_args(spec) + ["--store", str(store),
                                              "--run-id", RUN_ID], 1)


def sweep_fleet(seed: int, seconds: float, trace: bool, work: Path,
                launcher: Launcher, key: str) -> Outcome:
    """Two ``repro worker`` processes racing over one prepared run.

    Set-up is ``repro run --prepare-only`` (train and checkpoint), three
    times; every operation starts from a copy of the first prepared run.
    """
    spec = spec_for("sweep-fleet", seed % RUN_SEEDS)
    setup = _setup(launcher, work, [
        run_args(spec) + ["--store", str(work / f"prep{i}"), "--run-id",
                          RUN_ID, "--prepare-only"] for i in range(3)])
    return _cli_runs(
        "sweep-fleet", seed, seconds, trace, work, launcher, key, setup,
        lambda spec, store: ["worker", RUN_ID, "--store", str(store)], 2,
        template=work / "prep0")


# -- serve-jobs --------------------------------------------------------------------

class _Server:
    """A ``repro serve`` process; ``ready_s`` is spawn until its port prints."""

    PORT_RE = re.compile(rb"serving on http://([\w.]+):(\d+)")

    def __init__(self, launcher: Launcher, store: Path,
                 trace_dir: Path | None = None):
        self.launcher = launcher
        t0 = time.perf_counter()
        self.proc = launcher.start(
            ["serve", "--port", "0", "--rate", "0", "--job-workers", "2",
             "--queue-limit", "16", "--store", str(store)],
            subprocess.PIPE, trace_dir)
        self.lines: list[bytes] = []
        self.host = self.port = None
        # A server that never binds is killed, which ends the read below.
        watchdog = threading.Timer(60.0, launcher.kill, (self.proc,))
        watchdog.start()
        while self.port is None:
            line = self.proc.stdout.readline()
            if not line:
                break
            self.lines.append(line)
            match = self.PORT_RE.search(line)
            if match:
                self.host, self.port = match.group(1).decode(), \
                    int(match.group(2))
        watchdog.cancel()
        self.ready_s = time.perf_counter() - t0
        self._drain = threading.Thread(target=self._read_rest, daemon=True)
        self._drain.start()
        if self.port is None:
            self.stop()
            raise RuntimeError("server never bound a port:\n"
                               + b"".join(self.lines).decode(errors="replace"))

    def _read_rest(self) -> None:
        for line in self.proc.stdout:
            self.lines.append(line)

    def cpu_s(self) -> float:
        """User+system CPU of the live server so far (all its threads)."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text() \
            .rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def request(self, method: str, path: str, doc: dict | None = None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            body = json.dumps(doc).encode() if doc is not None else None
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stream_end(self, job_id: str) -> str | None:
        """Read the job's NDJSON event stream to its ``end`` event."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            resp = conn.getresponse()
            for raw in resp:
                raw = raw.strip()
                if raw:
                    event = json.loads(raw)
                    if event.get("event") == "end":
                        return event.get("status")
            return None
        finally:
            conn.close()

    def stop(self) -> Usage:
        usage = self.launcher.stop(self.proc)
        self._drain.join(timeout=10.0)
        self.proc.stdout.close()
        return usage


def _one_job(server: _Server, spec: dict) -> tuple[Op, dict]:
    t_wall0 = time.time()
    t0 = time.perf_counter()
    status, body = server.request("POST", "/v1/jobs", job_doc(spec))
    t1 = time.perf_counter()
    if status != 202:
        return Op(time.perf_counter() - t0, failed=1), \
            {"why": f"submit answered {status}"}
    job_id = json.loads(body)["id"]
    end_status = server.stream_end(job_id)
    t2 = time.perf_counter()
    status, table = server.request("GET", f"/v1/jobs/{job_id}/table")
    t3 = time.perf_counter()
    t_wall3 = time.time()
    op = Op(t3 - t0)
    _, doc = server.request("GET", f"/v1/jobs/{job_id}")
    doc = json.loads(doc)
    got = {"table": refs.table_body(table.decode(errors="replace"))}
    if end_status != "completed" or status != 200:
        op.failed = 1
        got["why"] = f"job ended {end_status!r}, table answered {status}"
    op.stages = {"submit_ms": (t1 - t0) * 1e3, "table_ms": (t3 - t2) * 1e3}
    if doc.get("started") and doc.get("finished"):
        op.stages.update(queue_wait_s=doc["started"] - t_wall0,
                         job_run_s=doc["finished"] - doc["started"],
                         delivery_s=t_wall3 - doc["finished"])
    return op, got


def _clients(server: _Server, seeds: list[int], budget: float, traced: bool):
    """Two closed-loop clients: submit, stream to end, fetch the table."""
    lock = threading.Lock()
    done: list[tuple[int, Op, dict]] = []
    errors: list[BaseException] = []
    end = time.perf_counter() + budget

    def client():
        try:
            while time.perf_counter() < end:
                with lock:
                    if not seeds:
                        return
                    seed = seeds.pop()
                op, got = _one_job(server, spec_for("serve-jobs", seed))
                op.traced = traced
                with lock:
                    done.append((seed, op, got))
        except BaseException as exc:          # reported, never swallowed
            errors.append(exc)

    threads = [threading.Thread(target=client) for _ in range(2)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=PROC_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a serve client is still waiting on its job")
    if errors:
        raise RuntimeError(f"serve client failed: {errors[0]!r}")
    return done, elapsed


def serve_jobs(seed: int, seconds: float, trace: bool, work: Path,
               launcher: Launcher, key: str) -> Outcome:
    """``repro serve --job-workers 2`` under two closed-loop clients."""
    setup = []
    server = None
    for i in range(3):
        if server is not None:
            server.stop()
        server = _Server(launcher, work / f"srv{i}")
        setup.append(server.ready_s)
    start = (seed * 97) % JOB_SEEDS
    seeds = [(start + i) % JOB_SEEDS for i in range(JOB_SEEDS)][::-1]
    done, traces = [], []
    phase_s = cpu_s = rss_mb = 0.0
    for traced, budget in _phases(seconds, trace):
        if traced:
            server.stop()
            tdir = work / "serve-trace"
            tdir.mkdir()
            server = _Server(launcher, work / "srv-traced", tdir)
        cpu0 = server.cpu_s()
        got, elapsed = _clients(server, seeds, budget, traced)
        if not traced:
            phase_s = elapsed
            cpu_s = (server.cpu_s() - cpu0) / max(1, len(got))
            rss_mb = server.peak_rss_mb()
        done += got
        if traced:
            server.stop()
            summary = _trace_summary(tdir)
            summary["jobs"] = len(got)
            traces.append(summary)
    if server.proc.returncode is None:
        server.stop()
    references = _References("serve-jobs", key)
    ops, notes = [], []
    for job_seed, op, got in done:
        if not op.failed and got["table"] != references.get(job_seed)["table"]:
            op.failed = 1
            got["why"] = f"table {got['table']} differs from the reference"
        if op.failed:
            notes.append(f"job with seed {job_seed}: {got['why']}")
        ops.append(op)
    return Outcome(setup, ops, phase_s, cpu_s=cpu_s, rss_mb=rss_mb,
                   traces=traces, reference=references.source(), notes=notes)


WORKLOADS = {"table2-run": table2_run, "sweep-fleet": sweep_fleet,
             "serve-jobs": serve_jobs}
