"""Chaos smoke test: the fault-injection matrix, end to end (CI chaos job).

Each scenario prepares a real run (``repro run --prepare-only``), attaches
``repro worker`` processes sharing the run directory, and arms one (or all)
of them with a deterministic ``REPRO_FAULTS`` plan:

* **crash** — a worker ``os._exit``\\ s mid-shard (``sweep.shard`` crash);
  the clean worker finishes the byte-identical table.
* **hang** — a worker stalls inside a shard *and* its lease heartbeat
  threads stall (``workqueue.heartbeat`` hang), simulating SIGSTOP; the
  clean worker reclaims the expired lease and finishes.
* **torn write** — a worker dies mid-ledger-append (``runstore.append``
  torn_write), leaving a newline-less fragment; the clean worker heals it
  and finishes.
* **poison** — *every* worker's evaluation of the int8 cells raises
  (``sweep.cell`` raise); after the claim budget the cell is quarantined
  as a structured failure and the sweep still completes.
* **bitrot** — a worker's append is silently corrupted on disk
  (``runstore.append`` bitrot); the CRC refutes it on replay, ``repro
  fsck --repair`` quarantines it, and ``repro resume`` re-executes only
  the lost cell to the reference table.
* **compact under load** — a compactor loops :meth:`RunLedger.compact`
  while two workers sweep the same run; rotation-safe appends and the
  fold protocol keep every entry, and the final replay restores the
  reference table with zero re-execution.
* **kill during compaction** — a compactor is crashed at the ``rotate``
  and ``publish`` fault points; replay merges the orphaned fold,
  ``fsck --repair`` finishes the recovery, and resume renders the
  reference table.

Pass criteria, checked per scenario against an uninterrupted serial
reference: surviving workers exit 0, injected crashes exit with
``CRASH_EXIT_CODE``, the final table (or per-cell values) matches the
reference, and no eval cell or (config, shard bounds) pair is ledgered
twice.  Exit status 0 on success.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from crash_resume_smoke import (duplicated_evals, duplicated_shards,
                                ok_entries, repro, shard_entries, table_body,
                                _entries)

CRASH_EXIT_CODE = 23                           # repro.core.faults contract
MODEL = "mcunet-293kb"
ARGS = ["--model", MODEL, "--n", "96", "--epochs", "2",
        "--train-frac", "0.75", "--seed", "0",
        "--noises", "decoder,precision", "--batch-size", "4"]
SHARDED = [*ARGS, "--shard-size", "4"]
TIMEOUT_S = 600


def worker(store: Path, run_id: str, log, faults=None,
           lease_ttl: float = 2.0) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", run_id,
         "--store", str(store), "--lease-ttl", str(lease_ttl)],
        stdout=log, stderr=subprocess.STDOUT, env=env,
        start_new_session=True)


def prepare(store: Path, run_id: str, argv: list[str]) -> Path:
    prep = repro("run", *argv, "--store", str(store), "--run-id", run_id,
                 "--prepare-only")
    assert prep.returncode == 0, \
        f"prepare failed:\n{prep.stdout}\n{prep.stderr}"
    return store / run_id / "ledger.jsonl"


def wait_until(predicate, what: str, procs=()) -> None:
    deadline = time.time() + TIMEOUT_S
    while not predicate():
        if time.time() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        if procs and all(p.poll() is not None for p in procs):
            raise AssertionError(f"all workers exited waiting for {what}")
        time.sleep(0.02)


def no_double_execution(ledger: Path) -> None:
    dup_s = duplicated_shards(ledger)
    dup_e = duplicated_evals(ledger)
    assert not dup_s, f"shard(s) ledgered twice: {dup_s}"
    assert not dup_e, f"eval cell(s) ledgered twice: {dup_e}"


def corrupt_lines(ledger: Path) -> int:
    bad = 0
    for line in ledger.read_bytes().split(b"\n"):
        if not line.strip():
            continue
        try:
            json.loads(line)
        except ValueError:
            bad += 1
    return bad


def scenario_crash(tmp: Path, ref_table: list[str], total: int) -> None:
    print("\n--- scenario: crash mid-shard ---")
    store = tmp / "crash"
    ledger = prepare(store, "run", SHARDED)
    with open(tmp / "crash-faulty.log", "w") as flog, \
         open(tmp / "crash-clean.log", "w+") as clog:
        faulty = worker(store, "run", flog, faults=[
            {"point": "sweep.shard", "op": "crash", "at": 3}])
        wait_until(lambda: shard_entries(ledger) >= 1,
                   "the faulty worker's first shard", (faulty,))
        clean = worker(store, "run", clog)
        try:
            assert faulty.wait(timeout=TIMEOUT_S) == CRASH_EXIT_CODE, \
                "injected crash did not exit with CRASH_EXIT_CODE"
            print(f"faulty worker crashed (exit {CRASH_EXIT_CODE}) as armed")
            assert clean.wait(timeout=TIMEOUT_S) == 0, "clean worker failed"
        finally:
            for p in (faulty, clean):
                if p.poll() is None:
                    os.killpg(p.pid, signal.SIGKILL)
                    p.wait()
        clog.seek(0)
        table = table_body(clog.read())
    assert table == ref_table, ("table diverged after crash:\n"
                                + "\n".join(ref_table) + "\n---\n"
                                + "\n".join(table))
    assert ok_entries(ledger) == total
    no_double_execution(ledger)
    print("clean worker absorbed the crash; table identical, no recompute")


def scenario_hang_reclaim(tmp: Path, ref_table: list[str],
                          total: int) -> None:
    print("\n--- scenario: hang + lease reclaim ---")
    store = tmp / "hang"
    ledger = prepare(store, "run", SHARDED)
    leases = store / "run" / "leases"
    with open(tmp / "hang-faulty.log", "w") as flog, \
         open(tmp / "hang-clean.log", "w+") as clog:
        # Stall the first shard *and* every heartbeat: the worker sits on
        # a live lease file whose mtime goes stale — exactly a SIGSTOP.
        faulty = worker(store, "run", flog, faults=[
            {"point": "sweep.shard", "op": "hang", "at": 1,
             "seconds": TIMEOUT_S},
            {"point": "workqueue.heartbeat", "op": "hang", "at": 1,
             "every": 1, "seconds": TIMEOUT_S}])
        wait_until(lambda: leases.exists()
                   and any(p.suffix == ".lease" for p in leases.iterdir()),
                   "the faulty worker's lease", (faulty,))
        clean = worker(store, "run", clog)
        try:
            assert clean.wait(timeout=TIMEOUT_S) == 0, "clean worker failed"
            assert faulty.poll() is None, \
                "hung worker exited; the hang rules did not hold it"
        finally:
            for p in (faulty, clean):
                if p.poll() is None:
                    os.killpg(p.pid, signal.SIGKILL)
                    p.wait()
        clog.seek(0)
        table = table_body(clog.read())
    assert table == ref_table, ("table diverged after hang:\n"
                                + "\n".join(ref_table) + "\n---\n"
                                + "\n".join(table))
    assert ok_entries(ledger) == total
    no_double_execution(ledger)
    print("clean worker reclaimed the hung worker's expired lease; "
          "table identical, no recompute")


def scenario_torn_write(tmp: Path, ref_table: list[str], total: int) -> None:
    print("\n--- scenario: torn ledger write ---")
    store = tmp / "torn"
    ledger = prepare(store, "run", ARGS)       # unsharded: eval appends only
    with open(tmp / "torn-faulty.log", "w") as flog, \
         open(tmp / "torn-clean.log", "w+") as clog:
        faulty = worker(store, "run", flog, faults=[
            {"point": "runstore.append", "op": "torn_write", "at": 2}])
        wait_until(lambda: ok_entries(ledger) >= 1,
                   "the faulty worker's first eval", (faulty,))
        clean = worker(store, "run", clog)
        try:
            assert faulty.wait(timeout=TIMEOUT_S) == CRASH_EXIT_CODE, \
                "torn write did not kill the writer mid-append"
            print("faulty worker died mid-append, torn line on disk")
            assert clean.wait(timeout=TIMEOUT_S) == 0, "clean worker failed"
        finally:
            for p in (faulty, clean):
                if p.poll() is None:
                    os.killpg(p.pid, signal.SIGKILL)
                    p.wait()
        clog.seek(0)
        table = table_body(clog.read())
    assert table == ref_table, ("table diverged after torn write:\n"
                                + "\n".join(ref_table) + "\n---\n"
                                + "\n".join(table))
    assert corrupt_lines(ledger) >= 1, \
        "expected the healed torn fragment to survive as a corrupt line"
    assert ok_entries(ledger) == total
    no_double_execution(ledger)
    print("clean worker healed the torn line; table identical")


def scenario_poison(tmp: Path, ref_ledger: Path) -> None:
    print("\n--- scenario: poison quarantine ---")
    store = tmp / "poison"
    ledger = prepare(store, "run", ARGS)
    plan = [{"point": "sweep.cell", "op": "raise", "at": 1, "every": 1,
             "match": "int8"}]
    with open(tmp / "poison-w0.log", "w") as log0, \
         open(tmp / "poison-w1.log", "w") as log1:
        team = [worker(store, "run", log0, faults=plan),
                worker(store, "run", log1, faults=plan)]
        try:
            codes = [p.wait(timeout=TIMEOUT_S) for p in team]
        finally:
            for p in team:
                if p.poll() is None:
                    os.killpg(p.pid, signal.SIGKILL)
                    p.wait()
    assert codes == [0, 0], f"workers failed under poison plan: {codes}"
    evals = [e for e in _entries(ledger) if e.get("kind") == "eval"]
    failed = [e for e in evals if e.get("status") != "ok"]
    assert failed, "no cell was quarantined"
    assert all("poisoned" in str(e.get("error")) for e in failed), \
        f"unexpected failure modes: {failed}"
    assert all("int8" in str(e.get("label")) for e in failed), \
        f"poison leaked beyond the int8 cells: {failed}"
    # Surviving cells carry the exact reference values.
    ref_values = {e["cfg"]: e["value"] for e in _entries(ref_ledger)
                  if e.get("kind") == "eval" and e.get("status") == "ok"}
    for e in evals:
        if e.get("status") == "ok":
            assert e["value"] == ref_values[e["cfg"]], \
                f"clean cell diverged from reference: {e}"
    no_double_execution(ledger)
    print(f"{len(failed)} int8 cell(s) quarantined after the claim budget; "
          f"all other cells match the reference exactly")


#: One-shot compactor child (argv: store root, run id).  Used both clean
#: (looping, for compaction under live workers) and armed with a crash
#: plan at the ``runstore.compact`` fault points.
COMPACT_ONCE = """\
import sys
from repro.core import RunStore
RunStore(sys.argv[1]).open(sys.argv[2]).compact(ttl=float(sys.argv[3]))
"""

COMPACT_LOOP = """\
import sys, time
from repro.core import RunStore
ledger = RunStore(sys.argv[1]).open(sys.argv[2])
while True:
    ledger.compact(ttl=float(sys.argv[3]))
    time.sleep(0.05)
"""


def compactor(script: str, store: Path, run_id: str, log,
              ttl: float = 2.0, faults=None) -> subprocess.Popen:
    env = dict(os.environ)
    env.pop("REPRO_FAULTS", None)
    if faults is not None:
        env["REPRO_FAULTS"] = json.dumps(faults)
    return subprocess.Popen(
        [sys.executable, "-c", script, str(store), run_id, str(ttl)],
        stdout=log, stderr=subprocess.STDOUT, env=env,
        start_new_session=True)


def scenario_bitrot(tmp: Path, ref_table: list[str]) -> None:
    print("\n--- scenario: bitrot mid-ledger ---")
    store = tmp / "bitrot"
    prepare(store, "run", ARGS)
    with open(tmp / "bitrot-worker.log", "w+") as log:
        faulty = worker(store, "run", log, faults=[
            {"point": "runstore.append", "op": "bitrot", "at": 2}])
        try:
            # Bitrot is *silent*: the worker survives and renders the right
            # table from memory — only the disk is rotten.
            assert faulty.wait(timeout=TIMEOUT_S) == 0, \
                "bitrot should not kill the writer"
        finally:
            if faulty.poll() is None:
                os.killpg(faulty.pid, signal.SIGKILL)
                faulty.wait()
        log.seek(0)
        table = table_body(log.read())
    assert table == ref_table, "the writer's own table should be unharmed"
    check = repro("fsck", "run", "--store", str(store))
    assert check.returncode == 1, \
        f"fsck missed the bitrot:\n{check.stdout}"
    assert "ledger-corrupt" in check.stdout, check.stdout
    print("fsck detected the CRC-refuted line (exit 1)")
    fix = repro("fsck", "run", "--store", str(store), "--repair")
    assert fix.returncode == 0, f"repair failed:\n{fix.stdout}"
    assert (store / "run" / "quarantine.jsonl").exists(), \
        "corrupt line was not preserved in quarantine.jsonl"
    again = repro("fsck", "run", "--store", str(store), "--repair")
    assert again.returncode == 0 and "repaired:" not in again.stdout, \
        f"repair is not idempotent:\n{again.stdout}"
    resume = repro("resume", "run", "--store", str(store))
    assert resume.returncode == 0, f"resume failed:\n{resume.stdout}"
    table = table_body(resume.stdout)
    assert table == ref_table, ("table diverged after bitrot repair:\n"
                                + "\n".join(ref_table) + "\n---\n"
                                + "\n".join(table))
    final = repro("fsck", "run", "--store", str(store))
    assert final.returncode == 0 and "clean" in final.stdout, final.stdout
    print("repair quarantined the rotten entry (idempotently); resume "
          "re-executed the lost cell to the identical table")


def scenario_compact_live(tmp: Path, ref_table: list[str],
                          total: int) -> None:
    print("\n--- scenario: compaction under concurrent workers ---")
    store = tmp / "compact-live"
    ledger = prepare(store, "run", SHARDED)
    with open(tmp / "compact-live-w0.log", "w+") as log0, \
         open(tmp / "compact-live-w1.log", "w+") as log1, \
         open(tmp / "compact-live-compactor.log", "w") as clog:
        team = [worker(store, "run", log0), worker(store, "run", log1)]
        comp = compactor(COMPACT_LOOP, store, "run", clog)
        try:
            codes = [p.wait(timeout=TIMEOUT_S) for p in team]
            assert codes == [0, 0], f"workers failed under compaction: {codes}"
        finally:
            for p in (*team, comp):
                if p.poll() is None:
                    os.killpg(p.pid, signal.SIGKILL)
                    p.wait()
        for log in (log0, log1):
            log.seek(0)
            table = table_body(log.read())
            assert table == ref_table, \
                ("table diverged under live compaction:\n"
                 + "\n".join(ref_table) + "\n---\n" + "\n".join(table))
    # The raw-ledger helpers are blind post-compaction (entries live in
    # the snapshot): verify through replay instead.
    assert (store / "run" / "snapshot.json").exists(), \
        "the concurrent compactor never published a snapshot"
    fix = repro("fsck", "run", "--store", str(store), "--repair",
                "--lease-ttl", "1")
    assert fix.returncode == 0, f"post-run fsck failed:\n{fix.stdout}"
    resume = repro("resume", "run", "--store", str(store))
    assert resume.returncode == 0, f"resume failed:\n{resume.stdout}"
    assert f"{total} evaluation(s) restored" in resume.stdout \
        and "0 re-executed" in resume.stdout, \
        f"compaction lost entries:\n{resume.stdout}"
    table = table_body(resume.stdout)
    assert table == ref_table, "replay after compaction diverged"
    print("both workers and a post-compaction replay render the identical "
          "table; nothing was lost or recomputed")


def scenario_kill_compaction(tmp: Path, ref_table: list[str],
                             total: int) -> None:
    for label in ("rotate", "publish"):
        print(f"\n--- scenario: kill during compaction ({label}) ---")
        store = tmp / f"kill-compact-{label}"
        run = repro("run", *ARGS, "--store", str(store), "--run-id", "run")
        assert run.returncode == 0, f"setup run failed:\n{run.stdout}"
        with open(tmp / f"kill-compact-{label}.log", "w") as clog:
            comp = compactor(COMPACT_ONCE, store, "run", clog, ttl=1.0,
                             faults=[{"point": "runstore.compact",
                                      "op": "crash", "at": 1,
                                      "match": label}])
            assert comp.wait(timeout=TIMEOUT_S) == CRASH_EXIT_CODE, \
                f"compactor did not crash at {label}"
        check = repro("fsck", "run", "--store", str(store))
        assert check.returncode == 1, \
            f"fsck missed the interrupted compaction:\n{check.stdout}"
        assert "fold-pending" in check.stdout, check.stdout
        print(f"compactor crashed after {label}; fsck flags the orphaned "
              f"fold (exit 1)")
        time.sleep(1.2)                # let the dead compactor's lease lapse
        fix = repro("fsck", "run", "--store", str(store), "--repair",
                    "--lease-ttl", "1")
        assert fix.returncode == 0, f"repair failed:\n{fix.stdout}"
        final = repro("fsck", "run", "--store", str(store))
        assert final.returncode == 0 and "clean" in final.stdout, \
            f"repair did not finish the recovery:\n{final.stdout}"
        resume = repro("resume", "run", "--store", str(store))
        assert resume.returncode == 0, f"resume failed:\n{resume.stdout}"
        assert f"{total} evaluation(s) restored" in resume.stdout \
            and "0 re-executed" in resume.stdout, \
            f"interrupted compaction lost entries:\n{resume.stdout}"
        table = table_body(resume.stdout)
        assert table == ref_table, \
            (f"table diverged after {label} crash:\n"
             + "\n".join(ref_table) + "\n---\n" + "\n".join(table))
        print("repair completed the fold; every entry restored, table "
              "identical")


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="chaos-smoke-"))
    print(f"workdir: {tmp} (removed on exit)")
    try:
        return smoke(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def smoke(tmp: Path) -> int:
    ref = repro("run", *ARGS, "--store", str(tmp / "ref"), "--run-id", "ref")
    assert ref.returncode == 0, \
        f"reference run failed:\n{ref.stdout}\n{ref.stderr}"
    ref_table = table_body(ref.stdout)
    ref_ledger = tmp / "ref" / "ref" / "ledger.jsonl"
    total = ok_entries(ref_ledger)
    print(f"reference run complete: {total} evaluations")

    scenario_crash(tmp, ref_table, total)
    scenario_hang_reclaim(tmp, ref_table, total)
    scenario_torn_write(tmp, ref_table, total)
    scenario_poison(tmp, ref_ledger)
    scenario_bitrot(tmp, ref_table)
    scenario_compact_live(tmp, ref_table, total)
    scenario_kill_compaction(tmp, ref_table, total)
    print("\nchaos smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
