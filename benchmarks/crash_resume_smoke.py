"""Crash-resume smoke test for the RunStore ledger (CI perf-smoke step).

Scenario, end to end through the real CLI:

1. Run an *uninterrupted* ``repro run`` as the reference table.
2. Start the same run (same seed) against a fresh store with a 2-worker
   process-mode sweep, wait until the ledger shows a few completed
   evaluations, and SIGKILL the whole process group mid-sweep.
3. ``repro resume`` the killed run.
4. Repeat the kill+resume against a *sharded* run (``--shard-size``, ≥4
   shards per cell, (variant × shard) process scheduling), killing as soon
   as a few per-**shard** ledger entries exist — i.e. mid-dataset, inside
   a cell.
5. Fault-tolerant shared mode: ``repro run --prepare-only`` the same
   sharded run, launch **three** ``repro worker`` processes against it
   (``--lease-ttl 2``), SIGKILL one mid-shard, SIGSTOP another while it
   holds live leases, and let the survivor reclaim and finish.
6. Mitigation sweep: a sharded 2-worker ``--mitigate tent`` run is
   SIGKILLed mid-TENT-sweep; ``repro resume`` must reproduce the
   robustness-vs-mitigation table byte-for-byte, with mitigation identity
   enforced by the ledger (a resume with a *different* ``--mitigate``
   exits 2 instead of reusing cells).

Pass criteria (the ISSUE's acceptance bar):

* every resumed table is **bit-identical** to the uninterrupted one,
* the unsharded resume re-executed **at most the remaining** evaluations —
  verified by ledger entry counts, not by trusting the CLI's own summary,
* the sharded resume recomputed **no ledgered shard**: no (config, shard
  bounds) pair appears twice in the final ledger,
* the surviving shared-mode worker's table is bit-identical to the serial
  reference, with no (config, shard bounds) pair *or* eval cell ledgered
  twice — the lease protocol, not luck, divided the work,
* the resumed mitigation sweep renders both rows (clean + ``+tent``)
  byte-identically, no eval cell or shard ledgered twice across the
  mitigated grid, and a mismatched ``--mitigate`` on resume is refused.

Exit status 0 on success; any assertion failure exits non-zero.
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

MODEL = "mcunet-293kb"
NOISES = "decoder,resize,color,precision"
ARGS = ["--model", MODEL, "--n", "96", "--epochs", "2",
        "--train-frac", "0.75", "--seed", "0", "--noises", NOISES]
#: baseline + 3 decoder + 10 resize + color + 2 precision + combined
KILL_AFTER_OK = 3
TIMEOUT_S = 600


def repro(*argv: str, **kw) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          capture_output=True, text=True, timeout=TIMEOUT_S,
                          **kw)


def _entries(ledger: Path) -> list[dict]:
    if not ledger.exists():
        return []
    out = []
    for line in ledger.read_text().splitlines():
        try:
            out.append(json.loads(line))
        except ValueError:
            continue
    return out


def ok_entries(ledger: Path) -> int:
    return sum(e.get("kind") == "eval" and e.get("status") == "ok"
               for e in _entries(ledger))


def shard_entries(ledger: Path) -> int:
    return sum(e.get("kind") == "shard" for e in _entries(ledger))


def duplicated_shards(ledger: Path) -> list[tuple]:
    """(cfg digest, bounds) pairs ledgered more than once = recomputed."""
    seen: dict[tuple, int] = {}
    for e in _entries(ledger):
        if e.get("kind") == "shard":
            key = (e.get("cfg"), tuple(e.get("shard", ())))
            seen[key] = seen.get(key, 0) + 1
    return [k for k, n in seen.items() if n > 1]


def duplicated_evals(ledger: Path) -> list[tuple]:
    """(model, dataset, cfg) eval cells ledgered more than once."""
    seen: dict[tuple, int] = {}
    for e in _entries(ledger):
        if e.get("kind") == "eval":
            key = (e.get("model"), e.get("dataset"), e.get("cfg"))
            seen[key] = seen.get(key, 0) + 1
    return [k for k, n in seen.items() if n > 1]


def table_body(output: str) -> list[str]:
    """The rendered table minus its (run-specific) title line."""
    lines = output.splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("Architecture"))
    return [l.rstrip() for l in lines[start:start + 3]]


def full_table(output: str, rows: int) -> list[str]:
    """Header + ``rows`` table rows (mitigated tables have > 1)."""
    lines = output.splitlines()
    start = next(i for i, l in enumerate(lines)
                 if l.startswith("Architecture"))
    return [l.rstrip() for l in lines[start:start + 2 + rows]]


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="crash-resume-"))
    print(f"workdir: {tmp} (removed on exit)")
    try:
        return smoke(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def smoke(tmp: Path) -> int:
    # 1. Uninterrupted reference run.
    ref = repro("run", *ARGS, "--store", str(tmp / "ref"), "--run-id", "ref")
    assert ref.returncode == 0, f"reference run failed:\n{ref.stdout}\n{ref.stderr}"
    ref_table = table_body(ref.stdout)
    total = ok_entries(tmp / "ref" / "ref" / "ledger.jsonl")
    print(f"reference run complete: {total} ledger entries")
    assert total >= KILL_AFTER_OK + 2, f"workload too small to interrupt ({total})"

    # 2. Same run against a fresh store; SIGKILL it mid-sweep.
    ledger = tmp / "crash" / "crash" / "ledger.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", *ARGS,
         "--store", str(tmp / "crash"), "--run-id", "crash",
         "--workers", "2", "--mode", "process"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)          # own group: kill workers too
    deadline = time.time() + TIMEOUT_S
    try:
        while ok_entries(ledger) < KILL_AFTER_OK:
            if proc.poll() is not None:
                raise AssertionError(
                    "run finished before it could be killed; shrink "
                    "KILL_AFTER_OK or grow the noise list")
            if time.time() > deadline:
                raise AssertionError("timed out waiting for ledger entries")
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    survived = ok_entries(ledger)
    print(f"killed mid-sweep with {survived}/{total} evaluations ledgered")
    assert survived < total, "nothing left to resume"

    # 3. Resume and compare.
    res = repro("resume", "crash", "--store", str(tmp / "crash"))
    assert res.returncode == 0, f"resume failed:\n{res.stdout}\n{res.stderr}"
    after = ok_entries(ledger)
    reexecuted = after - survived
    print(f"resume re-executed {reexecuted} evaluation(s) "
          f"(remaining was {total - survived})")
    assert after == total, f"resumed run incomplete: {after}/{total}"
    assert reexecuted <= total - survived, (
        f"resume recomputed ledger-complete cells: {reexecuted} > "
        f"{total - survived}")

    resumed_table = table_body(res.stdout)
    assert resumed_table == ref_table, (
        "resumed table differs from uninterrupted run:\n"
        + "\n".join(ref_table) + "\n---\n" + "\n".join(resumed_table))
    print("resumed table is bit-identical to the uninterrupted run")

    # 4. Sharded run: kill mid-*dataset* (a few shard entries in), resume,
    #    and require byte-identical output with no shard recomputed.
    #    96 items × 0.75 train leaves 24 eval items; batch 4 + shard 4
    #    gives 6 aligned shards per cell.  The reference must use the same
    #    --batch-size: metric floats depend on minibatch composition, so
    #    only the *sharding* may differ between the two runs under test.
    ref4 = repro("run", *ARGS, "--batch-size", "4",
                 "--store", str(tmp / "ref4"), "--run-id", "ref4")
    assert ref4.returncode == 0, \
        f"batch-4 reference run failed:\n{ref4.stdout}\n{ref4.stderr}"
    ref4_table = table_body(ref4.stdout)
    shard_args = [*ARGS, "--batch-size", "4", "--shard-size", "4",
                  "--workers", "2", "--mode", "process"]
    ledger = tmp / "shard" / "shard" / "ledger.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", *shard_args,
         "--store", str(tmp / "shard"), "--run-id", "shard"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    deadline = time.time() + TIMEOUT_S
    try:
        while shard_entries(ledger) < 4:
            if proc.poll() is not None:
                raise AssertionError("sharded run finished before it could "
                                     "be killed; shrink the kill threshold")
            if time.time() > deadline:
                raise AssertionError("timed out waiting for shard entries")
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    survived_shards = shard_entries(ledger)
    survived_cells = ok_entries(ledger)
    print(f"killed sharded run mid-dataset with {survived_shards} shard "
          f"entr(ies) and {survived_cells} complete cell(s) ledgered")
    assert survived_cells < total, "nothing left to resume (sharded)"

    res = repro("resume", "shard", "--store", str(tmp / "shard"))
    assert res.returncode == 0, \
        f"sharded resume failed:\n{res.stdout}\n{res.stderr}"
    assert ok_entries(ledger) == total, "sharded resume incomplete"
    dups = duplicated_shards(ledger)
    assert not dups, f"sharded resume recomputed ledgered shard(s): {dups}"
    sharded_table = table_body(res.stdout)
    assert sharded_table == ref4_table, (
        "sharded resumed table differs from uninterrupted run:\n"
        + "\n".join(ref4_table) + "\n---\n" + "\n".join(sharded_table))
    print(f"sharded resume reused all {survived_shards} ledgered shard(s); "
          f"table is byte-identical to the monolithic reference")

    # 5. Shared-mode worker team under SIGKILL + SIGSTOP.  Prepare the run
    #    (train + manifest, no sweep), attach three lease-coordinated
    #    workers, then take two of them out the hard way.
    prep = repro("run", *ARGS, "--batch-size", "4", "--shard-size", "4",
                 "--store", str(tmp / "team"), "--run-id", "team",
                 "--prepare-only")
    assert prep.returncode == 0, \
        f"prepare-only run failed:\n{prep.stdout}\n{prep.stderr}"
    ledger = tmp / "team" / "team" / "ledger.jsonl"
    worker_argv = [sys.executable, "-m", "repro", "worker", "team",
                   "--store", str(tmp / "team"), "--lease-ttl", "2"]
    logs = [open(tmp / f"worker{i}.log", "w+") for i in range(3)]
    team = [subprocess.Popen(worker_argv, stdout=log,
                             stderr=subprocess.STDOUT,
                             start_new_session=True)
            for log in logs]
    deadline = time.time() + TIMEOUT_S

    def wait_for_shards(n: int) -> None:
        while shard_entries(ledger) < n:
            if time.time() > deadline:
                raise AssertionError(f"timed out waiting for {n} shard "
                                     f"entries")
            if all(p.poll() is not None for p in team):
                raise AssertionError("all workers exited before the fault "
                                     "choreography ran")
            time.sleep(0.02)

    try:
        wait_for_shards(2)
        os.killpg(team[0].pid, signal.SIGKILL)   # dies mid-shard
        team[0].wait()
        print("worker 0 SIGKILLed mid-shard")
        wait_for_shards(4)
        assert team[1].poll() is None, \
            "worker 1 exited before it could be SIGSTOPped; grow the workload"
        os.killpg(team[1].pid, signal.SIGSTOP)   # goes silent holding leases
        print("worker 1 SIGSTOPped holding its leases (ttl 2s)")
        survivor = team[2].wait(timeout=TIMEOUT_S)
    finally:
        for proc in team:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    assert survivor == 0, (
        f"surviving worker failed (exit {survivor}):\n"
        + Path(logs[2].name).read_text())
    logs[2].seek(0)
    team_table = table_body(logs[2].read())
    for log in logs:
        log.close()
    assert team_table == ref4_table, (
        "surviving worker's table differs from the serial reference:\n"
        + "\n".join(ref4_table) + "\n---\n" + "\n".join(team_table))
    dup_shards, dup_evals = duplicated_shards(ledger), duplicated_evals(ledger)
    assert not dup_shards, f"worker team recomputed shard(s): {dup_shards}"
    assert not dup_evals, f"worker team re-ledgered eval cell(s): {dup_evals}"
    assert ok_entries(ledger) == total, (
        f"team run incomplete: {ok_entries(ledger)}/{total}")
    print("surviving worker reclaimed the dead workers' leases; table is "
          "byte-identical to the serial reference, no cell or shard "
          "ledgered twice")

    # 6. Mitigation sweep: SIGKILL a sharded 2-worker --mitigate tent run
    #    mid-TENT-sweep, resume, and require the robustness-vs-mitigation
    #    table byte-for-byte with mitigation identity enforced.  A reduced
    #    noise list keeps the doubled (mitigation × variant × shard) grid
    #    cheap; the reference shares the batch geometry (TENT is episodic:
    #    per-batch adaptation makes it shard-invariant only at fixed
    #    batches, which is also why both runs must pin --batch-size).
    mit_args = ["--model", MODEL, "--n", "96", "--epochs", "2",
                "--train-frac", "0.75", "--seed", "0",
                "--noises", "decoder,color,precision",
                "--batch-size", "4", "--mitigate", "tent:steps=1"]
    refm = repro("run", *mit_args, "--store", str(tmp / "refmit"),
                 "--run-id", "refmit")
    assert refm.returncode == 0, \
        f"mitigated reference run failed:\n{refm.stdout}\n{refm.stderr}"
    refm_table = full_table(refm.stdout, rows=2)   # clean + "+tent"
    assert refm_table[-1].startswith(f"{MODEL}+tent"), (
        "expected a clean + mitigated row pair:\n" + "\n".join(refm_table))
    mit_total = ok_entries(tmp / "refmit" / "refmit" / "ledger.jsonl")
    print(f"mitigated reference run complete: {mit_total} eval cells "
          f"(clean + tent rows)")

    ledger = tmp / "mit" / "mit" / "ledger.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "run", *mit_args,
         "--shard-size", "4", "--workers", "2", "--mode", "process",
         "--store", str(tmp / "mit"), "--run-id", "mit"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    deadline = time.time() + TIMEOUT_S
    try:
        while shard_entries(ledger) < 4:
            if proc.poll() is not None:
                raise AssertionError("mitigated run finished before it "
                                     "could be killed; shrink the kill "
                                     "threshold")
            if time.time() > deadline:
                raise AssertionError("timed out waiting for mitigated "
                                     "shard entries")
            time.sleep(0.02)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    print(f"killed mitigated run mid-sweep with {shard_entries(ledger)} "
          f"shard entr(ies) and {ok_entries(ledger)} cell(s) ledgered")

    # Mitigation identity is part of the run: restating a *different*
    # --mitigate on resume must be refused, never spliced.
    bad = repro("resume", "mit", "--store", str(tmp / "mit"),
                "--mitigate", "mix")
    assert bad.returncode != 0, (
        "resume with a mismatched --mitigate must fail:\n" + bad.stdout)
    assert ok_entries(ledger) < mit_total, \
        "mismatched resume made progress on the run"
    print("mismatched --mitigate on resume refused "
          f"(exit {bad.returncode})")

    res = repro("resume", "mit", "--store", str(tmp / "mit"))
    assert res.returncode == 0, \
        f"mitigated resume failed:\n{res.stdout}\n{res.stderr}"
    assert ok_entries(ledger) == mit_total, (
        f"mitigated resume incomplete: {ok_entries(ledger)}/{mit_total}")
    dup_shards, dup_evals = duplicated_shards(ledger), duplicated_evals(ledger)
    assert not dup_shards, f"mitigated resume recomputed shard(s): {dup_shards}"
    assert not dup_evals, f"mitigated resume re-ledgered cell(s): {dup_evals}"
    mit_table = full_table(res.stdout, rows=2)
    assert mit_table == refm_table, (
        "resumed robustness-vs-mitigation table differs from the "
        "uninterrupted run:\n"
        + "\n".join(refm_table) + "\n---\n" + "\n".join(mit_table))
    print("mitigated resume reproduced the robustness-vs-mitigation table "
          "byte-for-byte; no cell or shard ledgered twice")
    print("crash-resume smoke: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
