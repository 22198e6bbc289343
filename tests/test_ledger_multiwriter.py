"""Property test: the run ledger under two interleaved writers.

The shared-run protocol rests on one invariant: however two writers'
appends and torn final writes interleave, a fresh replay of the file sees
*exactly* the union of the complete (newline-terminated, fsync'd) entries —
in file order, with every torn fragment quarantined as a corrupt line
rather than fused onto a neighbour's entry.

Hypothesis drives the schedule: which writer acts, whether the act is a
completed append or a kill-mid-write (a raw newline-less fragment landing
at EOF, exactly what ``_append_bytes`` leaves when a process dies between
``os.write`` calls).  Torn fragments may be healed by the next live append
or still be dangling at EOF when the replay happens; both must be
invisible to the replayed index.
"""

import json
import os
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.core import RunLedger

#: (writer, action) schedule: each step is one writer completing an append
#: or dying mid-write, leaving a torn fragment at EOF.
SCHEDULES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=1),
              st.sampled_from(["append", "tear"])),
    min_size=1, max_size=20)


def _tear(run_dir: Path, writer: int, seq: int) -> None:
    """Simulate ``writer`` killed mid-append: a raw newline-less fragment.

    The fragment is an unterminated JSON string, so it stays unparseable
    even when a later tear fuses onto it (no live writer heals between two
    consecutive kills).
    """
    frag = f'{{"kind":"eval","torn_by":"w{writer}","seq":"{seq}'.encode()
    fd = os.open(run_dir / "ledger.jsonl",
                 os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
    try:
        os.write(fd, frag)
        os.fsync(fd)
    finally:
        os.close(fd)


@settings(max_examples=30, deadline=None)
@given(schedule=SCHEDULES)
def test_replay_is_union_of_complete_entries(schedule):
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        writers = [RunLedger.create(run_dir, {"model": "m"}),
                   RunLedger(run_dir)]
        complete = []                          # (cfg, value) in file order
        tears = 0
        for seq, (writer, action) in enumerate(schedule):
            if action == "append":
                cfg = f"cfg-{seq}"
                writers[writer].record_eval(
                    "m", "ds", cfg, status="ok", value=float(seq),
                    label=f"w{writer}")
                complete.append((cfg, float(seq)))
            else:
                _tear(run_dir, writer, seq)
                tears += 1

        replay = RunLedger(run_dir)
        got = [(e["cfg"], e["value"]) for e in replay.entries()
               if e.get("kind") == "eval" and "torn_by" not in e]
        # Exactly the union of complete entries, in file order — nothing
        # lost, nothing duplicated, no fragment promoted to an entry.
        assert got == complete
        assert all("torn_by" not in e for e in replay.entries())
        for cfg, value in complete:
            entry = replay.lookup("m", "ds", cfg)
            assert entry is not None and entry["value"] == value
        # Every torn fragment is accounted for as corruption (consecutive
        # fragments may fuse into one corrupt line; a trailing fragment is
        # pending, not yet a line) — never silently dropped.
        if tears:
            assert replay.counts()["corrupt"] >= 1
        else:
            assert replay.counts()["corrupt"] == 0

        # The live writers converge to the same view via refresh().
        for w in writers:
            w.refresh()
            live = [(e["cfg"], e["value"]) for e in w.entries()
                    if e.get("kind") == "eval" and "torn_by" not in e]
            assert live == complete


#: One writer process: ``n`` shard appends of varied size, so lines keep
#: straddling page boundaries of the ledger file.
_WRITER = textwrap.dedent("""
    import sys
    from pathlib import Path
    from repro.core import RunLedger
    ledger = RunLedger(Path(sys.argv[1]))
    for i in range(int(sys.argv[3])):
        ledger.record_shard("m", "ds", f"{sys.argv[2]}-{i}", start=0,
                            stop=64, state={"hits": list(range(i % 300))},
                            label=sys.argv[2])
""")


def test_concurrent_appenders_never_heal_a_live_write(tmp_path):
    """A peer's line is visible half-written while its ``write`` runs (the
    file grows a page at a time); an appender that mistook it for a dead
    writer's torn tail appended a stray blank line after it."""
    for trial in range(5):
        run_dir = tmp_path / f"run{trial}"
        RunLedger.create(run_dir, {"model": "m"})
        procs = [subprocess.Popen([sys.executable, "-c", _WRITER,
                                   str(run_dir), f"w{k}", "400"])
                 for k in range(2)]
        for proc in procs:
            assert proc.wait(timeout=120) == 0
        lines = (run_dir / "ledger.jsonl").read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert all(json.loads(line)["kind"] == "shard"
                   for line in lines[:-1])
        assert len(lines) - 1 == 800
        replay = RunLedger(run_dir)
        assert replay.counts()["corrupt"] == 0
        assert len(replay.entries()) == 800
