"""The filesystem lease queue (repro.core.workqueue)."""

import json
import os
import threading
import time

import pytest

from repro.core import Lease, WorkQueue


def make_queue(tmp_path, **kw):
    kw.setdefault("ttl", 5.0)
    return WorkQueue(tmp_path / "run", **kw)


class TestClaim:
    def test_claim_creates_lease_and_release_removes_it(self, tmp_path):
        wq = make_queue(tmp_path)
        lease = wq.try_claim("cell-a")
        assert lease is not None
        assert lease.path.exists()
        body = json.loads(lease.path.read_text())
        assert body["owner"] == wq.owner
        assert body["item"] == "cell-a"
        lease.release()
        assert not lease.path.exists()

    def test_second_claim_on_held_item_fails(self, tmp_path):
        wq1 = make_queue(tmp_path, owner="w1")
        wq2 = make_queue(tmp_path, owner="w2")
        with wq1.try_claim("cell-a"):
            assert wq2.try_claim("cell-a") is None

    def test_distinct_items_claim_independently(self, tmp_path):
        wq = make_queue(tmp_path)
        with wq.try_claim("a"), wq.try_claim("b"):
            pass

    def test_exactly_one_winner_under_thread_race(self, tmp_path):
        queues = [make_queue(tmp_path, owner=f"w{i}") for i in range(8)]
        wins, barrier = [], threading.Barrier(8)

        def contend(wq):
            barrier.wait()
            lease = wq.try_claim("hot")
            if lease is not None:
                wins.append(lease)

        threads = [threading.Thread(target=contend, args=(q,))
                   for q in queues]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(wins) == 1
        wins[0].release()

    def test_context_manager_releases(self, tmp_path):
        wq = make_queue(tmp_path)
        with wq.try_claim("a") as lease:
            assert lease.path.exists()
        assert not lease.path.exists()


class TestExpiryAndReclaim:
    def test_expired_lease_is_reclaimed_by_next_claimer(self, tmp_path):
        wq1 = make_queue(tmp_path, owner="dead", ttl=0.2, retry_base=0.0)
        wq2 = make_queue(tmp_path, owner="live", ttl=0.2, retry_base=0.0)
        stale = wq1.try_claim("cell")
        stale._stop.set()                      # silence its heartbeat
        stale._thread.join()
        time.sleep(0.3)
        fresh = wq2.try_claim("cell")
        assert fresh is not None
        assert json.loads(fresh.path.read_text())["owner"] == "live"
        fresh.release()

    def test_heartbeat_keeps_lease_alive_past_ttl(self, tmp_path):
        wq1 = make_queue(tmp_path, owner="slow", ttl=0.4, retry_base=0.0)
        wq2 = make_queue(tmp_path, owner="thief", ttl=0.4, retry_base=0.0)
        lease = wq1.try_claim("cell")          # heartbeats every ttl/4
        try:
            time.sleep(0.7)                    # > ttl, but heartbeats ran
            assert wq2.try_claim("cell") is None
            assert lease.still_owned()
        finally:
            lease.release()

    def test_reclaimed_owner_fails_fencing_check(self, tmp_path):
        wq1 = make_queue(tmp_path, owner="stalled", ttl=0.2, retry_base=0.0)
        wq2 = make_queue(tmp_path, owner="reclaimer", ttl=0.2,
                         retry_base=0.0)
        stale = wq1.try_claim("cell")
        stale._stop.set()                      # simulate SIGSTOP
        stale._thread.join()
        time.sleep(0.3)
        fresh = wq2.try_claim("cell")
        assert fresh is not None
        # The stalled worker wakes: it must not think it still owns the
        # cell, and its heartbeat must not refresh the new owner's lease.
        assert not stale.still_owned()
        assert not stale.heartbeat()
        assert fresh.still_owned()
        stale.release()                        # must NOT unlink fresh lease
        assert fresh.path.exists()
        fresh.release()

    def test_release_after_reclaim_does_not_double_free(self, tmp_path):
        wq = make_queue(tmp_path, ttl=0.2, retry_base=0.0)
        stale = wq.try_claim("cell")
        stale._stop.set()
        stale._thread.join()
        time.sleep(0.3)
        other = make_queue(tmp_path, owner="o2", ttl=0.2, retry_base=0.0)
        fresh = other.try_claim("cell")
        stale.release()
        assert fresh.path.exists()
        fresh.release()


    def test_free_dead_unlinks_only_that_processes_leases(self, tmp_path):
        dead_pid = os.getpid() + 1
        dead = make_queue(tmp_path, owner=f"{os.uname().nodename}:{dead_pid}")
        live = make_queue(tmp_path)
        assert not live.claimed()
        gone = dead.try_claim("cell-a")
        gone._stop.set()                       # the process "died"
        gone._thread.join()
        kept = live.try_claim("cell-b")
        live.free_dead(dead_pid)
        assert not gone.path.exists() and kept.path.exists()
        assert live.claimed()
        kept.release()


class TestAttemptsAndBackoff:
    def test_attempts_count_claims(self, tmp_path):
        wq = make_queue(tmp_path, retry_base=0.0)
        assert wq.attempts("cell") == 0
        wq.try_claim("cell").release()
        wq.try_claim("cell").release()
        assert wq.attempts("cell") == 2

    def test_backoff_blocks_immediate_reclaim(self, tmp_path):
        wq = make_queue(tmp_path, retry_base=30.0)
        wq.try_claim("cell").release()
        # Second claim must wait retry_base seconds after the first.
        assert wq.try_claim("cell") is None
        assert wq.attempts("cell") == 1

    def test_backoff_elapses(self, tmp_path):
        wq = make_queue(tmp_path, retry_base=0.05)
        wq.try_claim("cell").release()
        time.sleep(0.1)
        lease = wq.try_claim("cell")
        assert lease is not None
        lease.release()

    def test_poisoned_after_budget(self, tmp_path):
        wq = make_queue(tmp_path, max_attempts=2, retry_base=0.0)
        for _ in range(2):
            wq.try_claim("cell").release()
            assert not wq.poisoned("cell")
        lease = wq.try_claim("cell")           # 3rd claim: over budget
        assert wq.poisoned("cell")
        lease.release()

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="ttl"):
            make_queue(tmp_path, ttl=0)
        with pytest.raises(ValueError, match="max_attempts"):
            make_queue(tmp_path, max_attempts=0)


class TestIntrospection:
    def test_held_leases_lists_live_bodies(self, tmp_path):
        wq = make_queue(tmp_path, owner="me")
        with wq.try_claim("a"), wq.try_claim("b"):
            held = wq.held_leases()
            assert sorted(h["item"] for h in held) == ["a", "b"]
            assert all(h["owner"] == "me" for h in held)
        assert wq.held_leases() == []

    def test_manual_heartbeat_mode(self, tmp_path):
        wq = make_queue(tmp_path, ttl=0.3, retry_base=0.0)
        lease = wq.try_claim("cell", auto_heartbeat=False)
        assert lease._thread is None           # no background refresher
        time.sleep(0.15)
        assert lease.heartbeat()               # manual refresh works
        age = time.time() - os.stat(lease.path).st_mtime
        assert age < 0.1
        lease.release()

    def test_default_owner_includes_pid(self, tmp_path):
        wq = make_queue(tmp_path)
        assert str(os.getpid()) in wq.owner
