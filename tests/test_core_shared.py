"""SweepEngine(mode="shared"): lease-coordinated multi-worker sweeps.

These tests simulate N worker *processes* with N engine instances, each
holding its own :class:`RunLedger` replay of the same run directory — the
same isolation real workers have, minus the fork.  True crash/SIGSTOP
choreography lives in ``benchmarks/crash_resume_smoke.py`` and
``benchmarks/chaos_smoke.py``.
"""

import threading

import numpy as np
import pytest

from repro.core import NoiseConfig, RunLedger, SweepEngine, TRAIN_CONFIG
from repro.core.registry import deployment_variants


class FakeDataset:
    """Content-identified dataset (streams drive the ledger token)."""

    def __init__(self, payloads=(b"stream-a", b"stream-b")):
        class Raw:
            def __init__(self, b):
                self._b = b

            def tobytes(self):
                return self._b

        self.streams = [Raw(p) for p in payloads]


class FakeModel:
    pass


class CountingEvaluator:
    def __init__(self, fail_on=None):
        self.calls = []
        self.fail_on = fail_on or (lambda cfg: False)
        self.lock = threading.Lock()

    def __call__(self, model, ds, cfg):
        with self.lock:
            self.calls.append(cfg)
        if self.fail_on(cfg):
            raise RuntimeError("injected evaluator failure")
        return 90.0 - 2.0 * (cfg.decoder != "dali") \
            - 4.0 * (cfg.precision != "fp32")


def shared_engine(run_dir, **kw):
    kw.setdefault("mode", "shared")
    kw.setdefault("model_key", "m")
    kw.setdefault("ledger", RunLedger.create(run_dir, {"model": "m"}))
    kw.setdefault("lease_ttl", 5.0)
    return SweepEngine(**kw)


@pytest.fixture
def model():
    return FakeModel()


@pytest.fixture
def ds():
    return FakeDataset()


class TestSharedMode:
    def test_matches_serial_results(self, tmp_path, model, ds):
        ev_serial, ev_shared = CountingEvaluator(), CountingEvaluator()
        serial = SweepEngine()
        shared = shared_engine(tmp_path / "run")
        want = serial.sweep_noise(ev_serial, model, ds, "decoder")
        got = shared.sweep_noise(ev_shared, model, ds, "decoder")
        assert got.values == want.values
        assert got.baseline == want.baseline

    def test_every_cell_ledgered_exactly_once(self, tmp_path, model, ds):
        shared = shared_engine(tmp_path / "run")
        shared.sweep_noise(CountingEvaluator(), model, ds, "decoder")
        evals = [e for e in shared.ledger.entries()
                 if e.get("kind") == "eval"]
        keys = [(e["model"], e["dataset"], e["cfg"]) for e in evals]
        assert len(keys) == len(set(keys))
        # baseline + one per decoder variant
        assert len(keys) == 1 + len(deployment_variants("decoder"))

    def test_second_worker_reuses_ledgered_cells(self, tmp_path, model, ds):
        w1 = shared_engine(tmp_path / "run")
        row1 = w1.sweep_noise(CountingEvaluator(), model, ds, "decoder")
        ev2 = CountingEvaluator()
        w2 = shared_engine(tmp_path / "run",
                           ledger=RunLedger(tmp_path / "run"))
        row2 = w2.sweep_noise(ev2, model, ds, "decoder")
        assert ev2.calls == []                 # everything came from disk
        assert row2.values == row1.values

    def test_no_ledger_falls_back_to_local(self, model, ds):
        engine = SweepEngine(mode="shared")    # no ledger attached
        row = engine.sweep_noise(CountingEvaluator(), model, ds, "decoder")
        assert not any(np.isnan(v) for v in row.values)

    def test_two_workers_race_without_duplicates(self, tmp_path, model, ds):
        run = tmp_path / "run"
        w1 = shared_engine(run, lease_ttl=2.0)
        w2 = shared_engine(run, ledger=RunLedger(run), lease_ttl=2.0)
        evs = [CountingEvaluator(), CountingEvaluator()]
        rows = [None, None]

        def work(i, engine):
            rows[i] = engine.sweep_noise(evs[i], model,
                                         ds, "precision")

        threads = [threading.Thread(target=work, args=(i, e))
                   for i, e in enumerate((w1, w2))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert rows[0].values == rows[1].values
        # Union of both workers' computes covers each cell exactly once.
        done = [c for ev in evs for c in ev.calls]
        assert len(done) == len(set(done))
        evals = [e for e in RunLedger(run).entries()
                 if e.get("kind") == "eval"]
        keys = [(e["model"], e["dataset"], e["cfg"]) for e in evals]
        assert len(keys) == len(set(keys))

    def test_poison_quarantine_terminates_fatal_cell(self, tmp_path, model,
                                                     ds):
        bad = NoiseConfig(precision="int8")
        engine = shared_engine(
            tmp_path / "run", max_claims=2)
        engine._shared_queue().retry_base = 0.0
        ev = CountingEvaluator(fail_on=lambda cfg: cfg.precision == "int8")
        values, errors = engine._map_configs(
            ev, model, ds, [TRAIN_CONFIG, bad], ["baseline", "precision"])
        assert not np.isnan(values[0])
        assert np.isnan(values[1])
        # The last allowed claim raised: its text is the cell's error, the
        # same text a serial sweep records.
        assert errors[1] == "RuntimeError: injected evaluator failure"
        # The quarantine entry is terminal: a fresh worker resolves the
        # cell from the ledger without burning its own attempts on it.
        ev2 = CountingEvaluator(fail_on=lambda cfg: True)
        w2 = shared_engine(tmp_path / "run",
                           ledger=RunLedger(tmp_path / "run"), max_claims=2)
        values2, errors2 = w2._map_configs(
            ev2, model, ds, [TRAIN_CONFIG, bad], ["baseline", "precision"])
        assert ev2.calls == []
        assert np.isnan(values2[1]) and errors2[1] == errors[1]
        # Budget respected: max_claims executions, then quarantine.
        assert len(ev.calls) == 1 + 2

    def test_expired_foreign_lease_is_reclaimed(self, tmp_path, model, ds):
        run = tmp_path / "run"
        engine = shared_engine(run, lease_ttl=0.2)
        engine._shared_queue().retry_base = 0.0
        # A worker "died" holding the baseline cell: fabricate its lease.
        lkey = engine._ledger_key(model, ds, TRAIN_CONFIG)
        wq = engine._shared_queue()
        stale = wq.try_claim(f"eval-{engine._cell_tag(lkey)}")
        stale._stop.set()
        stale._thread.join()
        import time
        time.sleep(0.3)
        value = engine.baseline(CountingEvaluator(), model, ds)
        assert value == pytest.approx(90.0)    # TRAIN_CONFIG is clean

    def test_baseline_single_cell_routes_through_claims(self, tmp_path,
                                                        model, ds):
        engine = shared_engine(tmp_path / "run")
        engine.baseline(CountingEvaluator(), model, ds)
        evals = [e for e in engine.ledger.entries()
                 if e.get("kind") == "eval"]
        assert len(evals) == 1
        leases = (tmp_path / "run" / "leases").glob("*.attempts")
        assert any("eval-" in p.name for p in leases)

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode must be"):
            SweepEngine(mode="sharedx")
        with pytest.raises(ValueError, match="lease_ttl"):
            SweepEngine(mode="shared", lease_ttl=0)
        with pytest.raises(ValueError, match="max_claims"):
            SweepEngine(mode="shared", max_claims=0)


# ---------------------------------------------------------------------------
# Shard-major claims over a real sharded classification row
# ---------------------------------------------------------------------------

def _cls_fixture(n, native_size, train):
    from repro.core import get_task
    adapter = get_task("cls")
    ds = adapter.load_dataset(n=n, native_size=native_size, input_size=32,
                              seed=1)
    net = adapter.build_model("mcunet-293kb", num_classes=ds.num_classes,
                              seed=0)
    if train:
        adapter.train(net, ds, model_name="mcunet-293kb", epochs=2)
    net.eval()
    return adapter, net, ds


@pytest.fixture(scope="module")
def cls_row():
    """A trained mcunet and a 32-image set: 4 shards of 8 at batch 8."""
    return _cls_fixture(32, 40, train=True)


def _cls_engine(ledger):
    from repro.core import DecodeCache
    return SweepEngine(mode="shared", ledger=ledger, model_key="m",
                       lease_ttl=30.0, shard_size=8, task="cls",
                       batch_size=8, pipeline_cache=DecodeCache())


def _cls_eval(adapter):
    from repro.core import DecodeCache
    return lambda m, d, cfg: adapter.evaluate(m, d, cfg, cache=DecodeCache(),
                                              batch_size=8)


class TestShardMajor:
    def test_two_engines_render_serial_table_decoding_each_shard_once(
            self, tmp_path, cls_row, monkeypatch):
        import copy

        import repro.core.pipeline as pipeline
        from repro.core.registry import combined_config, get_noise
        from repro.core.report import render_table
        adapter, net, ds = cls_row
        noises = adapter.noises
        ev = _cls_eval(adapter)
        serial = SweepEngine().noise_row(ev, net, ds, noises)

        run = tmp_path / "run"
        a = _cls_engine(RunLedger.create(run, {"model": "m"}))
        b = _cls_engine(RunLedger(run))
        # Equal contents (the same ledger identity) but distinct stream
        # objects, so a decode's first stream names the engine and shard.
        ds_b = copy.deepcopy(ds)
        where = {id(s): (who, i) for who, d in (("a", ds), ("b", ds_b))
                 for i, s in enumerate(d.streams)}
        a.baseline(ev, net, ds)
        b.baseline(ev, net, ds_b)              # replayed from the ledger

        decodes: dict[tuple, int] = {}
        lock = threading.Lock()
        real = pipeline._decode_uncached

        def spy(streams, decoder, *rest):
            who, start = where[id(streams[0])]
            with lock:
                key = (who, start, len(streams), decoder)
                decodes[key] = decodes.get(key, 0) + 1
            return real(streams, decoder, *rest)

        huffman: dict[tuple, int] = {}
        real_huffman = pipeline.entropy_decode

        def huffman_spy(streams, *rest):
            who, start = where[id(streams[0])]
            with lock:
                key = (who, start, len(streams))
                huffman[key] = huffman.get(key, 0) + 1
            return real_huffman(streams, *rest)

        monkeypatch.setattr(pipeline, "_decode_uncached", spy)
        monkeypatch.setattr(pipeline, "entropy_decode", huffman_spy)
        rows = [None, None]

        def work(i, engine, data):
            rows[i] = engine.noise_row(ev, net, data, noises)

        threads = [threading.Thread(target=work, args=job)
                   for job in ((0, a, ds), (1, b, ds_b))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
            assert not t.is_alive()
        monkeypatch.undo()

        want = render_table({"m": serial}, noises, "ACC", "row")
        for row in rows:
            assert render_table({"m": row}, noises, "ACC", "row") == want
            assert row["trained"] == serial["trained"]
            assert row["combined"] == serial["combined"]
            for name in noises:
                assert (row["noises"][name].values
                        == serial["noises"][name].values)
        assert max(decodes.values()) == 1      # once per engine
        # Not vacuous: every (shard, decoder) the row needs was decoded
        # through the spied path, whole shards at a time.
        cfgs = [combined_config(noises)] + [
            get_noise(n).apply(TRAIN_CONFIG, v)
            for n in noises for v in get_noise(n).variants()]
        need = {(start, 8, c.decoder) for start in (0, 8, 16, 24)
                for c in cfgs}
        assert len({c.decoder for c in cfgs}) > 1
        assert {k[1:] for k in decodes if k[2] == 8} == need
        # The only other decode is each engine's int8 calibration slice.
        assert {k[1:] for k in decodes if k[2] != 8} == {(0, 32, "dali")}
        # One Huffman decode per (engine, shard) served all of the shard's
        # decoders, and no engine Huffman-decoded what it did not decode.
        assert max(huffman.values()) == 1
        assert set(huffman) == {k[:3] for k in decodes}
        assert len(decodes) > len(huffman)

    def test_scratch_holds_every_decoder_and_the_coefficients(
            self, tmp_path, cls_row, monkeypatch):
        """A decoder that recurs after the row's last new decoder still
        finds its pixels and the shard's coefficients in the scratch."""
        import repro.core.pipeline as pipeline
        from repro.core.registry import get_noise
        adapter, net, ds = cls_row
        resize = get_noise("resize").variants()[0]
        cfgs = [NoiseConfig(decoder=d) for d in ("pil", "opencv", "ffmpeg",
                                                 "dali")]
        cfgs.append(NoiseConfig(decoder="pil", resize_method=resize))
        engine = _cls_engine(RunLedger.create(tmp_path / "run",
                                              {"model": "m"}))
        start_of = {id(s): i for i, s in enumerate(ds.streams)}
        decodes, huffman = [], []
        real, real_huffman = pipeline._decode_uncached, pipeline.entropy_decode

        def spy(streams, decoder, *rest):
            decodes.append((start_of[id(streams[0])], len(streams), decoder))
            return real(streams, decoder, *rest)

        def huffman_spy(streams, *rest):
            huffman.append((start_of[id(streams[0])], len(streams)))
            return real_huffman(streams, *rest)

        monkeypatch.setattr(pipeline, "_decode_uncached", spy)
        monkeypatch.setattr(pipeline, "entropy_decode", huffman_spy)
        values, errors = engine._map_configs(_cls_eval(adapter), net, ds,
                                             cfgs)
        assert not errors and len(values) == len(cfgs)
        shard_decodes = [d for d in decodes if d[1] == 8]
        assert sorted(shard_decodes) == sorted(
            {(start, 8, c.decoder) for start in (0, 8, 16, 24)
             for c in cfgs})
        assert sorted(h for h in huffman if h[1] == 8) == [
            (start, 8) for start in (0, 8, 16, 24)]

    def test_won_claim_rechecks_a_refreshed_ledger(self, tmp_path, cls_row,
                                                   monkeypatch):
        """A peer ledgers shard [0, 8) after B's last refresh; B then wins
        the claim on it and must not recompute it."""
        adapter, net, ds = cls_row
        cfg = NoiseConfig(decoder="pil")
        expected = SweepEngine().evaluate(_cls_eval(adapter), net, ds, cfg)
        run = tmp_path / "run"
        peer = RunLedger.create(run, {"model": "m"})
        b = _cls_engine(RunLedger(run))
        lkey = b._ledger_key(net, ds, cfg)
        (_, _, first), = adapter.evaluate_partials(net, ds, cfg, [(0, 8)],
                                                   batch_size=8)
        wq = b._shared_queue()
        claim = wq.try_claim

        def claim_after_peer(item):
            lease = claim(item)
            if lease is not None and item.endswith("-0-8"):
                peer.record_shard(*lkey, start=0, stop=8,
                                  state=first.state(), label="peer")
            return lease

        wq.try_claim = claim_after_peer
        executed = []
        real = type(adapter).evaluate_partials

        def spy(self, model, ds, cfg, bounds, **kw):
            executed.extend(bounds)
            return real(self, model, ds, cfg, bounds, **kw)

        monkeypatch.setattr(type(adapter), "evaluate_partials", spy)
        value = b.evaluate(_cls_eval(adapter), net, ds, cfg)
        assert value == expected
        assert (0, 8) not in executed
        assert executed == [(8, 16), (16, 24), (24, 32)]
        shards = [e["shard"] for e in RunLedger(run).entries()
                  if e.get("kind") == "shard"]
        assert sorted(shards) == [[0, 8], [8, 16], [16, 24], [24, 32]]

    def test_shared_streamed_row_peak_memory_is_shardbound(self, tmp_path):
        """A shared worker's streamed row stays under the decoded-dataset
        bytes, the serial gate's bound: each shard pass's decode scratch
        dies with the pass (a session-wide chunk cache would keep every
        decoded shard and cross it)."""
        import tracemalloc

        from repro.core import DecodeCache
        adapter, net, ds = _cls_fixture(64, 64, train=False)
        ev = _cls_eval(adapter)

        def row(engine):
            return engine.noise_row(ev, net, ds, ["decoder"],
                                    include_combined=False)

        # The serial streamed row first: it pays the one-time allocations
        # (operator and index caches) outside the traced window.
        serial = row(SweepEngine(shard_size=8, task="cls", batch_size=8,
                                 pipeline_cache=DecodeCache()))
        shared = _cls_engine(RunLedger.create(tmp_path / "run",
                                              {"model": "m"}))
        decoded_bytes = len(ds) * 64 * 64 * 3 * 8     # float64 pixel batch
        tracemalloc.start()
        got = row(shared)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert got["trained"] == serial["trained"]
        assert (got["noises"]["decoder"].values
                == serial["noises"]["decoder"].values)
        assert peak < decoded_bytes
