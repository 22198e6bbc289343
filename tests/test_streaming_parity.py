"""Streaming shard pipeline ↔ monolithic path: bit-exact parity.

The contract this file gates: for every registered task adapter, every
precision (fp32/fp16/int8), a sample of registry noise configs, and shard
sizes spanning the degenerate cases (1, odd, whole dataset, larger than the
dataset), the streamed evaluation reproduces the monolithic metric
**exactly** — same floats, same tables — and a sharded sweep's per-shard
ledger lets a resume re-execute only the missing shards.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (TRAIN_CONFIG, BenchmarkSession, DecodeCache,
                        EvalCache, SweepEngine, get_task)
from repro.core.registry import combined_config, get_noise


def _cls_fixture():
    adapter = get_task("cls")
    ds = adapter.load_dataset(n=36, native_size=40, input_size=32, seed=1)
    model = adapter.build_model("mcunet-293kb", num_classes=ds.num_classes,
                                seed=0)
    adapter.train(model, ds, model_name="mcunet-293kb", epochs=2)
    return adapter, model, ds


def _det_fixture():
    adapter = get_task("det")
    ds = adapter.load_dataset(n=14, size=40, seed=0, max_objects=2)
    model = adapter.build_model(seed=0, num_classes=ds.num_classes,
                                backbone="resnet-34", fpn_channels=8)
    adapter.train(model, ds, epochs=2)
    return adapter, model, ds


def _seg_fixture():
    adapter = get_task("seg")
    ds = adapter.load_dataset(n=11, size=32, seed=0)
    model = adapter.build_model(seed=0, num_classes=ds.num_classes)
    adapter.train(model, ds, epochs=2)
    return adapter, model, ds


def _nlp_fixture():
    adapter = get_task("nlp")
    ds = adapter.load_dataset(task="piqa", n=11, seed=0)
    model = adapter.build_model(seed=0)
    adapter.train(model, ds, epochs=2)
    return adapter, model, ds


def _audio_fixture():
    adapter = get_task("audio")
    ds = adapter.load_dataset(n=7, seed=0)
    model = adapter.build_model(seed=0, dim=16)
    adapter.train(model, ds, epochs=2)
    return adapter, model, ds


_FIXTURES = {"cls": _cls_fixture, "det": _det_fixture, "seg": _seg_fixture,
             "nlp": _nlp_fixture, "audio": _audio_fixture}


@pytest.fixture(scope="module")
def trained(request):
    cache = getattr(request.module, "_trained_cache", None)
    if cache is None:
        cache = {}
        request.module._trained_cache = cache
    return lambda task: cache.setdefault(task, _FIXTURES[task]())


def _sample_configs(adapter):
    """TRAIN + every precision + up to two preprocessing noises + combined."""
    cfgs = [TRAIN_CONFIG]
    noises = adapter.noises
    if "precision" in noises:
        src = get_noise("precision")
        cfgs += [src.apply(TRAIN_CONFIG, v) for v in src.variants()]
    for name in noises:
        if name == "precision":
            continue
        src = get_noise(name)
        cfgs.append(src.apply(TRAIN_CONFIG, src.variants()[-1]))
        if len(cfgs) >= 6:
            break
    if len(noises) > 1:
        cfgs.append(combined_config(noises))
    return cfgs


@pytest.mark.parametrize("task", list(_FIXTURES))
def test_streamed_equals_monolithic_every_adapter(task, trained):
    """The core property: all adapters × configs × shard sizes, bit-exact.

    Shard sizes cover one-item shards, odd sizes (misaligned with the
    minibatch grid), the whole dataset, and oversized; fresh caches per
    evaluation so nothing is served from a previous path's memo.
    """
    adapter, model, ds = trained(task)
    n = len(ds)
    batch = 4 if task in ("cls", "det", "seg") else None
    for cfg in _sample_configs(adapter):
        mono = adapter.evaluate(model, ds, cfg, cache=DecodeCache(),
                                batch_size=batch)
        for shard_size in (1, 3, n, n + 7):
            streamed = adapter.evaluate(model, ds, cfg, cache=DecodeCache(),
                                        batch_size=batch,
                                        shard_size=shard_size)
            assert streamed == mono, (
                f"{task}: {cfg.describe()} shard_size={shard_size}: "
                f"{streamed!r} != {mono!r}")


@pytest.mark.parametrize("task", list(_FIXTURES))
def test_partials_merge_to_whole(task, trained):
    """Aligned shard partials (the scheduled work-unit shape) merge exactly."""
    adapter, model, ds = trained(task)
    batch = 4 if task in ("cls", "det", "seg") else None
    cfg = TRAIN_CONFIG
    mono = adapter.evaluate(model, ds, cfg, cache=DecodeCache(),
                            batch_size=batch)
    align = adapter.stream_align(batch)
    from repro.core import shard_bounds
    bounds = shard_bounds(len(ds), max(1, align), align)
    assert len(bounds) >= 2
    acc = adapter.accumulator(ds)
    # Merge in reverse completion order, via the JSON state round-trip the
    # process scheduler and the ledger both use.
    import json
    parts = list(adapter.evaluate_partials(model, ds, cfg, bounds,
                                           cache=DecodeCache(),
                                           batch_size=batch))
    for _, _, part in reversed(parts):
        state = json.loads(json.dumps(part.state()))
        acc.merge(adapter.accumulator(ds).load_state(state))
    assert acc.value() == mono


@settings(max_examples=8, deadline=None)
@given(shard_size=st.integers(min_value=1, max_value=50),
       batch=st.integers(min_value=1, max_value=9))
def test_property_random_shard_and_batch_geometry(shard_size, batch):
    """Hypothesis: any (shard, batch) geometry reproduces the same floats."""
    global _prop_state
    try:
        adapter, model, ds, baseline_by_batch = _prop_state
    except NameError:
        adapter = get_task("cls")
        ds = adapter.load_dataset(n=20, native_size=40, input_size=32, seed=2)
        model = adapter.build_model("mcunet-293kb",
                                    num_classes=ds.num_classes, seed=0)
        model.eval()
        baseline_by_batch = {}
        _prop_state = (adapter, model, ds, baseline_by_batch)
    cfg = get_noise("precision").apply(TRAIN_CONFIG, "int8")
    if batch not in baseline_by_batch:
        baseline_by_batch[batch] = adapter.evaluate(
            model, ds, cfg, cache=DecodeCache(), batch_size=batch)
    streamed = adapter.evaluate(model, ds, cfg, cache=DecodeCache(),
                                batch_size=batch, shard_size=shard_size)
    assert streamed == baseline_by_batch[batch]


# ---------------------------------------------------------------------------
# Sweep / session level
# ---------------------------------------------------------------------------

def _session(shard=None, workers=None, mode="thread", store=None,
             run_id=None, n=40):
    s = (BenchmarkSession().task("cls").seed(0).model("mcunet-293kb")
         .data(n=n, native_size=40, input_size=32)
         .noises("decoder", "resize", "precision")
         .batch(8).shards(shard).workers(workers, mode=mode))
    if store is not None:
        s.store(store, run_id=run_id)
    s.trained_model.eval()
    return s


class TestShardedSweeps:
    def test_four_shard_sweep_renders_byte_identical_table(self):
        mono = _session().run().render("parity")
        # batch 8, shard 8 → 5 aligned shards over 40 items.
        sharded = _session(shard=8).run().render("parity")
        assert sharded == mono

    def test_process_mode_variant_x_shard_schedule(self, monkeypatch):
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        mono = _session().run().render("parity")
        proc = _session(shard=8, workers=2, mode="process").run()
        assert proc.render("parity") == mono

    def test_one_sharded_cell_still_runs_in_process_helpers(
            self, monkeypatch, caplog):
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        curves = {}
        for mode in ("thread", "process"):
            s = _session(shard=8, workers=2, mode=mode)
            caplog.clear()
            with caplog.at_level(logging.INFO, logger="repro.core.sweep"):
                curves[mode] = s.engine().worst_case_curve(
                    s._eval_fn(s.adapter), s.trained_model, s.eval_data,
                    ["precision"])
        assert len(curves["process"]) == 1      # one cell, five shards
        assert curves["process"] == curves["thread"]
        assert any("mode=process" in r.getMessage() for r in caplog.records)

    def test_shard_resume_reexecutes_only_missing_shards(self, tmp_path,
                                                         monkeypatch):
        cfg = get_noise("precision").apply(TRAIN_CONFIG, "fp16")
        full = _session()
        expected = full.engine().evaluate(full._eval_fn(full.adapter),
                                          full.trained_model,
                                          full.eval_data, cfg)

        # Interrupted run: only shards 0 and 2 (of 5) ever completed.
        s1 = _session(shard=8, store=tmp_path, run_id="r1")
        adapter, model, ds = s1.adapter, s1.trained_model, s1.eval_data
        engine = s1.engine()
        lkey = engine._ledger_key(model, ds, cfg)
        done = []
        for start, stop, part in adapter.evaluate_partials(
                model, ds, cfg, [(0, 8), (16, 24)], batch_size=8):
            engine._ledger_shard_record(lkey, start, stop, part.state(),
                                        "precision", cfg)
            done.append((start, stop))
        assert done == [(0, 8), (16, 24)]

        # Resume in a fresh session: spy on which bounds get re-executed.
        s2 = _session(shard=8, store=tmp_path, run_id="r1")
        executed = []
        orig = type(adapter).evaluate_partials

        def spy(self, model, ds, cfg, bounds, **kw):
            executed.extend(bounds)
            return orig(self, model, ds, cfg, bounds, **kw)

        monkeypatch.setattr(type(adapter), "evaluate_partials", spy)
        value = s2.engine().evaluate(s2._eval_fn(s2.adapter),
                                     s2.trained_model, s2.eval_data, cfg)
        assert value == expected
        assert executed == [(8, 16), (24, 32), (32, 40)]

    def test_shard_entries_never_satisfy_cell_lookup(self, tmp_path):
        from repro.core import RunStore, run_manifest
        store = RunStore(tmp_path)
        ledger = store.create(run_manifest(task="cls", model="m", seed=0,
                                           noises=["decoder"]), "r2")
        ledger.record_shard("m", "digest", "cfg0", start=0, stop=8,
                            state={"kind": "accuracy", "correct": 4,
                                   "total": 8})
        assert ledger.lookup("m", "digest", "cfg0") is None
        hit = ledger.lookup_shard("m", "digest", "cfg0", 0, 8)
        assert hit["state"]["correct"] == 4
        # Different bounds (other shard geometry) must miss.
        assert ledger.lookup_shard("m", "digest", "cfg0", 0, 10) is None
        # Shard entries survive a replay from disk.
        reopened = store.open("r2")
        assert reopened.lookup_shard("m", "digest", "cfg0", 0, 8) is not None

    def test_streamed_sweep_peak_memory_is_shardbound(self):
        """Tracemalloc peak of a streamed row ≤ the decoded-dataset bytes;
        the monolithic row exceeds them (the O(shard) vs O(dataset) gate —
        the full-size version runs in benchmarks/bench_perf.py)."""
        import tracemalloc
        from repro.data import make_classification_dataset
        from repro.models import create_model
        ds = make_classification_dataset(n=64, native_size=64, input_size=32,
                                         seed=0)
        model = create_model("mcunet-293kb", num_classes=ds.num_classes,
                             seed=0)
        model.eval()
        adapter = get_task("cls")

        def row(shard):
            cache = DecodeCache()
            engine = SweepEngine(eval_cache=EvalCache(), shard_size=shard,
                                 task="cls" if shard else None, batch_size=8,
                                 pipeline_cache=cache)
            ev = lambda m, d, cfg: adapter.evaluate(m, d, cfg, cache=cache,
                                                    batch_size=8)
            return engine.noise_row(ev, model, ds, ["decoder"],
                                    include_combined=False)

        decoded_bytes = len(ds) * 64 * 64 * 3 * 8     # float64 pixel batch
        tracemalloc.start()
        mono = row(None)
        mono_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        tracemalloc.start()
        streamed = row(8)
        stream_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()

        assert streamed["trained"] == mono["trained"]
        assert (streamed["noises"]["decoder"].values
                == mono["noises"]["decoder"].values)
        assert mono_peak > decoded_bytes
        assert stream_peak < decoded_bytes
        assert stream_peak * 2 < mono_peak
