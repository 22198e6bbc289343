"""Tests for the SweepEngine, EvalCache, and shared-baseline memoisation."""

import threading

import numpy as np
import pytest

from repro.core import (TRAIN_CONFIG, EvalCache, NoiseConfig, SweepEngine,
                        eval_key, object_token)
from repro.core.cache import DecodeCache, dataset_token


class FakeDataset:
    """Stands in for a dataset; content identity comes from streams."""

    def __init__(self, payloads):
        class Raw:
            def __init__(self, b):
                self._b = b

            def tobytes(self):
                return self._b

        self.streams = [Raw(p) for p in payloads]


class CountingEvaluator:
    """Deterministic metric keyed on the config; counts invocations."""

    def __init__(self):
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, model, ds, cfg):
        with self.lock:
            self.calls.append(cfg)
        # Any deterministic function of the config works as a fake metric.
        return 90.0 - 2.0 * (cfg.decoder != "dali") \
            - 1.0 * (cfg.resize_method != "pillow-bilinear") \
            - 4.0 * (cfg.precision != "fp32")


class FakeModel:
    """Weak-referenceable stand-in (bare ``object()`` has no weakref slot,
    so it would — correctly — never be memoised)."""


@pytest.fixture
def model():
    return FakeModel()


@pytest.fixture
def ds():
    return FakeDataset([b"stream-a", b"stream-b"])


class TestEvalCache:
    def test_baseline_computed_once_across_rows(self, model, ds):
        ev = CountingEvaluator()
        engine = SweepEngine(eval_cache=EvalCache())
        engine.noise_row(ev, model, ds, ["decoder"])
        baseline_calls = sum(cfg == TRAIN_CONFIG for cfg in ev.calls)
        engine.noise_row(ev, model, ds, ["resize"])
        engine.worst_case_curve(ev, model, ds, ["decoder", "resize"])
        # The clean baseline ran exactly once for the whole session.
        assert sum(cfg == TRAIN_CONFIG for cfg in ev.calls) == baseline_calls == 1

    def test_variant_metrics_shared_between_apis(self, model, ds):
        ev = CountingEvaluator()
        engine = SweepEngine(eval_cache=EvalCache())
        engine.sweep_noise(ev, model, ds, "decoder")
        n_calls = len(ev.calls)
        # Same variants again: everything is a cache hit.
        engine.sweep_noise(ev, model, ds, "decoder")
        assert len(ev.calls) == n_calls

    def test_key_distinguishes_models(self, ds):
        m1, m2 = FakeModel(), FakeModel()
        assert eval_key(m1, ds, TRAIN_CONFIG) != eval_key(m2, ds, TRAIN_CONFIG)

    def test_key_distinguishes_configs(self, model, ds):
        assert (eval_key(model, ds, TRAIN_CONFIG)
                != eval_key(model, ds, TRAIN_CONFIG.with_(precision="int8")))

    def test_dataset_key_is_content_based(self):
        a = FakeDataset([b"one", b"two"])
        b = FakeDataset([b"one", b"two"])     # distinct objects, same bytes
        assert dataset_token(a) == dataset_token(b)
        assert dataset_token(a) != dataset_token(FakeDataset([b"three"]))

    def test_invalidation_via_clear(self, model, ds):
        ev = CountingEvaluator()
        cache = EvalCache()
        engine = SweepEngine(eval_cache=cache)
        engine.baseline(ev, model, ds)
        engine.baseline(ev, model, ds)
        assert len(ev.calls) == 1 and cache.hits == 1
        cache.clear()                          # e.g. the model was retrained
        engine.baseline(ev, model, ds)
        assert len(ev.calls) == 2

    def test_lru_bound(self):
        cache = EvalCache(maxsize=2)
        for i in range(4):
            cache.evaluate(("k", i), lambda i=i: float(i))
        assert len(cache) == 2

    def test_object_token_not_recycled(self):
        class Thing:
            pass

        t = Thing()
        token = object_token(t)
        assert object_token(t) == token        # stable for the same object
        del t
        assert object_token(Thing()) != token  # never reissued

    def test_unweakrefable_objects_never_share_tokens(self):
        # Lists can't be weak-referenced; rather than falling back to an
        # id()-style key (reusable after gc), each call gets a fresh token —
        # no memoisation, but no stale hits either.
        payload = [1, 2, 3]
        assert object_token(payload) != object_token(payload)

    def test_unhashable_custom_variant_does_not_crash(self, model, ds):
        """Custom noises may carry unhashable variants (dict/list params);
        they skip memoisation instead of aborting the sweep."""
        from repro.core import NoiseSource, temporary_noise

        class DictNoise(NoiseSource):
            name = "dictnoise"
            stage = "pre-processing"
            tasks = ("cls",)

            def variants(self):
                return [{"gain": 1.2}, {"gain": 0.8}]

        ev = CountingEvaluator()
        with temporary_noise(DictNoise):
            row = SweepEngine(eval_cache=EvalCache()).noise_row(
                ev, model, ds, ["dictnoise"], include_combined=False)
        assert len(row["noises"]["dictnoise"].values) == 2

    def test_int8_deployment_not_shared_across_datasets(self):
        """A quantised model calibrated on one dataset must not be served
        for another dataset sharing the same pipeline cache."""
        from repro.core.pipeline import deployment_model

        calibrated_on = []

        class FakeModel:
            training = False

            def __deepcopy__(self, memo):
                return FakeModel()

        import repro.core.pipeline as pipeline
        original = pipeline.apply_precision

        def fake_apply_precision(model, precision, calibrate):
            calibrate(model)
            return model

        cache = DecodeCache()
        model = FakeModel()
        cfg = TRAIN_CONFIG.with_(precision="int8")
        pipeline.apply_precision = fake_apply_precision
        try:
            for name in ("ds-A", "ds-B"):
                deployment_model(model, cfg,
                                 calibrate=lambda m, n=name:
                                     calibrated_on.append(n),
                                 cache=cache, calib_key=name)
        finally:
            pipeline.apply_precision = original
        assert calibrated_on == ["ds-A", "ds-B"]   # B did not reuse A's copy


class TestSweepEngine:
    def test_parallel_results_identical_to_serial(self, model, ds):
        serial = SweepEngine(workers=None, eval_cache=EvalCache()).noise_row(
            CountingEvaluator(), model, ds, ["decoder", "resize", "precision"])
        parallel = SweepEngine(workers=4, eval_cache=EvalCache()).noise_row(
            CountingEvaluator(), model, ds, ["decoder", "resize", "precision"])
        assert serial["trained"] == parallel["trained"]
        assert serial["combined"] == parallel["combined"]
        for name in ("decoder", "resize", "precision"):
            assert (serial["noises"][name].values
                    == parallel["noises"][name].values)

    def test_effective_workers_capped_by_cores(self):
        engine = SweepEngine(workers=64)
        from repro.core.sweep import available_cores
        assert engine.effective_workers <= max(1, available_cores())
        assert SweepEngine(workers=None).effective_workers == 1

    def test_effective_workers_respects_affinity(self, monkeypatch):
        """The cap follows the cores *available to the process* (container /
        cgroup limits), not the raw machine core count."""
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 3)
        assert SweepEngine(workers=64).effective_workers == 3
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 1)
        assert SweepEngine(workers=4).effective_workers == 1

    def test_available_cores_positive(self):
        from repro.core.sweep import available_cores
        assert available_cores() >= 1

    def test_skip_reported_as_none(self, model, ds):
        row = SweepEngine().noise_row(CountingEvaluator(), model, ds,
                                      ["decoder", "ceil_mode"],
                                      skip={"ceil_mode"})
        assert row["noises"]["ceil_mode"] is None
        assert row["noises"]["decoder"] is not None

    def test_worst_case_curve_matches_legacy_shape(self, model, ds):
        curve = SweepEngine().worst_case_curve(
            CountingEvaluator(), model, ds, ["resize", "decoder"])
        assert [name for name, _ in curve] == ["decoder", "resize"]
        assert all(isinstance(delta, float) for _, delta in curve)


class TestDecodeCachePreproc:
    def test_memo_and_drop_prefix(self):
        cache = DecodeCache(maxsize=8)
        cache.memo(("model", 1, "int8"), lambda: "quantised")
        cache.memo(("preproc", "digest"), lambda: np.zeros(3))
        assert len(cache) == 2
        cache.drop_prefix("model")
        assert len(cache) == 1
        # preproc entry survived
        out = cache.memo(("preproc", "digest"), lambda: np.ones(3))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_byte_budget_evicts(self):
        cache = DecodeCache(maxsize=100, max_bytes=4000)
        for i in range(8):
            cache.memo(("preproc", i), lambda: np.zeros(128))   # 1 KB each
        assert len(cache) <= 4


# ---------------------------------------------------------------------------
# Process-parallel sweeps
# ---------------------------------------------------------------------------

def _tiny_cls_fixture():
    from repro.core import get_task
    from repro.data import make_classification_dataset
    from repro.models import create_model

    ds = make_classification_dataset(n=12, native_size=48, input_size=32,
                                     seed=3)
    m = create_model("mcunet-293kb", num_classes=ds.num_classes, seed=0)
    m.eval()
    return get_task("cls"), m, ds


class TestProcessMode:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SweepEngine(mode="fiber")

    def test_process_results_identical_to_serial(self, monkeypatch):
        """A 2-worker process sweep returns exactly the serial metrics (the
        core count is patched so the pool engages on single-core CI too)."""
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        adapter, m, ds = _tiny_cls_fixture()
        serial = SweepEngine(eval_cache=EvalCache()).noise_row(
            adapter.evaluate, m, ds, ["decoder", "precision"])
        proc = SweepEngine(workers=2, eval_cache=EvalCache(),
                           mode="process").noise_row(
            adapter.evaluate, m, ds, ["decoder", "precision"])
        assert serial["trained"] == proc["trained"]
        assert serial["combined"] == proc["combined"]
        for name in ("decoder", "precision"):
            assert (serial["noises"][name].values
                    == proc["noises"][name].values)

    def test_process_results_land_in_parent_eval_cache(self, monkeypatch):
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        adapter, m, ds = _tiny_cls_fixture()
        cache = EvalCache()
        engine = SweepEngine(workers=2, eval_cache=cache, mode="process")
        engine.sweep_noise(adapter.evaluate, m, ds, "decoder")
        assert cache.misses > 0
        before = cache.hits
        engine.sweep_noise(adapter.evaluate, m, ds, "decoder")
        assert cache.hits > before          # re-sweep served from the cache

    def test_unpicklable_evaluate_falls_back_to_threads(self, monkeypatch):
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        lock = threading.Lock()             # unpicklable capture

        def evaluate(model, ds, cfg):
            with lock:
                return 42.0 - (cfg.precision != "fp32")

        engine = SweepEngine(workers=2, eval_cache=EvalCache(),
                             mode="process")
        result = engine.sweep_noise(evaluate, FakeModel(),
                                    FakeDataset([b"s"]), "precision")
        assert result.values                # computed despite the fallback

    def test_session_process_eval_fn_is_picklable(self):
        import pickle

        from repro.core import BenchmarkSession
        session = BenchmarkSession().task("cls").workers(2, mode="process")
        fn = session._eval_fn(session.adapter)
        pickle.dumps(fn)
