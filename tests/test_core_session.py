"""Tests for BenchmarkSession, the decode cache, and end-to-end pluggability.

The headline acceptance test registers a brand-new "gamma" pre-processing
noise — registration only, no edits to benchmark drivers or the CLI — and
sweeps it through a BenchmarkSession on the classification adapter.
"""

import gc

import numpy as np
import pytest

from repro.core import (CLS_NOISES, NOISE_TAXONOMY, TRAIN_CONFIG,
                        BenchmarkSession, DecodeCache, NoiseSource, Session,
                        streams_digest, temporary_noise)
from repro.data import make_classification_dataset


class GammaNoise(NoiseSource):
    """Toy deployment noise: the serving stack applies a gamma curve."""

    name = "gamma"
    stage = "pre-processing"
    tasks = ("cls",)
    input_dependent = True

    def variants(self):
        return [0.8, 1.25]

    def apply_image(self, image, variant):
        scaled = (image.astype(np.float64) / 255.0) ** variant
        return (scaled * 255.0).round().clip(0, 255).astype(np.uint8)


@pytest.fixture(scope="module")
def tiny_cls():
    ds = make_classification_dataset(n=30, native_size=40, input_size=32,
                                     seed=0)
    return ds.split(22)


class TestDecodeCache:
    def _streams(self, seed=0, n=4):
        ds = make_classification_dataset(n=n, native_size=24, input_size=16,
                                         seed=seed)
        return ds.streams

    def test_digest_frames_item_boundaries(self):
        class Raw:
            def __init__(self, b):
                self._b = b
            def tobytes(self):
                return self._b

        a = [Raw(b"ABC"), Raw(b"D")]
        b = [Raw(b"A"), Raw(b"BCD")]      # same concatenation, same count
        assert streams_digest(a) != streams_digest(b)

    def test_content_digest_stable_across_objects(self):
        a, b = self._streams(seed=3), self._streams(seed=3)
        assert a is not b
        assert streams_digest(a) == streams_digest(b)
        assert streams_digest(a) != streams_digest(self._streams(seed=4))

    def test_no_stale_entry_after_id_reuse(self):
        """The seed bug: id()-keyed caching could serve another dataset's
        pixels once the original list was garbage collected."""
        cache = DecodeCache(maxsize=4)
        decode = lambda streams, dec: np.stack(
            [np.full((2, 2, 3), i, dtype=np.uint8)
             for i, _ in enumerate(streams)])
        a = self._streams(seed=1)
        out_a = cache.decode(a, "pil", decode)
        del a
        gc.collect()
        b = self._streams(seed=2)          # may reuse the freed list's id
        out_b = cache.decode(b, "pil", decode)
        assert cache.misses == 2           # different contents → no false hit
        assert out_a is not out_b

    def test_hit_on_equal_contents(self):
        cache = DecodeCache(maxsize=4)
        calls = []
        decode = lambda streams, dec: (calls.append(1),
                                       np.zeros((len(streams), 2, 2, 3)))[1]
        cache.decode(self._streams(seed=5), "pil", decode)
        cache.decode(self._streams(seed=5), "pil", decode)
        assert len(calls) == 1 and cache.hits == 1

    def test_decoder_is_part_of_the_key(self):
        cache = DecodeCache(maxsize=4)
        decode = lambda streams, dec: np.zeros((1,))
        s = self._streams(seed=6)
        cache.decode(s, "pil", decode)
        cache.decode(s, "opencv", decode)
        assert cache.misses == 2

    def test_lru_bound_evicts_oldest(self):
        cache = DecodeCache(maxsize=2)
        decode = lambda streams, dec: np.zeros((1,))
        s = self._streams(seed=7)
        for dec in ("pil", "opencv", "ffmpeg"):
            cache.decode(s, dec, decode)
        assert len(cache) == 2
        cache.decode(s, "pil", decode)     # evicted → miss again
        assert cache.misses == 4

    def test_personas_share_one_huffman_decode(self, monkeypatch):
        import repro.core.pipeline as pipeline
        from repro.image import jpeg
        from repro.image.jpeg import DECODER_LIBRARIES, decode_batch
        streams = self._streams(seed=6, n=5)
        calls = []
        real = jpeg.entropy_decode

        def spy(s, *rest):
            calls.append(len(s))
            return real(s, *rest)

        # Both bindings: the pipeline's memoised call, and decode_batch's
        # own, which must not run when it is handed the coefficients.
        monkeypatch.setattr(pipeline, "entropy_decode", spy)
        monkeypatch.setattr(jpeg, "entropy_decode", spy)
        cache = DecodeCache()
        for lib, (idct, chroma) in DECODER_LIBRARIES.items():
            got = pipeline.decode_dataset(streams, lib, cache)
            assert got.tobytes() == decode_batch(streams, idct,
                                                 chroma).tobytes()
        assert calls == [5] * 5                # 1 shared + 4 references
        calls.clear()
        cache.clear()
        for lib in DECODER_LIBRARIES:
            pipeline.decode_dataset(streams, lib, cache)
        assert calls == [5]                    # one Huffman decode in all
        assert len(cache) == len(DECODER_LIBRARIES) + 1
        pipeline.decode_dataset(streams[:3], "pil", cache)
        assert calls == [5, 3]                 # keyed on the contents

    def test_maxsize_validated(self):
        with pytest.raises(ValueError):
            DecodeCache(maxsize=0)


class TestBenchmarkSession:
    def test_fluent_run_produces_row(self, tiny_cls):
        train, val = tiny_cls
        result = (Session()
                  .task("cls")
                  .model("mcunet-293kb")
                  .dataset(val)
                  .noises("color", "precision")
                  .run())
        assert result.metric == "ACC"
        assert set(result.results) == {"color", "precision"}
        assert len(result.results["precision"].values) == 2
        row = result.row()
        assert isinstance(row["trained"], float) and "combined" in row

    def test_skip_marks_none_and_render_shows_dash(self, tiny_cls):
        _, val = tiny_cls
        result = (Session().task("cls").model("mcunet-293kb").dataset(val)
                  .noises("color", "ceil_mode").skip("ceil_mode")
                  .combined(False).run())
        assert result.results["ceil_mode"] is None
        text = result.render()
        assert "mcunet-293kb" in text and "-" in text

    def test_session_cache_reused_across_sweeps(self, tiny_cls):
        _, val = tiny_cls
        session = (Session().task("cls").model("mcunet-293kb").dataset(val)
                   .noises("color").combined(False))
        session.run()
        misses_first = session.cache.misses
        session.run()
        assert session.cache.misses == misses_first   # second run: all hits
        assert session.cache.hits > 0

    def test_unknown_task_and_noise_fail_fast(self):
        with pytest.raises(ValueError, match="unknown task"):
            Session().task("quantum")
        with pytest.raises(ValueError, match="unknown noise"):
            Session().task("cls").noises("warp")

    def test_run_without_data_raises(self):
        with pytest.raises(ValueError, match="no evaluation data"):
            Session().task("cls").model("mcunet-293kb").run()

    def test_fit_without_train_split_raises(self, tiny_cls):
        _, val = tiny_cls
        with pytest.raises(ValueError, match="no training data"):
            Session().task("cls").model("mcunet-293kb").dataset(val).fit()

    def test_worst_case_curve_orders_like_fig3(self, tiny_cls):
        _, val = tiny_cls
        curve = (Session().task("cls").model("mcunet-293kb").dataset(val)
                 .worst_case(["precision", "resize"]))
        assert [n for n, _ in curve] == ["resize", "precision"]


class TestSessionCacheScope:
    def test_sessions_leave_the_default_decode_cache_empty(self):
        """fit, run and a train-time mitigation pre-process through the
        session's own cache, so a long-lived process (``repro serve``)
        keeps no training set of a finished session."""
        from repro.core.pipeline import default_decode_cache
        default = default_decode_cache()
        default.clear()
        sessions = [
            (Session().task("cls").model("mcunet-293kb")
             .data(n=24, native_size=32, input_size=32, train_frac=0.75)
             .noises("decoder").combined(False).mitigate("augment:standard")),
            (Session().task("cls").model("resnet18x0.25")
             .data(n=24, native_size=32, input_size=32, seed=1,
                   train_frac=0.75).noises("resize").combined(False)),
            (Session().task("det").model("retinanet")
             .data(n=8, size=32, train_frac=0.5).noises("decoder")
             .combined(False)),
            (Session().task("seg").model("unet")
             .data(n=8, size=32, train_frac=0.5).noises("decoder")
             .combined(False)),
        ]
        for session in sessions:
            session.fit(epochs=1)
            session.run()
            assert len(session.cache) > 0       # the session's cache did fill
        assert len(default) == 0


class TestPluggabilityAcceptance:
    """ISSUE acceptance: a new noise type needs registration only."""

    def test_gamma_noise_sweeps_through_session(self, tiny_cls):
        train, val = tiny_cls
        with temporary_noise(GammaNoise):
            # The registry views see it immediately...
            assert "gamma" in [s.name for s in NOISE_TAXONOMY]
            assert "gamma" in CLS_NOISES
            # ...and a stock session sweeps it with zero driver edits.
            session = (BenchmarkSession()
                       .task("cls")
                       .model("mcunet-293kb")
                       .data(train, n_train=18)
                       .fit(epochs=2)
                       .noises("gamma", "color"))
            result = session.run()
        assert set(result.results) == {"gamma", "color"}
        gamma = result.results["gamma"]
        assert len(gamma.values) == 2            # both variants evaluated
        assert all(0.0 <= v <= 100.0 for v in gamma.values)
        assert np.isfinite(result.combined)      # combined includes gamma
        assert "gamma" in result.render()
        # Session state is clean again: gamma is gone from the views.
        assert "gamma" not in CLS_NOISES

    def test_default_noise_list_includes_custom_noise(self, tiny_cls):
        _, val = tiny_cls
        with temporary_noise(GammaNoise):
            result = (Session().task("cls").model("mcunet-293kb").dataset(val)
                      .combined(False).run())
            assert "gamma" in result.noises
