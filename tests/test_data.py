"""Tests for the synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import (CLASS_NAMES, NUM_CLASSES, make_classification_dataset,
                        make_detection_dataset, make_nlp_suite,
                        make_segmentation_dataset, make_tts_dataset,
                        render_class_image, synthesize_utterance)
from repro.core import cache
from repro.data import shapes
from repro.image import decode


class TestShapes:
    def test_masks_in_unit_range(self):
        rng = np.random.default_rng(0)
        for mask in [shapes.disk(16, 16, 8, 8, 5),
                     shapes.ring(16, 16, 8, 8, 5),
                     shapes.rectangle(16, 16, 8, 8, 4, 4),
                     shapes.triangle(16, 16, 8, 8, 5),
                     shapes.cross(16, 16, 8, 8, 5),
                     shapes.stripes(16, 16, 0.3, 4),
                     shapes.checkerboard(16, 16, 4),
                     shapes.blob(16, 16, rng)]:
            assert mask.shape == (16, 16)
            assert mask.min() >= 0.0 and mask.max() <= 1.0 + 1e-9

    def test_disk_interior_exterior(self):
        m = shapes.disk(20, 20, 10, 10, 6)
        assert m[10, 10] == 1.0
        assert m[0, 0] == 0.0

    def test_disk_edge_antialiased(self):
        m = shapes.disk(20, 20, 10.0, 10.0, 5.2)
        frac = ((m > 0) & (m < 1)).sum()
        assert frac > 0  # soft boundary exists

    def test_rectangle_rotation_changes_mask(self):
        a = shapes.rectangle(20, 20, 10, 10, 6, 3, angle=0.0)
        b = shapes.rectangle(20, 20, 10, 10, 6, 3, angle=0.6)
        assert not np.allclose(a, b)

    def test_paste_composites(self):
        canvas = np.zeros((4, 4, 3))
        mask = np.ones((4, 4))
        out = shapes.paste(canvas, mask, np.array([10.0, 20.0, 30.0]))
        np.testing.assert_array_equal(out[0, 0], [10, 20, 30])


def _reference_blob(h, w, rng, smoothness=4):
    """``shapes.blob`` as it was: two ``apply_along_axis(np.convolve)`` passes."""
    coarse = rng.random((smoothness, smoothness))
    reps = (int(np.ceil(h / smoothness)), int(np.ceil(w / smoothness)))
    up = np.kron(coarse, np.ones(reps))[:h, :w]
    k = np.ones(3) / 3
    up = np.apply_along_axis(lambda r: np.convolve(r, k, mode="same"), 1, up)
    up = np.apply_along_axis(lambda c: np.convolve(c, k, mode="same"), 0, up)
    lo, hi = up.min(), up.max()
    return (up - lo) / max(hi - lo, 1e-9)


BLOB_SIDES = [3, 5, 9, 13, 17, 37, 48, 64, 80, 97]


class TestBlobSmoothing:
    @pytest.mark.parametrize("h", BLOB_SIDES)
    def test_blob_bits_match_per_row_reference(self, h):
        for w in BLOB_SIDES:
            for smoothness in range(2, 7):
                for seed in range(20):
                    ref = _reference_blob(h, w, np.random.default_rng(seed),
                                          smoothness)
                    got = shapes.blob(h, w, np.random.default_rng(seed),
                                      smoothness)
                    assert got.shape == ref.shape
                    assert got.tobytes() == ref.tobytes(), (h, w, smoothness,
                                                            seed)

    @pytest.mark.parametrize("transposed", [False, True])
    @pytest.mark.parametrize("kernel", ["box", "random"])
    def test_rows_match_np_convolve_same(self, kernel, transposed):
        """Equal to ``np.convolve(row, k, "same")`` per row, bit for bit.

        ``np.convolve`` computes each row's two end outputs with the BLAS
        dot product, which may fuse multiply and add, and its interior
        without fusing, so slice arithmetic misses end outputs by an ulp;
        the helper uses the same two kernels.  Magnitudes span 1e-3..1e3.
        """
        rng = np.random.default_rng(1 + transposed)
        for _ in range(300):
            h, w = int(rng.integers(1, 60)), int(rng.integers(3, 60))
            scale = 10.0 ** rng.uniform(-3, 3)
            if transposed:
                x = (rng.normal(size=(w, h)) * scale).T
            else:
                x = rng.normal(size=(h, w)) * scale
            k = np.ones(3) / 3 if kernel == "box" else rng.normal(size=3)
            ref = np.stack([np.convolve(row, k, "same") for row in x])
            got = shapes._convolve_rows_same(x, k)
            assert got.tobytes() == ref.tobytes(), (h, w)


class TestDatasetDigestMemo:
    @pytest.mark.parametrize("make", [
        lambda: make_classification_dataset(n=6, native_size=16, seed=0),
        lambda: make_detection_dataset(n=3, size=32, seed=0),
        lambda: make_segmentation_dataset(n=3, size=32, seed=0),
    ], ids=["classification", "detection", "segmentation"])
    def test_stream_digest_computed_once_per_dataset(self, make,
                                                     monkeypatch):
        ds = make()
        digest = cache.streams_digest
        calls = []

        def counting(streams):
            calls.append(len(streams))
            return digest(streams)

        monkeypatch.setattr(cache, "streams_digest", counting)
        tokens = {cache.dataset_token(ds) for _ in range(5)}
        assert tokens == {digest(ds.streams)}
        assert len(calls) == 1


class TestClassificationDataset:
    @pytest.fixture(scope="class")
    def ds(self):
        return make_classification_dataset(n=40, native_size=32, seed=0)

    def test_sizes_and_types(self, ds):
        assert len(ds) == 40
        assert ds.images.shape == (40, 32, 32, 3)
        assert ds.images.dtype == np.uint8
        assert len(ds.streams) == 40

    def test_labels_balanced(self, ds):
        counts = np.bincount(ds.labels, minlength=NUM_CLASSES)
        assert counts.min() >= 3

    def test_streams_decode_close_to_images(self, ds):
        out = decode(ds.streams[0])
        err = np.abs(out.astype(int) - ds.images[0].astype(int))
        assert err.mean() < 8.0

    def test_deterministic_given_seed(self):
        a = make_classification_dataset(n=8, native_size=24, seed=5)
        b = make_classification_dataset(n=8, native_size=24, seed=5)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_different_seed_different_data(self):
        a = make_classification_dataset(n=8, native_size=24, seed=1)
        b = make_classification_dataset(n=8, native_size=24, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_split(self, ds):
        tr, va = ds.split(30)
        assert len(tr) == 30 and len(va) == 10

    def test_classes_visually_distinct(self):
        """Mean inter-class distance must dominate intra-class distance."""
        rng = np.random.default_rng(3)
        per_class = [np.stack([render_class_image(c, 32, rng).astype(float)
                               for _ in range(4)]) for c in range(NUM_CLASSES)]
        means = np.stack([p.mean(axis=0) for p in per_class])
        inter = np.abs(means[:, None] - means[None, :]).mean()
        assert inter > 5.0

    def test_all_class_names_render(self):
        rng = np.random.default_rng(0)
        for c, name in enumerate(CLASS_NAMES):
            img = render_class_image(c, 24, rng)
            assert img.shape == (24, 24, 3)

    def test_invalid_label_raises(self):
        with pytest.raises(ValueError):
            render_class_image(10, 24, np.random.default_rng(0))


class TestDetectionDataset:
    @pytest.fixture(scope="class")
    def ds(self):
        return make_detection_dataset(n=12, size=48, seed=0)

    def test_shapes(self, ds):
        assert len(ds) == 12
        assert ds.native_size == 60          # 48 * 1.25
        assert ds.images.shape == (12, 60, 60, 3)

    def test_gt_boxes_in_input_coordinates(self, ds):
        for gt in ds.gt_boxes:
            assert gt.shape[1] == 5
            cls, x1, y1, x2, y2 = gt.T if len(gt) else (np.empty(0),) * 5
            if len(gt):
                assert (x2 > x1).all() and (y2 > y1).all()
                assert (x1 >= -1).all() and (x2 <= 49).all()
                assert set(np.unique(cls)).issubset({0, 1, 2})

    def test_native_scale_one_keeps_native(self):
        ds = make_detection_dataset(n=2, size=32, seed=1, native_scale=1.0)
        assert ds.images.shape[1] == 32

    def test_at_least_one_object_usually(self, ds):
        n_obj = [len(g) for g in ds.gt_boxes]
        assert np.mean(n_obj) >= 1.0

    def test_deterministic(self):
        a = make_detection_dataset(n=4, size=32, seed=7)
        b = make_detection_dataset(n=4, size=32, seed=7)
        np.testing.assert_array_equal(a.images, b.images)


class TestSegmentationDataset:
    @pytest.fixture(scope="class")
    def ds(self):
        return make_segmentation_dataset(n=8, size=40, seed=0)

    def test_shapes(self, ds):
        assert ds.images.shape == (8, 50, 50, 3)    # native = 40 * 1.25
        assert ds.labels.shape == (8, 40, 40)       # labels at input res

    def test_labels_in_range(self, ds):
        assert ds.labels.min() >= 0 and ds.labels.max() <= 3

    def test_road_band_at_bottom(self, ds):
        # Last row should mostly be road (label 1)
        bottom = ds.labels[:, -1, :]
        assert (bottom == 1).mean() > 0.9

    def test_sky_at_top(self, ds):
        top = ds.labels[:, 0, :]
        assert (top == 0).mean() > 0.5


class TestNLPSuite:
    @pytest.fixture(scope="class")
    def suite(self):
        return make_nlp_suite(n_per_task=20, seed=0)

    def test_four_tasks(self, suite):
        _, tasks = suite
        assert set(tasks) == {"piqa", "lambada", "hellaswag", "winogrande"}

    def test_task_sizes(self, suite):
        _, tasks = suite
        for t in tasks.values():
            assert len(t) == 20
            assert len(t.prefixes) == len(t.choices) == 20

    def test_answers_within_choice_count(self, suite):
        _, tasks = suite
        for t in tasks.values():
            for i, ans in enumerate(t.answers):
                assert 0 <= ans < len(t.choices[i])

    def test_recall_rule_consistent(self, suite):
        grammar, _ = suite
        rng = np.random.default_rng(0)
        seq = grammar.sample_recall(16, rng)
        marker_pos = int(np.argmax(seq == grammar.marker))
        payload = seq[marker_pos + 1]
        assert seq[-1] == grammar.perm[payload]

    def test_corpus_shape_and_range(self, suite):
        grammar, _ = suite
        corpus = grammar.corpus(n_sequences=10, length=16)
        assert corpus.shape == (10, 16)
        assert corpus.min() >= 0 and corpus.max() < grammar.vocab_size

    def test_chain_respects_successor_structure(self, suite):
        grammar, _ = suite
        rng = np.random.default_rng(1)
        seq = grammar.sample_chain(50, rng)
        for a, b in zip(seq[:-1], seq[1:]):
            assert b in grammar.successors[a]


class TestTTSDataset:
    def test_dataset_sizes(self):
        ds = make_tts_dataset(n=5, seed=0)
        assert len(ds) == 5
        for toks, wave in zip(ds.token_seqs, ds.waveforms):
            assert len(wave) == len(toks) * 256

    def test_waveform_bounded(self):
        wave = synthesize_utterance(np.array([0, 5, 11]))
        assert np.abs(wave).max() < 4.0

    def test_deterministic_without_jitter(self):
        a = synthesize_utterance(np.array([1, 2, 3]))
        b = synthesize_utterance(np.array([1, 2, 3]))
        np.testing.assert_array_equal(a, b)

    def test_different_tokens_different_audio(self):
        a = synthesize_utterance(np.array([0]))
        b = synthesize_utterance(np.array([7]))
        assert not np.allclose(a, b)
