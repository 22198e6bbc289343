"""Integration tests for the benchmark drivers (small, fast settings).

Per-task metrics come from ``get_task(name).evaluate``; sweeps, rows and
worst-case curves from a serial :class:`SweepEngine`.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (TRAIN_CONFIG, NoiseResult, SweepEngine, get_task,
                        render_curve, render_table,
                        train_classification_model, train_detection_model,
                        train_segmentation_model)
from repro.data import (make_classification_dataset, make_detection_dataset,
                        make_segmentation_dataset)
from repro.detection import RetinaNetLite
from repro.segmentation import UNetLite

evaluate_cls = get_task("cls").evaluate
evaluate_det = get_task("det").evaluate
evaluate_seg = get_task("seg").evaluate


@pytest.fixture(scope="module")
def cls_setup():
    ds = make_classification_dataset(n=160, native_size=40, input_size=32,
                                     seed=0)
    train, val = ds.split(120)
    model = train_classification_model(
        "resnet18x0.5", train,
        nn.TrainConfig(epochs=15, batch_size=32, lr=0.08))
    return model, val


class TestNoiseResult:
    def test_delta_statistics(self):
        r = NoiseResult("resize", baseline=80.0, values=[78.0, 79.0, 75.0])
        assert r.mean_delta == pytest.approx(80 - np.mean([78, 79, 75]))
        assert r.max_delta == pytest.approx(5.0)

    def test_empty_result_nan(self):
        r = NoiseResult("color", baseline=80.0)
        assert np.isnan(r.mean_delta)


class TestClassificationBenchmark:
    def test_clean_accuracy_reasonable(self, cls_setup):
        model, val = cls_setup
        acc = evaluate_cls(model, val, TRAIN_CONFIG)
        assert acc > 40.0

    def test_sweep_decoder_has_three_variants(self, cls_setup):
        model, val = cls_setup
        res = SweepEngine().sweep_noise(evaluate_cls, model, val, "decoder")
        assert len(res.values) == 3

    def test_noise_row_structure(self, cls_setup):
        model, val = cls_setup
        row = SweepEngine().noise_row(evaluate_cls, model, val,
                                      ["decoder", "precision"],
                                      include_combined=True)
        assert set(row["noises"]) == {"decoder", "precision"}
        assert isinstance(row["combined"], float)

    def test_skip_marks_none(self, cls_setup):
        model, val = cls_setup
        row = SweepEngine().noise_row(evaluate_cls, model, val,
                                      ["decoder", "ceil_mode"],
                                      skip={"ceil_mode"},
                                      include_combined=False)
        assert row["noises"]["ceil_mode"] is None

    def test_worst_case_curve_monotone_config_growth(self, cls_setup):
        model, val = cls_setup
        curve = SweepEngine().worst_case_curve(evaluate_cls, model, val,
                                               ["resize", "precision"])
        assert [n for n, _ in curve] == ["resize", "precision"]

    def test_render_table_contains_row(self, cls_setup):
        model, val = cls_setup
        row = SweepEngine().noise_row(evaluate_cls, model, val, ["color"],
                                      include_combined=False)
        text = render_table({"resnet18x0.5": row}, ["color"], "ACC", "t")
        assert "resnet18x0.5" in text

    def test_render_curve(self):
        text = render_curve([("resize", 2.0), ("int8", 1.0)], "ACC")
        assert "+resize" in text


class TestDetectionBenchmark:
    @pytest.fixture(scope="class")
    def det_setup(self):
        ds = make_detection_dataset(n=60, size=48, seed=0, max_objects=2)
        train, val = ds.split(44)
        model = RetinaNetLite(backbone="resnet-34", num_classes=3,
                              fpn_channels=12, seed=0)
        from repro.detection import DetTrainConfig
        train_detection_model(model, train,
                              DetTrainConfig(epochs=14, batch_size=8, lr=4e-3))
        return model, val

    def test_detector_trained_via_pipeline(self, det_setup):
        model, val = det_setup
        mAP = evaluate_det(model, val, TRAIN_CONFIG)
        assert mAP > 3.0

    def test_proposal_noise_changes_map(self, det_setup):
        model, val = det_setup
        base = evaluate_det(model, val, TRAIN_CONFIG)
        off = evaluate_det(model, val,
                           TRAIN_CONFIG.with_(aligned_offset=1.0))
        assert base != off

    def test_upsample_noise_evaluates(self, det_setup):
        model, val = det_setup
        noised = evaluate_det(model, val,
                              TRAIN_CONFIG.with_(upsample_mode="bilinear"))
        assert 0.0 <= noised <= 100.0


class TestSegmentationBenchmark:
    @pytest.fixture(scope="class")
    def seg_setup(self):
        ds = make_segmentation_dataset(n=32, size=32, seed=0)
        train, val = ds.split(24)
        model = UNetLite(num_classes=4, width=6, seed=0)
        from repro.segmentation import SegTrainConfig
        train_segmentation_model(model, train,
                                 SegTrainConfig(epochs=8, batch_size=8))
        return model, val

    def test_miou_reasonable(self, seg_setup):
        model, val = seg_setup
        miou = evaluate_seg(model, val, TRAIN_CONFIG)
        assert miou > 30.0

    def test_upsample_flip_changes_miou(self, seg_setup):
        model, val = seg_setup
        base = evaluate_seg(model, val, TRAIN_CONFIG)
        flip = evaluate_seg(model, val,
                            TRAIN_CONFIG.with_(upsample_mode="bilinear"))
        assert base != flip

    def test_decoder_noise_smaller_than_upsample(self, seg_setup):
        """Paper Table 4: decode Δ ≈ 0, upsample Δ dominates for segmentation."""
        model, val = seg_setup
        base = evaluate_seg(model, val, TRAIN_CONFIG)
        dec = min(abs(base - evaluate_seg(
            model, val, TRAIN_CONFIG.with_(decoder=d)))
            for d in ("pil", "opencv", "ffmpeg"))
        ups = abs(base - evaluate_seg(
            model, val, TRAIN_CONFIG.with_(upsample_mode="bilinear")))
        assert dec <= ups + 1.0
