"""Tests for the mitigation module: mix training, augmentations, PGD, TENT.

Training mechanisms are driven through the private helpers the registered
specs call (``_train_with_mix``, ``_adversarial_train``) so each test can
set its own training config; TENT through ``tent_episode`` and the
registered ``tent`` spec.
"""

import numpy as np
import pytest

import repro.nn as nn
from repro.core import TRAIN_CONFIG, get_task, preprocess_dataset
from repro.core.mitigations import mitigation_identity, mitigation_partials
from repro.data import make_classification_dataset
from repro.mitigation import (AUGMENTATIONS, cross_variant_matrix,
                              get_augmentation, pgd_attack, tent_episode)
from repro.mitigation.adversarial import _adversarial_train
from repro.mitigation.mix_training import _train_with_mix
from repro.models import create_model
from repro.nn import Tensor


@pytest.fixture(scope="module")
def small_ds():
    return make_classification_dataset(n=120, native_size=40, input_size=32,
                                       seed=0)


@pytest.fixture(scope="module")
def trained_cnn(small_ds):
    from repro.core import train_classification_model
    return train_classification_model(
        "resnet18x0.5", small_ds,
        nn.TrainConfig(epochs=12, batch_size=32, lr=0.08))


class TestAugmentations:
    def setup_method(self):
        self.rng = np.random.default_rng(0)
        self.xb = self.rng.standard_normal((8, 3, 16, 16)) * 0.2

    @pytest.mark.parametrize("name", list(AUGMENTATIONS))
    def test_shape_preserved(self, name):
        out = get_augmentation(name)(self.xb, self.rng)
        assert out.shape == self.xb.shape

    @pytest.mark.parametrize("name", list(AUGMENTATIONS))
    def test_output_changed_and_bounded(self, name):
        out = get_augmentation(name)(self.xb.copy(), self.rng)
        assert not np.array_equal(out, self.xb)
        assert np.abs(out).max() < 10.0

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            get_augmentation("randaugment")

    def test_apr_sp_preserves_mean_energy(self):
        out = get_augmentation("apr_sp")(self.xb.copy(), self.rng)
        assert abs(out.std() - self.xb.std()) < 0.5


class TestPGD:
    def test_attack_stays_in_ball(self, trained_cnn, small_ds):
        x = preprocess_dataset(small_ds.streams[:8], 32, TRAIN_CONFIG)
        y = small_ds.labels[:8]
        eps = 8 / 255
        adv = pgd_attack(trained_cnn, x, y, epsilon=eps, steps=3)
        assert np.abs(adv - x).max() <= eps + 1e-9

    def test_attack_reduces_accuracy(self, trained_cnn, small_ds):
        from repro.nn import evaluate_classifier
        x = preprocess_dataset(small_ds.streams, 32, TRAIN_CONFIG)
        y = small_ds.labels
        clean = evaluate_classifier(trained_cnn, x, y)
        adv = pgd_attack(trained_cnn, x, y, epsilon=12 / 255, steps=5)
        attacked = evaluate_classifier(trained_cnn, adv, y)
        assert attacked < clean

    def test_adversarial_training_improves_adv_accuracy(self, small_ds):
        from repro.nn import evaluate_classifier
        x = preprocess_dataset(small_ds.streams, 32, TRAIN_CONFIG)
        y = small_ds.labels
        model = create_model("resnet18x0.25", num_classes=10, seed=0)
        _adversarial_train(model, x, y,
                           nn.TrainConfig(epochs=8, batch_size=32, lr=0.05),
                           epsilon=8 / 255, pgd_steps=2)
        adv = pgd_attack(model, x[:32], y[:32], epsilon=8 / 255, steps=3)
        fresh = create_model("resnet18x0.25", num_classes=10, seed=5)
        assert (evaluate_classifier(model, adv, y[:32])
                > evaluate_classifier(fresh, adv, y[:32]))


class TestTENT:
    def test_adapts_only_bn_affine(self, trained_cnn, small_ds):
        x = preprocess_dataset(small_ds.streams[:32], 32, TRAIN_CONFIG)
        before = trained_cnn.state_dict()
        res = tent_episode(trained_cnn, x, steps=1, lr=1e-2)
        assert res.adapted
        adapted = res.model
        after_orig = trained_cnn.state_dict()
        for k in before:      # original untouched
            np.testing.assert_array_equal(before[k], after_orig[k])
        # adapted copy moved its BN affine params
        diff = [k for k in before
                if not np.allclose(before[k], adapted.state_dict()[k])]
        assert diff
        assert all(("weight" in k or "bias" in k or "running" in k)
                   for k in diff)

    def test_model_without_bn_returned_unchanged(self, small_ds):
        vit = create_model("vit-tiny", num_classes=10, seed=0)
        x = preprocess_dataset(small_ds.streams[:16], 32, TRAIN_CONFIG)
        res = tent_episode(vit, x)
        assert not res.adapted and res.model is vit

    def test_evaluate_with_tent_runs(self, trained_cnn, small_ds):
        """The registered ``tent`` spec scores 64 images in two batches."""
        adapter = get_task("cls")
        ds = small_ds.split(64)[0]
        acc = adapter.accumulator(ds)
        for _, _, part in mitigation_partials(
                mitigation_identity("tent"), adapter, trained_cnn, ds,
                TRAIN_CONFIG, [(0, 64)], batch_size=32):
            acc.merge(part)
        assert 0.0 <= acc.value() <= 100.0


class TestMixTraining:
    def test_mix_reduces_cross_variant_std(self):
        """Paper Tables 7/8: mix training shrinks across-variant std."""
        ds = make_classification_dataset(n=200, native_size=40, input_size=32,
                                         seed=0)
        resizes = ["pillow-bilinear", "pillow-nearest", "cv-bilinear",
                   "cv-nearest"]
        fixed = _train_with_mix(
            "resnet18x0.25", ds, resizes=None,
            cfg=nn.TrainConfig(epochs=30, batch_size=32, lr=0.1))
        mixed = _train_with_mix(
            "resnet18x0.25", ds, resizes=resizes,
            cfg=nn.TrainConfig(epochs=30, batch_size=32, lr=0.1))
        table = cross_variant_matrix({"fixed": fixed, "mix": mixed},
                                     ds, resizes, axis="resize")
        assert table["mix"]["std"] < table["fixed"]["std"]
        assert table["mix"]["mean"] > 50.0      # no clean-accuracy collapse

    def test_cross_variant_matrix_structure(self, trained_cnn, small_ds):
        table = cross_variant_matrix({"m": trained_cnn}, small_ds,
                                     ["pil", "dali"], axis="decoder")
        assert set(table["m"]["accs"]) == {"pil", "dali"}


class TestMixColorAxis:
    """The color-pipeline extension of Algorithm 1 (paper future work)."""

    def test_color_pool_trains_and_flattens(self):
        from repro.core import TRAIN_CONFIG, preprocess_dataset
        from repro.data import make_classification_dataset
        from repro.nn import TrainConfig, evaluate_classifier

        ds = make_classification_dataset(n=60, native_size=48, input_size=24,
                                         seed=3)
        cfg = TrainConfig(epochs=4, batch_size=16, lr=0.08)
        mixed = _train_with_mix("mcunet-293kb", ds,
                                colors=[None, "nv12-integer", "yuv444-float"],
                                cfg=cfg, seed=0)
        # The mixed model evaluates under both direct RGB and NV12 inputs.
        for color in (None, "nv12-integer"):
            x = preprocess_dataset(ds.streams, ds.input_size,
                                   TRAIN_CONFIG.with_(color=color))
            acc = evaluate_classifier(mixed, x, ds.labels)
            assert 0.0 <= acc <= 100.0

    def test_cross_variant_matrix_color_axis(self):
        from repro.data import make_classification_dataset
        from repro.models import create_model

        ds = make_classification_dataset(n=24, native_size=48, input_size=24,
                                         seed=1)
        model = create_model("mcunet-293kb", num_classes=ds.num_classes)
        table = cross_variant_matrix({"m": model}, ds,
                                     [None, "nv12-integer"], axis="color")
        assert set(table["m"]["accs"]) == {None, "nv12-integer"}

    def test_unknown_axis_rejected(self):
        import pytest as _pytest
        with _pytest.raises(ValueError, match="axis"):
            cross_variant_matrix({}, None, [], axis="gamma")
