"""Tests for the mitigation registry: parity, identity, and sweep plumbing.

PR 9 promotes mitigations to first-class citizens.  This suite pins the
three contracts that migration must not break:

1. **Parity** — training/evaluating through the registered hooks is
   bit-identical to calling the mechanisms they wrap directly (the
   private ``_train_with_mix`` / ``_adversarial_train`` helpers, the
   augmentation transform, TENT's ``_adapt``).
2. **Sweep determinism** — mitigated sweeps return the same bytes in
   serial, process and shared modes, and the episodic TENT protocol is
   invariant to how the dataset is sharded (at fixed batch geometry).
3. **Ledger identity** — mitigation identity folds into the cell digest
   and the run manifest, so mitigated and unmitigated results can never
   splice, and resuming with a different mitigation set is an error.
"""

import threading

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (TRAIN_CONFIG, BenchmarkSession, EvalCache, RunStore,
                        Session, SweepEngine, config_digest, get_task,
                        ledger_table, preprocess_dataset, run_manifest)
from repro.core.mitigations import (MitigationSpec, checkpoint_name,
                                    get_mitigation, mitigated_digest,
                                    mitigation_identity, mitigation_labels,
                                    mitigation_names,
                                    mitigation_partials, mitigation_stage,
                                    mitigation_train, register_mitigation,
                                    split_mitigation_name,
                                    temporary_mitigation)
from repro.core.runstore import expected_cells
from repro.data import make_classification_dataset
from repro.mitigation import get_augmentation
from repro.mitigation.adversarial import _adversarial_train
from repro.mitigation.mix_training import _train_with_mix
from repro.mitigation.tent import _adapt, tent_episode
from repro.models import create_model


@pytest.fixture(scope="module")
def small_ds():
    return make_classification_dataset(n=80, native_size=40, input_size=32,
                                       seed=0)


@pytest.fixture(scope="module")
def trained_cnn(small_ds):
    from repro.core import train_classification_model
    return train_classification_model(
        "resnet18x0.25", small_ds,
        nn.TrainConfig(epochs=4, batch_size=32, lr=0.08))


@pytest.fixture(scope="module")
def tiny_cls():
    ds = make_classification_dataset(n=30, native_size=40, input_size=32,
                                     seed=0)
    return ds.split(22)


def _same_weights(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert set(sa) == set(sb)
    for k in sa:
        np.testing.assert_array_equal(sa[k], sb[k], err_msg=k)


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_builtins_registered(self):
        assert {"mix", "augment", "adversarial", "tent"} <= set(
            mitigation_names())

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(ValueError, match="tent"):
            get_mitigation("bn_recalibrate")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="momentum"):
            mitigation_identity("tent", momentum=0.9)

    def test_identity_merges_defaults(self):
        ident = mitigation_identity("tent", steps=4)
        assert ident == {"name": "tent",
                         "params": {"steps": 4, "lr": 1e-3}}

    def test_augment_requires_strategy_arg(self):
        with pytest.raises(ValueError, match="suffix"):
            mitigation_identity("augment")
        with pytest.raises(ValueError):
            mitigation_identity("augment:randaugment")
        assert mitigation_identity("augment:augmix")["name"] == \
            "augment:augmix"

    def test_split_name(self):
        assert split_mitigation_name("augment:augmix") == ("augment",
                                                           "augmix")
        assert split_mitigation_name("tent") == ("tent", None)

    def test_duplicate_and_bad_names_rejected(self):
        class Dup(MitigationSpec):
            name = "tent"
            stage = "test"

        with pytest.raises(ValueError, match="already registered"):
            register_mitigation(Dup)

        class Colon(MitigationSpec):
            name = "a:b"

        with pytest.raises(ValueError):
            register_mitigation(Colon)

    def test_temporary_mitigation_scopes_registration(self):
        class Noop(MitigationSpec):
            name = "noop"
            stage = "train"

        with temporary_mitigation(Noop):
            assert "noop" in mitigation_names()
            assert mitigation_stage("noop") == "train"
        assert "noop" not in mitigation_names()

    def test_labels_name_unique_entries_and_tell_shared_names_apart(self):
        tent1, tent2 = (mitigation_identity("tent", steps=1),
                        mitigation_identity("tent", steps=2, lr=0.5))
        mix = mitigation_identity("mix")
        assert mitigation_labels([mix]) == ["mix"]
        assert mitigation_labels([tent1, mix]) == ["tent", "mix"]
        assert mitigation_labels([tent1, mix, tent2]) == [
            "tent:lr=0.001,steps=1", "mix", "tent:lr=0.5,steps=2"]

    def test_stage_from_identity_or_name(self):
        assert mitigation_stage(mitigation_identity("tent")) == "test"
        assert mitigation_stage("mix") == "train"

    def test_wrong_stage_dispatch_raises(self, small_ds):
        adapter = get_task("cls")
        with pytest.raises(ValueError, match="train-time"):
            list(mitigation_partials(mitigation_identity("mix"), adapter,
                                     None, small_ds, TRAIN_CONFIG,
                                     [(0, 1)]))
        with pytest.raises(ValueError, match="test-time"):
            mitigation_train(mitigation_identity("tent"), adapter, None,
                             small_ds)


class TestIdentityDigests:
    def test_no_mitigation_digest_is_plain_config_digest(self):
        cfg = TRAIN_CONFIG.with_(decoder="pil")
        assert mitigated_digest(cfg, None) == config_digest(cfg)

    def test_mitigation_folds_into_digest(self):
        cfg = TRAIN_CONFIG.with_(decoder="pil")
        tent = mitigation_identity("tent")
        assert mitigated_digest(cfg, tent) != config_digest(cfg)
        assert (mitigated_digest(cfg, tent)
                != mitigated_digest(cfg, mitigation_identity("tent",
                                                             steps=2)))
        assert (mitigated_digest(cfg, tent)
                == mitigated_digest(cfg, mitigation_identity("tent")))

    def test_checkpoint_name_is_param_sensitive_and_fs_safe(self):
        a = checkpoint_name(mitigation_identity("augment:augmix"))
        b = checkpoint_name(mitigation_identity("augment:augmix",
                                                lr=0.2))
        assert a.startswith("weights-augment-augmix-")
        assert a.endswith(".npz") and ":" not in a
        assert a != b


# ---------------------------------------------------------------------------
# registered spec vs the mechanism it wraps


class TestLegacyParity:
    def test_mix_registered_matches_legacy(self, small_ds):
        pool = ["pillow-bilinear", "cv-nearest"]
        cfg = nn.TrainConfig(epochs=2, batch_size=32, lr=0.08,
                             weight_decay=1e-4, seed=0)
        legacy = _train_with_mix("resnet18x0.25", small_ds, resizes=pool,
                                 cfg=cfg, seed=0)
        new = mitigation_train(mitigation_identity("mix", resizes=pool),
                               None, None, small_ds,
                               model_name="resnet18x0.25", seed=0, epochs=2)
        _same_weights(legacy, new)

    def test_augment_registered_matches_legacy(self, small_ds):
        cfg = nn.TrainConfig(epochs=2, batch_size=32, lr=0.1,
                             weight_decay=1e-4, seed=0)
        build = lambda: create_model("resnet18x0.25",
                                     num_classes=small_ds.num_classes,
                                     seed=0)
        legacy = build()
        x = preprocess_dataset(small_ds.streams, small_ds.input_size,
                               TRAIN_CONFIG)
        nn.train_classifier(legacy, x, small_ds.labels, cfg,
                            transform=get_augmentation("augmix"))
        new = mitigation_train(mitigation_identity("augment:augmix"),
                               None, build(), small_ds, seed=0, epochs=2)
        _same_weights(legacy, new)

    def test_adversarial_registered_matches_legacy(self, small_ds):
        cfg = nn.TrainConfig(epochs=2, batch_size=32, lr=0.05,
                             weight_decay=1e-4, seed=0)
        build = lambda: create_model("resnet18x0.25",
                                     num_classes=small_ds.num_classes,
                                     seed=0)
        legacy = build()
        x = preprocess_dataset(small_ds.streams, small_ds.input_size,
                               TRAIN_CONFIG)
        _adversarial_train(legacy, x, small_ds.labels, cfg,
                           epsilon=8 / 255, pgd_steps=1)
        new = mitigation_train(
            mitigation_identity("adversarial", pgd_steps=1), None, build(),
            small_ds, seed=0, epochs=2)
        _same_weights(legacy, new)

    def test_tent_episode_matches_legacy_on_single_batch(self, trained_cnn,
                                                         small_ds):
        """Anchor: when the whole input is one batch, the registered spec
        scores exactly the model TENT's mechanism adapts on that batch."""
        from repro.core import Accuracy
        from repro.nn import Tensor, no_grad
        ds = small_ds.split(16)[0]
        x = preprocess_dataset(ds.streams, 32, TRAIN_CONFIG)
        res = _adapt(trained_cnn, x, 2, 1e-2, batch_size=len(x))
        assert res.adapted
        expected = Accuracy()
        with no_grad():
            expected.update(res.model(Tensor(x)).data.argmax(axis=-1),
                            ds.labels)
        (_, _, part), = mitigation_partials(
            mitigation_identity("tent", steps=2, lr=1e-2), get_task("cls"),
            trained_cnn, ds, TRAIN_CONFIG, [(0, len(ds))],
            batch_size=len(ds))
        assert part.value() == expected.value()


class TestTentNoOp:
    def test_no_batchnorm_is_explicit_noop(self, small_ds):
        vit = create_model("vit-tiny", num_classes=10, seed=0)
        x = preprocess_dataset(small_ds.streams[:8], 32, TRAIN_CONFIG)
        res = tent_episode(vit, x)
        assert res.adapted is False
        assert res.model is vit
        assert "BatchNorm" in res.reason

    def test_quantised_graph_is_explicit_noop(self, trained_cnn, small_ds):
        from repro.nn.quant import quantize_model_fp16
        x = preprocess_dataset(small_ds.streams[:8], 32, TRAIN_CONFIG)
        quant = quantize_model_fp16(trained_cnn)
        res = tent_episode(quant, x)
        assert res.adapted is False
        assert res.model is quant
        assert "differentiable" in res.reason

    def test_shard_split_invariance_at_fixed_geometry(self, trained_cnn,
                                                      tiny_cls):
        """Episodic TENT partials merge to the same metric no matter how
        the dataset is cut into shards, as long as batch_size is fixed —
        the property the streaming sweep and shared workers rely on."""
        _, val = tiny_cls
        adapter = get_task("cls")
        tent = mitigation_identity("tent", steps=1, lr=1e-2)
        cfg = TRAIN_CONFIG.with_(resize_method="cv-nearest")

        def run(bounds):
            acc = adapter.accumulator(val)
            for _, _, part in mitigation_partials(tent, adapter,
                                                  trained_cnn, val, cfg,
                                                  bounds, batch_size=4):
                acc.merge(part)
            return acc.value()

        whole = run([(0, len(val))])
        halves = run([(0, 4), (4, len(val))])
        assert whole == halves


# ---------------------------------------------------------------------------
# sweep-mode determinism


def _rows_repr(result):
    out = {}
    for label, row in result.rows().items():
        out[label] = (row["trained"],
                      {n: (list(r.values) if r is not None else None)
                       for n, r in row["noises"].items()})
    return out


def _session(val, **store_kw):
    s = (Session().task("cls").model("mcunet-293kb").dataset(val)
         .noises("color", "precision").combined(False)
         .mitigate("tent", steps=1, lr=1e-2))
    if store_kw:
        s.store(**store_kw)
    return s


class TestSweepModeParity:
    def test_serial_process_and_shared_are_byte_identical(
            self, tiny_cls, tmp_path, monkeypatch):
        import repro.core.sweep as sweep_mod
        monkeypatch.setattr(sweep_mod, "available_cores", lambda: 2)
        _, val = tiny_cls
        serial = _rows_repr(_session(val).run())
        proc = _rows_repr(_session(val).workers(2, "process").run())
        shared = _rows_repr(
            _session(val, path=tmp_path, run_id="shared")
            .workers(None, "shared").run())
        assert serial == proc
        assert serial == shared
        assert set(serial) == {"mcunet-293kb", "mcunet-293kb+tent"}

    def test_two_parameterisations_of_one_mitigation_get_two_rows(
            self, tiny_cls, tmp_path):
        _, val = tiny_cls
        session = (Session().task("cls").model("mcunet-293kb").dataset(val)
                   .noises("color").combined(False)
                   .mitigate("tent", steps=1).mitigate("tent", steps=2)
                   .store(tmp_path, run_id="r"))
        result = session.run()
        labels = ["mcunet-293kb", "mcunet-293kb+tent:steps=1",
                  "mcunet-293kb+tent:steps=2"]
        assert list(result.rows()) == labels
        table = result.render(title="t")
        assert table == ledger_table(RunStore(tmp_path).open("r"), title="t")
        assert all(label in table for label in labels)

    def test_session_rejects_duplicate_and_wrong_task(self, tiny_cls):
        _, val = tiny_cls
        s = Session().task("cls").model("mcunet-293kb").dataset(val)
        s.mitigate("tent")
        with pytest.raises(ValueError, match="already"):
            s.mitigate("tent")
        with pytest.raises(ValueError, match="unknown mitigation"):
            s.mitigate("fog")


# ---------------------------------------------------------------------------
# ledger identity


class Raw:
    def __init__(self, b):
        self._b = b

    def tobytes(self):
        return self._b


class FakeDataset:
    def __init__(self, payloads=(b"stream-a", b"stream-b")):
        self.streams = [Raw(p) for p in payloads]


class FakeModel:
    pass


class CountingEvaluator:
    def __init__(self):
        self.calls = []
        self.lock = threading.Lock()

    def __call__(self, model, ds, cfg):
        with self.lock:
            self.calls.append(cfg)
        return 90.0 - 2.0 * (cfg.decoder != "dali")


class TestLedgerIdentity:
    def _manifest(self, mitigations):
        return run_manifest(task="cls", model="fake", seed=0,
                            noises=["decoder"], metric="ACC",
                            mitigations=mitigations)

    def test_expected_cells_scales_with_mitigation_axis(self):
        clean = self._manifest([])
        both = self._manifest([mitigation_identity("tent"),
                               mitigation_identity("mix")])
        assert expected_cells(both) == 3 * expected_cells(clean)

    def test_resume_with_different_mitigations_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.create(self._manifest([mitigation_identity("tent")]),
                     run_id="r")
        with pytest.raises(ValueError, match="mitigations"):
            store.open_or_create(self._manifest([]), run_id="r")

    def test_legacy_manifest_without_field_still_resumes(self, tmp_path):
        manifest = run_manifest(task="cls", model="fake", seed=0,
                                noises=["decoder"], metric="ACC")
        store = RunStore(tmp_path)
        store.create(manifest, run_id="r")
        assert store.open_or_create(dict(manifest), run_id="r") is not None

    def test_mitigated_cells_never_satisfy_unmitigated_lookups(
            self, tmp_path):
        tent = mitigation_identity("tent")
        ledger = RunStore(tmp_path).open_or_create(
            self._manifest([tent]), run_id="r")
        model, ds = FakeModel(), FakeDataset()
        SweepEngine(eval_cache=EvalCache(), ledger=ledger, model_key="fake",
                    mitigation=tent).sweep_noise(
            CountingEvaluator(), model, ds, "decoder")
        before = ledger.counts()["ok"]
        assert before > 0
        # A clean engine over the same ledger must recompute everything...
        ev = CountingEvaluator()
        SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                    model_key="fake").sweep_noise(ev, model, ds, "decoder")
        assert len(ev.calls) == before
        # ...while a same-mitigation engine resumes purely from disk.
        ev2 = CountingEvaluator()
        SweepEngine(eval_cache=EvalCache(), ledger=ledger, model_key="fake",
                    mitigation=tent).sweep_noise(ev2, model, ds, "decoder")
        assert ev2.calls == []

    def test_ledger_table_renders_one_row_per_mitigation(self, tmp_path):
        tent = mitigation_identity("tent")
        store = RunStore(tmp_path)
        ledger = store.open_or_create(self._manifest([tent]), run_id="r")
        model, ds = FakeModel(), FakeDataset()
        for mit in (None, tent):
            SweepEngine(eval_cache=EvalCache(), ledger=ledger,
                        model_key="fake", mitigation=mit).sweep_noise(
                CountingEvaluator(), model, ds, "decoder")
        text = ledger_table(store.open("r"))
        assert "fake" in text and "fake+tent" in text
