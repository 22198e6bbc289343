"""RunSpec: the one validator, manifest writer and reader of a run."""

import dataclasses

import pytest

from repro.core import CLS_NOISES, RunSpec, RunStore, run_manifest

#: What each recorded manifest (tests/fixtures/manifests) describes.
BASE = dict(model="mcunet-293kb", n=24, train_frac=0.75, epochs=1, seed=0,
            noises=("resize", "precision"), include_combined=False,
            batch_size=None, shard_size=None, workers=None, mode="thread",
            retries=0, mitigation=())
TENT = {"name": "tent", "params": {"steps": 1, "lr": 0.001}}
SERVED = dict(BASE, n=16, noises=("color",))
RECORDED = {
    "5e8166d-ledger": BASE,
    "fe0bc57-shards": dict(BASE, batch_size=4, shard_size=8),
    "a32abe1-tent": dict(BASE, mitigation=(TENT,)),
    "0b52533-inference": dict(BASE, batch_size=8),
    "3e12727-cli": dict(BASE, batch_size=8, shard_size=8, workers=2,
                        retries=1),
    "0b52533-serve": SERVED,
    "3e12727-serve": SERVED,
}


class TestFromDoc:
    def test_defaults_are_the_job_defaults(self):
        spec = RunSpec.from_doc({})
        assert spec == RunSpec(
            model="resnet18x0.25", n=240, train_frac=0.75, epochs=15,
            seed=0, noises=tuple(CLS_NOISES), include_combined=True,
            batch_size=None, shard_size=None, workers=None, mode="thread",
            retries=0, mitigation=())
        assert spec.task == "cls"

    @pytest.mark.parametrize("doc, message", [
        ({"n": 0}, r"n must be in \[8, 100000\], got 0"),
        ({"train_frac": 1.5}, r"train_frac must be in \[0.1, 0.95\]"),
        ({"epochs": 0}, r"epochs must be in \[1, 10000\], got 0"),
        ({"batch_size": 0}, r"batch_size must be in \[1, 4096\], got 0"),
        ({"model": "nope"}, "unknown model 'nope'"),
        ({"retries": -1}, r"retries must be in \[0, 16\], got -1"),
        ({"workers": 0}, r"workers must be in \[1, 256\], got 0"),
        ({"seed": "7"}, "seed must be an integer"),
        ({"train_frac": True}, "train_frac must be a number"),
        ({"mode": "shared"}, "mode must be 'thread' or 'process'"),
        ({"noises": []}, "noises must be a non-empty list"),
        ({"noises": ["gamma-rays"]}, "unknown classification noise"),
        ({"task": "det"}, "only task 'cls'"),
        ({"epochz": 3}, r"unknown spec field\(s\) \['epochz'\]"),
        ({"mitigation": "tent"}, "mitigation must be a list"),
        ({"mitigation": ["tent", "tent:steps=1"]}, "duplicate mitigation"),
        ({"mitigation": ["tent:steps"]}, "takes no ':<arg>' suffix"),
        ({"mitigation": ["stent"]}, "stent"),
        ({"mitigation": ["tent:steps=2,lr"]}, "malformed mitigation"),
    ])
    def test_bad_values_are_refused(self, doc, message):
        with pytest.raises(ValueError, match=message):
            RunSpec.from_doc(doc)

    def test_mitigation_spellings_resolve_to_one_identity(self):
        spelled = RunSpec.from_doc({"mitigation": ["tent:steps=1"]})
        assert spelled.mitigation == (TENT,)
        assert RunSpec.from_doc({"mitigation": [TENT]}) == spelled
        assert RunSpec.from_doc({"mitigation": ["tent"]}) == spelled

    def test_doc_round_trips(self):
        spec = RunSpec.from_doc({"model": "resnet18x0.25", "n": 64,
                                 "shard_size": 16, "workers": 2,
                                 "mitigation": ["augment:augmix", "tent"]})
        doc = spec.doc()
        assert doc["task"] == "cls" and isinstance(doc["noises"], list)
        assert RunSpec.from_doc(doc) == spec

    def test_zoo_skip_rule(self):
        assert RunSpec.from_doc({"model": "mcunet-293kb"}).skip == (
            "ceil_mode",)
        assert RunSpec.from_doc({"model": "resnet18x0.25"}).skip == ()


class TestManifest:
    def test_records_the_spec_once(self):
        spec = RunSpec.from_doc({"model": "mcunet-293kb", "n": 40,
                                 "epochs": 2, "batch_size": 8,
                                 "mitigation": ["tent"]})
        manifest = spec.manifest(serve={"client": "x"})
        assert "cli" not in manifest
        assert manifest["epochs"] == 2
        assert manifest["execution"] == {"workers": None, "mode": "thread",
                                         "retries": 0}
        assert manifest["eval_geometry"] == {"batch_size": 8,
                                             "shard_size": None}
        assert manifest["skip"] == ["ceil_mode"]
        assert manifest["serve"] == {"client": "x"}
        assert RunSpec.from_manifest(manifest) == spec

    def test_execution_fields_are_not_identity(self):
        from repro.core.runstore import _IDENTITY_FIELDS
        spec = RunSpec.from_doc({})
        other = dataclasses.replace(spec, workers=4, mode="process",
                                    retries=2)
        assert all(spec.manifest()[f] == other.manifest()[f]
                   for f in _IDENTITY_FIELDS)
        assert "epochs" in _IDENTITY_FIELDS

    def test_to_session_records_the_manifest(self, tmp_path):
        spec = RunSpec.from_doc({"model": "mcunet-293kb", "n": 16,
                                 "noises": ["color"], "shard_size": 4,
                                 "mitigation": ["tent:steps=2"]})
        recorded = spec.to_session(tmp_path, "r").ledger.manifest
        expected = spec.manifest()
        for manifest in (recorded, expected):
            del manifest["env"]
        assert recorded == expected


class TestFromManifest:
    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_recorded_manifests(self, recorded_manifest, name):
        spec = RunSpec.from_manifest(recorded_manifest(name))
        assert spec == RunSpec(**RECORDED[name])

    def test_manifest_without_a_spec_is_refused(self, tmp_path):
        fluent = run_manifest(task="cls", model="mcunet-293kb", seed=0,
                              noises=["color"], data={"n": 16})
        rebuilt = {"model": "mcunet-293kb", "noises": ["color"],
                   "metric": "metric", "rebuilt_by": "fsck"}
        for manifest in (fluent, rebuilt):
            with pytest.raises(ValueError, match="records no run spec"):
                RunSpec.from_manifest(manifest)

    @pytest.mark.parametrize("key, value, message", [
        ("fit", {"epochs": 0}, r"epochs must be in \[1, 10000\], got 0"),
        ("workers", 0, r"workers must be in \[1, 256\], got 0"),
        ("retries", 99, r"retries must be in \[0, 16\], got 99"),
    ])
    def test_out_of_range_recorded_values_are_refused(
            self, recorded_manifest, key, value, message):
        manifest = recorded_manifest("3e12727-cli")
        manifest["cli"][key] = value
        with pytest.raises(ValueError, match=message):
            RunSpec.from_manifest(manifest)

    def test_recorded_spec_reopens_its_run(self, recorded_manifest,
                                           tmp_path):
        """The session a recorded spec builds passes the store's identity
        check against the manifest it was read from."""
        import json
        for name in sorted(RECORDED):
            manifest = recorded_manifest(name)
            (tmp_path / name).mkdir()
            (tmp_path / name / "manifest.json").write_text(
                json.dumps(manifest))
            session = RunSpec.from_manifest(manifest).to_session(tmp_path,
                                                                 name)
            assert session.ledger.run_id == name
        assert RunStore(tmp_path).runs() == sorted(RECORDED)
