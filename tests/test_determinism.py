"""Consistency-of-results tests (paper Appendix E).

The paper fixes library versions and verifies repeated evaluations differ by
< 0.0001%.  Our substrate is fully deterministic, so we can assert exact
bit-reproducibility across every pipeline stage — and across the OpenBLAS
thread width, a system setting that must not be a noise source.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
import repro.nn as nn
from repro.backend.parallel import available_cores, blas_threads
from repro.core import TRAIN_CONFIG, preprocess_dataset, train_classification_model
from repro.data import make_classification_dataset, make_nlp_suite
from repro.image import color_roundtrip, decode_with, encode, resize
from repro.nn import Tensor


class TestPipelineDeterminism:
    def test_jpeg_encode_bitstream_stable(self):
        img = np.random.default_rng(0).integers(0, 256, (24, 24, 3),
                                                dtype=np.uint8)
        a = encode(img, quality=85).tobytes()
        b = encode(img, quality=85).tobytes()
        assert a == b

    def test_decode_stable_across_calls(self):
        img = np.random.default_rng(1).integers(0, 256, (24, 24, 3),
                                                dtype=np.uint8)
        stream = encode(img)
        for lib in ("pil", "opencv", "ffmpeg", "dali"):
            np.testing.assert_array_equal(decode_with(stream, lib),
                                          decode_with(stream, lib))

    def test_resize_stable(self):
        img = np.random.default_rng(2).integers(0, 256, (32, 32, 3),
                                                dtype=np.uint8)
        np.testing.assert_array_equal(resize(img, (20, 20), "pillow-lanczos"),
                                      resize(img, (20, 20), "pillow-lanczos"))

    def test_color_roundtrip_stable(self):
        img = np.random.default_rng(3).integers(0, 256, (16, 16, 3),
                                                dtype=np.uint8)
        np.testing.assert_array_equal(color_roundtrip(img, "nv12-integer"),
                                      color_roundtrip(img, "nv12-integer"))

    def test_preprocess_dataset_stable(self):
        ds = make_classification_dataset(n=6, native_size=40, input_size=32,
                                         seed=0)
        a = preprocess_dataset(ds.streams, 32, TRAIN_CONFIG.with_(decoder="pil"))
        b = preprocess_dataset(ds.streams, 32, TRAIN_CONFIG.with_(decoder="pil"))
        np.testing.assert_array_equal(a, b)


class TestTrainingDeterminism:
    def test_same_seed_same_model(self):
        ds = make_classification_dataset(n=40, native_size=40, input_size=32,
                                         seed=0)
        cfg = lambda: nn.TrainConfig(epochs=3, batch_size=16, lr=0.05, seed=1)
        m1 = train_classification_model("resnet18x0.25", ds, cfg())
        m2 = train_classification_model("resnet18x0.25", ds, cfg())
        s1, s2 = m1.state_dict(), m2.state_dict()
        for k in s1:
            np.testing.assert_array_equal(s1[k], s2[k])

    def test_inference_stable(self):
        model = nn.Sequential(nn.Conv2d(3, 4, 3, padding=1), nn.ReLU(),
                              nn.Flatten(), nn.Linear(4 * 8 * 8, 2))
        model.eval()
        x = Tensor(np.random.default_rng(4).standard_normal((2, 3, 8, 8)))
        np.testing.assert_array_equal(model(x).data, model(x).data)

    def test_nlp_suite_deterministic(self):
        g1, t1 = make_nlp_suite(n_per_task=5, seed=3)
        g2, t2 = make_nlp_suite(n_per_task=5, seed=3)
        np.testing.assert_array_equal(g1.perm, g2.perm)
        for name in t1:
            np.testing.assert_array_equal(t1[name].answers, t2[name].answers)
            for a, b in zip(t1[name].prefixes, t2[name].prefixes):
                np.testing.assert_array_equal(a, b)


#: Hashes every zoo model's no-grad forward at batch 1, 8 and 64, then the
#: weights after a 2-epoch resnet18x0.25 run; prints the BLAS width it ran at
#: and whether the heap policy is on (``--retain-heap`` asks for it).
_BLAS_CHILD = """
import hashlib, json, sys
import numpy as np
from repro.backend.parallel import blas_threads, pin_blas_threads, retain_heap
from repro.models import create_model, model_names
from repro.nn import Tensor, TrainConfig, no_grad, train_classifier

heap_retained = "--retain-heap" in sys.argv[1:] and retain_heap()
pin_blas_threads()
rng = np.random.default_rng(0)
x = rng.normal(size=(64, 3, 32, 32))
y = rng.integers(0, 10, size=64)
digest = hashlib.sha256()
for name in model_names():
    model = create_model(name, num_classes=10, seed=0)
    model.eval()
    with no_grad():
        for batch in (1, 8, 64):
            digest.update(model(Tensor(x[:batch])).data.tobytes())
model = train_classifier(create_model("resnet18x0.25", num_classes=10),
                         x, y, TrainConfig(epochs=2, batch_size=16))
for key, value in sorted(model.state_dict().items()):
    digest.update(key.encode() + np.ascontiguousarray(value).tobytes())
print(json.dumps({"blas_threads": blas_threads(),
                  "heap_retained": heap_retained,
                  "digest": digest.hexdigest()}))
"""


@pytest.mark.skipif(blas_threads() is None,
                    reason="no OpenBLAS is mapped; its width cannot vary")
@pytest.mark.skipif(available_cores() < 2,
                    reason="1 core: OpenBLAS caps any width at 1")
def test_blas_width_is_not_a_noise_source():
    """The same bits at one BLAS thread (the pin) and at two."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, base.get("PYTHONPATH")]))
    children = {width: subprocess.Popen(
        [sys.executable, "-c", _BLAS_CHILD], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for width, env in ((1, base),
                           (2, {**base, "OPENBLAS_NUM_THREADS": "2"}))}
    reports = {}
    for width, proc in children.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        reports[width] = json.loads(out.splitlines()[-1])
    assert reports[1]["blas_threads"] == 1
    assert reports[2]["blas_threads"] == 2
    assert reports[1]["digest"] == reports[2]["digest"]


def test_heap_policy_is_not_a_noise_source():
    """The same bits with freed buffers kept resident (``retain_heap``) and
    with glibc's default heap."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    # An operator's glibc malloc settings would switch the policy off.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    children = {retain: subprocess.Popen(
        [sys.executable, "-c", _BLAS_CHILD, *flags], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for retain, flags in ((False, ()), (True, ("--retain-heap",)))}
    reports = {}
    for retain, proc in children.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        reports[retain] = json.loads(out.splitlines()[-1])
    if not reports[True]["heap_retained"]:
        pytest.skip("retain_heap() returned False: no glibc mallopt")
    assert reports[False]["heap_retained"] is False
    assert reports[True]["blas_threads"] == reports[False]["blas_threads"]
    assert reports[True]["digest"] == reports[False]["digest"]
