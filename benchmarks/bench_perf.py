#!/usr/bin/env python
"""Perf microbench harness: codec + sweep throughput -> BENCH_core.json.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_perf.py            # full numbers
    PYTHONPATH=src python benchmarks/bench_perf.py --smoke    # CI gate

Suites:

entropy codec
    JPEG encode+decode throughput (imgs/s) for the vectorized entropy coder
    vs the retained scalar coder, on q90 images at several sizes (q90 is
    what the synthetic datasets ship).  Verifies bit-exactness on the fly.

dataset decode
    ``decode_dataset``-shaped batch decode throughput on dataset-scale
    48 px streams, vector vs scalar.  One row times the four decoder
    personas over one 64-image shard, with the Huffman stage decoded once
    and shared through a ``DecodeCache`` (as a fleet's shard pass does) and
    without; it is gated on identical bytes and a >=2x speedup.

synth
    Dataset synthesis: the 320 images of ``make_classification_dataset(320)``
    (48 px, q90) encoded by a per-image ``encode`` loop and by one
    ``encode_batch`` call (interleaved min-of-N), plus the time of the
    factory itself.  Gated on identical payloads and a >=2x speedup; the
    gate does not depend on the core count.

sweep
    Wall time of one full classification ``noise_row`` (decoder / resize /
    color / precision + combined) through the new ``SweepEngine`` with
    ``workers=4`` and the full cache stack, against a faithful
    re-implementation of the pre-engine path (scalar entropy decode,
    per-image resize, fresh deployment copy and re-decoded calibration
    subset per eval, no eval/preproc memoisation).  Both paths produce
    identical metrics; only the wall time differs.

inference
    Per-model backend-graph throughput (images/sec) of the interpreted
    ``Executor.run`` vs the compiled ``ExecutionPlan`` at batch 1/8/32,
    one model per zoo family.  Outputs must be bit-identical; the smoke
    gate also fails if the compiled plan is slower than the interpreter.

heap
    One resnet18x0.25 batch-64 no-grad forward, timed in two fresh child
    interpreters: one with the heap policy (``retain_heap``: freed
    buffers stay resident) and one on glibc's default heap.  Reports the
    median ms and the minor page faults per forward.  Gated on identical
    output bytes, faults under 5% of the default heap's, and >=1.2x; the
    gates do not depend on the core count.

memory
    Peak traced allocation (tracemalloc, which sees NumPy data buffers) of
    one noise row evaluated monolithically vs streamed through the shard
    pipeline.  The gate: the streamed peak must stay below the decoded-
    dataset footprint — O(shard), not O(dataset) — while the monolithic
    peak exceeds it, and both paths must produce identical metrics.

Results are appended to ``BENCH_core.json`` at the repo root so the perf
trajectory is tracked PR over PR.  The harness pins OpenBLAS to one thread
and applies the heap policy first, as every CLI process does; each record
carries the affinity-aware ``cores``, the ``blas_threads`` width read back
from OpenBLAS, and ``heap_retained`` (what ``retain_heap()`` returned).
``--smoke`` shrinks the workload and exits non-zero if the vectorized
coder fails to beat the scalar one — the CI perf gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.backend.parallel import (available_cores, blas_threads,  # noqa: E402
                                    pin_blas_threads, retain_heap)
from repro.core import TRAIN_CONFIG, EvalCache, SweepEngine, get_task  # noqa: E402
from repro.core.cache import DecodeCache  # noqa: E402
from repro.core.pipeline import apply_model_noise, normalize, preprocess  # noqa: E402
from repro.core.registry import combined_config, get_noise  # noqa: E402
from repro.data import make_classification_dataset  # noqa: E402
from repro.image import jpeg  # noqa: E402
from repro.models import create_model  # noqa: E402
from repro.nn import Tensor, evaluate_classifier  # noqa: E402

SWEEP_NOISES = ["decoder", "resize", "color", "precision"]


def _bench(fn, repeats: int) -> float:
    """Best-of-N wall time of ``fn()`` (first call warms caches/LUTs)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _bench_interleaved(fa, fb, repeats: int) -> tuple[float, float]:
    """Interleaved min-of-N of two rivals.

    Shared hosts flap their CPU frequency on multi-second scales; timing A's
    repeats back-to-back and then B's hands whichever ran second a different
    machine.  Alternating A/B inside one loop and keeping the per-rival
    minimum makes the comparison frequency-noise robust.
    """
    fa(), fb()                                    # warm caches
    ta = tb = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fa()
        ta = min(ta, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fb()
        tb = min(tb, time.perf_counter() - t0)
    return ta, tb


def _test_image(size: int, seed: int = 0) -> np.ndarray:
    """A noisy natural-ish image (the codec's realistic operating point)."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size]
    base = 128 + 60 * np.sin(xx / 7.0) * np.cos(yy / 9.0)
    img = np.stack([base, np.roll(base, 3, axis=0), 255 - base], axis=-1)
    img += rng.normal(0, 24, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def bench_entropy(sizes: list[int], repeats: int) -> dict:
    out = {}
    for size in sizes:
        img = _test_image(size)
        s_scalar = jpeg.encode(img, 90, entropy="scalar")
        s_vector = jpeg.encode(img, 90, entropy="vector")
        assert s_scalar.payload == s_vector.payload, "encoder not bit-exact"
        assert np.array_equal(jpeg.decode(s_scalar, entropy="scalar"),
                              jpeg.decode(s_scalar, entropy="vector")), \
            "decoder not bit-exact"
        te_s = _bench(lambda: jpeg.encode(img, 90, entropy="scalar"), repeats)
        te_v = _bench(lambda: jpeg.encode(img, 90, entropy="vector"), repeats)
        td_s = _bench(lambda: jpeg.decode(s_scalar, entropy="scalar"), repeats)
        td_v = _bench(lambda: jpeg.decode(s_scalar, entropy="vector"), repeats)
        out[str(size)] = {
            "encode_scalar_ips": round(1.0 / te_s, 1),
            "encode_vector_ips": round(1.0 / te_v, 1),
            "decode_scalar_ips": round(1.0 / td_s, 1),
            "decode_vector_ips": round(1.0 / td_v, 1),
            "encode_speedup": round(te_s / te_v, 2),
            "decode_speedup": round(td_s / td_v, 2),
            "roundtrip_speedup": round((te_s + td_s) / (te_v + td_v), 2),
        }
    return out


def bench_dataset_decode(n_images: int, repeats: int) -> dict:
    ds = make_classification_dataset(n=n_images, native_size=48,
                                     input_size=32, seed=0)

    def decode_all(entropy: str):
        previous = jpeg.set_default_entropy(entropy)
        try:
            from repro.core.pipeline import _decode_uncached
            _decode_uncached(ds.streams, "pil")
        finally:
            jpeg.set_default_entropy(previous)

    t_s = _bench(lambda: decode_all("scalar"), repeats)
    t_v = _bench(lambda: decode_all("vector"), repeats)
    return {
        "images": n_images,
        "scalar_ips": round(n_images / t_s, 1),
        "vector_ips": round(n_images / t_v, 1),
        "speedup": round(t_s / t_v, 2),
        "four_personas": bench_shared_huffman(64, repeats),
    }


def bench_shared_huffman(shard: int, repeats: int) -> dict:
    """Four personas over one shard: Huffman stage shared vs per persona.

    The shared side decodes through one fresh ``DecodeCache`` per repeat,
    so each timing includes the one Huffman decode the personas share.
    """
    from repro.core.pipeline import _decode_uncached, decode_dataset
    streams = make_classification_dataset(n=shard, native_size=48,
                                          input_size=32, seed=0).streams
    personas = list(jpeg.DECODER_LIBRARIES)

    def separate():
        return [_decode_uncached(streams, lib) for lib in personas]

    def shared():
        cache = DecodeCache()
        return [decode_dataset(streams, lib, cache) for lib in personas]

    identical = all(a.tobytes() == b.tobytes()
                    for a, b in zip(separate(), shared()))
    t_sep = _bench(separate, repeats)
    t_shared = _bench(shared, repeats)
    return {
        "images": shard,
        "personas": len(personas),
        "separate_s": round(t_sep, 4),
        "shared_s": round(t_shared, 4),
        "speedup": round(t_sep / t_shared, 2),
        "bit_identical": identical,
    }


def bench_synth(repeats: int) -> dict:
    """Encode of one synthetic dataset's images: per image vs per batch."""
    ds = make_classification_dataset(n=320, native_size=48, quality=90,
                                     seed=0)
    images = ds.images

    def per_image():
        return [jpeg.encode(img, 90) for img in images]

    def batched():
        return jpeg.encode_batch(images, 90)

    want = [s.tobytes() for s in ds.streams]
    identical = ([s.tobytes() for s in per_image()] == want
                 and [s.tobytes() for s in batched()] == want)
    t_loop, t_batch = _bench_interleaved(per_image, batched, repeats)
    t_dataset = _bench(lambda: make_classification_dataset(
        n=320, native_size=48, quality=90, seed=0), repeats)
    return {
        "images": len(images),
        "size": 48,
        "per_image_s": round(t_loop, 4),
        "batch_s": round(t_batch, 4),
        "speedup": round(t_loop / t_batch, 2),
        "dataset_s": round(t_dataset, 4),
        "bit_identical": identical,
    }


# ---------------------------------------------------------------------------
# Heap: freed buffers kept resident (retain_heap) vs glibc's default heap
# ---------------------------------------------------------------------------

#: argv: "1" to apply the heap policy, then the timed forward count.  Two
#: warm-up forwards, then prints the median ms, the minor page faults per
#: timed forward, and the last output's SHA-256.
_HEAP_CHILD = """
import hashlib, json, resource, statistics, sys, time
import numpy as np
from repro.backend.parallel import pin_blas_threads, retain_heap
retained = sys.argv[1] == "1" and retain_heap()
pin_blas_threads()
from repro.models import create_model
from repro.nn import Tensor, no_grad
forwards = int(sys.argv[2])
model = create_model("resnet18x0.25", num_classes=10, seed=0)
model.eval()
x = Tensor(np.random.default_rng(0).normal(size=(64, 3, 32, 32)))
times = []
with no_grad():
    for _ in range(2):
        model(x)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(forwards):
        t0 = time.perf_counter()
        out = model(x).data
        times.append(time.perf_counter() - t0)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
print(json.dumps({"retained": retained,
                  "ms": statistics.median(times) * 1e3,
                  "faults": faults / forwards,
                  "sha256": hashlib.sha256(out.tobytes()).hexdigest()}))
"""


def bench_heap(forwards: int) -> dict:
    """resnet18x0.25 batch-64 forwards with and without ``retain_heap``.

    Each side runs in its own fresh interpreter, because the policy is
    process-wide and this process already applied it.  Neither inherits
    the operator's glibc malloc settings.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    runs = {}
    for retain in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _HEAP_CHILD, retain, str(forwards)],
            env=env, capture_output=True, text=True, check=True)
        runs[retain] = json.loads(proc.stdout.splitlines()[-1])
    default, retained = runs["0"], runs["1"]
    return {
        "model": "resnet18x0.25",
        "batch": 64,
        "forwards": forwards,
        "retained": retained["retained"],
        "default_ms": round(default["ms"], 2),
        "retained_ms": round(retained["ms"], 2),
        "default_faults": round(default["faults"], 1),
        "retained_faults": round(retained["faults"], 1),
        "speedup": round(default["ms"] / retained["ms"], 2),
        "bit_identical": default["sha256"] == retained["sha256"],
    }


# ---------------------------------------------------------------------------
# Inference: interpreted executor vs compiled execution plan
# ---------------------------------------------------------------------------

INFERENCE_MODELS = ["resnet18x0.25", "mcunet-293kb", "mobilenetv2-0.5",
                    "efficientnet-b0", "vit-tiny"]


def bench_inference(models: list[str], batches: tuple[int, ...],
                    repeats: int) -> dict:
    """Images/sec of ``Executor.run`` vs ``ExecutionPlan.run`` per model.

    Uses the reference (float64) backend so the comparison isolates the
    execution machinery; outputs are checked bit-identical at every batch
    size.
    """
    from repro.backend import ReferenceExecutor, export_module
    from repro.models import family_of

    rng = np.random.default_rng(0)
    out: dict = {"batches": list(batches), "models": {}}
    for name in models:
        model = create_model(name, num_classes=10, seed=0)
        graph = export_module(model, name)
        ex = ReferenceExecutor()
        plan = ex.compile(graph)
        per_model: dict = {"family": family_of(name)}
        identical = True
        for b in batches:
            x = rng.normal(size=(b, 3, 32, 32))
            identical = identical and np.array_equal(ex.run(graph, x),
                                                     plan.run(x))
            ti = _bench(lambda: ex.run(graph, x), repeats)
            tp = _bench(lambda: plan.run(x), repeats)
            per_model[str(b)] = {
                "interpreted_ips": round(b / ti, 1),
                "compiled_ips": round(b / tp, 1),
                "speedup": round(ti / tp, 2),
            }
        per_model["outputs_identical"] = identical
        per_model["best_speedup"] = max(per_model[str(b)]["speedup"]
                                        for b in batches)
        out["models"][name] = per_model
    out["families_2x"] = sorted({m["family"]
                                 for m in out["models"].values()
                                 if m["best_speedup"] >= 2.0})
    return out


# ---------------------------------------------------------------------------
# Memory: streamed shard pipeline vs monolithic evaluation
# ---------------------------------------------------------------------------

def bench_memory(n_images: int, native_size: int, shard_size: int) -> dict:
    """Peak-allocation gate: a streamed sweep is O(shard), not O(dataset).

    Runs the same noise row twice — monolithic and through the shard
    pipeline — under ``tracemalloc`` (which tracks NumPy array buffers) and
    reports both peaks plus the decoded-dataset footprint the monolithic
    path must materialise.  Metrics are asserted identical on the fly.
    """
    import tracemalloc

    ds = make_classification_dataset(n=n_images, native_size=native_size,
                                     input_size=32, seed=0)
    model = create_model("mcunet-293kb", num_classes=ds.num_classes, seed=0)
    model.eval()
    adapter = get_task("cls")
    noises = ["decoder", "resize"]

    def run_row(shard):
        cache = DecodeCache()
        engine = SweepEngine(eval_cache=EvalCache(), shard_size=shard,
                             task="cls" if shard else None, batch_size=8,
                             pipeline_cache=cache)
        evaluate = lambda m, d, cfg: adapter.evaluate(m, d, cfg, cache=cache,
                                                      batch_size=8)
        return engine.noise_row(evaluate, model, ds, noises,
                                include_combined=False)

    def peak_of(shard):
        tracemalloc.start()
        try:
            row = run_row(shard)
            return row, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    row_mono, peak_mono = peak_of(None)
    row_stream, peak_stream = peak_of(shard_size)
    identical = (row_mono["trained"] == row_stream["trained"] and all(
        row_mono["noises"][n].values == row_stream["noises"][n].values
        for n in noises))
    decoded_bytes = n_images * native_size * native_size * 3 * 8
    return {
        "images": n_images,
        "native_size": native_size,
        "shard_size": shard_size,
        "decoded_dataset_mb": round(decoded_bytes / 1e6, 2),
        "monolithic_peak_mb": round(peak_mono / 1e6, 2),
        "streamed_peak_mb": round(peak_stream / 1e6, 2),
        "reduction": round(peak_mono / max(peak_stream, 1), 2),
        "streamed_below_dataset": peak_stream < decoded_bytes,
        "monolithic_above_dataset": peak_mono > decoded_bytes,
        "results_identical": identical,
    }


# ---------------------------------------------------------------------------
# Sweep: new engine stack vs a faithful pre-engine path
# ---------------------------------------------------------------------------

def _seed_path_row(model, ds) -> dict:
    """The pre-SweepEngine noise_row, re-created faithfully.

    Scalar entropy decode, decoded-pixels-only caching, per-image resize,
    a fresh deployment copy per evaluation, and a separately decoded
    calibration subset — exactly the shape of the code this PR replaced.
    """
    cache = DecodeCache()

    def decode_all(streams, decoder):
        return cache.decode(
            streams, decoder,
            lambda s, d: np.stack([jpeg.decode_with(x, d) for x in s]))

    def evaluate(cfg):
        decoded = decode_all(ds.streams, cfg.decoder)
        x = normalize(np.stack([preprocess(img, ds.input_size, cfg)
                                for img in decoded]))

        def calibrate(m):
            subset = decode_all(ds.streams[:32], TRAIN_CONFIG.decoder)
            xc = normalize(np.stack(
                [preprocess(img, ds.input_size, TRAIN_CONFIG)
                 for img in subset]))
            m(Tensor(xc))

        noised = apply_model_noise(model, cfg, calibrate=calibrate)
        return evaluate_classifier(noised, x, ds.labels)

    previous = jpeg.set_default_entropy("scalar")
    try:
        baseline = evaluate(TRAIN_CONFIG)
        row = {"trained": baseline, "noises": {}}
        for name in SWEEP_NOISES:
            src = get_noise(name)
            values = [evaluate(src.apply(TRAIN_CONFIG, v))
                      for v in src.variants()]
            row["noises"][name] = values
        row["combined"] = baseline - evaluate(combined_config(SWEEP_NOISES))
    finally:
        jpeg.set_default_entropy(previous)
    return row


def _engine_row(model, ds, workers: int) -> dict:
    adapter = get_task("cls")
    cache = DecodeCache()
    engine = SweepEngine(workers=workers, eval_cache=EvalCache())
    evaluate = lambda m, d, cfg: adapter.evaluate(m, d, cfg, cache=cache)
    row = engine.noise_row(evaluate, model, ds, SWEEP_NOISES)
    return {"trained": row["trained"],
            "noises": {n: row["noises"][n].values for n in SWEEP_NOISES},
            "combined": row["combined"]}


def bench_sweep(n_images: int, workers: int, repeats: int) -> dict:
    ds = make_classification_dataset(n=n_images, native_size=48,
                                     input_size=32, seed=0)
    model = create_model("mcunet-293kb", num_classes=ds.num_classes, seed=0)
    model.eval()       # deployed models arrive trained, in inference mode

    rows = {}
    t_seed = _bench(lambda: rows.__setitem__("seed", _seed_path_row(model, ds)),
                    repeats)
    t_new = _bench(
        lambda: rows.__setitem__("new", _engine_row(model, ds, workers)),
        repeats)
    identical = rows["seed"] == rows["new"]
    return {
        "images": n_images,
        "noises": SWEEP_NOISES,
        "workers_requested": workers,
        "effective_workers": SweepEngine(workers=workers).effective_workers,
        "cores": os.cpu_count(),
        "cores_available": available_cores(),
        "seed_path_s": round(t_seed, 3),
        "engine_s": round(t_new, 3),
        "speedup": round(t_seed / t_new, 2),
        "results_identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workload + hard gate (CI)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_core.json"))
    args = parser.parse_args(argv)
    heap_retained = retain_heap()           # as every CLI process does
    pin_blas_threads()

    if args.smoke:
        heap_forwards = 15
        sizes, repeats, n_decode, n_sweep = [64, 128], 2, 16, 24
        synth_reps = 3
        inf_models, inf_batches = ["resnet18x0.25", "mcunet-293kb"], (1, 8)
        mem_images, mem_native, mem_shard = 64, 64, 8
    else:
        heap_forwards = 25
        sizes, repeats, n_decode, n_sweep = [48, 96, 192], 3, 64, 64
        synth_reps = 5
        inf_models, inf_batches = INFERENCE_MODELS, (1, 8, 32)
        mem_images, mem_native, mem_shard = 128, 96, 8

    print("benchmarking entropy codec ...")
    entropy = bench_entropy(sizes, repeats)
    for size, r in entropy.items():
        print(f"  {size:>4}px q90: encode {r['encode_speedup']:.1f}x  "
              f"decode {r['decode_speedup']:.1f}x  "
              f"roundtrip {r['roundtrip_speedup']:.1f}x  "
              f"({r['decode_vector_ips']:.0f} imgs/s decode)")

    print("benchmarking dataset decode ...")
    dataset = bench_dataset_decode(n_decode, repeats)
    print(f"  {dataset['images']} imgs @48px: {dataset['scalar_ips']:.0f} -> "
          f"{dataset['vector_ips']:.0f} imgs/s ({dataset['speedup']:.1f}x)")
    four = dataset["four_personas"]
    print(f"  {four['personas']} personas x {four['images']} imgs: "
          f"{four['separate_s']*1e3:.0f}ms -> {four['shared_s']*1e3:.0f}ms "
          f"with one shared Huffman decode ({four['speedup']:.1f}x, "
          f"identical={four['bit_identical']})")

    print("benchmarking dataset synthesis (per-image vs batched encode) ...")
    synth = bench_synth(synth_reps)
    print(f"  {synth['images']} imgs @{synth['size']}px q90: encode "
          f"{synth['per_image_s']*1e3:.0f}ms -> {synth['batch_s']*1e3:.0f}ms "
          f"({synth['speedup']:.1f}x, identical={synth['bit_identical']}); "
          f"make_classification_dataset({synth['images']}) "
          f"{synth['dataset_s']*1e3:.0f}ms")

    print("benchmarking the heap policy (retained vs default heap) ...")
    heap = bench_heap(heap_forwards)
    print(f"  {heap['model']} b{heap['batch']}: {heap['default_ms']:.1f}ms "
          f"-> {heap['retained_ms']:.1f}ms ({heap['speedup']:.2f}x), "
          f"{heap['default_faults']:.0f} -> {heap['retained_faults']:.0f} "
          f"faults per forward (retained={heap['retained']}, "
          f"identical={heap['bit_identical']})")

    print("benchmarking inference (interpreted vs compiled plan) ...")
    inference = bench_inference(inf_models, inf_batches, max(2, repeats))
    for mname, r in inference["models"].items():
        cells = "  ".join(
            f"b{b}: {r[str(b)]['speedup']:.2f}x "
            f"({r[str(b)]['compiled_ips']:.0f} ips)"
            for b in inference["batches"])
        print(f"  {mname:18s} {cells}  identical={r['outputs_identical']}")
    if inference["families_2x"]:
        print(f"  families at >=2x: {', '.join(inference['families_2x'])}")

    print("benchmarking streamed-sweep peak memory ...")
    memory = bench_memory(mem_images, mem_native, mem_shard)
    print(f"  {memory['images']} imgs @{memory['native_size']}px, "
          f"shard {memory['shard_size']}: "
          f"{memory['monolithic_peak_mb']:.1f}MB -> "
          f"{memory['streamed_peak_mb']:.1f}MB peak "
          f"({memory['reduction']:.1f}x lower, decoded dataset "
          f"{memory['decoded_dataset_mb']:.1f}MB, "
          f"identical={memory['results_identical']})")

    print("benchmarking noise_row sweep ...")
    sweep = bench_sweep(n_sweep, args.workers, max(1, repeats - 1))
    print(f"  {sweep['images']} imgs, {len(SWEEP_NOISES)} noises: "
          f"{sweep['seed_path_s']:.2f}s -> {sweep['engine_s']:.2f}s "
          f"({sweep['speedup']:.2f}x, workers={args.workers}, "
          f"cores={sweep['cores']}, identical={sweep['results_identical']})")

    record = {
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "mode": "smoke" if args.smoke else "full",
        "cores": available_cores(),
        "blas_threads": blas_threads(),
        "heap_retained": heap_retained,
        "entropy_codec": entropy,
        "dataset_decode": dataset,
        "synth": synth,
        "heap": heap,
        "inference": inference,
        "memory": memory,
        "sweep": sweep,
    }
    out = Path(args.out)
    history = []
    if out.exists():
        try:
            history = json.loads(out.read_text())
            if not isinstance(history, list):
                history = [history]
        except json.JSONDecodeError:
            history = []
    history.append(record)
    out.write_text(json.dumps(history, indent=2) + "\n")
    print(f"wrote {out}")

    if not sweep["results_identical"]:
        print("FAIL: engine sweep metrics diverge from the seed path")
        return 1
    if not memory["results_identical"]:
        print("FAIL: streamed sweep metrics diverge from the monolithic path")
        return 1
    if not memory["streamed_below_dataset"]:
        print(f"FAIL: streamed sweep peak "
              f"({memory['streamed_peak_mb']:.1f}MB) is not bounded below "
              f"the decoded dataset ({memory['decoded_dataset_mb']:.1f}MB) "
              f"— O(shard) contract broken")
        return 1
    if not memory["monolithic_above_dataset"]:
        print("FAIL: memory gate not discriminating (monolithic peak below "
              "the decoded dataset); grow the workload")
        return 1
    four = dataset["four_personas"]
    if not four["bit_identical"]:
        print("FAIL: personas decoded from shared Huffman coefficients "
              "diverge from full decodes")
        return 1
    if four["speedup"] < 2.0:
        print(f"FAIL: sharing the Huffman stage across {four['personas']} "
              f"personas under 2x ({four['speedup']:.2f}x)")
        return 1
    if not heap["bit_identical"]:
        print("FAIL: a forward on the retained heap differs from one on "
              "the default heap")
        return 1
    if not heap["retained"]:
        print("  (retain_heap() returned False: no glibc mallopt; heap "
              "fault and speed gates skipped)")
    elif heap["retained_faults"] >= 0.05 * heap["default_faults"]:
        print(f"FAIL: the retained heap still faults "
              f"{heap['retained_faults']:.0f} pages per forward "
              f"(default heap {heap['default_faults']:.0f}; need < 5%)")
        return 1
    elif heap["speedup"] < 1.2:
        print(f"FAIL: the retained heap gains under 1.2x on a "
              f"{heap['model']} forward ({heap['speedup']:.2f}x)")
        return 1
    if not synth["bit_identical"]:
        print("FAIL: encode_batch payloads differ from per-image encodes")
        return 1
    if synth["speedup"] < 2.0:
        print(f"FAIL: encode_batch gains under 2x over a per-image encode "
              f"loop on {synth['images']} images ({synth['speedup']:.2f}x)")
        return 1
    for mname, r in inference["models"].items():
        if not r["outputs_identical"]:
            print(f"FAIL: compiled plan diverges from the interpreter "
                  f"({mname})")
            return 1
        if r["best_speedup"] < 1.0:
            print(f"FAIL: compiled plan slower than the interpreter "
                  f"({mname}: {r['best_speedup']:.2f}x)")
            return 1
    if not args.smoke and len(inference["families_2x"]) < 2:
        print(f"FAIL: compiled plan reaches >=2x on "
              f"{len(inference['families_2x'])} model families (need 2)")
        return 1
    gate = min(r["decode_speedup"] for r in entropy.values())
    if gate < 1.0:
        print(f"FAIL: vectorized decoder slower than scalar ({gate:.2f}x)")
        return 1
    if min(r["encode_speedup"] for r in entropy.values()) < 1.0:
        print("FAIL: vectorized encoder slower than scalar")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
