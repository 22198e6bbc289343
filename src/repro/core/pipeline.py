"""The inference pipeline: bitstream → pixels → tensor → (noised) model.

``preprocess`` implements the paper's pre-processing chain — decode with a
chosen library persona, resize with a chosen kernel, optionally round-trip
the colour space — and ``apply_model_noise`` implements the model-inference
and post-processing side (ceil mode, upsample mode, precision, aligned
offset) on a *copy* of the trained model, exactly as a deployment backend
would.

Registry noises stored in ``cfg.extra`` are dispatched to their
:class:`~repro.core.registry.NoiseSource` hooks: ``apply_image`` during
pre-processing, ``apply_model`` during deployment-model construction.

Decoding is memoised through :class:`~repro.core.cache.DecodeCache`, keyed
on the bitstream *contents* (not ``id()``) with an LRU bound.  Sessions own
a private cache; the free functions share a module-level default.  The
Huffman stage is memoised apart from the persona stages, so every persona
decoding a batch through one cache shares one Huffman decode.

Two dataflow shapes serve the same math:

* **Monolithic** — :func:`preprocess_dataset` materialises the whole float
  tensor (and memoises it per full pre-processing config), which is what
  repeat sweeps over RAM-sized datasets want.
* **Streaming** — :func:`preprocess_shards` yields the same tensor in
  shard-sized chunks with peak memory bounded by one shard.  Chunk *decode*
  is content-memoised when a cache is passed (decoded pixels are shared
  across variants that only differ on the model side); the per-config float
  chunks are never cached — in a stream they are write-once-read-once.
  Every chunk is bit-identical to the corresponding slice of the monolithic
  tensor (decode and resize are strictly per-image operations), so the two
  shapes are interchangeable wherever the consumer cuts its inference
  batches at the same offsets.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.nn import MaxPool2d, Tensor, apply_precision

from ..image import color_roundtrip, decode_with, resize, resize_batch
from ..image.jpeg import (DECODER_LIBRARIES, decode_batch, entropy_decode,
                          iter_decode_batches, same_geometry)
from .cache import DecodeCache, object_token, streams_digest
from .noise import NoiseConfig, TRAIN_CONFIG

__all__ = ["decode_dataset", "decode_shards", "preprocess",
           "preprocess_dataset", "preprocess_shards", "apply_model_noise",
           "deployment_model", "normalize", "default_decode_cache"]

#: Shared fallback cache for the module-level helpers (sessions own theirs).
_DEFAULT_CACHE = DecodeCache()


def default_decode_cache() -> DecodeCache:
    return _DEFAULT_CACHE


def _decode_uncached(streams: list, decoder: str,
                     coefficients: np.ndarray | None = None) -> np.ndarray:
    if decoder in DECODER_LIBRARIES and streams:
        idct, chroma = DECODER_LIBRARIES[decoder]
        return decode_batch(streams, idct=idct, chroma_upsample=chroma,
                            coefficients=coefficients)
    return np.stack([decode_with(s, decoder) for s in streams])


def decode_dataset(streams: list, decoder: str,
                   cache: DecodeCache | None = None) -> np.ndarray:
    """Decode every bitstream with the named library persona (memoised).

    The decoded batch is cached under ``(digest, decoder)``.  A persona
    decode of streams sharing one geometry also caches the Huffman stage's
    coefficients under ``("coeffs", digest)``, so each further persona
    decoding the same streams through ``cache`` skips it.
    """
    cache = cache if cache is not None else _DEFAULT_CACHE

    def decode(streams: list, decoder: str) -> np.ndarray:
        coefficients = None
        if (decoder in DECODER_LIBRARIES and streams
                and same_geometry(streams)):
            coefficients = cache.memo(("coeffs", streams_digest(streams)),
                                      lambda: entropy_decode(streams))
        return _decode_uncached(streams, decoder, coefficients)

    return cache.decode(streams, decoder, decode)


def normalize(images_u8: np.ndarray) -> np.ndarray:
    """uint8 HWC batch -> float NCHW in roughly [-0.5, 0.5]."""
    x = images_u8.astype(np.float64) / 255.0 - 0.5
    return x.transpose(0, 3, 1, 2)


def _preproc_extras(cfg: NoiseConfig):
    """(source, variant) pairs for registered pre-processing extras."""
    if not cfg.extra:
        return []
    from .registry import get_noise
    pairs = []
    for name, variant in cfg.extra:
        src = get_noise(name)
        if src.stage == "pre-processing":
            pairs.append((src, variant))
    return pairs


def preprocess(image_u8: np.ndarray, input_size: int | tuple[int, int],
               cfg: NoiseConfig = TRAIN_CONFIG) -> np.ndarray:
    """Resize + colour-convert one decoded uint8 image per the config."""
    if isinstance(input_size, int):
        input_size = (input_size, input_size)
    out = resize(image_u8, input_size, cfg.resize_method)
    if cfg.color is not None:
        out = color_roundtrip(out, cfg.color)
    for src, variant in _preproc_extras(cfg):
        out = src.apply_image(out, variant)
    return out


def _finish_preprocess(decoded: np.ndarray, size: tuple[int, int],
                       cfg: NoiseConfig, extras) -> np.ndarray:
    """Resize + colour + extras + normalise one decoded uint8 batch."""
    if cfg.color is None and not extras:
        # Fast path: one batched separable-resize (numerically identical to
        # the per-image loop) covers the overwhelmingly common config.
        processed = resize_batch(decoded, size, cfg.resize_method)
    else:
        processed = np.stack([preprocess(img, size, cfg) for img in decoded])
    return normalize(processed)


def decode_shards(streams: list, decoder: str, shard_size: int | None = None,
                  cache: DecodeCache | None = None, offset: int = 0):
    """Decode ``streams`` lazily in shard-sized chunks.

    Yields ``(global_offset, uint8 batch)`` pairs; per-image output is
    bit-identical to :func:`decode_dataset` while peak memory stays bounded
    by one shard.  With a ``cache``, each chunk is memoised under its own
    content digest (so a re-run — or a worker whose cache was pre-seeded —
    skips the decode); ``cache=None`` streams without memoising anything.
    """
    n = len(streams)
    step = n if (shard_size is None or shard_size >= n) else shard_size
    if step < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if cache is None and decoder in DECODER_LIBRARIES and n:
        idct, chroma = DECODER_LIBRARIES[decoder]
        for off, chunk in iter_decode_batches(streams, step, idct, chroma):
            yield offset + off, chunk
        return
    for s in range(0, n, step):
        chunk = streams[s:s + step]
        if cache is not None:
            yield offset + s, decode_dataset(chunk, decoder, cache)
        else:
            yield offset + s, _decode_uncached(chunk, decoder)


def preprocess_shards(streams: list, input_size: int,
                      cfg: NoiseConfig = TRAIN_CONFIG,
                      cache: DecodeCache | None = None, *,
                      shard_size: int | None = None, offset: int = 0,
                      prefetch: bool = False):
    """Chunked pre-processing: yield ``(global_offset, float NCHW chunk)``.

    The streaming generator behind :func:`preprocess_dataset`: each chunk is
    the full decode → resize → colour → normalise chain over
    ``streams[i:i + shard_size]`` and is bit-identical to the corresponding
    slice of the monolithic tensor.  Peak memory is bounded by one shard
    (``shard_size=None`` means a single chunk spanning everything).

    Unlike :func:`preprocess_dataset`, ``cache`` here memoises only the
    *decoded* chunks (content-keyed, shared across variants); the finished
    per-config float chunks are never cached, and ``cache=None`` disables
    caching entirely rather than falling back to the module default.  With
    ``prefetch=True`` a background thread decodes chunk *k+1* while the
    consumer is still working on chunk *k*.
    """
    size = ((input_size, input_size) if isinstance(input_size, int)
            else tuple(input_size))
    extras = _preproc_extras(cfg)

    def produce():
        decoded = decode_shards(streams, cfg.decoder, shard_size, cache,
                                offset)
        if cfg.color is None and not extras:
            # Fast path: the streaming sibling of the batched separable
            # resize (bit-identical chunks, shared cached operators).
            from ..image import iter_resize_batches
            for off, resized in iter_resize_batches(decoded, size,
                                                    cfg.resize_method):
                yield off, normalize(resized)
        else:
            for off, chunk in decoded:
                yield off, _finish_preprocess(chunk, size, cfg, extras)

    if not prefetch:
        return produce()
    from .datapipe import prefetched
    return prefetched(produce(), depth=1)


def preprocess_dataset(streams: list, input_size: int,
                       cfg: NoiseConfig = TRAIN_CONFIG,
                       cache: DecodeCache | None = None) -> np.ndarray:
    """Full pre-processing for a dataset: decode → resize → colour → normalise.

    The eager wrapper over :func:`preprocess_shards`: one chunk spanning the
    whole dataset, returned as a float NCHW batch ready for the models.
    Both the decoded pixel batch (per dataset contents + decoder) and the
    finished tensor (per full pre-processing config) are memoised, so
    variants that only differ on the model-inference side — precision, ceil
    mode, upsampling — skip the whole pre-processing chain on re-evaluation.
    Treat the returned batch as read-only (every consumer in the tree
    slices, never writes).
    """
    cache = cache if cache is not None else _DEFAULT_CACHE
    size = ((input_size, input_size) if isinstance(input_size, int)
            else tuple(input_size))
    extras = _preproc_extras(cfg)
    key = ("preproc", streams_digest(streams), cfg.decoder, cfg.resize_method,
           cfg.color, tuple((src.name, variant) for src, variant in extras),
           size)

    def compute() -> np.ndarray:
        chunks = [x for _, x in preprocess_shards(streams, size, cfg, cache)]
        return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)

    # Probe hashability up front: an unhashable custom-noise variant skips
    # memoisation, but a TypeError raised *inside* the decode/resize compute
    # path is a real bug and must propagate (a blanket retry-uncached would
    # silently re-run — and re-fail — the same computation).
    try:
        hash(key)
    except TypeError:
        return compute()
    return cache.memo(key, compute)


def _needs_model_copy(model, cfg: NoiseConfig) -> bool:
    """Whether ``cfg`` modifies the deployment model at all.

    A train-mode model always gets a copy: evaluators flip ``.eval()`` on
    what they receive, and that flip must land on a private copy — sharing
    it would make evaluation order observable (BatchNorm calibration under
    INT8 differs between train and eval mode).
    """
    if getattr(model, "training", False):
        return True
    if (cfg.ceil_mode or cfg.upsample_mode != "nearest"
            or cfg.precision != "fp32"):
        return True
    if (hasattr(model, "aligned_offset")
            and model.aligned_offset != cfg.aligned_offset):
        return True
    if cfg.extra:
        from .registry import get_noise
        return any(get_noise(name).stage in ("model-inference",
                                             "post-processing")
                   for name, _ in cfg.extra)
    return False


def apply_model_noise(model, cfg: NoiseConfig, calibrate=None,
                      allow_identity: bool = False):
    """Return a deployment copy of ``model`` with inference noise applied.

    * flips ``ceil_mode`` on every :class:`MaxPool2d`;
    * flips the upsample interpolation (``set_upsample_mode`` on segmenters,
      ``fpn.upsample_mode`` on detectors, ``Upsample.mode`` otherwise);
    * sets ``aligned_offset`` on detectors;
    * runs registered model-inference / post-processing extras hooks;
    * converts precision last (so the quantised copy keeps the flips).

    With ``allow_identity=True``, a config that leaves the model untouched
    (pre-processing-only noise, or the clean baseline) returns ``model``
    itself instead of a deep copy — callers promising not to mutate the
    result (the task adapters' evaluators) skip the copy on the hot path.
    """
    if allow_identity and not _needs_model_copy(model, cfg):
        return model
    noised = copy.deepcopy(model)
    if cfg.ceil_mode:
        for mod in noised.modules():
            if isinstance(mod, MaxPool2d):
                mod.ceil_mode = True
    if cfg.upsample_mode != "nearest":
        if hasattr(noised, "set_upsample_mode"):
            noised.set_upsample_mode(cfg.upsample_mode)
        if hasattr(noised, "fpn"):
            noised.fpn.upsample_mode = cfg.upsample_mode
        from repro.nn import Upsample
        for mod in noised.modules():
            if isinstance(mod, Upsample):
                mod.mode = cfg.upsample_mode
    if hasattr(noised, "aligned_offset"):
        noised.aligned_offset = cfg.aligned_offset
    if cfg.extra:
        from .registry import get_noise
        for name, variant in cfg.extra:
            src = get_noise(name)
            if src.stage in ("model-inference", "post-processing"):
                noised = src.apply_model(noised, variant)
    if cfg.precision != "fp32":
        noised = apply_precision(noised, cfg.precision, calibrate)
    return noised


def deployment_model(model, cfg: NoiseConfig, calibrate=None,
                     cache: DecodeCache | None = None, calib_key=None):
    """:func:`apply_model_noise`, memoised on the pipeline cache.

    Configs sharing the same model-side noise (e.g. a variant and the
    combined config both running int8) reuse one deployment copy — INT8
    calibration in particular is expensive enough to be worth deduping.

    ``calib_key`` must identify everything the ``calibrate`` hook's
    behaviour depends on (dataset contents, preprocessing config, ...); it
    becomes part of the memo key whenever the config quantises to int8, so
    a model calibrated against one dataset can never be served for another.
    Hook-based custom noises are excluded (their ``apply_model`` may be
    stateful); they always get a fresh copy.
    """
    if cache is None or cfg.extra:
        return apply_model_noise(model, cfg, calibrate, allow_identity=True)
    key = ("model", object_token(model), getattr(model, "training", None),
           cfg.ceil_mode, cfg.upsample_mode, cfg.precision,
           cfg.aligned_offset,
           calib_key if cfg.precision == "int8" else None)
    return cache.memo(key, lambda: apply_model_noise(model, cfg, calibrate,
                                                     allow_identity=True))
