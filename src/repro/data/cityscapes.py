"""Synthetic Cityscapes stand-in for the segmentation benchmark.

Scenes follow a street-scene layout prior — a "sky" gradient band on top, a
"road" band at the bottom, and 1–3 "objects" (disk / square / stripe-textured
region) in between — with dense per-pixel labels:

    0 background/sky, 1 road, 2 disk-object, 3 square-object

This keeps the label statistics (few large stuff regions + small things) that
make upsampling interpolation matter at mask boundaries, which is where the
paper's segmentation SysNoise lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..image import jpeg
from . import shapes

__all__ = ["SegmentationDataset", "make_segmentation_dataset", "SEG_CLASS_NAMES"]

SEG_CLASS_NAMES = ["sky", "road", "disk", "square"]
SEG_NUM_CLASSES = 4


def render_seg_scene(size: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Render (uint8 image, int label map) of shape (size, size[, 3])."""
    h = w = size
    labels = np.zeros((h, w), dtype=np.int64)

    # Sky: vertical gradient.
    sky_top = rng.uniform(120, 200, size=3)
    sky_bot = rng.uniform(60, 140, size=3)
    t = (np.arange(h) / (h - 1))[:, None, None]
    canvas = sky_top * (1 - t) + sky_bot * t
    canvas = np.broadcast_to(canvas, (h, w, 3)).copy()

    # Road: bottom band with horizontal texture.
    road_h = int(h * rng.uniform(0.25, 0.4))
    road_color = rng.uniform(40, 90, size=3)
    road_tex = shapes.stripes(road_h, w, 0.0, period=rng.uniform(3, 6))
    canvas[h - road_h:] = road_color + (road_tex[..., None] - 0.5) * 20
    labels[h - road_h:] = 1

    # Objects.
    for _ in range(rng.integers(1, 4)):
        cls = int(rng.integers(2, 4))
        r = size * rng.uniform(0.10, 0.2)
        cy = rng.uniform(r, h - road_h)
        cx = rng.uniform(r, w - r)
        fg = rng.uniform(150, 250, size=3)
        if cls == 2:
            mask = shapes.disk(h, w, cy, cx, r)
        else:
            mask = shapes.rectangle(h, w, cy, cx, r * 0.9, r * 0.9)
        canvas = shapes.paste(canvas, mask, fg)
        labels[mask > 0.5] = cls

    canvas += rng.normal(0, 3.5, size=canvas.shape)
    return np.clip(canvas, 0, 255).astype(np.uint8), labels


# Hashed by identity, so repro.core.cache memoises its stream digest.
@dataclass(eq=False)
class SegmentationDataset:
    """Scenes rendered at ``native_size``; pipeline resizes to ``input_size``.

    ``labels`` are already at input resolution (nearest-downsampled once at
    generation time so the target is identical across noise configs — only
    the image pixels flow through the noisy pipeline).
    """

    streams: list = field(repr=False)
    images: np.ndarray = field(repr=False)     # native-resolution originals
    labels: np.ndarray = field(repr=False)     # (N, input, input) int
    input_size: int = 48
    native_size: int = 60
    num_classes: int = SEG_NUM_CLASSES

    def __len__(self) -> int:
        return len(self.streams)

    def subset(self, start: int, stop: int) -> "SegmentationDataset":
        """The contiguous ``[start, stop)`` scene slice (shard protocol)."""
        return SegmentationDataset(self.streams[start:stop],
                                   self.images[start:stop],
                                   self.labels[start:stop], self.input_size,
                                   self.native_size, self.num_classes)

    def split(self, n_train: int):
        return self.subset(0, n_train), self.subset(n_train, len(self))


def make_segmentation_dataset(n: int = 80, size: int = 48, quality: int = 90,
                              seed: int = 0,
                              native_scale: float = 1.25) -> SegmentationDataset:
    rng = np.random.default_rng(seed)
    native = int(round(size * native_scale))
    # Nearest-neighbour label downsampling grid (fixed, noise-free).
    src = np.floor((np.arange(size) + 0.5) * native / size).astype(int)
    images, labels = [], []
    for _ in range(n):
        img, lab = render_seg_scene(native, rng)
        images.append(img)
        labels.append(lab[src][:, src])
    images, labels = np.stack(images), np.stack(labels)
    streams = jpeg.encode_batch(images, quality=quality)
    return SegmentationDataset(streams, images, labels, size, native)
