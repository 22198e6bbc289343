"""Synthetic MS-COCO stand-in for the detection benchmark.

Scenes contain 1–3 non-overlapping objects from 3 classes (disk, square,
triangle) on a textured background.  Ground truth is (class, x1, y1, x2, y2)
in pixel coordinates.  As with classification, scenes are JPEG-encoded so
decoder noise flows through the real door.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..image import jpeg
from . import shapes

__all__ = ["DetectionDataset", "make_detection_dataset", "DET_CLASS_NAMES"]

DET_CLASS_NAMES = ["disk", "square", "triangle"]


def _sample_box(size: int, rng: np.random.Generator,
                existing: list[tuple[float, float, float]],
                max_tries: int = 20) -> tuple[float, float, float] | None:
    """Sample (cy, cx, r) not overlapping previously placed objects."""
    for _ in range(max_tries):
        r = size * rng.uniform(0.10, 0.18)
        cy = rng.uniform(r + 2, size - r - 2)
        cx = rng.uniform(r + 2, size - r - 2)
        if all(np.hypot(cy - ey, cx - ex) > (r + er) * 1.1
               for ey, ex, er in existing):
            return cy, cx, r
    return None


def render_scene(size: int, rng: np.random.Generator,
                 max_objects: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Render one scene; returns (uint8 image, (K, 5) gt array [cls,x1,y1,x2,y2])."""
    bg = rng.uniform(30, 110, size=3)
    canvas = np.ones((size, size, 3)) * bg
    tex = shapes.blob(size, size, rng)
    canvas += (tex[..., None] - 0.5) * rng.uniform(10, 30)

    n_obj = rng.integers(1, max_objects + 1)
    placed: list[tuple[float, float, float]] = []
    gts = []
    for _ in range(n_obj):
        spot = _sample_box(size, rng, placed)
        if spot is None:
            continue
        cy, cx, r = spot
        placed.append(spot)
        cls = int(rng.integers(0, 3))
        fg = rng.uniform(150, 245, size=3)
        if cls == 0:
            mask = shapes.disk(size, size, cy, cx, r)
        elif cls == 1:
            mask = shapes.rectangle(size, size, cy, cx, r * 0.85, r * 0.85)
        else:
            mask = shapes.triangle(size, size, cy, cx, r * 1.35)
        canvas = shapes.paste(canvas, mask, fg)
        gts.append([cls, cx - r, cy - r, cx + r, cy + r])

    canvas += rng.normal(0, 4.0, size=canvas.shape)
    img = np.clip(canvas, 0, 255).astype(np.uint8)
    return img, np.array(gts, dtype=np.float64).reshape(-1, 5)


# Hashed by identity, so repro.core.cache memoises its stream digest.
@dataclass(eq=False)
class DetectionDataset:
    """Encoded detection scenes with ground-truth boxes.

    Scenes are rendered (and encoded) at ``native_size`` and the inference
    pipeline resizes them to ``input_size`` — mirroring the paper's COCO
    protocol, where resize is part of deployment and therefore a noise
    surface.  ``gt_boxes`` are stored in *input* coordinates (the geometric
    scale factor is exact and noise-free; only pixel values vary).
    """

    streams: list = field(repr=False)
    images: np.ndarray = field(repr=False)      # native-resolution originals
    gt_boxes: list = field(repr=False)          # (K_i, 5) in input coords
    input_size: int = 64
    native_size: int = 80
    num_classes: int = 3

    def __len__(self) -> int:
        return len(self.streams)

    def subset(self, start: int, stop: int) -> "DetectionDataset":
        """The contiguous ``[start, stop)`` scene slice (shard protocol)."""
        return DetectionDataset(self.streams[start:stop],
                                self.images[start:stop],
                                self.gt_boxes[start:stop], self.input_size,
                                self.native_size, self.num_classes)

    def split(self, n_train: int):
        return self.subset(0, n_train), self.subset(n_train, len(self))


def make_detection_dataset(n: int = 120, size: int = 64, quality: int = 90,
                           seed: int = 0, max_objects: int = 3,
                           native_scale: float = 1.25) -> DetectionDataset:
    """Generate ``n`` scenes at ``size * native_scale``, GT in input coords."""
    rng = np.random.default_rng(seed)
    native = int(round(size * native_scale))
    scale = size / native
    images, gts = [], []
    for _ in range(n):
        img, gt = render_scene(native, rng, max_objects)
        images.append(img)
        if len(gt):
            gt = gt.copy()
            gt[:, 1:] *= scale
        gts.append(gt)
    images = np.stack(images)
    streams = jpeg.encode_batch(images, quality=quality)
    return DetectionDataset(streams, images, gts, size, native)
