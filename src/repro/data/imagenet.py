"""Synthetic ImageNet stand-in for the classification benchmark.

Each of the 10 classes is a parametric shape/texture family rendered with
randomised position, scale, orientation, colours and additive sensor noise,
then **JPEG-encoded** — the dataset hands out bitstreams, not pixels, so the
decoder noise enters through exactly the same door it does in production.

The paper's pipeline is: JPEG file → decode → resize to network input →
normalise.  :class:`ClassificationDataset` stores native-resolution encoded
images (default 48×48, quality 90) and leaves decode+resize to
``repro.core.pipeline`` so every pre-processing noise can be injected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..image import jpeg
from . import shapes

__all__ = ["ClassificationDataset", "make_classification_dataset",
           "render_class_image", "NUM_CLASSES", "CLASS_NAMES"]

NUM_CLASSES = 10
CLASS_NAMES = ["disk", "ring", "square", "triangle", "cross",
               "h-stripes", "v-stripes", "d-stripes", "checker", "twin-disks"]


def _random_colors(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Foreground/background colours with a *variable* contrast gap.

    The gap distribution deliberately includes near-threshold values so the
    dataset contains borderline examples — the population whose predictions
    flip under LSB-level SysNoise, exactly as ImageNet's boundary images do
    in the paper.
    """
    if rng.random() < 0.75:
        # Comfortably separable (the bulk of the dataset).
        bg = rng.uniform(30, 120, size=3)
        fg = rng.uniform(140, 240, size=3)
        if rng.random() < 0.5:
            bg, fg = fg, bg
        return fg, bg
    # Borderline contrast: the population whose predictions flip under
    # LSB-level SysNoise, as ImageNet boundary images do in the paper.
    bg = rng.uniform(60, 170, size=3)
    gap = rng.uniform(18, 40) * (1 if rng.random() < 0.5 else -1)
    fg = np.clip(bg + gap + rng.uniform(-6, 6, size=3), 5, 250)
    return fg, bg


def render_class_image(label: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Render one uint8 (size, size, 3) image of the given class."""
    h = w = size
    fg, bg = _random_colors(rng)
    canvas = np.ones((h, w, 3)) * bg
    # Low-frequency background texture so resize/decode noise has something
    # to act on even far from the object.
    tex = shapes.blob(h, w, rng)
    canvas += (tex[..., None] - 0.5) * rng.uniform(6, 18)

    cy = h / 2 + rng.uniform(-h * 0.1, h * 0.1)
    cx = w / 2 + rng.uniform(-w * 0.1, w * 0.1)
    r = size * rng.uniform(0.22, 0.34)
    angle = rng.uniform(0, 2 * np.pi)

    if label == 0:
        mask = shapes.disk(h, w, cy, cx, r)
    elif label == 1:
        mask = shapes.ring(h, w, cy, cx, r, thickness=max(2.0, r * 0.3))
    elif label == 2:
        mask = shapes.rectangle(h, w, cy, cx, r * 0.8, r * 0.8, angle * 0.2)
    elif label == 3:
        mask = shapes.triangle(h, w, cy, cx, r * 1.3, angle)
    elif label == 4:
        mask = shapes.cross(h, w, cy, cx, r, thickness=max(2.5, r * 0.28))
    elif label == 5:
        mask = shapes.stripes(h, w, 0.0 + rng.uniform(-0.1, 0.1),
                              period=rng.uniform(3, 5))
    elif label == 6:
        mask = shapes.stripes(h, w, np.pi / 2 + rng.uniform(-0.1, 0.1),
                              period=rng.uniform(3, 5))
    elif label == 7:
        mask = shapes.stripes(h, w, np.pi / 4 + rng.uniform(-0.15, 0.15),
                              period=rng.uniform(3, 5))
    elif label == 8:
        mask = shapes.checkerboard(h, w, cell=rng.uniform(3, 5),
                                   phase=rng.uniform(0, 2))
    elif label == 9:
        off = r * 0.9
        m1 = shapes.disk(h, w, cy - off, cx - off, r * 0.55)
        m2 = shapes.disk(h, w, cy + off, cx + off, r * 0.55)
        mask = np.maximum(m1, m2)
    else:
        raise ValueError(f"label out of range: {label}")

    canvas = shapes.paste(canvas, mask, fg)
    canvas += rng.normal(0, 4.0, size=canvas.shape)       # sensor noise
    return np.clip(canvas, 0, 255).astype(np.uint8)


# Hashed by identity, so repro.core.cache memoises its stream digest.
@dataclass(eq=False)
class ClassificationDataset:
    """Encoded synthetic classification data.

    Attributes
    ----------
    streams:
        list of :class:`~repro.image.jpeg.JpegBitstream`, one per image.
    images:
        the pre-encode uint8 originals (kept for visualisation / reference).
    labels:
        integer class ids, shape (N,).
    native_size / input_size:
        stored resolution and the resolution models consume.
    """

    streams: list = field(repr=False)
    images: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    native_size: int = 48
    input_size: int = 32
    num_classes: int = NUM_CLASSES

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, start: int, stop: int) -> "ClassificationDataset":
        """The contiguous ``[start, stop)`` item slice (shard protocol)."""
        return ClassificationDataset(self.streams[start:stop],
                                     self.images[start:stop],
                                     self.labels[start:stop], self.native_size,
                                     self.input_size, self.num_classes)

    def split(self, n_train: int) -> tuple["ClassificationDataset", "ClassificationDataset"]:
        """Deterministic train/val split (data is already shuffled at gen time)."""
        return self.subset(0, n_train), self.subset(n_train, len(self))


def make_classification_dataset(n: int = 400, native_size: int = 48,
                                input_size: int = 32, quality: int = 90,
                                seed: int = 0,
                                num_classes: int = NUM_CLASSES) -> ClassificationDataset:
    """Generate ``n`` images with balanced shuffled labels and encode them."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    images = np.stack([render_class_image(int(y), native_size, rng)
                       for y in labels])
    streams = jpeg.encode_batch(images, quality=quality)
    return ClassificationDataset(streams, images, labels, native_size,
                                 input_size, num_classes)
