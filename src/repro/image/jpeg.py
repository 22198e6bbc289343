"""A complete baseline JPEG codec with pluggable iDCT decoders.

This is the substrate for the paper's **decoder** pre-processing noise.  The
paper decodes one JPEG file with PIL, OpenCV, FFmpeg and NVIDIA DALI and gets
four slightly different RGB tensors, because the libraries implement the
inverse DCT (and its rounding) differently.  We reproduce the whole pipeline:

encode:  RGB → full-range YCbCr (JFIF) → optional 4:2:0 subsample → level
         shift → 8×8 block DCT → quantisation (Annex-K tables, quality
         scaled) → zig-zag → DC DPCM + AC run-length → Huffman bitstream.

decode:  Huffman → dequantise → **iDCT variant** → clip/round → chroma
         upsample → RGB.

The Huffman stage (:func:`entropy_decode`) is integer arithmetic that no
persona changes, so a caller decoding one batch with several personas can
run it once and hand the coefficients to each :func:`decode_batch`.
Encoding runs per batch too (:func:`encode_batch`, in chunks of
:data:`ENCODE_CHUNK` images); :func:`encode` is a batch of one.

Four named decoders map onto the paper's four libraries:

==========  =======================  ==============================
decoder     iDCT implementation      stands in for
==========  =======================  ==============================
``pil``     Chen fast iDCT (f32)     Pillow
``opencv``  scaled-integer islow     OpenCV (libjpeg-turbo)
``ffmpeg``  float32 row–column       FFmpeg SIMD
``dali``    float64 reference        NVIDIA DALI (GPU float path)
==========  =======================  ==============================

The bitstream container is a documented internal format (magic ``RJPG``)
rather than JFIF markers — both ends are ours, and the noise of interest
lives entirely in the decode math, not the marker syntax.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .dct import IDCT_VARIANTS, dct2

__all__ = [
    "encode", "encode_batch", "decode", "decode_batch", "decode_with",
    "entropy_decode", "same_geometry", "DECODER_LIBRARIES", "JpegBitstream",
    "quality_tables", "zigzag_order", "BASE_LUMA_QTABLE", "BASE_CHROMA_QTABLE",
    "ENTROPY_CODERS", "default_entropy", "set_default_entropy",
]

MAGIC = b"RJPG"

#: Entropy-coder implementations: the batched NumPy fast path (default) and
#: the scalar per-coefficient T.81 walk kept for bit-exactness testing.
ENTROPY_CODERS = ("vector", "scalar")

_DEFAULT_ENTROPY = "vector"


def default_entropy() -> str:
    """The entropy coder used when ``encode``/``decode`` get ``entropy=None``."""
    return _DEFAULT_ENTROPY


def set_default_entropy(name: str) -> str:
    """Switch the process-wide default coder; returns the previous setting."""
    global _DEFAULT_ENTROPY
    if name not in ENTROPY_CODERS:
        raise ValueError(f"unknown entropy coder {name!r}; "
                         f"choose from {ENTROPY_CODERS}")
    previous, _DEFAULT_ENTROPY = _DEFAULT_ENTROPY, name
    return previous


def _resolve_entropy(entropy: str | None) -> str:
    entropy = _DEFAULT_ENTROPY if entropy is None else entropy
    if entropy not in ENTROPY_CODERS:
        raise ValueError(f"unknown entropy coder {entropy!r}; "
                         f"choose from {ENTROPY_CODERS}")
    return entropy

# Annex K example quantisation tables (ITU-T T.81 Tables K.1/K.2).
BASE_LUMA_QTABLE = np.array([
    [16, 11, 10, 16, 24, 40, 51, 61],
    [12, 12, 14, 19, 26, 58, 60, 55],
    [14, 13, 16, 24, 40, 57, 69, 56],
    [14, 17, 22, 29, 51, 87, 80, 62],
    [18, 22, 37, 56, 68, 109, 103, 77],
    [24, 35, 55, 64, 81, 104, 113, 92],
    [49, 64, 78, 87, 103, 121, 120, 101],
    [72, 92, 95, 98, 112, 100, 103, 99]], dtype=np.int32)

BASE_CHROMA_QTABLE = np.array([
    [17, 18, 24, 47, 99, 99, 99, 99],
    [18, 21, 26, 66, 99, 99, 99, 99],
    [24, 26, 56, 99, 99, 99, 99, 99],
    [47, 66, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99],
    [99, 99, 99, 99, 99, 99, 99, 99]], dtype=np.int32)


def quality_tables(quality: int) -> tuple[np.ndarray, np.ndarray]:
    """IJG quality scaling of the Annex-K tables (quality in 1..100)."""
    quality = int(np.clip(quality, 1, 100))
    scale = 5000 // quality if quality < 50 else 200 - 2 * quality
    luma = np.clip((BASE_LUMA_QTABLE * scale + 50) // 100, 1, 255)
    chroma = np.clip((BASE_CHROMA_QTABLE * scale + 50) // 100, 1, 255)
    return luma.astype(np.int32), chroma.astype(np.int32)


def zigzag_order() -> np.ndarray:
    """Indices that map an (8,8) block to its 64-element zig-zag vector."""
    idx = np.arange(64).reshape(8, 8)
    order = []
    for s in range(15):
        diag = [(i, s - i) for i in range(max(0, s - 7), min(8, s + 1))]
        if s % 2 == 0:
            diag.reverse()
        order.extend(idx[i, j] for i, j in diag)
    return np.array(order)

_ZIGZAG = zigzag_order()
_UNZIGZAG = np.argsort(_ZIGZAG)


# ---------------------------------------------------------------------------
# JFIF full-range YCbCr
# ---------------------------------------------------------------------------

def _rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    m = np.array([[0.299, 0.587, 0.114],
                  [-0.168736, -0.331264, 0.5],
                  [0.5, -0.418688, -0.081312]])
    # One (H*W, 3) GEMM instead of H row-batched tiny matmuls (bit-identical).
    ycc = (rgb.reshape(-1, 3) @ m.T).reshape(rgb.shape)
    ycc[..., 1:] += 128.0
    return ycc


def _ycbcr_to_rgb(ycc: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    y = ycc[..., 0]
    cb = ycc[..., 1] - 128.0
    cr = ycc[..., 2] - 128.0
    if out is None:
        out = np.empty_like(ycc)
    out[..., 0] = y + 1.402 * cr
    out[..., 1] = y - 0.344136 * cb - 0.714136 * cr
    out[..., 2] = y + 1.772 * cb
    return out


# ---------------------------------------------------------------------------
# Huffman coding (ITU-T T.81 Annex K default tables)
# ---------------------------------------------------------------------------

# (bits-per-length, values) for the four standard tables.
_DC_LUMA = ([0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0],
            list(range(12)))
_DC_CHROMA = ([0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0],
              list(range(12)))
_AC_LUMA_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12, 0x21, 0x31, 0x41, 0x06,
    0x13, 0x51, 0x61, 0x07, 0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xa1, 0x08,
    0x23, 0x42, 0xb1, 0xc1, 0x15, 0x52, 0xd1, 0xf0, 0x24, 0x33, 0x62, 0x72,
    0x82, 0x09, 0x0a, 0x16, 0x17, 0x18, 0x19, 0x1a, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2a, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44, 0x45,
    0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74, 0x75,
    0x76, 0x77, 0x78, 0x79, 0x7a, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a, 0xa2, 0xa3,
    0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4, 0xb5, 0xb6,
    0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7, 0xc8, 0xc9,
    0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda, 0xe1, 0xe2,
    0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf1, 0xf2, 0xf3, 0xf4,
    0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa]
_AC_LUMA = ([0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7d], _AC_LUMA_VALS)
_AC_CHROMA_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21, 0x31, 0x06, 0x12, 0x41,
    0x51, 0x07, 0x61, 0x71, 0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xa1, 0xb1, 0xc1, 0x09, 0x23, 0x33, 0x52, 0xf0, 0x15, 0x62, 0x72, 0xd1,
    0x0a, 0x16, 0x24, 0x34, 0xe1, 0x25, 0xf1, 0x17, 0x18, 0x19, 0x1a, 0x26,
    0x27, 0x28, 0x29, 0x2a, 0x35, 0x36, 0x37, 0x38, 0x39, 0x3a, 0x43, 0x44,
    0x45, 0x46, 0x47, 0x48, 0x49, 0x4a, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5a, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69, 0x6a, 0x73, 0x74,
    0x75, 0x76, 0x77, 0x78, 0x79, 0x7a, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8a, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98, 0x99, 0x9a,
    0xa2, 0xa3, 0xa4, 0xa5, 0xa6, 0xa7, 0xa8, 0xa9, 0xaa, 0xb2, 0xb3, 0xb4,
    0xb5, 0xb6, 0xb7, 0xb8, 0xb9, 0xba, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
    0xc8, 0xc9, 0xca, 0xd2, 0xd3, 0xd4, 0xd5, 0xd6, 0xd7, 0xd8, 0xd9, 0xda,
    0xe2, 0xe3, 0xe4, 0xe5, 0xe6, 0xe7, 0xe8, 0xe9, 0xea, 0xf2, 0xf3, 0xf4,
    0xf5, 0xf6, 0xf7, 0xf8, 0xf9, 0xfa]
_AC_CHROMA = ([0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77], _AC_CHROMA_VALS)


def _build_huffman(bits: list[int], values: list[int]):
    """Return (encode_map: value -> (code, length), decode_map: (code,len) -> value)."""
    encode, decode = {}, {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            encode[values[k]] = (code, length)
            decode[(code, length)] = values[k]
            code += 1
            k += 1
        code <<= 1
    return encode, decode


_HUFF = {
    ("dc", 0): _build_huffman(*_DC_LUMA),
    ("dc", 1): _build_huffman(*_DC_CHROMA),
    ("ac", 0): _build_huffman(*_AC_LUMA),
    ("ac", 1): _build_huffman(*_AC_CHROMA),
}


class _BitWriter:
    def __init__(self):
        self.bits: list[int] = []

    def write(self, code: int, length: int) -> None:
        for i in range(length - 1, -1, -1):
            self.bits.append((code >> i) & 1)

    def tobytes(self) -> bytes:
        pad = (-len(self.bits)) % 8
        arr = np.array(self.bits + [1] * pad, dtype=np.uint8)
        return np.packbits(arr).tobytes()


class _BitReader:
    def __init__(self, data: bytes):
        self.bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
        self.pos = 0

    def read(self, n: int) -> int:
        out = 0
        for _ in range(n):
            out = (out << 1) | int(self.bits[self.pos])
            self.pos += 1
        return out


def _magnitude_category(v: int) -> int:
    return int(v).bit_length() if v >= 0 else int(-v).bit_length()


def _encode_magnitude(v: int) -> tuple[int, int]:
    """JPEG signed-magnitude coding: returns (bits, length)."""
    size = _magnitude_category(v)
    if size == 0:
        return 0, 0
    if v < 0:
        v = v + (1 << size) - 1
    return v, size


def _decode_magnitude(bits: int, size: int) -> int:
    if size == 0:
        return 0
    if bits < (1 << (size - 1)):
        return bits - (1 << size) + 1
    return bits


def _encode_component(writer: _BitWriter, blocks: np.ndarray, table: int) -> None:
    """DPCM-code DC, run-length-code AC of zig-zagged quantised blocks."""
    dc_enc, _ = _HUFF[("dc", table)]
    ac_enc, _ = _HUFF[("ac", table)]
    prev_dc = 0
    for block in blocks:
        zz = block.reshape(64)[_ZIGZAG]
        diff = int(zz[0]) - prev_dc
        prev_dc = int(zz[0])
        mag, size = _encode_magnitude(diff)
        code, length = dc_enc[size]
        writer.write(code, length)
        writer.write(mag, size)
        run = 0
        last_nz = np.nonzero(zz[1:])[0]
        end = last_nz[-1] + 2 if len(last_nz) else 1
        for k in range(1, end):
            v = int(zz[k])
            if v == 0:
                run += 1
                continue
            while run > 15:
                code, length = ac_enc[0xF0]       # ZRL
                writer.write(code, length)
                run -= 16
            mag, size = _encode_magnitude(v)
            code, length = ac_enc[(run << 4) | size]
            writer.write(code, length)
            writer.write(mag, size)
            run = 0
        if end < 64:
            code, length = ac_enc[0x00]           # EOB
            writer.write(code, length)


def _read_symbol(reader: _BitReader, decode_map) -> int:
    code, length = 0, 0
    while True:
        code = (code << 1) | reader.read(1)
        length += 1
        sym = decode_map.get((code, length))
        if sym is not None:
            return sym
        if length > 16:
            raise ValueError("corrupt Huffman stream")


def _decode_component(reader: _BitReader, n_blocks: int, table: int) -> np.ndarray:
    """One component's coefficients, ``(n_blocks, 64)`` in zig-zag order."""
    _, dc_dec = _HUFF[("dc", table)]
    _, ac_dec = _HUFF[("ac", table)]
    out = np.zeros((n_blocks, 64), dtype=np.int32)
    prev_dc = 0
    for b in range(n_blocks):
        size = _read_symbol(reader, dc_dec)
        diff = _decode_magnitude(reader.read(size), size)
        prev_dc += diff
        out[b, 0] = prev_dc
        k = 1
        while k < 64:
            sym = _read_symbol(reader, ac_dec)
            if sym == 0x00:                      # EOB
                break
            if sym == 0xF0:                      # ZRL
                k += 16
                continue
            run, size = sym >> 4, sym & 0xF
            k += run
            out[b, k] = _decode_magnitude(reader.read(size), size)
            k += 1
    return out


# ---------------------------------------------------------------------------
# Block helpers
# ---------------------------------------------------------------------------

def _to_blocks(planes: np.ndarray) -> tuple[np.ndarray, tuple[int, int]]:
    """Pad ``(N, H, W)`` planes to multiples of 8 (edge replicate) and split
    each into its row-major 8×8 blocks, ``(N, blocks, 8, 8)``."""
    n, h, w = planes.shape
    ph, pw = (-h) % 8, (-w) % 8
    padded = np.pad(planes, ((0, 0), (0, ph), (0, pw)), mode="edge")
    hb, wb = padded.shape[1] // 8, padded.shape[2] // 8
    blocks = (padded.reshape(n, hb, 8, wb, 8).transpose(0, 1, 3, 2, 4)
              .reshape(n, hb * wb, 8, 8))
    return blocks, (hb, wb)


def _from_blocks(blocks: np.ndarray, grid: tuple[int, int],
                 shape: tuple[int, int]) -> np.ndarray:
    hb, wb = grid
    plane = blocks.reshape(hb, wb, 8, 8).transpose(0, 2, 1, 3).reshape(hb * 8, wb * 8)
    return plane[:shape[0], :shape[1]]


def _subsample_420(planes: np.ndarray) -> np.ndarray:
    """2×2 box average of ``(N, H, W)`` planes (odd dims edge-replicated first)."""
    h, w = planes.shape[1:]
    p = np.pad(planes, ((0, 0), (0, h % 2), (0, w % 2)), mode="edge")
    return 0.25 * (p[:, 0::2, 0::2] + p[:, 0::2, 1::2]
                   + p[:, 1::2, 0::2] + p[:, 1::2, 1::2])


def _upsample_2x(plane: np.ndarray, out_shape: tuple[int, int],
                 out: np.ndarray | None = None) -> np.ndarray:
    """Chroma upsampling by sample replication (the 'simple' decoder path).

    Writes ``out[..., i, j] = plane[..., i // 2, j // 2]`` directly into
    ``out`` (which may be a strided view, e.g. one channel of a packed YCbCr
    buffer), so the hot decode path allocates no intermediate double-size
    planes.  ``out_shape`` addresses the last two axes; leading batch axes
    pass through.
    """
    h, w = out_shape
    if out is None:
        out = np.empty(plane.shape[:-2] + out_shape, dtype=plane.dtype)
    hh, hw = (h + 1) // 2, (w + 1) // 2
    out[..., 0::2, 0::2] = plane[..., :hh, :hw]
    out[..., 0::2, 1::2] = plane[..., :hh, :w // 2]
    out[..., 1::2, 0::2] = plane[..., :h // 2, :hw]
    out[..., 1::2, 1::2] = plane[..., :h // 2, :w // 2]
    return out


def _upsample_2x_fancy(plane: np.ndarray, out_shape: tuple[int, int],
                       out: np.ndarray | None = None) -> np.ndarray:
    """libjpeg-style 'fancy' (triangular) chroma upsampling.

    Each output sample is a 3:1 weighted average of the two nearest chroma
    samples — the half-pixel-centred bilinear filter.  Decoders split between
    replication and fancy upsampling, and that split is the *largest*
    component of real-world decoder SysNoise (visible at colour edges).

    ``out_shape`` addresses the last two axes; leading batch axes broadcast
    through the separable matrix products.
    """
    h, w = plane.shape[-2:]

    def axis_matrix(n_in: int, n_out: int) -> np.ndarray:
        src = (np.arange(n_out) + 0.5) / 2.0 - 0.5
        lo = np.clip(np.floor(src).astype(int), 0, n_in - 1)
        hi = np.clip(lo + 1, 0, n_in - 1)
        frac = np.clip(src - lo, 0.0, 1.0)
        m = np.zeros((n_out, n_in))
        m[np.arange(n_out), lo] += 1 - frac
        m[np.arange(n_out), hi] += frac
        return m

    my = axis_matrix(h, out_shape[0])
    mx = axis_matrix(w, out_shape[1])
    if out is None:
        return my @ plane @ mx.T
    out[...] = my @ plane @ mx.T
    return out


# ---------------------------------------------------------------------------
# Public codec API
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JpegBitstream:
    """An encoded image: header fields + entropy-coded payload."""

    height: int
    width: int
    quality: int
    subsample: bool
    payload: bytes
    n_blocks: tuple[int, int, int, int]    # luma blocks, chroma blocks, grids packed

    def tobytes(self) -> bytes:
        head = struct.pack(">4sHHBB4H", MAGIC, self.height, self.width,
                           self.quality, int(self.subsample), *self.n_blocks)
        return head + self.payload

    @staticmethod
    def frombytes(data: bytes) -> "JpegBitstream":
        magic, h, w, q, sub, a, b, c, d = struct.unpack(">4sHHBB4H", data[:18])
        if magic != MAGIC:
            raise ValueError("not an RJPG bitstream")
        return JpegBitstream(h, w, q, bool(sub), data[18:], (a, b, c, d))


#: Images per vectorised encode pass.  A pass's temporaries (float planes,
#: DCT blocks, one entry per Huffman chunk) grow with its image count, so a
#: fixed chunk bounds peak memory; 32 was also the fastest size measured.
ENCODE_CHUNK = 32


def encode_batch(images: np.ndarray, quality: int = 90, subsample: bool = True,
                 entropy: str | None = None) -> list[JpegBitstream]:
    """Encode an ``(N, H, W, 3)`` uint8 RGB batch into ``N`` bitstreams.

    Each stream is the bitstream of its image alone.  The colour
    conversion, chroma subsampling, blocking, DCT, quantisation and
    entropy coding run once per chunk of up to :data:`ENCODE_CHUNK`
    images instead of once per image.  An empty batch gives ``[]``.

    ``entropy`` picks the coder implementation: ``"vector"`` (batched NumPy,
    the default) or ``"scalar"`` (the per-coefficient reference walk, run
    per image).  Both produce the identical bitstreams.
    """
    entropy = _resolve_entropy(entropy)
    images = np.asarray(images)
    if images.dtype != np.uint8:
        raise TypeError("encode expects uint8 RGB")
    if images.ndim != 4 or images.shape[-1] != 3:
        raise ValueError(f"encode_batch expects (N, H, W, 3) RGB, "
                         f"got shape {images.shape}")
    streams: list[JpegBitstream] = []
    for start in range(0, len(images), ENCODE_CHUNK):
        streams += _encode_chunk(images[start:start + ENCODE_CHUNK], quality,
                                 subsample, entropy)
    return streams


def _encode_chunk(rgb: np.ndarray, quality: int, subsample: bool,
                  entropy: str) -> list[JpegBitstream]:
    h, w = rgb.shape[1:3]
    quantised, components, grids = _quantise(rgb, quality, subsample)
    if entropy == "vector":
        from .entropy import encode_planes
        payloads = encode_planes(quantised, components, _ZIGZAG)
    else:
        payloads = []
        for blocks in quantised:
            writer = _BitWriter()
            first = 0
            for count, table in components:
                _encode_component(writer, blocks[first:first + count], table)
                first += count
            payloads.append(writer.tobytes())

    n_blocks = grids[0] + grids[1]          # luma grid, then chroma grid
    return [JpegBitstream(h, w, quality, subsample, payload, n_blocks)
            for payload in payloads]


def _quantise(rgb: np.ndarray, quality: int, subsample: bool):
    """Quantised DCT blocks of an ``(N, H, W, 3)`` uint8 batch.

    Returns ``(N, B, 8, 8)`` int32 blocks, each image's luma then Cb then Cr
    blocks in stream order, with each component's ``(block count, Huffman
    table)`` and block grid.  The float coefficients are freed on return,
    before entropy coding.
    """
    blocks, grids = _level_shifted_blocks(rgb, subsample)
    counts = [hb * wb for hb, wb in grids]
    luma_q, chroma_q = quality_tables(quality)
    qtables = np.repeat(np.stack([luma_q, chroma_q, chroma_q]), counts, axis=0)
    coeffs = dct2(blocks)
    coeffs /= qtables
    quantised = np.round(coeffs, out=coeffs).astype(np.int32)
    return quantised, list(zip(counts, (0, 1, 1))), grids


def _level_shifted_blocks(rgb: np.ndarray, subsample: bool):
    """Level-shifted ``(N, B, 8, 8)`` blocks: luma, Cb, Cr, per image.

    Its own function so that the float YCbCr planes are freed before the DCT.
    """
    ycc = _rgb_to_ycbcr(rgb.astype(np.float64))
    planes = [ycc[..., 0]]
    if subsample:
        planes += [_subsample_420(ycc[..., 1]), _subsample_420(ycc[..., 2])]
    else:
        planes += [ycc[..., 1], ycc[..., 2]]
    parts, grids = zip(*(_to_blocks(plane - 128.0) for plane in planes))
    return np.concatenate(parts, axis=1), grids


def encode(rgb: np.ndarray, quality: int = 90, subsample: bool = True,
           entropy: str | None = None) -> JpegBitstream:
    """Encode an (H, W, 3) uint8 RGB image into a baseline-JPEG bitstream.

    ``entropy`` picks the coder implementation — ``"vector"`` (batched NumPy,
    the default) or ``"scalar"`` (per-coefficient reference walk).  Both
    produce the identical bitstream.

    One code path serves single images and batches: this is
    ``encode_batch(rgb[None])[0]``.
    """
    return encode_batch(np.asarray(rgb)[None], quality, subsample, entropy)[0]


def decode(stream: JpegBitstream, idct: str = "reference",
           chroma_upsample: str = "replicate",
           entropy: str | None = None) -> np.ndarray:
    """Decode a bitstream to (H, W, 3) uint8 RGB.

    ``idct`` selects the inverse-DCT implementation; ``chroma_upsample``
    selects ``"replicate"`` or ``"fancy"`` 4:2:0 chroma reconstruction.
    Together these span the decode-level disagreement between real libraries.
    ``entropy`` picks the Huffman decoder implementation (``"vector"`` fast
    path by default, ``"scalar"`` reference walk); both are bit-exact.

    One code path serves single images and batches: this is
    ``decode_batch([stream])[0]``, so the two can never drift apart.
    """
    return decode_batch([stream], idct, chroma_upsample, entropy)[0]


def same_geometry(streams: list) -> bool:
    """Whether every stream shares one coefficient layout.

    Equal size, quality, subsampling and block grids: the condition for
    decoding the list as one batch and for :func:`entropy_decode`.
    """
    first = streams[0]
    return all(s.height == first.height and s.width == first.width
               and s.quality == first.quality
               and s.subsample == first.subsample
               and s.n_blocks == first.n_blocks for s in streams[1:])


def _component_blocks(stream: JpegBitstream) -> tuple[int, int, int]:
    """Block counts of the luma, Cb and Cr components, in stream order."""
    lhb, lwb, chb, cwb = stream.n_blocks
    return lhb * lwb, chb * cwb, chb * cwb


def entropy_decode(streams: list, entropy: str | None = None) -> np.ndarray:
    """The Huffman stage of decoding: ``(N, K)`` int32 coefficients.

    Row ``i`` holds stream ``i``'s quantised coefficients in zig-zag order,
    luma blocks then Cb then Cr (``K = 64 * blocks``).  No decoder persona
    changes this stage, so its result can feed :func:`decode_batch` for
    every persona.  The streams must share one geometry
    (:func:`same_geometry`).  int32 holds every value the decoder can
    produce, and widening it to float64 is exact.
    """
    if len(streams) == 0:
        raise ValueError("entropy_decode needs at least one stream")
    if not same_geometry(streams):
        raise ValueError("entropy_decode needs streams of one geometry")
    entropy = _resolve_entropy(entropy)
    counts = _component_blocks(streams[0])
    if entropy == "vector":
        from .entropy import ComponentDecoder
        flat: list[int] = []
        for stream in streams:
            vec = ComponentDecoder(stream.payload)
            for i, n_blocks in enumerate(counts):
                flat.extend(vec.decode_component_flat(
                    n_blocks, 0 if i == 0 else 1))
        return np.array(flat, dtype=np.int32).reshape(len(streams), -1)
    rows = []
    for stream in streams:
        reader = _BitReader(stream.payload)
        rows.append(np.concatenate(
            [_decode_component(reader, n_blocks, 0 if i == 0 else 1)
             .reshape(-1) for i, n_blocks in enumerate(counts)]))
    return np.stack(rows)


def decode_batch(streams: list, idct: str = "reference",
                 chroma_upsample: str = "replicate",
                 entropy: str | None = None,
                 coefficients: np.ndarray | None = None) -> np.ndarray:
    """Decode a list of bitstreams into one (N, H, W, 3) uint8 batch.

    The per-image output is bit-identical to :func:`decode`; the win is
    amortisation — entropy decoding stays per-stream (Huffman streams are
    sequential), but the iDCT, un-blocking, chroma upsampling and colour
    conversion run once over the whole batch.  Streams of mixed geometry
    (shape/quality/subsampling) fall back to per-image decoding.

    ``coefficients`` is the :func:`entropy_decode` of ``streams``, when the
    caller already has it (it then skips the Huffman stage; ``entropy`` is
    unused).  The output is the same bytes either way.
    """
    if len(streams) == 0:
        raise ValueError("decode_batch needs at least one stream")
    if not same_geometry(streams):
        if coefficients is not None:
            raise ValueError("coefficients need streams of one geometry")
        return np.stack([decode(s, idct, chroma_upsample, entropy)
                         for s in streams])
    idct_fn = IDCT_VARIANTS[idct]
    if chroma_upsample not in ("replicate", "fancy"):
        raise ValueError(f"unknown chroma upsampling {chroma_upsample!r}")
    upsample = _upsample_2x if chroma_upsample == "replicate" else _upsample_2x_fancy
    first = streams[0]
    n = len(streams)
    if coefficients is None:
        coefficients = entropy_decode(streams, entropy)
    elif coefficients.shape != (n, 64 * sum(_component_blocks(first))):
        raise ValueError(f"coefficients of shape {coefficients.shape} do not "
                         f"match {n} streams of this geometry")
    luma_q, chroma_q = quality_tables(first.quality)
    lhb, lwb, chb, cwb = first.n_blocks
    h, w = first.height, first.width
    if first.subsample:
        ch, cw = (h + 1) // 2, (w + 1) // 2
    else:
        ch, cw = h, w
    specs = [((lhb, lwb), (h, w)), ((chb, cwb), (ch, cw)),
             ((chb, cwb), (ch, cw))]

    # Run the whole batch through each stage after the Huffman one at once.
    ycc = np.empty((n, h, w, 3), dtype=np.float64)
    per_block = coefficients.reshape(n, -1, 64)
    first_block = 0
    for i, ((hb, wb), shape) in enumerate(specs):
        zigzagged = per_block[:, first_block:first_block + hb * wb]
        first_block += hb * wb
        coeffs = (zigzagged[..., _UNZIGZAG].astype(np.float64)
                  .reshape(-1, 8, 8))
        qtable = luma_q if i == 0 else chroma_q
        blocks = idct_fn(coeffs * qtable) + 128.0
        planes = (blocks.reshape(n, hb, wb, 8, 8)
                  .transpose(0, 1, 3, 2, 4)
                  .reshape(n, hb * 8, wb * 8)[:, :shape[0], :shape[1]])
        if i == 0 or not first.subsample:
            ycc[..., i] = planes
        else:
            upsample(planes, (h, w), out=ycc[..., i])
    rgb = _ycbcr_to_rgb(ycc)
    np.round(rgb, out=rgb)
    np.clip(rgb, 0, 255, out=rgb)
    return rgb.astype(np.uint8)


def iter_decode_batches(streams: list, shard_size: int,
                        idct: str = "reference",
                        chroma_upsample: str = "replicate",
                        entropy: str | None = None):
    """Decode ``streams`` lazily in shard-sized uint8 batches.

    Yields ``(offset, batch)`` pairs where ``batch`` is the
    :func:`decode_batch` of ``streams[offset:offset + shard_size]`` — every
    image bit-identical to the whole-dataset decode (decode is strictly
    per-image), but with peak memory bounded by one shard instead of the
    dataset.  This is the data-layer entry point the streaming pipeline's
    decode stage runs on, letting decode of shard *k+1* overlap inference
    on shard *k*.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    for offset in range(0, len(streams), shard_size):
        yield offset, decode_batch(streams[offset:offset + shard_size],
                                   idct, chroma_upsample, entropy)


#: The paper's four decode libraries → (iDCT variant, chroma upsampling).
#: PIL/FFmpeg ship libjpeg's fancy upsampling; OpenCV's default build and
#: DALI's GPU path replicate.
DECODER_LIBRARIES = {
    "pil": ("chen", "fancy"),
    "opencv": ("integer", "replicate"),
    "ffmpeg": ("rowcol_f32", "fancy"),
    "dali": ("reference", "replicate"),
}


def decode_with(stream: JpegBitstream, library: str) -> np.ndarray:
    """Decode with a named *library persona* (``pil``/``opencv``/``ffmpeg``/``dali``)."""
    if library not in DECODER_LIBRARIES:
        raise ValueError(f"unknown decoder persona {library!r}; "
                         f"choose from {sorted(DECODER_LIBRARIES)}")
    idct, chroma = DECODER_LIBRARIES[library]
    return decode(stream, idct=idct, chroma_upsample=chroma)
