"""Vectorized JPEG entropy coding: batched RLE/Huffman over all blocks.

The scalar coder in :mod:`repro.image.jpeg` walks every coefficient (and on
decode every *bit*) in Python — faithful to T.81's prose, but two to three
orders of magnitude off what the arithmetic actually costs.  This module is
the fast path the codec uses by default:

encode
    Zig-zag, DC DPCM, magnitude categories, zero-run splitting and ZRL/EOB
    insertion all run as NumPy array programs over every block of every
    image in a batch.  Each Huffman symbol / appended-magnitude pair becomes
    one ``(codeword, bitlength)`` chunk; every chunk's position in the
    stream is computed directly from segmented (per-block) offset cumsums —
    no sort.  Each image's chunks then start at a byte boundary, and are
    packed by byte lanes: a chunk of at most 16 bits touches at most 3
    bytes, and one ``np.bincount`` per lane adds those bytes into the
    buffer (the chunks' bits are disjoint, so the sums are ORs).

decode
    Huffman streams are sequential by construction, so the fast path makes
    the *per-symbol* work O(1) instead of per-bit: the payload is expanded
    once into a 24-bit-per-byte-offset window list, and flat 65536-entry
    tables resolve any 16-bit window to a packed ``(symbol, code length)``
    int in a single lookup.  Decoding follows the symbol chain through
    plain Python lists — no per-bit reads, no dict probes, no per-payload
    table construction.

Both directions are bit-exact with the scalar coder — ``tests``/
``benchmarks/bench_perf.py`` enforce it — so ``entropy="scalar"`` and
``entropy="vector"`` are interchangeable per call.
"""

from __future__ import annotations

import numpy as np

__all__ = ["encode_planes", "ComponentDecoder"]

# The four standard tables live with the scalar coder; import lazily to keep
# module import order flexible (jpeg.py imports us too).


def _huff_tables():
    from .jpeg import _HUFF
    return _HUFF


# ---------------------------------------------------------------------------
# Encode-side lookup arrays: symbol value -> (codeword, bit length)
# ---------------------------------------------------------------------------

_ENC_CACHE: dict[tuple[str, int], tuple[np.ndarray, np.ndarray]] = {}


def _enc_arrays(kind: str, table: int) -> tuple[np.ndarray, np.ndarray]:
    key = (kind, table)
    hit = _ENC_CACHE.get(key)
    if hit is not None:
        return hit
    enc, _ = _huff_tables()[key]
    size = 256 if kind == "ac" else 12
    codes = np.zeros(size, dtype=np.int64)
    lengths = np.zeros(size, dtype=np.int64)
    for sym, (code, length) in enc.items():
        codes[sym] = code
        lengths[sym] = length
    _ENC_CACHE[key] = (codes, lengths)
    return codes, lengths


def _bit_length(mag: np.ndarray) -> np.ndarray:
    """Vectorized ``int.bit_length`` for non-negative int64 arrays."""
    # frexp is exact for integers below 2**53; JPEG coefficients are < 2**12.
    return np.frexp(mag.astype(np.float64))[1].astype(np.int64)


def _signed_magnitude(v: np.ndarray, size: np.ndarray) -> np.ndarray:
    """JPEG signed-magnitude bits of ``v`` given its category ``size``."""
    return np.where(v < 0, v + (1 << size) - 1, v)


def _enc_stacked(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Tables 0 and 1 stacked for 2-D ``[table_id, symbol]`` lookups."""
    c0, l0 = _enc_arrays(kind, 0)
    c1, l1 = _enc_arrays(kind, 1)
    return np.stack([c0, c1]), np.stack([l0, l1])


def _plane_chunks(zz: np.ndarray, table_ids: np.ndarray,
                  comp_starts: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(codewords, bit lengths) of the full symbol stream, in stream order,
    and the index of each block's first chunk.

    ``zz`` holds *every* component's zig-zagged blocks concatenated
    (components are contiguous, starting at ``comp_starts``), ``table_ids``
    names each block's Huffman table pair — one fused pass entropy-codes all
    three planes of every image.
    """
    dc_codes, dc_lens = _enc_stacked("dc")
    ac_codes, ac_lens = _enc_stacked("ac")
    n = len(zz)

    # DC: DPCM chains, reset at every component boundary.
    dc = zz[:, 0]
    prev = np.concatenate([[0], dc[:-1]])
    prev[comp_starts] = 0
    diff = dc - prev
    dsize = _bit_length(np.abs(diff))
    dmag = _signed_magnitude(diff, dsize)

    # AC: zero runs between nonzeros, split per block.
    ac = zz[:, 1:]
    bidx, pos = np.nonzero(ac)                  # row-major == stream order
    vals = ac[bidx, pos]
    tix = table_ids[bidx]
    first = np.empty(len(pos), dtype=bool)
    if len(pos):
        first[0] = True
        first[1:] = bidx[1:] != bidx[:-1]
    prevpos = np.concatenate([[-1], pos[:-1]]) if len(pos) else pos
    run = np.where(first, pos, pos - prevpos - 1)
    n_zrl = run >> 4                            # while run > 15: ZRL; run -= 16
    rem = run & 15
    asize = _bit_length(np.abs(vals))
    amag = _signed_magnitude(vals, asize)
    sym = (rem << 4) | asize

    # EOB wherever the block's last nonzero leaves trailing zeros (or the
    # block has no AC energy at all).
    lastpos = np.full(n, -1, dtype=np.int64)
    lastpos[bidx] = pos                         # last write per block wins
    eob = lastpos < 62
    eob_blocks = np.nonzero(eob)[0]

    # Stream layout per block: DC codeword, DC magnitude, then per nonzero
    # (ZRLs..., AC codeword, AC magnitude), then EOB.  Compute every chunk's
    # slot directly from segmented offset cumsums — no sort needed.
    chunks_per_nz = n_zrl + 2
    ac_per_block = np.bincount(bidx, weights=chunks_per_nz,
                               minlength=n).astype(np.int64)
    per_block = 2 + ac_per_block + eob
    base = np.cumsum(per_block) - per_block     # first slot of each block

    # Within-block offset of each nonzero's first chunk (its first ZRL).
    excl = np.cumsum(chunks_per_nz) - chunks_per_nz
    block_first = np.zeros(n, dtype=np.int64)
    if len(pos):
        block_first[bidx[first]] = excl[first]
    nz_slot = base[bidx] + 2 + (excl - block_first[bidx])

    total_zrl = int(n_zrl.sum())
    zrl_owner = np.repeat(np.arange(len(vals)), n_zrl)
    zrl_sub = (np.arange(total_zrl)
               - np.repeat(np.cumsum(n_zrl) - n_zrl, n_zrl))

    total = int(per_block.sum())
    codes = np.empty(total, dtype=np.int64)
    lengths = np.empty(total, dtype=np.int64)
    dc_slot = base
    codes[dc_slot] = dc_codes[table_ids, dsize]
    lengths[dc_slot] = dc_lens[table_ids, dsize]
    codes[dc_slot + 1] = dmag
    lengths[dc_slot + 1] = dsize
    if total_zrl:
        zrl_slot = nz_slot[zrl_owner] + zrl_sub
        codes[zrl_slot] = ac_codes[tix[zrl_owner], 0xF0]
        lengths[zrl_slot] = ac_lens[tix[zrl_owner], 0xF0]
    codes[nz_slot + n_zrl] = ac_codes[tix, sym]
    lengths[nz_slot + n_zrl] = ac_lens[tix, sym]
    codes[nz_slot + n_zrl + 1] = amag
    lengths[nz_slot + n_zrl + 1] = asize
    eob_slot = (base + per_block - 1)[eob_blocks]
    codes[eob_slot] = ac_codes[table_ids[eob_blocks], 0x00]
    lengths[eob_slot] = ac_lens[table_ids[eob_blocks], 0x00]
    return codes, lengths, base


def encode_planes(blocks: np.ndarray, components: list[tuple[int, int]],
                  zigzag: np.ndarray) -> list[bytes]:
    """Entropy-code ``N`` images' quantised blocks into ``N`` payloads.

    ``blocks`` is ``(N, B, 8, 8)``, N >= 1: each image's blocks in stream order,
    component after component; ``components`` lists each component's
    ``(block count, Huffman table)``.  Every payload is bit-exact with
    writing its image's components through the scalar ``_BitWriter``,
    including the trailing 1-bit padding.
    """
    n, per_image = blocks.shape[:2]
    counts = [count for count, _ in components]
    table_ids = np.tile(np.repeat([table for _, table in components], counts),
                        n)
    # The DC prediction restarts at every component of every image.
    comp_starts = (np.arange(n)[:, None] * per_image
                   + np.cumsum([0] + counts[:-1])).ravel()
    codes, lengths, block_first = _plane_chunks(
        blocks.reshape(-1, 64)[:, zigzag].astype(np.int64), table_ids,
        comp_starts)

    # Bit offsets of every chunk in the unpadded concatenation, then per
    # image: where it starts, how many bits it holds, and its padded bytes.
    starts = np.cumsum(lengths) - lengths
    image_first = block_first[::per_image]
    image_start = starts[image_first]
    image_bits = np.diff(image_start, append=int(lengths.sum()))
    image_bytes = (image_bits + 7) >> 3
    byte_end = np.cumsum(image_bytes)
    byte_start = byte_end - image_bytes

    # Move each image to a byte boundary.  A chunk is at most 16 bits, so it
    # lands in the 3 bytes from its first one: left-align it in a 24-bit
    # window there and add each of the window's bytes into the buffer.  No
    # two chunks share a bit, so the sums are ORs.
    starts += np.repeat(8 * byte_start - image_start,
                        np.diff(image_first, append=len(codes)))
    window = codes << (24 - (starts & 7) - lengths)
    first_byte = starts >> 3
    n_bytes = int(byte_end[-1])
    packed = np.zeros(n_bytes + 2)
    for lane in range(3):
        packed[lane:lane + n_bytes] += np.bincount(
            first_byte, weights=(window >> (16 - 8 * lane)) & 0xFF,
            minlength=n_bytes)
    # Each payload's pad bits are 1s at the end of its own last byte.
    packed[byte_end - 1] += (1 << (8 * image_bytes - image_bits)) - 1
    buf = packed[:n_bytes].astype(np.uint8).tobytes()
    return [buf[a:b] for a, b in zip(byte_start.tolist(), byte_end.tolist())]


# ---------------------------------------------------------------------------
# Decode-side flat window tables: 16-bit prefix -> packed (symbol, length)
# ---------------------------------------------------------------------------

_DEC_CACHE: dict[tuple[str, int], list[int]] = {}

#: Signed-magnitude decode helpers indexed by size category:
#: value = mag if mag >= _HALF[size] else mag - _BIAS[size].
_HALF = [0] + [1 << (s - 1) for s in range(1, 17)]
_BIAS = [0] + [(1 << s) - 1 for s in range(1, 17)]


def _dec_packed(kind: str, table: int) -> list[int]:
    """65536-entry list mapping a 16-bit window to ``(symbol << 8) | length``.

    Windows that are not a valid codeword prefix map to -1.  A flat Python
    list makes the decode loop a single ``lst[window]`` per symbol.
    """
    key = (kind, table)
    hit = _DEC_CACHE.get(key)
    if hit is not None:
        return hit
    _, dec = _huff_tables()[key]
    packed = np.full(1 << 16, -1, dtype=np.int64)
    for (code, length), sym in dec.items():
        base = code << (16 - length)
        span = 1 << (16 - length)
        packed[base:base + span] = (sym << 8) | length
    out = packed.tolist()
    _DEC_CACHE[key] = out
    return out


class ComponentDecoder:
    """Chain-following Huffman decoder over a byte-aligned window list.

    One instance wraps one payload; :meth:`decode_component` is called per
    colour component exactly like the scalar ``_decode_component``, sharing
    the running bit position.  The 16-bit window at bit offset ``p`` is
    sliced out of a precomputed 24-bit-per-byte-offset list, so the
    per-payload setup is O(bytes), not O(bits).
    """

    def __init__(self, payload: bytes):
        self.n_bits = 8 * len(payload)
        data = np.frombuffer(payload, dtype=np.uint8).astype(np.int64)
        # Pad with 1-bits so 16-bit windows near the end stay in bounds
        # (matching the writer's 1-padding; never followed on valid streams).
        data = np.concatenate([data, np.full(4, 0xFF, dtype=np.int64)])
        self._by24 = ((data[:-2] << 16) | (data[1:-1] << 8) | data[2:]).tolist()
        self.pos = 0

    def decode_component(self, n_blocks: int, table: int,
                         unzigzag: np.ndarray) -> np.ndarray:
        coeffs = np.array(self.decode_component_flat(n_blocks, table),
                          dtype=np.int32).reshape(n_blocks, 64)
        return coeffs[:, unzigzag].reshape(n_blocks, 8, 8)

    def decode_component_flat(self, n_blocks: int, table: int) -> list[int]:
        """One component's coefficients as a flat zig-zag-order list.

        The batch decoder concatenates these across streams and does the
        array conversion + un-zig-zag once per component instead of per
        stream.
        """
        by24 = self._by24
        dpack = _dec_packed("dc", table)
        apack = _dec_packed("ac", table)
        half, bias = _HALF, _BIAS
        out = [0] * (n_blocks * 64)
        pos = self.pos
        prev_dc = 0
        for b in range(n_blocks):
            base = b * 64
            p = dpack[(by24[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF]
            if p < 0:
                raise ValueError("corrupt Huffman stream")
            size = p >> 8
            pos += p & 255
            if size:
                mag = (by24[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF
                mag >>= 16 - size
                prev_dc += mag if mag >= half[size] else mag - bias[size]
                pos += size
            out[base] = prev_dc
            k = 1
            while k < 64:
                p = apack[(by24[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF]
                if p < 0:
                    raise ValueError("corrupt Huffman stream")
                sym = p >> 8
                pos += p & 255
                if sym == 0x00:                  # EOB
                    break
                if sym == 0xF0:                  # ZRL
                    k += 16
                    continue
                k += sym >> 4
                size = sym & 15
                mag = (by24[pos >> 3] >> (8 - (pos & 7))) & 0xFFFF
                mag >>= 16 - size
                if k > 63:
                    raise ValueError("corrupt Huffman stream")
                out[base + k] = mag if mag >= half[size] else mag - bias[size]
                pos += size
                k += 1
        self.pos = pos
        return out
