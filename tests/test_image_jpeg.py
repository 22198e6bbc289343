"""Tests for the JPEG codec and its four decoder personas."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import make_classification_dataset
from repro.image import jpeg
from repro.image.dct import dct2
from repro.image.jpeg import (DECODER_LIBRARIES, JpegBitstream, decode,
                              decode_batch, decode_with, encode, encode_batch,
                              entropy_decode, quality_tables, same_geometry,
                              zigzag_order)


def smooth_image(h=32, w=32, seed=0):
    """A natural-ish smooth test image (hard edges stress the codec less)."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:h, 0:w]
    base = 128 + 60 * np.sin(xx / 7.0) * np.cos(yy / 9.0)
    img = np.stack([base, np.roll(base, 3, axis=0), 255 - base], axis=-1)
    img += rng.normal(0, 4, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


class TestTablesAndZigzag:
    def test_quality_tables_monotone(self):
        l50, _ = quality_tables(50)
        l90, _ = quality_tables(90)
        l10, _ = quality_tables(10)
        assert (l90 <= l50).all() and (l50 <= l10).all()

    def test_quality_100_near_lossless_table(self):
        l100, c100 = quality_tables(100)
        assert l100.max() <= 2 and c100.max() <= 2

    def test_quality_clipped(self):
        assert (quality_tables(0)[0] == quality_tables(1)[0]).all()
        assert (quality_tables(101)[0] == quality_tables(100)[0]).all()

    def test_zigzag_is_permutation(self):
        zz = zigzag_order()
        assert sorted(zz.tolist()) == list(range(64))

    def test_zigzag_start_sequence(self):
        # T.81 zig-zag starts 0, 1, 8, 16, 9, 2, ...
        np.testing.assert_array_equal(zigzag_order()[:6], [0, 1, 8, 16, 9, 2])


class TestMagnitudeCoding:
    @given(st.integers(-2047, 2047))
    @settings(max_examples=200, deadline=None)
    def test_property_signed_magnitude_roundtrip(self, v):
        bits, size = jpeg._encode_magnitude(v)
        assert jpeg._decode_magnitude(bits, size) == v

    def test_zero_has_zero_size(self):
        assert jpeg._encode_magnitude(0) == (0, 0)


class TestCodecRoundtrip:
    def test_high_quality_roundtrip_small_error(self):
        img = smooth_image()
        out = decode(encode(img, quality=95, subsample=False))
        err = np.abs(out.astype(int) - img.astype(int))
        assert err.mean() < 3.0

    def test_shape_and_dtype_preserved(self):
        img = smooth_image(24, 40)
        out = decode(encode(img, quality=80))
        assert out.shape == img.shape and out.dtype == np.uint8

    def test_non_multiple_of_8_dims(self):
        img = smooth_image(19, 27)
        out = decode(encode(img, quality=90))
        assert out.shape == (19, 27, 3)

    def test_lower_quality_more_error(self):
        img = smooth_image()
        e90 = np.abs(decode(encode(img, 90)).astype(int) - img.astype(int)).mean()
        e20 = np.abs(decode(encode(img, 20)).astype(int) - img.astype(int)).mean()
        assert e20 > e90

    def test_subsample_introduces_chroma_error(self):
        img = smooth_image()
        e444 = np.abs(decode(encode(img, 95, subsample=False)).astype(int) - img).mean()
        e420 = np.abs(decode(encode(img, 95, subsample=True)).astype(int) - img).mean()
        assert e420 >= e444

    def test_bitstream_serialisation_roundtrip(self):
        img = smooth_image(16, 16)
        stream = encode(img, quality=85)
        restored = JpegBitstream.frombytes(stream.tobytes())
        np.testing.assert_array_equal(decode(stream), decode(restored))

    def test_frombytes_rejects_garbage(self):
        with pytest.raises(ValueError):
            JpegBitstream.frombytes(b"JFIF" + b"\x00" * 32)

    def test_encode_rejects_float(self):
        with pytest.raises(TypeError):
            encode(np.zeros((8, 8, 3)))

    def test_compression_actually_compresses(self):
        img = smooth_image(64, 64)
        stream = encode(img, quality=50)
        assert len(stream.tobytes()) < img.nbytes / 2

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_property_roundtrip_bounded(self, seed):
        img = smooth_image(16, 16, seed)
        out = decode(encode(img, quality=90))
        assert np.abs(out.astype(int) - img.astype(int)).max() < 64


class TestDecoderPersonas:
    """The decoder noise itself: same bitstream, different RGB tensors."""

    def setup_method(self):
        self.img = smooth_image(32, 32)
        self.stream = encode(self.img, quality=90)

    def test_four_libraries_registered(self):
        assert set(DECODER_LIBRARIES) == {"pil", "opencv", "ffmpeg", "dali"}

    def test_personas_disagree_on_same_bitstream(self):
        outs = {lib: decode_with(self.stream, lib) for lib in DECODER_LIBRARIES}
        libs = list(outs)
        pairs_differing = sum(
            not np.array_equal(outs[a], outs[b])
            for i, a in enumerate(libs) for b in libs[i + 1:])
        assert pairs_differing >= 4

    def test_persona_disagreement_is_small_but_real(self):
        ref = decode_with(self.stream, "dali").astype(int)
        for lib in ("pil", "opencv", "ffmpeg"):
            diff = np.abs(decode_with(self.stream, lib).astype(int) - ref)
            # iDCT disagreement is ±LSB; chroma-upsampling disagreement is a
            # few counts at colour edges.  Never structural change.
            assert diff.max() <= 32
            assert diff.mean() < 3.0

    def test_chroma_upsampling_is_the_dominant_decoder_axis(self):
        same_chroma = np.abs(decode_with(self.stream, "opencv").astype(int)
                             - decode_with(self.stream, "dali").astype(int))
        diff_chroma = np.abs(decode_with(self.stream, "pil").astype(int)
                             - decode_with(self.stream, "dali").astype(int))
        assert diff_chroma.mean() > same_chroma.mean()

    def test_unknown_chroma_mode_raises(self):
        with pytest.raises(ValueError):
            decode(self.stream, chroma_upsample="bicubic")

    def test_each_persona_deterministic(self):
        for lib in DECODER_LIBRARIES:
            a = decode_with(self.stream, lib)
            b = decode_with(self.stream, lib)
            np.testing.assert_array_equal(a, b)

    def test_all_personas_close_to_source(self):
        for lib in DECODER_LIBRARIES:
            out = decode_with(self.stream, lib)
            assert np.abs(out.astype(int) - self.img.astype(int)).mean() < 6.0


class TestSharedHuffmanStage:
    """``entropy_decode`` is the persona-independent first stage of
    ``decode_batch``: decoding from its coefficients gives the same bytes."""

    @pytest.mark.parametrize("subsample", [True, False])
    @pytest.mark.parametrize("entropy", ["vector", "scalar"])
    def test_cached_coefficients_decode_the_same_bytes(self, entropy,
                                                       subsample):
        streams = [encode(smooth_image(21, 26, seed=s), quality=85,
                          subsample=subsample) for s in range(5)]
        coefficients = entropy_decode(streams, entropy)
        lhb, lwb, chb, cwb = streams[0].n_blocks
        assert coefficients.dtype == np.int32
        assert coefficients.shape == (5, 64 * (lhb * lwb + 2 * chb * cwb))
        for lib, (idct, chroma) in DECODER_LIBRARIES.items():
            want = decode_batch(streams, idct, chroma, entropy)
            got = decode_batch(streams, idct, chroma,
                               coefficients=coefficients)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), lib
            assert got.tobytes() == np.stack(
                [decode_with(s, lib) for s in streams]).tobytes(), lib

    def test_both_coders_give_the_same_coefficients(self):
        streams = [encode(smooth_image(24, 17, seed=s), quality=q)
                   for s, q in ((0, 90), (1, 90), (2, 90))]
        np.testing.assert_array_equal(entropy_decode(streams, "scalar"),
                                      entropy_decode(streams, "vector"))

    def test_rows_are_per_stream_luma_then_chroma_in_zigzag_order(self):
        # Grey pixels (no chroma energy) whose rows follow the first
        # vertical cosine: only DC and natural (1, 0) — zig-zag index 2,
        # natural index 8 — carry luma energy.
        y = np.arange(16)[:, None] * np.ones((1, 16))
        grey = 128 + 60 * np.cos((2 * (y % 8) + 1) * np.pi / 16)
        img = np.repeat(np.round(grey)[..., None], 3, axis=-1)
        streams = [encode(img.astype(np.uint8), quality=90),
                   encode(smooth_image(16, 16, seed=4), quality=90)]
        coefficients = entropy_decode(streams)
        for i, stream in enumerate(streams):
            np.testing.assert_array_equal(entropy_decode([stream])[0],
                                          coefficients[i])
        lhb, lwb, _, _ = streams[0].n_blocks
        luma = coefficients[0, :64 * lhb * lwb].reshape(-1, 64)
        assert (luma[:, 2] != 0).all()
        assert (np.delete(luma, [0, 2], axis=1) == 0).all()
        assert (coefficients[0, 64 * lhb * lwb:] == 0).all()

    def test_mixed_geometry_keeps_per_image_decoding(self):
        from repro.core import DecodeCache
        from repro.core.pipeline import decode_dataset
        streams = [encode(smooth_image(16, 16), 90),
                   encode(smooth_image(16, 16, seed=2), 75),   # quality
                   encode(smooth_image(16, 24, seed=3), 90)]   # shape
        assert not same_geometry(streams)
        assert same_geometry(streams[:1])
        with pytest.raises(ValueError, match="one geometry"):
            entropy_decode(streams)
        with pytest.raises(ValueError, match="one geometry"):
            decode_batch(streams[:2],
                         coefficients=entropy_decode(streams[:1]))
        for lib, (idct, chroma) in DECODER_LIBRARIES.items():
            per = [decode_with(s, lib) for s in streams[:2]]
            np.testing.assert_array_equal(
                decode_batch(streams[:2], idct, chroma), np.stack(per))
        cache = DecodeCache()
        out = decode_dataset(streams[:2], "pil", cache)
        np.testing.assert_array_equal(
            out, np.stack([decode_with(s, "pil") for s in streams[:2]]))
        assert len(cache) == 1                 # pixels only, no coefficients

    def test_coefficients_must_match_the_streams(self):
        streams = [encode(smooth_image(16, 16, seed=s), 90) for s in range(3)]
        coefficients = entropy_decode(streams)
        with pytest.raises(ValueError, match="do not match"):
            decode_batch(streams[:2], coefficients=coefficients)
        with pytest.raises(ValueError):
            entropy_decode([])


_JFIF_YCC = np.array([[0.299, 0.587, 0.114],
                      [-0.168736, -0.331264, 0.5],
                      [0.5, -0.418688, -0.081312]])


def reference_encode(rgb, quality, subsample):
    """The per-image encoder ``encode_batch`` replaced: (payload, n_blocks).

    Colour conversion, 4:2:0 subsampling, blocking, DCT and quantisation of
    one image, plane by plane, then the scalar ``_BitWriter`` coder.
    """
    h, w = rgb.shape[:2]
    ycc = rgb.astype(np.float64).reshape(-1, 3) @ _JFIF_YCC.T
    ycc = ycc.reshape(rgb.shape)
    ycc[..., 1:] += 128.0
    planes = [ycc[..., 0], ycc[..., 1], ycc[..., 2]]
    if subsample:
        for i in (1, 2):
            p = np.pad(planes[i], ((0, h % 2), (0, w % 2)), mode="edge")
            planes[i] = 0.25 * (p[0::2, 0::2] + p[0::2, 1::2]
                                + p[1::2, 0::2] + p[1::2, 1::2])
    luma_q, chroma_q = quality_tables(quality)
    writer, grids = jpeg._BitWriter(), []
    for i, plane in enumerate(planes):
        ph, pw = (-plane.shape[0]) % 8, (-plane.shape[1]) % 8
        padded = np.pad(plane - 128.0, ((0, ph), (0, pw)), mode="edge")
        hb, wb = padded.shape[0] // 8, padded.shape[1] // 8
        grids.append((hb, wb))
        blocks = (padded.reshape(hb, 8, wb, 8).transpose(0, 2, 1, 3)
                  .reshape(-1, 8, 8))
        qtable = luma_q if i == 0 else chroma_q
        quantised = np.round(dct2(blocks) / qtable).astype(np.int32)
        jpeg._encode_component(writer, quantised, 0 if i == 0 else 1)
    return writer.tobytes(), grids[0] + grids[1]


def flat_and_noise(n, h, w, seed=0):
    """Flat images (EOB-only blocks) alternating with uniform noise (long
    zero runs at low quality, large magnitudes at high quality)."""
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, (n, h, w, 3), dtype=np.uint8)
    images[::2] = rng.integers(0, 256, (len(images[::2]), 1, 1, 3))
    return images


def headers_and_payloads(streams):
    return [(s.height, s.width, s.quality, s.subsample, s.n_blocks, s.payload)
            for s in streams]


def expected_streams(images, quality, subsample):
    h, w = images.shape[1:3]
    streams = []
    for img in images:
        payload, n_blocks = reference_encode(img, quality, subsample)
        streams.append((h, w, quality, subsample, n_blocks, payload))
    return streams


class TestEncodeBatch:
    """``encode_batch`` gives each image the bitstream the per-image encoder
    gave it, through both entropy coders."""

    @pytest.mark.parametrize("subsample", [True, False])
    @pytest.mark.parametrize("quality", [1, 50, 90, 100])
    @pytest.mark.parametrize("size", [(1, 1), (8, 8), (9, 17), (47, 45),
                                      (80, 80)])
    def test_matches_per_image_reference(self, size, quality, subsample):
        images = flat_and_noise(4, *size, seed=quality)
        want = expected_streams(images, quality, subsample)
        for entropy in ("scalar", "vector"):
            got = encode_batch(images, quality, subsample, entropy)
            assert headers_and_payloads(got) == want, entropy

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 65])
    def test_chunk_boundaries(self, n):
        for size in ((9, 17), (47, 45)):
            images = flat_and_noise(n, *size, seed=n)
            want = expected_streams(images, 90, True)
            for entropy in ("scalar", "vector"):
                got = encode_batch(images, 90, True, entropy)
                assert headers_and_payloads(got) == want, (size, entropy)

    def test_encode_is_a_batch_of_one(self):
        img = smooth_image(19, 27)
        for entropy in ("scalar", "vector"):
            assert (encode(img, 75, entropy=entropy)
                    == encode_batch(img[None], 75, entropy=entropy)[0])

    def test_empty_batch_gives_no_streams(self):
        assert encode_batch(np.zeros((0, 8, 8, 3), dtype=np.uint8)) == []

    def test_rejects_what_is_not_a_uint8_rgb_batch(self):
        with pytest.raises(ValueError):
            encode_batch(smooth_image(8, 8))
        with pytest.raises(ValueError):
            encode_batch(np.zeros((2, 8, 8), dtype=np.uint8))
        with pytest.raises(TypeError):
            encode_batch(np.zeros((2, 8, 8, 3)))

    def test_peak_memory_is_one_chunk_not_the_batch(self):
        images = make_classification_dataset(n=320, seed=0).images

        def peak(batch):
            tracemalloc.start()
            try:
                encode_batch(batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_chunk = peak(images[:32])
        assert peak(images) < 2 * one_chunk
