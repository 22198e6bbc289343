"""Image substrate: JPEG codec, resize kernels, colour conversion.

These are the from-scratch replacements for Pillow / OpenCV / FFmpeg / DALI /
Ascend ACL whose implementation differences *are* the paper's pre-processing
SysNoise.
"""

from .color import (COLOR_PIPELINES, color_roundtrip, rgb_to_yuv_bt601,
                    subsample_420, upsample_420, yuv_to_rgb_bt601,
                    yuv_to_rgb_integer)
from .dct import (IDCT_VARIANTS, dct2, dct_matrix, idct_chen, idct_integer,
                  idct_reference, idct_rowcol_f32)
from .jpeg import (DECODER_LIBRARIES, ENTROPY_CODERS, JpegBitstream, decode,
                   decode_batch, decode_with, default_entropy, encode,
                   encode_batch, iter_decode_batches, quality_tables,
                   set_default_entropy, zigzag_order)
from .learned_codec import LearnedCodec
from .resize import (OPENCV_METHODS, PILLOW_METHODS, RESIZE_METHODS,
                     iter_resize_batches, resize, resize_batch, resize_matrix)

__all__ = [
    "dct_matrix", "dct2", "idct_reference", "idct_chen", "idct_integer",
    "idct_rowcol_f32", "IDCT_VARIANTS",
    "encode", "encode_batch", "decode", "decode_batch", "decode_with",
    "iter_decode_batches",
    "DECODER_LIBRARIES", "JpegBitstream",
    "quality_tables", "zigzag_order", "ENTROPY_CODERS", "default_entropy",
    "set_default_entropy",
    "resize", "resize_batch", "iter_resize_batches", "resize_matrix",
    "RESIZE_METHODS",
    "PILLOW_METHODS", "OPENCV_METHODS",
    "rgb_to_yuv_bt601", "yuv_to_rgb_bt601", "yuv_to_rgb_integer",
    "subsample_420", "upsample_420", "color_roundtrip", "COLOR_PIPELINES",
    "LearnedCodec",
]
