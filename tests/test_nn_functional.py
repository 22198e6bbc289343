"""Tests for conv / pooling / upsample / norm functional ops."""

import numpy as np
import pytest
from scipy import signal

import repro.nn.functional as F
from repro.nn import Tensor


def numeric_grad(fn, x, eps=1e-6):
    g = np.zeros_like(x)
    flat, gf = x.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        hi = fn(x)
        flat[i] = old - eps
        lo = fn(x)
        flat[i] = old
        gf[i] = (hi - lo) / (2 * eps)
    return g


class TestConv2d:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_matches_scipy_correlate(self):
        x = self.rng.standard_normal((1, 1, 8, 8))
        w = self.rng.standard_normal((1, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), stride=1, padding=0)
        ref = signal.correlate2d(x[0, 0], w[0, 0], mode="valid")
        np.testing.assert_allclose(out.data[0, 0], ref, atol=1e-10)

    def test_multichannel_sums_over_input_channels(self):
        x = self.rng.standard_normal((2, 3, 6, 6))
        w = self.rng.standard_normal((4, 3, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1)
        assert out.shape == (2, 4, 6, 6)
        ref = sum(signal.correlate2d(np.pad(x[0, c], 1), w[1, c], mode="valid")
                  for c in range(3))
        np.testing.assert_allclose(out.data[0, 1], ref, atol=1e-10)

    def test_stride_and_padding_shapes(self):
        x = Tensor(self.rng.standard_normal((1, 2, 9, 9)))
        w = Tensor(self.rng.standard_normal((5, 2, 3, 3)))
        assert F.conv2d(x, w, stride=2, padding=1).shape == (1, 5, 5, 5)

    def test_dilation_shape(self):
        x = Tensor(self.rng.standard_normal((1, 1, 9, 9)))
        w = Tensor(self.rng.standard_normal((1, 1, 3, 3)))
        # effective kernel 5 -> out 9 with pad 2
        assert F.conv2d(x, w, padding=2, dilation=2).shape == (1, 1, 9, 9)

    def test_grouped_conv_is_blockwise(self):
        x = self.rng.standard_normal((1, 4, 5, 5))
        w = self.rng.standard_normal((4, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1, groups=2)
        # First 2 output channels only see first 2 input channels.
        ref = F.conv2d(Tensor(x[:, :2]), Tensor(w[:2]), padding=1)
        np.testing.assert_allclose(out.data[:, :2], ref.data, atol=1e-10)

    def test_depthwise_conv(self):
        x = self.rng.standard_normal((2, 3, 6, 6))
        w = self.rng.standard_normal((3, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), padding=1, groups=3)
        ref = signal.correlate2d(np.pad(x[0, 2], 1), w[2, 0], mode="valid")
        np.testing.assert_allclose(out.data[0, 2], ref, atol=1e-10)

    def test_bias_added_per_channel(self):
        x = Tensor(np.zeros((1, 1, 4, 4)))
        w = Tensor(np.zeros((2, 1, 3, 3)))
        b = Tensor(np.array([1.0, -2.0]))
        out = F.conv2d(x, w, b, padding=1)
        np.testing.assert_allclose(out.data[0, 0], 1.0)
        np.testing.assert_allclose(out.data[0, 1], -2.0)

    def test_grad_x_numeric(self):
        x = self.rng.standard_normal((1, 2, 5, 5))
        w = self.rng.standard_normal((3, 2, 3, 3))
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        bt = Tensor(np.zeros(3), requires_grad=True)
        F.conv2d(xt, wt, bt, stride=2, padding=1).sum().backward()
        num = numeric_grad(
            lambda a: F.conv2d(Tensor(a), Tensor(w), stride=2, padding=1).data.sum(),
            x.copy())
        np.testing.assert_allclose(xt.grad, num, atol=1e-5)
        num_w = numeric_grad(
            lambda a: F.conv2d(Tensor(x), Tensor(a), stride=2, padding=1).data.sum(),
            w.copy())
        np.testing.assert_allclose(wt.grad, num_w, atol=1e-5)
        np.testing.assert_allclose(bt.grad, np.full(3, 9.0), atol=1e-8)

    def test_grouped_grad_numeric(self):
        x = self.rng.standard_normal((1, 4, 4, 4))
        w = self.rng.standard_normal((4, 2, 3, 3))
        xt = Tensor(x.copy(), requires_grad=True)
        F.conv2d(xt, Tensor(w), padding=1, groups=2).sum().backward()
        num = numeric_grad(
            lambda a: F.conv2d(Tensor(a), Tensor(w), padding=1, groups=2).data.sum(),
            x.copy())
        np.testing.assert_allclose(xt.grad, num, atol=1e-5)


def _gather_im2col(x, kh, kw, stride, pad, dilation=1, pad_value=0.0,
                   out_hw=None):
    """Reference unfold: the fancy-index gather im2col was built on."""
    n, c, h, w = x.shape
    if out_hw is None:
        oh = (h + 2 * pad - dilation * (kh - 1) - 1) // stride + 1
        ow = (w + 2 * pad - dilation * (kw - 1) - 1) // stride + 1
    else:
        oh, ow = out_hw
    pad_b = max(0, (oh - 1) * stride + dilation * (kh - 1) + 1 - (h + pad))
    pad_r = max(0, (ow - 1) * stride + dilation * (kw - 1) + 1 - (w + pad))
    xp = x
    if pad or pad_b or pad_r:
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad_b), (pad, pad_r)),
                    constant_values=pad_value)
    rows = (np.repeat(np.arange(kh) * dilation, kw)[:, None]
            + stride * np.repeat(np.arange(oh), ow)[None, :])
    cols = (np.tile(np.arange(kw) * dilation, kh)[:, None]
            + stride * np.tile(np.arange(ow), oh)[None, :])
    return xp[:, :, rows, cols].reshape(n, c * kh * kw, oh * ow)


def _assert_same_array(got, want, layout=True):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    if layout:
        assert got.strides == want.strides


class TestIm2col:
    """The strided-window im2col is the gather, value and layout."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
    def test_matches_gather_over_geometry_grid(self, k, dtype):
        x = np.random.default_rng(k).standard_normal((2, 3, 15, 17))
        x = x.astype(dtype)
        for stride in (1, 2, 3):
            for pad in (0, 1, 3):
                for dilation in (1, 2):
                    for pad_value in (0.0, -np.inf):
                        got, meta = F.im2col(x, k, k, stride, pad, dilation,
                                             pad_value)
                        want = _gather_im2col(x, k, k, stride, pad,
                                              dilation, pad_value)
                        _assert_same_array(got, want)
                        assert meta[6] * meta[7] == want.shape[2]

    @pytest.mark.parametrize("k", [2, 3])
    def test_ceil_mode_overrun_windows(self, k):
        x = np.random.default_rng(0).standard_normal((2, 3, 15, 16))
        overrun = False
        for stride in (2, 3):
            for pad in (0, 1):
                out_hw = (F.pool_output_size(15, k, stride, pad, True),
                          F.pool_output_size(16, k, stride, pad, True))
                got, meta = F.im2col(x, k, k, stride, pad,
                                     pad_value=-np.inf, out_hw=out_hw)
                want = _gather_im2col(x, k, k, stride, pad,
                                      pad_value=-np.inf, out_hw=out_hw)
                _assert_same_array(got, want)
                assert meta[6:8] == out_hw
                overrun |= meta[8] > 0 or meta[9] > 0
        assert overrun

    def test_columns_never_alias_the_input(self):
        # A kernel covering the whole map could come back as a view.
        x = np.random.default_rng(0).standard_normal((2, 3, 3, 3))
        got, _ = F.im2col(x, 3, 3, 1, 0)
        assert not np.shares_memory(got, x)
        _assert_same_array(got, _gather_im2col(x, 3, 3, 1, 0))

    def test_map_smaller_than_kernel_gives_empty_columns(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 2, 2))
        got, meta = F.im2col(x, 3, 3, 1, 0)
        _assert_same_array(got, _gather_im2col(x, 3, 3, 1, 0))
        assert got.shape == (2, 27, 0) and meta[6] == 0

    @pytest.mark.parametrize("k,stride,pad", [(3, 1, 1), (3, 2, 1), (5, 2, 2),
                                              (1, 1, 0), (1, 2, 0)])
    @pytest.mark.parametrize("groups", [2, 4])
    def test_grouped_columns_match_per_group_gather(self, k, stride, pad,
                                                    groups):
        x = np.random.default_rng(1).standard_normal((2, 8, 11, 9))
        cols, meta = F._conv_cols_grouped(x, groups, k, k, stride, pad, 1)
        xg = x.reshape(2, groups, 8 // groups, 11, 9)
        assert len(cols) == groups
        for g in range(groups):
            want, want_meta = F._conv_cols(xg[:, g], k, k, stride, pad, 1)
            if k > 1:
                _assert_same_array(
                    want, _gather_im2col(xg[:, g], k, k, stride, pad))
            _assert_same_array(cols[g], want)
            assert meta == want_meta

    def test_single_channel_layout_feeds_identical_products(self):
        """On a single-channel map with several images NumPy's gather
        puts the batch axis innermost; the window copy is C-order.  Every
        consumer contracts through a copying GEMM, so the products —
        depthwise conv forward, weight gradient, backend batched matmul —
        are the same bits either way."""
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 1, 9, 9))
        got, _ = F.im2col(x, 3, 3, 1, 1)
        want = _gather_im2col(x, 3, 3, 1, 1)
        _assert_same_array(got, want, layout=False)
        assert got.flags.c_contiguous
        w = rng.standard_normal((2, 9))
        g = rng.standard_normal((4, 2, 81))
        for spec, a in (("of,nfp->nop", w), ("nop,nfp->of", g)):
            np.testing.assert_array_equal(
                np.einsum(spec, a, got, optimize=True),
                np.einsum(spec, a, want, optimize=True))
        np.testing.assert_array_equal(w @ got, w @ want)

    def test_depthwise_conv_matches_per_group_gather(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 10, 10))
        w = rng.standard_normal((4, 1, 3, 3))
        xt = Tensor(x, requires_grad=True)
        wt = Tensor(w, requires_grad=True)
        out = F.conv2d(xt, wt, padding=1, groups=4)
        want = np.empty((3, 4, 100))
        for g in range(4):
            cols = _gather_im2col(x[:, g:g + 1], 3, 3, 1, 1)
            want[:, g] = np.einsum("of,nfp->nop", w[g].reshape(1, -1), cols,
                                   optimize=True)[:, 0]
        np.testing.assert_array_equal(out.data, want.reshape(3, 4, 10, 10))
        out.sum().backward()
        gw = np.stack([np.einsum("nop,nfp->of", np.ones((3, 1, 100)),
                                 _gather_im2col(x[:, g:g + 1], 3, 3, 1, 1),
                                 optimize=True) for g in range(4)])
        np.testing.assert_array_equal(wt.grad, gw.reshape(w.shape))


def _window_reduce_max_pool(x, k, stride, pad, ceil_mode=False):
    """Reference max-pool: the window-view reduce the fast path replaced."""
    n, c, h, w = x.shape
    oh = F.pool_output_size(h, k, stride, pad, ceil_mode)
    ow = F.pool_output_size(w, k, stride, pad, ceil_mode)
    pad_b = max(0, (oh - 1) * stride + k - (h + pad))
    pad_r = max(0, (ow - 1) * stride + k - (w + pad))
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad_b), (pad, pad_r)),
                constant_values=-np.inf)
    view = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))
    view = view[:, :, :(oh - 1) * stride + 1:stride,
                :(ow - 1) * stride + 1:stride]
    return view.max(axis=(-2, -1))


def _special_values_map(shape, dtype, seed):
    """Normal noise salted with +0.0, -0.0, +inf, -inf and NaN."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    pick = rng.random(shape)
    for lo, hi, value in ((0.0, 0.2, 0.0), (0.2, 0.4, -0.0),
                          (0.4, 0.43, np.inf), (0.43, 0.46, -np.inf),
                          (0.46, 0.48, np.nan)):
        x[(pick >= lo) & (pick < hi)] = value
    return x.astype(dtype)


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    uint = np.dtype(f"u{got.itemsize}")
    np.testing.assert_array_equal(got.view(uint), want.view(uint))


class TestMaxPoolKernel:
    """The strided-maximum max-pool is the window-view reduce, to the bit."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_matches_window_reduce_over_geometry_grid(self, k, dtype):
        from repro.backend import ops
        from repro.nn import no_grad
        x = _special_values_map((2, 3, 11, 13), dtype, seed=k)
        seen = np.zeros(4, dtype=bool)        # -0.0, +0.0, NaN, +inf outputs
        for stride in (1, 2, 3):
            for pad in (0, 1, 2):
                for ceil_mode in (False, True):
                    want = _window_reduce_max_pool(x, k, stride, pad,
                                                   ceil_mode)
                    got = [F.max_pool2d_array(x, k, stride, pad, ceil_mode),
                           ops.max_pool2d(x, k, stride, pad, ceil_mode)]
                    if dtype == np.float64:
                        with no_grad():
                            got.append(F.max_pool2d(
                                Tensor(x), k, stride, pad,
                                ceil_mode=ceil_mode).data)
                    for out in got:
                        _assert_same_bits(out, want)
                        assert not np.shares_memory(out, x)
                    zero = want == 0
                    seen |= [(zero & np.signbit(want)).any(),
                             (zero & ~np.signbit(want)).any(),
                             np.isnan(want).any(), np.isposinf(want).any()]
        assert seen.all()                     # the special values reached out

    def test_map_smaller_than_window_raises(self):
        with pytest.raises(ValueError):
            F.max_pool2d_array(np.zeros((1, 1, 2, 2)), 3, 1, 0)

    def test_grad_path_keeps_the_argmax_lowering(self):
        x = _special_values_map((2, 3, 9, 9), np.float64, seed=0)
        x[np.isnan(x)] = 1.0
        for ceil_mode in (False, True):
            out = F.max_pool2d(Tensor(x, requires_grad=True), 3, 2, 1,
                               ceil_mode=ceil_mode)
            np.testing.assert_array_equal(
                out.data, _window_reduce_max_pool(x, 3, 2, 1, ceil_mode))


class TestMaxPoolNetworks:
    """Max-pool networks run the same bits with the window reduce swapped
    back in, and the compiled plan stays equal to the interpreter."""

    @staticmethod
    def _nets():
        import repro.nn as nn
        from repro.detection.backbone import DetBackbone
        from repro.models import create_model
        nets = {"resnet18x0.25": create_model("resnet18x0.25", num_classes=5,
                                              seed=0)}
        for name in ("resnet-34", "resnet-50"):
            bb = DetBackbone(name, seed=0)
            nets[name] = nn.Sequential(bb.stem, nn.ReLU(), bb.pool,
                                       bb.stage1, bb.stage2)
        for net in nets.values():
            net.eval()
        return nets

    @pytest.mark.parametrize("ceil_mode", [False, True])
    def test_module_plan_and_interpreter_match_the_window_reduce(
            self, ceil_mode, monkeypatch):
        import repro.nn as nn
        from repro.backend import (BACKEND_PRESETS, DeploymentExecutor,
                                   ReferenceExecutor, export_module, ops)
        from repro.nn import no_grad
        x = np.random.default_rng(5).standard_normal((3, 3, 33, 33))
        executors = [ReferenceExecutor()] + [
            DeploymentExecutor(BACKEND_PRESETS[name])
            for name in ("gpu-fp16", "dsp")]

        def run_all(nets):
            outs = {}
            for name, net in nets.items():
                with no_grad():
                    outs[name, "module"] = net(Tensor(x)).data
                graph = export_module(net, name)
                for i, ex in enumerate(executors):
                    outs[name, i] = ex.run(graph, x)
                    np.testing.assert_array_equal(ex.compile(graph).run(x),
                                                  outs[name, i])
            return outs

        nets = self._nets()
        for net in nets.values():
            for mod in net.modules():
                if isinstance(mod, nn.MaxPool2d):
                    mod.ceil_mode = ceil_mode
        fast = run_all(nets)
        monkeypatch.setattr(F, "max_pool2d_array", _window_reduce_max_pool)
        monkeypatch.setattr(ops, "max_pool2d_array", _window_reduce_max_pool)
        reduced = run_all(nets)
        assert fast.keys() == reduced.keys()
        for key, out in fast.items():
            want = reduced[key]
            assert out.dtype == want.dtype and out.shape == want.shape
            assert out.strides == want.strides
            uint = np.dtype(f"u{out.itemsize}")
            np.testing.assert_array_equal(out.view(uint), want.view(uint))


class TestPooling:
    def test_pool_output_size_floor_vs_ceil(self):
        # Paper Eq. 8: 6-wide map, k=3, s=2, p=0 -> floor 2, ceil 3
        assert F.pool_output_size(6, 3, 2, 0, ceil_mode=False) == 2
        assert F.pool_output_size(6, 3, 2, 0, ceil_mode=True) == 3
        # Exact division: both modes agree.
        assert F.pool_output_size(7, 3, 2, 0, ceil_mode=False) == 3
        assert F.pool_output_size(7, 3, 2, 0, ceil_mode=True) == 3

    def test_ceil_mode_window_not_fully_in_padding(self):
        # PyTorch rule: final window must start before size+pad.
        assert F.pool_output_size(4, 2, 2, 0, ceil_mode=True) == 2

    def test_maxpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), 2, 2)
        np.testing.assert_array_equal(out.data[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_ceil_changes_shape_and_appends_border(self):
        x = np.arange(25.0).reshape(1, 1, 5, 5)
        floor_out = F.max_pool2d(Tensor(x), 2, 2, ceil_mode=False)
        ceil_out = F.max_pool2d(Tensor(x), 2, 2, ceil_mode=True)
        assert floor_out.shape == (1, 1, 2, 2)
        assert ceil_out.shape == (1, 1, 3, 3)
        # Interior agrees; ceil adds the off-edge windows.
        np.testing.assert_array_equal(ceil_out.data[0, 0, :2, :2],
                                      floor_out.data[0, 0])
        assert ceil_out.data[0, 0, 2, 2] == 24.0

    def test_maxpool_grad_is_indicator(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4), requires_grad=True)
        F.max_pool2d(x, 2, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_array_equal(x.grad[0, 0], expected)

    def test_maxpool_padding(self):
        x = np.full((1, 1, 4, 4), -5.0)
        out = F.max_pool2d(Tensor(x), 3, 2, padding=1)
        # padding is -inf, so outputs equal the max of real values
        assert (out.data == -5.0).all()

    def test_avgpool_values(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.avg_pool2d(Tensor(x), 2, 2)
        np.testing.assert_allclose(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_excludes_padding_from_divisor(self):
        x = np.ones((1, 1, 2, 2))
        out = F.avg_pool2d(Tensor(x), 2, 2, padding=1, ceil_mode=False)
        # Every window has exactly one real pixel; mean must still be 1.
        np.testing.assert_allclose(out.data, 1.0)

    def test_avgpool_grad(self):
        x = Tensor(np.ones((1, 1, 4, 4)), requires_grad=True)
        F.avg_pool2d(x, 2, 2).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 1, 4, 4), 0.25))

    def test_global_avg_pool(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2))
        out = F.global_avg_pool2d(x)
        np.testing.assert_allclose(out.data, [[1.5, 5.5]])


class TestUpsample:
    def test_nearest_2x(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = F.upsample2d(x, scale_factor=2, mode="nearest")
        np.testing.assert_array_equal(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_bilinear_2x_differs_from_nearest(self):
        x = Tensor(np.array([[[[0.0, 1.0], [2.0, 3.0]]]]))
        near = F.upsample2d(x, scale_factor=2, mode="nearest")
        bil = F.upsample2d(x, scale_factor=2, mode="bilinear")
        assert not np.allclose(near.data, bil.data)

    def test_bilinear_preserves_constant(self):
        x = Tensor(np.full((1, 1, 3, 3), 7.0))
        out = F.upsample2d(x, size=(7, 7), mode="bilinear")
        np.testing.assert_allclose(out.data, 7.0)

    def test_bilinear_align_corners_endpoints(self):
        x = Tensor(np.array([[[[0.0, 3.0]]]]))
        out = F.upsample2d(x, size=(1, 4), mode="bilinear", align_corners=True)
        np.testing.assert_allclose(out.data[0, 0, 0], [0, 1, 2, 3])

    def test_downsample_nearest(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        out = F.upsample2d(x, size=(2, 2), mode="nearest")
        assert out.shape == (1, 1, 2, 2)

    def test_upsample_grad_adjoint(self):
        # <M x, y> == <x, M^T y> for random x, y
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 1, 3, 5))
        y = rng.standard_normal((1, 1, 7, 9))
        xt = Tensor(x, requires_grad=True)
        out = F.upsample2d(xt, size=(7, 9), mode="bilinear")
        (out * Tensor(y)).sum().backward()
        lhs = (out.data * y).sum()
        rhs = (xt.grad * x).sum()
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10)

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            F.upsample2d(Tensor(np.ones((1, 1, 2, 2))), scale_factor=2,
                         mode="trilinear")


class TestNormsSoftmax:
    def setup_method(self):
        self.rng = np.random.default_rng(4)

    def test_batchnorm_train_normalises(self):
        x = Tensor(self.rng.standard_normal((8, 3, 4, 4)) * 5 + 2)
        gamma = Tensor(np.ones(3), requires_grad=True)
        beta = Tensor(np.zeros(3), requires_grad=True)
        rm, rv = np.zeros(3), np.ones(3)
        out = F.batch_norm(x, gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)), 0, atol=1e-8)
        np.testing.assert_allclose(out.data.std(axis=(0, 2, 3)), 1, atol=1e-3)

    def test_batchnorm_updates_running_stats(self):
        x = Tensor(np.full((4, 2, 2, 2), 10.0))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm(x, Tensor(np.ones(2)), Tensor(np.zeros(2)), rm, rv,
                     training=True, momentum=0.5)
        np.testing.assert_allclose(rm, [5.0, 5.0])

    def test_batchnorm_eval_uses_running_stats(self):
        x = Tensor(np.ones((2, 1, 2, 2)) * 4.0)
        rm, rv = np.array([2.0]), np.array([4.0])
        out = F.batch_norm(x, Tensor(np.ones(1)), Tensor(np.zeros(1)), rm, rv,
                           training=False)
        np.testing.assert_allclose(out.data, (4 - 2) / np.sqrt(4 + 1e-5), rtol=1e-4)

    def test_layernorm_normalises_last_dim(self):
        x = Tensor(self.rng.standard_normal((5, 16)) * 3 + 1)
        out = F.layer_norm(x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.data.mean(axis=-1), 0, atol=1e-8)

    def test_softmax_rows_sum_to_one(self):
        x = Tensor(self.rng.standard_normal((4, 10)) * 50)
        out = F.softmax(x)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=1e-12)
        assert (out.data >= 0).all()

    def test_log_softmax_consistency(self):
        x = Tensor(self.rng.standard_normal((3, 7)))
        np.testing.assert_allclose(F.log_softmax(x).data,
                                   np.log(F.softmax(x).data), atol=1e-10)

    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor(np.array([[100.0, 0.0], [0.0, 100.0]]))
        loss = F.cross_entropy(logits, np.array([0, 1]))
        assert loss.item() < 1e-6

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((2, 4)))
        loss = F.cross_entropy(logits, np.array([0, 3]))
        np.testing.assert_allclose(loss.item(), np.log(4), rtol=1e-10)

    def test_cross_entropy_grad_numeric(self):
        x = self.rng.standard_normal((3, 5))
        y = np.array([0, 2, 4])
        xt = Tensor(x.copy(), requires_grad=True)
        F.cross_entropy(xt, y).backward()
        num = numeric_grad(lambda a: F.cross_entropy(Tensor(a), y).item(), x.copy())
        np.testing.assert_allclose(xt.grad, num, atol=1e-6)

    def test_label_smoothing_increases_loss_on_confident(self):
        logits = Tensor(np.array([[50.0, 0.0]]))
        plain = F.cross_entropy(logits, np.array([0]))
        smooth = F.cross_entropy(logits, np.array([0]), label_smoothing=0.1)
        assert smooth.item() > plain.item()

    def test_embedding_lookup_and_grad(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = F.embedding(table, np.array([1, 1, 3]))
        np.testing.assert_array_equal(out.data[0], [3, 4, 5])
        out.sum().backward()
        np.testing.assert_array_equal(table.grad[1], [2, 2, 2])
        np.testing.assert_array_equal(table.grad[0], [0, 0, 0])

    def test_dropout_eval_identity(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_array_equal(out.data, x.data)

    def test_dropout_train_scales(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((100, 100)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        vals = np.unique(out.data)
        assert set(vals).issubset({0.0, 2.0})
        np.testing.assert_allclose(out.data.mean(), 1.0, atol=0.05)
