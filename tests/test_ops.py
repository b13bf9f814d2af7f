"""Layer primitives against loop-based oracles."""

import numpy as np
import pytest

from fisherprune import ops
from fisherprune.errors import ConfigurationError, DimensionError
from fisherprune.network import LayerSpec, Network

import oracles


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestConvForward:
    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 0), (2, 1)])
    def test_matches_loop_oracle(self, rng, stride, pad):
        x = rng.standard_normal((3, 9, 8)).astype(np.float32)
        k = rng.standard_normal((4, 3, 3, 3)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        got = ops.conv2d_forward(x, k, b, stride=stride, pad=pad)
        want = oracles.conv2d_loops(x, k, b, stride=stride, pad=pad)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

    def test_1x1_kernel(self, rng):
        x = rng.standard_normal((2, 5, 5)).astype(np.float32)
        k = rng.standard_normal((3, 2, 1, 1)).astype(np.float32)
        b = np.zeros(3, dtype=np.float32)
        got = ops.conv2d_forward(x, k, b)
        want = oracles.conv2d_loops(x, k, b)
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-6)

    def test_channel_mismatch_rejected(self, rng):
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        k = rng.standard_normal((2, 4, 3, 3)).astype(np.float32)
        with pytest.raises(DimensionError):
            ops.conv2d_forward(x, k, np.zeros(2, dtype=np.float32))

    def test_bias_mismatch_rejected(self, rng):
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        k = rng.standard_normal((2, 3, 3, 3)).astype(np.float32)
        with pytest.raises(DimensionError):
            ops.conv2d_forward(x, k, np.zeros(5, dtype=np.float32))

    def test_kernel_larger_than_input_rejected(self, rng):
        x = rng.standard_normal((1, 4, 4)).astype(np.float32)
        k = rng.standard_normal((1, 1, 6, 6)).astype(np.float32)
        with pytest.raises(ConfigurationError):
            ops.conv2d_forward(x, k, np.zeros(1, dtype=np.float32))

    @pytest.mark.parametrize("shape", [(1, 0, 4), (1, -1, 4), (0, 4, 4),
                                       (1, 4, 0)])
    def test_input_extent_below_one_rejected(self, shape):
        # a pad-2 3x3 conv would otherwise map (1, 0, 4) to a (2, 2, 6) map
        k = np.ones((2, max(shape[0], 1), 3, 3), dtype=np.float32)
        with pytest.raises(DimensionError, match="extents must be >= 1"):
            ops.conv_shape(shape, k.shape, 1, 2)
        if min(shape) == 0:
            with pytest.raises(DimensionError, match="extents must be >= 1"):
                ops.conv2d_forward(np.zeros(shape, dtype=np.float32), k,
                                   np.ones(2, dtype=np.float32), pad=2)

    def test_bad_stride_rejected(self, rng):
        x = rng.standard_normal((1, 4, 4)).astype(np.float32)
        k = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
        with pytest.raises(ConfigurationError):
            ops.conv2d_forward(x, k, np.zeros(1, dtype=np.float32), stride=0)


class TestConvAdjoint:
    def test_inner_product_identity(self, rng):
        """<conv(x), g> must equal <x, adjoint(g)> for random tensors."""
        for stride, pad in [(1, 0), (1, 1), (2, 1)]:
            x = rng.standard_normal((3, 8, 8))
            k = rng.standard_normal((5, 3, 3, 3))
            b = np.zeros(5)
            y = ops.conv2d_forward(x.astype(np.float32), k, b,
                                   stride=stride, pad=pad)
            g = rng.standard_normal(y.shape)
            gx = ops.conv2d_adjoint(g, k, stride=stride, pad=pad,
                                    out_hw=(8, 8))
            lhs = float(np.sum(y.astype(np.float64) * g))
            rhs = float(np.sum(x * gx))
            assert abs(lhs - rhs) <= 1e-4 * (abs(lhs) + 1.0)

    def test_stride2_pad1_dropped_row_matches_loop_oracles(self, rng):
        # H=8: (8 + 2 - 3) / 2 floors, so the adjoint needs out_hw to get
        # back to 8 rows; W=7 divides exactly
        x = rng.standard_normal((2, 8, 7))
        k = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal(3)
        y = ops.conv2d_forward(x, k, b, stride=2, pad=1)
        np.testing.assert_allclose(
            y, oracles.conv2d_loops(x, k, b, stride=2, pad=1),
            rtol=1e-12, atol=1e-12)
        g = rng.standard_normal(y.shape)
        gx = ops.conv2d_adjoint(g, k, stride=2, pad=1, out_hw=(8, 7))
        want = oracles.conv2d_adjoint_loops(g, k, 8, 7, stride=2, pad=1)
        assert gx.shape == want.shape == (2, 8, 7)
        np.testing.assert_allclose(gx, want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (1, 1), (2, 1)])
    def test_param_grads_match_loop_oracle(self, rng, stride, pad):
        x = rng.standard_normal((2, 8, 7))
        oh, ow = ops.conv_output_hw(8, 7, 3, 3, stride, pad)
        g = rng.standard_normal((3, oh, ow))
        dw, db = ops.conv2d_param_grads(x, g, 3, 3, stride=stride, pad=pad)
        want = oracles.conv2d_weight_grad_loops(x, g, 3, 3, stride=stride, pad=pad)
        np.testing.assert_allclose(dw, want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(db, g.sum(axis=(1, 2)), rtol=1e-12)

    def test_param_grads_reject_a_gradient_of_the_wrong_extent(self, rng):
        x = rng.standard_normal((2, 6, 6))
        for bad in [(3, 4, 3), (3, 3, 4), (3, 16)]:
            with pytest.raises(DimensionError, match="gradient must be"):
                ops.conv2d_param_grads(x, np.ones(bad), 3, 3, stride=1, pad=0)

    def test_param_grads_shapes(self, rng):
        x = rng.standard_normal((2, 6, 6))
        g = rng.standard_normal((3, 4, 4))
        dw, db = ops.conv2d_param_grads(x, g, 3, 3, stride=1, pad=0)
        assert dw.shape == (3, 2, 3, 3)
        assert db.shape == (3,)
        np.testing.assert_allclose(db, g.sum(axis=(1, 2)))


KERNELS = [(1, 1), (3, 3), (5, 5), (2, 3)]
EXTENTS = [(5, 7), (6, 5), (7, 8), (8, 6), (9, 11)]


def geometries(stride, kh, kw):
    """(pad, h, w) from pad 0 up past the kernel over odd, non-square extents.

    At stride 1 every last window ends on the padded grid's last row; at
    larger strides some extents end there and the rest drop trailing rows.
    """
    for pad in sorted({0, 1, 2, max(kh, kw), max(kh, kw) + 1}):
        for h, w in EXTENTS:
            if h + 2 * pad >= kh and w + 2 * pad >= kw:
                yield pad, h, w


def assert_reference_close(got, want):
    """rtol 1e-12, relative to the entry or, where terms cancel, to the array."""
    scale = float(np.abs(want).max()) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)


class TestRowRunKernelsMatchIm2col:
    """The row-run kernels against the channel-major im2col / col2im ones."""

    def test_grid_covers_windows_ending_on_the_last_row(self):
        for stride in (2, 3):
            for kh, kw in KERNELS:
                ends = {(h + 2 * pad - kh) % stride == 0
                        for pad, h, _ in geometries(stride, kh, kw)}
                assert ends == {True, False}

    @pytest.mark.parametrize("kh,kw", KERNELS)
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_forward(self, rng, stride, kh, kw):
        for pad, h, w in geometries(stride, kh, kw):
            x = rng.standard_normal((3, h, w))
            k = rng.standard_normal((4, 3, kh, kw))
            b = rng.standard_normal(4)
            got = ops.conv2d_forward(x, k, b, stride=stride, pad=pad)
            want = oracles.conv2d_im2col(x, k, b, stride=stride, pad=pad)
            assert got.shape == want.shape
            assert_reference_close(got, want)

    @pytest.mark.parametrize("kh,kw", KERNELS)
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_param_grads(self, rng, stride, kh, kw):
        for pad, h, w in geometries(stride, kh, kw):
            x = rng.standard_normal((3, h, w))
            oh, ow = ops.conv_output_hw(h, w, kh, kw, stride, pad)
            g = rng.standard_normal((4, oh, ow))
            dw, db = ops.conv2d_param_grads(x, g, kh, kw, stride=stride, pad=pad)
            want_dw, want_db = oracles.conv2d_param_grads_im2col(
                x, g, kh, kw, stride=stride, pad=pad)
            assert dw.shape == want_dw.shape
            assert_reference_close(dw, want_dw)
            assert_reference_close(db, want_db)

    @pytest.mark.parametrize("kh,kw", KERNELS)
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_adjoint(self, rng, stride, kh, kw):
        for pad, h, w in geometries(stride, kh, kw):
            k = rng.standard_normal((4, 3, kh, kw))
            oh, ow = ops.conv_output_hw(h, w, kh, kw, stride, pad)
            g = rng.standard_normal((4, oh, ow))
            got = ops.conv2d_adjoint(g, k, stride=stride, pad=pad, out_hw=(h, w))
            want = oracles.conv2d_adjoint_col2im(g, k, h, w, stride=stride, pad=pad)
            assert got.shape == want.shape == (3, h, w)
            assert_reference_close(got, want)

    def test_single_channel_adjoint_and_default_extent(self, rng):
        # C=1 (the first conv of every net), out to the largest extent the
        # signal fits
        k = rng.standard_normal((5, 1, 3, 3))
        g = rng.standard_normal((5, 6, 4))
        got = ops.conv2d_adjoint(g, k, stride=2, pad=1, out_hw=(11, 7))
        want = oracles.conv2d_adjoint_col2im(g, k, 11, 7, stride=2, pad=1)
        assert got.shape == (1, 11, 7)
        assert_reference_close(got, want)

    def test_non_contiguous_inputs(self, rng):
        base = rng.standard_normal((3, 14, 9))
        x = base[:, ::-2, :]  # (3, 7, 9), negative row stride
        k = rng.standard_normal((2, 3, 3, 3))
        b = rng.standard_normal(2)
        got = ops.conv2d_forward(x, k, b, stride=2, pad=1)
        assert_reference_close(got, oracles.conv2d_im2col(x, k, b, stride=2, pad=1))
        g = rng.standard_normal((2, 8, 5))[:, ::2, :]  # (2, 4, 5)
        dw, db = ops.conv2d_param_grads(x, g, 3, 3, stride=2, pad=1)
        want_dw, want_db = oracles.conv2d_param_grads_im2col(
            x, g, 3, 3, stride=2, pad=1)
        assert_reference_close(dw, want_dw)
        assert_reference_close(db, want_db)
        gx = ops.conv2d_adjoint(g, k[:, :, ::-1], stride=2, pad=1, out_hw=(7, 9))
        assert_reference_close(
            gx, oracles.conv2d_adjoint_col2im(g, k[:, :, ::-1], 7, 9, stride=2, pad=1))

    def test_float32_in_float32_out(self, rng):
        """float32 inputs accumulate in float32: each kernel matches its own
        float64 result on the same values within a float32 tolerance."""
        cases = [(stride, kh, kw, pad, h, w) for stride in (1, 2, 3)
                 for kh, kw in KERNELS
                 for pad, h, w in geometries(stride, kh, kw)]
        for stride, kh, kw, pad, h, w in cases:
            x = rng.standard_normal((3, h, w)).astype(np.float32)
            k = rng.standard_normal((4, 3, kh, kw)).astype(np.float32)
            b = rng.standard_normal(4).astype(np.float32)
            oh, ow = ops.conv_output_hw(h, w, kh, kw, stride, pad)
            g = rng.standard_normal((4, oh, ow)).astype(np.float32)
            for run in (
                lambda x, k, b, g: [ops.conv2d_forward(x, k, b, stride, pad)],
                lambda x, k, b, g: [ops.conv2d_adjoint(g, k, stride, pad,
                                                       out_hw=(h, w))],
                lambda x, k, b, g: ops.conv2d_param_grads(x, g, kh, kw,
                                                          stride, pad),
            ):
                wide = run(*(a.astype(np.float64) for a in (x, k, b, g)))
                for got, want in zip(run(x, k, b, g), wide):
                    assert_float32_close(got, want)

    @pytest.mark.parametrize("c,o", [(3, 4), (1, 4), (3, 1)])
    def test_weight_grad_matches_the_spread_formula(self, rng, c, o):
        """dw as (cols @ spread.T).T against spread @ cols.T, the formula it
        replaced, run in float64 on the same float32 values."""
        cases = [(stride, kh, kw, pad, h, w) for stride in (1, 2, 3)
                 for kh, kw in KERNELS
                 for pad, h, w in geometries(stride, kh, kw)]
        for stride, kh, kw, pad, h, w in cases:
            x = rng.standard_normal((c, h, w)).astype(np.float32)
            oh, ow = ops.conv_output_hw(h, w, kh, kw, stride, pad)
            g = rng.standard_normal((o, oh, ow)).astype(np.float32)
            dw, _ = ops.conv2d_param_grads(x, g, kh, kw, stride, pad)
            want = oracles.conv2d_weight_grad_spread(
                x.astype(np.float64), g.astype(np.float64), kh, kw, stride, pad)
            assert_float32_close(dw, want)

    def test_float32_dense(self, rng):
        for m, n in [(1, 1), (2, 7), (64, 512)]:
            x = rng.standard_normal(n).astype(np.float32)
            w = rng.standard_normal((m, n)).astype(np.float32)
            b = rng.standard_normal(m).astype(np.float32)
            assert_float32_close(
                ops.dense_forward(x, w, b),
                ops.dense_forward(*(a.astype(np.float64) for a in (x, w, b))))


def assert_float32_close(got, want, tol=1e-6):
    """got is float32 and within tol of float64 want, relative to the
    entry or, where terms cancel, to the array; want stays float64."""
    assert got.dtype == np.float32 and want.dtype == np.float64
    assert got.shape == want.shape
    scale = float(np.abs(want).max()) if want.size else 0.0
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * scale)


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.bool_])
def test_kernels_refuse_non_float_inputs(dtype):
    """An int, half or bool map would set an int or half-precision GEMM."""
    x = np.ones((2, 5, 5), dtype)
    k = np.ones((3, 2, 3, 3), np.float32)
    b = np.zeros(3, np.float32)
    g = np.ones((3, 3, 3), dtype)
    for run in (lambda: ops.conv2d_forward(x, k, b),
                lambda: ops.conv2d_adjoint(g, k, out_hw=(5, 5)),
                lambda: ops.conv2d_param_grads(x, g.astype(np.float32), 3, 3),
                lambda: ops.dense_forward(np.ones(4, dtype),
                                          np.ones((2, 4), np.float32),
                                          np.zeros(2, np.float32))):
        with pytest.raises(ConfigurationError, match="float32 or float64"):
            run()


class TestPooling:
    def test_matches_loop_oracle(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        got, sw = ops.maxpool_forward(x, window=2, stride=2)
        want, widx = oracles.maxpool_loops(x, window=2, stride=2)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(sw, widx)

    def test_tie_takes_first_occurrence(self):
        x = np.zeros((1, 2, 2), dtype=np.float32)
        _, sw = ops.maxpool_forward(x, window=2, stride=2)
        assert sw[0, 0, 0] == 0

    @pytest.mark.parametrize("shape,window,stride", [
        ((3, 8, 8), 2, 2),
        ((2, 7, 9), 2, 2),  # odd extents: trailing row and column dropped
        ((2, 9, 7), 3, 2),  # overlapping windows
        ((2, 6, 5), 3, 1),
        ((1, 5, 4), 1, 2),
    ])
    def test_ties_match_loop_oracle(self, rng, shape, window, stride):
        x = rng.integers(-1, 2, size=shape).astype(np.float32)  # dense ties
        got, sw = ops.maxpool_forward(x, window=window, stride=stride)
        want, widx = oracles.maxpool_loops(x, window=window, stride=stride)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(sw, widx)

    def test_nan_window_pools_to_its_first_nan(self):
        x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
        x[0, 1, 1] = np.nan  # last tap of window (0,0)
        x[0, 1, 2] = np.nan  # window (0,1) holds NaN at flat 6 and 3 ...
        x[0, 0, 3] = np.nan  # ... and 3 comes first in scan order
        x[0, 2, 2] = np.nan  # first tap of window (1,1)
        got, sw = ops.maxpool_forward(x, window=2, stride=2)
        np.testing.assert_array_equal(sw[0], [[5, 3], [13, 10]])
        np.testing.assert_array_equal(got[0], [[np.nan, np.nan],
                                               [13.0, np.nan]])

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (3, 1)])
    def test_nan_and_infinities_match_loop_oracle(self, rng, window, stride):
        x = rng.standard_normal((2, 9, 7)).astype(np.float32)
        x[rng.random(x.shape) < 0.15] = np.nan
        x[rng.random(x.shape) < 0.1] = -np.inf
        x[rng.random(x.shape) < 0.05] = np.inf
        got, sw = ops.maxpool_forward(x, window=window, stride=stride)
        want, widx = oracles.maxpool_loops(x, window=window, stride=stride)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(sw, widx)


    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (2, 1)])
    def test_non_contiguous_view_matches_loop_oracle(self, rng, window, stride):
        base = rng.integers(-2, 3, size=(9, 4, 11)).astype(np.float32)
        views = [base.transpose(1, 0, 2),  # (4, 9, 11), channel axis not outermost
                 base[::2, :, ::-1].transpose(1, 2, 0),  # (4, 11, 5), reversed
                 np.asfortranarray(base)]
        for x in views:
            got, sw = ops.maxpool_forward(x, window=window, stride=stride)
            want, widx = oracles.maxpool_loops(x, window=window, stride=stride)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(sw, widx)
            np.testing.assert_array_equal(x.ravel()[sw], got)

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (3, 1)])
    def test_mixed_infinities_match_loop_oracle(self, rng, window, stride):
        # no NaN anywhere: windows of all -inf, of +inf beside -inf, and ties
        x = rng.choice(np.array([-np.inf, np.inf, 0.0, 1.0], dtype=np.float32),
                       size=(3, 9, 8), p=[0.5, 0.2, 0.2, 0.1])
        x[0, :3, :3] = -np.inf
        got, sw = ops.maxpool_forward(x, window=window, stride=stride)
        want, widx = oracles.maxpool_loops(x, window=window, stride=stride)
        assert not np.isnan(got).any()
        assert got[0, 0, 0] == -np.inf
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(sw, widx)


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


class TestPoolExtents:
    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4), (2, 4, -1)])
    def test_input_extent_below_one_rejected(self, shape):
        with pytest.raises(DimensionError, match="extents must be >= 1"):
            ops.pool_shape(shape, 1, 1)
        if min(shape) == 0:
            with pytest.raises(DimensionError, match="extents must be >= 1"):
                ops.maxpool_forward(np.zeros(shape, dtype=np.float32), 1, 1)


class TestSwitchFreePool:
    """switches=False must pool to the same bits as reading the switches."""

    @pytest.mark.parametrize("window,stride", [(2, 2), (3, 2), (3, 1), (2, 1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_values_are_the_switch_reads_bit_for_bit(self, rng, window, stride,
                                                      dtype):
        # signed zeros tie often; a running max that let the later tap win a
        # tie would flip -0.0/+0.0 here
        values = np.array([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf], dtype=dtype)
        base = rng.choice(values, size=(5, 11, 9),
                          p=[0.3, 0.3, 0.15, 0.05, 0.1, 0.1])
        views = [base,
                 base.transpose(1, 0, 2),  # (11, 5, 9), channel axis not outermost
                 base[::2, ::-1, 1:],  # (3, 11, 8), reversed rows
                 np.asfortranarray(base)]
        for x in views:
            want, sw = ops.maxpool_forward(x, window=window, stride=stride)
            got, none = ops.maxpool_forward(x, window=window, stride=stride,
                                            switches=False)
            assert none is None
            assert got.dtype == x.dtype and got.shape == sw.shape
            read = np.ascontiguousarray(x).take(sw)
            nan = np.isnan(read)
            np.testing.assert_array_equal(np.isnan(got), nan)
            np.testing.assert_array_equal(_bits(got)[~nan], _bits(read)[~nan])
            np.testing.assert_array_equal(_bits(want)[~nan], _bits(read)[~nan])

    def test_first_signed_zero_wins(self):
        x = np.array([[[0.0, -0.0], [-0.0, -0.0]]], dtype=np.float32)
        for switches in (True, False):
            got, _ = ops.maxpool_forward(x, 1, 1, switches=switches)
            np.testing.assert_array_equal(np.signbit(got), np.signbit(x))
            got, _ = ops.maxpool_forward(x, 2, 1, switches=switches)
            assert not np.signbit(got[0, 0, 0])
            got, _ = ops.maxpool_forward(-x, 2, 1, switches=switches)
            assert np.signbit(got[0, 0, 0])  # -0.0 comes first here

    def test_input_is_not_written(self, rng):
        x = rng.standard_normal((2, 6, 6)).astype(np.float32)
        keep = x.copy()
        ops.maxpool_forward(x, 2, 2, switches=False)
        np.testing.assert_array_equal(x, keep)

    @pytest.mark.parametrize("shape,window,stride", [
        ((5, 11, 9), 2, 3),  # gapped: the stride skips cells between windows
        ((5, 11, 9), 3, 5),
        ((3, 7, 7), 7, 1),  # one window spans the whole map
        ((3, 7, 7), 7, 4),
        ((4, 6, 9), 6, 2),  # every row, sliding along the columns
        ((5, 11, 9), 1, 1),  # window 1 is a strided copy
        ((5, 11, 9), 1, 2),
    ])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gapped_whole_map_and_unit_windows(self, rng, shape, window, stride,
                                               dtype):
        values = np.array([0.0, -0.0, 1.0, np.nan, np.inf, -np.inf], dtype=dtype)
        x = rng.choice(values, size=shape, p=[0.3, 0.3, 0.15, 0.05, 0.1, 0.1])
        _, sw = ops.maxpool_forward(x, window=window, stride=stride)
        np.testing.assert_array_equal(
            sw, oracles.maxpool_loops(x, window=window, stride=stride)[1])
        got, _ = ops.maxpool_forward(x, window=window, stride=stride,
                                     switches=False)
        assert got.dtype == x.dtype and got.shape == sw.shape
        assert not np.shares_memory(got, x)
        read = x.take(sw)
        nan = np.isnan(read)
        np.testing.assert_array_equal(np.isnan(got), nan)
        np.testing.assert_array_equal(_bits(got)[~nan], _bits(read)[~nan])

    @pytest.mark.parametrize("switches", [True, False])
    def test_output_is_c_contiguous_for_any_input_layout(self, rng, switches):
        base = rng.standard_normal((5, 11, 9))
        views = [base.transpose(1, 0, 2), base.transpose(2, 1, 0),
                 np.asfortranarray(base), base[:, ::-1, ::2],
                 base[:1].transpose(0, 2, 1)]
        for x in views:
            for window, stride in [(1, 1), (1, 2), (2, 2), (3, 1), (2, 3)]:
                got, _ = ops.maxpool_forward(x, window, stride, switches=switches)
                assert got.flags.c_contiguous


class TestPointwise:
    def test_relu_clamps_negatives(self, rng):
        x = rng.standard_normal((2, 4, 4)).astype(np.float32)
        y = ops.relu_forward(x)
        assert (y >= 0).all()
        np.testing.assert_array_equal(y, np.maximum(x, 0))

    def test_dense(self, rng):
        x = rng.standard_normal(6).astype(np.float32)
        w = rng.standard_normal((4, 6)).astype(np.float32)
        b = rng.standard_normal(4).astype(np.float32)
        y = ops.dense_forward(x, w, b)
        np.testing.assert_allclose(y, w @ x + b, rtol=1e-6)

    def test_softmax_sums_to_one_and_is_shift_invariant(self, rng):
        z = rng.standard_normal(5)
        p = ops.softmax(z)
        assert abs(p.sum() - 1.0) < 1e-6
        p2 = ops.softmax(z + 1000.0)
        np.testing.assert_allclose(p, p2, atol=1e-9)

    def test_softmax_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            ops.softmax(np.array([1.0, np.nan], dtype=np.float32))

    @pytest.mark.parametrize("call,message", [
        (lambda x, w, b: ops.dense_forward(x, w[0], b),
         "dense weights must be (m,n), got (3,)"),
        (lambda x, w, b: ops.dense_forward(x, w, b[:1]), "bias length 1 != out dim 2"),
        (lambda x, w, b: ops.softmax(w), "softmax input must be a vector, got (2, 3)"),
    ], ids=["dense_weights_not_a_matrix", "dense_bias_length", "softmax_of_a_matrix"])
    def test_dense_and_softmax_refuse_malformed_arguments(self, call, message):
        x, w, b = np.ones(3, np.float32), np.ones((2, 3), np.float32), np.zeros(2, np.float32)
        with pytest.raises(DimensionError) as caught:
            call(x, w, b)
        assert str(caught.value) == message


def shape_or_error(run):
    """The shape run() returns, or the type of the shape error it raises."""
    try:
        return tuple(run())
    except (DimensionError, ConfigurationError) as exc:
        return type(exc)


class TestShapeRulesAgree:
    """infer_shapes and the kernels read one shape rule per layer kind: on
    seeded geometries, valid and invalid, both raise the same error type or
    the kernel's output has the inferred shape."""

    def test_conv(self, rng):
        seen = {True: 0, False: 0}
        for _ in range(300):
            c, h, w, o = (int(v) for v in rng.integers(1, [4, 10, 10, 4]))
            kh, kw = (int(v) for v in rng.integers(1, 5, size=2))
            kc = c + int(rng.random() < 0.15)
            stride = int(rng.integers(0, 4))
            pad = int(rng.integers(-1, max(kh, kw) + 2))
            x = rng.standard_normal((c, h, w) if rng.random() > 0.05 else (c, h))
            k = rng.standard_normal((o, kc, kh, kw))
            b = rng.standard_normal(o)
            layer = LayerSpec("conv", k, b, stride=stride, pad=pad)
            inferred = shape_or_error(
                lambda: Network(x.shape, [layer]).infer_shapes()[0])
            rule = shape_or_error(lambda: ops.conv_shape(x.shape, k.shape, stride, pad))
            if pad >= min(kh, kw) and isinstance(rule, tuple):
                # the load-time pad policy, on top of the shared rule
                assert inferred is ConfigurationError
                inferred = rule
            got = shape_or_error(lambda: ops.conv2d_forward(x, k, b, stride, pad).shape)
            assert got == inferred, (x.shape, k.shape, stride, pad)
            seen[isinstance(inferred, tuple)] += 1
            if x.ndim != 3 or kc != c:
                continue
            valid = isinstance(inferred, tuple)
            g = rng.standard_normal(inferred if valid else (o, 1, 1))
            back = shape_or_error(
                lambda: ops.conv2d_adjoint(g, k, stride, pad, out_hw=(h, w)).shape)
            grads = shape_or_error(lambda: [
                a.shape for a in ops.conv2d_param_grads(x, g, kh, kw, stride, pad)])
            if valid:
                assert (back, grads) == (x.shape, (k.shape, b.shape))
            else:
                assert back is grads is inferred, (x.shape, k.shape, stride, pad)
        assert min(seen.values()) >= 50

    def test_pool(self, rng):
        seen = {True: 0, False: 0}
        for _ in range(300):
            c, h, w = (int(v) for v in rng.integers(1, [4, 7, 7]))
            window = int(rng.integers(-1, 5))
            stride = int(rng.integers(0, 4))
            x = rng.standard_normal((c, h, w) if rng.random() > 0.05 else (h, w))
            inferred = shape_or_error(lambda: Network(x.shape, [
                LayerSpec("maxpool", window=window, stride=stride),
            ]).infer_shapes()[0])
            for switches in (True, False):
                got = shape_or_error(lambda: ops.maxpool_forward(
                    x, window, stride, switches=switches)[0].shape)
                assert got == inferred, (x.shape, window, stride)
            seen[isinstance(inferred, tuple)] += 1
        assert min(seen.values()) >= 50

    def test_dense(self, rng):
        seen = {True: 0, False: 0}
        for _ in range(200):
            m, n = (int(v) for v in rng.integers(1, 7, size=2))
            x = rng.standard_normal((n,) if rng.random() > 0.1 else (2, n))
            wt = rng.standard_normal((m, n + int(rng.random() < 0.4)))
            b = rng.standard_normal(m)
            inferred = shape_or_error(lambda: Network(x.shape, [
                LayerSpec("dense", wt, b)]).infer_shapes()[0])
            got = shape_or_error(lambda: ops.dense_forward(x, wt, b).shape)
            assert got == inferred, (x.shape, wt.shape)
            seen[isinstance(inferred, tuple)] += 1
        assert min(seen.values()) >= 50
