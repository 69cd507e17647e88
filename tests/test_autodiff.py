import re
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from linearskip import autodiff as ad
from linearskip import transforms as tr
from linearskip.autodiff import (BatchNorm, Graph, Tensor, add, backward,
                                 batch_norm, channel_mix, conv2d, dense,
                                 global_avg_pool, reduce_sum, relu,
                                 softmax_cross_entropy)
from linearskip.network import BuildingBlock, NetworkSpec, build_network
from linearskip.optim import OptimState, sgd_nesterov_step

import oracles


# ---------------------------------------------------------------------------
# conv2d

def test_conv_sum_of_ones():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, k)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv_identity_kernel():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 4, 5, 5)))
    k = np.zeros((4, 4, 1, 1))
    k[np.arange(4), np.arange(4), 0, 0] = 1.0
    out = conv2d(x, Tensor(k))
    npt.assert_array_equal(out.data, x.data)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 4, 4))
    k = rng.standard_normal((3, 2, 3, 3))
    out = conv2d(Tensor(x), Tensor(k), stride=2, padding=1)
    assert out.shape == (1, 3, 2, 2)
    npt.assert_allclose(out.data, oracles.conv2d_loop(x, k, stride=2, padding=1),
                        atol=1e-12)


@pytest.mark.parametrize("groups", [1, 2, 4])
def test_conv_grouped_matches_loop_oracle(groups):
    rng = np.random.default_rng(11 + groups)
    x = rng.standard_normal((2, 4, 6, 6))
    k = rng.standard_normal((8, 4 // groups, 3, 3))
    out = conv2d(Tensor(x), Tensor(k), stride=1, padding=1, groups=groups)
    npt.assert_allclose(
        out.data, oracles.conv2d_loop(x, k, stride=1, padding=1, groups=groups),
        atol=1e-12)


def _forward_grid_cases():
    for kh, kw in ((1, 1), (3, 3), (1, 3), (3, 1), (5, 5)):
        for padding in range(max(kh, kw) + 1):
            for groups in (1, 2, 4):        # 4 channels: 4 is depthwise
                yield kh, kw, padding, groups


def _check_forward_grid(stride, kh, kw, padding, groups):
    # the row-column forward against the loop oracle: one image of height 1,
    # three images of odd height and two of even height, whose grid rows
    # >= ho read into the next image or, where the padded height is no
    # multiple of the stride, into the zero rows below it; the inputs are
    # exact in float32, so one float64 oracle serves both dtypes
    rng = np.random.default_rng(100 * kh + 10 * kw + padding + groups
                                + 1000 * (stride - 1))
    k = rng.standard_normal((4, 4 // groups, kh, kw)).astype(np.float32)
    checked = 0
    for shape in ((1, 4, 1, 7), (3, 4, 5, 5), (2, 4, 6, 7)):
        if min(shape[2] + 2 * padding - kh, shape[3] + 2 * padding - kw) < 0:
            continue
        x = rng.standard_normal(shape).astype(np.float32)
        want = oracles.conv2d_loop(x.astype(np.float64), k.astype(np.float64),
                                   stride=stride, padding=padding,
                                   groups=groups)
        for dtype in (np.float32, np.float64):
            out = conv2d(Tensor(x, dtype=dtype), Tensor(k, dtype=dtype),
                         stride=stride, padding=padding, groups=groups)
            assert out.dtype == dtype and out.data.flags.c_contiguous
            assert out.shape == want.shape
            assert oracles.relative_error(out.data, want) \
                <= 2 ** 4 * np.finfo(dtype).eps
        checked += 1
    assert checked >= 1


@pytest.mark.parametrize("kh,kw,padding,groups", list(_forward_grid_cases()))
def test_conv_stride1_forward_grid_matches_loop_oracle(kh, kw, padding, groups):
    _check_forward_grid(1, kh, kw, padding, groups)


@pytest.mark.parametrize("stride", [2, 3])
@pytest.mark.parametrize("kh,kw,padding,groups", list(_forward_grid_cases()))
def test_conv_strided_forward_grid_matches_loop_oracle(kh, kw, padding, groups,
                                                       stride):
    _check_forward_grid(stride, kh, kw, padding, groups)


@pytest.mark.parametrize("row", [0, 5])
def test_conv_stride1_forward_keeps_images_apart(row):
    # a NaN in image 0 (its top or bottom row) must reach image 0's outputs
    # exactly where the oracle's do, and no output of image 1; grid rows of
    # image 0 that read into image 1 are cropped, and the same holds back.
    # Stride 2 reads image 1's first rows from image 0's last grid row too.
    rng = np.random.default_rng(12 + row)
    x = rng.standard_normal((2, 4, 6, 7))
    k = rng.standard_normal((4, 2, 3, 3))
    x[0, 1, row, 3] = np.nan
    for stride in (1, 2):
        want = oracles.conv2d_loop(x, k, stride=stride, padding=1, groups=2)
        out = conv2d(Tensor(x), Tensor(k), stride=stride, padding=1,
                     groups=2).data
        assert np.array_equal(np.isnan(out), np.isnan(want))
        assert np.isnan(out[0]).any() and np.isfinite(out[1]).all()
        flipped = conv2d(Tensor(x[::-1]), Tensor(k), stride=stride, padding=1,
                         groups=2).data
        assert np.isfinite(flipped[0]).all()
        assert np.array_equal(np.isnan(flipped[1]), np.isnan(want[0]))


@pytest.mark.parametrize("stride", [2, 3])
def test_conv_row_columns_zero_rows_past_the_padding(stride, monkeypatch):
    # hp = 7 is no multiple of the stride, so the last grid row of the late
    # phases lies below the padded input: only cropped grid rows read it,
    # but it must hold zeros, not what np.empty left there
    full = np.full
    monkeypatch.setattr(np, "empty", lambda shape, dtype=float: full(
        shape, np.inf, dtype=dtype))
    x = np.random.default_rng(9).standard_normal((2, 4, 5, 6))
    cols = ad._row_columns(x, 3, stride, 1, 2)
    hq, wo = -(-7 // stride), 5 // stride + 1
    assert cols.shape == (2, 2 * 3, stride, 2 * hq * wo)
    assert np.isfinite(cols).all()
    grid = cols.reshape(2, 6, stride, 2, hq, wo)
    assert not grid[:, :, 7 - stride * (hq - 1):, :, hq - 1].any()


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv_forward_builds_no_im2col_columns(stride, monkeypatch):
    # every stride runs the row-column forward; _im2col serves the pullback
    calls = []
    im2col = ad._im2col
    monkeypatch.setattr(ad, "_im2col",
                        lambda *args: calls.append(args[1:]) or im2col(*args))
    x = np.random.default_rng(10).standard_normal((2, 4, 7, 7))
    k = np.random.default_rng(11).standard_normal((4, 2, 3, 3))
    out = conv2d(Tensor(x), Tensor(k), stride=stride, padding=1, groups=2)
    assert out.shape == (2, 4, 6 // stride + 1, 6 // stride + 1)
    assert calls == []


def test_conv_linearity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 3, 6, 6))
    y = rng.standard_normal((1, 3, 6, 6))
    k = Tensor(rng.standard_normal((4, 3, 3, 3)))
    a, b = 0.37, -1.9
    lhs = conv2d(Tensor(a * x + b * y), k, padding=1).data
    rhs = a * conv2d(Tensor(x), k, padding=1).data \
        + b * conv2d(Tensor(y), k, padding=1).data
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_conv_shape_errors():
    x = Tensor(np.zeros((1, 4, 8, 8)))
    with pytest.raises(ValueError, match="input channels"):
        conv2d(x, Tensor(np.zeros((4, 3, 3, 3))))
    with pytest.raises(ValueError, match="divisible by groups"):
        conv2d(x, Tensor(np.zeros((4, 1, 3, 3))), groups=3)
    with pytest.raises(ValueError, match="does not fit"):
        conv2d(x, Tensor(np.zeros((4, 4, 9, 9))))


@pytest.mark.parametrize("name,value", [
    ("stride", 1.5), ("padding", 0.5), ("groups", 2.0),
    ("stride", True), ("padding", False), ("groups", True)])
def test_conv_rejects_non_integer_arguments(name, value):
    x = Tensor(np.zeros((1, 4, 8, 8)))
    k = Tensor(np.zeros((4, 2, 3, 3)))
    with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
        conv2d(x, k, **{name: value})
    out = conv2d(x, k, stride=np.int64(2), padding=np.int32(1),
                 groups=np.int64(2))
    assert out.shape == (1, 4, 4, 4)


def _conv_vjp_cases():
    # padding 2 makes the stride-1 input gradient a correlation at padding 0
    for stride in (1, 2):
        for padding in (0, 1, 2):
            for c, o in ((4, 4), (4, 8), (8, 4)):
                for groups in sorted({1, 2, c}):
                    if c % groups == 0 and o % groups == 0:
                        yield stride, padding, groups, c, o


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride,padding,groups,c,o", list(_conv_vjp_cases()))
def test_conv_vjp_matches_loop_oracle(stride, padding, groups, c, o, dtype):
    rng = np.random.default_rng(1000 * stride + 100 * padding + 10 * groups + c)
    x = rng.standard_normal((2, c, 6, 5))
    k = rng.standard_normal((o, c // groups, 3, 3))
    xt = Tensor(x, requires_grad=True, dtype=dtype)
    kt = Tensor(k, requires_grad=True, dtype=dtype)
    with Graph() as graph:
        out = conv2d(xt, kt, stride=stride, padding=padding, groups=groups)
    g = rng.standard_normal(out.shape)
    gx, gk = graph.nodes[0].vjp_fn(g.astype(dtype))
    ox, ok = oracles.conv2d_vjp_loop(x, k, g, stride, padding, groups)
    assert gx.dtype == dtype and gk.dtype == dtype
    tol = 2 ** 4 * np.finfo(dtype).eps
    assert oracles.relative_error(gx, ox) <= tol
    assert oracles.relative_error(gk, ok) <= tol


@pytest.mark.parametrize("stride,kh,kw", [(1, 3, 3), (2, 3, 3), (1, 1, 1),
                                          (1, 3, 2)])
def test_conv_vjp_single_input_gradients(stride, kh, kw):
    # only the inputs that require a gradient get one, and each matches the
    # oracle; a 1x1 kernel with padding 1 and a non-square kernel take the
    # column-scatter path at stride 1
    rng = np.random.default_rng(100 * stride + 10 * kh + kw)
    x = rng.standard_normal((2, 4, 6, 6))
    k = rng.standard_normal((4, 2, kh, kw))
    for x_grad, k_grad in ((True, True), (True, False), (False, True)):
        with Graph() as graph:
            out = conv2d(Tensor(x, requires_grad=x_grad),
                         Tensor(k, requires_grad=k_grad),
                         stride=stride, padding=1, groups=2)
        g = np.random.default_rng(0).standard_normal(out.shape)
        ox, ok = oracles.conv2d_vjp_loop(x, k, g, stride, 1, 2)
        gx, gk = graph.nodes[0].vjp_fn(g)
        assert (gx is None) != x_grad and (gk is None) != k_grad
        if x_grad:
            npt.assert_allclose(gx, ox, atol=1e-12)
        if k_grad:
            npt.assert_allclose(gk, ok, atol=1e-12)


def test_conv_tape_keeps_no_columns():
    # storing im2col columns would hold about 9x the input; the node may
    # hold little beyond its own output
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 16, 16, 16)), requires_grad=True)
    k = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Graph() as graph:
            out = conv2d(x, k, padding=1)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(graph) == 1
    assert held <= 1.25 * out.data.nbytes


@pytest.mark.parametrize("groups,padding", [(1, 1), (16, 1), (2, 0), (1, 2)])
def test_conv_stride1_forward_builds_kw_fold_columns(groups, padding):
    # the forward holds kw-fold row columns of the padded input, and with
    # them first the padded copy they are filled from, then the output grid,
    # one tap's GEMM result and the kernel reordered by tap: about kw padded
    # inputs, 2 outputs and a kernel, which im2col's 9x column buffer alone
    # would exceed
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((4, 16, 16, 16)))
    k = Tensor(rng.standard_normal((16, 16 // groups, 3, 3)))
    padded = np.pad(x.data, ((0, 0), (0, 0), (padding, padding),
                             (padding, padding))).nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = conv2d(x, k, padding=padding, groups=groups)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    bound = 3 * padded + 2 * out.data.nbytes + k.data.nbytes
    assert 9 * x.data.nbytes > bound
    assert peak <= bound


@pytest.mark.parametrize("groups,padding", [(1, 1), (16, 1), (2, 0), (1, 2)])
def test_conv_stride1_pullback_builds_one_column_buffer(groups, padding):
    # both gradients read g's columns, so the pullback's peak is those
    # columns, the padded copy of g that _im2col fills them from, and the
    # two gradients it returns; a second column buffer would add 9x g
    rng = np.random.default_rng(5)
    x = Tensor(rng.standard_normal((2, 16, 16, 16)), requires_grad=True)
    k = Tensor(rng.standard_normal((16, 16 // groups, 3, 3)), requires_grad=True)
    with Graph() as graph:
        out = conv2d(x, k, padding=padding, groups=groups)
    g = rng.standard_normal(out.shape)
    q = 2 - padding
    cols = ad._im2col(g, 3, 3, 1, q, groups).nbytes
    g_padded = np.pad(g, ((0, 0), (0, 0), (q, q), (q, q))).nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gx, gk = graph.nodes[0].vjp_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= cols + g_padded + gx.nbytes + gk.nbytes


@pytest.mark.parametrize("want_k", [False, True])
def test_depthwise_flipped_kernel_is_contiguous(want_k, monkeypatch):
    # a depthwise kflip built by reshape alone is a negative-stride view,
    # and np.matmul runs such an operand outside BLAS, about 3x slower
    rng = np.random.default_rng(6)
    x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 1, 3, 3)), requires_grad=want_k)
    with Graph() as graph:
        out = conv2d(x, k, padding=1, groups=4)
    operands = []
    matmul = np.matmul
    monkeypatch.setattr(np, "matmul",
                        lambda a, b: operands.append(a) or matmul(a, b))
    graph.nodes[0].vjp_fn(np.ones(out.shape))
    kflips = [a for a in operands if a.shape == (4, 1, 9)]
    assert len(kflips) == 1 and kflips[0].flags.c_contiguous


def _multi_chunk_cases():
    for stride in (1, 2):
        for padding in (0, 1, 2):
            for groups in (1, 2, 4):
                for x_grad, k_grad in ((True, True), (True, False),
                                       (False, True)):
                    yield stride, padding, groups, x_grad, k_grad


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride,padding,groups,x_grad,k_grad",
                         list(_multi_chunk_cases()))
def test_conv_vjp_multi_chunk_matches_loop_oracle(stride, padding, groups,
                                                  x_grad, k_grad, dtype,
                                                  monkeypatch):
    # a budget of two images' columns splits a batch of 5 into 2 + 2 + 1;
    # a stride-1 input gradient lowers g, every other pullback x's positions
    rng = np.random.default_rng(100 * stride + 10 * padding + groups)
    x = rng.standard_normal((5, 4, 6, 6))
    k = rng.standard_normal((4, 4 // groups, 3, 3))
    with Graph() as graph:
        out = conv2d(Tensor(x, requires_grad=x_grad, dtype=dtype),
                     Tensor(k, requires_grad=k_grad, dtype=dtype),
                     stride=stride, padding=padding, groups=groups)
    g = rng.standard_normal(out.shape)
    lowered = (ad._im2col(g[:1], 3, 3, 1, 2 - padding, groups)
               if stride == 1 and x_grad else
               ad._im2col(x[:1], 3, 3, stride, padding, groups))
    monkeypatch.setattr(ad, "_PULLBACK_COLUMN_BYTES",
                        2 * lowered.astype(dtype).nbytes + 1)
    chunks = []
    im2col, col2im = ad._im2col, ad._col2im
    monkeypatch.setattr(ad, "_im2col", lambda a, *rest: chunks.append(
        len(a)) or im2col(a, *rest))
    monkeypatch.setattr(ad, "_col2im", lambda a, shape, s: chunks.append(
        shape[1]) or col2im(a, shape, s))
    gx, gk = graph.nodes[0].vjp_fn(g.astype(dtype))
    ox, ok = oracles.conv2d_vjp_loop(x, k, g, stride, padding, groups)
    # both gradients at stride 2 run _im2col and _col2im on each chunk
    calls = 2 if stride == 2 and x_grad and k_grad else 1
    assert chunks == [size for size in (2, 2, 1) for _ in range(calls)]
    tol = 2 ** 4 * np.finfo(dtype).eps
    assert (gx is None) != x_grad and (gk is None) != k_grad
    if x_grad:
        assert gx.dtype == dtype and gx.flags.c_contiguous
        assert oracles.relative_error(gx, ox) <= tol
    if k_grad:
        assert gk.dtype == dtype
        assert oracles.relative_error(gk, ok) <= tol


@pytest.mark.parametrize("groups", [1, 16])
def test_conv_pullback_builds_one_chunk_of_columns(groups):
    # a batch of 8 whose columns span three 1 MiB chunks: the peak holds one
    # chunk's columns and the padded copy of g they are filled from, besides
    # the gradients returned, the flipped kernel (gk's size) and a few KiB
    # of array headers, and never the whole batch's columns
    rng = np.random.default_rng(7)
    x = Tensor(rng.standard_normal((8, 16, 16, 16)), requires_grad=True)
    k = Tensor(rng.standard_normal((16, 16 // groups, 3, 3)), requires_grad=True)
    with Graph() as graph:
        out = conv2d(x, k, padding=1, groups=groups)
    g = rng.standard_normal(out.shape)
    whole = ad._im2col(g, 3, 3, 1, 1, groups).nbytes
    per_image = whole // len(g)
    step = ad._PULLBACK_COLUMN_BYTES // per_image
    assert 1 < step < len(g) / 2
    chunk_padded = np.pad(g[:step], ((0, 0), (0, 0), (1, 1), (1, 1))).nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gx, gk = graph.nodes[0].vjp_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < whole
    assert peak <= (step * per_image + chunk_padded + gx.nbytes
                    + 2 * gk.nbytes + 4096)


@pytest.mark.parametrize("stride", [1, 2])
def test_conv_input_gradient_is_contiguous(stride):
    # gx owns its memory in NCHW order: a transposed view of the scatter
    # path's padded, channel-major buffer would keep the padding alive
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((3, 4, 8, 8)), requires_grad=True)
    k = Tensor(rng.standard_normal((4, 4, 3, 3)))
    with Graph() as graph:
        out = conv2d(x, k, stride=stride, padding=1)
    gx, _ = graph.nodes[0].vjp_fn(np.ones(out.shape))
    assert gx.shape == x.shape and gx.flags.c_contiguous
    assert gx.base is None


# ---------------------------------------------------------------------------
# batch norm

def _holding(gamma, beta, dtype=np.float64, mean=None, var=None):
    """A BatchNorm in ``dtype`` that holds the tensors ``gamma`` and
    ``beta``, and the running statistics ``mean``/``var`` if given."""
    norm = BatchNorm(gamma.shape[0], dtype)
    norm.gamma, norm.beta = gamma, beta
    if mean is not None:
        norm.running_mean = mean.astype(dtype)
        norm.running_var = var.astype(dtype)
    return norm


def test_batch_norm_constant_input_centers_to_zero():
    x = np.ones((3, 2, 4, 4))
    x[:, 1] = 5.0
    out = batch_norm(Tensor(x), BatchNorm(2), mode="train")
    npt.assert_allclose(out.data, 0.0, atol=1e-12)


def test_batch_norm_gamma_zero_outputs_beta():
    rng = np.random.default_rng(0)
    out = batch_norm(Tensor(rng.standard_normal((2, 3, 4, 4))),
                     _holding(Tensor(np.zeros(3)), Tensor(np.full(3, 2.5))),
                     mode="train")
    npt.assert_allclose(out.data, 2.5, atol=1e-12)


def test_batch_norm_two_sample_oracle():
    # batch values 1 and 3 per channel: mean 2, biased variance 1
    x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1).repeat(2, axis=1)
    out = batch_norm(Tensor(x), BatchNorm(2), mode="train")
    expected = np.array([-1.0, 1.0]) / np.sqrt(1.0 + 1e-5)
    npt.assert_allclose(out.data[:, 0, 0, 0], expected, rtol=1e-12)
    npt.assert_allclose(out.data[:, 1, 0, 0], expected, rtol=1e-12)


def test_batch_norm_eval_uses_running_stats():
    norm = BatchNorm(1)
    norm.running_mean[:] = 1.0
    norm.running_var[:] = 4.0
    x = np.full((2, 1, 1, 1), 3.0)
    out = batch_norm(Tensor(x), norm, mode="eval")
    npt.assert_allclose(out.data, (3.0 - 1.0) / np.sqrt(4.0 + 1e-5), rtol=1e-12)


def test_batch_norm_zero_batch_errors():
    with pytest.raises(ValueError, match="non-empty"):
        batch_norm(Tensor(np.zeros((0, 2, 4, 4))), BatchNorm(2), mode="train")


def test_batch_norm_float32_large_mean_keeps_unit_std():
    # a mean of 1000 cancels E[x^2] - mu^2 in float32; centred values do not
    rng = np.random.default_rng(3)
    x = (1000.0 + rng.standard_normal((32, 4, 8, 8))).astype(np.float32)
    out = batch_norm(Tensor(x), BatchNorm(4, np.float32), mode="train")
    assert out.dtype == np.float32
    std = out.data.astype(np.float64).std(axis=(0, 2, 3))
    tol = 2 ** 6 * np.finfo(np.float32).eps
    assert np.abs(std - 1.0 / np.sqrt(1.0 + 1e-5)).max() <= tol


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_batch_norm_relu_pullback_holds_two_temporaries(mode, dtype):
    # the masked copy of g, which gx is built in, and the centred input;
    # the rest is numpy's fixed-size ufunc buffer, 1/16 of x here
    rng = np.random.default_rng(9)
    x = Tensor(rng.standard_normal((8, 16, 32, 32)), requires_grad=True,
               dtype=dtype)
    gamma = Tensor(rng.standard_normal(16) + 1.0, requires_grad=True,
                   dtype=dtype)
    beta = Tensor(rng.standard_normal(16), requires_grad=True, dtype=dtype)
    with Graph() as graph:
        out = batch_norm(x, _holding(gamma, beta, dtype), mode, relu=True)
    g = rng.standard_normal(out.shape).astype(dtype)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gx, ggamma, gbeta = graph.nodes[0].vjp_fn(g)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert gx.dtype == ggamma.dtype == gbeta.dtype == dtype
    assert peak <= 2.25 * x.data.nbytes


def test_batch_norm_eval_vjp_keeps_its_statistics():
    # a later train step must not move the statistics a recorded eval
    # node differentiates with
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 4))
    gamma = Tensor(np.ones(3), requires_grad=True)
    beta = Tensor(np.zeros(3))
    norm = _holding(gamma, beta)
    with Graph() as g:
        loss = reduce_sum(batch_norm(Tensor(x), norm, "eval"))
    # vjp keeps the tape for the walk after the train step
    before = ad.vjp(g, {loss: np.ones_like(loss.data)}, wrt=[gamma])[gamma]
    batch_norm(Tensor(5.0 * x + 3.0), norm, "train")
    npt.assert_array_equal(backward(g, loss)[gamma].data, before)


# ---------------------------------------------------------------------------
# conv2d with a folded batch norm: conv2d(relu?(batch_norm(x)), k), one node

def _bn_conv_arrays(n=2, c=8, o=8, groups=1, seed=0):
    """x, gamma, beta, running mean, running var and kernel; gamma takes
    both signs, so the ReLU masks different sides of different channels."""
    rng = np.random.default_rng(seed)
    x = 1.5 * rng.standard_normal((n, c, 6, 5)) + 0.5
    gamma = rng.standard_normal(c) + 0.5
    beta = 0.5 * rng.standard_normal(c)
    mean = rng.standard_normal(c)
    var = rng.uniform(0.5, 2.0, c)
    k = rng.standard_normal((o, c // groups, 3, 3))
    return x, gamma, beta, mean, var, k


def _bn_conv_tape(arrays, mode, relu, dtype, stride=1, groups=1, fused=True,
                  wrt=None):
    """A tape of the folded node, or of batch_norm then conv2d, on fresh
    leaves (x, gamma, beta, kernel) and a fresh BatchNorm holding gamma
    and beta; returns the tape, its output, the leaves and the BatchNorm.
    ``wrt`` holds the indices of the leaves the tape is declared for, or
    is None for an undeclared tape."""
    x, gamma, beta, mean, var, k = arrays
    leaves = [Tensor(a, requires_grad=True, dtype=dtype)
              for a in (x, gamma, beta, k)]
    xt, gt, bt, kt = leaves
    norm = _holding(gt, bt, dtype, mean, var)
    declared = None if wrt is None else [leaves[i] for i in wrt]
    with Graph(wrt=declared) as graph:
        if fused:
            out = conv2d(xt, kt, stride, 1, groups, norm=norm, mode=mode,
                         relu=relu)
        else:
            out = conv2d(batch_norm(xt, norm, mode, relu=relu), kt,
                         stride, 1, groups)
    return graph, out, leaves, norm


def _bn_conv_grads(graph, out, leaves, g):
    grads = ad.vjp(graph, {out: g.astype(out.dtype)}, wrt=leaves)
    return [grads[t] for t in leaves]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("groups", [1, 4, 8], ids=["dense", "grouped",
                                                   "depthwise"])
@pytest.mark.parametrize("relu", [False, True], ids=["bn", "bn_relu"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bn_conv_matches_loop_oracle(mode, relu, groups, dtype):
    arrays = _bn_conv_arrays(groups=groups, seed=10 * groups + relu)
    graph, out, leaves, _ = _bn_conv_tape(arrays, mode, relu, dtype,
                                          groups=groups)
    g = np.random.default_rng(groups).standard_normal(out.shape)
    grads = _bn_conv_grads(graph, out, leaves, g)
    x, gamma, beta, mean, var, k = (a.astype(dtype) for a in arrays)
    stats = {} if mode == "train" else {"mean": mean, "var": var}
    ref_out, ref_grads = oracles.bn_conv_loop(
        x, gamma, beta, k, g.astype(dtype), relu=relu, padding=1,
        groups=groups, **stats)
    tol = 2 ** 6 * np.finfo(dtype).eps
    assert graph.nodes[0].op == "conv2d" and len(graph) == 1
    assert oracles.relative_error(out.data, ref_out) <= tol
    for got, ref in zip(grads, ref_grads):
        assert got.dtype == dtype
        assert oracles.relative_error(got, ref) <= tol


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("groups", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("relu", [False, True], ids=["bn", "bn_relu"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bn_conv_kernel_alone_matches_loop_oracle(mode, relu, stride, groups,
                                                  dtype):
    # a tape declared for the kernel alone computes no gradient of the
    # normalized input: at stride 1 it lowers A, not the output gradient as
    # the full walk does, so it is checked against the oracle, not against
    # that walk
    arrays = _bn_conv_arrays(c=4, o=4, groups=groups, seed=60 + stride)
    graph, out, leaves, _ = _bn_conv_tape(arrays, mode, relu, dtype,
                                          stride=stride, groups=groups,
                                          wrt=[3])
    kt = leaves[3]
    g = np.random.default_rng(stride).standard_normal(out.shape).astype(dtype)
    grads = ad.vjp(graph, {out: g}, wrt=[kt])
    x, gamma, beta, mean, var, k = (a.astype(dtype) for a in arrays)
    stats = {} if mode == "train" else {"mean": mean, "var": var}
    _, (*_, ref) = oracles.bn_conv_loop(x, gamma, beta, k, g, relu=relu,
                                        stride=stride, padding=1,
                                        groups=groups, **stats)
    assert list(grads) == [kt] and grads[kt].dtype == dtype
    assert oracles.relative_error(grads[kt], ref) <= 2 ** 6 * np.finfo(dtype).eps


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bn_conv_multi_chunk_matches_loop_oracle(mode, stride, dtype,
                                                 monkeypatch):
    # a budget of two images' columns splits a batch of 5 into 2 + 2 + 1,
    # and each chunk recomputes its own slice of the normalized input
    arrays = _bn_conv_arrays(n=5, c=4, o=4, groups=2, seed=20 + stride)
    graph, out, leaves, _ = _bn_conv_tape(arrays, mode, True, dtype,
                                          stride=stride, groups=2)
    g = np.random.default_rng(stride).standard_normal(out.shape)
    lowered = (ad._im2col(g[:1], 3, 3, 1, 1, 2) if stride == 1 else
               ad._im2col(arrays[0][:1], 3, 3, stride, 1, 2))
    monkeypatch.setattr(ad, "_PULLBACK_COLUMN_BYTES",
                        2 * lowered.astype(dtype).nbytes + 1)
    chunks = []
    im2col = ad._im2col
    monkeypatch.setattr(ad, "_im2col", lambda a, *rest: chunks.append(
        len(a)) or im2col(a, *rest))
    grads = _bn_conv_grads(graph, out, leaves, g)
    x, gamma, beta, mean, var, k = (a.astype(dtype) for a in arrays)
    stats = {} if mode == "train" else {"mean": mean, "var": var}
    _, ref_grads = oracles.bn_conv_loop(x, gamma, beta, k, g.astype(dtype),
                                        stride=stride, padding=1, groups=2,
                                        **stats)
    assert chunks == [2, 2, 1]
    tol = 2 ** 6 * np.finfo(dtype).eps
    for got, ref in zip(grads, ref_grads):
        assert oracles.relative_error(got, ref) <= tol


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("groups", [1, 4, 8], ids=["dense", "grouped",
                                                   "depthwise"])
@pytest.mark.parametrize("relu", [False, True], ids=["bn", "bn_relu"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_bn_conv_is_batch_norm_then_conv(mode, relu, groups, dtype):
    # the recompute repeats batch_norm's arithmetic, so the output, every
    # gradient and the running statistics match the two-node tape bit for
    # bit; a NaN input and a channel that normalizes to exactly 0 included
    arrays = _bn_conv_arrays(groups=groups, seed=30 + groups)
    if mode == "eval":      # in train mode a NaN spreads over every output
        arrays[0][0, 0, 1, 2] = np.nan
    arrays[1][3] = arrays[2][3] = 0
    g = np.random.default_rng(groups).standard_normal((2, 8, 6, 5))
    results = []
    for fused in (True, False):
        graph, out, leaves, norm = _bn_conv_tape(arrays, mode, relu, dtype,
                                                 groups=groups, fused=fused)
        results.append((out.data, _bn_conv_grads(graph, out, leaves, g),
                        norm))
    (out, grads, norm), (ref_out, ref_grads, ref_norm) = results
    assert np.array_equal(out, ref_out, equal_nan=True)
    for got, ref in zip(grads, ref_grads):
        assert got.dtype == ref.dtype == dtype
        assert np.array_equal(got, ref, equal_nan=True)
    for attr in ("running_mean", "running_var"):
        got, ref = getattr(norm, attr), getattr(ref_norm, attr)
        assert got.dtype == dtype
        assert np.array_equal(got, ref, equal_nan=True)


@pytest.mark.parametrize("relu", [False, True], ids=["bn", "bn_relu"])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_gradcheck_bn_conv(mode, relu):
    x, gamma, beta, mean, var, k = _bn_conv_arrays(n=3, c=4, o=6, groups=2,
                                                   seed=40 + relu)
    x, gamma, beta, k = (Tensor(a, requires_grad=True)
                         for a in (x, gamma, beta, 0.5 * k))
    norm = _holding(gamma, beta, np.float64, mean, var)
    w = Tensor(np.random.default_rng(41).standard_normal((3, 6)))
    labels = np.array([0, 2, 1])

    def loss():
        out = conv2d(x, k, padding=1, groups=2, norm=norm, mode=mode,
                     relu=relu)
        return softmax_cross_entropy(dense(global_avg_pool(out), w), labels)

    _finite_difference_check(loss, [x, gamma, beta, k])


def test_bn_conv_tape_keeps_no_normalized_input():
    # batch_norm then conv2d would keep the normalized input besides the
    # conv's output; the folded node keeps its output and per-channel stats
    rng = np.random.default_rng(50)
    x = Tensor(rng.standard_normal((2, 16, 16, 16)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(16) + 1.0, requires_grad=True)
    beta = Tensor(rng.standard_normal(16), requires_grad=True)
    k = Tensor(rng.standard_normal((16, 16, 3, 3)), requires_grad=True)
    norm = _holding(gamma, beta)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Graph() as graph:
            out = conv2d(x, k, padding=1, norm=norm, relu=True)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(graph) == 1 and graph.nodes[0].inputs == (x, gamma, beta, k)
    assert held <= 1.25 * out.data.nbytes


@pytest.mark.parametrize("kwargs,message", [
    ({"relu": True}, "relu and mode only with a normalization"),
    ({"mode": "eval"}, "relu and mode only with a normalization"),
    ({"norm": BatchNorm(4), "mode": "test"}, "mode must be"),
    ({"norm": _holding(Tensor(np.ones(3)), Tensor(np.zeros(4)))},
     "gamma/beta must have shape"),
], ids=["relu_alone", "mode_alone", "mode", "gamma_shape"])
def test_bn_conv_rejects_malformed_normalization(kwargs, message):
    with pytest.raises(ValueError, match=message):
        conv2d(Tensor(np.ones((1, 4, 5, 5))), Tensor(np.ones((4, 4, 3, 3))),
               padding=1, **kwargs)


def test_bn_conv_mixed_dtypes_leave_state_alone():
    norm = BatchNorm(3, np.float32)
    with pytest.raises(ValueError, match="dtype"):
        conv2d(_f32(2, 3, 4, 4), Tensor(np.ones((3, 3, 3, 3))), norm=norm)
    npt.assert_array_equal(norm.running_mean, 0.0)
    npt.assert_array_equal(norm.running_var, 1.0)


# ---------------------------------------------------------------------------
# one dtype per operation

def _f32(*shape):
    return Tensor(np.ones(shape, dtype=np.float32))


@pytest.mark.parametrize("op", [
    lambda: conv2d(_f32(1, 2, 4, 4), Tensor(np.ones((2, 2, 3, 3)))),
    lambda: add(_f32(2, 3), Tensor(np.ones((2, 3)))),
    lambda: dense(_f32(2, 3), Tensor(np.ones((4, 3)))),
    lambda: dense(_f32(2, 3), _f32(4, 3), Tensor(np.zeros(4))),
    lambda: batch_norm(_f32(2, 3, 4, 4),
                       _holding(_f32(3), _f32(3), np.float64)),
    lambda: batch_norm(_f32(2, 3, 4, 4),
                       _holding(Tensor(np.ones(3)), _f32(3), np.float32)),
], ids=["conv2d_kernel", "add", "dense_weight", "dense_bias",
        "batch_norm_state", "batch_norm_gamma"])
def test_mixed_dtypes_raise(op):
    with pytest.raises(ValueError, match="dtype"):
        op()


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.complex128, bool])
def test_tensor_rejects_a_non_float_dtype(dtype):
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        Tensor(np.ones(3), dtype=dtype)


def test_tensor_rejects_complex_data():
    for kw in ({}, {"dtype": np.float64}):
        with pytest.raises(ValueError, match="complex128"):
            Tensor(np.array([1.0 + 2.0j]), **kw)


def test_tensor_promotes_real_data_to_float64():
    for data in (np.arange(3), [True, False], np.ones(2, dtype=np.float16)):
        assert Tensor(data).dtype == np.float64
    assert Tensor(np.arange(3), dtype=np.float32).dtype == np.float32


def test_mixed_dtype_batch_norm_leaves_state_alone():
    norm = _holding(Tensor(np.ones(3)), _f32(3), np.float32)
    with pytest.raises(ValueError, match="dtype"):
        batch_norm(_f32(2, 3, 4, 4), norm)
    npt.assert_array_equal(norm.running_mean, 0.0)
    npt.assert_array_equal(norm.running_var, 1.0)


def test_vjp_rejects_seed_of_another_dtype():
    # a float64 cotangent is not rounded into a float32 tape
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    with Graph() as g:
        y = relu(x)
    with pytest.raises(ValueError, match="seed dtype float64"):
        ad.vjp(g, {y: np.ones((2, 3))}, wrt=[x])
    grads = ad.vjp(g, {y: np.ones((2, 3), dtype=np.float32)}, wrt=[x])
    assert grads[x].dtype == np.float32


def test_vjp_checks_a_callable_seed_when_it_calls_it():
    x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
    with Graph() as g:
        y = relu(x)
    with pytest.raises(ValueError, match="seed dtype float64"):
        ad.vjp(g, {y: lambda: np.ones((2, 3))}, wrt=[x])
    with pytest.raises(ValueError, match=r"seed shape \(3, 2\)"):
        ad.vjp(g, {y: lambda: np.ones((3, 2), dtype=np.float32)}, wrt=[x])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_released_tensor_keeps_its_key_and_refuses_writes(dtype):
    # a mix output that only a sum reads: released, it keeps its shape and
    # dtype but no values, a write to it raises, and a walk seeded at it
    # gives the bits it gave before the release
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True,
               dtype=dtype)
    with Graph() as g:
        h = channel_mix(x, rng.standard_normal((4, 4)))
        add(h, x)
    seed = rng.standard_normal(h.shape).astype(dtype)
    before = ad.vjp(g, {h: seed}, wrt=[x])[x]
    ad._release(h)
    assert h.shape == (2, 4, 3, 3) and h.dtype == dtype
    assert h.data.strides == (0, 0, 0, 0) and not h.data.any()
    with pytest.raises(ValueError, match="read-only"):
        h.data[0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        h.data += 1.0
    assert np.array_equal(ad.vjp(g, {h: seed}, wrt=[x])[x], before)
    with pytest.raises(ValueError, match="seed shape"):
        ad.vjp(g, {h: seed[0]}, wrt=[x])


# every op: (the shapes of its tensor inputs, the op on those inputs)
_RECORDED_OPS = {
    "conv2d": ([(2, 4, 5, 5), (4, 2, 3, 3)],
               lambda x, k: conv2d(x, k, stride=2, padding=1, groups=2)),
    "conv2d_norm": ([(2, 4, 5, 5), (4,), (4,), (4, 4, 3, 3)],
                    lambda x, gamma, beta, k: conv2d(
                        x, k, padding=1, norm=_holding(gamma, beta),
                        relu=True)),
    "batch_norm": ([(2, 4, 5, 5), (4,), (4,)],
                   lambda x, gamma, beta: batch_norm(
                       x, _holding(gamma, beta), relu=True)),
    "relu": ([(2, 3)], relu),
    "global_avg_pool": ([(2, 4, 5, 5)], global_avg_pool),
    "dense": ([(2, 3), (4, 3), (4,)], dense),
    "add": ([(2, 3), (2, 3)], add),
    "channel_mix": ([(2, 4, 5, 5), (2, 4, 5, 5)],
                    lambda x, y: channel_mix(x, tr.make_orthogonal_tp(4),
                                             plus=y)),
    "reduce_sum": ([(2, 3)], reduce_sum),
    "softmax_cross_entropy": ([(2, 4)], lambda z: softmax_cross_entropy(
        z, np.array([1, 3]))),
}


@pytest.mark.parametrize("op", list(_RECORDED_OPS))
def test_pullback_reads_the_arrays_its_forward_used(op):
    # a node differentiates the arrays its op read: rebinding an input's
    # data after recording (as Network.load_state rebinds parameters), and
    # then releasing it, leaves every gradient bit-identical
    shapes, record = _RECORDED_OPS[op]
    rng = np.random.default_rng(72)
    leaves = [Tensor(rng.standard_normal(shape) + 0.5, requires_grad=True)
              for shape in shapes]
    with Graph() as graph:
        out = record(*leaves)
    seed = np.asarray(rng.standard_normal(out.shape))
    before = ad.vjp(graph, {out: seed}, wrt=leaves)
    for t in leaves:
        t.data = 5.0 * t.data + 1.0
    rebound = ad.vjp(graph, {out: seed}, wrt=leaves)
    for t in leaves:
        ad._release(t)
    released = ad.vjp(graph, {out: seed}, wrt=leaves)
    for t in leaves:
        assert np.array_equal(rebound[t], before[t])
        assert np.array_equal(released[t], before[t])


# ---------------------------------------------------------------------------
# simple ops

def test_relu_values():
    out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_tape_keeps_no_mask():
    # a stored x > 0 mask would add 1/8 of a float64 output; the VJP reads
    # the output itself, so the node holds little beyond it
    x = Tensor(np.random.default_rng(4).standard_normal((2, 16, 16, 16)),
               requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Graph() as graph:
            out = relu(x)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(graph) == 1
    assert held <= 1.05 * out.data.nbytes


def test_relu_gradient_is_zero_at_nan_and_zero():
    x = Tensor(np.array([np.nan, -0.0, 0.0, -1.0, 3.0]), requires_grad=True)
    with Graph() as g:
        loss = reduce_sum(relu(x))
    npt.assert_array_equal(backward(g, loss)[x].data, [0.0, 0.0, 0.0, 0.0, 1.0])


def test_global_avg_pool_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = global_avg_pool(Tensor(x))
    npt.assert_allclose(out.data, [[2.5]])


def test_softmax_cross_entropy_uniform():
    for k in (2, 5, 10):
        logits = Tensor(np.zeros((3, k)))
        loss = softmax_cross_entropy(logits, np.zeros(3, dtype=int))
        npt.assert_allclose(float(loss.data), np.log(k), rtol=1e-12)


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError, match="labels must lie"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_softmax_cross_entropy_rejects_an_empty_batch():
    # the mean over no samples would be NaN, with a "Mean of empty slice"
    # warning
    with pytest.raises(ValueError, match="requires a non-empty batch"):
        softmax_cross_entropy(Tensor(np.zeros((0, 3))),
                              np.zeros(0, dtype=int))


def _conv_on(x_shape=(1, 4, 8, 8), k_shape=(4, 4, 3, 3), **kwargs):
    return lambda: conv2d(Tensor(np.zeros(x_shape)),
                          Tensor(np.zeros(k_shape)), **kwargs)


def _dense_on(x_shape=(2, 3), w_shape=(4, 3), b_shape=None):
    return lambda: dense(Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)),
                         None if b_shape is None else np.zeros(b_shape))


@pytest.mark.parametrize("op,message", [
    (_conv_on(groups=0), "groups must be positive, got 0"),
    (lambda: softmax_cross_entropy(Tensor(np.zeros((2, 3))),
                                   np.array([1.5, 0.7])),
     "labels must be integers, got dtype float64"),
    (_conv_on(x_shape=(4, 8, 8)), "conv2d expects NCHW input"),
    (_conv_on(k_shape=(4, 4, 3)), "conv2d expects OIHW kernel"),
    (_conv_on(stride=0), "stride must be positive, got 0"),
    (_conv_on(padding=-1), "padding must be non-negative, got -1"),
    (lambda: batch_norm(Tensor(np.zeros((2, 4))), BatchNorm(4)),
     "batch_norm expects NCHW input"),
    (lambda: global_avg_pool(Tensor(np.zeros((2, 4, 3)))),
     "global_avg_pool expects NCHW input"),
    (lambda: channel_mix(Tensor(np.zeros((2, 4))), np.eye(4)),
     "channel_mix expects NCHW input"),
    (_dense_on(x_shape=(3,)), "dense expects 2-D input and weight"),
    (_dense_on(w_shape=(4, 3, 1)), "dense expects 2-D input and weight"),
    (_dense_on(w_shape=(4, 5)), "dense input has 3 features, weight expects 5"),
    (_dense_on(b_shape=(3,)), r"bias must have shape \(4,\), got \(3,\)"),
    (lambda: softmax_cross_entropy(Tensor(np.zeros(3)), np.zeros(3, int)),
     r"logits must be \(N, K\)"),
    (lambda: softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(3, int)),
     r"labels must have shape \(2,\), got \(3,\)"),
], ids=["conv2d_groups", "float_labels", "conv2d_input_ndim",
        "conv2d_kernel_ndim", "conv2d_stride", "conv2d_padding",
        "batch_norm_ndim", "global_avg_pool_ndim", "channel_mix_ndim",
        "dense_input_ndim", "dense_weight_ndim", "dense_features",
        "dense_bias", "logits_ndim", "labels_shape"])
def test_ops_reject_malformed_arguments(op, message):
    with pytest.raises(ValueError, match=message):
        op()


def test_channel_mix_matches_loop_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 4, 4))
    mat = rng.standard_normal((3, 3))
    out = channel_mix(Tensor(x), mat)
    npt.assert_allclose(out.data, oracles.mix_channels(mat, x), atol=1e-12)


def test_channel_mix_rejects_complex_matrix():
    x = Tensor(np.ones((1, 2, 2, 2)))
    with pytest.raises(ValueError, match="must be real, got complex128"):
        channel_mix(x, (1 + 1j) * np.eye(2))


# ---------------------------------------------------------------------------
# backward

def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(1).standard_normal((3, 4)),
               requires_grad=True)
    with Graph() as g:
        loss = reduce_sum(x)
    grads = backward(g, loss)
    npt.assert_array_equal(grads[x].data, np.ones((3, 4)))


def test_backward_relu_subgradient():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    with Graph() as g:
        loss = reduce_sum(relu(x))
    grads = backward(g, loss)
    npt.assert_array_equal(grads[x].data, [0.0, 1.0])


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph() as g:
        y = relu(x)
    with pytest.raises(ValueError, match="scalar"):
        backward(g, y)


def test_backward_refuses_a_loss_its_tape_did_not_record():
    # a loss computed after the with block has no node on the tape, so no
    # walk from it reaches a leaf: backward raises and keeps the tape
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    with Graph() as g:
        y = relu(x)
    loss = reduce_sum(y)
    with pytest.raises(ValueError, match="not recorded on this graph"):
        backward(g, loss)
    assert len(g) == 1
    with g:
        loss = reduce_sum(y)
    npt.assert_array_equal(backward(g, loss)[x].data, [0.0, 1.0])


def test_each_thread_tapes_only_its_own_ops():
    # a graph records the ops of the thread that entered it: two threads,
    # each held inside its graph until both have entered theirs, tape one
    # net's forward each, and each tape and input gradient is a lone run's
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(4, 4, 4),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    nets = [build_network(spec, seed=s) for s in (1, 2)]
    xs = [np.random.default_rng(s).standard_normal((2, 3, 8, 8))
          for s in (3, 4)]
    barrier = threading.Barrier(2, timeout=60)

    def tape_and_walk(net, x, wait):
        x = Tensor(x, requires_grad=True)
        with Graph() as graph:
            if wait:
                barrier.wait()
            loss = reduce_sum(net.forward(x, "eval"))
        nodes = list(graph.nodes)
        return x, nodes, backward(graph, loss)[x].data

    alone = [tape_and_walk(net, x, False) for net, x in zip(nets, xs)]
    results, errors = [None, None], []

    def run(i):
        try:
            results[i] = tape_and_walk(nets[i], xs[i], True)
        except Exception as exc:  # re-raised below, in the test's thread
            errors.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # switch threads between ops, not blocks
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    for net, (_, ref_nodes, ref_grad), (x, nodes, grad) in zip(
            nets, alone, results):
        assert [n.op for n in nodes] == [n.op for n in ref_nodes]
        produced = {n.output for n in nodes}
        leaves = {t for n in nodes for t in n.inputs
                  if t.requires_grad and t not in produced}
        assert x in leaves
        assert leaves <= {x} | {t for _, t, _ in net.parameters()}
        assert np.array_equal(grad, ref_grad)


def test_add_rejects_unequal_shapes():
    with pytest.raises(ValueError, match="equal shapes"):
        add(Tensor(np.ones((2, 3))), Tensor(np.ones(3)))


def test_backward_accumulates_over_fanout():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Graph() as g:
        loss = reduce_sum(add(x, x))
    grads = backward(g, loss)
    npt.assert_array_equal(grads[x].data, [2.0, 2.0])


# ---------------------------------------------------------------------------
# activity analysis: a walk differentiates only the inputs it wants

_ACTIVITY_CASES = [("conv2d", {"stride": s, "groups": g})
                   for s in (1, 2) for g in (1, 2, 4)]
_ACTIVITY_CASES += [("batch_norm", {"mode": m}) for m in ("train", "eval")]
_ACTIVITY_CASES += [("conv2d", {"stride": s, "groups": g, "mode": m,
                                "relu": True})
                    for s in (1, 2) for g in (1, 4) for m in ("train", "eval")]


def _one_op_tape(op, kwargs, dtype, declared=False):
    """A tape of relu(op(x, params)) summed, with x and every parameter
    requiring a gradient; 4 channels, so groups=4 is depthwise. A conv2d
    given a ``mode`` folds a batch norm in, with params (gamma, beta,
    kernel). A ``declared`` tape is declared for x alone."""
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True,
               dtype=dtype)
    bn = op == "batch_norm" or "mode" in kwargs
    params = ()
    if bn:
        params = tuple(Tensor(rng.standard_normal(4), requires_grad=True,
                              dtype=dtype) for _ in range(2))
        norm = _holding(*params, dtype, rng.standard_normal(4),
                        rng.uniform(0.5, 2.0, 4))
    if op == "conv2d":
        params += (Tensor(rng.standard_normal((4, 4 // kwargs["groups"], 3, 3)),
                          requires_grad=True, dtype=dtype),)
    with Graph(wrt=[x] if declared else None) as graph:
        if op == "conv2d" and bn:
            out = conv2d(x, params[2], padding=1, norm=norm, **kwargs)
        elif op == "conv2d":
            out = conv2d(x, *params, padding=1, **kwargs)
        else:
            out = batch_norm(x, norm, **kwargs)
        loss = reduce_sum(relu(out))
    return graph, loss, x, params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op,kwargs", _ACTIVITY_CASES,
                         ids=[f"{op}-{'-'.join(map(str, kw.values()))}"
                              for op, kw in _ACTIVITY_CASES])
def test_restricted_walk_skips_parameter_work(op, kwargs, dtype, monkeypatch):
    # a tape declared for x computes no parameter gradient, and x's
    # gradient is the one an undeclared tape of the same op gives
    tapes = [_one_op_tape(op, kwargs, dtype, declared=declared)
             for declared in (True, False)]
    returned = []
    for graph, *_ in tapes:
        def recorded(g, inner=graph.nodes[0].vjp_fn):
            returned.append(inner(g))
            return returned[-1]
        graph.nodes[0].vjp_fn = recorded
    columns = []
    im2col = ad._im2col
    monkeypatch.setattr(ad, "_im2col",
                        lambda *args: columns.append(1) or im2col(*args))

    graph, loss, x, params = tapes[0]
    restricted = ad.vjp(graph, {loss: np.ones_like(loss.data)}, wrt=[x])
    restricted_columns = len(columns)
    graph, loss, full_x, _ = tapes[1]
    full = backward(graph, loss)
    assert list(restricted) == [x]
    assert np.array_equal(restricted[x], full[full_x].data)
    assert returned[0][1:] == (None,) * len(params)
    assert all(g is not None for g in returned[1])
    if op == "conv2d":
        # stride 1 builds g's columns once, for the flipped-kernel input
        # gradient and the kernel gradient alike; stride 2 scatters columns
        # back, and its kernel gradient builds the input's columns
        expected = (1, 1) if kwargs["stride"] == 1 else (0, 1)
        assert (restricted_columns, len(columns) - restricted_columns) == expected


def _net_tape(net, x):
    xt = Tensor(x, requires_grad=True, dtype=net.dtype)
    with Graph() as graph:
        loss = reduce_sum(net.forward(xt, mode="train"))
    return graph, loss, xt


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
def test_walks_leave_no_stale_wants(wrapped):
    # a restricted walk marks parameters unwanted; the next full walk on the
    # same tape must mark them wanted again, also through wrapped vjp_fns
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(4, 4, 4),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    net = build_network(spec, seed=3)
    x = np.random.default_rng(9).standard_normal((2, 3, 8, 8))
    graph, loss, xt = _net_tape(net, x)
    if wrapped:
        for node in graph.nodes:
            node.vjp_fn = (lambda inner: lambda g: inner(g))(node.vjp_fn)
    seed = {loss: np.ones_like(loss.data)}
    params = [t for _, t, _ in net.parameters()]
    first = ad.vjp(graph, seed, wrt=[xt])[xt]
    # backward's own walk, on a tape that backward would free
    full = ad.vjp(graph, seed, wrt=[xt, *params])
    again = ad.vjp(graph, seed, wrt=[xt])[xt]
    fresh_graph, fresh_loss, fresh_x = _net_tape(net, x)
    fresh = backward(fresh_graph, fresh_loss)
    for name, t, _ in net.parameters():
        assert np.array_equal(full[t], fresh[t].data), name
    assert np.array_equal(full[xt], fresh[fresh_x].data)
    assert np.array_equal(first, full[xt])
    assert np.array_equal(again, first)


@pytest.mark.parametrize("case", ["fan_in", "fan_in_wrt", "leaf_in_wrt",
                                  "unreached", "unreached_returned"])
def test_callable_seeds_match_array_seeds(case):
    # a callable seed is called where the walk first touches its tensor, so
    # it is still the first term of that tensor's sum: the bits are those of
    # the array seed. ``mid``, stage 1's first block sum, is read by block
    # 2's conv and sum, whose pullbacks add into it before the walk reaches
    # the node that produced it; ``stray`` is on no tape, and ``tape`` asks
    # for every cotangent the walk makes
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(4, 4, 4),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    x = np.random.default_rng(9).standard_normal((2, 3, 8, 8))
    graph, loss, xt = _net_tape(build_network(spec, seed=3), x)
    mid = next(node.output for node in graph.nodes if node.op == "channel_mix")
    stray = Tensor(np.zeros((2, 4, 8, 8)))
    tape = oracles.tape_tensors(graph)
    seeded, wrt, unused = {
        "fan_in": ([mid], tape, []),
        "fan_in_wrt": ([mid], [xt], []),
        "leaf_in_wrt": ([xt], [xt], []),
        # xt is before mid, and neither xt nor stray is returned
        "unreached": ([xt, stray], [mid], [xt, stray]),
        "unreached_returned": ([stray], [*tape, stray], []),
    }[case]
    rng = np.random.default_rng(4)
    arrays = {loss: np.ones_like(loss.data)}
    arrays.update((t, rng.standard_normal(t.shape)) for t in seeded)
    expected = ad.vjp(graph, arrays, wrt=wrt)
    calls = dict.fromkeys(arrays, 0)

    def lazy(t):
        def seed():
            calls[t] += 1
            return arrays[t]
        return seed

    got = ad.vjp(graph, {t: lazy(t) for t in arrays}, wrt=wrt)
    assert got.keys() == expected.keys()
    for t, g in expected.items():
        assert np.array_equal(got[t], g)
    assert calls == {t: int(t not in unused) for t in arrays}


# ---------------------------------------------------------------------------
# declared tapes: Graph(wrt=...) keeps only what its walks can read

_DECLARED_CONVS = [(s, g, norm, mode) for s in (1, 2) for g in (1, 2, 4)
                   for norm, mode in ((None, "train"), ("bn", "train"),
                                      ("bn", "eval"), ("bn_relu", "train"),
                                      ("bn_relu", "eval"))]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("stride,groups,norm,mode", _DECLARED_CONVS,
                         ids=[f"s{s}-g{g}-{n or 'plain'}-{m}"
                              for s, g, n, m in _DECLARED_CONVS])
def test_declared_conv_input_gradient_is_the_undeclared_one(
        stride, groups, norm, mode, dtype):
    # a tape declared for x gives x's gradient bit for bit; an eval node,
    # or one with no normalization, then keeps nothing of x's array (with
    # a ReLU only A's one-byte mask), while a train node still reads x
    x, gamma, beta, mean, var, k = _bn_conv_arrays(c=4, o=4, groups=groups,
                                                   seed=60 + stride + groups)
    g = np.random.default_rng(61).standard_normal(
        (2, 4, 3 if stride == 2 else 6, 3 if stride == 2 else 5)).astype(dtype)
    grads, refs, tapes = [], [], []
    for declared in (False, True):
        xt = Tensor(x.astype(dtype), requires_grad=True)   # x's own copy
        gt, bt, kt = (Tensor(a, requires_grad=True, dtype=dtype)
                      for a in (gamma, beta, k))
        kwargs = {}
        if norm is not None:
            kwargs = dict(norm=_holding(gt, bt, dtype, mean, var), mode=mode,
                          relu=norm == "bn_relu")
        with Graph(wrt=[xt] if declared else None) as graph:
            out = conv2d(xt, kt, stride, 1, groups, **kwargs)
        refs.append(weakref.ref(xt.data))
        ad._release(xt)
        grads.append(ad.vjp(graph, {out: g}, wrt=[xt])[xt])
        tapes.append(graph)
    assert np.array_equal(grads[1], grads[0])
    assert refs[0]() is not None
    assert (refs[1]() is None) == (norm is None or mode == "eval")


def _declared_tape():
    """relu(x) * w summed, recorded on a tape declared for x alone, with
    w requiring a gradient too and ``y = relu(w)`` independent of x."""
    rng = np.random.default_rng(62)
    x, w = (Tensor(rng.standard_normal((2, 3)), requires_grad=True)
            for _ in range(2))
    with Graph(wrt=[x]) as graph:
        h = relu(x)
        y = relu(w)
        loss = reduce_sum(dense(h, Tensor(rng.standard_normal((3, 3)),
                                          requires_grad=True)))
    return graph, loss, x, h, w, y


def test_declared_walk_refuses_inactive_tensors():
    # the pullbacks of a declared tape captured nothing for a gradient
    # outside it, so a walk that seeds or asks for one raises before it
    # starts, a backward from a loss x does not reach too, and the tape is
    # still whole, for vjp walks as for backward's; backward's active
    # leaves are the declared x alone, not the dense weight or w
    graph, loss, x, h, w, y = _declared_tape()
    one = np.ones_like(loss.data)
    with pytest.raises(ValueError, match="declared graph"):
        ad.vjp(graph, {loss: one}, wrt=[w])
    with pytest.raises(ValueError, match="declared graph"):
        ad.vjp(graph, {y: np.ones((2, 3))}, wrt=[x])
    with graph:
        inactive = reduce_sum(y)
    with pytest.raises(ValueError, match="declared graph"):
        backward(graph, inactive)
    expected = ad.vjp(graph, {loss: one}, wrt=[x])
    assert len(graph) == 5
    got = backward(graph, loss)
    assert len(graph) == 0
    assert list(got) == [x]
    assert np.array_equal(got[x].data, expected[x])


def test_declared_graph_needs_requires_grad_tensors():
    with pytest.raises(ValueError, match="requires-grad tensors"):
        Graph(wrt=[Tensor(np.ones(3))])
    with pytest.raises(ValueError, match="requires-grad tensors"):
        Graph(wrt=[np.ones(3)])


def test_declared_tape_flags_only_active_inputs():
    # a node's pullback computes the gradients of the inputs its tape
    # flagged active: the relu of w, which x does not reach, none
    graph, _, x, h, w, y = _declared_tape()
    active = [[gi is not None for gi, _ in
               zip(node.vjp_fn(np.ones(node.output.shape)), node.inputs)]
              for node in graph.nodes]
    assert active == [[True], [False], [True, False], [True]]


def test_requires_grad_flipped_after_recording_changes_no_walk():
    # recording flags each input once: a leaf that stops or starts
    # requiring a gradient after its node is recorded changes neither
    # which gradients a later walk computes nor their bits
    rng = np.random.default_rng(64)
    x = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 3)))
    with Graph() as graph:
        loss = reduce_sum(relu(dense(x, w)))
    seed = {loss: np.ones_like(loss.data)}
    expected = ad.vjp(graph, seed, wrt=[x, w])
    x.requires_grad, w.requires_grad = False, True
    got = ad.vjp(graph, seed, wrt=[x, w])
    taken = backward(graph, loss)
    assert list(expected) == list(got) == list(taken) == [x]
    assert np.array_equal(got[x], expected[x])
    assert np.array_equal(taken[x].data, expected[x])


# ---------------------------------------------------------------------------
# fused ops: batch_norm(..., relu=True) and channel_mix(..., plus=y)

# Finite differences are taken on the float64 oracles with this step, so
# their own error (truncation h^2, rounding eps/h) stays near 1e-9 and
# bounds a float64 op; a float32 op is bounded by its rounding instead
# (about 1 eps seen).
_FD_STEP = 1e-6


def _fd_tol(dtype) -> float:
    return max(1e-7, 2.0 ** 6 * float(np.finfo(dtype).eps))


def _pulled(build, arrays, w):
    """Output of ``build`` on fresh leaves of ``arrays``, and the gradient
    of each leaf for the output cotangent ``w``."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    with Graph() as graph:
        out = build(*leaves)
    grads = ad.vjp(graph, {out: w}, wrt=leaves)
    return out.data, [grads[t] for t in leaves]


def _bn_arrays(dtype):
    rng = np.random.default_rng(61)
    x = rng.standard_normal((3, 4, 5, 5))
    gamma = rng.standard_normal(4) + 1.0
    beta = rng.standard_normal(4)
    mean = rng.standard_normal(4)
    var = rng.uniform(0.5, 2.0, 4)
    w = rng.standard_normal(x.shape)
    return [a.astype(dtype) for a in (x, gamma, beta, mean, var, w)]


def _bn_relu(mode, mean, var, fused):
    """BN + ReLU as one fused node or as batch_norm then relu, each call on
    a fresh BatchNorm holding ``mean``/``var``."""
    def build(x, gamma, beta):
        norm = _holding(gamma, beta, mean.dtype, mean, var)
        if fused:
            return batch_norm(x, norm, mode, relu=True)
        return relu(batch_norm(x, norm, mode))
    return build


def _check_against_oracle(oracle, arrays, out, grads, w, dtype):
    """``out`` against the float64 oracle, and each gradient against
    central differences of sum(w * oracle)."""
    tol = _fd_tol(dtype)
    ref = [a.astype(np.float64) for a in arrays]
    w = w.astype(np.float64)
    assert oracles.relative_error(out, oracle(*ref)) <= tol
    for arr, g in zip(ref, grads):
        assert g.dtype == dtype
        fd = oracles.numeric_gradient(lambda: float((w * oracle(*ref)).sum()),
                                      arr, _FD_STEP)
        assert oracles.relative_error(g, fd) <= tol


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_fused_batch_norm_relu_matches_oracle(mode, dtype):
    x, gamma, beta, mean, var, w = _bn_arrays(dtype)
    stats = {} if mode == "train" else {"mean": mean, "var": var}
    out, grads = _pulled(_bn_relu(mode, mean, var, fused=True),
                         (x, gamma, beta), w)
    _check_against_oracle(
        lambda *a: oracles.batch_norm_relu(*a, **stats), (x, gamma, beta),
        out, grads, w, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("mode", ["train", "eval"])
def test_fused_batch_norm_relu_is_batch_norm_then_relu(mode, dtype):
    x, gamma, beta, mean, var, w = _bn_arrays(dtype)
    x[0, 0, 1, 2] = np.nan
    gamma[3] = beta[3] = 0      # channel 3 normalizes to exactly 0
    fused = _pulled(_bn_relu(mode, mean, var, True), (x, gamma, beta), w)
    plain = _pulled(_bn_relu(mode, mean, var, False), (x, gamma, beta), w)
    assert np.array_equal(fused[0], plain[0], equal_nan=True)
    for a, b in zip(fused[1], plain[1]):
        assert a.dtype == b.dtype == dtype
        assert np.array_equal(a, b, equal_nan=True)
    _, (gx, ggamma, gbeta) = fused
    assert np.all(fused[0][:, 3] == 0)
    assert ggamma[3] == 0 and gbeta[3] == 0
    if mode == "eval":      # in train mode the NaN spreads over channel 0
        assert np.isnan(fused[0][0, 0, 1, 2]) and gx[0, 0, 1, 2] == 0


def _mix_arrays(dtype):
    rng = np.random.default_rng(62)
    x, y, w = (rng.standard_normal((2, 4, 3, 3)).astype(dtype)
               for _ in range(3))
    return x, y, rng.standard_normal((4, 4)), w


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_channel_mix_plus_matches_oracle(dtype):
    x, y, mat, w = _mix_arrays(dtype)
    out, grads = _pulled(lambda a, b: channel_mix(a, mat, plus=b), (x, y), w)
    _check_against_oracle(lambda a, b: oracles.mix_plus(mat, a, b), (x, y),
                          out, grads, w, dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fused_channel_mix_plus_is_channel_mix_then_add(dtype):
    x, y, mat, w = _mix_arrays(dtype)
    x[1, 2, 0, 0] = np.nan
    fused = _pulled(lambda a, b: channel_mix(a, mat, plus=b), (x, y), w)
    plain = _pulled(lambda a, b: add(channel_mix(a, mat), b), (x, y), w)
    assert np.array_equal(fused[0], plain[0], equal_nan=True)
    for a, b in zip(fused[1], plain[1]):
        assert a.dtype == b.dtype == dtype
        assert np.array_equal(a, b)


def test_fused_channel_mix_plus_passes_the_cotangent_through():
    # ``vjp`` sums fan-in in place only into arrays that share no memory
    # with the node's cotangent, so plus must get that cotangent itself
    x, y, mat, w = _mix_arrays(np.float64)
    leaves = [Tensor(x, requires_grad=True), Tensor(y, requires_grad=True)]
    with Graph() as graph:
        channel_mix(leaves[0], mat, plus=leaves[1])
    assert len(graph) == 1 and graph.nodes[0].inputs == tuple(leaves)
    gx, gy = graph.nodes[0].vjp_fn(w)
    assert gy is w and not np.may_share_memory(gx, w)


def test_fused_channel_mix_plus_checks_shapes():
    x = Tensor(np.ones((2, 3, 4, 4)))
    with pytest.raises(ValueError, match="equal shapes"):
        channel_mix(x, np.eye(3), plus=Tensor(np.ones((2, 3, 4, 5))))
    with pytest.raises(ValueError, match="dtype"):
        channel_mix(x, np.eye(3), plus=_f32(2, 3, 4, 4))


# ---------------------------------------------------------------------------
# live cotangents: a walk frees each one after its node

def test_backward_walk_memory_does_not_grow_with_depth():
    # 32 relu/add nodes on a 1 MiB array: a walk that keeps every cotangent
    # peaks at 18 arrays (add hands one array to both inputs); one that
    # frees them holds 3 at a time
    x = Tensor(np.random.default_rng(2).standard_normal((256, 512)),
               requires_grad=True)
    with Graph() as graph:
        h = x
        for _ in range(16):
            h = add(h, relu(h))
        loss = reduce_sum(h)
    assert len(graph) == 33
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = backward(graph, loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 4 * x.data.nbytes
    assert list(grads) == [x]


def _relu_add_chain(x, pairs):
    """h = add(h, relu(h)) ``pairs`` times, summed; returns the tape, the
    loss and every add output."""
    outputs = []
    with Graph() as graph:
        h = x
        for _ in range(pairs):
            h = add(h, relu(h))
            outputs.append(h)
        loss = reduce_sum(h)
    return graph, loss, outputs


def test_fan_in_adds_into_fresh_gradients_in_place():
    # at each relu/add pair the walk holds the cotangent, relu's bool mask
    # and relu's fresh gradient, into which the add's pass-through is
    # summed in place: 2 1/8 arrays; a sum into a new array would hold 3
    x = Tensor(np.random.default_rng(2).standard_normal((256, 512)),
               requires_grad=True)
    graph, loss, _ = _relu_add_chain(x, 16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = backward(graph, loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x.data.nbytes
    assert list(grads) == [x]


@pytest.mark.parametrize("restricted", [False, True],
                         ids=["unrestricted", "wrt"])
def test_fan_in_writes_no_seed_and_no_returned_cotangent(restricted):
    # a seed on a mid add output meets the next add's pass-through, and a
    # walk for every tensor on the tape returns cotangents that pullbacks
    # passed on: the in-place sum must write into neither
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    graph, loss, outputs = _relu_add_chain(x, 8)
    mid = rng.standard_normal((4, 5))
    seeds = {loss: np.ones_like(loss.data), outputs[3]: mid}
    kept = {t: s.copy() for t, s in seeds.items()}
    received = {}
    for node in graph.nodes:
        node.vjp_fn = (lambda inner, out: lambda g: (
            received.setdefault(out, g.copy()), inner(g))[1])(
                node.vjp_fn, node.output)
    grads = ad.vjp(graph, seeds,
                   wrt=[x] if restricted else oracles.tape_tensors(graph))
    for t, s in seeds.items():
        assert np.array_equal(s, kept[t])
    if not restricted:
        for out, g in received.items():
            assert np.array_equal(grads[out], g)
    expected = ad.vjp(graph, kept, wrt=[x])[x]
    assert np.array_equal(grads[x], expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_matches_keep_everything_walk(dtype):
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(4, 8, 8),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    net = build_network(spec, seed=5, dtype=dtype)
    x = np.random.default_rng(8).standard_normal((2, 3, 8, 8))
    graph, loss, xt = _net_tape(net, x)
    full = ad.vjp(graph, {loss: np.ones_like(loss.data)},
                  wrt=oracles.tape_tensors(graph))
    # the leaves come from a fresh tape of the same forward
    fresh_graph, fresh_loss, fresh_x = _net_tape(net, x)
    leaves = backward(fresh_graph, fresh_loss)
    params = [t for _, t, _ in net.parameters()]
    assert set(leaves) == {fresh_x, *params}
    for t, same in ((fresh_x, xt), *((p, p) for p in params)):
        assert leaves[t].dtype == dtype
        assert np.array_equal(leaves[t].data, full[same])


@pytest.mark.parametrize("declared", [False, True],
                         ids=["undeclared", "declared"])
def test_backward_returns_the_tapes_active_leaves(declared):
    # an undeclared tape's active leaves are its requires-grad inputs and
    # parameters, not a constant leaf or an op output; a declared tape's
    # are its declared input. Each gradient is a kept tape's walk, bit
    # for bit
    spec = NetworkSpec(blocks_per_stage=1, stage_widths=(4, 4, 4),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    net = build_network(spec, seed=6)
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
    shift = Tensor(rng.standard_normal((2, 10)))   # a constant leaf
    tapes = []
    for _ in range(2):
        with Graph(wrt=[x] if declared else None) as graph:
            loss = reduce_sum(add(net.forward(x, "eval"), shift))
        tapes.append((graph, loss))
    leaves = {x} if declared else {x, *(t for _, t, _ in net.parameters())}
    (kept, kept_loss), (taken, taken_loss) = tapes
    expected = ad.vjp(kept, {kept_loss: np.ones_like(kept_loss.data)},
                      wrt=leaves)
    got = backward(taken, taken_loss)
    assert set(got) == leaves
    for t in leaves:
        assert np.array_equal(got[t].data, expected[t])


# ---------------------------------------------------------------------------
# backward takes its tape as it walks; vjp keeps it

def _k2_tape():
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(4, 4, 4),
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    x = np.random.default_rng(9).standard_normal((2, 3, 8, 8))
    return _net_tape(build_network(spec, seed=3), x)


@pytest.mark.parametrize("walk, kept", [("backward", False), ("vjp", True)])
def test_backward_frees_the_tape_while_it_walks(walk, kept):
    # the stem's node is walked last; by then backward has dropped every
    # later node, so the inputs of the last block's two convolutions are
    # gone, while vjp keeps them for a second walk
    graph, loss, xt = _k2_tape()
    inputs = [weakref.ref(node.inputs[0].data) for node in graph.nodes
              if node.op == "conv2d"][-2:]
    stem = graph.nodes[0]
    assert stem.op == "conv2d" and stem.inputs[0] is xt
    alive = []
    stem.vjp_fn = (lambda inner: lambda g: (
        alive.append([ref() is not None for ref in inputs]), inner(g))[1])(
            stem.vjp_fn)
    del stem
    assert all(ref() is not None for ref in inputs)
    if walk == "backward":
        backward(graph, loss)
    else:
        ad.vjp(graph, {loss: np.ones_like(loss.data)}, wrt=[xt])
    assert alive == [[kept, kept]]


def test_backward_empties_its_graph_and_refuses_a_second_walk():
    graph, loss, xt = _k2_tape()
    backward(graph, loss)
    assert len(graph) == 0
    seed = {loss: np.ones_like(loss.data)}
    for walk in (lambda: backward(graph, loss),
                 lambda: ad.vjp(graph, seed, wrt=[xt])):
        with pytest.raises(ValueError, match="freed by backward.*vjp"):
            walk()


@pytest.mark.parametrize("restricted", [False, True],
                         ids=["unrestricted", "wrt"])
def test_vjp_walks_keep_the_tape(restricted):
    graph, loss, xt = _k2_tape()
    nodes = len(graph)
    seed = {loss: np.ones_like(loss.data)}
    wrt = [xt] if restricted else oracles.tape_tensors(graph)
    first = ad.vjp(graph, seed, wrt=wrt)
    second = ad.vjp(graph, seed, wrt=wrt)
    assert len(graph) == nodes
    assert first.keys() == second.keys()
    for t, g in first.items():
        assert np.array_equal(second[t], g)


def test_train_step_peaks_at_most_one_activation_above_its_forward():
    # backward frees stages 3 and 2 before it walks stage 1, so the stage-1
    # pullbacks run beside stage 1's activations only; 0.51 stage-1
    # activations above the forward here, 3.42 over a tape kept whole
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(4, 8, 16),
                       input_shape=(3, 32, 32))
    net = build_network(spec, seed=1)
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((32, 3, 32, 32)))
    labels = rng.integers(0, 10, 32)
    activation = 32 * 4 * 32 * 32 * x.data.itemsize
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        with Graph() as graph:
            loss = softmax_cross_entropy(net.forward(x, mode="train"), labels)
        forward = tracemalloc.get_traced_memory()[1] - base
        backward(graph, loss)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= forward + activation


def _finite_difference_check(build_loss, tensors, h=1e-3, tol=1e-3):
    """Analytic vs central-difference gradients for every listed tensor."""
    with Graph() as g:
        loss = build_loss()
    grads = backward(g, loss)
    for t in tensors:
        fd = oracles.numeric_gradient(lambda: float(build_loss().data), t.data, h)
        assert t in grads, "missing analytic gradient"
        err = oracles.relative_error(grads[t].data, fd)
        assert err <= tol, f"gradient mismatch {err:.2e} for {t}"


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_conv(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
    k = Tensor(rng.standard_normal((6, 2, 3, 3)) * 0.5, requires_grad=True)
    w = Tensor(rng.standard_normal((3, 6)))
    labels = np.array([0, 2])

    def loss():
        out = conv2d(x, k, stride=2, padding=1, groups=2)
        return softmax_cross_entropy(dense(global_avg_pool(out), w), labels)

    _finite_difference_check(loss, [x, k])


@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("groups", [1, 2, 4], ids=["dense", "grouped",
                                                   "depthwise"])
def test_gradcheck_conv_stride1(groups, padding):
    # stride 1 takes both gradients from the output gradient's columns
    rng = np.random.default_rng(10 * groups + padding)
    x = Tensor(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
    k = Tensor(rng.standard_normal((8, 4 // groups, 3, 3)) * 0.5,
               requires_grad=True)
    w = Tensor(rng.standard_normal((3, 8)))
    labels = np.array([0, 2])

    def loss():
        out = conv2d(x, k, padding=padding, groups=groups)
        return softmax_cross_entropy(dense(global_avg_pool(out), w), labels)

    _finite_difference_check(loss, [x, k])


@pytest.mark.parametrize("stride", [1, 2])
def test_gradcheck_conv_multi_chunk(stride, monkeypatch):
    # a one-byte column budget runs the pullback one image per chunk
    monkeypatch.setattr(ad, "_PULLBACK_COLUMN_BYTES", 1)
    rng = np.random.default_rng(20 + stride)
    x = Tensor(rng.standard_normal((3, 4, 5, 5)), requires_grad=True)
    k = Tensor(rng.standard_normal((6, 2, 3, 3)) * 0.5, requires_grad=True)
    w = Tensor(rng.standard_normal((3, 6)))
    labels = np.array([0, 2, 1])

    def loss():
        out = conv2d(x, k, stride=stride, padding=1, groups=2)
        return softmax_cross_entropy(dense(global_avg_pool(out), w), labels)

    _finite_difference_check(loss, [x, k])


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_batch_norm_train(seed):
    rng = np.random.default_rng(100 + seed)
    x = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(2) + 1.5, requires_grad=True)
    beta = Tensor(rng.standard_normal(2), requires_grad=True)
    norm = _holding(gamma, beta)

    def loss():
        out = batch_norm(x, norm, mode="train")
        return reduce_sum(relu(out))

    _finite_difference_check(loss, [x, gamma, beta])


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_dense_softmax(seed):
    rng = np.random.default_rng(200 + seed)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    labels = rng.integers(0, 5, size=4)

    def loss():
        return softmax_cross_entropy(dense(x, w, b), labels)

    _finite_difference_check(loss, [x, w, b])


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_pool_mix(seed):
    rng = np.random.default_rng(300 + seed)
    x = Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True)
    mat = rng.standard_normal((4, 4))
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    labels = np.array([0, 2])

    def loss():
        h = channel_mix(x, mat)
        h = global_avg_pool(h)
        return softmax_cross_entropy(dense(h, w), labels)

    _finite_difference_check(loss, [x, w])


def test_gradcheck_full_block():
    # one y = Px + F(x) unit with a random mixing matrix, checked end to end
    rng = np.random.default_rng(42)
    blk = BuildingBlock(8, 1, tr.make_orthogonal_random(8, 17),
                        np.random.default_rng(5))
    x = Tensor(rng.standard_normal((2, 8, 5, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 8)))
    labels = np.array([1, 3])

    def loss():
        y = blk.forward(x, mode="train")
        return softmax_cross_entropy(dense(global_avg_pool(y), w), labels)

    params = [x, blk.conv1, blk.conv2, blk.bn1.gamma, blk.bn1.beta,
              blk.bn2.gamma, blk.bn2.beta]
    _finite_difference_check(loss, params)


def test_deterministic_forward_and_gradients():
    def run():
        rng = np.random.default_rng(77)
        blk = BuildingBlock(4, 1, tr.make_identity(4),
                            np.random.default_rng(3))
        x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
        with Graph() as g:
            loss = reduce_sum(relu(blk.forward(x, mode="train")))
        grads = backward(g, loss)
        return loss.data.copy(), {id(t): v.data.copy() for t, v in grads.items()}

    (l1, g1), (l2, g2) = run(), run()
    assert np.array_equal(l1, l2)
    # same construction order gives the same id ordering is not guaranteed;
    # compare sorted gradient arrays instead
    for a, b in zip(sorted(g1.values(), key=lambda v: v.shape + (float(v.sum()),)),
                    sorted(g2.values(), key=lambda v: v.shape + (float(v.sum()),))):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# optimizer

def test_sgd_plain_reduction():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = {p: Tensor(np.array([0.5, 0.5]))}
    state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.0)
    sgd_nesterov_step([p], g, state)
    npt.assert_allclose(p.data, [1.0 - 0.05, -2.0 - 0.05], rtol=1e-12)


def test_sgd_zero_grad_keeps_params():
    p = Tensor(np.array([3.0]), requires_grad=True)
    state = OptimState(lr=0.1, momentum=0.9, weight_decay=0.0)
    sgd_nesterov_step([p], {p: Tensor(np.array([0.0]))}, state)
    npt.assert_array_equal(p.data, [3.0])


def test_sgd_two_step_hand_oracle():
    # p=1, g=1, lr=0.1, mu=0.9, wd=0:
    #  step 1: v = -0.1,  p = 1 + 0.9*(-0.1) - 0.1 = 0.81
    #  step 2: v = -0.19, p = 0.81 + 0.9*(-0.19) - 0.1 = 0.539
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimState(lr=0.1, momentum=0.9, weight_decay=0.0)
    g = {p: Tensor(np.array([1.0]))}
    sgd_nesterov_step([p], g, state)
    npt.assert_allclose(p.data, [0.81], rtol=1e-12)
    sgd_nesterov_step([p], g, state)
    npt.assert_allclose(p.data, [0.539], rtol=1e-12)


@pytest.mark.parametrize("param_dtype,grad_dtype", [
    (np.float32, np.float64), (np.float64, np.float32)])
def test_sgd_rejects_a_gradient_of_another_dtype(param_dtype, grad_dtype):
    # the in-place update would round a float64 gradient into a float32
    # parameter, here a built net's stem; nothing is stepped
    net = build_network(NetworkSpec(blocks_per_stage=1, stage_widths=(4, 4, 4),
                                    input_shape=(3, 4, 4)),
                        seed=0, dtype=param_dtype)
    before = net.stem.data.copy()
    grads = {net.stem: Tensor(np.ones(before.shape, dtype=grad_dtype))}
    state = OptimState(lr=0.1)
    with pytest.raises(ValueError, match="gradient dtype"):
        sgd_nesterov_step([net.stem], grads, state)
    assert np.array_equal(net.stem.data, before)
    assert not state.velocities


def test_sgd_rejects_a_gradient_of_another_shape_and_skips_a_missing_one():
    p = Tensor(np.ones(3), requires_grad=True)
    q = Tensor(np.ones(2), requires_grad=True)
    state = OptimState(lr=0.1)
    with pytest.raises(ValueError, match=r"gradient shape \(2,\) does not "
                                         r"match parameter \(3,\)"):
        sgd_nesterov_step([p], {p: Tensor(np.ones(2))}, state)
    sgd_nesterov_step([q, p], {p: Tensor(np.ones(3))}, state)
    npt.assert_array_equal(q.data, [1.0, 1.0])
    assert list(state.velocities) == [p]


@pytest.mark.parametrize("bad,match", [
    (np.ones(3), r"gradient shape \(3,\) does not match parameter \(2,\)"),
    (np.ones(2, dtype=np.float32), "gradient dtype float32 does not match")])
def test_sgd_checks_every_gradient_before_any_write(bad, match):
    # a bad gradient for the last parameter raises before the first one is
    # stepped or any velocity is allocated
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    q = Tensor(np.array([0.5, 0.25]), requires_grad=True)
    before = [p.data.copy(), q.data.copy()]
    state = OptimState(lr=0.1, momentum=0.9, weight_decay=1e-4)
    with pytest.raises(ValueError, match=match):
        sgd_nesterov_step([p, q], {p: Tensor(np.ones(3)), q: Tensor(bad)},
                          state)
    for param, kept in zip((p, q), before):
        assert np.array_equal(param.data, kept)
    assert not state.velocities


@pytest.mark.parametrize("name,value", [
    ("lr", float("nan")), ("lr", -0.1), ("momentum", float("inf")),
    ("momentum", -0.9), ("weight_decay", float("nan")),
    ("weight_decay", -1e-4)])
def test_sgd_rejects_a_bad_hyperparameter_before_any_write(name, value):
    # checked on every call, as a schedule may set lr between steps; one NaN
    # lr would turn every parameter NaN
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    state = OptimState(lr=0.1, momentum=0.9, weight_decay=1e-4)
    grads = {p: Tensor(np.array([0.5, 0.5]))}
    sgd_nesterov_step([p], grads, state)
    before, velocity = p.data.copy(), state.velocities[p].copy()
    setattr(state, name, value)
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be finite and non-negative, got {value!r}")):
        sgd_nesterov_step([p], grads, state)
    assert np.array_equal(p.data, before)
    assert np.array_equal(state.velocities[p], velocity)


def test_sgd_weight_decay_exclusion():
    p = Tensor(np.array([2.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    grads = {p: Tensor(np.array([0.0])), q: Tensor(np.array([0.0]))}
    state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.5)
    sgd_nesterov_step([p, q], grads, state, no_decay=[q])
    npt.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0], rtol=1e-12)
    npt.assert_array_equal(q.data, [2.0])
