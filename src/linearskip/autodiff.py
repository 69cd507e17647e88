"""Dense tensors, a recording tape, and reverse-mode differentiation.

The forward operations cover exactly what the building blocks need:
convolution, batch normalization, ReLU, pooling, affine layers, channel
mixing, and softmax cross-entropy. Every operation executed while a
:class:`Graph` is active is appended to the tape; :func:`backward` and
:func:`vjp` walk the tape in reverse to produce gradients.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "Graph",
    "Node",
    "BatchNormState",
    "conv2d",
    "batch_norm",
    "relu",
    "global_avg_pool",
    "dense",
    "add",
    "channel_mix",
    "reduce_sum",
    "softmax_cross_entropy",
    "backward",
    "vjp",
]

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """Dense N-dimensional array, optionally participating in gradients.

    ``data`` is always a float32 or float64 numpy array; anything else is
    promoted to float64. Tensors hash by identity, which is what the tape
    and gradient maps key on.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.ascontiguousarray(arr, dtype=dtype)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


class Node:
    """One executed operation: inputs, output, and VJP.

    ``vjp_fn`` maps the output cotangent to one gradient (or None) per
    input. It is a plain writable slot, so a caller may wrap it, for
    example to time each node's backward step.
    """

    __slots__ = ("op", "inputs", "output", "vjp_fn")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 vjp_fn: Callable):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
        self.vjp_fn = vjp_fn


_ACTIVE_GRAPHS: list["Graph"] = []


class Graph:
    """Tape of executed operations, in recording order.

    Recording order is a topological order of the computation, so reverse
    iteration is sufficient for backpropagation.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __enter__(self) -> "Graph":
        _ACTIVE_GRAPHS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE_GRAPHS.pop()

    def __len__(self) -> int:
        return len(self.nodes)


def _record(op: str, inputs: Sequence[Tensor], out_data: np.ndarray,
            vjp_fn: Callable) -> Tensor:
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if _ACTIVE_GRAPHS:
        _ACTIVE_GRAPHS[-1].nodes.append(Node(op, inputs, out, vjp_fn))
    return out


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# ---------------------------------------------------------------------------
# convolution

def _conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    return (size + 2 * padding - k) // stride + 1


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
            groups: int) -> np.ndarray:
    """Columns of the zero-padded NCHW input ``x``, one matrix per group.

    Layout (groups, cg*kh*kw, n*ho*wo): row (ci, i, j) holds tap (i, j) of
    channel ci of the group, column (ni, yi, xi) one output position. The
    fill is kh*kw strided copies out of one padded, channel-major copy of
    ``x``; a conv is then one GEMM per group against these columns.
    """
    n, c, h, w = x.shape
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)
    xp = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + stride * ho:stride,
                               j:j + stride * wo:stride]
    return cols.reshape(groups, (c // groups) * kh * kw, n * ho * wo)


def _correlate(x: np.ndarray, kmat: np.ndarray, kh: int, kw: int,
               stride: int, padding: int) -> np.ndarray:
    """Grouped cross-correlation of NCHW ``x`` with a (groups, og, cg*kh*kw)
    kernel matrix; returns a contiguous (n, groups*og, ho, wo) array."""
    n, _, h, w = x.shape
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)
    out = np.matmul(kmat, _im2col(x, kh, kw, stride, padding, kmat.shape[0]))
    return np.ascontiguousarray(
        out.reshape(-1, n, ho, wo).transpose(1, 0, 2, 3))


def _col2im(gcols: np.ndarray, xp_shape: tuple, stride: int) -> np.ndarray:
    """Scatter-add (C, kh, kw, N, ho, wo) column gradients back onto the
    padded input, returned channel-major as (C, N, H + 2p, W + 2p)."""
    c, kh, kw, n, ho, wo = gcols.shape
    gxp = np.zeros(xp_shape, dtype=gcols.dtype)
    for i in range(kh):
        for j in range(kw):
            gxp[:, :, i:i + stride * ho:stride,
                j:j + stride * wo:stride] += gcols[:, i, j]
    return gxp


def conv2d(x, kernel, stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW input, OIHW kernel.

    Supports grouped convolution; ``groups == channels`` gives the
    depthwise case. Linear in both input and kernel.

    The VJP retains only the input and kernel arrays, which the node
    already references; no im2col columns outlive the forward call. The
    kernel gradient rebuilds the columns. At stride 1 the input gradient is
    a correlation of the output gradient with the flipped, in/out
    transposed kernel; otherwise column gradients are scattered back with
    ``_col2im``. Either way the backward builds one transient column-sized
    buffer per gradient, freed before the VJP returns.
    """
    x = _as_tensor(x)
    kernel = _as_tensor(kernel)
    xd, kd = x.data, kernel.data
    if xd.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {xd.shape}")
    if kd.ndim != 4:
        raise ValueError(f"conv2d expects OIHW kernel, got shape {kd.shape}")
    n, c, h, w = xd.shape
    o, cg, kh, kw = kd.shape
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")
    if c % groups != 0 or o % groups != 0:
        raise ValueError(
            f"channels in={c}, out={o} must both be divisible by groups={groups}")
    if cg != c // groups:
        raise ValueError(
            f"kernel expects {cg} input channels per group, input supplies "
            f"{c // groups} ({c} channels / {groups} groups)")
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)
    if ho <= 0 or wo <= 0:
        raise ValueError(
            f"kernel {kh}x{kw} with stride {stride}, padding {padding} does not "
            f"fit input {h}x{w}")

    og = o // groups
    kmat = kd.reshape(groups, og, cg * kh * kw)
    out_data = _correlate(xd, kmat, kh, kw, stride, padding)
    # the flipped kernel pads kernel - 1 - padding on every side: that needs
    # a square kernel wider than the padding
    flipped = stride == 1 and kh == kw and padding < kh

    def vjp_fn(g: np.ndarray):
        gx = gk = gg = None
        if kernel.requires_grad or (x.requires_grad and not flipped):
            gg = g.transpose(1, 0, 2, 3).reshape(groups, og, n * ho * wo)
        if kernel.requires_grad:
            cols = _im2col(xd, kh, kw, stride, padding, groups)
            # (columns @ g^T)^T: OpenBLAS ran this tall-output GEMM 1.3 to
            # 1.9x faster than g @ columns^T on the stage-1 shapes
            gk = np.matmul(cols, gg.transpose(0, 2, 1))
            gk = gk.transpose(0, 2, 1).reshape(kd.shape)
            del cols
        if x.requires_grad and flipped:
            kflip = kd.reshape(groups, og, cg, kh, kw)[..., ::-1, ::-1]
            kflip = kflip.transpose(0, 2, 1, 3, 4).reshape(groups, cg, -1)
            gx = _correlate(g, kflip, kh, kw, 1, kh - 1 - padding)
        elif x.requires_grad:
            gcols = np.matmul(kmat.transpose(0, 2, 1), gg)
            gcols = gcols.reshape(c, kh, kw, n, ho, wo)
            gxp = _col2im(gcols, (c, n, h + 2 * padding, w + 2 * padding),
                          stride)
            gx = gxp[:, :, padding:padding + h,
                     padding:padding + w].transpose(1, 0, 2, 3)
        return gx, gk

    return _record("conv2d", (x, kernel), out_data, vjp_fn)


# ---------------------------------------------------------------------------
# batch normalization

class BatchNormState:
    """Running mean/variance buffers for one batch-norm layer."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int, dtype=np.float64):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


def batch_norm(x, gamma, beta, state: BatchNormState, mode: str = "train",
               eps: float = 1e-5, momentum: float = 0.9) -> Tensor:
    """Per-channel batch normalization over NCHW input.

    ``train`` normalizes with batch statistics and updates the running
    buffers by exponential moving average; ``eval`` uses the stored
    running statistics. Variance is the biased (ddof=0) estimator in both
    the batch computation and the running buffers.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"batch_norm expects NCHW input, got shape {xd.shape}")
    n, c, h, w = xd.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(
            f"gamma/beta must have shape ({c},), got {gamma.data.shape} and "
            f"{beta.data.shape}")
    if n == 0:
        raise ValueError("batch_norm requires a non-empty batch")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    m = n * h * w

    if mode == "train":
        mu = xd.mean(axis=(0, 2, 3))
        ex2 = np.einsum("nchw,nchw->c", xd, xd) / m
        var = np.maximum(ex2 - mu * mu, 0.0)
        state.running_mean *= momentum
        state.running_mean += (1.0 - momentum) * mu
        state.running_var *= momentum
        state.running_var += (1.0 - momentum) * var
    else:
        mu = state.running_mean.astype(xd.dtype)
        var = state.running_var.astype(xd.dtype)

    invstd = 1.0 / np.sqrt(var + eps)
    scale = (gamma.data * invstd).astype(xd.dtype)
    shift = (beta.data - mu * scale).astype(xd.dtype)
    out_data = xd * scale[None, :, None, None] + shift[None, :, None, None]

    mu_c = mu.astype(xd.dtype)
    invstd_c = invstd.astype(xd.dtype)

    def vjp_fn(g: np.ndarray):
        gx = ggamma = gbeta = None
        xhat = (xd - mu_c[None, :, None, None]) * invstd_c[None, :, None, None]
        gsum = g.sum(axis=(0, 2, 3))
        gx_hat_sum = np.einsum("nchw,nchw->c", g, xhat)
        if beta.requires_grad:
            gbeta = gsum.astype(beta.dtype)
        if gamma.requires_grad:
            ggamma = gx_hat_sum.astype(gamma.dtype)
        if x.requires_grad:
            if mode == "train":
                coeff = (gamma.data.astype(xd.dtype) * invstd_c) / m
                gx = coeff[None, :, None, None] * (
                    m * g
                    - gsum[None, :, None, None]
                    - xhat * gx_hat_sum[None, :, None, None])
            else:
                gx = g * scale[None, :, None, None]
        return gx, ggamma, gbeta

    return _record("batch_norm", (x, gamma, beta), out_data, vjp_fn)


# ---------------------------------------------------------------------------
# elementwise and reductions

def relu(x) -> Tensor:
    """Elementwise max(x, 0); the gradient at exactly zero is zero."""
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0)
    mask = x.data > 0

    def vjp_fn(g: np.ndarray):
        return (g * mask if x.requires_grad else None,)

    return _record("relu", (x,), out_data, vjp_fn)


def global_avg_pool(x) -> Tensor:
    """Spatial mean: NCHW -> NC."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError(f"global_avg_pool expects NCHW input, got {x.shape}")
    n, c, h, w = x.data.shape
    out_data = x.data.mean(axis=(2, 3))

    def vjp_fn(g: np.ndarray):
        if not x.requires_grad:
            return (None,)
        gx = np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w))
        return (np.ascontiguousarray(gx),)

    return _record("global_avg_pool", (x,), out_data, vjp_fn)


def dense(x, weight, bias=None) -> Tensor:
    """Affine layer: (N,C) @ (K,C)^T + (K,) -> (N,K)."""
    x, weight = _as_tensor(x), _as_tensor(weight)
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ValueError(
            f"dense expects 2-D input and weight, got {x.shape} and {weight.shape}")
    if x.data.shape[1] != weight.data.shape[1]:
        raise ValueError(
            f"dense input has {x.data.shape[1]} features, weight expects "
            f"{weight.data.shape[1]}")
    inputs = (x, weight)
    out_data = x.data @ weight.data.T
    if bias is not None:
        bias = _as_tensor(bias)
        if bias.data.shape != (weight.data.shape[0],):
            raise ValueError(
                f"bias must have shape ({weight.data.shape[0]},), got "
                f"{bias.data.shape}")
        inputs += (bias,)
        out_data = out_data + bias.data

    def vjp_fn(g: np.ndarray):
        gx = g @ weight.data if x.requires_grad else None
        gw = g.T @ x.data if weight.requires_grad else None
        gb = g.sum(axis=0) if bias is not None and bias.requires_grad else None
        return gx, gw, gb

    return _record("dense", inputs, out_data, vjp_fn)


def add(a, b) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"add needs equal shapes, got {a.data.shape} and "
                         f"{b.data.shape}")
    out_data = a.data + b.data

    def vjp_fn(g: np.ndarray):
        return (g if a.requires_grad else None,
                g if b.requires_grad else None)

    return _record("add", (a, b), out_data, vjp_fn)


def channel_mix(x, matrix: np.ndarray) -> Tensor:
    """Apply a fixed channel-mixing matrix at every spatial position.

    Equivalent to a 1x1 convolution with constant kernel; the matrix is a
    non-trainable buffer, so the only gradient is matrix^T @ g into x.
    """
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError(f"channel_mix expects NCHW input, got {x.shape}")
    n, c, h, w = x.data.shape
    mat = np.asarray(matrix)
    if mat.shape != (c, c):
        raise ValueError(
            f"mixing matrix has shape {mat.shape}, input has {c} channels")
    mat = mat.astype(x.dtype, copy=False)
    mat_t = np.ascontiguousarray(mat.T)
    out_data = np.matmul(mat, x.data.reshape(n, c, h * w)).reshape(n, c, h, w)

    def vjp_fn(g: np.ndarray):
        if not x.requires_grad:
            return (None,)
        gx = np.matmul(mat_t, g.reshape(n, c, h * w)).reshape(n, c, h, w)
        return (gx,)

    return _record("channel_mix", (x,), out_data, vjp_fn)


def reduce_sum(x) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    x = _as_tensor(x)
    out_data = np.asarray(x.data.sum())

    def vjp_fn(g: np.ndarray):
        if not x.requires_grad:
            return (None,)
        return (np.full(x.data.shape, g, dtype=x.dtype),)

    return _record("reduce_sum", (x,), out_data, vjp_fn)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be (N, K), got {logits.shape}")
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(
            f"labels must lie in [0, {k}), got range "
            f"[{labels.min()}, {labels.max()}]")
    labels = labels.astype(np.int64)
    ld = logits.data
    shifted = ld - ld.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + ld.max(axis=1)
    out_data = np.asarray((lse - ld[np.arange(n), labels]).mean())

    def vjp_fn(g: np.ndarray):
        if not logits.requires_grad:
            return (None,)
        e = np.exp(shifted)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _record("softmax_cross_entropy", (logits,), out_data, vjp_fn)


# ---------------------------------------------------------------------------
# reverse pass

def vjp(graph: Graph, seeds: dict,
        wrt: Optional[Iterable[Tensor]] = None) -> dict:
    """Vector-Jacobian product through a recorded graph.

    ``seeds`` maps each tensor to the cotangent the walk starts from
    there, and gradients accumulate into every tensor reached walking the
    tape backwards; a VJP is linear in its cotangent, so several seeds
    give the sum of their single-seed products. Returns a map from tensor
    to gradient array; restricted to ``wrt`` when given.

    With ``wrt``, only nodes with an input that depends on a ``wrt``
    tensor are walked: no other node can add to a ``wrt`` gradient, so
    the result is the same bit for bit.
    """
    grads = {t: np.asarray(seed, dtype=t.dtype) for t, seed in seeds.items()}
    for t, seed in grads.items():
        if seed.shape != t.data.shape:
            raise ValueError(
                f"seed shape {seed.shape} does not match tensor {t.data.shape}")
    nodes = graph.nodes
    if wrt is not None:
        wrt = list(wrt)
        reach = set(wrt)
        nodes = []
        for node in graph.nodes:
            if any(t in reach for t in node.inputs):
                nodes.append(node)
                reach.add(node.output)
    for node in reversed(nodes):
        g = grads.get(node.output)
        if g is None:
            continue
        for t, gi in zip(node.inputs, node.vjp_fn(g)):
            if gi is None:
                continue
            acc = grads.get(t)
            grads[t] = gi if acc is None else acc + gi
    if wrt is not None:
        return {t: grads[t] for t in wrt if t in grads}
    return grads


def backward(graph: Graph, loss: Tensor) -> dict:
    """Gradient of a scalar loss for every requires_grad tensor in the graph.

    Fan-out accumulates; the graph itself is left untouched and can be
    walked again (e.g. for extra vector-Jacobian probes).
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    grads = vjp(graph, {loss: np.ones_like(loss.data)})
    return {t: Tensor(g) for t, g in grads.items() if t.requires_grad}
