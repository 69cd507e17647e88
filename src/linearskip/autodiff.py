"""Dense tensors, a recording tape, and reverse-mode differentiation.

The forward operations are the ones the networks and analyses use:
convolution (with an optional batch normalization and ReLU of its
input folded in), batch normalization (with an optional fused ReLU),
add, channel mixing, global pooling, dense, softmax cross-entropy and
reduce_sum, plus a standalone ReLU that no block calls. Every operation
executed while a :class:`Graph` is active is appended to the tape;
:func:`backward` and :func:`vjp` walk the tape in reverse to produce
gradients.

A tape node keeps its input and output tensors, and its VJP closure
keeps what its pullback reads: mostly the same arrays, plus per-channel
statistics and the like. So every array an op returns lives until the
tape is dropped, and an array that only feeds the next op, or that is a
cheap function of an array the tape already holds, is dead weight there.
Three such pairs are therefore one op each. ``conv2d(x, k, gamma=...,
beta=..., state=..., relu=...)`` convolves ``relu?(batch_norm(x))``:
the normalized input is a per-channel affine map of x, so its pullback
recomputes it one batch chunk at a time instead of keeping it.
``batch_norm(..., relu=True)`` clamps in place, since ReLU's pullback
needs only its output, and ``channel_mix(x, P, plus=y)`` adds y into the
mix, since the sum's pullback needs nothing at all. For the same reason
a building block's sum takes over the array of its branch output F(x),
which the tape then keeps only as a key. A building block so keeps no
array that only its next op reads (see ``network.BuildingBlock``).

A walk frees each cotangent once its node has consumed it, so it holds
only the cotangents still live, not one per tape node. The exception is
an unrestricted :func:`vjp` (no ``wrt``), which keeps and returns every
cotangent, intermediate ones included. :func:`backward` returns the
gradients of leaves only: parameters and inputs, never op outputs.

One dtype rule holds for every operation: the tensors it takes and the
array it records share one dtype, float32 or float64. Nothing is cast
silently; ``_record`` raises ``ValueError`` when operands differ, and a
caller converts its arrays first (a network builds everything in its own
dtype). Only fixed non-Tensor operands, such as ``channel_mix``'s matrix,
are cast to the input's dtype.
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
_BN_EPS, _BN_MOMENTUM = 1e-5, 0.9  # batch norm: variance floor, EMA keep
# column bytes a conv pullback builds per batch chunk: half a 2 MiB L2
_PULLBACK_COLUMN_BYTES = 1 << 20


class Tensor:
    """Dense N-dimensional array, optionally participating in gradients.

    ``data`` is a float32 or float64 numpy array: ``dtype`` must be one of
    them, other real data is promoted to float64 and complex data refused.
    Tensors hash by identity, which is what the tape and gradient maps key on.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if np.iscomplexobj(arr):
            raise ValueError(f"Tensor data must be real, got {arr.dtype}")
        if dtype is not None:
            if np.dtype(dtype) not in _FLOAT_DTYPES:
                raise ValueError(f"dtype must be float32 or float64, got "
                                 f"{np.dtype(dtype)}")
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

    ``vjp_fn`` maps the output cotangent to one gradient per input, or
    None for each input that ``wanted`` marks False. It is a plain
    writable slot, so a caller may wrap it, for example to time each
    node's backward step.

    ``wanted`` holds one flag per input: recording sets each from the
    input's ``requires_grad``, and every walk of :func:`vjp` rewrites the
    list in place before calling ``vjp_fn``, so a wrapped ``vjp_fn`` reads
    the walk's own flags.
    """

    __slots__ = ("op", "inputs", "output", "vjp_fn", "wanted")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 vjp_fn: Callable, wanted: list):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
        self.vjp_fn = vjp_fn
        self.wanted = wanted


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
            pullback: Callable) -> Tensor:
    """Append one node to the active tape; ``pullback(g, *wanted)`` gets
    the output cotangent and one flag per input, and computes a gradient
    only for the inputs flagged True."""
    dtypes = {t.dtype for t in inputs} | {out_data.dtype}
    if len(dtypes) > 1:
        raise ValueError(f"{op} mixes dtypes {sorted(map(str, dtypes))}")
    out = Tensor(out_data, requires_grad=any(t.requires_grad for t in inputs))
    if _ACTIVE_GRAPHS:
        wanted = [t.requires_grad for t in inputs]
        _ACTIVE_GRAPHS[-1].nodes.append(
            Node(op, inputs, out, lambda g: pullback(g, *wanted), wanted))
    return out


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
    ``x``. Only the pullbacks use these columns, one batch chunk at a
    time; the forward uses the kw-fold :func:`_row_columns`.
    """
    n, c, h, w = x.shape
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)
    xp = _padded_channel_major(x, padding)
    cols = np.empty((c, kh, kw, n, ho, wo), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = xp[:, :, i:i + stride * ho:stride,
                               j:j + stride * wo:stride]
    return cols.reshape(groups, (c // groups) * kh * kw, n * ho * wo)


def _padded_channel_major(x: np.ndarray, padding: int,
                          bottom: int = 0) -> np.ndarray:
    """NCHW ``x`` zero-padded on every side, and by ``bottom`` more rows
    below, as a (C, N, H + 2p + bottom, W + 2p) array."""
    n, c, h, w = x.shape
    xp = np.zeros((c, n, h + 2 * padding + bottom, w + 2 * padding),
                  dtype=x.dtype)
    xp[:, :, padding:padding + h, padding:padding + w] = x.transpose(1, 0, 2, 3)
    return xp


def _row_columns(x: np.ndarray, kw: int, stride: int, padding: int,
                 groups: int) -> np.ndarray:
    """Row columns of the zero-padded NCHW input ``x``, one matrix per group
    and stride phase.

    Layout (groups, cg*kw, s, n*hq*wo), hp = h + 2*padding and hq =
    ceil(hp / s): row (ci, j) holds horizontal tap j of channel ci of the
    group, phase f the padded rows s*r + f, and column (ni, r, xi) the
    padded input at row s*r + f, column j + s*xi of image ni; rows past hp
    are zero. Every padded row is lowered, but along the width only, so
    the fill is kw*s strided copies and the columns are about kw/s times
    the input, not kh*kw/s**2 times as ``_im2col``'s.
    """
    n, c, h, w = x.shape
    hp = h + 2 * padding
    hq = -(-hp // stride)
    wo = _conv_out_size(w, kw, stride, padding)
    xp = _padded_channel_major(x, padding, stride * hq - hp)
    cols = np.empty((c, kw, stride, n, hq, wo), dtype=x.dtype)
    for f in range(stride):
        for j in range(kw):
            cols[:, j, f] = xp[:, :, f::stride, j:j + stride * wo:stride]
    return cols.reshape(groups, (c // groups) * kw, stride, -1)


def _correlate_rows(x: np.ndarray, kernel: np.ndarray, stride: int,
                    padding: int, groups: int) -> np.ndarray:
    """Grouped cross-correlation of NCHW ``x`` with an OIHW kernel, over
    row columns; returns a contiguous (n, o, ho, wo) array.

    Flattened, each stride phase of the row columns is a grid of n*hq rows
    of wo positions. Vertical tap i of output row y reads padded row
    s*y + i, which is phase i % s at grid row y + i // s, so it reads that
    phase's columns shifted by (i // s)*wo. The output grid is therefore
    the sum of kh GEMMs, each of tap i's (og, cg*kw) kernel slice against
    those columns. The grid ends at the last image's row ho - 1; a grid
    row y >= ho of any image reads past its last output row, into zero
    rows or the next image, and the crop to rows < ho drops it.
    """
    n, _, h, w = x.shape
    o, cg, kh, kw = kernel.shape
    og = o // groups
    hq = -(-(h + 2 * padding) // stride)
    ho = _conv_out_size(h, kh, stride, padding)
    wo = _conv_out_size(w, kw, stride, padding)
    cols = _row_columns(x, kw, stride, padding, groups)
    taps = kernel.reshape(groups, og, cg, kh, kw).transpose(3, 0, 1, 2, 4)
    taps = np.ascontiguousarray(taps).reshape(kh, groups, og, cg * kw)
    span = (n * hq - (kh - 1) // stride) * wo
    grid = np.matmul(taps[0], cols[:, :, 0, :span])
    for i in range(1, kh):
        lo = i // stride * wo
        grid += np.matmul(taps[i], cols[:, :, i % stride, lo:lo + span])
    del cols
    # keep only grid rows ni*hq + y, y < ho, of each image ni, as NCHW
    item = grid.itemsize
    rows = np.lib.stride_tricks.as_strided(
        grid, (o, n, ho, wo), (span * item, hq * wo * item, wo * item, item),
        writeable=False)
    return np.ascontiguousarray(rows.transpose(1, 0, 2, 3))


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


def conv2d(x, kernel, stride: int = 1, padding: int = 0, groups: int = 1, *,
           gamma=None, beta=None, state: Optional[BatchNormState] = None,
           mode: str = "train", relu: bool = False) -> Tensor:
    """2-D convolution (cross-correlation) over NCHW input, OIHW kernel.

    Supports grouped convolution; ``groups == channels`` gives the
    depthwise case. Linear in both input and kernel. ``stride``,
    ``padding`` and ``groups`` must be integers.

    With ``gamma``, ``beta`` and ``state`` (all three or none) the op
    convolves A = ``batch_norm(x, gamma, beta, state, mode, relu)``
    instead of x, as one node with inputs ``(x, gamma, beta, kernel)``;
    ``relu`` and ``mode`` need them. A is what :func:`batch_norm` would
    return, bit for bit, and the running statistics move as its do. A is
    lowered to columns and freed in the forward, and the pullback
    recomputes it one batch chunk at a time, so the tape keeps no array
    of A's size.

    The forward sums kh GEMMs over kw-fold row columns, at every stride
    (:func:`_correlate_rows`). The VJP retains only the input and kernel
    arrays, which the node already references, and with a normalization
    its per-channel statistics; no columns outlive the forward call. The
    backward runs over batch chunks, each building its columns (at most
    ``_PULLBACK_COLUMN_BYTES``, or one image's) and using them for both
    gradients while they are in cache; gk sums the chunks, and A's
    gradient is written one contiguous NCHW slice per chunk. A chunk of A
    (recomputed, or x's own) feeds the kernel gradient and, with ``relu``,
    masks A's gradient. Each gradient is computed only when the walk wants
    it. At stride 1 (square kernel wider than the padding) A's gradient is
    a correlation of the output gradient with the flipped, in/out
    transposed kernel, and the kernel gradient reads the same columns of
    the output gradient against A. Otherwise, and when only the kernel
    gradient is wanted, the kernel gradient builds A's columns, and
    column gradients are scattered back with ``_col2im``. With a
    normalization, A's gradient then goes through batch norm's own
    gradient formula (:func:`_bn_grads`).
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
    for name, value in (("stride", stride), ("padding", padding),
                        ("groups", groups)):
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if stride < 1:
        raise ValueError(f"stride must be positive, got {stride}")
    if groups < 1:
        raise ValueError(f"groups must be positive, got {groups}")
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
    given = [t is not None for t in (gamma, beta, state)]
    norm = all(given)
    if any(given) and not norm:
        raise ValueError("conv2d normalizes its input only given all of "
                         "gamma, beta and state")
    if (relu or mode != "train") and not norm:
        raise ValueError("conv2d takes relu and mode only with a "
                         "normalization of its input")

    inputs = (x, kernel)
    a = xd
    if norm:
        gamma, beta = _as_tensor(gamma), _as_tensor(beta)
        _check_bn(xd, gamma, beta, state, mode)
        inputs = (x, gamma, beta, kernel)
        a, mu, var, invstd, scale = _normalize(xd, gamma.data, beta.data,
                                               state, mode, relu)
    og = o // groups
    out_data = _correlate_rows(a, kd, stride, padding, groups)
    del a
    # the flipped kernel pads kernel - 1 - padding on every side: that needs
    # a square kernel wider than the padding
    flipped = stride == 1 and kh == kw and padding < kh

    def conv_input(lo: int, hi: int, xc: Optional[np.ndarray],
                   clamp: bool) -> np.ndarray:
        """A for images lo:hi, channel-major as (C, nb, H, W): a view of x,
        or with a normalization a fresh array that repeats the forward's
        arithmetic exactly, from the centred input ``xc`` when there is
        one; unclamped unless ``clamp``, which only the kernel gradient
        needs (the ReLU mask A > 0 is the same either way)."""
        if not norm:
            return xd[lo:hi].transpose(1, 0, 2, 3)
        acm = np.empty((c, hi - lo, h, w), dtype=xd.dtype)
        view = acm.transpose(1, 0, 2, 3)
        centred = (np.subtract(xd[lo:hi], mu[None, :, None, None], out=view)
                   if xc is None else xc[lo:hi])
        _affine(centred, scale, beta.data, relu and clamp, out=view)
        return acm

    def pullback(g: np.ndarray, *wanted: bool):
        if norm:
            want_x, want_gamma, want_beta, want_k = wanted
            want_a = want_x or want_gamma or want_beta
        else:
            want_a, want_k = wanted
        # every gradient splits over images (gk sums them, ga slices them),
        # so the pullback runs over batch chunks whose columns stay in cache
        by_g = want_a and flipped
        image_cols = kh * kw * (o * h * w if by_g else c * ho * wo) * g.itemsize
        step = max(1, _PULLBACK_COLUMN_BYTES // image_cols)
        ga = gk = None
        if not (want_a or want_k):
            return (None,) * len(wanted)
        masked = relu and want_a
        # batch norm's gradient reads the centred input, so it is made
        # first and each chunk of A is recomputed from it
        xc = (_bn_centred(xd, mu, mode, want_x, want_gamma, want_beta)
              if norm and want_a else None)
        if by_g:
            # contiguous: a depthwise kflip left as a negative-stride view
            # makes np.matmul bypass BLAS
            kflip = kd.reshape(groups, og, cg, kh, kw)[..., ::-1, ::-1]
            kflip = np.ascontiguousarray(
                kflip.transpose(0, 2, 1, 3, 4)).reshape(groups, cg, -1)
        for lo in range(0, n, step):
            gs = g[lo:lo + step]
            nb = len(gs)
            acm = (conv_input(lo, lo + nb, xc, want_k) if want_k or masked
                   else None)
            if by_g:
                # one column buffer of g serves both gradients: row (o, a, b)
                # at input position (y, x) holds g[o, y + padding - (kh-1-a),
                # x + padding - (kw-1-b)], the output that tap (kh-1-a,
                # kw-1-b) of the kernel carried x[y, x] to
                cols = _im2col(gs, kh, kw, 1, kh - 1 - padding, groups)
                if want_k:
                    acols = acm.reshape(groups, cg, nb * h * w)
                    # the tall-output orientation, as for x's columns below
                    part = np.matmul(cols, acols.transpose(0, 2, 1))
                    del acols
                gas = np.matmul(kflip, cols).reshape(c, nb, h, w)
                del cols
            else:
                gg = gs.transpose(1, 0, 2, 3).reshape(groups, og, nb * ho * wo)
                if want_k:
                    cols = _im2col(acm.transpose(1, 0, 2, 3), kh, kw, stride,
                                   padding, groups)
                    # (columns @ g^T)^T: OpenBLAS ran this tall-output GEMM 1.3
                    # to 1.9x faster than g @ columns^T on the stage-1 shapes
                    part = np.matmul(cols, gg.transpose(0, 2, 1))
                    del cols
                if want_a:
                    kmat = kd.reshape(groups, og, cg * kh * kw)
                    gcols = np.matmul(kmat.transpose(0, 2, 1), gg)
                    gas = _col2im(gcols.reshape(c, kh, kw, nb, ho, wo),
                                  (c, nb, h + 2 * padding, w + 2 * padding),
                                  stride)[:, :, padding:padding + h,
                                          padding:padding + w]
                    del gcols
                del gg
            if want_k:
                gk = part if gk is None else np.add(gk, part, out=gk)
            if want_a:
                if ga is None:
                    ga = np.empty(xd.shape, dtype=xd.dtype)
                if masked:
                    # (A > 0) * ga, as relu's pullback: nothing reads A's
                    # chunk any more, so the comparison is written into it
                    # as 1.0 / 0.0 (a bool mask would be cast more slowly)
                    np.greater(acm, 0, out=acm)
                    np.multiply(acm.transpose(1, 0, 2, 3),
                                gas.transpose(1, 0, 2, 3), out=ga[lo:lo + nb])
                else:
                    ga[lo:lo + nb] = gas.transpose(1, 0, 2, 3)
                del gas
            del acm
        if want_k and by_g:
            gk = gk.reshape(groups, og, kh, kw, cg)[:, :, ::-1, ::-1]
            gk = np.ascontiguousarray(
                gk.transpose(0, 1, 4, 2, 3)).reshape(kd.shape)
        elif want_k:
            gk = gk.transpose(0, 2, 1).reshape(kd.shape)
        if not norm:
            return ga, gk
        # ga is the pullback's own array, so batch norm's gradient is built in it
        if want_a:
            return _bn_grads(ga, True, xc, invstd, scale, mode, want_x,
                             want_gamma, want_beta) + (gk,)
        return None, None, None, gk

    out = _record("conv2d", inputs, out_data, pullback)
    if norm and mode == "train":
        _update_running_stats(state, mu, var)
    return out


# ---------------------------------------------------------------------------
# batch normalization

class BatchNormState:
    """Running mean/variance buffers for one batch-norm layer."""

    __slots__ = ("running_mean", "running_var")

    def __init__(self, channels: int, dtype=np.float64):
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)


def _check_bn(xd: np.ndarray, gamma: Tensor, beta: Tensor,
              state: BatchNormState, mode: str) -> None:
    """ValueError unless a batch norm of the NCHW array ``xd`` can take
    these parameters, this state and this mode."""
    n, c = xd.shape[:2]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(
            f"gamma/beta must have shape ({c},), got {gamma.data.shape} and "
            f"{beta.data.shape}")
    if n == 0:
        raise ValueError("batch norm requires a non-empty batch")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if {state.running_mean.dtype, state.running_var.dtype} != {xd.dtype}:
        raise ValueError(f"batch norm state dtype is not {xd.dtype}")


def _affine(centred: np.ndarray, scale: np.ndarray, shift: np.ndarray,
            relu: bool, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``centred * scale + shift`` per channel, clamped at zero with
    ``relu``, for the NCHW array or view ``centred`` = x - mu, written to
    ``out`` (default: in place); returns it. Every batch-norm output, and
    every recompute of one, is this arithmetic."""
    out = np.multiply(centred, scale[None, :, None, None],
                      out=centred if out is None else out)
    out += shift[None, :, None, None]
    if relu:
        np.maximum(out, 0, out=out)
    return out


def _normalize(xd: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
               state: BatchNormState, mode: str, relu: bool) -> tuple:
    """Batch norm of the NCHW array ``xd`` as (out, mu, var, invstd,
    scale), scale = gamma * invstd. ``train`` takes mu and the biased
    (ddof=0) var from the batch, var from the centred values; ``eval``
    takes the running buffers."""
    m = xd.size // xd.shape[1]
    if mode == "train":
        mu = xd.mean(axis=(0, 2, 3))
    else:
        mu, var = state.running_mean, state.running_var
    out = xd - mu[None, :, None, None]
    if mode == "train":
        var = np.einsum("nchw,nchw->c", out, out) / m
    invstd = 1.0 / np.sqrt(var + _BN_EPS)
    scale = gamma * invstd
    return _affine(out, scale, beta, relu), mu, var, invstd, scale


def _bn_centred(xd: np.ndarray, mu: np.ndarray, mode: str, want_x: bool,
                want_gamma: bool, want_beta: bool) -> Optional[np.ndarray]:
    """The centred input x - mu that :func:`_bn_grads` reads for these
    wanted gradients, as a fresh array, or None if it reads none."""
    if want_gamma or want_beta or (want_x and mode == "train"):
        return xd - mu[None, :, None, None]
    return None


def _bn_grads(g: np.ndarray, own_g: bool, xc: Optional[np.ndarray],
              invstd: np.ndarray, scale: np.ndarray, mode: str, want_x: bool,
              want_gamma: bool, want_beta: bool) -> tuple:
    """(gx, ggamma, gbeta) of batch norm for the cotangent ``g`` of its
    unclamped output (a caller with a ReLU masks g first), each None
    unless wanted. ``xc`` is :func:`_bn_centred`'s array, which this
    overwrites. gx is built in g when the caller owns it (``own_g``), so
    the one activation-sized temporary besides is ``xc``."""
    m = g.size // g.shape[1]
    gx = ggamma = gbeta = None
    if xc is not None:
        gsum = g.sum(axis=(0, 2, 3))
        gx_hat_sum = invstd * np.einsum("nchw,nchw->c", g, xc)
        gbeta = gsum if want_beta else None
        ggamma = gx_hat_sum if want_gamma else None
    if want_x:
        # gx = scale * (g - gsum / m - xhat * gx_hat_sum / m) in train
        # mode, scale * g in eval
        gx = np.multiply(g, scale[None, :, None, None],
                         out=g if own_g else None)
        if mode == "train":
            xc *= (-scale * invstd * gx_hat_sum / m)[None, :, None, None]
            gx += xc
            gx -= (scale * gsum / m)[None, :, None, None]
    return gx, ggamma, gbeta


def _update_running_stats(state: BatchNormState, mu: np.ndarray,
                          var: np.ndarray) -> None:
    """Exponential moving average of a train batch's statistics into the
    running buffers, rebound rather than updated in place: an eval node's
    VJP reads the old mu."""
    keep = _BN_MOMENTUM
    state.running_mean = keep * state.running_mean + (1.0 - keep) * mu
    state.running_var = keep * state.running_var + (1.0 - keep) * var


def batch_norm(x, gamma, beta, state: BatchNormState, mode: str = "train",
               relu: bool = False) -> Tensor:
    """Per-channel batch normalization over NCHW input.

    Both modes compute (x - mu) * gamma / sqrt(var + _BN_EPS) + beta.
    ``train`` takes mu and the biased (ddof=0) var from the batch, var from
    the centred values, and updates the running buffers by exponential
    moving average; ``eval`` uses the running buffers, which must have x's
    dtype.

    With ``relu`` the output is clamped at zero in place, so one node
    stands for ``relu(batch_norm(...))`` and the unclamped array is never
    kept. The VJP masks the cotangent with ``out > 0`` first, exactly as
    :func:`relu`'s does, and reads nothing else of the output.

    A batch norm that feeds a convolution is better folded into it
    (:func:`conv2d`'s ``gamma``, ``beta`` and ``state``), which keeps no
    array of the output's size; this op keeps its output.
    """
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    xd = x.data
    if xd.ndim != 4:
        raise ValueError(f"batch_norm expects NCHW input, got shape {xd.shape}")
    _check_bn(xd, gamma, beta, state, mode)
    out_data, mu, var, invstd, scale = _normalize(xd, gamma.data, beta.data,
                                                  state, mode, relu)

    def pullback(g: np.ndarray, want_x: bool, want_gamma: bool,
                 want_beta: bool):
        # two activation-sized temporaries at most: the masked copy of g,
        # which gx is then built in, and the centred input
        if relu:
            # g * (out > 0) without a mask array: the comparison is cast
            # to 1.0 / 0.0 as it is written
            masked = np.greater(out_data, 0, out=np.empty_like(g))
            g = np.multiply(masked, g, out=masked)
        return _bn_grads(g, relu,
                         _bn_centred(xd, mu, mode, want_x, want_gamma,
                                     want_beta),
                         invstd, scale, mode, want_x, want_gamma, want_beta)

    out = _record("batch_norm", (x, gamma, beta), out_data, pullback)
    if mode == "train":
        _update_running_stats(state, mu, var)
    return out


# ---------------------------------------------------------------------------
# elementwise and reductions

def relu(x) -> Tensor:
    """Elementwise max(x, 0); the gradient at exactly zero is zero."""
    x = _as_tensor(x)
    out_data = np.maximum(x.data, 0)

    # out > 0 exactly where x > 0 (NaN included), so the VJP keeps no mask
    def pullback(g: np.ndarray, want_x: bool):
        return (g * (out_data > 0) if want_x else None,)

    return _record("relu", (x,), out_data, pullback)


def global_avg_pool(x) -> Tensor:
    """Spatial mean: NCHW -> NC."""
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError(f"global_avg_pool expects NCHW input, got {x.shape}")
    n, c, h, w = x.data.shape
    out_data = x.data.mean(axis=(2, 3))

    def pullback(g: np.ndarray, want_x: bool):
        if not want_x:
            return (None,)
        gx = np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w))
        return (np.ascontiguousarray(gx),)

    return _record("global_avg_pool", (x,), out_data, pullback)


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

    def pullback(g: np.ndarray, want_x: bool, want_w: bool,
                 want_b: bool = False):
        gx = g @ weight.data if want_x else None
        gw = g.T @ x.data if want_w else None
        gb = g.sum(axis=0) if want_b else None
        return gx, gw, gb

    return _record("dense", inputs, out_data, pullback)


def add(a, b) -> Tensor:
    """Elementwise sum of two tensors of one shape."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape != b.data.shape:
        raise ValueError(f"add needs equal shapes, got {a.data.shape} and "
                         f"{b.data.shape}")
    out_data = a.data + b.data

    def pullback(g: np.ndarray, want_a: bool, want_b: bool):
        return (g if want_a else None, g if want_b else None)

    return _record("add", (a, b), out_data, pullback)


def channel_mix(x, matrix: np.ndarray, plus=None) -> Tensor:
    """Apply a fixed channel-mixing matrix at every spatial position.

    Equivalent to a 1x1 convolution with constant kernel; the matrix is a
    non-trainable buffer, so the only gradient is matrix^T @ g into x.

    With ``plus``, a tensor of x's shape, the result is matrix·x + plus
    from one node with inputs ``(x, plus)``, so the mixed matrix·x is
    never kept; ``plus`` gets the cotangent itself, as in :func:`add`.
    """
    x = _as_tensor(x)
    if x.data.ndim != 4:
        raise ValueError(f"channel_mix expects NCHW input, got {x.shape}")
    n, c, h, w = x.data.shape
    mat = np.asarray(matrix)
    if np.iscomplexobj(mat):
        raise ValueError(f"mixing matrix must be real, got {mat.dtype}")
    if mat.shape != (c, c):
        raise ValueError(
            f"mixing matrix has shape {mat.shape}, input has {c} channels")
    inputs = (x,)
    if plus is not None:
        plus = _as_tensor(plus)
        if plus.data.shape != x.data.shape:
            raise ValueError(f"channel_mix plus needs equal shapes, got "
                             f"{x.data.shape} and {plus.data.shape}")
        inputs += (plus,)
    mat = mat.astype(x.dtype, copy=False)
    out_data = np.matmul(mat, x.data.reshape(n, c, h * w)).reshape(n, c, h, w)
    if plus is not None:
        out_data += plus.data

    def pullback(g: np.ndarray, want_x: bool, want_plus: bool = False):
        gx = None
        if want_x:
            gx = np.matmul(np.ascontiguousarray(mat.T), g.reshape(n, c, h * w))
            gx = gx.reshape(n, c, h, w)
        if plus is None:
            return (gx,)
        return gx, (g if want_plus else None)

    return _record("channel_mix", inputs, out_data, pullback)


def reduce_sum(x) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    x = _as_tensor(x)
    out_data = np.asarray(x.data.sum())

    def pullback(g: np.ndarray, want_x: bool):
        if not want_x:
            return (None,)
        return (np.full(x.data.shape, g, dtype=x.dtype),)

    return _record("reduce_sum", (x,), out_data, pullback)


def softmax_cross_entropy(logits, labels) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels."""
    logits = _as_tensor(logits)
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be (N, K), got {logits.shape}")
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(
            f"labels must lie in [0, {k}), got range "
            f"[{labels.min()}, {labels.max()}]")
    labels = labels.astype(np.int64)
    ld = logits.data
    shifted = ld - ld.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1)) + ld.max(axis=1)
    out_data = np.asarray((lse - ld[np.arange(n), labels]).mean())

    def pullback(g: np.ndarray, want_logits: bool):
        if not want_logits:
            return (None,)
        e = np.exp(shifted)
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(n), labels] -= 1.0
        return (g * p / n,)

    return _record("softmax_cross_entropy", (logits,), out_data, pullback)


# ---------------------------------------------------------------------------
# reverse pass

def vjp(graph: Graph, seeds: dict,
        wrt: Optional[Iterable[Tensor]] = None) -> dict:
    """Vector-Jacobian product through a recorded graph.

    ``seeds`` maps each tensor to the cotangent the walk starts from
    there, and gradients accumulate into every tensor reached walking the
    tape backwards; a VJP is linear in its cotangent, so several seeds
    give the sum of their single-seed products. Each seed must have its
    tensor's shape and dtype. Returns a map from tensor to gradient
    array.

    Without ``wrt`` the walk keeps every cotangent it makes and returns
    them all, intermediate ones included. With ``wrt`` it returns only the
    ``wrt`` gradients, and frees every other cotangent once its node is
    walked: recording order is topological, so by then it is complete.
    The walk then holds only the cotangents still to be consumed.

    Fan-in adds the cotangent held so far into a gradient the pullback
    has just made, in place; a gradient that shares memory with the
    node's cotangent (``add`` passes it through) is summed into a new
    array instead. So no seed and no array already held in the map is
    ever written, and addition commutes, so the bits are those of
    ``acc + gi``.

    A walk differentiates a node's input only if it ``requires_grad`` and,
    with ``wrt``, depends on a ``wrt`` tensor (activity analysis): only
    nodes with such an input are walked, and inside them no gradient is
    computed for any other input, so a kernel or batch-norm parameter
    costs nothing. No skipped gradient can add to a ``wrt`` gradient, so
    the result is the same bit for bit.
    """
    grads = {t: np.asarray(seed) for t, seed in seeds.items()}
    for t, seed in grads.items():
        if seed.shape != t.data.shape:
            raise ValueError(
                f"seed shape {seed.shape} does not match tensor {t.data.shape}")
        if seed.dtype != t.dtype:
            raise ValueError(
                f"seed dtype {seed.dtype} does not match tensor {t.dtype}")
    nodes = graph.nodes
    reach = keep = None
    if wrt is not None:
        wrt = list(wrt)
        keep = set(wrt)
        reach = set(wrt)
        nodes = []
        for node in graph.nodes:
            if any(t in reach for t in node.inputs):
                nodes.append(node)
                reach.add(node.output)
    for node in reversed(nodes):
        if keep is None or node.output in keep:
            g = grads.get(node.output)
        else:   # complete: every node that read this output came later
            g = grads.pop(node.output, None)
        if g is None:
            continue
        node.wanted[:] = [t.requires_grad and (reach is None or t in reach)
                          for t in node.inputs]
        for t, gi in zip(node.inputs, node.vjp_fn(g)):
            if gi is None:
                continue
            acc = grads.get(t)
            if acc is None:
                grads[t] = gi
            elif np.may_share_memory(gi, g):
                grads[t] = acc + gi
            else:   # fresh from the pullback: the walk owns it
                gi += acc
                grads[t] = gi
    if wrt is not None:
        return {t: grads[t] for t in wrt if t in grads}
    return grads


def backward(graph: Graph, loss: Tensor,
             wrt: Optional[Iterable[Tensor]] = None) -> dict:
    """Gradient of a scalar loss for the graph's leaves, or for ``wrt``.

    Without ``wrt``, the leaves are the requires_grad tensors that no node
    of the graph produced (parameters and inputs), in tape order, and only
    their gradients are returned: the walk frees each intermediate
    cotangent after its node (see :func:`vjp`). With ``wrt``, the
    gradients of its requires_grad tensors are returned, node outputs
    among them, and the walk differentiates only inputs that depend on
    them.

    Fan-out accumulates; the graph itself is left untouched and can be
    walked again (e.g. for extra vector-Jacobian probes).
    """
    if loss.data.size != 1:
        raise ValueError(f"loss must be scalar, got shape {loss.data.shape}")
    if wrt is None:
        produced = {node.output for node in graph.nodes}
        wrt = dict.fromkeys(t for node in graph.nodes for t in node.inputs
                            if t.requires_grad and t not in produced)
    grads = vjp(graph, {loss: np.ones_like(loss.data)}, wrt=wrt)
    return {t: Tensor(g) for t, g in grads.items() if t.requires_grad}
