"""Independent reference implementations used as test oracles.

Everything here is deliberately written the slow, obvious way (nested
loops, per-element finite differences) and shares no code with the
library paths it checks.
"""

import numpy as np


def conv2d_loop(x, k, stride=1, padding=0, groups=1):
    """Direct nested-loop 2-D convolution oracle."""
    n, c, h, w = x.shape
    o, cg, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    og = o // groups
    out = np.zeros((n, o, ho, wo), dtype=x.dtype)
    for ni in range(n):
        for oi in range(o):
            gi = oi // og
            for yi in range(ho):
                for xi in range(wo):
                    acc = 0.0
                    for ci in range(cg):
                        for ki in range(kh):
                            for kj in range(kw):
                                acc += (k[oi, ci, ki, kj]
                                        * xp[ni, gi * cg + ci,
                                             yi * stride + ki,
                                             xi * stride + kj])
                    out[ni, oi, yi, xi] = acc
    return out


def conv2d_vjp_loop(x, k, g, stride=1, padding=0, groups=1):
    """Nested-loop gradients (gx, gk) of sum(g * conv2d(x, k)).

    Every output position spreads ``g`` back over the taps that produced
    it: into the padded input through the kernel, and into the kernel
    through the padded input.
    """
    n, c, h, w = x.shape
    o, cg, kh, kw = k.shape
    _, _, ho, wo = g.shape
    og = o // groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    gxp = np.zeros(xp.shape)
    gk = np.zeros(k.shape)
    for ni in range(n):
        for oi in range(o):
            gi = oi // og
            for yi in range(ho):
                for xi in range(wo):
                    go = g[ni, oi, yi, xi]
                    for ci in range(cg):
                        for ki in range(kh):
                            for kj in range(kw):
                                row = yi * stride + ki
                                col = xi * stride + kj
                                gxp[ni, gi * cg + ci, row, col] += \
                                    k[oi, ci, ki, kj] * go
                                gk[oi, ci, ki, kj] += \
                                    xp[ni, gi * cg + ci, row, col] * go
    gx = gxp[:, :, padding:padding + h, padding:padding + w]
    return gx, gk


def numeric_gradient(f, arr, h=1e-3):
    """Central finite differences of scalar f with respect to arr, in place."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(a, b):
    """max |a-b| normalized by the larger magnitude of the two tensors."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return np.abs(a - b).max(initial=0.0) / scale


def matrix_power_loop(m, k):
    """Repeated-multiplication matrix power."""
    out = np.eye(m.shape[0])
    for _ in range(k):
        out = out @ m
    return out


def skip_product_loop(mats, width):
    """The product I @ mats[0] @ mats[1] @ ..., multiplied left to right."""
    out = np.eye(width)
    for m in mats:
        out = out @ np.asarray(m, dtype=np.float64)
    return out


def mix_channels(mat, x):
    """Channel mixing of an NCHW array by an explicit loop over positions."""
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for yi in range(h):
            for xi in range(w):
                out[ni, :, yi, xi] = mat @ x[ni, :, yi, xi]
    return out


def _channel_stats(v, ci, mean, var):
    """(mu, var) of one channel's values ``v``: the batch's own (biased
    variance) without ``mean``/``var``, else the fixed ones."""
    mu = v.mean() if mean is None else float(mean[ci])
    var_c = ((v - mu) ** 2).mean() if var is None else float(var[ci])
    return mu, var_c


def batch_norm_relu(x, gamma, beta, mean=None, var=None, eps=1e-5,
                    relu=True):
    """max(BN(x), 0), or BN(x) itself without ``relu``, one channel at a
    time, in float64.

    Without ``mean``/``var`` the statistics are the batch's own (train
    mode, biased variance); with them they are fixed (eval mode).
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    for ci in range(x.shape[1]):
        v = x[:, ci]
        mu, var_c = _channel_stats(v, ci, mean, var)
        y = (v - mu) / np.sqrt(var_c + eps) * float(gamma[ci]) + float(beta[ci])
        out[:, ci] = np.where(y > 0.0, y, 0.0) if relu else y
    return out


def batch_norm_relu_vjp(x, gamma, beta, gy, mean=None, var=None, eps=1e-5,
                        relu=True):
    """Gradients (gx, ggamma, gbeta) of sum(gy * batch_norm_relu(x, ...)),
    one channel at a time, in float64, from the textbook closed form: with
    batch statistics dx = gamma / std * (dz - mean(dz) - xhat *
    mean(dz * xhat)), with fixed ones dx = gamma / std * dz, where dz is
    gy masked by the ReLU."""
    x = np.asarray(x, dtype=np.float64)
    gy = np.asarray(gy, dtype=np.float64)
    gx = np.empty_like(x)
    ggamma = np.empty(x.shape[1])
    gbeta = np.empty(x.shape[1])
    for ci in range(x.shape[1]):
        v = x[:, ci]
        mu, var_c = _channel_stats(v, ci, mean, var)
        std = np.sqrt(var_c + eps)
        xhat = (v - mu) / std
        dz = gy[:, ci]
        if relu:
            dz = np.where(xhat * float(gamma[ci]) + float(beta[ci]) > 0.0,
                          dz, 0.0)
        gbeta[ci] = dz.sum()
        ggamma[ci] = (dz * xhat).sum()
        if mean is None:
            dz = dz - dz.mean() - xhat * (dz * xhat).mean()
        gx[:, ci] = float(gamma[ci]) / std * dz
    return gx, ggamma, gbeta


def bn_conv_loop(x, gamma, beta, k, g, mean=None, var=None, relu=True,
                 stride=1, padding=0, groups=1):
    """conv2d_loop of batch_norm_relu(x, ...) and, for the output
    cotangent ``g``, its gradients (gx, ggamma, gbeta, gk): the loop
    conv's gradients of the normalized input, pulled back through
    batch_norm_relu_vjp."""
    a = batch_norm_relu(x, gamma, beta, mean, var, relu=relu)
    out = conv2d_loop(a, k, stride, padding, groups)
    ga, gk = conv2d_vjp_loop(a, k, g, stride, padding, groups)
    gx, ggamma, gbeta = batch_norm_relu_vjp(x, gamma, beta, ga, mean, var,
                                            relu=relu)
    return out, (gx, ggamma, gbeta, gk)


def mix_plus(mat, x, y):
    """P x + y for NCHW arrays, with the loop mix above."""
    return mix_channels(np.asarray(mat, dtype=np.float64),
                        np.asarray(x, dtype=np.float64)) + y


def tape_tensors(graph):
    """Every tensor on a tape, inputs and outputs, once each in tape
    order: the ``wrt`` of a walk that returns every cotangent it makes."""
    return list(dict.fromkeys(t for node in graph.nodes
                              for t in (*node.inputs, node.output)))
