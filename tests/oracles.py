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


def mix_channels(mat, x):
    """Channel mixing of an NCHW array by an explicit loop over positions."""
    n, c, h, w = x.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for yi in range(h):
            for xi in range(w):
                out[ni, :, yi, xi] = mat @ x[ni, :, yi, xi]
    return out
