"""Skip-connection matrices: identity, merge-and-run idempotents, Kronecker
orthogonals, and the periodic extension.

A skip transform is a plain read-only square float64 matrix. Each
constructor checks its output with :func:`check_kind`, which states each
kind's defining law once and checks hand-built matrices the same way.

Every invariant check passes when each entry of its residual is within
one tolerance, ``_INVARIANT_TOL``, so a matrix gets one verdict in every
module; the constructors meet their invariants to within 5e-15.
"""

from __future__ import annotations

from functools import reduce
from typing import Union

import numpy as np

from .autodiff import Tensor, _is_int, _mix, channel_mix

__all__ = [
    "KINDS",
    "check_kind",
    "make_identity",
    "make_idempotent_mr",
    "make_idempotent_cmr",
    "make_orthogonal_tp",
    "make_orthogonal_random",
    "make_periodic",
    "is_idempotent",
    "is_periodic",
    "is_orthogonal",
    "is_symmetric",
    "rank",
    "matrix_power",
    "skip_products",
    "canonical_form",
    "apply_transform",
]

KINDS = ("identity", "idempotent_mr", "idempotent_cmr", "orthogonal_tp",
         "orthogonal_random", "periodic")

_INVARIANT_TOL = 1e-10


def _check_count(name: str, value) -> None:
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _as_matrix(p) -> np.ndarray:
    """``p`` as a real square float64 matrix (itself when it is one)."""
    m = np.asarray(p)
    if np.iscomplexobj(m):
        raise ValueError(f"matrix must be real, got {m.dtype}")
    m = m.astype(np.float64, copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def check_kind(p, kind: str, n=None) -> np.ndarray:
    """``p`` as a read-only float64 copy, or ValueError unless it meets the
    law of ``kind``: P = I (identity), P @ P = P (idempotent_*),
    Q^T Q = I (orthogonal_*) or P^(n+1) = P (periodic, period ``n``)."""
    m = np.array(_as_matrix(p))
    if kind not in KINDS:
        raise ValueError(f"unknown transform kind {kind!r}")
    if kind == "identity":
        law, holds = "P = I", _within_tol(m - np.eye(m.shape[0]))
    elif kind.startswith("idempotent"):
        law, holds = "P @ P = P", is_idempotent(m)
    elif kind.startswith("orthogonal"):
        law, holds = "Q^T Q = I", is_orthogonal(m)
    else:   # is_periodic checks n before the law names it
        holds, law = is_periodic(m, n), f"P^{n + 1} = P"
    if not holds:
        raise ValueError(f"matrix tagged {kind} violates {law} beyond "
                         f"{_INVARIANT_TOL}")
    m.flags.writeable = False
    return m


def make_identity(r: int) -> np.ndarray:
    _check_count("channel count", r)
    return check_kind(np.eye(r), "identity")


def make_idempotent_mr(r: int, b: int) -> np.ndarray:
    """Merge-and-run projector: a BxB grid of identity blocks scaled 1/B.

    Rank is exactly r / b; b = 1 degenerates to the identity matrix.
    """
    _check_count("channel count", r)
    _check_count("branch count", b)
    if r % b != 0:
        raise ValueError(f"branch count {b} must divide channel count {r}")
    block = np.eye(r // b)
    m = np.tile(block, (b, b)) / b
    return check_kind(m, "idempotent_mr")


def make_idempotent_cmr(r: int, b: int) -> np.ndarray:
    """Complement of the merge-and-run projector: I - P_MR, rank r - r/b."""
    mr = make_idempotent_mr(r, b)
    return check_kind(np.eye(r) - mr, "idempotent_cmr")


_TP_FACTOR = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def _check_power_of_two(r: int) -> int:
    if not (_is_int(r) and r >= 2 and r & (r - 1) == 0):
        raise ValueError(f"channel count must be a power of 2, got {r}; "
                         f"Kronecker orthogonals need power-of-2 widths")
    return int(r).bit_length() - 1


def make_orthogonal_tp(r: int) -> np.ndarray:
    """Kronecker power of the fixed 2x2 rotation (1/sqrt2)[[1,-1],[1,1]]."""
    k = _check_power_of_two(r)
    return check_kind(reduce(np.kron, [_TP_FACTOR] * k), "orthogonal_tp")


def _random_o2(rng: np.random.Generator) -> np.ndarray:
    """One 2x2 orthogonal factor: uniform rotation, reflected half the time."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    q = np.array([[c, -s], [s, c]])
    if rng.random() < 0.5:
        q[:, 1] = -q[:, 1]
    return q


def make_orthogonal_random(r: int, seed: int) -> np.ndarray:
    """Kronecker product of log2(r) seeded random O(2) factors."""
    k = _check_power_of_two(r)
    rng = np.random.default_rng(seed)
    m = reduce(np.kron, [_random_o2(rng) for _ in range(k)])
    return check_kind(m, "orthogonal_random")


def make_periodic(r: int, n: int, seed: int) -> np.ndarray:
    """Random matrix with P^(N+1) = P.

    Eigenvalues are 0 or N-th roots of unity; complex pairs are realized
    as 2x2 rotation blocks, conjugated by a random orthogonal basis.
    """
    _check_count("channel count", r)
    if r < 2:
        raise ValueError(f"channel count must be at least 2, got {r}")
    _check_count("period", n)
    rng = np.random.default_rng(seed)
    core = np.zeros((r, r))
    idx = 0
    placed_unit = False
    while idx < r:
        can_rotate = n >= 3 and idx + 1 < r
        if can_rotate and rng.random() < 0.5:
            k = int(rng.integers(1, n))
            theta = 2.0 * np.pi * k / n
            c, s = np.cos(theta), np.sin(theta)
            core[idx:idx + 2, idx:idx + 2] = [[c, -s], [s, c]]
            placed_unit = True
            idx += 2
        else:
            choices = [0.0, 1.0] + ([-1.0] if n % 2 == 0 else [])
            lam = float(rng.choice(choices))
            core[idx, idx] = lam
            placed_unit = placed_unit or lam != 0.0
            idx += 1
    if not placed_unit:
        core[0, 0] = 1.0
    basis, _ = np.linalg.qr(rng.standard_normal((r, r)))
    m = basis.T @ core @ basis
    return check_kind(m, "periodic", n)


def _within_tol(residual: np.ndarray) -> bool:
    """Whether every entry of an invariant's residual is within tolerance."""
    return bool(np.abs(residual).max() <= _INVARIANT_TOL)


def is_periodic(p, n: int) -> bool:
    _check_count("periodic N", n)
    return _within_tol(matrix_power(p, n + 1) - _as_matrix(p))


def is_idempotent(p) -> bool:
    return is_periodic(p, 1)


def is_orthogonal(p) -> bool:
    m = _as_matrix(p)
    return _within_tol(m.T @ m - np.eye(m.shape[0]))


def is_symmetric(p) -> bool:
    m = _as_matrix(p)
    return _within_tol(m - m.T)


def _count_above_cutoff(sv: np.ndarray) -> int:
    """Singular values above 1e-8 of the largest (none when all are 0)."""
    return int((sv > 1e-8 * sv.max(initial=0.0)).sum())


def rank(p) -> int:
    """Numerical rank: singular values above 1e-8 of the largest."""
    return _count_above_cutoff(np.linalg.svd(_as_matrix(p), compute_uv=False))


def matrix_power(p, k: int) -> np.ndarray:
    if not _is_int(k) or k < 0:
        raise ValueError(f"exponent must be a non-negative integer, got {k!r}")
    m = _as_matrix(p)
    out = np.eye(m.shape[0])
    for _ in range(k):
        out = out @ m
    return out


def skip_products(skips) -> list:
    """Skip paths Φ(n, m + j) = P_{n-1}...P_{m+j}, j = 0..n-m, of blocks
    with ``skips`` P_m..P_{n-1}, built as Φ(n, n) = I, Φ(n, i) = Φ(n, i+1)
    P_i: for a shared P, ``matrix_power``'s products in its order."""
    mats = [_as_matrix(p) for p in skips]
    if not mats:
        raise ValueError("skip_products needs at least one skip, got an "
                         "empty span")
    out = [np.eye(mats[0].shape[0])]
    for m in reversed(mats):
        out.insert(0, out[0] @ m)
    return out


def _periodic_law(n: int) -> str:
    """The law P^(n+1) = P by the name the error messages give it."""
    return "idempotent" if n == 1 else f"periodic with P^{n + 1} = P"


def canonical_form(p, n: int) -> tuple:
    """(V, V^-1, C) with P = V C V^-1 for a real P with P^(n+1) = P. C is
    block diagonal: +1s, -1s, [[cos θ, sin θ], [-sin θ, cos θ]] per pair
    e^{±iθ} by ascending θ, then 0s. V holds an SVD basis of null(P - λI)
    for each root λ that P's eigenvalues round to (±1 exactly), √2 (Re v,
    Im v) for a complex one: orthogonal when P is normal. ValueError unless
    the bases fill the width and V C V^-1 meets P."""
    m = _as_matrix(p)
    _check_count("period", n)
    r = m.shape[0]
    law = _periodic_law(n)
    w = np.linalg.eigvals(m)
    turns = np.rint(np.angle(w) * n / (2 * np.pi)).astype(int) % n
    # k stands for the pair e^{±2πik/n}, and n for the eigenvalue 0
    ks = np.where(np.abs(w) < 0.5, n, np.minimum(turns, n - turns))
    cols, lams = [], []
    for k in sorted(set(ks.tolist()), key=lambda k: (k == n, 0 < 2 * k < n, k)):
        lam = (0.0 if k == n else 1.0 if k == 0 else -1.0 if 2 * k == n
               else np.exp(2j * np.pi * k / n))
        pair = isinstance(lam, complex)
        _, sv, vt = np.linalg.svd(m - lam * np.eye(r))
        for v in vt[_count_above_cutoff(sv):].conj():
            cols += [2 ** 0.5 * v.real, 2 ** 0.5 * v.imag] if pair else [v]
            lams += [lam, lam.conjugate()] if pair else [lam]
    if len(cols) != r:
        raise ValueError(f"matrix is not {law}: its eigenspaces span "
                         f"{len(cols)} of {r} dimensions")
    sin = np.maximum(np.imag(lams[:-1]), 0.0)   # each pair's sin θ, else 0
    c = np.diag(np.real(lams)) + np.diag(sin, 1) - np.diag(sin, -1)
    v = np.stack(cols, axis=1)
    v_inv = np.linalg.inv(v)
    if not _within_tol(v @ c @ v_inv - m):
        raise ValueError(f"matrix is not {law} within {_INVARIANT_TOL}")
    return v, v_inv, c


def apply_transform(p, x) -> Union[Tensor, np.ndarray]:
    """Mix channels of an NCHW input by a square matrix P at every spatial
    position, with ``channel_mix``'s arithmetic.

    A Tensor goes through the op ``channel_mix`` (pullback P^T @ g). A
    plain array is mixed by the same arithmetic and recorded on no tape;
    it is read as ``Tensor(x)`` reads it, so a non-float one is mixed in
    float64.
    """
    m = _as_matrix(p)
    if isinstance(x, Tensor):
        return channel_mix(x, m)
    return _mix(Tensor(x).data, m)[0]
