"""Skip-connection matrices: identity, merge-and-run idempotents, Kronecker
orthogonals, and the periodic extension.

All constructors return a :class:`StructuredTransform`, an immutable square
float64 matrix tagged with its kind; the class constructor re-validates the
kind's defining invariant, so hand-built matrices can also be wrapped.

Every invariant check passes when each entry of its residual is within
one tolerance, ``_INVARIANT_TOL``, so a matrix gets one verdict in every
module; the constructors meet their invariants to within 5e-15.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Union

import numpy as np

from .autodiff import Tensor, _is_int, channel_mix

__all__ = [
    "KINDS",
    "StructuredTransform",
    "Diagonalization",
    "make_identity",
    "make_idempotent_mr",
    "make_idempotent_cmr",
    "make_orthogonal_tp",
    "make_orthogonal_random",
    "make_periodic",
    "is_idempotent",
    "is_orthogonal",
    "is_symmetric",
    "rank",
    "matrix_power",
    "skip_products",
    "diagonalize_idempotent",
    "apply_transform",
]

KINDS = ("identity", "idempotent_mr", "idempotent_cmr", "orthogonal_tp",
         "orthogonal_random", "periodic")

_INVARIANT_TOL = 1e-10


def _check_count(name: str, value) -> None:
    if not _is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _as_matrix(p) -> np.ndarray:
    if isinstance(p, StructuredTransform):
        return p.matrix
    m = np.asarray(p, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


@dataclass(frozen=True)
class StructuredTransform:
    """Square channel-mixing matrix with its construction kind and params."""

    matrix: np.ndarray
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"transform matrix must be square, got {m.shape}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown transform kind {self.kind!r}")
        if self.kind == "identity":
            law, holds = "P = I", _within_tol(m - np.eye(m.shape[0]))
        elif self.kind.startswith("idempotent"):
            law, holds = "P @ P = P", is_idempotent(m)
        elif self.kind.startswith("orthogonal"):
            law, holds = "Q^T Q = I", is_orthogonal(m)
        else:
            n = self.params.get("N")
            _check_count("periodic N", n)
            law, holds = f"P^{n + 1} = P", _within_tol(matrix_power(m, n + 1) - m)
        if not holds:
            raise ValueError(f"matrix tagged {self.kind} violates {law} beyond "
                             f"{_INVARIANT_TOL}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def rank(self) -> int:
        return rank(self.matrix)


@dataclass(frozen=True)
class Diagonalization:
    """P = U_inv @ diag(lambda) @ U with lambda entries in {0, 1}."""

    U: np.ndarray
    U_inv: np.ndarray
    lam: np.ndarray


def make_identity(r: int) -> StructuredTransform:
    _check_count("channel count", r)
    return StructuredTransform(np.eye(r), "identity")


def make_idempotent_mr(r: int, b: int) -> StructuredTransform:
    """Merge-and-run projector: a BxB grid of identity blocks scaled 1/B.

    Rank is exactly r / b; b = 1 degenerates to the identity matrix.
    """
    _check_count("channel count", r)
    _check_count("branch count", b)
    if r % b != 0:
        raise ValueError(f"branch count {b} must divide channel count {r}")
    block = np.eye(r // b)
    m = np.tile(block, (b, b)) / b
    return StructuredTransform(m, "idempotent_mr", {"B": b})


def make_idempotent_cmr(r: int, b: int) -> StructuredTransform:
    """Complement of the merge-and-run projector: I - P_MR, rank r - r/b."""
    mr = make_idempotent_mr(r, b).matrix
    return StructuredTransform(np.eye(r) - mr, "idempotent_cmr", {"B": b})


_TP_FACTOR = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def _check_power_of_two(r: int) -> int:
    if not (_is_int(r) and r >= 2 and r & (r - 1) == 0):
        raise ValueError(f"channel count must be a power of 2, got {r}; "
                         f"Kronecker orthogonals need power-of-2 widths")
    return r.bit_length() - 1


def make_orthogonal_tp(r: int) -> StructuredTransform:
    """Kronecker power of the fixed 2x2 rotation (1/sqrt2)[[1,-1],[1,1]]."""
    k = _check_power_of_two(r)
    return StructuredTransform(reduce(np.kron, [_TP_FACTOR] * k), "orthogonal_tp")


def _random_o2(rng: np.random.Generator) -> np.ndarray:
    """One 2x2 orthogonal factor: uniform rotation, reflected half the time."""
    theta = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(theta), np.sin(theta)
    q = np.array([[c, -s], [s, c]])
    if rng.random() < 0.5:
        q[:, 1] = -q[:, 1]
    return q


def make_orthogonal_random(r: int, seed: int) -> StructuredTransform:
    """Kronecker product of log2(r) seeded random O(2) factors."""
    k = _check_power_of_two(r)
    rng = np.random.default_rng(seed)
    m = reduce(np.kron, [_random_o2(rng) for _ in range(k)])
    return StructuredTransform(m, "orthogonal_random", {"seed": seed})


def make_periodic(r: int, n: int, seed: int) -> StructuredTransform:
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
    return StructuredTransform(m, "periodic", {"N": n, "seed": seed})


def _within_tol(residual: np.ndarray) -> bool:
    """Whether every entry of an invariant's residual is within tolerance."""
    return bool(np.abs(residual).max() <= _INVARIANT_TOL)


def is_idempotent(p) -> bool:
    m = _as_matrix(p)
    return _within_tol(m @ m - m)


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
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
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
    out = [np.eye(mats[0].shape[0])]
    for m in reversed(mats):
        out.insert(0, out[0] @ m)
    return out


def diagonalize_idempotent(p) -> Diagonalization:
    """Factor an idempotent matrix as U_inv @ diag(lam) @ U, lam in {0,1}.

    The columns of U_inv are an orthonormal basis of the range of P (from
    its SVD) followed by one of its null space, so lam is rank(P) ones
    followed by zeros. This serves symmetric projectors (both
    merge-and-run constructions) and oblique idempotents alike; U_inv is
    orthogonal when P is symmetric.
    """
    m = _as_matrix(p)
    if not is_idempotent(m):
        raise ValueError(f"matrix is not idempotent within {_INVARIANT_TOL}")
    r = m.shape[0]
    u_svd, s, vt = np.linalg.svd(m)
    k = _count_above_cutoff(s)
    col_basis = u_svd[:, :k]            # spans range(P)
    null_basis = vt[k:].T               # spans null(P)
    v = np.concatenate([col_basis, null_basis], axis=1)
    lam = np.concatenate([np.ones(k), np.zeros(r - k)])
    w = np.diag(np.linalg.solve(v, m @ v))
    if not _within_tol(w - lam):
        raise ValueError(f"idempotent eigenvalues are not within "
                         f"{_INVARIANT_TOL} of {{0, 1}}")
    return Diagonalization(U=np.linalg.inv(v), U_inv=v, lam=lam)


def apply_transform(p, x) -> Union[Tensor, np.ndarray]:
    """Mix channels of an NCHW input by P (a StructuredTransform or a raw
    matrix) at every spatial position, with the one op ``channel_mix``.

    A Tensor goes straight in (pullback P^T @ g). A plain array goes in as
    ``Tensor(x)``, so a non-float one is mixed in float64, and comes back
    as ``.data``; under an active Graph it leaves a node no gradient reaches.
    """
    m = _as_matrix(p)
    if isinstance(x, Tensor):
        return channel_mix(x, m)
    return channel_mix(Tensor(x), m).data
