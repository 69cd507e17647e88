"""Skip-connection matrices: identity, merge-and-run idempotents, Kronecker
orthogonals, and the periodic extension.

All constructors return a :class:`StructuredTransform`, an immutable square
float64 matrix tagged with its kind; the class constructor re-validates the
kind's defining invariant, so hand-built matrices can also be wrapped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .autodiff import Tensor, channel_mix

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
    "rank",
    "matrix_power",
    "diagonalize_idempotent",
    "apply_transform",
]

KINDS = ("identity", "idempotent_mr", "idempotent_cmr", "orthogonal_tp",
         "orthogonal_random", "periodic")

_IDEMPOTENT_TOL = 1e-10
_ORTHOGONAL_TOL = 1e-10
_PERIODIC_TOL = 1e-8


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
            if np.abs(m - np.eye(m.shape[0])).max() > _IDEMPOTENT_TOL:
                raise ValueError("identity transform matrix is not the identity")
        elif self.kind.startswith("idempotent"):
            if not is_idempotent(m, _IDEMPOTENT_TOL):
                raise ValueError(
                    f"matrix tagged {self.kind} violates P @ P = P beyond "
                    f"{_IDEMPOTENT_TOL}")
        elif self.kind.startswith("orthogonal"):
            if not is_orthogonal(m, _ORTHOGONAL_TOL):
                raise ValueError(
                    f"matrix tagged {self.kind} violates Q^T Q = I beyond "
                    f"{_ORTHOGONAL_TOL}")
        elif self.kind == "periodic":
            n = int(self.params.get("N", 1))
            dev = np.abs(matrix_power(m, n + 1) - m).max()
            if dev > _PERIODIC_TOL:
                raise ValueError(
                    f"matrix tagged periodic violates P^{n + 1} = P "
                    f"(deviation {dev:.3e})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def rank(self, tol: Optional[float] = None) -> int:
        return rank(self.matrix, tol)


@dataclass(frozen=True)
class Diagonalization:
    """P = U_inv @ diag(lambda) @ U with lambda entries in {0, 1}."""

    U: np.ndarray
    U_inv: np.ndarray
    lam: np.ndarray


def make_identity(r: int) -> StructuredTransform:
    return StructuredTransform(np.eye(r), "identity")


def make_idempotent_mr(r: int, b: int) -> StructuredTransform:
    """Merge-and-run projector: a BxB grid of identity blocks scaled 1/B.

    Rank is exactly r / b; b = 1 degenerates to the identity matrix.
    """
    if b < 1 or r % b != 0:
        raise ValueError(f"branch count {b} must divide channel count {r}")
    block = np.eye(r // b)
    m = np.tile(block, (b, b)) / b
    return StructuredTransform(m, "idempotent_mr", {"B": b})


def make_idempotent_cmr(r: int, b: int) -> StructuredTransform:
    """Complement of the merge-and-run projector: I - P_MR, rank r - r/b."""
    if b < 1 or r % b != 0:
        raise ValueError(f"branch count {b} must divide channel count {r}")
    m = np.eye(r) - make_idempotent_mr(r, b).matrix
    return StructuredTransform(m, "idempotent_cmr", {"B": b})


_TP_FACTOR = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)


def _is_power_of_two(r: int) -> bool:
    return r >= 2 and r & (r - 1) == 0


def _check_power_of_two(r: int) -> int:
    if not _is_power_of_two(r):
        raise ValueError(f"channel count must be a power of 2, got {r}")
    return r.bit_length() - 1


def make_orthogonal_tp(r: int) -> StructuredTransform:
    """Kronecker power of the fixed 2x2 rotation (1/sqrt2)[[1,-1],[1,1]]."""
    k = _check_power_of_two(r)
    m = _TP_FACTOR.copy()
    for _ in range(k - 1):
        m = np.kron(m, _TP_FACTOR)
    return StructuredTransform(m, "orthogonal_tp")


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
    m = _random_o2(rng)
    for _ in range(k - 1):
        m = np.kron(m, _random_o2(rng))
    return StructuredTransform(m, "orthogonal_random", {"seed": seed})


def make_periodic(r: int, n: int, seed: int) -> StructuredTransform:
    """Random matrix with P^(N+1) = P.

    Eigenvalues are 0 or N-th roots of unity; complex pairs are realized
    as 2x2 rotation blocks, conjugated by a random orthogonal basis.
    """
    if r < 2:
        raise ValueError(f"channel count must be at least 2, got {r}")
    if n < 1:
        raise ValueError(f"period must be a positive integer, got {n}")
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


def is_idempotent(p, tol: float = 1e-10) -> bool:
    m = _as_matrix(p)
    return bool(np.abs(m @ m - m).max() <= tol)


def is_orthogonal(p, tol: float = 1e-10) -> bool:
    m = _as_matrix(p)
    return bool(np.abs(m.T @ m - np.eye(m.shape[0])).max() <= tol)


def rank(p, tol: Optional[float] = None) -> int:
    """Numerical rank: singular values above tol (default 1e-8 * largest)."""
    m = _as_matrix(p)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    cutoff = tol if tol is not None else 1e-8 * sv[0]
    return int((sv > cutoff).sum())


def matrix_power(p, k: int) -> np.ndarray:
    if k < 0:
        raise ValueError(f"exponent must be non-negative, got {k}")
    m = _as_matrix(p)
    out = np.eye(m.shape[0])
    for _ in range(k):
        out = out @ m
    return out


def diagonalize_idempotent(p) -> Diagonalization:
    """Factor an idempotent matrix as U_inv @ diag(lam) @ U, lam in {0,1}.

    Symmetric projectors (both merge-and-run constructions are) use the
    symmetric eigendecomposition; other idempotents fall back to a basis
    assembled from the range and null space.
    """
    m = _as_matrix(p)
    if not is_idempotent(m, 1e-8):
        raise ValueError("matrix is not idempotent within 1e-8")
    r = m.shape[0]
    if np.abs(m - m.T).max() <= 1e-10:
        w, v = np.linalg.eigh(m)
        lam = np.round(w)
        if np.abs(w - lam).max() > 1e-8 or not np.all((lam == 0) | (lam == 1)):
            raise ValueError("idempotent eigenvalues are not within 1e-8 of {0, 1}")
        return Diagonalization(U=v.T.copy(), U_inv=v, lam=lam)
    u_svd, s, vt = np.linalg.svd(m)
    k = int((s > 1e-8 * max(s[0], 1.0)).sum())
    col_basis = u_svd[:, :k]            # spans range(P)
    null_basis = vt[k:].T               # spans null(P)
    v = np.concatenate([col_basis, null_basis], axis=1)
    lam = np.concatenate([np.ones(k), np.zeros(r - k)])
    w = np.diag(np.linalg.solve(v, m @ v))
    if np.abs(w - lam).max() > 1e-8:
        raise ValueError("idempotent eigenvalues are not within 1e-8 of {0, 1}")
    return Diagonalization(U=np.linalg.inv(v), U_inv=v, lam=lam)


def apply_transform(p, x) -> Union[Tensor, np.ndarray]:
    """Mix channels of an NCHW tensor by P at every spatial position.

    Participates in gradient recording (the pullback is P^T @ g). Accepts
    a StructuredTransform or a raw matrix; plain arrays pass through as
    plain arrays.
    """
    m = _as_matrix(p)
    if isinstance(x, Tensor):
        if x.data.shape[1] != m.shape[0]:
            raise ValueError(
                f"transform is {m.shape[0]}x{m.shape[0]}, input has "
                f"{x.data.shape[1]} channels")
        return channel_mix(x, m)
    xd = np.asarray(x)
    if xd.ndim != 4 or xd.shape[1] != m.shape[0]:
        raise ValueError(
            f"transform is {m.shape[0]}x{m.shape[0]}, input has shape {xd.shape}")
    n, c, h, w = xd.shape
    mixed = np.matmul(m.astype(xd.dtype, copy=False), xd.reshape(n, c, h * w))
    return mixed.reshape(n, c, h, w)
