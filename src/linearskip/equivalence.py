"""Constructive conversions between skip-connection parameterizations.

Both rewrites are one change of basis z_i = B_i x_i per block, chosen so
that B_{i+1} P B_i^-1 is the new skip: B_1 is folded into the layer
feeding the stage, block i's branch composite is wrapped by fixed 1x1
mixes (pre B_i^-1, post B_{i+1}), and the exit basis B_{L+1}^-1 is folded
into the input channels of the layer after the stage. An orthogonal-skip
stage with skips Q_1..Q_L becomes an identity-skip stage with
B_i = Q_L...Q_i; an idempotent-skip stage becomes a diagonal {0,1}-skip
stage with B_i = U for P = U^-1 diag(lam) U. Both rewrites leave the
network's function unchanged up to floating-point accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Graph, backward, reduce_sum, Tensor
from .network import Network
# ``matrix_power`` is no longer called here, but tracers that wrap module
# attributes (the benchmark's among them) still look it up on this module
from .transforms import (diagonalize_idempotent, is_idempotent, is_orthogonal,
                         matrix_power, skip_products)  # noqa: F401

__all__ = [
    "EquivalenceReport",
    "MixingReport",
    "convert_orthogonal_to_identity",
    "convert_idempotent_to_diagonal",
    "verify_equivalence",
    "input_gradient_deviation",
    "mixing_interaction_report",
]


def _mix_channels(tensor, mat: np.ndarray, axis: int) -> None:
    """Fold a channel mix into a layer's weight: left-multiply its output
    axis (0) by ``mat``, or right-multiply its input axis (1) by ``mat``."""
    d = tensor.data
    m = mat.astype(d.dtype) if axis == 0 else mat.T.astype(d.dtype)
    tensor.data = np.ascontiguousarray(
        np.moveaxis(np.tensordot(m, d, axes=(1, axis)), 0, axis))


def _change_basis(net: Network, stage: int, bases, inverses,
                  skip: np.ndarray) -> None:
    """Rewrite a 1-based stage in place in the basis z_i = B_i x_i.

    ``bases`` and ``inverses`` hold B_1..B_{L+1} and their inverses, with
    B_{i+1} P_i B_i^-1 = ``skip`` for block i's skip P_i, so block i maps
    z_i to skip z_i + B_{i+1} F(B_i^-1 z_i). After stage 3 the head absorbs
    B_{L+1}^-1, because global pooling commutes with a channel mix.
    """
    _mix_channels(net.stem if stage == 1 else net.transitions[stage - 2],
                  bases[0], axis=0)
    for i, blk in enumerate(net.stages[stage - 1]):
        blk.pre_mix = inverses[i]
        blk.post_mix = bases[i + 1]
        blk.set_skip(skip)
    _mix_channels(net.head_weight if stage == 3 else net.transitions[stage - 1],
                  inverses[-1], axis=1)


def _stage_skips(net: Network, stage: int, law: str, holds, other: str,
                 shared: bool = False) -> list:
    """The skips of a stage's blocks, or ValueError naming the first block
    whose skip is missing, is not ``law`` or, if ``shared``, differs from
    block 1's."""
    skips = [blk.skip for blk in net.stage_blocks(stage)]
    for i, p in enumerate(skips, start=1):
        if p is None:
            why = "has no skip transform to convert"
        elif not holds(p):
            why = f"skip matrix is not {law}; use {other}"
        elif shared and not np.array_equal(p, skips[0]):
            why = "skip matrix differs from block 1's; it must be shared"
        else:
            continue
        raise ValueError(f"stage {stage} block {i} {why}")
    return skips


def convert_orthogonal_to_identity(net: Network) -> Network:
    """Rewrite every stage's orthogonal skips as identity skips.

    Each block may carry its own orthogonal Q_i: the bases are the skip
    paths B_i = Q_L...Q_i of ``skip_products``, the powers Q^(L+1-i) for
    a shared Q. The result computes the same function for every input.
    """
    out = net.copy()
    for stage in (1, 2, 3):
        bases = skip_products(_stage_skips(
            out, stage, "orthogonal", is_orthogonal,
            "convert_idempotent_to_diagonal"))
        _change_basis(out, stage, bases, [b.T for b in bases],
                      np.eye(len(bases[0])))
    return out


def convert_idempotent_to_diagonal(net: Network) -> Network:
    """Rewrite every stage's idempotent skips as diagonal {0,1} skips; the
    blocks of a stage must share one idempotent P."""
    out = net.copy()
    for stage in (1, 2, 3):
        skips = _stage_skips(out, stage, "idempotent", is_idempotent,
                             "convert_orthogonal_to_identity", shared=True)
        diag = diagonalize_idempotent(skips[0])
        n = len(skips) + 1
        _change_basis(out, stage, [diag.U] * n, [diag.U_inv] * n,
                      np.diag(diag.lam))
    return out


@dataclass
class EquivalenceReport:
    max_deviation: float
    tol: float
    num_inputs: int

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def _probe_inputs(net_a: Network, net_b: Network, num_inputs: int,
                  seed: int) -> np.ndarray:
    """Seeded standard-normal inputs for two networks that must agree on
    input shape and class count."""
    if net_a.spec.input_shape != net_b.spec.input_shape:
        raise ValueError(
            f"input shapes differ: {net_a.spec.input_shape} vs "
            f"{net_b.spec.input_shape}")
    if net_a.spec.num_classes != net_b.spec.num_classes:
        raise ValueError(
            f"output sizes differ: {net_a.spec.num_classes} vs "
            f"{net_b.spec.num_classes}")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((num_inputs,) + tuple(net_a.spec.input_shape))


def verify_equivalence(net_a: Network, net_b: Network, num_inputs: int = 32,
                       seed: int = 0) -> EquivalenceReport:
    """Max |logits_a - logits_b| over seeded random inputs, eval mode.

    Passes within 2^12 eps max(1, max |logits_a|), with the eps of the
    coarser dtype: the rewrites fold matrix powers into kernels, so their
    rounding grows with the logits and with eps.
    """
    x = _probe_inputs(net_a, net_b, num_inputs, seed)
    out_a = net_a.forward(x, mode="eval").data
    out_b = net_b.forward(x, mode="eval").data
    eps = max(np.finfo(out.dtype).eps for out in (out_a, out_b))
    tol = 2.0 ** 12 * float(eps) * max(1.0, float(np.abs(out_a).max()))
    return EquivalenceReport(float(np.abs(out_a - out_b).max()), tol,
                             num_inputs)


def input_gradient_deviation(net_a: Network, net_b: Network,
                             num_inputs: int = 4, seed: int = 0) -> float:
    """Max deviation of d(sum of logits)/d(input) between two networks.

    Each walk wants only the input gradient, so it computes no kernel or
    batch-norm parameter gradient."""
    x = _probe_inputs(net_a, net_b, num_inputs, seed)
    grads = []
    for net in (net_a, net_b):
        xt = Tensor(x, requires_grad=True, dtype=net.dtype)
        with Graph() as g:
            loss = reduce_sum(net.forward(xt, mode="eval"))
        grads.append(backward(g, loss, wrt=[xt])[xt].data)
    return float(np.abs(grads[0] - grads[1]).max())


@dataclass
class MixingReport:
    """Whether a block's fixed wraps exchange information across branches."""

    mixing: bool
    pre_block_diagonal: bool
    post_block_diagonal: bool
    pre_pattern: Optional[np.ndarray]
    post_pattern: Optional[np.ndarray]


def _branch_pattern(mat: Optional[np.ndarray], branches: int,
                    tol: float = 1e-12):
    """(is_block_diagonal, BxB nonzero-block pattern) for one wrap matrix."""
    if mat is None:
        return True, None
    w = mat.shape[0] // branches
    pattern = np.abs(mat).reshape(branches, w, branches, w).max(axis=(1, 3)) > tol
    off_diag = pattern & ~np.eye(branches, dtype=bool)
    return not off_diag.any(), pattern


def mixing_interaction_report(block) -> MixingReport:
    """Check the pre/post wraps against the block's branch partition."""
    if block.groups < 2:
        raise ValueError("mixing report requires a multi-branch block")
    pre_bd, pre_pat = _branch_pattern(block.pre_mix, block.groups)
    post_bd, post_pat = _branch_pattern(block.post_mix, block.groups)
    return MixingReport(mixing=not (pre_bd and post_bd),
                        pre_block_diagonal=pre_bd,
                        post_block_diagonal=post_bd,
                        pre_pattern=pre_pat, post_pattern=post_pat)
