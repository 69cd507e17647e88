"""Constructive conversions between skip-connection parameterizations.

Both rewrites are one change of basis z_i = B_i x_i per block, chosen so
that B_{i+1} P B_i^-1 is the new skip: B_1 is folded into the layer
feeding the stage, block i's branch composite is wrapped by fixed 1x1
mixes (pre B_i^-1, post B_{i+1}), and the exit basis B_{L+1}^-1 is folded
into the input channels of the layer after the stage. An orthogonal-skip
stage with skips Q_1..Q_L becomes an identity-skip stage with
B_i = Q_L...Q_i; a stage that shares one P with P^(N+1) = P (N = 1: an
idempotent) becomes a stage of skip C with B_i = V^-1 for P = V C V^-1,
its real canonical form (diagonal {0,1} for an idempotent). Both rewrites
leave the network's function unchanged up to floating-point accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Graph, backward, reduce_sum, Tensor
from .network import Network
# ``matrix_power`` is no longer called here, but tracers that wrap module
# attributes (the benchmark's among them) still look it up on this module
from .transforms import (_check_count, _periodic_law, canonical_form,
                         is_orthogonal, is_periodic, matrix_power,
                         skip_products)  # noqa: F401

__all__ = [
    "EquivalenceReport",
    "MixingReport",
    "convert_orthogonal_to_identity",
    "convert_idempotent_to_diagonal",
    "verify_equivalence",
    "input_gradient_deviation",
    "mixing_interaction_report",
]

_BRANCH_TOL = 1e-12   # a wrap's branch block is zero if no entry exceeds it


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
    z_i to skip z_i + B_{i+1} F(B_i^-1 z_i). A block that a rewrite has
    already wrapped, F = W_post G(W_pre x), gets the composed wraps W_pre
    B_i^-1 and B_{i+1} W_post. After stage 3 the head absorbs B_{L+1}^-1,
    because global pooling commutes with a channel mix. The wraps and
    skips are read-only, and blocks given one array share it.
    """
    _mix_channels(net.stem if stage == 1 else net.transitions[stage - 2],
                  bases[0], axis=0)
    # read-only, so the blocks share each matrix, not copies of it
    for mat in (skip, *bases, *inverses):
        mat.flags.writeable = False
    for i, blk in enumerate(net.stages[stage - 1]):
        pre, post = blk.pre_mix, blk.post_mix
        blk.pre_mix = inverses[i] if pre is None else pre @ inverses[i]
        blk.post_mix = bases[i + 1] if post is None else bases[i + 1] @ post
        blk.skip = skip
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
    """Rewrite each stage's shared skip P, P^(N+1) = P (N: a periodic spec's
    period, else 1), as its canonical form C: diagonal {0,1} if idempotent."""
    n = net.spec.resolve_period() if net.spec.transform_kind == "periodic" else 1
    out = net.copy()
    for stage in (1, 2, 3):
        skips = _stage_skips(out, stage, _periodic_law(n),
                             lambda q: is_periodic(q, n),
                             "convert_orthogonal_to_identity", shared=True)
        v, v_inv, c = canonical_form(skips[0], n)
        k = len(skips) + 1
        _change_basis(out, stage, [v_inv] * k, [v] * k, c)
    return out


@dataclass
class EquivalenceReport:
    max_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tol


def _probe_inputs(net_a: Network, net_b: Network, num_inputs: int,
                  seed: int) -> np.ndarray:
    """Seeded standard-normal inputs for two networks that must agree on
    input shape and class count."""
    _check_count("num_inputs", num_inputs)
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
    return EquivalenceReport(float(np.abs(out_a - out_b).max()), tol)


def input_gradient_deviation(net_a: Network, net_b: Network,
                             num_inputs: int = 4, seed: int = 0) -> float:
    """Max deviation of d(sum of logits)/d(input) between two networks.

    Each tape is declared for the input (``Graph(wrt=[x])``), so its walk
    computes no kernel or batch-norm parameter gradient, and its eval
    convolutions keep nothing of their inputs but each folded ReLU's
    one-byte mask: the tape holds about an eighth of one float64
    activation per block, not two."""
    x = _probe_inputs(net_a, net_b, num_inputs, seed)
    grads = []
    for net in (net_a, net_b):
        xt = Tensor(x, requires_grad=True, dtype=net.dtype)
        with Graph(wrt=[xt]) as g:
            loss = reduce_sum(net.forward(xt, mode="eval"))
        grads.append(backward(g, loss)[xt].data)
    return float(np.abs(grads[0] - grads[1]).max())


@dataclass
class MixingReport:
    """Whether a block's fixed wraps exchange information across branches."""

    mixing: bool
    pre_pattern: Optional[np.ndarray]
    post_pattern: Optional[np.ndarray]


def _branch_pattern(mat: Optional[np.ndarray], branches: int):
    """(is_block_diagonal, BxB nonzero-block pattern) for one wrap matrix."""
    if mat is None:
        return True, None
    w = mat.shape[0] // branches
    blocks = np.abs(mat).reshape(branches, w, branches, w)
    pattern = blocks.max(axis=(1, 3)) > _BRANCH_TOL
    off_diag = pattern & ~np.eye(branches, dtype=bool)
    return not off_diag.any(), pattern


def mixing_interaction_report(block) -> MixingReport:
    """Check the pre/post wraps against the block's branch partition."""
    if block.groups < 2:
        raise ValueError("mixing report requires a multi-branch block")
    pre_bd, pre_pat = _branch_pattern(block.pre_mix, block.groups)
    post_bd, post_pat = _branch_pattern(block.post_mix, block.groups)
    return MixingReport(mixing=not (pre_bd and post_bd),
                        pre_pattern=pre_pat, post_pattern=post_pat)
