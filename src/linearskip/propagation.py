"""Numerical verification of how features and gradients travel along the
skip path of a stage.

Block i maps x_i to x_{i+1} = P_i x_i + x'_{i+1}, with its own skip P_i
and branch output x'_{i+1} = F(x_i). Over blocks m..n of one stage, with
the skip paths Φ(n, i) = P_{n-1}...P_i (Φ(n, n) = I, Φ(n, i) = P^(n-i)
for a shared P):

    forward:   x_n = Φ(n, m) x_m + sum_i Φ(n, i+1) x'_{i+1}
    backward:  dL/dx_m = Φ(n, m)^T dL/dx_n + sum_i J_i^T Φ(n, i+1)^T dL/dx_n

where J_i is the Jacobian of x'_{i+1} with respect to x_m. Both are exact
chain-rule rearrangements, so deviations measure floating-point
accumulation only. Each check reports its terms' norms: the skip term's,
then each branch term's (forward) or their sum's (backward).
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from . import transforms
# ``add``, ``matrix_power`` and ``reduce_sum`` are not called here, but
# tracers that wrap module attributes (the benchmark's too) look them up
from .autodiff import (Graph, Tensor, _is_int, add,  # noqa: F401
                       reduce_sum, vjp)
from .network import Network
from .transforms import (apply_transform, is_idempotent, is_symmetric,
                         matrix_power, skip_products)  # noqa: F401

__all__ = [
    "PropagationTrace",
    "ExpansionCheck",
    "NullSpaceSplit",
    "FlowReport",
    "capture_trace",
    "verify_forward_expansion",
    "verify_backward_expansion",
    "null_space_components",
    "flow_report",
]

@dataclass
class PropagationTrace:
    """Recorded inputs, branch outputs, and end gradients for blocks m..n.

    ``inputs[j]`` is x_{m+j}; ``branch_outputs[j]`` is x'_{m+j+1};
    ``gradients`` is [dL/dx_m, dL/dx_n] for the probe loss L = sum(x_n),
    which lives in x_n's coordinates (see :func:`capture_trace`).
    The trace keeps its own x and F(x) arrays, as blocks release their
    tensors (``network.BuildingBlock``): ``_input_tensors`` and
    ``_branch_tensors`` serve only as the tape keys walks start and end at.
    ``skips[j]`` is block m+j's skip P_{m+j} (zeros for a block without
    one); ``transform`` is the one skip they all share, or None when the
    span's blocks differ.
    """

    stage: int
    m: int
    n: int
    skips: list
    transform: Optional[np.ndarray]
    inputs: list
    branch_outputs: list
    gradients: list
    _graph: Graph
    _input_tensors: list
    _branch_tensors: list

    def _at(self, values: list, i: int, last: int, what: str) -> np.ndarray:
        if not self.m <= i <= last:
            raise IndexError(f"{what} index {i} outside trace range "
                             f"[{self.m}, {last}]")
        return values[i - self.m]

    def x(self, i: int) -> np.ndarray:
        return self._at(self.inputs, i, self.n, "block")

    def branch(self, i: int) -> np.ndarray:
        """x'_{i+1} = F(x_i), for m <= i < n."""
        return self._at(self.branch_outputs, i, self.n - 1, "branch")

    def grad(self, i: int) -> np.ndarray:
        """dL/dx_i for i = m or n; an interior one is a sub-trace's end."""
        if i not in (self.m, self.n):
            raise IndexError(f"gradient index {i} is neither end of the "
                             f"trace, {self.m} or {self.n}")
        return self.gradients[i == self.n]


def capture_trace(network: Network, x, stage: int, m: int, n: int,
                  mode: str = "eval") -> PropagationTrace:
    """Run the network over blocks m..n of a stage and record the trace;
    n = K + 1 ends it at the stage's output. ValueError names the first
    block whose replay of the trace is not finite.

    Two ``Network.forward`` runs: one untaped, from the input to x_m, and
    one taped, from x_m to x_n, whose block hook records each x_i and
    F(x_i). No walk from x_m..x_n reaches an earlier layer, so the trace
    keeps none of their activations. The tape is declared for x_m
    (``Graph(wrt=[x_m])``), since both of its walks, the probe's and
    :func:`verify_backward_expansion`'s, ask for x_m alone: an eval
    trace's ReLU convolutions keep the forward's one-byte mask, not their
    input. The probe loss is the sum of the
    entries of x_n, so it depends on x_n's basis: a net and its
    function-equivalent rewrite can report different gradient gains (1.0
    against 0.5 for multi-4 ``idempotent_mr``). The probe is not taped:
    its cotangent dL/dx_n, all ones, seeds one reverse pass for dL/dx_m
    alone. That pass is an ``autodiff.vjp`` walk, not ``backward``,
    because ``backward`` frees the tape that the trace keeps for every
    later :func:`verify_backward_expansion` walk. Batch-norm runs in eval mode
    by default; in either mode capture leaves the running statistics as
    it found them, so it has no side effects.
    """
    blocks = network.stage_blocks(stage)
    k = len(blocks)
    if not (_is_int(m) and _is_int(n) and 1 <= m < n <= k + 1):
        raise ValueError(f"need 1 <= m < n <= {k + 1} (K + 1) in stage "
                         f"{stage}, got m={m}, n={n}")
    skips = [np.zeros((blk.width,) * 2) if blk.skip is None else blk.skip
             for blk in blocks[m - 1:n - 1]]
    shared = all(np.array_equal(p, skips[0]) for p in skips)

    # a train-mode batch norm rebinds its running statistics, so putting
    # the old arrays back undoes both forwards' updates
    kept = [(bn, bn.running_mean, bn.running_var)
            for st in network.stages for blk in st for bn in (blk.bn1, blk.bn2)]
    taken = []  # x_i, F(x_i) and their arrays, which their blocks release
    try:
        x_m = Tensor(network.forward(x, mode, stop=(stage, m)).data,
                     requires_grad=True)  # where the tape starts
        with Graph(wrt=[x_m]) as graph:
            x_n = network.forward(
                x_m, mode, start=(stage, m), stop=(stage, n),
                hook=lambda x_i, f_i: taken.append((x_i, x_i.data, f_i,
                                                    f_i.data)))
    finally:
        for bn, mean, var in kept:
            bn.running_mean, bn.running_var = mean, var
    input_tensors, inputs, branch_tensors, branch_outputs = map(list, zip(*taken))
    input_tensors.append(x_n)
    inputs.append(x_n.data)

    g_n = np.ones_like(x_n.data)   # dL/dx_n for the probe L = sum(x_n)
    gradients = [vjp(graph, {x_n: g_n}, wrt=[x_m])[x_m], g_n]
    trace = PropagationTrace(
        stage=stage, m=m, n=n, skips=skips,
        transform=skips[0] if shared else None,
        inputs=inputs, branch_outputs=branch_outputs,
        gradients=gradients, _graph=graph, _input_tensors=input_tensors,
        _branch_tensors=branch_tensors)
    _check_trace(trace)
    return trace


def _check_trace(trace: PropagationTrace) -> None:
    """Replay x_{i+1} = P_i x_i + F(x_i) from the recorded pieces: the
    block's own arithmetic on its own arrays, so it must be exact."""
    for i, p in enumerate(trace.skips, start=trace.m):
        recon = apply_transform(p, trace.x(i)) + trace.branch(i)
        dev = np.abs(recon - trace.x(i + 1)).max()
        if not np.isfinite(dev):
            raise ValueError(f"trace is not finite at block {i}")
        if dev > 0:
            raise AssertionError(
                f"trace violates the block equation at block {i}: "
                f"deviation {dev:.3e}")


@dataclass
class ExpansionCheck:
    deviation: float
    term_norms: list   # skip term; branch terms, or their sum (backward)
    collapsed_deviation: Optional[float] = None


def verify_forward_expansion(trace: PropagationTrace) -> ExpansionCheck:
    """Rebuild x_n from x_m and the branch outputs of the trace's span
    m..n; report max deviation and the norm of each term of the sum.

    For one shared idempotent P the collapsed form (every path of one or
    more blocks replaced by P itself) is checked as well.
    """
    phi = skip_products(trace.skips)
    p = trace.transform

    def deviation(paths, norms=None):
        rhs = None
        for path, v in zip(paths, [trace.inputs[0], *trace.branch_outputs]):
            term = apply_transform(path, v)
            rhs = term if rhs is None else rhs + term
            if norms is not None:
                norms.append(_norm(term))
        return float(np.abs(rhs - trace.inputs[-1]).max())

    norms, collapsed = [], None
    if p is not None and is_idempotent(p):
        collapsed = deviation([p] * len(trace.skips) + [phi[-1]])
    return ExpansionCheck(deviation(phi, norms), norms, collapsed)


def verify_backward_expansion(trace: PropagationTrace) -> ExpansionCheck:
    """Rebuild dL/dx_m from dL/dx_n plus branch vector-Jacobian terms over
    the trace's span m..n; report max deviation and the two term norms.

    One walk seeded at every branch output sums the terms, by linearity.
    Each seed Φ(n, i+1)^T dL/dx_n is a callable that the walk calls when
    it first reaches that branch (see :func:`autodiff.vjp`), so the walk
    holds one seed at a time, not one per block. It walks with ``vjp``,
    which keeps the trace's tape, so the check can run again on the same
    trace.
    """
    phi = skip_products(trace.skips)
    g_n = trace.gradients[-1]
    x_m = trace._input_tensors[0]
    seeds = {f: partial(apply_transform, path.T, g_n)
             for f, path in zip(trace._branch_tensors, phi[1:])}
    pulled = vjp(trace._graph, seeds, wrt=[x_m])[x_m]
    recon = apply_transform(phi[0].T, g_n)
    norms = [_norm(recon), _norm(pulled)]
    recon += pulled   # in place: no third activation-sized array
    return ExpansionCheck(float(np.abs(recon - trace.gradients[0]).max()),
                          norms)


def _norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v).ravel()))


@dataclass
class NullSpaceSplit:
    column_part: np.ndarray
    null_part: np.ndarray
    fractions: Optional[tuple]


def null_space_components(p, v) -> NullSpaceSplit:
    """Split v = Pv + (v - Pv) for an idempotent square matrix P, in v's
    dtype (float64 unless v is float32).

    For symmetric P the two parts are orthogonal and the squared-norm
    fractions sum to 1; for oblique projectors only the algebraic split
    is meaningful and ``fractions`` is None.
    """
    mat = transforms._as_matrix(p)
    if not is_idempotent(mat):
        raise ValueError("null-space split requires an idempotent matrix")
    vd = Tensor(v).data
    col = (apply_transform(mat, vd) if vd.ndim == 4
           else mat.astype(vd.dtype, copy=False) @ vd)
    null = vd - col
    fractions = None
    if is_symmetric(mat):
        total = _norm(vd) ** 2
        if total > 0:
            fractions = (_norm(col) ** 2 / total, _norm(null) ** 2 / total)
    return NullSpaceSplit(column_part=col, null_part=null, fractions=fractions)


@dataclass
class FlowReport:
    """Signal accounting along one traced span of blocks."""

    stage: int
    m: int
    n: int
    skip_gain: float
    gradient_gain: float
    term_norms: list
    forward_deviation: float
    collapsed_deviation: Optional[float]  # one shared idempotent P only
    backward_deviation: float
    null_fraction_x_m: Optional[float]
    null_fraction_x_n: Optional[float]

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"stage {self.stage}, blocks {self.m}..{self.n}\n")
        out.write(f"  skip-path gain      {self.skip_gain:.6f}\n")
        out.write(f"  gradient skip gain  {self.gradient_gain:.6f}\n")
        out.write(f"  forward expansion   max dev {self.forward_deviation:.3e}\n")
        if self.collapsed_deviation is not None:
            out.write(f"  collapsed expansion max dev "
                      f"{self.collapsed_deviation:.3e}\n")
        out.write(f"  backward expansion  max dev {self.backward_deviation:.3e}\n")
        for i, nrm in enumerate(self.term_norms):
            out.write(f"  |Φ({self.n},{self.m + i + 1}) x'_{self.m + i + 1}|"
                      f"  {nrm:.6f}\n")
        if self.null_fraction_x_m is not None:
            out.write(f"  null-space fraction of x_m  "
                      f"{self.null_fraction_x_m:.6f}\n")
            out.write(f"  null-space fraction of x_n  "
                      f"{self.null_fraction_x_n:.6f}\n")
        return out.getvalue()


def flow_report(trace: PropagationTrace) -> FlowReport:
    """Gains, expansion deviations, and null-space shares for one trace.

    Both gains' numerators (the skip terms) and the term norms are the
    expansion checks' own; both gains are 0.0 for a zero input."""
    p = trace.transform
    x_m, x_n, g_n = trace.inputs[0], trace.inputs[-1], trace.gradients[-1]
    forward = verify_forward_expansion(trace)
    backward = verify_backward_expansion(trace)
    skip_norm, *terms = forward.term_norms
    base_x, base_g = _norm(x_m), _norm(g_n)
    nf_m = nf_n = None
    if forward.collapsed_deviation is not None:   # one shared idempotent P
        frac_m = null_space_components(p, x_m).fractions
        frac_n = null_space_components(p, x_n).fractions
        nf_m = None if frac_m is None else frac_m[1]
        nf_n = None if frac_n is None else frac_n[1]
    return FlowReport(
        stage=trace.stage, m=trace.m, n=trace.n,
        skip_gain=skip_norm / base_x if base_x else 0.0,
        gradient_gain=backward.term_norms[0] / base_g if base_g else 0.0,
        term_norms=terms, forward_deviation=forward.deviation,
        collapsed_deviation=forward.collapsed_deviation,
        backward_deviation=backward.deviation, null_fraction_x_m=nf_m,
        null_fraction_x_n=nf_n)
