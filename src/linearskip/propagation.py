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
accumulation only.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import transforms
# ``add`` and ``matrix_power`` are no longer called here, but tracers that
# wrap module attributes (the benchmark's among them) still look them up
from .autodiff import Graph, Tensor, add, reduce_sum, vjp  # noqa: F401
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
    "skip_path_gain",
    "gradient_skip_gain",
    "null_space_components",
    "flow_report",
]


@dataclass
class PropagationTrace:
    """Recorded inputs, branch outputs, and gradients for blocks m..n.

    ``inputs[j]`` is x_{m+j}; ``branch_outputs[j]`` is x'_{m+j+1};
    ``gradients[j]`` is dL/dx_{m+j} for the probe loss L = sum(x_n).
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
        return self._at(self.gradients, i, self.n, "gradient")


def capture_trace(network: Network, x, stage: int, m: int, n: int,
                  mode: str = "eval") -> PropagationTrace:
    """Run the network over blocks m..n of a stage and record the trace.

    The probe loss is the sum of the entries of x_n; gradients with
    respect to every recorded block input come from one reverse pass.
    Batch-norm runs in eval mode by default so capture has no side
    effects.
    """
    blocks = network.stage_blocks(stage)
    k = len(blocks)
    if not (1 <= m < n <= k):
        raise ValueError(
            f"need 1 <= m < n <= {k} blocks in stage {stage}, got m={m}, n={n}")
    skips = [np.zeros((blk.width,) * 2) if blk.skip is None else blk.skip
             for blk in blocks[m - 1:n - 1]]
    shared = all(np.array_equal(p, skips[0]) for p in skips)

    # the tape starts at the stage input: no walk from x_m reaches before it
    h = Tensor(network.stage_input(x, stage, mode).data, requires_grad=True)
    with Graph() as graph:
        for blk in blocks[:m - 1]:
            h = blk.forward(h, mode)
        input_tensors = []
        branch_tensors = []
        for blk in blocks[m - 1:n - 1]:
            input_tensors.append(h)
            branch_tensors.append(blk.branch_output(h, mode))
            h = blk.combine(h, branch_tensors[-1])
        input_tensors.append(h)  # x_n
        loss = reduce_sum(h)

    grads = vjp(graph, {loss: np.ones_like(loss.data)}, wrt=input_tensors)
    gradients = [np.asarray(grads[t]) for t in input_tensors]
    trace = PropagationTrace(
        stage=stage, m=m, n=n, skips=skips,
        transform=skips[0] if shared else None,
        inputs=[t.data for t in input_tensors],
        branch_outputs=[t.data for t in branch_tensors],
        gradients=gradients, _graph=graph, _input_tensors=input_tensors,
        _branch_tensors=branch_tensors)
    _check_trace(trace)
    return trace


def _check_trace(trace: PropagationTrace, tol: float = 1e-10) -> None:
    """Replay x_{i+1} = P_i x_i + F(x_i) from the recorded pieces."""
    scale = max(np.abs(trace.inputs[0]).max(), 1.0)
    for i, p in enumerate(trace.skips, start=trace.m):
        recon = apply_transform(p, trace.x(i)) + trace.branch(i)
        dev = np.abs(recon - trace.x(i + 1)).max()
        if dev > tol * scale:
            raise AssertionError(
                f"trace violates the block equation at block {i}: "
                f"deviation {dev:.3e}")


@dataclass
class ExpansionCheck:
    deviation: float
    collapsed_deviation: Optional[float] = None


def _span(trace: PropagationTrace, m: Optional[int],
          n: Optional[int]) -> tuple:
    """Blocks m..n (default: the whole trace) and the paths Φ(n, m..n)."""
    m = trace.m if m is None else m
    n = trace.n if n is None else n
    if not (trace.m <= m < n <= trace.n):
        raise ValueError(f"need {trace.m} <= m < n <= {trace.n}")
    return m, n, skip_products(trace.skips[m - trace.m:n - trace.m])


def verify_forward_expansion(trace: PropagationTrace, m: Optional[int] = None,
                             n: Optional[int] = None) -> ExpansionCheck:
    """Rebuild x_n from x_m and the branch outputs; report max deviation.

    For one shared idempotent P the collapsed form (every path of one or
    more blocks replaced by P itself) is checked as well.
    """
    m, n, phi = _span(trace, m, n)
    p = trace.transform

    def deviation(paths):
        rhs = apply_transform(paths[0], trace.x(m))
        for i in range(m, n):
            rhs = rhs + apply_transform(paths[i - m + 1], trace.branch(i))
        return float(np.abs(rhs - trace.x(n)).max())

    collapsed = None
    if p is not None and is_idempotent(p):
        collapsed = deviation([p] * (n - m) + [phi[-1]])
    return ExpansionCheck(deviation(phi), collapsed)


def verify_backward_expansion(trace: PropagationTrace, m: Optional[int] = None,
                              n: Optional[int] = None) -> float:
    """Rebuild dL/dx_m from dL/dx_n plus branch vector-Jacobian terms.

    One walk seeded at every branch output sums the terms, by linearity.
    """
    m, n, phi = _span(trace, m, n)
    g_n = trace.grad(n)
    x_m = trace._input_tensors[m - trace.m]
    seeds = {trace._branch_tensors[i - trace.m]:
             apply_transform(phi[i - m + 1].T, g_n) for i in range(m, n)}
    pulled = vjp(trace._graph, seeds, wrt=[x_m])[x_m]
    recon = apply_transform(phi[0].T, g_n) + pulled
    return float(np.abs(recon - trace.grad(m)).max())


def _norm(v) -> float:
    return float(np.linalg.norm(np.asarray(v).ravel()))


def skip_path_gain(p, x) -> float:
    """|| P x ||_2 / || x ||_2 for a composed skip path P, such as Φ(n, m)."""
    mat = transforms._as_matrix(p)
    xd = np.asarray(x, dtype=np.float64)
    base = _norm(xd)
    if base == 0.0:
        raise ValueError("skip_path_gain is undefined for a zero input")
    out = apply_transform(mat, xd) if xd.ndim == 4 else mat @ xd
    return _norm(out) / base


def gradient_skip_gain(p, g) -> float:
    """|| P^T g ||_2 / || g ||_2 for a gradient signal g."""
    return skip_path_gain(transforms._as_matrix(p).T, g)


@dataclass
class NullSpaceSplit:
    column_part: np.ndarray
    null_part: np.ndarray
    fractions: Optional[tuple]


def null_space_components(p, v) -> NullSpaceSplit:
    """Split v = Pv + (v - Pv) for an idempotent P.

    For symmetric P the two parts are orthogonal and the squared-norm
    fractions sum to 1; for oblique projectors only the algebraic split
    is meaningful and ``fractions`` is None.
    """
    mat = transforms._as_matrix(p)
    if not is_idempotent(mat):
        raise ValueError("null-space split requires an idempotent matrix")
    vd = np.asarray(v, dtype=np.float64)
    col = apply_transform(mat, vd) if vd.ndim == 4 else mat @ vd
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
    backward_deviation: float
    null_fraction_x_m: Optional[float]
    null_fraction_x_n: Optional[float]

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"stage {self.stage}, blocks {self.m}..{self.n}\n")
        out.write(f"  skip-path gain      {self.skip_gain:.6f}\n")
        out.write(f"  gradient skip gain  {self.gradient_gain:.6f}\n")
        out.write(f"  forward expansion   max dev {self.forward_deviation:.3e}\n")
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
    """Gains, expansion deviations, and null-space shares for one trace."""
    p = trace.transform
    x_m = trace.x(trace.m)
    g_n = trace.grad(trace.n)
    _, _, phi = _span(trace, None, None)
    forward = verify_forward_expansion(trace)
    backward = verify_backward_expansion(trace)
    terms = [_norm(apply_transform(path, trace.branch(i)))
             for i, path in enumerate(phi[1:], start=trace.m)]
    nf_m = nf_n = None
    if p is not None and is_idempotent(p):
        frac_m = null_space_components(p, x_m).fractions
        frac_n = null_space_components(p, trace.x(trace.n)).fractions
        nf_m = None if frac_m is None else frac_m[1]
        nf_n = None if frac_n is None else frac_n[1]
    return FlowReport(
        stage=trace.stage, m=trace.m, n=trace.n,
        skip_gain=skip_path_gain(phi[0], x_m) if _norm(x_m) else 0.0,
        gradient_gain=gradient_skip_gain(phi[0], g_n) if _norm(g_n) else 0.0,
        term_norms=terms, forward_deviation=forward.deviation,
        backward_deviation=backward, null_fraction_x_m=nf_m,
        null_fraction_x_n=nf_n)
