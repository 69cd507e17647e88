"""The benchmark's workloads: seeded inputs, one op each, and output checks.

A workload builds its networks and data from a seed in ``setup`` and then
runs ops one at a time, each waiting for the previous one (a closed loop
with one caller). ``check`` returns the reasons an op's outputs are wrong,
an empty list when they are right. Every call into ``linearskip`` goes
through a module attribute (``network.build_network``, ``autodiff.backward``
and so on), so that the traced run can wrap those attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, ClassVar, Optional

import numpy as np

from linearskip import autodiff, equivalence, network, optim, propagation

NUM_CLASSES = 10
DATA_BATCHES = 4        # pool of distinct batches each workload cycles through
REFERENCE_SEED = 0      # seed of the fixed reference trajectory below
REFERENCE_STEPS = 3     # train steps from REFERENCE_SEED before the loss is compared

# Relative tolerances, in units of finfo(dtype).eps times the magnitude of
# the output they bound. On 5 seeds at K = 9 the largest deviations were
# 8 eps (expansions), 200 eps (logits and input gradients of the rewritten
# nets, which fold matrix powers into kernels) and 3 eps (null-space
# fractions summing to 1); each bound leaves a margin of at least 20x.
EXPANSION_TOL_EPS = 2.0 ** 8
EQUIVALENCE_TOL_EPS = 2.0 ** 12
FRACTION_TOL_EPS = 2.0 ** 6
# The loss after REFERENCE_STEPS steps is bit-identical with 1 and 2 BLAS
# threads, and scaling every initial weight by (1 + 4 eps) moves it by about
# 6 eps, so 2 ** 10 admits any reordering of sums but no change of result.
REFERENCE_TOL_EPS = 2.0 ** 10


def make_batches(seed: int, count: int, batch: int, dtype,
                 input_shape=(3, 32, 32)) -> list:
    """CIFAR-shaped, class-conditional data: one fixed pattern per class
    plus Gaussian noise. Returns ``count`` (images Tensor, labels) pairs."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    patterns = rng.standard_normal((NUM_CLASSES,) + tuple(input_shape))
    out = []
    for _ in range(count):
        labels = rng.integers(0, NUM_CLASSES, batch)
        images = patterns[labels] + 0.5 * rng.standard_normal(
            (batch,) + tuple(input_shape))
        out.append((autodiff.Tensor(images, dtype=dtype), labels))
    return out


def _eps(dtype) -> float:
    return float(np.finfo(dtype).eps)


def within(deviation: float, scale: float, dtype, tol_eps: float) -> bool:
    """deviation <= tol_eps * eps(dtype) * max(scale, 1); False for NaN."""
    return bool(deviation <= tol_eps * _eps(dtype) * max(scale, 1.0))


# ---------------------------------------------------------------------------
# training

def check_train_step(loss: float, params) -> list:
    """A train step fails if its loss or any parameter is not finite."""
    problems = []
    if not np.isfinite(loss):
        problems.append(f"loss is not finite: {loss}")
    bad = sum(1 for p in params if not np.isfinite(p.data).all())
    if bad:
        problems.append(f"{bad} parameter tensors hold non-finite values")
    return problems


def check_reference_loss(loss: float, reference: float, dtype) -> list:
    """The loss after the reference trajectory must match the stored value."""
    if within(abs(loss - reference), abs(reference), dtype, REFERENCE_TOL_EPS):
        return []
    return [f"loss after {REFERENCE_STEPS} reference steps is {loss!r}, "
            f"stored reference is {reference!r}"]


@dataclass
class TrainWorkload:
    """One op is one train step: forward in train mode, softmax
    cross-entropy, backward and a Nesterov SGD update."""

    name: str
    why: str
    spec: network.NetworkSpec
    dtype: type
    batch: int
    lr: float
    reference_loss: float
    ops_per_round: ClassVar[int] = 1

    def images_per_op(self) -> int:
        return self.batch

    def input_shape(self) -> tuple:
        return self.spec.input_shape

    def setup(self, seed: int) -> None:
        self.net = network.build_network(self.spec, seed, self.dtype)
        self.batches = make_batches(seed, DATA_BATCHES, self.batch, self.dtype,
                                    self.spec.input_shape)
        self.state = optim.OptimState(self.lr, momentum=0.9, weight_decay=1e-4)
        params = self.net.parameters()
        self.params = [t for _, t, _ in params]
        self.no_decay = [t for _, t, decays in params if not decays]
        self.steps = 0

    def op(self, probe: Optional[Callable] = None) -> float:
        """One train step; returns the loss. ``probe(graph)`` runs once the
        forward tape is complete, before backward."""
        images, labels = self.batches[self.steps % len(self.batches)]
        self.steps += 1
        with autodiff.Graph() as graph:
            logits = self.net.forward(images, mode="train")
            loss = autodiff.softmax_cross_entropy(logits, labels)
        if probe is not None:
            probe(graph)
        grads = autodiff.backward(graph, loss)
        optim.sgd_nesterov_step(self.params, grads, self.state, self.no_decay)
        return float(loss.data)

    def check(self, loss: float) -> list:
        return check_train_step(loss, self.params)

    def untimed_ops(self, measure: Callable) -> list:
        """Train REFERENCE_STEPS steps from REFERENCE_SEED on a fresh copy of
        this workload. The first step allocates the optimizer's velocities;
        the later ones run under ``measure``, which returns (loss, memory).
        Returns one (memory or None, problems) pair per step; the last step
        is also checked against the stored reference loss."""
        ref = replace(self)
        ref.setup(REFERENCE_SEED)
        out = []
        for step in range(REFERENCE_STEPS):
            if step == 0:
                loss, memory = ref.op(), None
            else:
                loss, memory = measure(ref.op)
            problems = ref.check(loss)
            if step == REFERENCE_STEPS - 1:
                problems += check_reference_loss(loss, self.reference_loss,
                                                 self.dtype)
            out.append((memory, problems))
        return out


# ---------------------------------------------------------------------------
# analysis

@dataclass
class StageResult:
    report: propagation.FlowReport
    x_n_scale: float          # max |x_n|, the output the forward check bounds
    grad_m_scale: float       # max |dL/dx_m|, the output the backward check bounds
    fractions_m: Optional[tuple] = None   # (column, null) shares of x_m
    fractions_n: Optional[tuple] = None


@dataclass
class AnalysisResult:
    net_index: int
    stages: list
    verdict: equivalence.EquivalenceReport
    input_grad_deviation: float
    mixing: list = field(default_factory=list)


def analyse_stage(trace: propagation.PropagationTrace,
                  idempotent: bool) -> StageResult:
    """Flow report of one traced stage, the magnitudes its checks scale
    by and, for idempotent skips, the null-space split of x_m and x_n."""
    stage = StageResult(propagation.flow_report(trace),
                        float(np.abs(trace.x(trace.n)).max()),
                        float(np.abs(trace.grad(trace.m)).max()))
    if idempotent:
        stage.fractions_m = propagation.null_space_components(
            trace.transform, trace.x(trace.m)).fractions
        stage.fractions_n = propagation.null_space_components(
            trace.transform, trace.x(trace.n)).fractions
    return stage


def check_stage(stage: StageResult, dtype) -> list:
    """Relative checks on one stage's forward and backward expansions and,
    for idempotent skips, on its null-space split."""
    rep = stage.report
    problems = []
    if not within(rep.forward_deviation, stage.x_n_scale, dtype,
                  EXPANSION_TOL_EPS):
        problems.append(f"stage {rep.stage}: forward expansion deviation "
                        f"{rep.forward_deviation:.3e} for max |x_n| "
                        f"{stage.x_n_scale:.3e}")
    if not within(rep.backward_deviation, stage.grad_m_scale, dtype,
                  EXPANSION_TOL_EPS):
        problems.append(f"stage {rep.stage}: backward expansion deviation "
                        f"{rep.backward_deviation:.3e} for max |dL/dx_m| "
                        f"{stage.grad_m_scale:.3e}")
    tol = FRACTION_TOL_EPS * _eps(dtype)
    for which, fractions, reported in (
            ("x_m", stage.fractions_m, rep.null_fraction_x_m),
            ("x_n", stage.fractions_n, rep.null_fraction_x_n)):
        if fractions is None:
            continue
        column, null = fractions
        if not (0.0 <= column <= 1.0 and 0.0 <= null <= 1.0):
            problems.append(f"stage {rep.stage}: null-space fractions of "
                            f"{which} {fractions} leave [0, 1]")
        if not abs(column + null - 1.0) <= tol:
            problems.append(f"stage {rep.stage}: null-space fractions of "
                            f"{which} sum to {column + null!r}")
        if reported is None or not abs(reported - null) <= tol:
            problems.append(f"stage {rep.stage}: flow report null fraction "
                            f"of {which} {reported} differs from {null}")
    return problems


def check_equivalence(logit_deviation: float, logit_scale: float,
                      grad_deviation: float, grad_scale: float, dtype) -> list:
    """The rewritten net must match the original's logits and input
    gradients up to rounding relative to their magnitudes."""
    problems = []
    if not within(logit_deviation, logit_scale, dtype, EQUIVALENCE_TOL_EPS):
        problems.append(f"rewrite changes logits by {logit_deviation:.3e} "
                        f"for max |logit| {logit_scale:.3e}")
    if not within(grad_deviation, grad_scale, dtype, EQUIVALENCE_TOL_EPS):
        problems.append(f"rewrite changes input gradients by "
                        f"{grad_deviation:.3e} for max |grad| {grad_scale:.3e}")
    return problems


@dataclass
class AnalysisNet:
    spec: network.NetworkSpec
    convert: str              # name of the equivalence rewrite for its skips


@dataclass
class AnalysisWorkload:
    """Two prebuilt nets taken in turn; one op analyses one net.

    For each stage: ``capture_trace`` over blocks 1..K and ``flow_report``
    (plus the null-space split for idempotent skips), then the matching
    rewrite, ``verify_equivalence``, ``input_gradient_deviation`` and, for
    multi-branch nets, ``mixing_interaction_report`` on every block.
    """

    name: str
    why: str
    nets: tuple
    batch: int
    dtype: ClassVar[type] = np.float64
    ops_per_round: ClassVar[int] = 2     # one op per net

    def images_per_op(self) -> int:
        return self.batch

    def input_shape(self) -> tuple:
        return self.nets[0].spec.input_shape

    def setup(self, seed: int) -> None:
        self.built = [network.build_network(n.spec, seed, self.dtype)
                      for n in self.nets]
        self.batches = make_batches(seed, DATA_BATCHES, self.batch, self.dtype,
                                    self.nets[0].spec.input_shape)
        self.probe_seed = seed
        self.ops = 0
        self._scales = {}

    def op(self, probe: Optional[Callable] = None) -> AnalysisResult:
        """Analyse the next net in turn. ``probe(graph)`` runs after each
        ``capture_trace``, while the trace still holds its tape."""
        index = self.ops % len(self.built)
        images, _ = self.batches[(self.ops // len(self.built)) % len(self.batches)]
        self.ops += 1
        net = self.built[index]
        blocks = net.spec.blocks_per_stage
        idempotent = net.spec.transform_kind.startswith("idempotent")
        stages = []
        for s in (1, 2, 3):
            trace = propagation.capture_trace(net, images, s, 1, blocks)
            if probe is not None:
                probe(trace._graph)
            stages.append(analyse_stage(trace, idempotent))
            del trace   # free this stage's tape before capturing the next
        converted = getattr(equivalence, self.nets[index].convert)(net)
        verdict = equivalence.verify_equivalence(
            net, converted, num_inputs=self.batch, seed=self.probe_seed)
        grad_dev = equivalence.input_gradient_deviation(
            net, converted, num_inputs=self.batch, seed=self.probe_seed)
        mixing = []
        if net.spec.branch_mode == "multi":
            mixing = [equivalence.mixing_interaction_report(block)
                      for stage_blocks in converted.stages
                      for block in stage_blocks]
        return AnalysisResult(index, stages, verdict, grad_dev, mixing)

    def untimed_ops(self, measure: Callable) -> list:
        """One op under ``measure``: the next net in turn. The two nets'
        peaks differ by < 0.1 MiB, and an op under tracemalloc takes ~4 s,
        so the counts are not repeated within a run; they repeat across
        runs, as every seed draws the same shapes."""
        result, memory = measure(self.op)
        return [(memory, self.check(result))]

    def _output_scales(self, index: int) -> tuple:
        """(max |logit|, max |d sum(logits) / d input|) of one net on the
        inputs that verify_equivalence and input_gradient_deviation draw."""
        if index not in self._scales:
            net = self.built[index]
            rng = np.random.default_rng(self.probe_seed)
            x = autodiff.Tensor(
                rng.standard_normal((self.batch,) + tuple(net.spec.input_shape)),
                requires_grad=True, dtype=self.dtype)
            with autodiff.Graph() as graph:
                logits = net.forward(x, mode="eval")
                total = autodiff.reduce_sum(logits)
            grad = autodiff.backward(graph, total)[x].data
            self._scales[index] = (float(np.abs(logits.data).max()),
                                   float(np.abs(grad).max()))
        return self._scales[index]

    def check(self, result: AnalysisResult) -> list:
        problems = []
        for stage in result.stages:
            problems += check_stage(stage, self.dtype)
        logit_scale, grad_scale = self._output_scales(result.net_index)
        problems += check_equivalence(result.verdict.max_deviation, logit_scale,
                                      result.input_grad_deviation, grad_scale,
                                      self.dtype)
        return problems


# ---------------------------------------------------------------------------
# the workloads

# The paper trains at lr 0.1. On this code identity-skip ResNet-20 diverges
# to NaN within about 10 steps even at lr 0.01 (no final BN + ReLU before
# pooling, so logits grow with depth); see NOTES.md. 1e-3 stays finite.
TRAIN_LR = 1e-3


def _workloads(blocks: dict, batch: dict, references: dict) -> dict:
    r20 = TrainWorkload(
        name="train_r20_dense_f32",
        why="paper's baseline ResNet-20: dense conv2d dominates, identity "
            "skip bypasses channel_mix and the grouped path; float32",
        spec=network.NetworkSpec(blocks["r20"]),
        dtype=np.float32, batch=batch["r20"], lr=TRAIN_LR,
        reference_loss=references["train_r20_dense_f32"])
    r56 = TrainWorkload(
        name="train_r56_depthwise_mr_f64",
        why="ResNet-56 depthwise with merge-and-run skips: grouped conv, a "
            "channel_mix on every block and a deep tape; float64",
        spec=network.NetworkSpec(blocks["r56"], branch_mode="depthwise",
                                 transform_kind="idempotent_mr",
                                 transform_params={"B": "width"}),
        dtype=np.float64, batch=batch["r56"], lr=TRAIN_LR,
        reference_loss=references["train_r56_depthwise_mr_f64"])
    analysis = AnalysisWorkload(
        name="analyze_r56_f64",
        why="the paper's verification path: repeated vjp walks over one "
            "retained tape, rewrites and equivalence checks; no optimizer",
        nets=(AnalysisNet(network.NetworkSpec(blocks["analysis"],
                                              transform_kind="orthogonal_tp"),
                          "convert_orthogonal_to_identity"),
              AnalysisNet(network.NetworkSpec(blocks["analysis"],
                                              branch_mode="multi",
                                              num_branches=4,
                                              transform_kind="idempotent_mr"),
                          "convert_idempotent_to_diagonal")),
        batch=batch["analysis"])
    return {w.name: w for w in (r20, r56, analysis)}


# Loss after REFERENCE_STEPS steps from REFERENCE_SEED, per size. Measured on
# numpy 2.4 with OpenBLAS 0.3.31; regenerate only when the program's
# arithmetic changes on purpose, and say so.
REFERENCE_LOSS = {
    "full": {"train_r20_dense_f32": 2.6519789695739746,
             "train_r56_depthwise_mr_f64": 2.4415529569649124},
    "tiny": {"train_r20_dense_f32": 3.6704163551330566,
             "train_r56_depthwise_mr_f64": 2.0804341300479643},
}


def workloads(size: str = "full") -> dict:
    """The benchmark's workloads by name. ``tiny`` (K = 1, batch 2; K = 2
    for analysis, whose traces need two blocks) is for the benchmark's own
    tests."""
    if size == "full":
        return _workloads({"r20": 3, "r56": 9, "analysis": 9},
                          {"r20": 32, "r56": 16, "analysis": 4},
                          REFERENCE_LOSS["full"])
    if size == "tiny":
        return _workloads({"r20": 1, "r56": 1, "analysis": 2},
                          {"r20": 2, "r56": 2, "analysis": 2},
                          REFERENCE_LOSS["tiny"])
    raise ValueError(f"size must be 'full' or 'tiny', got {size!r}")
