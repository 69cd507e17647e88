"""Building blocks and full classification networks.

A block computes ``y = P x + F(x)`` where the branch composite F is
BN -> conv3x3 -> BN -> ReLU -> conv3x3 and P is a fixed square
channel-mixing matrix (or absent, for the no-skip control). Networks are
a 3x3 stem, three constant-width stages of K blocks, stride-2 transition
convolutions between stages, and a global-pool + dense head.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Optional, Sequence

import numpy as np

from . import transforms
# ``batch_norm`` and ``relu`` are no longer called here (each block folds
# its batch norms and ReLU into its convolutions), but tracers that wrap
# module attributes (the benchmark's among them) still look them up on
# this module
from .autodiff import (BatchNormState, Tensor, _is_int, add,  # noqa: F401
                       batch_norm, channel_mix, conv2d, dense,
                       global_avg_pool, relu)

__all__ = [
    "NetworkSpec",
    "BNLayer",
    "BuildingBlock",
    "Network",
    "build_network",
    "describe",
    "NetworkSummary",
]

BRANCH_MODES = ("single", "multi", "depthwise")


@dataclass
class NetworkSpec:
    """Declarative architecture description.

    ``transform_kind`` accepts any of ``transforms.KINDS`` plus
    ``"none"`` for the no-skip control (P = 0). ``transform_params`` may
    carry only ``B`` (idempotent branch count: an integer or ``"width"``,
    resolved per stage) and ``N`` (period of a periodic transform);
    :meth:`validate` rejects any other key. What a kind needs of a stage
    (a power-of-2 width, a B that divides it, ...) is stated once, by its
    ``transforms.make_*`` constructor. Random transforms are seeded
    from the ``seed`` passed to :func:`build_network`; an
    ``orthogonal_random`` stage draws one seeded matrix per block, every
    other kind one matrix per stage that its blocks share.
    """

    blocks_per_stage: int
    stage_widths: tuple = (16, 32, 64)
    branch_mode: str = "single"
    num_branches: int = 1
    transform_kind: str = "identity"
    transform_params: dict = field(default_factory=dict)
    num_classes: int = 10
    input_shape: tuple = (3, 32, 32)

    @property
    def depth_label(self) -> int:
        # two convolutions per block, three stages, stem and head layers
        return 6 * self.blocks_per_stage + 2

    def resolve_branches(self, width: int) -> int:
        """Branch count of a block of this width: its convolution groups."""
        if self.branch_mode == "single":
            return 1
        if self.branch_mode == "depthwise":
            return width
        return self.num_branches

    def resolve_transform_b(self, width: int) -> int:
        """Idempotent branch count B at this width (default: the block's
        branch count in multi mode, else the width)."""
        b = self.transform_params.get("B", self.num_branches
                                      if self.branch_mode == "multi" else width)
        return width if b == "width" else b

    def resolve_period(self) -> int:
        """Period N of a periodic transform (default 2)."""
        return self.transform_params.get("N", 2)

    def validate(self) -> None:
        """ValueError unless the fields are well formed and every stage's
        skip transform can be built. The kind rules are not restated here:
        each stage's transform is built once, so the constructor that
        :func:`build_network` calls is the one that accepts or rejects it."""
        if not isinstance(self.transform_params, dict):
            raise ValueError(f"transform_params must be a dict, got "
                             f"{self.transform_params!r}")
        fields = [(name, getattr(self, name)) for name in
                  ("blocks_per_stage", "num_branches", "num_classes")]
        fields += [(f"{name}[{i}]", v) for name in ("stage_widths", "input_shape")
                   for i, v in enumerate(getattr(self, name))]
        fields.append(("transform_params['N']", self.resolve_period()))
        for name, value in fields:
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        b = self.transform_params.get("B", "width")
        if b != "width" and not _is_int(b):
            raise ValueError(f"transform_params['B'] must be an integer or "
                             f"'width', got {b!r}")
        if self.blocks_per_stage < 1:
            raise ValueError("blocks_per_stage must be a positive integer")
        if len(self.stage_widths) != 3 or any(w < 1 for w in self.stage_widths):
            raise ValueError("stage_widths must be 3 positive integers")
        if self.branch_mode not in BRANCH_MODES:
            raise ValueError(f"branch_mode must be one of {BRANCH_MODES}, "
                             f"got {self.branch_mode!r}")
        if self.branch_mode == "multi":
            if self.num_branches < 2:
                raise ValueError("multi-branch mode requires num_branches >= 2")
            for w in self.stage_widths:
                if w % self.num_branches:
                    raise ValueError(
                        f"stage width {w} is not divisible by "
                        f"{self.num_branches} branches")
        unknown = set(self.transform_params) - {"B", "N"}
        if unknown:
            raise ValueError(f"transform_params keys {sorted(unknown)} are not "
                             f"read; only 'B' and 'N' are")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise ValueError("input_shape must be 3 positive integers "
                             "(channels, height, width)")
        for w in self.stage_widths:
            _make_transform(self, w, 0)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "NetworkSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown NetworkSpec keys: {sorted(unknown)}")
        kw = dict(d)
        for key in ("stage_widths", "input_shape"):
            if key in kw:
                try:
                    kw[key] = tuple(kw[key])
                except TypeError:
                    raise ValueError(f"{key} must be a sequence of integers, "
                                     f"got {kw[key]!r}") from None
        spec = cls(**kw)
        spec.validate()
        return spec


class BNLayer:
    """Trainable scale/shift plus running statistics for one batch norm."""

    def __init__(self, channels: int, dtype=np.float64):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.state = BatchNormState(channels, dtype)


def _he_conv(rng: np.random.Generator, out_ch: int, in_ch: int, k: int,
             dtype) -> Tensor:
    std = np.sqrt(2.0 / (in_ch * k * k))
    w = rng.standard_normal((out_ch, in_ch, k, k)) * std
    return Tensor(w, requires_grad=True, dtype=dtype)


class BuildingBlock:
    """One ``y = P x + F(x)`` unit at constant width.

    The branch set is realized as grouped convolutions: ``groups = 1`` for
    a single branch, ``groups = B`` for B parallel branches on disjoint
    channel slices, and ``groups = width`` for the depthwise extreme. The
    optional ``pre_mix``/``post_mix`` matrices wrap the whole branch
    composite (used by the equivalence conversions).

    Parameters and batch-norm statistics are in the block's dtype. The
    skip and mix matrices stay float64 whatever that dtype is: they are
    exact definitions, not per-network state, and are cast only where
    applied (``channel_mix``). Rounded to float32 they would stop meeting
    their invariants; a width-32 ``orthogonal_tp`` misses Q^T Q = I by
    3.4e-8, far beyond the 1e-10 of ``is_orthogonal``, so the rewrites
    would reject it.

    On a tape the block keeps only arrays that some pullback reads.
    Each batch norm is folded into the convolution it feeds: ``bn1`` ->
    ``conv1`` and ``bn2`` + ReLU -> ``conv2`` are one ``conv2d`` node each
    (its ``gamma``/``beta``/``state`` arguments), whose pullback
    recomputes the normalized input from its own input. A non-identity
    skip and the final sum are one node (``channel_mix(x, P, plus=F(x))``),
    because the mixed skip P x feeds only the sum, whose pullback reads
    nothing. The pullback of ``conv2`` (or of a ``post_mix``) reads only
    its input, so no pullback reads F(x) itself: :meth:`combine` rebinds
    the F(x) tensor to the sum's array, and F(x)'s own buffer is freed.
    The activation-sized arrays kept are then the outputs of ``conv1``
    and of the block itself (plus the ``pre_mix`` output and ``conv2``'s
    output when the wraps are set). F(x) stays a tensor of its own,
    because ``propagation.capture_trace`` seeds its walks there; it keeps
    its own reference to each F(x) array before the sum takes the tensor
    over.
    """

    def __init__(self, width: int, groups: int, skip: Optional[np.ndarray],
                 rng: np.random.Generator, dtype=np.float64):
        if width % groups:
            raise ValueError(f"width {width} not divisible by {groups} branches")
        self.width = width
        self.groups = groups
        self.bn1 = BNLayer(width, dtype)
        self.conv1 = _he_conv(rng, width, width // groups, 3, dtype)
        self.bn2 = BNLayer(width, dtype)
        self.conv2 = _he_conv(rng, width, width // groups, 3, dtype)
        self.pre_mix: Optional[np.ndarray] = None
        self.post_mix: Optional[np.ndarray] = None
        self.set_skip(skip)

    def set_skip(self, skip: Optional[np.ndarray]) -> None:
        if skip is not None:
            skip = transforms._as_matrix(skip)
            if skip.shape != (self.width, self.width):
                raise ValueError(
                    f"skip matrix shape {skip.shape} does not match width "
                    f"{self.width}")
        self.skip = skip
        self._skip_is_identity = skip is not None and \
            np.array_equal(skip, np.eye(self.width))

    def branch_output(self, x: Tensor, mode: str) -> Tensor:
        """The regular-connection term F(x) (with any conversion wraps)."""
        h = x
        if self.pre_mix is not None:
            h = channel_mix(h, self.pre_mix)
        h = self._normalized_conv(h, self.bn1, self.conv1, mode)
        h = self._normalized_conv(h, self.bn2, self.conv2, mode, relu=True)
        if self.post_mix is not None:
            h = channel_mix(h, self.post_mix)
        return h

    def _normalized_conv(self, h: Tensor, bn: BNLayer, kernel: Tensor,
                         mode: str, relu: bool = False) -> Tensor:
        """The branch's 3x3 convolution of ``relu?(bn(h))``, as one node."""
        return conv2d(h, kernel, stride=1, padding=1, groups=self.groups,
                      gamma=bn.gamma, beta=bn.beta, state=bn.state, mode=mode,
                      relu=relu)

    def combine(self, x: Tensor, branch: Tensor) -> Tensor:
        """The block equation ``y = P x + F(x)``, given ``branch = F(x)``.

        With a skip, ``branch`` then holds y's array: read F(x) before."""
        if self.skip is None:
            return branch
        if self._skip_is_identity:
            out = add(x, branch)
        else:
            out = channel_mix(x, self.skip, plus=branch)
        # no pullback reads F(x)'s values, only its tensor as a tape key, so
        # the sum takes over its array and F's own buffer is freed
        branch.data = out.data
        return out

    def forward(self, x: Tensor, mode: str) -> Tensor:
        return self.combine(x, self.branch_output(x, mode))


class Network:
    """Instantiated stem / stages / transitions / head with fixed skips."""

    def __init__(self, spec: NetworkSpec, stem: Tensor,
                 stages: Sequence[Sequence[BuildingBlock]],
                 transitions: Sequence[Tensor], head_weight: Tensor,
                 head_bias: Tensor, dtype):
        self.spec = spec
        self.stem = stem
        self.stages = [list(s) for s in stages]
        self.transitions = list(transitions)
        self.head_weight = head_weight
        self.head_bias = head_bias
        self.dtype = dtype

    # -- forward ------------------------------------------------------

    def _check_input(self, x: Tensor) -> None:
        c, h, w = self.spec.input_shape
        if x.data.ndim != 4 or x.data.shape[1:] != (c, h, w):
            raise ValueError(
                f"input shape {x.data.shape} does not match spec "
                f"(N, {c}, {h}, {w})")

    def stage_input(self, x, stage: int, mode: str = "eval") -> Tensor:
        """Forward through everything before 1-based ``stage``."""
        self.stage_blocks(stage)  # checks the index
        x = x if isinstance(x, Tensor) else Tensor(x, dtype=self.dtype)
        self._check_input(x)
        h = conv2d(x, self.stem, stride=1, padding=1)
        for s in range(stage - 1):
            h = self._run_stage(h, s, mode)
            h = conv2d(h, self.transitions[s], stride=2, padding=1)
        return h

    def _run_stage(self, h: Tensor, s: int, mode: str) -> Tensor:
        for block in self.stages[s]:
            h = block.forward(h, mode)
        return h

    def forward(self, x, mode: str = "eval") -> Tensor:
        """Logits for a batch; ``mode`` selects batch-norm behavior."""
        h = self._run_stage(self.stage_input(x, 3, mode), 2, mode)
        return dense(global_avg_pool(h), self.head_weight, self.head_bias)

    # -- parameters and state ------------------------------------------

    def parameters(self):
        """(name, tensor, decays) triples for every trainable tensor."""
        out = [("stem", self.stem, True)]
        for s, stage in enumerate(self.stages):
            for i, blk in enumerate(stage):
                pre = f"stage{s + 1}.block{i + 1}"
                out += [
                    (f"{pre}.bn1.gamma", blk.bn1.gamma, False),
                    (f"{pre}.bn1.beta", blk.bn1.beta, False),
                    (f"{pre}.conv1", blk.conv1, True),
                    (f"{pre}.bn2.gamma", blk.bn2.gamma, False),
                    (f"{pre}.bn2.beta", blk.bn2.beta, False),
                    (f"{pre}.conv2", blk.conv2, True),
                ]
        for t, tr in enumerate(self.transitions):
            out.append((f"transition{t + 1}", tr, True))
        out += [("head.weight", self.head_weight, True),
                ("head.bias", self.head_bias, False)]
        return out

    def parameter_count(self) -> int:
        return sum(t.size for _, t, _ in self.parameters())

    def _buffers(self) -> list:
        """(checkpoint key, array or None, setter, shape, dtype, required)
        for every non-trainable array, in checkpoint order. Running
        statistics are in the network's dtype; skip and mix matrices are
        float64 definitions (see :class:`BuildingBlock`)."""
        out = []
        for s, stage in enumerate(self.stages):
            for i, blk in enumerate(stage):
                pre = f"stage{s + 1}.block{i + 1}"
                square = (blk.width, blk.width)
                for bn in ("bn1", "bn2"):
                    st = getattr(blk, bn).state
                    out += [(f"{pre}.{bn}.{attr}", getattr(st, attr),
                             partial(setattr, st, attr), (blk.width,),
                             self.dtype, True)
                            for attr in ("running_mean", "running_var")]
                out.append((f"{pre}.skip", blk.skip, blk.set_skip, square,
                            np.float64, False))
                out += [(f"{pre}.{attr}", getattr(blk, attr),
                         partial(setattr, blk, attr), square, np.float64,
                         False)
                        for attr in ("pre_mix", "post_mix")]
        return out

    def state_dict(self) -> dict:
        """All arrays needed to reconstruct the network exactly."""
        out = {name: t.data for name, t, _ in self.parameters()}
        out.update((key, arr) for key, arr, *_ in self._buffers()
                   if arr is not None)
        return out

    def load_state(self, state: dict) -> None:
        """Copy a checkpoint in; every array must have its slot's shape and
        only finite entries that fit its slot's dtype, no running variance
        may be negative, and every skip must meet the invariant of the
        spec's transform kind."""
        consumed = set()
        for name, tensor, _ in self.parameters():
            if name not in state:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            tensor.data = _checked(name, state[name], tensor.dtype,
                                   tensor.data.shape)
            consumed.add(name)
        stage_skip = {}
        for key, _, store, shape, dtype, required in self._buffers():
            if key not in state:
                if required:
                    raise KeyError(f"checkpoint is missing buffer {key!r}")
                store(None)
                continue
            arr = _checked(key, state[key], dtype, shape)
            if key.endswith(".running_var") and (arr < 0).any():
                raise ValueError(f"checkpoint tensor {key!r} has negative "
                                 f"entries")
            if key.endswith(".skip"):
                arr = _check_skip_kind(self.spec, key, arr)
                # blocks of one stage that load equal skips share one array
                stage = key.partition(".")[0]
                if stage in stage_skip and np.array_equal(stage_skip[stage], arr):
                    arr = stage_skip[stage]
                stage_skip[stage] = arr
            store(arr)
            consumed.add(key)
        leftover = set(state) - consumed
        if leftover:
            raise ValueError(f"checkpoint has unexpected tensors: "
                             f"{sorted(leftover)}")

    def copy(self) -> "Network":
        return copy.deepcopy(self)

    def stage_blocks(self, stage: int) -> list:
        """The blocks of a 1-based stage; ValueError unless it is 1, 2 or 3."""
        if not _is_int(stage) or stage not in (1, 2, 3):
            raise ValueError(f"stage must be 1, 2, or 3, got {stage!r}")
        return self.stages[stage - 1]


def _checked(key: str, value, dtype, shape: tuple) -> np.ndarray:
    """A copy of one checkpoint array in ``dtype``, or ValueError naming
    ``key`` if its dtype is not integer or real float, its shape is not
    ``shape``, an entry is not finite, or an entry is beyond ``dtype``'s
    range. Both value checks run in the source dtype, before the cast."""
    src = np.asarray(value)
    if src.dtype.kind not in "iuf":
        raise ValueError(f"checkpoint tensor {key!r} has dtype {src.dtype}, "
                         f"expected integers or real floats")
    if src.shape != shape:
        raise ValueError(f"checkpoint tensor {key!r} has shape {src.shape}, "
                         f"expected {shape}")
    if not np.isfinite(src).all():
        raise ValueError(f"checkpoint tensor {key!r} has non-finite entries")
    if (np.abs(src) > np.finfo(dtype).max).any():
        raise ValueError(f"checkpoint tensor {key!r} has entries beyond the "
                         f"{np.dtype(dtype)} range")
    return np.array(src, dtype=dtype)


def _check_skip_kind(spec: NetworkSpec, key: str,
                     skip: np.ndarray) -> np.ndarray:
    """``skip`` read-only, as built skips are, or ValueError naming ``key``
    unless it meets the invariant of the spec's transform kind; a
    ``"none"`` network takes no skip at all."""
    if spec.transform_kind == "none":
        raise ValueError(f"checkpoint tensor {key!r} is a skip, but the "
                         f"network's transform kind is 'none'")
    try:
        return transforms.check_kind(skip, spec.transform_kind,
                                     spec.resolve_period())
    except ValueError as err:
        raise ValueError(f"checkpoint tensor {key!r}: {err}") from err


def _make_transform(spec: NetworkSpec, width: int,
                    seed: int) -> Optional[np.ndarray]:
    """The spec's skip transform at one width; ``"none"`` gives None."""
    kind = spec.transform_kind
    if kind == "none":
        return None
    if kind == "identity":
        return transforms.make_identity(width)
    if kind == "idempotent_mr":
        return transforms.make_idempotent_mr(width, spec.resolve_transform_b(width))
    if kind == "idempotent_cmr":
        return transforms.make_idempotent_cmr(width, spec.resolve_transform_b(width))
    if kind == "orthogonal_tp":
        return transforms.make_orthogonal_tp(width)
    if kind == "orthogonal_random":
        return transforms.make_orthogonal_random(width, seed)
    if kind == "periodic":
        return transforms.make_periodic(width, spec.resolve_period(), seed)
    raise ValueError(f"unknown transform kind {kind!r}")


def build_network(spec: NetworkSpec, seed: int = 0,
                  dtype=np.float64) -> Network:
    """Instantiate a full network from its spec, deterministically, in
    ``dtype``: float32 or float64, which the stem's ``Tensor`` enforces."""
    spec.validate()
    root = np.random.SeedSequence(seed)
    param_ss, transform_ss = root.spawn(2)
    rng = np.random.default_rng(param_ss)
    seed_rng = np.random.default_rng(transform_ss)

    c_in = spec.input_shape[0]
    widths = spec.stage_widths
    k = spec.blocks_per_stage
    draws = k if spec.transform_kind == "orthogonal_random" else 1
    stem = _he_conv(rng, widths[0], c_in, 3, dtype)
    stages = []
    for width in widths:
        groups = spec.resolve_branches(width)
        mats = [_make_transform(spec, width, int(seed_rng.integers(2 ** 31)))
                for _ in range(draws)] * (k // draws)
        # set_skip keeps the instance when the dtype already matches, so
        # blocks built from one stage matrix share it
        stages.append([BuildingBlock(width, groups, mat, rng, dtype)
                       for mat in mats])
    transitions = [_he_conv(rng, widths[1], widths[0], 3, dtype),
                   _he_conv(rng, widths[2], widths[1], 3, dtype)]
    head_w = Tensor((rng.standard_normal((spec.num_classes, widths[2]))
                     * np.sqrt(2.0 / widths[2])).astype(dtype),
                    requires_grad=True)
    head_b = Tensor(np.zeros(spec.num_classes, dtype=dtype), requires_grad=True)
    return Network(spec, stem, stages, transitions, head_w, head_b, dtype)


@dataclass
class NetworkSummary:
    depth_label: int
    layers: list
    parameter_count: int
    stage_transform_ranks: list

    def __str__(self) -> str:
        lines = [f"depth label: {self.depth_label}",
                 f"parameters: {self.parameter_count}",
                 "stage transform ranks: "
                 + ", ".join(str(r) for r in self.stage_transform_ranks)]
        lines += [f"  {name:<28s} {shape!s:<22s} {count:>8d}"
                  for name, shape, count in self.layers]
        return "\n".join(lines)


def describe(network: Network) -> NetworkSummary:
    """Deterministic layer list, parameter count, and per-stage skip ranks."""
    layers = [(name, tuple(t.shape), t.size)
              for name, t, _ in network.parameters()]
    ranks = [0 if stage[0].skip is None else transforms.rank(stage[0].skip)
             for stage in network.stages]
    return NetworkSummary(depth_label=network.spec.depth_label, layers=layers,
                          parameter_count=network.parameter_count(),
                          stage_transform_ranks=ranks)
