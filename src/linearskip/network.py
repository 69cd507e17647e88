"""Building blocks and full classification networks.

A block computes ``y = P x + F(x)`` where the branch composite F is
BN -> conv3x3 -> BN -> ReLU -> conv3x3 and P is a fixed square
channel-mixing matrix (or absent, for the no-skip control). Networks are
a 3x3 stem, three constant-width stages of K blocks, stride-2 transition
convolutions between stages, and a global-pool + dense head.
``Network.forward`` runs them in order, from any block to any later one.
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
from .autodiff import (BatchNorm, Tensor, _check_mode, _is_int,  # noqa: F401
                       _release, add, batch_norm, channel_mix, conv2d, dense,
                       global_avg_pool, relu)

__all__ = [
    "NetworkSpec",
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
    composite (used by the equivalence conversions). However the skip or
    a wrap is set, one rule holds it: :meth:`_held`.

    Parameters and batch-norm statistics are in the block's dtype. The
    skip and mix matrices stay float64 whatever that dtype is: they are
    exact definitions, not per-network state, and are cast only where
    applied (``channel_mix``). Rounded to float32 they would stop meeting
    their invariants; a width-32 ``orthogonal_tp`` misses Q^T Q = I by
    3.4e-8, far beyond the 1e-10 of ``is_orthogonal``, so the rewrites
    would reject it.

    ``bn1`` and ``bn2`` are one ``autodiff.BatchNorm`` each. On a tape
    the block keeps only arrays that some pullback reads. Each batch norm
    is folded into the convolution it feeds: ``bn1`` -> ``conv1`` and
    ``bn2`` + ReLU -> ``conv2`` are one ``conv2d(..., norm=bn)`` node
    each, whose pullback recomputes the normalized input from its own
    input. A non-identity skip and the final sum are one node
    (``channel_mix(x, P, plus=F(x))``), because the mixed skip P x feeds
    only the sum. One release rule holds for every activation the block
    and ``Network.forward`` make (``_run``): it is released
    (``autodiff._release``) once its last forward reader has run, since
    every pullback captures what it reads; a tensor the caller passed in
    is never released. So a block keeps what its convolutions' pullbacks
    captured. On an undeclared train tape those are the inputs of its two
    convolutions, ``conv1``'s output and the block's input (its
    ``pre_mix`` output when wrapped): two activation-sized arrays, wrapped
    or not. On a tape declared for the network's input (``Graph(wrt=
    [x])``) an eval block keeps only ``conv2``'s one-byte ReLU mask. F(x)
    stays a tensor of its own, because ``propagation.capture_trace`` seeds
    its walks there; its block hook keeps its own reference to each x and
    F(x) array before the release.
    """

    def __init__(self, width: int, groups: int, skip: Optional[np.ndarray],
                 rng: np.random.Generator, dtype=np.float64):
        if width % groups:
            raise ValueError(f"width {width} not divisible by {groups} branches")
        self.width = width
        self.groups = groups
        self.bn1 = BatchNorm(width, dtype)
        self.conv1 = _he_conv(rng, width, width // groups, 3, dtype)
        self.bn2 = BatchNorm(width, dtype)
        self.conv2 = _he_conv(rng, width, width // groups, 3, dtype)
        self.skip, self.pre_mix, self.post_mix = skip, None, None

    def __setattr__(self, name: str, value) -> None:
        if name in ("skip", "pre_mix", "post_mix"):
            value = self._held(value, name)
        super().__setattr__(name, value)

    def _held(self, mat: Optional[np.ndarray],
              name: str) -> Optional[np.ndarray]:
        """``mat`` as the block holds its skip or a wrap: a read-only
        matrix as given, so blocks handed one share it, and a writable one
        as a read-only copy, so no later write to the caller's array
        changes the block. ValueError unless it is a real (width, width)
        matrix."""
        if mat is None:
            return None
        mat = transforms._as_matrix(mat)
        if mat.shape != (self.width, self.width):
            raise ValueError(f"{name} matrix shape {mat.shape} does not "
                             f"match width {self.width}")
        if mat.flags.writeable:
            mat = mat.copy()
            mat.flags.writeable = False
        return mat

    def branch_output(self, x: Tensor, mode: str) -> Tensor:
        """The regular-connection term F(x) (with any conversion wraps)."""
        conv = partial(conv2d, stride=1, padding=1, groups=self.groups,
                       mode=mode)
        layers = [partial(conv, kernel=self.conv1, norm=self.bn1),
                  partial(conv, kernel=self.conv2, norm=self.bn2, relu=True)]
        if self.pre_mix is not None:
            layers.insert(0, partial(channel_mix, matrix=self.pre_mix))
        if self.post_mix is not None:
            layers.append(partial(channel_mix, matrix=self.post_mix))
        return _run(x, layers)

    def forward(self, x: Tensor, mode: str, hook=None) -> Tensor:
        """The block equation ``y = P x + F(x)``. ``hook(x, F(x))``, if
        given, runs before the sum, which releases F(x) when there is a
        skip: a hook that needs F(x)'s values keeps its array."""
        branch = self.branch_output(x, mode)
        if hook is not None:
            hook(x, branch)
        if self.skip is None:
            return branch
        if np.array_equal(self.skip, np.eye(self.width)):
            out = add(x, branch)
        else:
            out = channel_mix(x, self.skip, plus=branch)
        _release(branch)   # the sum was its last reader
        return out


def _run(x: Tensor, layers) -> Tensor:
    """``layers`` applied in turn from ``x``, releasing each activation
    made on the way once the next layer, its last reader, has run; ``x``
    is the caller's, and is kept. A pullback captures what it reads (see
    ``autodiff``), so a release frees exactly what no pullback kept."""
    h = x
    for layer in layers:
        out = layer(h)
        if h is not x:
            _release(h)
        h = out
    return h


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

    def _steps_before(self, pos, name: str) -> int:
        """The blocks and transitions run from the stem to ``pos``."""
        try:
            stage, i = pos
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be a (stage, block) pair, "
                             f"got {pos!r}") from None
        k = len(self.stage_blocks(stage))
        if not _is_int(i) or not 1 <= i <= k + 1:
            raise ValueError(f"{name} block must be 1..{k + 1}, got {i!r}")
        return (stage - 1) * (k + 1) + i - 1

    def forward(self, x, mode: str = "eval", start=None, stop=None,
                hook=None) -> Tensor:
        """x at ``stop``, or the logits if ``stop`` is None, from the
        network's input ``x`` or, given ``start``, from x at ``start``.

        A position (s, i) names x_i, block i's input in 1-based stage s;
        (s, K + 1) names the stage's output. ValueError, before anything
        runs, for a bad ``mode`` or position or a ``stop`` before ``start``.
        ``mode`` selects batch-norm behavior; ``hook`` goes to every block's
        :meth:`BuildingBlock.forward`. Each activation the run makes is
        released after its last reader (see :class:`BuildingBlock`); ``x``
        is the caller's and keeps its values."""
        _check_mode(mode)
        k = self.spec.blocks_per_stage
        lo = 0 if start is None else self._steps_before(start, "start")
        hi = 3 * k + 2 if stop is None else self._steps_before(stop, "stop")
        if hi < lo:
            raise ValueError(f"stop {stop!r} comes before start {start!r}")
        h = x if isinstance(x, Tensor) else Tensor(x, dtype=self.dtype)
        c, height, width = self.spec.input_shape
        where = "input"
        if start is not None:   # x_i of stage s: s - 1 transitions, ceil(d/2)
            s = start[0]
            where, c = f"x at {start}", self.spec.stage_widths[s - 1]
            height, width = (-(-d // 2 ** (s - 1)) for d in (height, width))
        if h.data.ndim != 4 or h.data.shape[1:] != (c, height, width):
            raise ValueError(f"{where} shape {h.data.shape} does not match "
                             f"spec (N, {c}, {height}, {width})")
        layers = []
        if start is None:
            layers.append(partial(conv2d, kernel=self.stem, stride=1,
                                  padding=1))
        for step in range(lo, hi):
            s, i = divmod(step, k + 1)
            layers.append(
                partial(conv2d, kernel=self.transitions[s], stride=2,
                        padding=1) if i == k else
                partial(self.stages[s][i].forward, mode=mode, hook=hook))
        if stop is None:
            layers += [global_avg_pool, partial(dense, weight=self.head_weight,
                                                bias=self.head_bias)]
        return _run(h, layers)

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
                for name in ("bn1", "bn2"):
                    bn = getattr(blk, name)
                    out += [(f"{pre}.{name}.{attr}", getattr(bn, attr),
                             partial(setattr, bn, attr), (blk.width,),
                             self.dtype, True)
                            for attr in ("running_mean", "running_var")]
                out += [(f"{pre}.{attr}", getattr(blk, attr),
                         partial(setattr, blk, attr), square, np.float64,
                         False)
                        for attr in ("skip", "pre_mix", "post_mix")]
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
        spec's transform kind. The loaded matrices are read-only. Nothing
        is written unless the whole checkpoint passes."""
        consumed = set()
        writes = []   # (store, array), made once every check has passed
        for name, tensor, _ in self.parameters():
            if name not in state:
                raise KeyError(f"checkpoint is missing parameter {name!r}")
            writes.append((partial(setattr, tensor, "data"),
                           _checked(name, state[name], tensor.dtype,
                                    tensor.data.shape)))
            consumed.add(name)
        stage_skip = {}
        for key, _, store, shape, dtype, required in self._buffers():
            if key not in state:
                if required:
                    raise KeyError(f"checkpoint is missing buffer {key!r}")
                writes.append((store, None))
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
            writes.append((store, arr))
            consumed.add(key)
        leftover = set(state) - consumed
        if leftover:
            raise ValueError(f"checkpoint has unexpected tensors: "
                             f"{sorted(leftover)}")
        for store, arr in writes:
            store(arr)

    def copy(self) -> "Network":
        """A deep copy; blocks that share a matrix share its copy, and the
        copied skip and wrap matrices are read-only, as built skips are."""
        out = copy.deepcopy(self)
        # deepcopy bypasses __setattr__ and its copies are writable, so
        # they are frozen in place, which keeps their sharing
        for blk in (b for stage in out.stages for b in stage):
            for mat in (blk.skip, blk.pre_mix, blk.post_mix):
                if mat is not None:
                    mat.flags.writeable = False
        return out

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
        # a block holds a read-only matrix as given (BuildingBlock._held),
        # as it holds its wraps, so blocks built from one stage matrix share it
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
