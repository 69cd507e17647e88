import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from linearskip import equivalence
from linearskip import transforms as tr
from linearskip.autodiff import Graph, Tensor, conv2d, dense, global_avg_pool
from linearskip.network import (BuildingBlock, NetworkSpec, build_network,
                                describe)

import oracles


def small_spec(**kw):
    base = dict(blocks_per_stage=2, stage_widths=(4, 8, 8),
                transform_kind="identity", num_classes=10,
                input_shape=(3, 8, 8))
    base.update(kw)
    return NetworkSpec(**base)


# ---------------------------------------------------------------------------
# block construction

def test_single_branch_identity_block_adds_input():
    blk = BuildingBlock(16, 1, tr.make_identity(16),
                        np.random.default_rng(0))
    x = Tensor(np.random.default_rng(0).standard_normal((2, 16, 6, 6)))
    out = blk.forward(x, mode="eval")
    branch = blk.branch_output(x, mode="eval")
    npt.assert_allclose(out.data, x.data + branch.data, atol=1e-12)


def test_multi_branch_block_splits_width():
    blk = BuildingBlock(32, 4, tr.make_idempotent_mr(32, 4),
                        np.random.default_rng(1))
    assert blk.groups == 4
    assert blk.conv1.shape == (32, 8, 3, 3)


def test_multi_branch_is_block_diagonal_over_branches():
    # a branch only sees its own channel slice: zeroing other slices of the
    # input must not change this branch's output channels
    blk = BuildingBlock(8, 2, None, np.random.default_rng(3))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 8, 5, 5))
    x_masked = x.copy()
    x_masked[:, 4:] = 0.0
    full = blk.forward(Tensor(x), mode="eval").data
    masked = blk.forward(Tensor(x_masked), mode="eval").data
    npt.assert_allclose(full[:, :4], masked[:, :4], atol=1e-12)


def test_depthwise_block_uses_one_channel_per_branch():
    blk = BuildingBlock(64, 64, tr.make_identity(64),
                        np.random.default_rng(2))
    assert blk.groups == 64
    assert blk.conv1.shape == (64, 1, 3, 3)


def test_block_width_group_mismatch():
    with pytest.raises(ValueError, match="not divisible"):
        BuildingBlock(6, 4, None, np.random.default_rng(0))


def _block_tape(blk, x):
    """Tape node count and the bytes a train forward of ``blk`` keeps."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Graph() as graph:
            blk.forward(x, mode="train")
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return len(graph), held


@pytest.mark.parametrize("skip", [tr.make_idempotent_mr(16, 2),
                                  tr.make_identity(16)],
                         ids=["idempotent_mr", "identity"])
def test_block_tape_keeps_two_activations(skip):
    # conv1's output and the block output, whose array the sum takes over
    # from conv2's output F(x); each batch norm is recomputed inside the
    # conv it feeds, so a standalone bn1 or bn2 node would add its output,
    # a separate skip mix its P x, and a sum that left F(x) its own array
    # one more
    rng = np.random.default_rng(12)
    blk = BuildingBlock(16, 1, skip, rng)
    x = Tensor(rng.standard_normal((4, 16, 16, 16)), requires_grad=True)
    nodes, held = _block_tape(blk, x)
    assert nodes == 3
    assert held <= 2.25 * x.data.nbytes


def test_wrapped_block_tape_keeps_three_activations():
    # conv1's input is now the pre_mix output and joins the two; conv2's
    # output, which only the post_mix reads, and the post_mix output F(x),
    # which only the sum reads, are released. In a network the block input
    # x, which only the pre_mix and the sum read, is released too, so a
    # wrapped block keeps two activations there, as a plain one does
    rng = np.random.default_rng(13)
    blk = BuildingBlock(16, 1, tr.make_identity(16), rng)
    blk.pre_mix = tr.make_orthogonal_tp(16)
    blk.post_mix = tr.make_orthogonal_tp(16).T
    x = Tensor(rng.standard_normal((4, 16, 16, 16)), requires_grad=True)
    nodes, held = _block_tape(blk, x)
    assert nodes == 5
    assert held <= 3.25 * x.data.nbytes


def test_no_skip_block_tape_keeps_two_activations():
    # with no skip there is no sum: conv2's output is the block output
    rng = np.random.default_rng(14)
    blk = BuildingBlock(16, 1, None, rng)
    x = Tensor(rng.standard_normal((4, 16, 16, 16)), requires_grad=True)
    nodes, held = _block_tape(blk, x)
    assert nodes == 2
    assert held <= 2.25 * x.data.nbytes


# ---------------------------------------------------------------------------
# spec validation

def test_depth_label_family():
    assert small_spec(blocks_per_stage=3).depth_label == 20
    assert small_spec(blocks_per_stage=9).depth_label == 56


def test_spec_validates_orthogonal_width():
    spec = small_spec(stage_widths=(12, 24, 48), transform_kind="orthogonal_tp")
    with pytest.raises(ValueError, match="power-of-2"):
        spec.validate()


def test_spec_validates_multibranch_width():
    spec = small_spec(stage_widths=(16, 32, 64), branch_mode="multi",
                      num_branches=4, transform_kind="orthogonal_tp")
    spec.validate()  # widths divisible by 4 and powers of 2
    bad = small_spec(stage_widths=(12, 24, 48), branch_mode="multi",
                     num_branches=4, transform_kind="orthogonal_tp")
    with pytest.raises(ValueError, match="power-of-2"):
        bad.validate()
    uneven = small_spec(stage_widths=(16, 32, 64), branch_mode="multi",
                        num_branches=6, transform_kind="identity")
    with pytest.raises(ValueError, match="divisible"):
        uneven.validate()


def test_spec_validates_idempotent_b():
    spec = small_spec(stage_widths=(6, 10, 14), transform_kind="idempotent_mr",
                      transform_params={"B": 4})
    with pytest.raises(ValueError, match="divide"):
        spec.validate()


def test_spec_rejects_unread_transform_params():
    # build_network seeds random skips from its own seed argument, so a
    # "seed" here would be silently ignored
    spec = small_spec(transform_kind="orthogonal_random",
                      transform_params={"seed": 1})
    with pytest.raises(ValueError, match="transform_params"):
        spec.validate()
    with pytest.raises(ValueError, match="transform_params"):
        build_network(spec, seed=0)


@pytest.mark.parametrize("field,kw", [
    ("blocks_per_stage", dict(blocks_per_stage=2.5)),
    ("num_classes", dict(num_classes=10.0)),
    ("stage_widths[1]", dict(stage_widths=(4, 8.0, 8))),
    ("input_shape[2]", dict(input_shape=(3, 8, 8.5))),
    ("transform_params['B']", dict(transform_kind="idempotent_mr",
                                   transform_params={"B": 2.5})),
    ("transform_params['N']", dict(transform_kind="periodic",
                                   transform_params={"N": 1.5})),
])
def test_spec_requires_integers(field, kw):
    spec = small_spec(**kw)
    with pytest.raises(ValueError, match=re.escape(f"{field} must be an integer")):
        spec.validate()
    with pytest.raises(ValueError, match=re.escape(field)):
        build_network(spec, seed=0)


@pytest.mark.parametrize("shape", [(0, 8, 8), (3, 0, 8), (3, 8)])
def test_spec_rejects_bad_input_shape(shape):
    spec = small_spec(input_shape=shape)
    with pytest.raises(ValueError, match="input_shape must be"):
        spec.validate()
    with pytest.raises(ValueError, match="input_shape must be"):
        build_network(spec, seed=0)


@pytest.mark.parametrize("kind,params", [
    ("none", {}), ("identity", {}), ("idempotent_mr", {}),
    ("idempotent_mr", {"B": 4}), ("idempotent_mr", {"B": 2.5}),
    ("orthogonal_tp", {}), ("periodic", {"N": 3}), ("periodic", {"N": 1.5}),
], ids=["none", "identity", "mr", "mr_B4", "mr_B2.5", "orthogonal_tp",
        "periodic_N3", "periodic_N1.5"])
@pytest.mark.parametrize("mode", ["single", "multi", "depthwise"])
@pytest.mark.parametrize("widths", [(1, 2, 2), (4, 8, 8), (6, 12, 12)],
                         ids=["w1", "w4", "w6"])
@pytest.mark.parametrize("blocks", [1, 2.5], ids=["K1", "K2.5"])
def test_validate_agrees_with_build(blocks, widths, mode, kind, params):
    spec = NetworkSpec(blocks_per_stage=blocks, stage_widths=widths,
                       branch_mode=mode, num_branches=2, transform_kind=kind,
                       transform_params=params, input_shape=(3, 4, 4))
    try:
        spec.validate()
    except ValueError:
        with pytest.raises(ValueError):
            build_network(spec, seed=0)
    else:
        build_network(spec, seed=0)


@pytest.mark.parametrize("kw,message", [
    (dict(blocks_per_stage=0), "blocks_per_stage must be a positive"),
    (dict(stage_widths=(4, 8)), "stage_widths must be 3 positive"),
    (dict(branch_mode="parallel"), "branch_mode must be one of"),
    (dict(branch_mode="multi", num_branches=1), "num_branches >= 2"),
    (dict(num_classes=1), "num_classes must be at least 2"),
], ids=["blocks", "widths", "branch_mode", "num_branches", "classes"])
def test_spec_rejects_malformed_fields(kw, message):
    spec = small_spec(**kw)
    with pytest.raises(ValueError, match=message):
        spec.validate()
    with pytest.raises(ValueError, match=message):
        build_network(spec, seed=0)


def test_spec_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown NetworkSpec keys"):
        NetworkSpec.from_dict({"blocks_per_stage": 2, "bogus": 1})


@pytest.mark.parametrize("field,value", [
    ("stage_widths", 16), ("input_shape", None), ("input_shape", 3.0)])
def test_spec_from_dict_rejects_non_sequences(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a sequence"):
        NetworkSpec.from_dict({"blocks_per_stage": 1, field: value})


@pytest.mark.parametrize("value", [[1], "B", 1])
def test_spec_from_dict_rejects_non_dict_transform_params(value):
    with pytest.raises(ValueError, match="transform_params must be a dict"):
        NetworkSpec.from_dict({"blocks_per_stage": 1, "transform_params": value})


def test_spec_roundtrip():
    spec = small_spec(transform_kind="idempotent_cmr",
                      transform_params={"B": "width"})
    spec2 = NetworkSpec.from_dict(spec.to_dict())
    assert spec2 == spec


# ---------------------------------------------------------------------------
# network forward

def test_paper_baseline_topology():
    spec = NetworkSpec(blocks_per_stage=3, stage_widths=(16, 32, 64),
                       transform_kind="identity")
    net = build_network(spec, seed=0)
    assert spec.depth_label == 20
    assert sum(len(s) for s in net.stages) == 9
    assert net.stem.shape == (16, 3, 3, 3)
    assert net.transitions[0].shape == (32, 16, 3, 3)
    assert net.head_weight.shape == (10, 64)


def test_zeroed_branches_reduce_to_plumbing():
    spec = small_spec()
    net = build_network(spec, seed=4)
    for stage in net.stages:
        for blk in stage:
            blk.conv2.data[:] = 0.0
    x = np.random.default_rng(1).standard_normal((2, 3, 8, 8))
    logits = net.forward(x, mode="eval")
    h = conv2d(Tensor(x), net.stem, stride=1, padding=1)
    h = conv2d(h, net.transitions[0], stride=2, padding=1)
    h = conv2d(h, net.transitions[1], stride=2, padding=1)
    expected = dense(global_avg_pool(h), net.head_weight, net.head_bias)
    npt.assert_allclose(logits.data, expected.data, atol=1e-12)


def test_eval_rows_independent_of_batch():
    net = build_network(small_spec(), seed=7)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, 3, 8, 8))
    batch = np.concatenate([x, x, rng.standard_normal((1, 3, 8, 8))])
    logits = net.forward(batch, mode="eval").data
    npt.assert_allclose(logits[0], logits[1], atol=1e-12)
    single = net.forward(x, mode="eval").data
    npt.assert_allclose(logits[0], single[0], atol=1e-12)


def _oracle_forward(net, x):
    """Straight-line eval-mode forward, written against the oracles only."""
    def bn_eval(h, layer):
        scale = layer.gamma.data / np.sqrt(layer.running_var + 1e-5)
        shift = layer.beta.data - layer.running_mean * scale
        return h * scale[None, :, None, None] + shift[None, :, None, None]

    h = oracles.conv2d_loop(x, net.stem.data, stride=1, padding=1)
    for s, stage in enumerate(net.stages):
        for blk in stage:
            b = h
            if blk.pre_mix is not None:
                b = oracles.mix_channels(blk.pre_mix, b)
            b = bn_eval(b, blk.bn1)
            b = oracles.conv2d_loop(b, blk.conv1.data, 1, 1, blk.groups)
            b = bn_eval(b, blk.bn2)
            b = np.maximum(b, 0.0)
            b = oracles.conv2d_loop(b, blk.conv2.data, 1, 1, blk.groups)
            if blk.post_mix is not None:
                b = oracles.mix_channels(blk.post_mix, b)
            if blk.skip is not None:
                b = b + oracles.mix_channels(blk.skip, h)
            h = b
        if s < 2:
            h = oracles.conv2d_loop(h, net.transitions[s].data, 2, 1)
    pooled = h.mean(axis=(2, 3))
    return pooled @ net.head_weight.data.T + net.head_bias.data


@pytest.mark.parametrize("kind,params", [
    ("identity", {}),
    ("idempotent_cmr", {"B": 2}),
    ("orthogonal_tp", {}),
])
def test_forward_matches_straight_line_oracle(kind, params):
    spec = small_spec(transform_kind=kind, transform_params=params)
    net = build_network(spec, seed=11)
    x = np.random.default_rng(3).standard_normal((2, 3, 8, 8))
    logits = net.forward(x, mode="eval").data
    npt.assert_allclose(logits, _oracle_forward(net, x), atol=1e-10)


@pytest.mark.parametrize("stage", [0, -1, 4, True, 1.0])
def test_stage_indexes_are_checked(stage):
    net = build_network(small_spec(), seed=0)
    x = np.zeros((1, 3, 8, 8))
    for call in (lambda: net.stage_blocks(stage),
                 lambda: net.forward(x, stop=(stage, 1))):
        with pytest.raises(ValueError, match="stage must be 1, 2, or 3"):
            call()


@pytest.mark.parametrize("convert", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_positions_compose(dtype, convert):
    # a run stopped at any position and started again there is the whole
    # run, bit for bit, and its two taped halves hold the whole run's
    # nodes; in the rewritten net every block has a pre_mix, so the second
    # run releases the array it is started from
    net = build_network(small_spec(transform_kind="orthogonal_tp"), seed=2,
                        dtype=dtype)
    if convert:
        net = equivalence.convert_orthogonal_to_identity(net)
    x = np.random.default_rng(5).standard_normal((2, 3, 8, 8))
    with Graph() as whole:
        ref = net.forward(x).data
    positions = [(s, i) for s in (1, 2, 3) for i in (1, 2, 3)]  # K = 2
    for p in positions:
        with Graph() as first:
            h = net.forward(x, stop=p)
        assert net.forward(h, start=p, stop=p) is h
        with Graph() as second:
            out = net.forward(h, start=p).data
        assert np.array_equal(out, ref), p
        assert len(first) + len(second) == len(whole), p


def test_forward_checks_the_shape_at_its_start():
    # equal widths: an x_1 of stage 1 fits stage 2 in all but its size
    net = build_network(small_spec(stage_widths=(8, 8, 8)), seed=0)
    x = np.random.default_rng(3).standard_normal((2, 3, 8, 8))
    x_1 = net.forward(x, stop=(1, 1)).data
    with pytest.raises(ValueError, match=re.escape(
            "x at (2, 1) shape (2, 8, 8, 8) does not match spec "
            "(N, 8, 4, 4)")):
        net.forward(x_1, start=(2, 1))
    with pytest.raises(ValueError, match="does not match spec"):
        net.forward(x_1[:, :4], start=(1, 1))


def test_forward_positions_compose_on_odd_sizes():
    # 7x5 -> 4x3 -> 2x2: each transition rounds up, and every position
    # accepts the array the run stopped there gives it
    net = build_network(small_spec(input_shape=(3, 7, 5)), seed=4)
    x = np.random.default_rng(6).standard_normal((2, 3, 7, 5))
    ref = net.forward(x).data
    for p in [(s, i) for s in (1, 2, 3) for i in (1, 2, 3)]:  # K = 2
        h = net.forward(x, stop=p)
        assert np.array_equal(net.forward(h, start=p).data, ref), p


@pytest.mark.parametrize("where", ["start", "stop"])
@pytest.mark.parametrize("pos", [(0, 1), (4, 1), (1, 0), (1, 4), (3, -1),
                                 (1, 1.0), (1, True), (True, 1)])
def test_forward_rejects_positions_outside_the_network(where, pos):
    net = build_network(small_spec(), seed=0)  # K = 2
    with pytest.raises(ValueError, match="stage must be|block must be"):
        net.forward(np.zeros((1, 3, 8, 8)), **{where: pos})


@pytest.mark.parametrize("where", ["start", "stop"])
@pytest.mark.parametrize("pos", [5, (1,), (1, 1, 1)])
def test_forward_rejects_a_position_that_is_not_a_pair(where, pos):
    net = build_network(small_spec(), seed=0)
    with pytest.raises(ValueError, match=re.escape(
            f"{where} must be a (stage, block) pair, got {pos!r}")):
        net.forward(np.zeros((1, 3, 8, 8)), **{where: pos})


@pytest.mark.parametrize("start,stop", [((1, 2), (1, 1)), ((2, 1), (1, 3)),
                                        ((3, 3), (1, 1))])
def test_forward_rejects_stop_before_start(start, stop):
    net = build_network(small_spec(), seed=0)
    with pytest.raises(ValueError, match="before start"):
        net.forward(np.zeros((1, 8, 8, 8)), start=start, stop=stop)


@pytest.mark.parametrize("dtype", [np.int64, np.float16, np.complex128])
def test_build_network_rejects_unsupported_dtype(dtype):
    with pytest.raises(ValueError, match=np.dtype(dtype).name):
        build_network(small_spec(), seed=0, dtype=dtype)


def test_forward_rejects_wrong_input_shape():
    net = build_network(small_spec(), seed=0)
    with pytest.raises(ValueError, match="does not match spec"):
        net.forward(np.zeros((1, 3, 16, 16)))


# ---------------------------------------------------------------------------
# describe

def test_describe_parameter_count_closed_form():
    spec = small_spec()
    net = build_network(spec, seed=0)
    w1, w2, w3 = spec.stage_widths
    k = spec.blocks_per_stage

    def block_params(w):
        return 2 * (w * w * 9) + 4 * w  # two convs, two BN pairs

    expected = (w1 * 3 * 9                       # stem
                + k * block_params(w1) + k * block_params(w2)
                + k * block_params(w3)
                + w2 * w1 * 9 + w3 * w2 * 9      # transitions
                + spec.num_classes * w3 + spec.num_classes)
    assert describe(net).parameter_count == expected
    assert net.parameter_count() == expected


def test_describe_transform_ranks():
    spec = small_spec(stage_widths=(8, 16, 32), transform_kind="idempotent_mr",
                      transform_params={"B": 4})
    net = build_network(spec, seed=0)
    assert describe(net).stage_transform_ranks == [2, 4, 8]
    ident = build_network(small_spec(), seed=0)
    assert describe(ident).stage_transform_ranks == [4, 8, 8]
    none = build_network(small_spec(transform_kind="none"), seed=0)
    assert describe(none).stage_transform_ranks == [0, 0, 0]


def test_summary_str_lists_every_layer():
    net = build_network(small_spec(), seed=0)
    lines = str(describe(net)).splitlines()
    assert lines[:3] == ["depth label: 14",
                         f"parameters: {net.parameter_count()}",
                         "stage transform ranks: 4, 8, 8"]
    assert len(lines) == 3 + len(net.parameters())
    assert lines[3].split() == ["stem", "(4,", "3,", "3,", "3)", "108"]


def test_mr_width32_b4_rank_8():
    spec = NetworkSpec(blocks_per_stage=1, stage_widths=(32, 32, 32),
                       transform_kind="idempotent_mr", transform_params={"B": 4})
    net = build_network(spec, seed=0)
    assert describe(net).stage_transform_ranks == [8, 8, 8]


# ---------------------------------------------------------------------------
# invariants

@pytest.mark.parametrize("kind,params", [
    ("identity", {}),
    ("idempotent_mr", {"B": 2}),
    ("idempotent_cmr", {"B": 2}),
    ("orthogonal_tp", {}),
    ("periodic", {"N": 2}),
])
def test_zero_branch_stage_is_matrix_power(kind, params):
    spec = small_spec(blocks_per_stage=3, stage_widths=(8, 8, 8),
                      transform_kind=kind, transform_params=params)
    net = build_network(spec, seed=5)
    for stage in net.stages:
        for blk in stage:
            blk.conv2.data[:] = 0.0
    x = np.random.default_rng(8).standard_normal((2, 8, 8, 8))
    h = Tensor(x)
    for blk in net.stages[0]:
        h = blk.forward(h, mode="eval")
    p = net.stages[0][0].skip
    p3 = oracles.matrix_power_loop(p, 3)
    npt.assert_allclose(h.data, tr.apply_transform(p3, x), atol=1e-9)


def test_stage_blocks_share_matrix_instance():
    for kind, params in [("idempotent_mr", {"B": 2}), ("orthogonal_tp", {}),
                         ("periodic", {"N": 2}), ("identity", {})]:
        spec = small_spec(blocks_per_stage=3, stage_widths=(8, 8, 8),
                          transform_kind=kind, transform_params=params)
        net = build_network(spec, seed=1)
        for stage in net.stages:
            assert all(blk.skip is stage[0].skip for blk in stage)


def test_set_skip_rejects_complex_and_misfit_matrices():
    blk = BuildingBlock(4, 1, tr.make_identity(4), np.random.default_rng(0))
    p = tr.make_idempotent_mr(4, 2)
    with pytest.raises(ValueError, match="must be real, got complex128"):
        blk.set_skip(p + 1j)
    with pytest.raises(ValueError, match="does not match width 4"):
        blk.set_skip(np.eye(8))
    blk.set_skip(p)
    assert blk.skip is p


def test_set_skip_copies_a_writable_matrix():
    # a later write through the caller's array changes neither P nor the
    # block's output, which an identity P computes with add
    blk = BuildingBlock(4, 1, None, np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 4, 4)))
    p = np.eye(4)
    blk.set_skip(p)
    before = blk.forward(x, mode="eval").data
    p[0, 1] = 0.5
    npt.assert_array_equal(blk.skip, np.eye(4))
    assert not blk.skip.flags.writeable
    npt.assert_array_equal(blk.forward(x, mode="eval").data, before)


@pytest.mark.parametrize("attr", ["pre_mix", "post_mix"])
def test_wrap_assignment_holds_a_matrix_as_set_skip_does(attr):
    # a later write through the caller's writable array changes neither
    # the wrap nor the block's output; a read-only one is kept as given
    blk = BuildingBlock(4, 1, tr.make_identity(4), np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal((2, 4, 4, 4)))
    mat = np.array(tr.make_orthogonal_tp(4))
    setattr(blk, attr, mat)
    before = blk.forward(x, mode="eval").data
    mat[0, 1] += 0.5
    npt.assert_array_equal(getattr(blk, attr), tr.make_orthogonal_tp(4))
    assert not getattr(blk, attr).flags.writeable
    npt.assert_array_equal(blk.forward(x, mode="eval").data, before)
    frozen = tr.make_orthogonal_tp(4)
    setattr(blk, attr, frozen)
    assert getattr(blk, attr) is frozen
    with pytest.raises(ValueError, match=f"{attr} matrix shape .* width 4"):
        setattr(blk, attr, np.eye(8))


def test_random_orthogonal_per_block_differs():
    spec = small_spec(blocks_per_stage=2, stage_widths=(4, 8, 8),
                      transform_kind="orthogonal_random")
    net = build_network(spec, seed=2)
    for stage in net.stages:
        assert not np.array_equal(stage[0].skip, stage[1].skip)


def test_depthwise_channel_equivariance():
    width = 8
    blk = BuildingBlock(width, width, tr.make_identity(width),
                        np.random.default_rng(9))
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, width, 5, 5))
    perm = rng.permutation(width)

    permuted = BuildingBlock(width, width, tr.make_identity(width),
                             np.random.default_rng(9))
    permuted.conv1.data = blk.conv1.data[perm].copy()
    permuted.conv2.data = blk.conv2.data[perm].copy()
    for bn_a, bn_b in ((blk.bn1, permuted.bn1), (blk.bn2, permuted.bn2)):
        bn_b.gamma.data = bn_a.gamma.data[perm].copy()
        bn_b.beta.data = bn_a.beta.data[perm].copy()
        bn_b.running_mean = bn_a.running_mean[perm].copy()
        bn_b.running_var = bn_a.running_var[perm].copy()

    out = blk.forward(Tensor(x), mode="eval").data
    out_perm = permuted.forward(Tensor(x[:, perm]), mode="eval").data
    npt.assert_allclose(out_perm, out[:, perm], atol=1e-12)


def test_build_is_deterministic():
    spec = small_spec(transform_kind="orthogonal_random")
    a = build_network(spec, seed=3)
    b = build_network(spec, seed=3)
    for (n1, t1, _), (n2, t2, _) in zip(a.parameters(), b.parameters()):
        assert n1 == n2
        npt.assert_array_equal(t1.data, t2.data)
    sa = a.state_dict()
    sb = b.state_dict()
    assert set(sa) == set(sb)
    for k in sa:
        npt.assert_array_equal(sa[k], sb[k])


def test_state_dict_roundtrip():
    spec = small_spec(transform_kind="idempotent_mr", transform_params={"B": 2})
    net = build_network(spec, seed=6)
    x = np.random.default_rng(4).standard_normal((2, 3, 8, 8))
    net.forward(x, mode="train")  # move the BN running stats
    state = net.state_dict()
    other = build_network(spec, seed=99)
    other.load_state(state)
    npt.assert_allclose(other.forward(x).data, net.forward(x).data, atol=0)
    for stage in other.stages:
        assert all(b.skip is stage[0].skip for b in stage)


def test_load_state_copies_running_stats():
    # a loaded network trains its own BN statistics, not its source's
    spec = small_spec(transform_kind="idempotent_mr", transform_params={"B": 2})
    source = build_network(spec, seed=6)
    x = np.random.default_rng(4).standard_normal((2, 3, 8, 8))
    source.forward(x, mode="train")
    before = {k: v.copy() for k, v in source.state_dict().items()}
    loaded = build_network(spec, seed=99)
    loaded.load_state(source.state_dict())
    loaded.forward(2.0 * x + 1.0, mode="train")
    after = source.state_dict()
    for key, arr in before.items():
        npt.assert_array_equal(after[key], arr)
    moved = loaded.state_dict()
    assert not np.array_equal(moved["stage1.block1.bn1.running_mean"],
                              before["stage1.block1.bn1.running_mean"])


@pytest.mark.parametrize("key,value,reason", [
    ("stage1.block1.pre_mix", np.eye(3), "has shape"),
    ("stage1.block1.post_mix", np.full((4, 4), np.nan), "has non-finite"),
    ("stage1.block1.bn1.running_mean", np.zeros(5), "has shape"),
    ("stage2.block1.conv1", np.full((8, 8, 3, 3), np.inf), "has non-finite"),
    ("stage1.block1.skip", np.eye(4) + 0j, "has dtype complex128"),
    ("stage1.block1.bn1.running_mean", np.array(["0"] * 4), "has dtype <U1"),
    ("head.bias", np.zeros(10, dtype=object), "has dtype object"),
    ("stage1.block1.pre_mix", np.eye(4, dtype=bool), "has dtype bool"),
    # a negative variance would make every eval logit NaN
    ("stage1.block1.bn1.running_var", np.array([1.0, -1.0, 1.0, 1.0]),
     "has negative entries"),
], ids=["pre_mix_shape", "post_mix_nan", "running_mean_shape", "conv_inf",
        "skip_complex", "running_mean_str", "head_bias_object", "pre_mix_bool",
        "running_var_negative"])
def test_load_state_rejects_bad_array(key, value, reason):
    source = build_network(small_spec(), seed=6)
    for blk in source.stages[0]:
        blk.pre_mix = blk.post_mix = np.eye(4)
    state = source.state_dict()
    state[key] = value
    target = build_network(small_spec(), seed=7)
    with pytest.raises(ValueError, match=f"{re.escape(repr(key))} {reason}"):
        target.load_state(state)


@pytest.mark.parametrize("key,message", [
    ("stage2.block1.conv1", "missing parameter"),
    ("stage1.block2.bn1.running_var", "missing buffer"),
], ids=["parameter", "buffer"])
def test_load_state_rejects_missing_tensor(key, message):
    state = build_network(small_spec(), seed=6).state_dict()
    del state[key]
    target = build_network(small_spec(), seed=7)
    with pytest.raises(KeyError, match=f"{message} {re.escape(repr(key))}"):
        target.load_state(state)


def test_load_state_rejects_unexpected_tensor():
    state = build_network(small_spec(), seed=6).state_dict()
    state["stage4.block1.conv1"] = np.zeros((4, 4, 3, 3))
    target = build_network(small_spec(), seed=7)
    with pytest.raises(ValueError,
                       match=re.escape("unexpected tensors: ['stage4.block1.conv1']")):
        target.load_state(state)


@pytest.mark.parametrize("case,error,match", [
    ("head_bias_nan", ValueError, "'head.bias' has non-finite"),
    ("skip_breaks_kind", ValueError, "'stage3.block2.skip'"),
    ("missing_buffer", KeyError, "missing buffer"),
    ("unexpected_key", ValueError, "unexpected tensors"),
], ids=["head_bias_nan", "skip_breaks_kind", "missing_buffer",
        "unexpected_key"])
def test_load_state_writes_nothing_from_a_rejected_checkpoint(case, error,
                                                              match):
    # every check runs before the first write, so a fault in the last
    # tensors leaves the network as it was, its shared skips included
    spec = small_spec(transform_kind="idempotent_mr", transform_params={"B": 2})
    source = build_network(spec, seed=6)
    source.forward(np.random.default_rng(4).standard_normal((2, 3, 8, 8)),
                   mode="train")
    state = source.state_dict()
    if case == "head_bias_nan":
        state["head.bias"] = np.full(10, np.nan)
    elif case == "skip_breaks_kind":
        state["stage3.block2.skip"] = 2.0 * np.eye(8)
    elif case == "missing_buffer":
        del state["stage3.block2.bn2.running_var"]
    else:
        state["stage4.block1.conv1"] = np.zeros((4, 4, 3, 3))
    target = build_network(spec, seed=7)
    before = {key: arr.copy() for key, arr in target.state_dict().items()}
    skips = [blk.skip for stage in target.stages for blk in stage]
    with pytest.raises(error, match=re.escape(match)):
        target.load_state(state)
    after = target.state_dict()
    assert after.keys() == before.keys()
    for key, arr in before.items():
        assert after[key].dtype == arr.dtype, key
        assert np.array_equal(after[key], arr), key
    assert all(blk.skip is skip for blk, skip in zip(
        (blk for stage in target.stages for blk in stage), skips))


def test_float32_network_keeps_float32_running_stats():
    net = build_network(small_spec(), seed=6, dtype=np.float32)
    x = np.random.default_rng(4).standard_normal((2, 3, 8, 8))
    net.forward(x, mode="train")
    for blk in (b for stage in net.stages for b in stage):
        for bn in (blk.bn1, blk.bn2):
            assert bn.running_mean.dtype == np.float32
            assert bn.running_var.dtype == np.float32
    state = net.state_dict()
    for key, arr in state.items():
        if "running" in key:
            assert arr.dtype == np.float32, key
        if key.endswith((".skip", "_mix")):
            assert arr.dtype == np.float64, key


def test_float64_checkpoint_loads_into_float32_network():
    spec = small_spec(transform_kind="idempotent_mr", transform_params={"B": 2})
    source = build_network(spec, seed=6)
    x = np.random.default_rng(4).standard_normal((2, 3, 8, 8))
    source.forward(x, mode="train")
    target = build_network(spec, seed=7, dtype=np.float32)
    target.load_state(source.state_dict())
    for key, arr in target.state_dict().items():
        want = np.float64 if key.endswith(".skip") else np.float32
        assert arr.dtype == want, key
    ref = source.forward(x).data
    out = target.forward(x).data
    assert out.dtype == np.float32
    tol = 2 ** 8 * np.finfo(np.float32).eps * np.abs(ref).max()
    assert np.abs(out - ref).max() <= tol


@pytest.mark.parametrize("key", ["stage1.block1.conv1",
                                 "stage1.block1.bn2.running_var"])
def test_load_state_rejects_value_beyond_float32(key):
    # checked in the source dtype: no overflow warning from the cast
    state = build_network(small_spec(), seed=6).state_dict()
    state[key] = np.full_like(state[key], 1e40)
    target = build_network(small_spec(), seed=7, dtype=np.float32)
    with pytest.raises(ValueError,
                       match=f"{re.escape(repr(key))} has entries beyond"):
        target.load_state(state)


@pytest.mark.parametrize("kind,params", [
    ("idempotent_mr", {"B": 2}),
    ("idempotent_cmr", {"B": 4}),
    ("orthogonal_random", {}),
    ("periodic", {"N": 3}),
    ("identity", {}),
])
def test_load_state_rejects_skip_breaking_its_kind(kind, params):
    spec = small_spec(stage_widths=(4, 8, 8), transform_kind=kind,
                      transform_params=params)
    state = build_network(spec, seed=6).state_dict()
    target = build_network(spec, seed=7)
    target.load_state(state)  # the kind's own skips load
    state["stage2.block2.skip"] = 2.0 * np.eye(8)
    with pytest.raises(ValueError, match=re.escape("'stage2.block2.skip'")):
        target.load_state(state)


def _assert_matrices_read_only(net):
    for stage in net.stages:
        for blk in stage:
            for mat in (blk.skip, blk.pre_mix, blk.post_mix):
                if mat is not None:
                    assert not mat.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        mat[0, 0] = 2.0


def test_loaded_skips_are_read_only_as_built():
    spec = small_spec(transform_kind="idempotent_mr", transform_params={"B": 2})
    source = build_network(spec, seed=6)
    for blk in source.stages[0]:
        blk.pre_mix = blk.post_mix = np.eye(4)
    target = build_network(spec, seed=7)
    target.load_state(source.state_dict())
    assert target.stages[0][0].pre_mix is not None
    _assert_matrices_read_only(target)
    for stage in target.stages:
        assert all(blk.skip is stage[0].skip for blk in stage)


def test_copied_skips_are_read_only_and_shared_per_stage():
    spec = small_spec(transform_kind="idempotent_mr", transform_params={"B": 2})
    net = build_network(spec, seed=7)
    dup = net.copy()
    _assert_matrices_read_only(dup)
    for stage, orig in zip(dup.stages, net.stages):
        assert all(blk.skip is stage[0].skip for blk in stage)
        assert stage[0].skip is not orig[0].skip
        assert np.array_equal(stage[0].skip, orig[0].skip)


def test_load_state_no_skip_network_rejects_skip():
    state = build_network(small_spec(), seed=6).state_dict()
    target = build_network(small_spec(transform_kind="none"), seed=7)
    with pytest.raises(ValueError, match=re.escape("'stage1.block1.skip'")):
        target.load_state(state)
