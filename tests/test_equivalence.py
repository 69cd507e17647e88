import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from linearskip import equivalence as eq
from linearskip import transforms as tr
from linearskip.autodiff import (Graph, Tensor, backward, reduce_sum,
                                 softmax_cross_entropy)
from linearskip.network import NetworkSpec, build_network
from linearskip.optim import OptimState, sgd_nesterov_step

import oracles


def make_net(kind, params=None, k=2, width=8, seed=0, **kw):
    spec = NetworkSpec(blocks_per_stage=k, stage_widths=(width,) * 3,
                       transform_kind=kind, transform_params=params or {},
                       input_shape=(3, 8, 8), **kw)
    return build_network(spec, seed=seed)


# ---------------------------------------------------------------------------
# orthogonal -> identity

def test_identity_net_converts_to_itself():
    net = make_net("identity", k=2)
    conv = eq.convert_orthogonal_to_identity(net)
    for stage in conv.stages:
        for blk in stage:
            npt.assert_array_equal(blk.pre_mix, np.eye(8))
            npt.assert_array_equal(blk.post_mix, np.eye(8))
            npt.assert_array_equal(blk.skip, np.eye(8))
    report = eq.verify_equivalence(net, conv, num_inputs=4, seed=1)
    assert report.max_deviation <= 1e-12


def test_single_block_random_orthogonal():
    net = make_net("orthogonal_random", k=1, seed=3)
    conv = eq.convert_orthogonal_to_identity(net)
    report = eq.verify_equivalence(net, conv, num_inputs=8, seed=2)
    assert report.max_deviation <= 1e-9


def test_four_block_tp_sixteen_inputs():
    net = make_net("orthogonal_tp", k=4, seed=5)
    conv = eq.convert_orthogonal_to_identity(net)
    report = eq.verify_equivalence(net, conv, num_inputs=16, seed=3)
    assert report.max_deviation <= 1e-8
    for stage in conv.stages:
        for blk in stage:
            assert blk._skip_is_identity


def test_theorem_wrap_structure():
    # block i wraps are Q^(L-i) after and Q^(i-L-1) before the branch
    net = make_net("orthogonal_tp", k=3, seed=1)
    q = net.stages[0][0].skip
    conv = eq.convert_orthogonal_to_identity(net)
    lcount = 3
    npt.assert_allclose(  # stem absorbs Q^L
        conv.stem.data,
        np.einsum("oc,cihw->oihw", oracles.matrix_power_loop(q, lcount),
                  net.stem.data), atol=1e-12)
    for i, blk in enumerate(conv.stages[0], start=1):
        npt.assert_allclose(blk.post_mix,
                            oracles.matrix_power_loop(q, lcount - i),
                            atol=1e-12)
        npt.assert_allclose(blk.pre_mix,
                            oracles.matrix_power_loop(q.T, lcount + 1 - i),
                            atol=1e-12)
        # wraps are invertible (orthogonal powers)
        npt.assert_allclose(blk.pre_mix @ blk.pre_mix.T, np.eye(8), atol=1e-9)


def test_orthogonal_converter_rejects_idempotent_skips():
    net = make_net("idempotent_mr", {"B": 2}, k=2)
    with pytest.raises(ValueError, match="not orthogonal"):
        eq.convert_orthogonal_to_identity(net)


def test_orthogonal_converter_rejects_no_skip():
    net = make_net("none", k=2)
    with pytest.raises(ValueError, match="no skip transform"):
        eq.convert_orthogonal_to_identity(net)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_per_block_orthogonal_stage_converts(dtype):
    # one Q_i per block: block i's wraps are Q_L...Q_{i+1} after and
    # (Q_L...Q_i)^T before the branch, and the stem absorbs Q_L...Q_1
    spec = NetworkSpec(blocks_per_stage=3, stage_widths=(8,) * 3,
                       transform_kind="orthogonal_random",
                       input_shape=(3, 8, 8))
    net = build_network(spec, seed=4, dtype=dtype)
    qs = [blk.skip for blk in net.stages[0]]
    assert not np.array_equal(qs[0], qs[1])
    conv = eq.convert_orthogonal_to_identity(net)

    def product(mats):
        return oracles.skip_product_loop(mats, 8)

    for i, blk in enumerate(conv.stages[0], start=1):
        npt.assert_allclose(blk.post_mix, product(qs[i:][::-1]), atol=1e-12)
        npt.assert_allclose(blk.pre_mix, product(qs[i - 1:][::-1]).T,
                            atol=1e-12)
        assert blk._skip_is_identity
    npt.assert_allclose(
        conv.stem.data,
        np.einsum("oc,cihw->oihw", product(qs[::-1]), net.stem.data),
        atol=1e-12 if dtype == np.float64 else 1e-5)
    report = eq.verify_equivalence(net, conv, num_inputs=8, seed=2)
    assert report.passed, report


def test_shared_q_bases_are_the_powers_of_q():
    # the running product does the multiplications of matrix_power, in
    # its order, so a shared Q gives its powers bit for bit
    net = make_net("orthogonal_tp", k=4, seed=2)
    conv = eq.convert_orthogonal_to_identity(net)
    for stage, conv_stage in zip(net.stages, conv.stages):
        q = stage[0].skip
        for i, blk in enumerate(conv_stage, start=1):
            npt.assert_array_equal(blk.pre_mix, tr.matrix_power(q, 5 - i).T)
            npt.assert_array_equal(blk.post_mix, tr.matrix_power(q, 4 - i))


def test_orthogonal_converter_names_the_non_orthogonal_block():
    net = make_net("orthogonal_tp", k=3, seed=4)
    net.stages[1][1].set_skip(tr.make_idempotent_mr(8, 2))
    with pytest.raises(ValueError,
                       match="stage 2 block 2 skip matrix is not orthogonal"):
        eq.convert_orthogonal_to_identity(net)


# ---------------------------------------------------------------------------
# idempotent -> diagonal

def test_identity_net_diagonalizes_to_itself():
    net = make_net("identity", k=2)
    conv = eq.convert_idempotent_to_diagonal(net)
    report = eq.verify_equivalence(net, conv, num_inputs=4, seed=5)
    assert report.max_deviation <= 1e-10
    for stage in conv.stages:
        for blk in stage:
            npt.assert_allclose(np.diag(np.diag(blk.skip)), blk.skip, atol=0)
            npt.assert_allclose(np.unique(np.round(np.diag(blk.skip))),
                                [1.0])


def test_cmr_two_blocks_diagonalizes():
    net = make_net("idempotent_cmr", {"B": 2}, k=2, width=4, seed=7)
    conv = eq.convert_idempotent_to_diagonal(net)
    report = eq.verify_equivalence(net, conv, num_inputs=16, seed=6)
    assert report.max_deviation <= 1e-8


def test_diagonal_skip_has_rank_many_units():
    net = make_net("idempotent_mr", {"B": 4}, k=2, width=8, seed=9)
    p_rank = tr.rank(net.stages[0][0].skip)
    conv = eq.convert_idempotent_to_diagonal(net)
    skip = conv.stages[0][0].skip
    diag = np.diag(skip)
    npt.assert_allclose(skip, np.diag(diag), atol=1e-12)
    assert int(np.round(diag).sum()) == p_rank == 2
    assert set(np.round(diag)) <= {0.0, 1.0}


def test_idempotent_converter_names_the_block_that_differs():
    # every block is idempotent, but block 3 of stage 2 carries the
    # complement of the stage's projector
    net = make_net("idempotent_mr", {"B": 2}, k=3)
    net.stages[1][2].set_skip(tr.make_idempotent_cmr(8, 2))
    with pytest.raises(ValueError, match="stage 2 block 3 skip matrix "
                                         "differs from block 1's"):
        eq.convert_idempotent_to_diagonal(net)


def test_idempotent_converter_rejects_orthogonal_skips():
    net = make_net("orthogonal_tp", k=2)
    with pytest.raises(ValueError, match="not idempotent"):
        eq.convert_idempotent_to_diagonal(net)


# ---------------------------------------------------------------------------
# periodic -> canonical form (the idempotent rewrite at period N)

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k", [3, 9])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_periodic_rewrite_verifies(n, k, dtype):
    spec = NetworkSpec(blocks_per_stage=k, stage_widths=(16,) * 3,
                       transform_kind="periodic", transform_params={"N": n},
                       input_shape=(3, 8, 8))
    net = build_network(spec, seed=2, dtype=dtype)
    conv = eq.convert_idempotent_to_diagonal(net)
    for stage, conv_stage in zip(net.stages, conv.stages):
        _, _, c = tr.canonical_form(stage[0].skip, n)
        assert all(np.array_equal(blk.skip, c) for blk in conv_stage)
    report = eq.verify_equivalence(net, conv, num_inputs=8, seed=3)
    assert report.max_deviation > 0
    assert report.passed


def test_oblique_periodic_skips_convert():
    # P = W C W^-1 with W near the identity: not normal, so V is not
    # orthogonal, and the rewrite still computes the same function
    net = make_net("periodic", {"N": 3}, k=3, seed=6)
    rng = np.random.default_rng(7)
    forms = []
    for stage in net.stages:
        forms.append(tr.canonical_form(stage[0].skip, 3)[2])
        w = np.eye(8) + 0.05 * rng.standard_normal((8, 8))
        p = w @ forms[-1] @ np.linalg.inv(w)
        assert not tr.is_symmetric(p)
        for blk in stage:
            blk.set_skip(p)
    conv = eq.convert_idempotent_to_diagonal(net)
    for stage, c in zip(conv.stages, forms):
        assert np.array_equal(stage[0].skip, c)
        assert 1.0 < np.linalg.cond(stage[0].pre_mix) < 2.0
    report = eq.verify_equivalence(net, conv, num_inputs=8, seed=8)
    assert report.max_deviation > 0
    assert report.passed


def test_periodic_converter_names_its_law():
    net = make_net("periodic", {"N": 3}, k=2)
    net.stages[2][1].set_skip(tr.make_periodic(8, 2, 0))
    with pytest.raises(ValueError, match="stage 3 block 2 skip matrix is not "
                                         "periodic with P\\^4 = P"):
        eq.convert_idempotent_to_diagonal(net)


@pytest.mark.parametrize("kind", tr.KINDS)
def test_every_kind_has_a_rewrite(kind):
    net = make_net(kind, k=2, seed=41)
    rewrites = []
    for converter in (eq.convert_orthogonal_to_identity,
                      eq.convert_idempotent_to_diagonal):
        try:
            rewrites.append(converter(net))
        except ValueError:
            continue
    assert rewrites
    for conv in rewrites:
        assert eq.verify_equivalence(net, conv, num_inputs=4, seed=9).passed


# ---------------------------------------------------------------------------
# verifier

def test_verify_net_against_itself_is_exact():
    net = make_net("orthogonal_tp", k=2, seed=11)
    report = eq.verify_equivalence(net, net, num_inputs=4, seed=0)
    assert report.max_deviation == 0.0
    assert report.passed


def test_verify_negative_control():
    net = make_net("orthogonal_tp", k=2, seed=11)
    other = make_net("orthogonal_tp", k=2, seed=12)
    report = eq.verify_equivalence(net, other, num_inputs=4, seed=0)
    assert report.max_deviation > 1e-3
    assert not report.passed


def test_verify_rejects_shape_mismatch():
    a = make_net("identity", k=1)
    spec = NetworkSpec(blocks_per_stage=1, stage_widths=(8, 8, 8),
                       transform_kind="identity", input_shape=(1, 8, 8))
    b = build_network(spec, seed=0)
    with pytest.raises(ValueError, match="input shapes differ"):
        eq.verify_equivalence(a, b)


def test_input_gradient_deviation_rejects_class_mismatch():
    a = make_net("identity", k=1)
    b = make_net("identity", k=1, num_classes=5)
    with pytest.raises(ValueError, match="output sizes differ"):
        eq.input_gradient_deviation(a, b)


@pytest.mark.parametrize("check", [eq.verify_equivalence,
                                   eq.input_gradient_deviation])
@pytest.mark.parametrize("bad", [0, -1, 2.5, True])
def test_probe_rejects_non_positive_integer_num_inputs(check, bad):
    net = make_net("identity", k=1)
    with pytest.raises(ValueError, match="num_inputs"):
        check(net, net, num_inputs=bad)


# ---------------------------------------------------------------------------
# round-trip fidelity and gradient agreement

@pytest.mark.parametrize("kind,params,converter", [
    ("identity", {}, eq.convert_orthogonal_to_identity),
    ("identity", {}, eq.convert_idempotent_to_diagonal),
    ("orthogonal_tp", {}, eq.convert_orthogonal_to_identity),
    ("orthogonal_random", {}, eq.convert_orthogonal_to_identity),
    ("idempotent_mr", {"B": 2}, eq.convert_idempotent_to_diagonal),
    ("idempotent_cmr", {"B": 4}, eq.convert_idempotent_to_diagonal),
])
@pytest.mark.parametrize("k", [1, 2])
def test_round_trip_fidelity(kind, params, converter, k):
    net = make_net(kind, params, k=k, width=8, seed=13 + k)
    conv = converter(net)
    report = eq.verify_equivalence(net, conv, num_inputs=8, seed=7)
    assert report.max_deviation <= 1e-8, (kind, k)


@pytest.mark.parametrize("kind,params,converter", [
    ("orthogonal_tp", {}, eq.convert_orthogonal_to_identity),
    ("idempotent_mr", {"B": 2}, eq.convert_idempotent_to_diagonal),
    ("orthogonal_random", {}, eq.convert_orthogonal_to_identity),
])
def test_float32_conversion_keeps_dtype_and_function(kind, params, converter):
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(8,) * 3,
                       transform_kind=kind, transform_params=params,
                       input_shape=(3, 8, 8))
    net = build_network(spec, seed=17, dtype=np.float32)
    conv = converter(net)
    assert all(t.dtype == np.float32 for _, t, _ in conv.parameters())
    x = np.random.default_rng(8).standard_normal((4, 3, 8, 8))
    ref = net.forward(x).data
    out = conv.forward(x).data
    assert out.dtype == np.float32
    tol = 2 ** 8 * np.finfo(np.float32).eps * np.abs(ref).max()
    assert np.abs(out - ref).max() <= tol


@pytest.mark.parametrize("kind,params,converter", [
    ("orthogonal_tp", {}, eq.convert_orthogonal_to_identity),
    ("idempotent_mr", {"B": 2}, eq.convert_idempotent_to_diagonal),
])
def test_float32_rewrite_passes_verification(kind, params, converter):
    spec = NetworkSpec(blocks_per_stage=3, stage_widths=(8,) * 3,
                       transform_kind=kind, transform_params=params,
                       input_shape=(3, 8, 8))
    net = build_network(spec, seed=19, dtype=np.float32)
    report = eq.verify_equivalence(net, converter(net), num_inputs=8, seed=4)
    logits = net.forward(np.random.default_rng(4).standard_normal(
        (8, 3, 8, 8)), mode="eval").data
    assert report.tol == 2 ** 12 * float(np.finfo(np.float32).eps) * max(
        1.0, float(np.abs(logits).max()))
    assert report.max_deviation > 0
    assert report.passed


@pytest.mark.parametrize("kind,params,converter", [
    ("orthogonal_tp", {}, eq.convert_orthogonal_to_identity),
    ("idempotent_cmr", {"B": 2}, eq.convert_idempotent_to_diagonal),
    ("periodic", {"N": 3}, eq.convert_idempotent_to_diagonal),
])
def test_converted_checkpoint_roundtrip(kind, params, converter):
    source = converter(make_net(kind, params, k=2, seed=21))
    target = converter(make_net(kind, params, k=2, seed=22))
    state = source.state_dict()
    assert not [key for key in state if "unmix" in key]
    target.load_state(state)
    for blk in (b for stage in target.stages for b in stage):
        tr.check_kind(blk.skip, kind, params.get("N"))
    x = np.random.default_rng(5).standard_normal((2, 3, 8, 8))
    npt.assert_allclose(target.forward(x).data, source.forward(x).data,
                        atol=0)


def test_diagonalized_net_mixes_only_inside_blocks():
    # pre_mix, post_mix and the diagonal skip: three mixes per block, and
    # the exit basis is folded into the next layer rather than mixed
    net = make_net("idempotent_mr", {"B": 2}, k=3, seed=23)
    conv = eq.convert_idempotent_to_diagonal(net)
    x = np.random.default_rng(6).standard_normal((2, 3, 8, 8))
    with Graph() as g:
        conv.forward(x)
    mixes = sum(node.op == "channel_mix" for node in g.nodes)
    assert mixes == 3 * sum(len(stage) for stage in conv.stages)


def test_conversion_preserves_parameter_count():
    net = make_net("orthogonal_tp", k=3, seed=2)
    conv = eq.convert_orthogonal_to_identity(net)
    assert conv.parameter_count() == net.parameter_count()


def test_gradient_agreement():
    net = make_net("orthogonal_tp", k=2, seed=15)
    conv = eq.convert_orthogonal_to_identity(net)
    assert eq.input_gradient_deviation(net, conv, num_inputs=2, seed=1) <= 1e-7
    net2 = make_net("idempotent_cmr", {"B": 2}, k=2, width=4, seed=16)
    conv2 = eq.convert_idempotent_to_diagonal(net2)
    assert eq.input_gradient_deviation(net2, conv2, num_inputs=2, seed=2) <= 1e-7


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind,params,converter", [
    ("orthogonal_tp", {}, eq.convert_orthogonal_to_identity),
    ("idempotent_mr", {"B": 2}, eq.convert_idempotent_to_diagonal),
])
def test_input_gradient_deviation_matches_full_walks(kind, params, converter,
                                                     dtype):
    # oracle: unrestricted backward walks, which also differentiate every
    # parameter, read at the input
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(8,) * 3,
                       transform_kind=kind, transform_params=params,
                       input_shape=(3, 8, 8))
    net = build_network(spec, seed=25, dtype=dtype)
    conv = converter(net)
    x = np.random.default_rng(3).standard_normal((3, 3, 8, 8))
    grads = []
    for n in (net, conv):
        xt = Tensor(x, requires_grad=True, dtype=dtype)
        with Graph() as g:
            loss = reduce_sum(n.forward(xt, mode="eval"))
        grads.append(backward(g, loss)[xt].data)
    oracle = float(np.abs(grads[0] - grads[1]).max())
    assert oracle > 0
    assert eq.input_gradient_deviation(net, conv, num_inputs=3, seed=3) == oracle


# ---------------------------------------------------------------------------
# the converted net's tape: every activation that only a mix, a sum or the
# pooling reads is released

CONVERSIONS = [
    ("orthogonal_tp", {}, {}, eq.convert_orthogonal_to_identity),
    ("idempotent_mr", {"B": 2}, dict(branch_mode="multi", num_branches=2),
     eq.convert_idempotent_to_diagonal),
]
CONVERSION_IDS = ["orthogonal_tp_single", "idempotent_mr_multi2"]


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind,params,branches,converter", CONVERSIONS,
                         ids=CONVERSION_IDS)
def test_converted_net_gradients_match_central_differences(
        kind, params, branches, converter, mode):
    # a pullback that read a released array would read zeros; the
    # directional derivative of the loss along a random v, for the input
    # and for every parameter, checks the whole gradient of each
    net = make_net(kind, params, k=2, seed=31, **branches)
    rng = np.random.default_rng(32)
    for _ in range(2):   # running statistics away from 0 and 1
        net.forward(rng.standard_normal((4, 3, 8, 8)), mode="train")
    conv = converter(net)
    x = Tensor(rng.standard_normal((2, 3, 8, 8)), requires_grad=True)
    labels = np.array([1, 7])

    def loss() -> Tensor:
        return softmax_cross_entropy(conv.forward(x, mode=mode), labels)

    tensors = [x] + [t for _, t, _ in conv.parameters()]
    with Graph() as g:
        out = loss()
    grads = backward(g, out, wrt=tensors)
    h = 1e-5
    for t in tensors:
        v = rng.standard_normal(t.shape)
        base = t.data
        t.data = base + h * v
        up = float(loss().data)
        t.data = base - h * v
        down = float(loss().data)
        t.data = base
        numeric = (up - down) / (2 * h)
        analytic = float(np.vdot(grads[t].data, v))
        assert abs(analytic - numeric) <= 1e-6 * max(abs(numeric), 1.0), t


def _forward_tape_bytes(net, x, mode) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        xt = Tensor(x, requires_grad=True)
        with Graph() as g:
            net.forward(xt, mode=mode)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["train", "eval"])
@pytest.mark.parametrize("kind,params,branches,converter", CONVERSIONS,
                         ids=CONVERSION_IDS)
def test_converted_net_tape_is_its_originals_size(kind, params, branches,
                                                  converter, mode):
    # the wraps add two mix nodes per block, but the block input and
    # conv2's output that only they and the sum read are released, so a
    # wrapped block keeps two activations, as a plain block does
    spec = NetworkSpec(blocks_per_stage=3, transform_kind=kind,
                       transform_params=params, **branches)
    net = build_network(spec, seed=33)
    conv = converter(net)
    x = np.random.default_rng(34).standard_normal((4, 3, 32, 32))
    original = _forward_tape_bytes(net, x, mode)
    converted = _forward_tape_bytes(conv, x, mode)
    assert converted <= 1.02 * original


def test_rewrites_hold_read_only_matrices_shared_per_stage():
    net = make_net("idempotent_mr", {"B": 2}, k=3, seed=35)
    diag = eq.convert_idempotent_to_diagonal(net)
    ident = eq.convert_orthogonal_to_identity(
        make_net("orthogonal_tp", k=3, seed=35))
    for conv in (diag, ident):
        for stage in conv.stages:
            for blk in stage:
                for mat in (blk.skip, blk.pre_mix, blk.post_mix):
                    assert not mat.flags.writeable
                    with pytest.raises(ValueError, match="read-only"):
                        mat[0, 0] = 2.0
            assert all(blk.skip is stage[0].skip for blk in stage)
    for stage in diag.stages:   # one U and one U_inv per stage
        assert all(blk.pre_mix is stage[0].pre_mix for blk in stage)
        assert all(blk.post_mix is stage[0].post_mix for blk in stage)


# ---------------------------------------------------------------------------
# mixing interaction

def test_identity_multibranch_block_has_no_mixing():
    net = make_net("identity", k=1, branch_mode="multi", num_branches=4)
    report = eq.mixing_interaction_report(net.stages[0][0])
    assert not report.mixing
    assert report.pre_pattern is None and report.post_pattern is None


def test_converted_tp_multibranch_block_mixes():
    net = make_net("orthogonal_tp", k=2, branch_mode="multi", num_branches=4,
                   seed=3)
    conv = eq.convert_orthogonal_to_identity(net)
    report = eq.mixing_interaction_report(conv.stages[0][0])
    assert report.mixing
    assert report.pre_pattern.any() and report.post_pattern.any()


def test_converted_idempotent_multibranch_block_mixes():
    net = make_net("idempotent_mr", {"B": 4}, k=2, branch_mode="multi",
                   num_branches=4, seed=4)
    conv = eq.convert_idempotent_to_diagonal(net)
    report = eq.mixing_interaction_report(conv.stages[0][0])
    assert report.mixing


def test_branch_block_diagonal_q_does_not_mix():
    # a Q that is block-diagonal over the branch partition produces wraps
    # that stay within branches: no cross-branch exchange
    rng = np.random.default_rng(8)
    net = make_net("identity", k=2, branch_mode="multi", num_branches=4)
    for stage in net.stages:
        factors = []
        for _ in range(4):
            theta = rng.uniform(0, 2 * np.pi)
            c, s = np.cos(theta), np.sin(theta)
            factors.append(np.array([[c, -s], [s, c]]))
        q = np.zeros((8, 8))
        for b, f in enumerate(factors):
            q[2 * b:2 * b + 2, 2 * b:2 * b + 2] = f
        shared = q.copy()
        for blk in stage:
            blk.set_skip(shared)
    conv = eq.convert_orthogonal_to_identity(net)
    report = eq.mixing_interaction_report(conv.stages[0][0])
    assert not report.mixing
    check = eq.verify_equivalence(net, conv, num_inputs=8, seed=9)
    assert check.max_deviation <= 1e-8


def test_mixing_report_requires_multibranch():
    net = make_net("identity", k=1)
    with pytest.raises(ValueError, match="multi-branch"):
        eq.mixing_interaction_report(net.stages[0][0])


# ---------------------------------------------------------------------------
# the rewrites commute with training

def _commute_net(kind, params, branches, dtype):
    spec = NetworkSpec(blocks_per_stage=2, stage_widths=(16, 32, 64),
                       transform_kind=kind, transform_params=params,
                       branch_mode="multi" if branches > 1 else "single",
                       num_branches=branches, input_shape=(3, 16, 16))
    return build_network(spec, seed=3, dtype=dtype)


def _train(net, lr, steps=10):
    """``steps`` train-mode Nesterov steps on four seeded batches in turn,
    with weight decay wherever ``parameters()`` asks for it."""
    rng = np.random.default_rng(8)
    batches = [(rng.standard_normal((8, 3, 16, 16)), rng.integers(0, 10, 8))
               for _ in range(4)]
    params = net.parameters()
    tensors = [t for _, t, _ in params]
    no_decay = [t for _, t, decays in params if not decays]
    state = OptimState(lr, momentum=0.9, weight_decay=1e-4)
    for step in range(steps):
        images, labels = batches[step % len(batches)]
        with Graph() as graph:
            loss = softmax_cross_entropy(net.forward(images, mode="train"),
                                         labels)
        sgd_nesterov_step(tensors, backward(graph, loss), state, no_decay)
    return net


def _train_then_convert_against_convert_then_train(net, convert, lr):
    converted = _train(convert(net), lr)
    return eq.verify_equivalence(convert(_train(net, lr)), converted,
                                 num_inputs=4, seed=2)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind,params,branches,convert", [
    ("orthogonal_tp", {}, 1, eq.convert_orthogonal_to_identity),
    ("orthogonal_random", {}, 1, eq.convert_orthogonal_to_identity),
    ("idempotent_mr", {}, 4, eq.convert_idempotent_to_diagonal),
    ("idempotent_cmr", {}, 4, eq.convert_idempotent_to_diagonal),
    ("periodic", {"N": 3}, 1, eq.convert_idempotent_to_diagonal),
], ids=["orthogonal_tp", "orthogonal_random", "idempotent_mr_multi4",
        "idempotent_cmr_multi4", "periodic_n3"])
def test_rewrite_commutes_with_training(kind, params, branches, convert,
                                        dtype):
    # each rewrite is an orthogonal change of basis (V is orthogonal for a
    # normal skip), which only the stem, transitions and head absorb; their
    # gradients rotate with them, and Nesterov SGD with L2 decay commutes
    # with a rotation, so "train then convert" is "convert then train"
    net = _commute_net(kind, params, branches, dtype)
    report = _train_then_convert_against_convert_then_train(net, convert,
                                                            lr=1e-3)
    assert report.passed, (report.max_deviation, report.tol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_oblique_rewrite_does_not_commute_with_training(dtype):
    # negative control: an oblique idempotent P = W D W^-1 converts to a
    # function-equivalent net, but its basis V is not orthogonal, so the
    # absorbed gradients do not transform as the weights do
    net = _commute_net("idempotent_mr", {}, 4, dtype)
    rng = np.random.default_rng(11)
    for stage in net.stages:
        width = stage[0].width
        w = np.eye(width) + 0.05 * rng.standard_normal((width, width))
        d = np.diag((np.arange(width) < width // 4).astype(float))
        p = w @ d @ np.linalg.inv(w)
        for blk in stage:
            blk.set_skip(p)
    before = eq.verify_equivalence(net, eq.convert_idempotent_to_diagonal(net),
                                   num_inputs=4, seed=2)
    assert before.passed
    report = _train_then_convert_against_convert_then_train(
        net, eq.convert_idempotent_to_diagonal, lr=1e-4)
    assert not report.passed, (report.max_deviation, report.tol)
