import numpy as np
import numpy.testing as npt
import pytest

from linearskip import autodiff as ad
from linearskip.autodiff import (BatchNormState, Graph, Tensor, add, backward,
                                 batch_norm, channel_mix, conv2d, dense,
                                 global_avg_pool, reduce_sum, relu,
                                 softmax_cross_entropy)
from linearskip.network import build_block
from linearskip.optim import OptimState, sgd_nesterov_step

import oracles


# ---------------------------------------------------------------------------
# conv2d

def test_conv_sum_of_ones():
    x = Tensor(np.ones((1, 1, 3, 3)))
    k = Tensor(np.ones((1, 1, 3, 3)))
    out = conv2d(x, k)
    assert out.shape == (1, 1, 1, 1)
    assert out.data[0, 0, 0, 0] == 9.0


def test_conv_identity_kernel():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((2, 4, 5, 5)))
    k = np.zeros((4, 4, 1, 1))
    k[np.arange(4), np.arange(4), 0, 0] = 1.0
    out = conv2d(x, Tensor(k))
    npt.assert_array_equal(out.data, x.data)


def test_conv_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((1, 2, 4, 4))
    k = rng.standard_normal((3, 2, 3, 3))
    out = conv2d(Tensor(x), Tensor(k), stride=2, padding=1)
    assert out.shape == (1, 3, 2, 2)
    npt.assert_allclose(out.data, oracles.conv2d_loop(x, k, stride=2, padding=1),
                        atol=1e-12)


@pytest.mark.parametrize("groups", [1, 2, 4])
def test_conv_grouped_matches_loop_oracle(groups):
    rng = np.random.default_rng(11 + groups)
    x = rng.standard_normal((2, 4, 6, 6))
    k = rng.standard_normal((8, 4 // groups, 3, 3))
    out = conv2d(Tensor(x), Tensor(k), stride=1, padding=1, groups=groups)
    npt.assert_allclose(
        out.data, oracles.conv2d_loop(x, k, stride=1, padding=1, groups=groups),
        atol=1e-12)


def test_conv_linearity():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 3, 6, 6))
    y = rng.standard_normal((1, 3, 6, 6))
    k = Tensor(rng.standard_normal((4, 3, 3, 3)))
    a, b = 0.37, -1.9
    lhs = conv2d(Tensor(a * x + b * y), k, padding=1).data
    rhs = a * conv2d(Tensor(x), k, padding=1).data \
        + b * conv2d(Tensor(y), k, padding=1).data
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_conv_shape_errors():
    x = Tensor(np.zeros((1, 4, 8, 8)))
    with pytest.raises(ValueError, match="input channels"):
        conv2d(x, Tensor(np.zeros((4, 3, 3, 3))))
    with pytest.raises(ValueError, match="divisible by groups"):
        conv2d(x, Tensor(np.zeros((4, 1, 3, 3))), groups=3)
    with pytest.raises(ValueError, match="does not fit"):
        conv2d(x, Tensor(np.zeros((4, 4, 9, 9))))


# ---------------------------------------------------------------------------
# batch norm

def test_batch_norm_constant_input_centers_to_zero():
    x = np.ones((3, 2, 4, 4))
    x[:, 1] = 5.0
    out = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                     BatchNormState(2), mode="train")
    npt.assert_allclose(out.data, 0.0, atol=1e-12)


def test_batch_norm_gamma_zero_outputs_beta():
    rng = np.random.default_rng(0)
    out = batch_norm(Tensor(rng.standard_normal((2, 3, 4, 4))),
                     Tensor(np.zeros(3)), Tensor(np.full(3, 2.5)),
                     BatchNormState(3), mode="train")
    npt.assert_allclose(out.data, 2.5, atol=1e-12)


def test_batch_norm_two_sample_oracle():
    # batch values 1 and 3 per channel: mean 2, biased variance 1
    x = np.array([1.0, 3.0]).reshape(2, 1, 1, 1).repeat(2, axis=1)
    out = batch_norm(Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                     BatchNormState(2), mode="train")
    expected = np.array([-1.0, 1.0]) / np.sqrt(1.0 + 1e-5)
    npt.assert_allclose(out.data[:, 0, 0, 0], expected, rtol=1e-12)
    npt.assert_allclose(out.data[:, 1, 0, 0], expected, rtol=1e-12)


def test_batch_norm_eval_uses_running_stats():
    state = BatchNormState(1)
    state.running_mean[:] = 1.0
    state.running_var[:] = 4.0
    x = np.full((2, 1, 1, 1), 3.0)
    out = batch_norm(Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)),
                     state, mode="eval")
    npt.assert_allclose(out.data, (3.0 - 1.0) / np.sqrt(4.0 + 1e-5), rtol=1e-12)


def test_batch_norm_zero_batch_errors():
    with pytest.raises(ValueError, match="non-empty"):
        batch_norm(Tensor(np.zeros((0, 2, 4, 4))), Tensor(np.ones(2)),
                   Tensor(np.zeros(2)), BatchNormState(2), mode="train")


# ---------------------------------------------------------------------------
# simple ops

def test_relu_values():
    out = relu(Tensor(np.array([-1.0, 0.0, 2.0])))
    npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])


def test_global_avg_pool_mean():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = global_avg_pool(Tensor(x))
    npt.assert_allclose(out.data, [[2.5]])


def test_softmax_cross_entropy_uniform():
    for k in (2, 5, 10):
        logits = Tensor(np.zeros((3, k)))
        loss = softmax_cross_entropy(logits, np.zeros(3, dtype=int))
        npt.assert_allclose(float(loss.data), np.log(k), rtol=1e-12)


def test_softmax_cross_entropy_label_range():
    with pytest.raises(ValueError, match="labels must lie"):
        softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


def test_channel_mix_matches_loop_oracle():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((2, 3, 4, 4))
    mat = rng.standard_normal((3, 3))
    out = channel_mix(Tensor(x), mat)
    npt.assert_allclose(out.data, oracles.mix_channels(mat, x), atol=1e-12)


# ---------------------------------------------------------------------------
# backward

def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(1).standard_normal((3, 4)),
               requires_grad=True)
    with Graph() as g:
        loss = reduce_sum(x)
    grads = backward(g, loss)
    npt.assert_array_equal(grads[x].data, np.ones((3, 4)))


def test_backward_relu_subgradient():
    x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
    with Graph() as g:
        loss = reduce_sum(relu(x))
    grads = backward(g, loss)
    npt.assert_array_equal(grads[x].data, [0.0, 1.0])


def test_backward_requires_scalar_loss():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with Graph() as g:
        y = relu(x)
    with pytest.raises(ValueError, match="scalar"):
        backward(g, y)


def test_backward_accumulates_over_fanout():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Graph() as g:
        loss = reduce_sum(add(x, x))
    grads = backward(g, loss)
    npt.assert_array_equal(grads[x].data, [2.0, 2.0])


def _finite_difference_check(build_loss, tensors, h=1e-3, tol=1e-3):
    """Analytic vs central-difference gradients for every listed tensor."""
    with Graph() as g:
        loss = build_loss()
    grads = backward(g, loss)
    for t in tensors:
        fd = oracles.numeric_gradient(lambda: float(build_loss().data), t.data, h)
        assert t in grads, "missing analytic gradient"
        err = oracles.relative_error(grads[t].data, fd)
        assert err <= tol, f"gradient mismatch {err:.2e} for {t}"


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_conv(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 4, 5, 5)), requires_grad=True)
    k = Tensor(rng.standard_normal((6, 2, 3, 3)) * 0.5, requires_grad=True)
    w = Tensor(rng.standard_normal((3, 6)))
    labels = np.array([0, 2])

    def loss():
        out = conv2d(x, k, stride=2, padding=1, groups=2)
        return softmax_cross_entropy(dense(global_avg_pool(out), w), labels)

    _finite_difference_check(loss, [x, k])


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_batch_norm_train(seed):
    rng = np.random.default_rng(100 + seed)
    x = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
    gamma = Tensor(rng.standard_normal(2) + 1.5, requires_grad=True)
    beta = Tensor(rng.standard_normal(2), requires_grad=True)
    state = BatchNormState(2)

    def loss():
        out = batch_norm(x, gamma, beta, state, mode="train")
        return reduce_sum(relu(out))

    _finite_difference_check(loss, [x, gamma, beta])


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_dense_softmax(seed):
    rng = np.random.default_rng(200 + seed)
    x = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
    w = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    b = Tensor(rng.standard_normal(5), requires_grad=True)
    labels = rng.integers(0, 5, size=4)

    def loss():
        return softmax_cross_entropy(dense(x, w, b), labels)

    _finite_difference_check(loss, [x, w, b])


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_pool_mix(seed):
    rng = np.random.default_rng(300 + seed)
    x = Tensor(rng.standard_normal((2, 4, 3, 3)), requires_grad=True)
    mat = rng.standard_normal((4, 4))
    w = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    labels = np.array([0, 2])

    def loss():
        h = channel_mix(x, mat)
        h = global_avg_pool(h)
        return softmax_cross_entropy(dense(h, w), labels)

    _finite_difference_check(loss, [x, w])


def test_gradcheck_full_block():
    # one y = Px + F(x) unit with a random mixing matrix, checked end to end
    rng = np.random.default_rng(42)
    blk = build_block(8, transform="orthogonal_random", seed=5,
                      transform_params={"seed": 17})
    x = Tensor(rng.standard_normal((2, 8, 5, 5)), requires_grad=True)
    w = Tensor(rng.standard_normal((4, 8)))
    labels = np.array([1, 3])

    def loss():
        y = blk.forward(x, mode="train")
        return softmax_cross_entropy(dense(global_avg_pool(y), w), labels)

    params = [x, blk.conv1, blk.conv2, blk.bn1.gamma, blk.bn1.beta,
              blk.bn2.gamma, blk.bn2.beta]
    _finite_difference_check(loss, params)


def test_deterministic_forward_and_gradients():
    def run():
        rng = np.random.default_rng(77)
        blk = build_block(4, transform="identity", seed=3)
        x = Tensor(rng.standard_normal((2, 4, 6, 6)), requires_grad=True)
        with Graph() as g:
            loss = reduce_sum(relu(blk.forward(x, mode="train")))
        grads = backward(g, loss)
        return loss.data.copy(), {id(t): v.data.copy() for t, v in grads.items()}

    (l1, g1), (l2, g2) = run(), run()
    assert np.array_equal(l1, l2)
    # same construction order gives the same id ordering is not guaranteed;
    # compare sorted gradient arrays instead
    for a, b in zip(sorted(g1.values(), key=lambda v: v.shape + (float(v.sum()),)),
                    sorted(g2.values(), key=lambda v: v.shape + (float(v.sum()),))):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# optimizer

def test_sgd_plain_reduction():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    g = {p: Tensor(np.array([0.5, 0.5]))}
    state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.0)
    sgd_nesterov_step([p], g, state)
    npt.assert_allclose(p.data, [1.0 - 0.05, -2.0 - 0.05], rtol=1e-12)


def test_sgd_zero_grad_keeps_params():
    p = Tensor(np.array([3.0]), requires_grad=True)
    state = OptimState(lr=0.1, momentum=0.9, weight_decay=0.0)
    sgd_nesterov_step([p], {p: Tensor(np.array([0.0]))}, state)
    npt.assert_array_equal(p.data, [3.0])


def test_sgd_two_step_hand_oracle():
    # p=1, g=1, lr=0.1, mu=0.9, wd=0:
    #  step 1: v = -0.1,  p = 1 + 0.9*(-0.1) - 0.1 = 0.81
    #  step 2: v = -0.19, p = 0.81 + 0.9*(-0.19) - 0.1 = 0.539
    p = Tensor(np.array([1.0]), requires_grad=True)
    state = OptimState(lr=0.1, momentum=0.9, weight_decay=0.0)
    g = {p: Tensor(np.array([1.0]))}
    sgd_nesterov_step([p], g, state)
    npt.assert_allclose(p.data, [0.81], rtol=1e-12)
    sgd_nesterov_step([p], g, state)
    npt.assert_allclose(p.data, [0.539], rtol=1e-12)


def test_sgd_weight_decay_exclusion():
    p = Tensor(np.array([2.0]), requires_grad=True)
    q = Tensor(np.array([2.0]), requires_grad=True)
    grads = {p: Tensor(np.array([0.0])), q: Tensor(np.array([0.0]))}
    state = OptimState(lr=0.1, momentum=0.0, weight_decay=0.5)
    sgd_nesterov_step([p, q], grads, state, no_decay=[q])
    npt.assert_allclose(p.data, [2.0 - 0.1 * 0.5 * 2.0], rtol=1e-12)
    npt.assert_array_equal(q.data, [2.0])
