import numpy as np
import numpy.testing as npt
import pytest

from linearskip import propagation as prop
from linearskip import transforms as tr
from linearskip.autodiff import vjp
from linearskip.network import NetworkSpec, build_network
from linearskip.transforms import apply_transform

import oracles


def stage_net(kind, params=None, k=4, width=8, seed=0, **kw):
    spec = NetworkSpec(blocks_per_stage=k, stage_widths=(width,) * 3,
                       transform_kind=kind, transform_params=params or {},
                       input_shape=(3, 8, 8), **kw)
    return build_network(spec, seed=seed)


def input_batch(seed=0, n=2):
    return np.random.default_rng(seed).standard_normal((n, 3, 8, 8))


EPS32 = float(np.finfo(np.float32).eps)


def float32_trace(kind, params=None, k=4, seed=0, batch_seed=0):
    """Trace of all of stage 1 of a float32 net, batch norm in eval mode."""
    spec = NetworkSpec(blocks_per_stage=k, stage_widths=(8,) * 3,
                       transform_kind=kind, transform_params=params or {},
                       input_shape=(3, 8, 8))
    net = build_network(spec, seed=seed, dtype=np.float32)
    trace = prop.capture_trace(net, input_batch(batch_seed), stage=1, m=1, n=k)
    assert trace.x(k).dtype == np.float32
    return trace


# ---------------------------------------------------------------------------
# capture_trace

def test_trace_single_block_is_one_application():
    net = stage_net("idempotent_cmr", {"B": 2}, k=2)
    trace = prop.capture_trace(net, input_batch(), stage=1, m=1, n=2)
    recon = apply_transform(trace.transform, trace.x(1)) + trace.branch(1)
    npt.assert_allclose(recon, trace.x(2), atol=1e-12)


def test_trace_zeroed_branches_is_matrix_power():
    net = stage_net("idempotent_mr", {"B": 4}, k=4)
    for blk in net.stages[0]:
        blk.conv2.data[:] = 0.0
    trace = prop.capture_trace(net, input_batch(1), stage=1, m=1, n=4)
    p3 = oracles.matrix_power_loop(trace.transform, 3)
    npt.assert_allclose(trace.x(4), apply_transform(p3, trace.x(1)), atol=1e-12)


def test_trace_tapes_only_its_span():
    # every stage has K blocks of one shape, so a tape that starts at the
    # stage input has one length in all three stages
    net = stage_net("idempotent_mr", {"B": 2}, k=3)
    traces = [prop.capture_trace(net, input_batch(), stage=s, m=1, n=3)
              for s in (1, 2, 3)]
    assert len({len(trace._graph) for trace in traces}) == 1
    for trace in traces:
        x_1 = trace._input_tensors[0]
        assert x_1.requires_grad
        assert all(node.output is not x_1 for node in trace._graph.nodes)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["none", "identity", "idempotent_mr",
                                  "orthogonal_tp"])
def test_trace_matches_direct_forward(kind, m):
    net = stage_net(kind, k=3)
    x = input_batch(2)
    trace = prop.capture_trace(net, x, stage=2, m=m, n=3)
    h = net.stage_input(x, 2, mode="eval")
    for blk in net.stages[1][:2]:
        h = blk.forward(h, mode="eval")
    npt.assert_allclose(trace.x(3), h.data, atol=1e-10)


def test_trace_index_validation():
    net = stage_net("identity", k=3)
    with pytest.raises(ValueError, match="1 <= m < n"):
        prop.capture_trace(net, input_batch(), stage=1, m=2, n=2)
    with pytest.raises(ValueError, match="1 <= m < n"):
        prop.capture_trace(net, input_batch(), stage=1, m=0, n=2)
    with pytest.raises(ValueError, match="1 <= m < n"):
        prop.capture_trace(net, input_batch(), stage=1, m=1, n=4)


@pytest.mark.parametrize("stage", [0, 4])
def test_trace_stage_validation(stage):
    net = stage_net("identity", k=3)
    with pytest.raises(ValueError, match="stage must be 1, 2, or 3"):
        prop.capture_trace(net, input_batch(), stage=stage, m=1, n=2)


# ---------------------------------------------------------------------------
# forward expansion

def test_forward_expansion_identity_form():
    net = stage_net("identity", k=4)
    trace = prop.capture_trace(net, input_batch(3), stage=1, m=1, n=4)
    check = prop.verify_forward_expansion(trace)
    assert check.deviation <= 1e-10
    # identity form: x_n = x_m + sum of branch outputs
    rhs = trace.x(1) + sum(trace.branch(i) for i in range(1, 4))
    npt.assert_allclose(rhs, trace.x(4), atol=1e-10)


def test_forward_expansion_idempotent_collapse():
    net = stage_net("idempotent_cmr", {"B": 2}, k=6)
    trace = prop.capture_trace(net, input_batch(4), stage=1, m=1, n=6)
    check = prop.verify_forward_expansion(trace)
    assert check.deviation <= 1e-9
    assert check.collapsed_deviation is not None
    assert check.collapsed_deviation <= 1e-9


def test_forward_expansion_orthogonal_with_power_oracle():
    net = stage_net("orthogonal_random", k=5, seed=3)
    q = tr.make_orthogonal_random(8, seed=3).matrix
    for blk in net.stages[0]:
        blk.set_skip(q)  # one P for the whole stage
    trace = prop.capture_trace(net, input_batch(5), stage=1, m=1, n=5)
    check = prop.verify_forward_expansion(trace)
    assert check.deviation <= 1e-9
    assert check.collapsed_deviation is None
    # repeated-multiplication oracle for the skip term
    p4 = oracles.matrix_power_loop(trace.transform, 4)
    rhs = apply_transform(p4, trace.x(1))
    for i in range(1, 5):
        rhs = rhs + apply_transform(
            oracles.matrix_power_loop(trace.transform, 5 - i - 1),
            trace.branch(i))
    npt.assert_allclose(rhs, trace.x(5), atol=1e-9)


def test_forward_expansion_all_m_from_one_trace():
    # feature reuse: the expansion holds for every earlier block input
    net = stage_net("idempotent_mr", {"B": 2}, k=5, seed=7)
    trace = prop.capture_trace(net, input_batch(6), stage=1, m=1, n=5)
    for m in range(1, 5):
        for n in range(m + 1, 6):
            check = prop.verify_forward_expansion(trace, m=m, n=n)
            assert check.deviation <= 1e-9, (m, n)


def test_forward_expansion_identity_form_float32():
    trace = float32_trace("identity", k=4, seed=0, batch_seed=3)
    tol = 2 ** 4 * EPS32 * np.abs(trace.x(4)).max()
    assert prop.verify_forward_expansion(trace).deviation <= tol
    rhs = trace.x(1) + sum(trace.branch(i) for i in range(1, 4))
    assert np.abs(rhs - trace.x(4)).max() <= tol


def test_forward_expansion_idempotent_collapse_float32():
    trace = float32_trace("idempotent_cmr", {"B": 2}, k=6, batch_seed=4)
    check = prop.verify_forward_expansion(trace)
    tol = 2 ** 4 * EPS32 * np.abs(trace.x(6)).max()
    assert check.deviation <= tol
    assert check.collapsed_deviation is not None
    assert check.collapsed_deviation <= tol


# ---------------------------------------------------------------------------
# per-block skips

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_per_block_orthogonal_net_traces_every_stage(dtype):
    # the default orthogonal_random net draws one Q per block
    spec = NetworkSpec(blocks_per_stage=9, transform_kind="orthogonal_random",
                       input_shape=(3, 8, 8))
    net = build_network(spec, seed=1, dtype=dtype)
    eps = float(np.finfo(dtype).eps)
    for stage in (1, 2, 3):
        trace = prop.capture_trace(net, input_batch(19), stage, m=1, n=9)
        assert trace.transform is None
        for p, blk in zip(trace.skips, net.stages[stage - 1]):
            assert p is blk.skip
        report = prop.flow_report(trace)
        assert report.forward_deviation <= 2 ** 8 * eps * np.abs(
            trace.x(9)).max()
        assert report.backward_deviation <= 2 ** 8 * eps * np.abs(
            trace.grad(1)).max()
        assert abs(report.skip_gain - 1.0) <= 2 ** 4 * eps
        assert abs(report.gradient_gain - 1.0) <= 2 ** 4 * eps


def test_mixed_skip_stage_traces_and_verifies():
    skips = [np.eye(8), tr.make_idempotent_mr(8, 2).matrix,
             tr.make_orthogonal_tp(8).matrix,
             tr.make_periodic(8, 3, seed=2).matrix, None]
    net = stage_net("identity", k=6, seed=12)
    for blk, p in zip(net.stages[0], skips):
        blk.set_skip(p)
    trace = prop.capture_trace(net, input_batch(20), stage=1, m=1, n=6)
    assert trace.transform is None
    npt.assert_array_equal(trace.skips[4], np.zeros((8, 8)))
    tol = 2 ** 8 * np.finfo(np.float64).eps
    for m in range(1, 6):
        for n in range(m + 1, 7):
            check = prop.verify_forward_expansion(trace, m=m, n=n)
            assert check.collapsed_deviation is None
            assert check.deviation <= tol * np.abs(trace.x(n)).max(), (m, n)
            assert prop.verify_backward_expansion(trace, m=m, n=n) <= \
                tol * np.abs(trace.grad(m)).max(), (m, n)
    report = prop.flow_report(trace)
    assert report.null_fraction_x_m is None
    assert report.null_fraction_x_n is None
    # the none block ends every path through it: only x'_6 survives
    assert report.skip_gain == report.gradient_gain == 0.0
    assert report.term_norms[:4] == [0.0] * 4
    assert "|Φ(6,2) x'_2|" in report.to_text()


# ---------------------------------------------------------------------------
# backward expansion

def test_backward_zeroed_branches_is_transposed_power():
    net = stage_net("idempotent_cmr", {"B": 4}, k=4)
    for blk in net.stages[0]:
        blk.conv2.data[:] = 0.0
    trace = prop.capture_trace(net, input_batch(7), stage=1, m=1, n=4)
    expected = apply_transform(oracles.matrix_power_loop(trace.transform, 3).T,
                               trace.grad(4))
    npt.assert_allclose(trace.grad(1), expected, atol=1e-12)


def test_backward_expansion_identity():
    net = stage_net("identity", k=4, seed=2)
    trace = prop.capture_trace(net, input_batch(8), stage=1, m=1, n=4)
    assert prop.verify_backward_expansion(trace) <= 1e-8


def test_backward_expansion_identity_float32():
    spec = NetworkSpec(blocks_per_stage=4, stage_widths=(8,) * 3,
                       transform_kind="identity", input_shape=(3, 8, 8))
    net = build_network(spec, seed=2, dtype=np.float32)
    trace = prop.capture_trace(net, input_batch(8), stage=1, m=1, n=4)
    assert trace.grad(1).dtype == np.float32
    tol = 2 ** 8 * np.finfo(np.float32).eps * np.abs(trace.grad(1)).max()
    assert prop.verify_backward_expansion(trace) <= tol


def test_backward_expansion_idempotent():
    net = stage_net("idempotent_mr", {"B": 2}, k=4, seed=5)
    trace = prop.capture_trace(net, input_batch(9), stage=1, m=1, n=4)
    assert prop.verify_backward_expansion(trace) <= 1e-8


def test_backward_expansion_all_pairs():
    net = stage_net("orthogonal_tp", k=4, seed=9)
    trace = prop.capture_trace(net, input_batch(10), stage=1, m=1, n=4)
    for m in range(1, 4):
        for n in range(m + 1, 5):
            assert prop.verify_backward_expansion(trace, m=m, n=n) <= 1e-8, (m, n)


def test_vjp_wrt_walks_only_dependent_nodes():
    # block 1 of stage 2 cannot reach x_2's gradient: a walk restricted to
    # x_2 skips it and gives the same bits
    net = stage_net("idempotent_mr", {"B": 2}, k=3)
    trace = prop.capture_trace(net, input_batch(5), stage=2, m=2, n=3)
    graph = trace._graph
    calls = []
    for node in graph.nodes:
        def counted(g, inner=node.vjp_fn):
            calls.append(1)
            return inner(g)
        node.vjp_fn = counted
    x_m = trace._input_tensors[0]
    branch = trace._branch_tensors[0]
    seed = np.random.default_rng(6).standard_normal(branch.shape)
    full = vjp(graph, {branch: seed})
    full_calls = len(calls)
    calls.clear()
    restricted = vjp(graph, {branch: seed}, wrt=[x_m])
    assert list(restricted) == [x_m]
    assert np.array_equal(restricted[x_m], full[x_m])
    assert 0 < len(calls) < full_calls
    # the trace's own restricted walk matches an unrestricted one
    loss = graph.nodes[-1].output
    unrestricted = vjp(graph, {loss: np.ones_like(loss.data)})
    for t, grad in zip(trace._input_tensors, trace.gradients):
        assert np.array_equal(grad, unrestricted[t])


def test_vjp_two_seeds_sum_single_seed_walks():
    net = stage_net("orthogonal_tp", k=3, seed=4)
    trace = prop.capture_trace(net, input_batch(6), stage=1, m=1, n=3)
    x_m = trace._input_tensors[0]
    rng = np.random.default_rng(7)
    seeds = {t: rng.standard_normal(t.shape) for t in trace._branch_tensors}
    both = vjp(trace._graph, seeds, wrt=[x_m])[x_m]
    parts = sum(vjp(trace._graph, {t: seed}, wrt=[x_m])[x_m]
                for t, seed in seeds.items())
    assert len(seeds) == 2
    assert np.abs(both - parts).max() <= \
        2 ** 4 * np.finfo(np.float64).eps * np.abs(parts).max()


@pytest.mark.parametrize("span", [1, 2, 3, 4])
def test_backward_expansion_is_one_walk(span, monkeypatch):
    net = stage_net("idempotent_mr", {"B": 2}, k=5, seed=3)
    trace = prop.capture_trace(net, input_batch(4), stage=1, m=1, n=5)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return vjp(*args, **kwargs)
    monkeypatch.setattr(prop, "vjp", counted)
    assert prop.verify_backward_expansion(trace, m=5 - span, n=5) <= 1e-8
    assert len(calls) == 1


def test_vjp_rejects_seed_of_wrong_shape():
    net = stage_net("identity", k=2)
    trace = prop.capture_trace(net, input_batch(), stage=1, m=1, n=2)
    branch = trace._branch_tensors[0]
    with pytest.raises(ValueError, match="seed shape"):
        vjp(trace._graph, {branch: np.ones(branch.shape[1:])})


# ---------------------------------------------------------------------------
# gains

def test_orthogonal_gains_are_one():
    rng = np.random.default_rng(11)
    q = tr.make_orthogonal_random(16, seed=4)
    x = rng.standard_normal(16)
    g = rng.standard_normal(16)
    for k in (1, 3, 16):
        qk = tr.matrix_power(q, k)
        assert abs(prop.skip_path_gain(qk, x) - 1.0) <= 1e-9
        assert abs(prop.gradient_skip_gain(qk, g) - 1.0) <= 1e-9


def test_idempotent_column_space_gain_one():
    p = tr.make_idempotent_mr(8, 2)
    rng = np.random.default_rng(12)
    v = p.matrix @ rng.standard_normal(8)
    for k in (1, 2, 7):
        pk = tr.matrix_power(p, k)
        assert abs(prop.skip_path_gain(pk, v) - 1.0) <= 1e-9


def test_idempotent_null_space_gain_zero():
    p = tr.make_idempotent_cmr(8, 2)
    rng = np.random.default_rng(13)
    # null space of CMR = column space of MR
    v = tr.make_idempotent_mr(8, 2).matrix @ rng.standard_normal(8)
    for k in (1, 2, 5):
        assert prop.skip_path_gain(tr.matrix_power(p, k), v) <= 1e-9


def test_gain_rejects_zero_vector():
    p = tr.make_identity(4)
    with pytest.raises(ValueError, match="zero input"):
        prop.skip_path_gain(tr.matrix_power(p, 1), np.zeros(4))


def test_gains_float32():
    rng = np.random.default_rng(11)
    q = tr.make_orthogonal_random(16, seed=4)
    x = rng.standard_normal(16).astype(np.float32)
    g = rng.standard_normal(16).astype(np.float32)
    for k in (1, 3, 16):
        qk = tr.matrix_power(q, k)
        assert abs(prop.skip_path_gain(qk, x) - 1.0) <= 2 ** 4 * EPS32
        assert abs(prop.gradient_skip_gain(qk, g) - 1.0) <= 2 ** 4 * EPS32
    trace = float32_trace("orthogonal_tp", k=3, seed=4, batch_seed=16)
    report = prop.flow_report(trace)
    assert abs(report.skip_gain - 1.0) <= 2 ** 4 * EPS32
    assert abs(report.gradient_gain - 1.0) <= 2 ** 4 * EPS32
    assert report.forward_deviation <= 2 ** 4 * EPS32 * np.abs(
        trace.x(3)).max()
    assert report.backward_deviation <= 2 ** 8 * EPS32 * np.abs(
        trace.grad(1)).max()


# ---------------------------------------------------------------------------
# null-space split

def test_null_split_of_column_vector():
    p = tr.make_idempotent_mr(6, 3)
    rng = np.random.default_rng(14)
    v = p.matrix @ rng.standard_normal(6)
    split = prop.null_space_components(p, v)
    npt.assert_allclose(split.null_part, 0.0, atol=1e-12)
    assert split.fractions[0] == pytest.approx(1.0)


def test_null_split_mr22_hand_oracle():
    p = tr.make_idempotent_mr(2, 2)
    split = prop.null_space_components(p, np.array([1.0, -1.0]))
    npt.assert_allclose(split.column_part, [0.0, 0.0], atol=1e-15)
    npt.assert_allclose(split.null_part, [1.0, -1.0], atol=1e-15)
    assert split.fractions == (0.0, 1.0)


def test_null_split_identity_has_no_null_part():
    split = prop.null_space_components(tr.make_identity(3),
                                       np.array([1.0, 2.0, 3.0]))
    npt.assert_allclose(split.null_part, 0.0, atol=1e-15)


def test_null_split_requires_idempotent():
    with pytest.raises(ValueError, match="idempotent"):
        prop.null_space_components(np.array([[2.0, 0.0], [0.0, 1.0]]),
                                   np.array([1.0, 1.0]))


def test_null_split_oblique_has_no_fractions():
    p = np.array([[1.0, 1.0], [0.0, 0.0]])  # oblique projector
    split = prop.null_space_components(p, np.array([1.0, 2.0]))
    assert split.fractions is None
    npt.assert_allclose(split.column_part + split.null_part, [1.0, 2.0],
                        atol=1e-15)


def test_null_split_float32():
    trace = float32_trace("idempotent_cmr", {"B": 2}, k=3, seed=6,
                          batch_seed=17)
    x = trace.x(3)
    split = prop.null_space_components(trace.transform, x)
    tol = 2 ** 4 * EPS32 * np.abs(x).max()
    assert np.abs(split.column_part + split.null_part - x).max() <= tol
    assert np.abs(apply_transform(trace.transform, split.column_part)
                  - split.column_part).max() <= tol
    assert abs(sum(split.fractions) - 1.0) <= 2 ** 4 * EPS32
    report = prop.flow_report(trace)
    assert report.null_fraction_x_n == pytest.approx(split.fractions[1],
                                                     abs=2 ** 4 * EPS32)


# ---------------------------------------------------------------------------
# column-space maintenance (constructive)

def test_branch_output_in_column_space_survives():
    # choose branch weights so F(x_m) lies in the column space of P; then
    # P v' = v' and the contribution does not vanish
    net = stage_net("idempotent_mr", {"B": 2}, k=3, seed=21)
    p = net.stages[0][0].skip
    blk = net.stages[0][0]
    mixed = np.einsum("oc,cihw->oihw", p, blk.conv2.data)
    blk.conv2.data = mixed
    trace = prop.capture_trace(net, input_batch(15), stage=1, m=1, n=3)
    v_prime = apply_transform(oracles.matrix_power_loop(p, 1), trace.branch(1))
    assert np.abs(v_prime).max() > 1e-6
    npt.assert_allclose(apply_transform(p, v_prime), v_prime, atol=1e-10)


# ---------------------------------------------------------------------------
# flow report

def test_flow_report_orthogonal_gain_and_serialization():
    net = stage_net("orthogonal_tp", k=3, seed=4)
    trace = prop.capture_trace(net, input_batch(16), stage=1, m=1, n=3)
    report = prop.flow_report(trace)
    assert abs(report.skip_gain - 1.0) <= 1e-9
    assert abs(report.gradient_gain - 1.0) <= 1e-9
    assert report.forward_deviation <= 1e-9
    assert report.backward_deviation <= 1e-8
    text = report.to_text()
    assert "skip-path gain" in text


def test_flow_report_idempotent_null_fractions():
    net = stage_net("idempotent_cmr", {"B": 2}, k=3, seed=6)
    trace = prop.capture_trace(net, input_batch(17), stage=1, m=1, n=3)
    report = prop.flow_report(trace)
    assert report.null_fraction_x_m is not None
    assert 0.0 <= report.null_fraction_x_m <= 1.0


def test_no_skip_control_traces_with_zero_matrix():
    net = stage_net("none", k=3, seed=8)
    trace = prop.capture_trace(net, input_batch(18), stage=1, m=1, n=3)
    npt.assert_array_equal(trace.transform, 0.0)
    check = prop.verify_forward_expansion(trace)
    assert check.deviation <= 1e-10
