import dataclasses
import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from linearskip import equivalence
from linearskip import propagation as prop
from linearskip import transforms as tr
from linearskip.autodiff import Graph, Tensor, vjp
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


def test_train_mode_capture_leaves_running_statistics_alone():
    # a train-mode forward rebinds every block batch norm's running
    # statistics; capture puts the old arrays back, so the checkpoint
    # keeps its bits and a second capture sees the same net
    net = stage_net("identity", k=2, seed=4)
    rng = np.random.default_rng(9)
    net.forward(rng.standard_normal((4, 3, 8, 8)), mode="train")
    before = {key: arr.copy() for key, arr in net.state_dict().items()}
    x = input_batch(13, n=4)
    traces = [prop.capture_trace(net, x, stage=2, m=1, n=3, mode="train")
              for _ in range(2)]
    after = net.state_dict()
    assert before.keys() == after.keys()
    for key in before:
        assert np.array_equal(before[key], after[key]), key
    for field in ("inputs", "branch_outputs", "gradients"):
        for a, b in zip(getattr(traces[0], field), getattr(traces[1], field)):
            assert np.array_equal(a, b), field


@pytest.mark.parametrize("kind", ["idempotent_mr", "orthogonal_random"])
def test_trace_tapes_from_x_m(kind):
    # blocks 1..m-1 run before the tape starts, so an m = 2 trace holds
    # the nodes of blocks m..n-1 only; cut to blocks 2..n, with dL/dx_2
    # from a walk over its tape, the m = 1 trace is what it was when they
    # were taped, and the m = 2 trace gives its gradients, expansions and
    # flow report bit for bit
    net = stage_net(kind, {"B": 2} if kind == "idempotent_mr" else None, k=4)
    x = input_batch(4)
    whole = prop.capture_trace(net, x, stage=1, m=1, n=4)
    trace = prop.capture_trace(net, x, stage=1, m=2, n=4)
    block_nodes = 0
    for i, blk in enumerate(net.stages[0][1:3], start=2):
        with Graph() as graph:
            blk.forward(Tensor(trace.x(i), requires_grad=True), "eval")
        block_nodes += len(graph)
    assert len(trace._graph) == block_nodes
    x_m = trace._input_tensors[0]
    assert all(node.output is not x_m for node in trace._graph.nodes)
    # the trace keeps no interior x_i tensor; x_2 keys block 1's sum, the
    # node that reads F(x_1)
    f_1, x_n = whole._branch_tensors[0], whole._input_tensors[-1]
    x_2 = next(node.output for node in whole._graph.nodes
               if any(t is f_1 for t in node.inputs))
    g_n = whole.grad(4)
    g_2 = vjp(whole._graph, {x_n: g_n}, wrt=[x_2])[x_2]
    cut = dataclasses.replace(
        whole, m=2, skips=whole.skips[1:], inputs=[whole.x(2), whole.x(4)],
        branch_outputs=whole.branch_outputs[1:], gradients=[g_2, g_n],
        _input_tensors=[x_2, x_n],
        _branch_tensors=whole._branch_tensors[1:])
    for name in ("inputs", "branch_outputs", "gradients"):
        for got, ref in zip(getattr(trace, name), getattr(cut, name)):
            assert np.array_equal(got, ref)
    assert (prop.verify_forward_expansion(trace)
            == prop.verify_forward_expansion(cut))
    assert (prop.verify_backward_expansion(trace)
            == prop.verify_backward_expansion(cut))
    assert prop.flow_report(trace) == prop.flow_report(cut)


def test_trace_keeps_only_its_end_gradients():
    # the probe is a seed at x_n, and the walk asks for x_m alone; an
    # interior gradient is the m end of a sub-trace (see above)
    trace = prop.capture_trace(stage_net("periodic", {"N": 3}, k=4),
                               input_batch(3), stage=2, m=1, n=4)
    assert len(trace.gradients) == 2
    assert trace.grad(1) is trace.gradients[0]
    assert np.array_equal(trace.grad(4), np.ones_like(trace.x(4)))
    for i in (2, 3):
        with pytest.raises(IndexError, match=rf"gradient index {i} is "
                                             r"neither end .* 1 or 4"):
            trace.grad(i)
    for i in (0, 5):
        with pytest.raises(IndexError, match=rf"gradient index {i}"):
            trace.grad(i)


def _activations_held_by_a_trace() -> float:
    """What an eval trace over the L = 6 blocks of stage 1 holds, counted
    in float64 activations of x_1's size."""
    spec = NetworkSpec(blocks_per_stage=6, stage_widths=(16,) * 3,
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 16, 16))
    net = build_network(spec, seed=3)
    x = np.random.default_rng(5).standard_normal((8, 3, 16, 16))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = prop.capture_trace(net, x, stage=1, m=1, n=7)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / trace.x(1).nbytes


def test_trace_holds_three_activations_a_block():
    # x_i and F(x_i) for each block, x_n, the two end gradients and at
    # most one array a block keeps on the tape: 3L + 3 for L blocks with
    # skips. A taped probe node and every interior gradient would make it
    # 4L + 2
    assert _activations_held_by_a_trace() <= 3 * 6 + 4


def test_eval_trace_keeps_a_mask_not_an_input_a_block():
    # the trace's tape is declared for x_m, so each block's ReLU
    # convolution keeps the forward's one-byte mask, an eighth of a
    # float64 activation, in place of its input: 2L + 3 + L/8, bounded by
    # 2L + 3 + L/4. Keeping the input would make it 3L + 3
    assert _activations_held_by_a_trace() <= 2 * 6 + 3 + 6 / 4


def test_trace_keeps_its_ends_and_branches():
    # x_m, x_n, each F(x_i) and dL/dx_m, and each block's one-byte ReLU
    # mask: L + 3 + L/8, bounded by L + 4 + L/4. Every interior x_i would
    # add L - 1, and an all-ones dL/dx_n one more
    assert _activations_held_by_a_trace() <= 6 + 4 + 6 / 4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["none", "identity", "idempotent_mr",
                                  "orthogonal_tp", "periodic"])
def test_replayed_interior_x_is_what_the_forward_made(kind, dtype):
    # an interior x_i is replayed from x_m and the branch outputs; it is
    # the array a plain hooked forward made, bit for bit
    spec = NetworkSpec(blocks_per_stage=4, stage_widths=(8,) * 3,
                       transform_kind=kind, input_shape=(3, 8, 8),
                       transform_params={"N": 3} if kind == "periodic"
                       else {})
    net = build_network(spec, seed=6, dtype=dtype)
    x = input_batch(8)
    made = []
    net.forward(x, stop=(2, 5), hook=lambda x_i, f_i: made.append(x_i.data))
    made = made[4:]   # stage 2's x_1..x_4
    for m in (1, 2):
        trace = prop.capture_trace(net, x, stage=2, m=m, n=5)
        for i in range(m + 1, 5):
            assert np.array_equal(trace.x(i), made[i - 1]), (m, i)
            assert trace.x(i).dtype == dtype


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kind", ["none", "identity", "idempotent_mr",
                                  "orthogonal_tp"])
def test_trace_matches_direct_forward(kind, m):
    net = stage_net(kind, k=3)
    x = input_batch(2)
    trace = prop.capture_trace(net, x, stage=2, m=m, n=3)
    h = net.forward(x, mode="eval", stop=(2, 1))
    for blk in net.stages[1][:2]:
        h = blk.forward(h, mode="eval")
    npt.assert_allclose(trace.x(3), h.data, atol=1e-10)


@pytest.mark.parametrize("kind", ["identity", "idempotent_mr",
                                  "orthogonal_tp"])
def test_trace_keeps_branch_outputs_the_sum_took_over(kind):
    # a block's sum takes over its branch tensor's array, so the trace
    # must hold F(x_i) itself, not x_{i+1}
    net = stage_net(kind, k=4)
    trace = prop.capture_trace(net, input_batch(3), stage=1, m=1, n=4)
    for i, blk in enumerate(net.stages[0][:3], start=1):
        fresh = blk.branch_output(Tensor(trace.x(i)), mode="eval").data
        npt.assert_array_equal(trace.branch(i), fresh)
        assert not np.shares_memory(trace.branch(i), trace.x(i + 1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind,convert", [
    ("orthogonal_tp", equivalence.convert_orthogonal_to_identity),
    ("idempotent_mr", equivalence.convert_idempotent_to_diagonal),
    ("periodic", equivalence.convert_idempotent_to_diagonal),
])
def test_trace_of_rewritten_net(kind, convert, dtype):
    # every block of a rewritten stage has a pre_mix, so the run releases
    # each block input inside the traced span: the trace still keeps each
    # x_i and F(x_i), its expansions hold, and its x_i is B_i x_i of the
    # original net, for the rewrite's basis B_i (Φ(L+1, i) of the
    # orthogonal skips, V^-1 of the canonical form P = V C V^-1 of the
    # idempotent and periodic ones). The worst B_i x_i deviation on 5
    # seeds was 52 eps.
    params = {"idempotent_mr": {"B": 2}, "periodic": {"N": 3}}.get(kind, {})
    spec = NetworkSpec(blocks_per_stage=4, stage_widths=(8,) * 3,
                       transform_kind=kind, input_shape=(3, 8, 8),
                       transform_params=params)
    net = build_network(spec, seed=3, dtype=dtype)
    rewritten = convert(net)
    x = input_batch(11)
    eps = np.finfo(dtype).eps
    for stage in (1, 2, 3):
        skips = [blk.skip for blk in net.stage_blocks(stage)]
        bases = (tr.skip_products(skips) if kind == "orthogonal_tp"
                 else [tr.canonical_form(skips[0], params.get("N", 1))[1]] * 5)
        blocks = rewritten.stage_blocks(stage)
        for m in (1, 2):
            ref = prop.capture_trace(net, x, stage, m, 4)
            trace = prop.capture_trace(rewritten, x, stage, m, 4)
            for i in range(m, 5):
                assert np.array_equal(
                    trace.x(i), rewritten.forward(x, stop=(stage, i)).data)
                z = apply_transform(bases[i - 1], ref.x(i))
                assert np.abs(trace.x(i) - z).max() <= \
                    2 ** 10 * eps * max(1.0, np.abs(z).max())
            for i in range(m, 4):
                fresh = blocks[i - 1].branch_output(Tensor(trace.x(i)), "eval")
                assert np.array_equal(trace.branch(i), fresh.data)
            forward = prop.verify_forward_expansion(trace)
            bound = 2 ** 8 * eps * np.abs(trace.x(4)).max()
            assert forward.deviation <= bound
            if forward.collapsed_deviation is not None:
                assert forward.collapsed_deviation <= bound
            assert prop.verify_backward_expansion(trace).deviation <= \
                2 ** 8 * eps * np.abs(trace.grad(m)).max()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind,convert", [
    ("orthogonal_tp", equivalence.convert_orthogonal_to_identity),
    ("idempotent_mr", equivalence.convert_idempotent_to_diagonal),
])
def test_whole_stage_trace_ends_at_the_stage_output(kind, convert, dtype):
    # n = K + 1 traces every block of a stage, up to the input of the
    # transition (or of the pooling) after it, in a net and its rewrite
    spec = NetworkSpec(blocks_per_stage=3, stage_widths=(8,) * 3,
                       transform_kind=kind, input_shape=(3, 8, 8),
                       transform_params={"B": 2} if kind == "idempotent_mr"
                       else {})
    net = build_network(spec, seed=5, dtype=dtype)
    x = input_batch(12)
    eps = np.finfo(dtype).eps
    for candidate in (net, convert(net)):
        for stage in (1, 2, 3):
            trace = prop.capture_trace(candidate, x, stage, 1, 4)
            assert len(trace.skips) == 3 and trace.grad(4).dtype == dtype
            assert np.array_equal(
                trace.x(4), candidate.forward(x, stop=(stage, 4)).data)
            forward = prop.verify_forward_expansion(trace)
            bound = 2 ** 8 * eps * np.abs(trace.x(4)).max()
            assert forward.deviation <= bound
            if forward.collapsed_deviation is not None:
                assert forward.collapsed_deviation <= bound
            assert prop.verify_backward_expansion(trace).deviation <= \
                2 ** 8 * eps * np.abs(trace.grad(1)).max()


def test_trace_index_validation():
    net = stage_net("identity", k=3)
    with pytest.raises(ValueError, match="1 <= m < n"):
        prop.capture_trace(net, input_batch(), stage=1, m=2, n=2)
    with pytest.raises(ValueError, match="1 <= m < n"):
        prop.capture_trace(net, input_batch(), stage=1, m=0, n=2)
    with pytest.raises(ValueError, match="1 <= m < n"):
        prop.capture_trace(net, input_batch(), stage=1, m=1, n=5)
    with pytest.raises(ValueError, match=r"1 <= m < n .* got m=1.0, n=3"):
        prop.capture_trace(net, input_batch(), 1, 1.0, 3)
    with pytest.raises(ValueError, match=r"1 <= m < n .* got m=1, n=3.0"):
        prop.capture_trace(net, input_batch(), stage=1, m=1, n=3.0)
    with pytest.raises(ValueError, match=r"1 <= m < n .* got m=True, n=3"):
        prop.capture_trace(net, input_batch(), stage=1, m=True, n=3)


def test_trace_accessors_and_spans_stay_inside_the_trace():
    trace = prop.capture_trace(stage_net("identity", k=3), input_batch(),
                               stage=1, m=2, n=3)
    with pytest.raises(IndexError, match=r"block index 1 outside trace "
                                         r"range \[2, 3\]"):
        trace.x(1)
    with pytest.raises(IndexError, match=r"branch index 3 outside trace "
                                         r"range \[2, 2\]"):
        trace.branch(3)


def _nudge_output(blk):
    """``blk``'s forward, with its output one ulp up at one entry."""
    forward = blk.forward

    def nudged(x, mode, hook=None):
        out = forward(x, mode, hook=hook)
        out.data.flat[5] = np.nextafter(out.data.flat[5], np.inf)
        return out
    return nudged


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_trace_replay_is_exact(dtype, monkeypatch):
    # the capture checks each block's output against the block's own
    # arithmetic on its own arrays, as soon as the next block (or the end
    # of the run) hands it over, so an output one ulp off fails it at
    # that block
    spec = NetworkSpec(blocks_per_stage=3, stage_widths=(8,) * 3,
                       transform_kind="orthogonal_tp", input_shape=(3, 8, 8))
    net = build_network(spec, seed=2, dtype=dtype)
    x = input_batch(22)
    for i, blk in enumerate(net.stage_blocks(2), start=1):
        with monkeypatch.context() as patch:
            patch.setattr(blk, "forward", _nudge_output(blk))
            with pytest.raises(AssertionError, match=re.escape(
                    f"trace violates the block equation at block {i}")):
                prop.capture_trace(net, x, stage=2, m=1, n=4)
    prop.capture_trace(net, x, stage=2, m=1, n=4)


def test_a_capture_that_raises_leaves_running_statistics_alone(monkeypatch):
    # the check runs inside the taped forward, so a train-mode capture
    # that fails there still puts the running statistics back
    net = stage_net("identity", k=3, seed=4)
    before = {key: arr.copy() for key, arr in net.state_dict().items()}
    monkeypatch.setattr(net.stages[0][0], "forward",
                        _nudge_output(net.stages[0][0]))
    with pytest.raises(AssertionError, match="at block 1: deviation"):
        prop.capture_trace(net, input_batch(5, n=4), stage=1, m=1, n=4,
                           mode="train")
    after = net.state_dict()
    for key in before:
        assert np.array_equal(before[key], after[key]), key


def test_probe_cotangent_is_read_only():
    # dL/dx_n is a view of one 1, not an activation of ones; vjp writes
    # no seed, so the view is never written
    trace = prop.capture_trace(stage_net("idempotent_mr", {"B": 2}, k=3),
                               input_batch(6), stage=1, m=1, n=4)
    g_n = trace.grad(4)
    assert not g_n.flags.writeable and not any(g_n.strides)
    assert np.array_equal(g_n, np.ones_like(trace.x(4)))
    with pytest.raises(ValueError, match="read-only"):
        g_n[0, 0, 0, 0] = 2.0
    assert trace.grad(1).flags.writeable


@pytest.mark.parametrize("bad, m", [(np.nan, 1), (np.inf, 2)])
def test_capture_rejects_a_non_finite_trace(bad, m):
    # one non-finite pixel makes every later activation non-finite; the
    # capture names the span's first block rather than report NaN gains
    # (numpy notes the inf - inf of the stem, which is not under test)
    x = input_batch()
    x[1, 0, 3, 4] = bad
    with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=f"trace is not finite at block {m}$"):
        prop.capture_trace(stage_net("idempotent_mr", {"B": 2}), x,
                           stage=1, m=m, n=4)


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
    q = tr.make_orthogonal_random(8, seed=3)
    for blk in net.stages[0]:
        blk.skip = q  # one P for the whole stage
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


def test_forward_expansion_reports_each_term_norm():
    # the skip term |P^(n-m) x_m| first, then |P^(n-i-1) x'_{i+1}|; the
    # flow report's skip gain and branch norms are these same numbers
    net = stage_net("periodic", {"N": 3}, k=5, seed=9)
    trace = prop.capture_trace(net, input_batch(7), stage=1, m=2, n=6)
    p = trace.transform
    terms = [(oracles.matrix_power_loop(p, 4), trace.x(2))] + [
        (oracles.matrix_power_loop(p, 5 - i), trace.branch(i))
        for i in range(2, 6)]
    check = prop.verify_forward_expansion(trace)
    npt.assert_allclose(check.term_norms,
                        [np.linalg.norm(apply_transform(mat, v))
                         for mat, v in terms], rtol=1e-12)
    report = prop.flow_report(trace)
    assert report.term_norms == check.term_norms[1:]
    assert report.skip_gain == \
        check.term_norms[0] / np.linalg.norm(trace.x(2))


def test_flow_report_gains_of_a_zero_input():
    # x = 0 gives x_m = 0 (no biases before the first block, eval BN with
    # fresh statistics), but the probe's gradient is not 0
    net = stage_net("orthogonal_tp", k=3, seed=4)
    report = prop.flow_report(prop.capture_trace(
        net, np.zeros((2, 3, 8, 8)), stage=1, m=1, n=3))
    assert report.skip_gain == 0.0
    assert abs(report.gradient_gain - 1.0) <= 1e-9


def test_forward_expansion_all_m_from_one_trace():
    # feature reuse: the expansion holds for every earlier block input; a
    # taped forward has the untaped one's bits, so each sub-trace m..n
    # holds the x_i of the whole trace 1..5
    net = stage_net("idempotent_mr", {"B": 2}, k=5, seed=7)
    x = input_batch(6)
    whole = prop.capture_trace(net, x, stage=1, m=1, n=5)
    for m in range(1, 5):
        for n in range(m + 1, 6):
            trace = prop.capture_trace(net, x, 1, m, n)
            for i in range(m, n + 1):
                assert np.array_equal(trace.x(i), whole.x(i)), (m, n, i)
            check = prop.verify_forward_expansion(trace)
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
    skips = [np.eye(8), tr.make_idempotent_mr(8, 2),
             tr.make_orthogonal_tp(8),
             tr.make_periodic(8, 3, seed=2), None]
    net = stage_net("identity", k=6, seed=12)
    for blk, p in zip(net.stages[0], skips):
        blk.skip = p
    x = input_batch(20)
    trace = prop.capture_trace(net, x, stage=1, m=1, n=6)
    assert trace.transform is None
    npt.assert_array_equal(trace.skips[4], np.zeros((8, 8)))
    tol = 2 ** 8 * np.finfo(np.float64).eps
    for m in range(1, 6):
        for n in range(m + 1, 7):
            sub = prop.capture_trace(net, x, 1, m, n)
            check = prop.verify_forward_expansion(sub)
            assert check.deviation <= tol * np.abs(sub.x(n)).max(), (m, n)
            assert prop.verify_backward_expansion(sub).deviation <= \
                tol * np.abs(sub.grad(m)).max(), (m, n)
            if n - m > 1:   # blocks with different skips: no collapse
                assert sub.transform is None
                assert check.collapsed_deviation is None
    report = prop.flow_report(trace)
    assert report.null_fraction_x_m is None
    assert report.null_fraction_x_n is None
    assert report.collapsed_deviation is None
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
    assert prop.verify_backward_expansion(trace).deviation <= 1e-8


def test_backward_expansion_identity_float32():
    spec = NetworkSpec(blocks_per_stage=4, stage_widths=(8,) * 3,
                       transform_kind="identity", input_shape=(3, 8, 8))
    net = build_network(spec, seed=2, dtype=np.float32)
    trace = prop.capture_trace(net, input_batch(8), stage=1, m=1, n=4)
    assert trace.grad(1).dtype == np.float32
    tol = 2 ** 8 * np.finfo(np.float32).eps * np.abs(trace.grad(1)).max()
    assert prop.verify_backward_expansion(trace).deviation <= tol


def test_backward_expansion_idempotent():
    net = stage_net("idempotent_mr", {"B": 2}, k=4, seed=5)
    trace = prop.capture_trace(net, input_batch(9), stage=1, m=1, n=4)
    assert prop.verify_backward_expansion(trace).deviation <= 1e-8


def test_backward_expansion_all_pairs():
    net = stage_net("orthogonal_tp", k=4, seed=9)
    x = input_batch(10)
    for m in range(1, 4):
        for n in range(m + 1, 5):
            trace = prop.capture_trace(net, x, 1, m, n)
            check = prop.verify_backward_expansion(trace)
            assert check.deviation <= 1e-8, (m, n)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_expansion_reports_its_two_term_norms(dtype):
    # the skip term |P^(n-m)^T dL/dx_n| first, then the summed branch term,
    # which is dL/dx_m less the skip term; the flow report's gradient gain
    # is the skip term's norm over |dL/dx_n|, bit for bit
    spec = NetworkSpec(blocks_per_stage=5, stage_widths=(8,) * 3,
                       transform_kind="periodic", transform_params={"N": 3},
                       input_shape=(3, 8, 8))
    net = build_network(spec, seed=9, dtype=dtype)
    trace = prop.capture_trace(net, input_batch(7), stage=1, m=2, n=6)
    eps = np.finfo(dtype).eps
    check = prop.verify_backward_expansion(trace)
    assert len(check.term_norms) == 2 and check.collapsed_deviation is None
    skip = apply_transform(oracles.matrix_power_loop(trace.transform, 4).T,
                           trace.grad(6))
    want = np.linalg.norm(skip)
    assert abs(check.term_norms[0] - want) <= 2 ** 4 * eps * want
    branch = np.linalg.norm(trace.grad(2) - skip)
    assert abs(check.term_norms[1] - branch) <= \
        2 ** 8 * eps * np.linalg.norm(trace.grad(2))
    report = prop.flow_report(trace)
    assert report.gradient_gain == \
        check.term_norms[0] / np.linalg.norm(trace.grad(6))
    assert report.backward_deviation == check.deviation


def test_vjp_wrt_walks_only_dependent_nodes():
    # block 1 of stage 2 cannot reach x_2's gradient: a walk restricted to
    # x_2 skips it and gives the same bits
    net = stage_net("idempotent_mr", {"B": 2}, k=3)
    block1, block2 = net.stages[1][:2]
    x_1 = Tensor(net.forward(input_batch(5), stop=(2, 1)).data,
                 requires_grad=True)
    branches = []
    with Graph() as graph:
        x_m = block1.forward(x_1, "eval")
        block2.forward(x_m, "eval", lambda x, f: branches.append(f))
    branch, = branches
    calls = []
    for node in graph.nodes:
        def counted(g, inner=node.vjp_fn):
            calls.append(1)
            return inner(g)
        node.vjp_fn = counted
    seed = np.random.default_rng(6).standard_normal(branch.shape)
    full = vjp(graph, {branch: seed}, wrt=oracles.tape_tensors(graph))
    full_calls = len(calls)
    calls.clear()
    restricted = vjp(graph, {branch: seed}, wrt=[x_m])
    assert list(restricted) == [x_m]
    assert np.array_equal(restricted[x_m], full[x_m])
    assert 0 < len(calls) < full_calls
    # a trace's own walk matches a walk for the whole of an undeclared
    # tape of the same span; its declared tape refuses a kernel walk
    trace = prop.capture_trace(net, input_batch(5), stage=2, m=2, n=3)
    x_n = trace._graph.nodes[-1].output   # the tape ends at x_n
    assert x_n is trace._input_tensors[-1]
    with pytest.raises(ValueError, match="declared graph"):
        vjp(trace._graph, {x_n: np.ones_like(x_n.data)}, wrt=[block2.conv1])
    x_2 = Tensor(net.forward(input_batch(5), stop=(2, 2)).data,
                 requires_grad=True)
    with Graph() as undeclared:
        x_3 = net.forward(x_2, start=(2, 2), stop=(2, 3))
    unrestricted = vjp(undeclared, {x_3: np.ones_like(x_3.data)},
                       wrt=oracles.tape_tensors(undeclared))
    for i, t in ((trace.m, x_2), (trace.n, x_3)):
        assert np.array_equal(trace.grad(i), unrestricted[t])


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
    trace = prop.capture_trace(net, input_batch(4), stage=1, m=5 - span, n=5)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return vjp(*args, **kwargs)
    monkeypatch.setattr(prop, "vjp", counted)
    assert prop.verify_backward_expansion(trace).deviation <= 1e-8
    assert len(calls) == 1


def test_vjp_rejects_seed_of_wrong_shape():
    net = stage_net("identity", k=2)
    trace = prop.capture_trace(net, input_batch(), stage=1, m=1, n=2)
    branch = trace._branch_tensors[0]
    with pytest.raises(ValueError, match="seed shape"):
        vjp(trace._graph, {branch: np.ones(branch.shape[1:])},
            wrt=trace._input_tensors[:1])


# ---------------------------------------------------------------------------
# gains

def test_gains_float32():
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
    v = p @ rng.standard_normal(6)
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


def test_null_split_keeps_the_input_dtype():
    # the float32 split is float32 arithmetic, and its fractions stay
    # within a few eps32 of the float64 split's (2.35 eps32 seen)
    trace = float32_trace("idempotent_mr", {"B": 2}, k=3, seed=6,
                          batch_seed=17)
    x = trace.x(3)
    split32 = prop.null_space_components(trace.transform, x)
    split64 = prop.null_space_components(trace.transform,
                                         x.astype(np.float64))
    assert split32.column_part.dtype == split32.null_part.dtype == np.float32
    assert split64.column_part.dtype == np.float64
    for a, b in zip(split32.fractions, split64.fractions):
        assert abs(a - b) <= 2 ** 4 * EPS32
    vec = prop.null_space_components(trace.transform, x[0, :, 0, 0])
    assert vec.null_part.dtype == np.float32


def test_null_split_float32_memory():
    # column and null parts of one (4, 16, 32, 32) float32 activation,
    # 256 KiB each; a float64 copy of the input and float64 parts would
    # peak near 1.5 MiB
    p = tr.make_idempotent_mr(16, 4)
    v = np.random.default_rng(3).standard_normal((4, 16, 32, 32)).astype(
        np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prop.null_space_components(p, v)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 768 * 1024


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
    assert report.collapsed_deviation is None
    text = report.to_text()
    assert "skip-path gain" in text
    assert "collapsed expansion" not in text


def test_flow_report_idempotent_null_fractions():
    net = stage_net("idempotent_cmr", {"B": 2}, k=3, seed=6)
    trace = prop.capture_trace(net, input_batch(17), stage=1, m=1, n=3)
    report = prop.flow_report(trace)
    assert report.null_fraction_x_m is not None
    assert 0.0 <= report.null_fraction_x_m <= 1.0


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flow_report_carries_the_idempotent_collapse(dtype):
    # one shared idempotent P: the report keeps the collapsed form the
    # forward check computes, every path of one or more blocks replaced by P
    spec = NetworkSpec(blocks_per_stage=5, stage_widths=(8,) * 3,
                       transform_kind="idempotent_mr",
                       transform_params={"B": 2}, input_shape=(3, 8, 8))
    net = build_network(spec, seed=2, dtype=dtype)
    trace = prop.capture_trace(net, input_batch(21), stage=1, m=1, n=5)
    report = prop.flow_report(trace)
    check = prop.verify_forward_expansion(trace)
    assert report.collapsed_deviation == check.collapsed_deviation
    assert report.collapsed_deviation <= \
        2 ** 8 * np.finfo(dtype).eps * np.abs(trace.x(5)).max()
    assert (f"collapsed expansion max dev {report.collapsed_deviation:.3e}"
            in report.to_text())


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("kind,params,branches", [
    ("orthogonal_tp", {}, 1), ("orthogonal_random", {}, 1),
    ("idempotent_mr", {}, 4), ("idempotent_cmr", {"B": 2}, 1),
    ("periodic", {"N": 3}, 1)])
def test_flow_report_float32_twin(kind, params, branches, seed):
    # a float32 report's gains and term norms are its float64 twin's within
    # an eps32-scaled bound, at every stage
    spec = NetworkSpec(blocks_per_stage=3, stage_widths=(8,) * 3,
                       branch_mode="multi" if branches > 1 else "single",
                       num_branches=branches, transform_kind=kind,
                       transform_params=params, input_shape=(3, 8, 8))
    reports = {}
    for dtype in (np.float32, np.float64):
        net = build_network(spec, seed=seed, dtype=dtype)
        reports[dtype] = [prop.flow_report(prop.capture_trace(
            net, input_batch(seed), stage, m=1, n=4)) for stage in (1, 2, 3)]
    for r32, r64 in zip(reports[np.float32], reports[np.float64]):
        got = [r32.skip_gain, r32.gradient_gain, *r32.term_norms]
        want = [r64.skip_gain, r64.gradient_gain, *r64.term_norms]
        assert len(got) == len(want) == 5
        for a, b in zip(got, want):
            assert abs(a - b) <= 2 ** 4 * EPS32 * max(1.0, abs(b)), \
                (r64.stage, got, want)


def _flow_report_peak(k):
    """tracemalloc peak of ``flow_report`` above its live trace, over all of
    stage 1 of a K-block net, and the size of one stage activation."""
    net = stage_net("idempotent_mr", {"B": 2}, k=k, seed=3)
    trace = prop.capture_trace(net, input_batch(5, n=16), stage=1, m=1, n=k)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        prop.flow_report(trace)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak, trace.x(1).nbytes


def test_flow_report_memory_does_not_grow_with_depth():
    # the backward-expansion walk builds each branch's seed when it reaches
    # the branch, so it holds one seed at a time, not one per block: built
    # up front, the 6 more seeds of K = 9 would add 6 activations
    peak3, _ = _flow_report_peak(3)
    peak9, activation = _flow_report_peak(9)
    assert peak9 - peak3 < activation


def test_no_skip_control_traces_with_zero_matrix():
    net = stage_net("none", k=3, seed=8)
    trace = prop.capture_trace(net, input_batch(18), stage=1, m=1, n=3)
    npt.assert_array_equal(trace.transform, 0.0)
    check = prop.verify_forward_expansion(trace)
    assert check.deviation <= 1e-10
