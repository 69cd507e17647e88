import re

import numpy as np
import numpy.testing as npt
import pytest

from linearskip.autodiff import Graph, Tensor, channel_mix
from linearskip import equivalence as eq
from linearskip import propagation as prop
from linearskip import transforms as tr
from linearskip.network import NetworkSpec, build_network

import oracles

EPS64 = float(np.finfo(np.float64).eps)


# ---------------------------------------------------------------------------
# constructors

def test_mr_block_structure():
    t = tr.make_idempotent_mr(4, 2)
    expected = 0.5 * np.tile(np.eye(2), (2, 2))
    npt.assert_allclose(t, expected, atol=0)
    for i in range(4):
        for j in range(4):
            assert t[i, j] == (0.5 if i % 2 == j % 2 else 0.0)


def test_mr_rank_is_r_over_b():
    assert tr.rank(tr.make_idempotent_mr(4, 2)) == 2
    assert tr.rank(tr.make_idempotent_mr(8, 4)) == 2
    assert tr.rank(tr.make_idempotent_mr(8, 8)) == 1


def test_mr_single_branch_is_identity():
    npt.assert_array_equal(tr.make_idempotent_mr(2, 1), np.eye(2))


def test_cmr_definition_and_rank():
    t = tr.make_idempotent_cmr(4, 2)
    npt.assert_allclose(t,
                        np.eye(4) - tr.make_idempotent_mr(4, 2), atol=0)
    assert tr.rank(t) == 2
    assert tr.rank(tr.make_idempotent_cmr(8, 4)) == 6


def test_cmr_mr_are_complementary_projectors():
    mr = tr.make_idempotent_mr(4, 2)
    cmr = tr.make_idempotent_cmr(4, 2)
    npt.assert_allclose(cmr @ mr, np.zeros((4, 4)), atol=1e-15)


def test_mr_requires_divisibility():
    with pytest.raises(ValueError, match="divide"):
        tr.make_idempotent_mr(6, 4)
    with pytest.raises(ValueError, match="divide"):
        tr.make_idempotent_cmr(10, 3)


@pytest.mark.parametrize("make,args,name", [
    (tr.make_idempotent_mr, (8, 2.0), "branch count"),
    (tr.make_idempotent_cmr, (8, 2.0), "branch count"),
    (tr.make_idempotent_mr, (8, 0), "branch count"),
    (tr.make_periodic, (4, 1.5, 0), "period"),
    (tr.make_periodic, (4, 0, 0), "period"),
])
def test_constructors_require_positive_integer_counts(make, args, name):
    count = args[1]
    with pytest.raises(ValueError, match=re.escape(
            f"{name} must be a positive integer, got {count!r}")):
        make(*args)


@pytest.mark.parametrize("n", [1.5, 1.0, 0, True])
def test_periodic_tag_requires_positive_integer_n(n):
    p = tr.make_periodic(4, 1, seed=0)  # meets P^2 = P
    with pytest.raises(ValueError, match=re.escape(
            f"periodic N must be a positive integer, got {n!r}")):
        tr.check_kind(p, "periodic", n)


def test_periodic_tag_has_no_default_period():
    p = tr.make_periodic(4, 2, seed=1)  # meets P^3 = P, not P^2 = P
    with pytest.raises(ValueError, match=re.escape(
            "periodic N must be a positive integer, got None")):
        tr.check_kind(p, "periodic")
    npt.assert_array_equal(tr.check_kind(p, "periodic", 2), p)


@pytest.mark.parametrize("p,n", [(np.diag([2.0, 3.0]), 0), (np.eye(2), -1),
                                 (np.eye(2), 1.0)])
def test_is_periodic_requires_positive_integer_n(p, n):
    # P^1 = P holds for every P and P^0 = P tests P = I, so these periods
    # would give vacuous verdicts
    with pytest.raises(ValueError, match=re.escape(
            f"periodic N must be a positive integer, got {n!r}")):
        tr.is_periodic(p, n)


@pytest.mark.parametrize("make,args", [
    (tr.make_identity, (0,)),
    (tr.make_identity, (1.5,)),
    (tr.make_idempotent_mr, (0, 1)),
    (tr.make_idempotent_cmr, (4.0, 2)),
    (tr.make_periodic, (4.0, 2, 0)),
])
def test_constructors_require_positive_integer_channel_count(make, args):
    with pytest.raises(ValueError, match=re.escape(
            f"channel count must be a positive integer, got {args[0]!r}")):
        make(*args)


def test_orthogonal_tp_base_case():
    t = tr.make_orthogonal_tp(2)
    npt.assert_allclose(t,
                        np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0),
                        rtol=1e-15)


def test_orthogonal_tp_kron_expansion():
    t = tr.make_orthogonal_tp(4)
    m = tr.make_orthogonal_tp(2)
    npt.assert_allclose(t, np.kron(m, m), atol=0)
    assert t[0, 0] == pytest.approx(0.5)
    assert t[0, 3] == pytest.approx(0.5)
    npt.assert_allclose(t.T @ t, np.eye(4), atol=1e-15)


def test_orthogonal_requires_power_of_two():
    for bad in (3, 6, 12, 4.0):
        with pytest.raises(ValueError, match="power of 2"):
            tr.make_orthogonal_tp(bad)
        with pytest.raises(ValueError, match="power of 2"):
            tr.make_orthogonal_random(bad, seed=0)


@pytest.mark.parametrize("np_int", [np.int64, np.int32])
def test_orthogonal_accepts_numpy_int_widths(np_int):
    npt.assert_array_equal(tr.make_orthogonal_tp(np_int(8)),
                           tr.make_orthogonal_tp(8))
    npt.assert_array_equal(tr.make_orthogonal_random(np_int(8), 0),
                           tr.make_orthogonal_random(8, 0))
    for kind in ("orthogonal_tp", "orthogonal_random"):
        nets = [build_network(NetworkSpec(
            blocks_per_stage=2, stage_widths=tuple(map(cast, (4, 8, 8))),
            transform_kind=kind, input_shape=(3, 8, 8)), seed=3)
            for cast in (np_int, int)]
        x = np.random.default_rng(4).standard_normal((2, 3, 8, 8))
        for stage_a, stage_b in zip(nets[0].stages, nets[1].stages):
            for a, b in zip(stage_a, stage_b):
                npt.assert_array_equal(a.skip, b.skip)
        npt.assert_array_equal(nets[0].forward(x, mode="eval").data,
                               nets[1].forward(x, mode="eval").data)


def test_orthogonal_random_is_orthogonal_and_deterministic():
    for seed in (0, 1, 17):
        a = tr.make_orthogonal_random(8, seed)
        assert np.abs(a.T @ a - np.eye(8)).max() <= 1e-10
        b = tr.make_orthogonal_random(8, seed)
        npt.assert_array_equal(a, b)


def test_orthogonal_random_distinct_seeds_differ():
    a = tr.make_orthogonal_random(4, seed=0)
    b = tr.make_orthogonal_random(4, seed=1)
    assert np.abs(a - b).max() > 1e-6


def test_periodic_n1_is_idempotent():
    t = tr.make_periodic(4, 1, seed=3)
    assert tr.is_idempotent(t)


def test_periodic_sign_matrix():
    p = np.diag([-1.0, 1.0])
    t = tr.check_kind(p, "periodic", 2)
    npt.assert_allclose(oracles.matrix_power_loop(t, 3), t,
                        atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_periodic_power_identity(seed):
    t = tr.make_periodic(4, 3, seed=seed)
    p4 = oracles.matrix_power_loop(t, 4)
    assert np.abs(p4 - t).max() <= 1e-8


# ---------------------------------------------------------------------------
# predicates and helpers

def test_identity_is_idempotent_and_orthogonal():
    eye = np.eye(5)
    assert tr.is_idempotent(eye)
    assert tr.is_orthogonal(eye)


def test_idempotent_power_is_fixed_point():
    p = tr.make_idempotent_mr(6, 3)
    npt.assert_allclose(tr.matrix_power(p, 5), p, atol=1e-10)


def test_matrix_power_zero_is_identity():
    p = tr.make_orthogonal_tp(4)
    npt.assert_array_equal(tr.matrix_power(p, 0), np.eye(4))
    with pytest.raises(ValueError, match="non-negative"):
        tr.matrix_power(p, -1)


@pytest.mark.parametrize("k", [2.0, True, np.float64(1)])
def test_matrix_power_requires_integer_exponent(k):
    with pytest.raises(ValueError, match=re.escape(
            f"exponent must be a non-negative integer, got {k!r}")):
        tr.matrix_power(np.eye(2), k)


def test_skip_products_match_loop_oracle():
    # Phi(n, m + j) = P_{n-1}...P_{m+j} for five different skips
    rng = np.random.default_rng(5)
    skips = [rng.standard_normal((6, 6)) for _ in range(5)]
    phi = tr.skip_products(skips)
    assert len(phi) == 6
    for j, path in enumerate(phi):
        npt.assert_allclose(
            path, oracles.skip_product_loop(skips[j:][::-1], 6),
            rtol=1e-13, atol=1e-13)
    npt.assert_array_equal(phi[-1], np.eye(6))


def test_skip_products_of_a_shared_skip_are_its_powers():
    # one P: the running product is matrix_power's, bit for bit
    p = tr.make_orthogonal_random(8, seed=2)
    phi = tr.skip_products([p] * 4)
    for j, path in enumerate(phi):
        npt.assert_array_equal(path, tr.matrix_power(p, 4 - j))


def test_skip_products_rejects_an_empty_span():
    with pytest.raises(ValueError, match="empty span"):
        tr.skip_products([])


def test_symmetry_predicate():
    assert tr.is_symmetric(tr.make_idempotent_mr(6, 3))
    assert not tr.is_symmetric(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not tr.is_symmetric(np.array([[1.0, 2e-10], [0.0, 1.0]]))


def test_predicates_require_square():
    with pytest.raises(ValueError, match="square"):
        tr.is_idempotent(np.zeros((2, 3)))


@pytest.mark.parametrize("fn", [tr.is_idempotent, tr.rank,
                                lambda m: tr.check_kind(m, "identity")],
                         ids=["is_idempotent", "rank", "check_kind"])
def test_matrices_must_be_real(fn):
    with pytest.raises(ValueError, match="must be real, got complex128"):
        fn(np.eye(2) + 0j)


def test_check_kind_rejects_wrong_kind():
    with pytest.raises(ValueError, match="violates"):
        tr.check_kind(np.array([[2.0, 0.0], [0.0, 1.0]]), "idempotent_mr")
    with pytest.raises(ValueError, match="violates"):
        tr.check_kind(np.array([[2.0, 0.0], [0.0, 1.0]]), "orthogonal_tp")


def test_constructed_matrix_is_immutable():
    t = tr.make_orthogonal_tp(4)
    assert t.dtype == np.float64
    with pytest.raises(ValueError):
        t[0, 0] = 3.0


# ---------------------------------------------------------------------------
# canonical form: P = V C V^-1 for P^(N+1) = P (an idempotent is N = 1)

def test_diagonalize_identity():
    _, _, c = tr.canonical_form(np.eye(3), 1)
    npt.assert_allclose(c, np.eye(3), atol=0)


def test_diagonalize_mr_unit_count():
    p = tr.make_idempotent_mr(4, 2)
    v, v_inv, c = tr.canonical_form(p, 1)
    assert int(np.trace(c)) == 2
    # independent eigenvalue oracle
    eigvals = np.linalg.eigvals(p)
    assert int(np.isclose(eigvals, 1.0, atol=1e-10).sum()) == 2
    npt.assert_allclose(v @ v_inv, np.eye(4), atol=1e-8)
    npt.assert_allclose(v @ c @ v_inv, p, atol=1e-8)


def test_diagonalize_cmr_spans_complement_of_mr():
    mr = tr.make_idempotent_mr(4, 2)
    cmr = tr.make_idempotent_cmr(4, 2)
    v, _, c = tr.canonical_form(cmr, 1)
    assert int(np.trace(c)) == 2
    unit_vectors = v[:, np.diag(c) > 0.5]
    npt.assert_allclose(mr @ unit_vectors, np.zeros((4, 2)), atol=1e-10)


def test_diagonalize_nonsymmetric_idempotent():
    # oblique projector: idempotent but not symmetric
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert tr.is_idempotent(p)
    v, v_inv, c = tr.canonical_form(p, 1)
    npt.assert_allclose(v @ v_inv, np.eye(2), atol=1e-8)
    npt.assert_allclose(v @ c @ v_inv, p, atol=1e-8)
    assert int(np.trace(c)) == 1


def test_diagonalize_rejects_non_idempotent():
    with pytest.raises(ValueError, match="not idempotent"):
        tr.canonical_form(np.array([[0.5, 0.0], [0.0, 1.0]]), 1)


def _expected_canonical(p, n):
    """C's layout from P's eigenvalues: +1s, -1s, a rotation per conjugate
    pair by ascending angle (at the n-th root it rounds to), then 0s."""
    w = np.linalg.eigvals(p)

    def blocks_at(z, block):
        return [block] * int((np.abs(w - z) < 1e-8).sum())

    blocks = blocks_at(1.0, [[1.0]]) + blocks_at(-1.0, [[-1.0]])
    angles = np.angle(w[np.abs(w) > 0.5])
    for a in sorted(a for a in angles if 1e-8 < a < np.pi - 1e-8):
        t = 2 * np.pi * round(a * n / (2 * np.pi)) / n
        blocks.append([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    blocks += blocks_at(0.0, [[0.0]])
    out = np.zeros((len(w), len(w)))
    i = 0
    for b in blocks:
        out[i:i + len(b), i:i + len(b)] = b
        i += len(b)
    assert i == len(w)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 1000])
@pytest.mark.parametrize("seed", range(3))
def test_canonical_form_block_pattern(n, seed):
    p = tr.make_periodic(16, n, seed)
    v, v_inv, c = tr.canonical_form(p, n)
    npt.assert_allclose(c, _expected_canonical(p, n), rtol=0, atol=1e-15)
    assert tr.is_periodic(c, n)
    assert np.abs(v @ c @ v_inv - p).max() <= 2 ** 8 * EPS64


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_canonical_basis_of_make_periodic_is_orthogonal(n):
    # make_periodic conjugates by an orthogonal basis, so P is normal; the
    # worst miss seen was 31 eps (widths 8-64, seeds 0-4)
    for width in (8, 16, 32, 64):
        for seed in range(5):
            v, v_inv, _ = tr.canonical_form(tr.make_periodic(width, n, seed), n)
            eye = np.eye(width)
            assert np.abs(v.T @ v - eye).max() <= 2 ** 8 * EPS64
            assert np.abs(v_inv - v.T).max() <= 2 ** 8 * EPS64


def test_canonical_form_rejects_a_wrong_period():
    p = tr.make_periodic(8, 3, 1)
    assert not tr.is_periodic(p, 2)
    with pytest.raises(ValueError, match="not periodic with P\\^3 = P"):
        tr.canonical_form(p, 2)


# ---------------------------------------------------------------------------
# apply_transform

def test_apply_identity_transform():
    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((2, 4, 3, 3)))
    out = tr.apply_transform(tr.make_identity(4), x)
    npt.assert_array_equal(out.data, x.data)


def test_apply_orthogonal_preserves_position_norms():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 8, 4, 4))
    q = tr.make_orthogonal_random(8, seed=5)
    out = tr.apply_transform(q, Tensor(x))
    norms_in = np.linalg.norm(x, axis=1)
    norms_out = np.linalg.norm(out.data, axis=1)
    npt.assert_allclose(norms_out, norms_in, atol=1e-10)


def test_apply_mr_averages_channels():
    x = np.zeros((1, 2, 1, 1))
    x[0, 0, 0, 0], x[0, 1, 0, 0] = 3.0, 5.0
    out = tr.apply_transform(tr.make_idempotent_mr(2, 2), Tensor(x))
    npt.assert_allclose(out.data[0, :, 0, 0], [4.0, 4.0], rtol=1e-15)


def test_apply_transform_channel_mismatch():
    with pytest.raises(ValueError, match="channels"):
        tr.apply_transform(tr.make_identity(4), Tensor(np.zeros((1, 3, 2, 2))))


@pytest.mark.parametrize("dtype,mixed_dtype,atol", [
    (np.int64, np.float64, 1e-12),
    (np.float32, np.float32, 1e-5),
    (np.float64, np.float64, 1e-12),
], ids=["int64", "float32", "float64"])
def test_apply_transform_plain_array(dtype, mixed_dtype, atol):
    # non-float arrays are promoted to float64, as by every op, not
    # mixed by a P truncated to their dtype
    rng = np.random.default_rng(2)
    x = (4 * rng.standard_normal((2, 4, 3, 3))).astype(dtype)
    p = tr.make_idempotent_cmr(4, 2)
    out = tr.apply_transform(p, x)
    assert out.dtype == mixed_dtype
    npt.assert_allclose(out, oracles.mix_channels(p, x.astype(mixed_dtype)),
                        atol=atol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_apply_transform_array_is_channel_mix(dtype):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 8, 4, 4)).astype(dtype)
    p = tr.make_orthogonal_random(8, seed=1)
    npt.assert_array_equal(tr.apply_transform(p, x),
                           channel_mix(Tensor(x), p).data)


def test_apply_transform_records_only_tensors():
    # an analysis mix of a plain array inside a Graph leaves no node; a
    # non-float array is still mixed in float64
    x = np.arange(2 * 8 * 2 * 2).reshape(2, 8, 2, 2)
    p = tr.make_orthogonal_random(8, seed=1)
    with Graph() as graph:
        out = tr.apply_transform(p, x)
    assert len(graph) == 0
    assert out.dtype == np.float64
    npt.assert_array_equal(out, channel_mix(Tensor(x), p).data)
    with Graph() as graph:
        tr.apply_transform(p, Tensor(x))
    assert [node.op for node in graph.nodes] == ["channel_mix"]


# ---------------------------------------------------------------------------
# spec invariants

def test_product_closure_of_orthogonals():
    rng = np.random.default_rng(3)
    qs = [tr.make_orthogonal_random(8, seed=int(s))
          for s in rng.integers(0, 1000, size=8)]
    prod = np.eye(8)
    for q in qs:
        prod = prod @ q
        assert tr.is_orthogonal(prod)


@pytest.mark.parametrize("make,args", [
    (tr.make_idempotent_mr, (8, 2)),
    (tr.make_idempotent_mr, (8, 8)),
    (tr.make_idempotent_cmr, (8, 4)),
    (tr.make_idempotent_cmr, (16, 2)),
])
def test_idempotent_powers_stay_fixed(make, args):
    p = make(*args)
    pk = p.copy()
    for _ in range(1, 8):
        pk = pk @ p
        assert np.abs(pk - p).max() <= 1e-9


def test_column_space_fixing():
    rng = np.random.default_rng(4)
    for b in (1, 2, 4):
        p = tr.make_idempotent_mr(8, b)
        x = rng.standard_normal((8, 5))
        npt.assert_allclose(p @ (p @ x), p @ x, atol=1e-10)


def test_norm_preservation_bound():
    rng = np.random.default_rng(5)
    for seed in range(5):
        q = tr.make_orthogonal_random(16, seed=seed)
        x = rng.standard_normal(16)
        assert abs(np.linalg.norm(q @ x) - np.linalg.norm(x)) \
            <= 1e-10 * np.linalg.norm(x)


def test_periodic_unit_eigenvalue_norm_maintenance():
    t = tr.make_periodic(6, 4, seed=9)
    vals, vecs = np.linalg.eig(t)
    unit = np.abs(np.abs(vals) - 1.0) < 1e-8
    assert unit.any()
    for idx in np.nonzero(unit)[0]:
        v = vecs[:, idx]
        pv = v.copy()
        for k in range(1, 6):
            pv = t @ pv
            assert abs(np.linalg.norm(pv) - np.linalg.norm(v)) <= 1e-8


# ---------------------------------------------------------------------------
# one tolerance for every invariant check

TOL = tr._INVARIANT_TOL


def _invariant_miss(kind, n, m):
    """Largest entry of the residual of a kind's defining law."""
    eye = np.eye(m.shape[0])
    if kind == "identity":
        return np.abs(m - eye).max()
    if kind.startswith("idempotent"):
        return np.abs(m @ m - m).max()
    if kind.startswith("orthogonal"):
        return np.abs(m.T @ m - eye).max()
    return np.abs(oracles.matrix_power_loop(m, n + 1) - m).max()


def _every_constructor(widths, seeds, periods):
    """(kind, period, matrix) for every constructor call over the grid."""
    for r in widths:
        yield "identity", None, tr.make_identity(r)
        for b in (d for d in range(1, r + 1) if r % d == 0):
            yield "idempotent_mr", None, tr.make_idempotent_mr(r, b)
            yield "idempotent_cmr", None, tr.make_idempotent_cmr(r, b)
        if r & (r - 1) == 0:
            yield "orthogonal_tp", None, tr.make_orthogonal_tp(r)
            yield from (("orthogonal_random", None,
                         tr.make_orthogonal_random(r, s)) for s in seeds)
        yield from (("periodic", n, tr.make_periodic(r, n, s))
                    for n in periods for s in seeds)


def test_constructors_meet_invariants_with_margin():
    worst = max((_invariant_miss(kind, n, m), kind, m.shape[0], n)
                for kind, n, m in _every_constructor(range(2, 65), range(3),
                                                     (1, 2, 3, 4, 8)))
    assert worst[0] <= TOL / 1000, worst


# Each probe misses its invariant by more than the one tolerance but by
# less than 1e-8, so any looser bound left in one module would accept a
# matrix that the others reject.

def test_nudged_idempotent_is_rejected_everywhere():
    p = (1.0 + 5e-10) * tr.make_idempotent_mr(8, 2)
    assert TOL < np.abs(p @ p - p).max() < 1e-8
    with pytest.raises(ValueError, match="violates"):
        tr.check_kind(p, "idempotent_mr")
    assert not tr.is_idempotent(p)
    with pytest.raises(ValueError, match="not idempotent"):
        tr.canonical_form(p, 1)
    with pytest.raises(ValueError, match="idempotent"):
        prop.null_space_components(p, np.ones(8))


def _nudge_skips(net, scale):
    for stage in net.stages:
        skip = (1.0 + scale) * stage[0].skip
        for blk in stage:
            blk.skip = skip


def test_nudged_orthogonal_is_rejected_everywhere():
    q = (1.0 + 1.5e-10) * tr.make_orthogonal_tp(8)
    assert TOL < np.abs(q.T @ q - np.eye(8)).max() < 1e-9
    with pytest.raises(ValueError, match="violates"):
        tr.check_kind(q, "orthogonal_tp")
    assert not tr.is_orthogonal(q)
    net = build_network(NetworkSpec(2, (4, 8, 8), transform_kind="orthogonal_tp",
                                    input_shape=(3, 8, 8)), seed=3)
    _nudge_skips(net, 1.5e-10)
    with pytest.raises(ValueError, match="not orthogonal"):
        eq.convert_orthogonal_to_identity(net)


def test_nudged_periodic_is_rejected_everywhere():
    spec = NetworkSpec(2, (4, 8, 8), transform_kind="periodic",
                       transform_params={"N": 1}, input_shape=(3, 8, 8))
    net = build_network(spec, seed=3)
    _nudge_skips(net, 5e-9)
    for stage in net.stages:
        p = stage[0].skip
        assert TOL < np.abs(p @ p - p).max() < 1e-8
    with pytest.raises(ValueError, match="violates P\\^2 = P"):
        build_network(spec, seed=4).load_state(net.state_dict())
    with pytest.raises(ValueError, match="not idempotent"):
        eq.convert_idempotent_to_diagonal(net)
