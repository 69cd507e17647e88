import re

import numpy as np
import numpy.testing as npt
import pytest

from linearskip.autodiff import Tensor, channel_mix
from linearskip import equivalence as eq
from linearskip import propagation as prop
from linearskip import transforms as tr
from linearskip.network import NetworkSpec, build_network

import oracles


# ---------------------------------------------------------------------------
# constructors

def test_mr_block_structure():
    t = tr.make_idempotent_mr(4, 2)
    expected = 0.5 * np.tile(np.eye(2), (2, 2))
    npt.assert_allclose(t.matrix, expected, atol=0)
    for i in range(4):
        for j in range(4):
            assert t.matrix[i, j] == (0.5 if i % 2 == j % 2 else 0.0)


def test_mr_rank_is_r_over_b():
    assert tr.make_idempotent_mr(4, 2).rank() == 2
    assert tr.make_idempotent_mr(8, 4).rank() == 2
    assert tr.make_idempotent_mr(8, 8).rank() == 1


def test_mr_single_branch_is_identity():
    npt.assert_array_equal(tr.make_idempotent_mr(2, 1).matrix, np.eye(2))


def test_cmr_definition_and_rank():
    t = tr.make_idempotent_cmr(4, 2)
    npt.assert_allclose(t.matrix,
                        np.eye(4) - tr.make_idempotent_mr(4, 2).matrix, atol=0)
    assert t.rank() == 2
    assert tr.rank(tr.make_idempotent_cmr(8, 4)) == 6


def test_cmr_mr_are_complementary_projectors():
    mr = tr.make_idempotent_mr(4, 2).matrix
    cmr = tr.make_idempotent_cmr(4, 2).matrix
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
    p = tr.make_periodic(4, 1, seed=0).matrix  # meets P^2 = P
    with pytest.raises(ValueError, match=re.escape(
            f"periodic N must be a positive integer, got {n!r}")):
        tr.StructuredTransform(p, "periodic", {"N": n})


def test_periodic_tag_has_no_default_period():
    p = tr.make_periodic(4, 2, seed=1).matrix  # meets P^3 = P, not P^2 = P
    with pytest.raises(ValueError, match=re.escape(
            "periodic N must be a positive integer, got None")):
        tr.StructuredTransform(p, "periodic")
    assert tr.StructuredTransform(p, "periodic", {"N": 2}).params == {"N": 2}


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
    npt.assert_allclose(t.matrix,
                        np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0),
                        rtol=1e-15)


def test_orthogonal_tp_kron_expansion():
    t = tr.make_orthogonal_tp(4)
    m = tr.make_orthogonal_tp(2).matrix
    npt.assert_allclose(t.matrix, np.kron(m, m), atol=0)
    assert t.matrix[0, 0] == pytest.approx(0.5)
    assert t.matrix[0, 3] == pytest.approx(0.5)
    npt.assert_allclose(t.matrix.T @ t.matrix, np.eye(4), atol=1e-15)


def test_orthogonal_requires_power_of_two():
    for bad in (3, 6, 12, 4.0):
        with pytest.raises(ValueError, match="power of 2"):
            tr.make_orthogonal_tp(bad)
        with pytest.raises(ValueError, match="power of 2"):
            tr.make_orthogonal_random(bad, seed=0)


def test_orthogonal_random_is_orthogonal_and_deterministic():
    for seed in (0, 1, 17):
        a = tr.make_orthogonal_random(8, seed)
        assert np.abs(a.matrix.T @ a.matrix - np.eye(8)).max() <= 1e-10
        b = tr.make_orthogonal_random(8, seed)
        npt.assert_array_equal(a.matrix, b.matrix)


def test_orthogonal_random_distinct_seeds_differ():
    a = tr.make_orthogonal_random(4, seed=0).matrix
    b = tr.make_orthogonal_random(4, seed=1).matrix
    assert np.abs(a - b).max() > 1e-6


def test_periodic_n1_is_idempotent():
    t = tr.make_periodic(4, 1, seed=3)
    assert tr.is_idempotent(t.matrix)


def test_periodic_sign_matrix():
    p = np.diag([-1.0, 1.0])
    t = tr.StructuredTransform(p, "periodic", {"N": 2})
    npt.assert_allclose(oracles.matrix_power_loop(t.matrix, 3), t.matrix,
                        atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_periodic_power_identity(seed):
    t = tr.make_periodic(4, 3, seed=seed)
    p4 = oracles.matrix_power_loop(t.matrix, 4)
    assert np.abs(p4 - t.matrix).max() <= 1e-8


# ---------------------------------------------------------------------------
# predicates and helpers

def test_identity_is_idempotent_and_orthogonal():
    eye = np.eye(5)
    assert tr.is_idempotent(eye)
    assert tr.is_orthogonal(eye)


def test_idempotent_power_is_fixed_point():
    p = tr.make_idempotent_mr(6, 3).matrix
    npt.assert_allclose(tr.matrix_power(p, 5), p, atol=1e-10)


def test_matrix_power_zero_is_identity():
    p = tr.make_orthogonal_tp(4).matrix
    npt.assert_array_equal(tr.matrix_power(p, 0), np.eye(4))
    with pytest.raises(ValueError, match="non-negative"):
        tr.matrix_power(p, -1)


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


def test_symmetry_predicate():
    assert tr.is_symmetric(tr.make_idempotent_mr(6, 3))
    assert not tr.is_symmetric(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not tr.is_symmetric(np.array([[1.0, 2e-10], [0.0, 1.0]]))


def test_predicates_require_square():
    with pytest.raises(ValueError, match="square"):
        tr.is_idempotent(np.zeros((2, 3)))


def test_structured_transform_rejects_wrong_kind():
    with pytest.raises(ValueError, match="violates"):
        tr.StructuredTransform(np.array([[2.0, 0.0], [0.0, 1.0]]),
                               "idempotent_mr")
    with pytest.raises(ValueError, match="violates"):
        tr.StructuredTransform(np.array([[2.0, 0.0], [0.0, 1.0]]),
                               "orthogonal_tp")


def test_structured_transform_matrix_is_immutable():
    t = tr.make_orthogonal_tp(4)
    with pytest.raises(ValueError):
        t.matrix[0, 0] = 3.0


# ---------------------------------------------------------------------------
# diagonalization

def test_diagonalize_identity():
    d = tr.diagonalize_idempotent(np.eye(3))
    npt.assert_allclose(d.lam, np.ones(3), atol=0)


def test_diagonalize_mr_unit_count():
    p = tr.make_idempotent_mr(4, 2).matrix
    d = tr.diagonalize_idempotent(p)
    assert int(d.lam.sum()) == 2
    # independent eigenvalue oracle
    eigvals = np.linalg.eigvals(p)
    assert int(np.isclose(eigvals, 1.0, atol=1e-10).sum()) == 2
    npt.assert_allclose(d.U_inv @ d.U, np.eye(4), atol=1e-8)
    npt.assert_allclose(d.U_inv @ np.diag(d.lam) @ d.U, p, atol=1e-8)


def test_diagonalize_cmr_spans_complement_of_mr():
    mr = tr.make_idempotent_mr(4, 2).matrix
    cmr = tr.make_idempotent_cmr(4, 2).matrix
    d = tr.diagonalize_idempotent(cmr)
    assert int(d.lam.sum()) == 2
    unit_vectors = d.U_inv[:, d.lam > 0.5]
    npt.assert_allclose(mr @ unit_vectors, np.zeros((4, 2)), atol=1e-10)


def test_diagonalize_nonsymmetric_idempotent():
    # oblique projector: idempotent but not symmetric
    p = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert tr.is_idempotent(p)
    d = tr.diagonalize_idempotent(p)
    npt.assert_allclose(d.U_inv @ d.U, np.eye(2), atol=1e-8)
    npt.assert_allclose(d.U_inv @ np.diag(d.lam) @ d.U, p, atol=1e-8)
    assert int(d.lam.sum()) == 1


def test_diagonalize_rejects_non_idempotent():
    with pytest.raises(ValueError, match="not idempotent"):
        tr.diagonalize_idempotent(np.array([[0.5, 0.0], [0.0, 1.0]]))


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
    npt.assert_allclose(out, oracles.mix_channels(p.matrix, x.astype(mixed_dtype)),
                        atol=atol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_apply_transform_array_is_channel_mix(dtype):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((2, 8, 4, 4)).astype(dtype)
    p = tr.make_orthogonal_random(8, seed=1)
    npt.assert_array_equal(tr.apply_transform(p, x),
                           channel_mix(Tensor(x), p.matrix).data)


# ---------------------------------------------------------------------------
# spec invariants

def test_product_closure_of_orthogonals():
    rng = np.random.default_rng(3)
    qs = [tr.make_orthogonal_random(8, seed=int(s)).matrix
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
    p = make(*args).matrix
    pk = p.copy()
    for _ in range(1, 8):
        pk = pk @ p
        assert np.abs(pk - p).max() <= 1e-9


def test_column_space_fixing():
    rng = np.random.default_rng(4)
    for b in (1, 2, 4):
        p = tr.make_idempotent_mr(8, b).matrix
        x = rng.standard_normal((8, 5))
        npt.assert_allclose(p @ (p @ x), p @ x, atol=1e-10)


def test_norm_preservation_bound():
    rng = np.random.default_rng(5)
    for seed in range(5):
        q = tr.make_orthogonal_random(16, seed=seed).matrix
        x = rng.standard_normal(16)
        assert abs(np.linalg.norm(q @ x) - np.linalg.norm(x)) \
            <= 1e-10 * np.linalg.norm(x)


def test_periodic_unit_eigenvalue_norm_maintenance():
    t = tr.make_periodic(6, 4, seed=9)
    vals, vecs = np.linalg.eig(t.matrix)
    unit = np.abs(np.abs(vals) - 1.0) < 1e-8
    assert unit.any()
    for idx in np.nonzero(unit)[0]:
        v = vecs[:, idx]
        pv = v.copy()
        for k in range(1, 6):
            pv = t.matrix @ pv
            assert abs(np.linalg.norm(pv) - np.linalg.norm(v)) <= 1e-8


# ---------------------------------------------------------------------------
# one tolerance for every invariant check

TOL = tr._INVARIANT_TOL


def _invariant_miss(t):
    """Largest entry of the residual of a transform's defining law."""
    m = t.matrix
    eye = np.eye(m.shape[0])
    if t.kind == "identity":
        return np.abs(m - eye).max()
    if t.kind.startswith("idempotent"):
        return np.abs(m @ m - m).max()
    if t.kind.startswith("orthogonal"):
        return np.abs(m.T @ m - eye).max()
    return np.abs(oracles.matrix_power_loop(m, t.params["N"] + 1) - m).max()


def _every_constructor(widths, seeds, periods):
    for r in widths:
        yield tr.make_identity(r)
        for b in (d for d in range(1, r + 1) if r % d == 0):
            yield tr.make_idempotent_mr(r, b)
            yield tr.make_idempotent_cmr(r, b)
        if r & (r - 1) == 0:
            yield tr.make_orthogonal_tp(r)
            yield from (tr.make_orthogonal_random(r, s) for s in seeds)
        yield from (tr.make_periodic(r, n, s) for n in periods for s in seeds)


def test_constructors_meet_invariants_with_margin():
    misses = {(t.kind, t.matrix.shape[0], repr(t.params)): _invariant_miss(t)
              for t in _every_constructor(range(2, 65), range(3),
                                          (1, 2, 3, 4, 8))}
    worst = max(misses, key=misses.get)
    assert misses[worst] <= TOL / 1000, (worst, misses[worst])


# Each probe misses its invariant by more than the one tolerance but by
# less than 1e-8, so any looser bound left in one module would accept a
# matrix that the others reject.

def test_nudged_idempotent_is_rejected_everywhere():
    p = (1.0 + 5e-10) * tr.make_idempotent_mr(8, 2).matrix
    assert TOL < np.abs(p @ p - p).max() < 1e-8
    with pytest.raises(ValueError, match="violates"):
        tr.StructuredTransform(p, "idempotent_mr", {"B": 2})
    assert not tr.is_idempotent(p)
    with pytest.raises(ValueError, match="not idempotent"):
        tr.diagonalize_idempotent(p)
    with pytest.raises(ValueError, match="idempotent"):
        prop.null_space_components(p, np.ones(8))


def _nudge_skips(net, scale):
    for stage in net.stages:
        skip = (1.0 + scale) * stage[0].skip
        for blk in stage:
            blk.set_skip(skip)


def test_nudged_orthogonal_is_rejected_everywhere():
    q = (1.0 + 1.5e-10) * tr.make_orthogonal_tp(8).matrix
    assert TOL < np.abs(q.T @ q - np.eye(8)).max() < 1e-9
    with pytest.raises(ValueError, match="violates"):
        tr.StructuredTransform(q, "orthogonal_tp")
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
