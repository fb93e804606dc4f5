"""Matrix algebras over deformed coefficient rings and kernel coordinates."""

import numpy as np
import pytest

from sqzlift import algebra
from sqzlift.algebra import (
    AlgMatrix,
    LevelAlgebra,
    dual_numbers_algebra,
    mk_algebra,
)
from sqzlift.complexes import GradedMap, GradedObject, map_lift, map_reduce
from sqzlift.errors import NotAssociative, NotUnital
from sqzlift.finring import mk_tower, trunc_poly_ring


@pytest.fixture(scope="module")
def z4():
    return mk_algebra(mk_tower("zmod", 2, a=2, b=1), "trivial")


@pytest.fixture(scope="module")
def dual3():
    return dual_numbers_algebra(mk_tower("trunc_poly", 3, a=3, b=2))


def test_trivial_algebra_matmul_is_ring_matmul(z4):
    bar = z4.bar
    rng = np.random.default_rng(0)
    A = rng.integers(0, 4, size=(2, 3, 1, 1))
    B = rng.integers(0, 4, size=(3, 2, 1, 1))
    ref = (A[:, :, 0, 0] @ B[:, :, 0, 0]) % 4
    assert np.array_equal(bar.matmul(A, B)[:, :, 0, 0], ref)


def test_matmul_associativity_dual_numbers(dual3):
    bar = dual3.bar
    rng = np.random.default_rng(1)
    dims = (2, 3, 2, 2)
    mats = []
    for i in range(3):
        data = np.stack([
            rng.integers(0, int(o), size=(dims[i], dims[i + 1], bar.k))
            for o in bar.ring.orders], axis=-1).astype(np.int64)
        mats.append(data)
    A, B, C = mats
    assert np.array_equal(bar.matmul(bar.matmul(A, B), C), bar.matmul(A, bar.matmul(B, C)))


def _t2_over(ring):
    """Upper-triangular T_2(ring) with basis e11, e12, e22 (noncommutative)."""
    one = ring.one_vec()
    struct = np.zeros((3, 3, 3, ring.m), dtype=np.int64)
    struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 2, 1] = struct[2, 2, 2] = one
    return LevelAlgebra(ring, struct, np.stack([one, 0 * one, one]))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("rcs", [(1, 1, 1), (2, 3, 2), (4, 4, 4), (4, 4, 5), (5, 7, 3),
                                 (9, 2, 8), (3, 0, 2)])
def test_matmul_paths_match_the_plain_einsum(k, rcs, monkeypatch):
    """Both matmul paths, chosen by the einsum's term count and forced either
    way, against the plain einsum over the combined tensor, on unbatched and
    broadcast batched operands (empty batches too); the shapes fall on both
    sides of _TWO_STEP_MIN_TERMS."""
    tower = mk_tower("trunc_poly", 3, a=3, b=2)
    alg = {1: lambda: mk_algebra(tower, "trivial").bar,
           2: lambda: dual_numbers_algebra(tower).bar,
           3: lambda: _t2_over(tower.Rbar)}[k]()
    rng = np.random.default_rng(sum(rcs) + 10 * k)
    r, c, s = rcs
    for lead_a, lead_b in (((), ()), ((3,), (3,)), ((2, 1), (1, 4)), ((1,), (5,)), ((1,), (0,))):
        a = rng.integers(0, 3, size=lead_a + (r, c, alg.k, 3))
        b = rng.integers(0, 3, size=lead_b + (c, s, alg.k, 3))
        want = np.einsum("...acis,...cbjt,isjtlw->...ablw", a, b, alg._T) % alg.ring.orders
        assert np.array_equal(alg.matmul(a, b), want)
        for bound in (0, 10 ** 9):          # always two-step, always einsum
            monkeypatch.setattr(algebra, "_TWO_STEP_MIN_TERMS", bound)
            assert np.array_equal(alg.matmul(a, b), want)
        monkeypatch.undo()
    if k == 3 and c:                        # noncommutative: a @ b != b @ a
        x = rng.integers(0, 3, size=(c, c, 3, 3))
        y = rng.integers(0, 3, size=(c, c, 3, 3))
        assert not np.array_equal(alg.matmul(x, y), alg.matmul(y, x))


def test_identity_matrix_is_neutral(dual3):
    bar = dual3.bar
    rng = np.random.default_rng(2)
    A = rng.integers(0, 3, size=(3, 3, 2, 3)) % bar.ring.orders
    one = np.eye(3, dtype=np.int64)[:, :, None, None] * bar.unit
    assert np.array_equal(bar.matmul(one, A), A)
    assert np.array_equal(bar.matmul(A, one), A)


def test_bad_structure_constants_rejected():
    tower = mk_tower("zmod", 2, a=2, b=1)
    R = tower.Rbar
    struct = np.zeros((2, 2, 2, 1), dtype=np.int64)
    struct[0, 0, 0] = R.one_vec()
    struct[0, 1, 1] = R.one_vec()
    struct[1, 0, 1] = R.one_vec()
    struct[1, 1, 1] = R.one_vec()    # x^2 = x breaks associativity with x*1
    unit = np.zeros((2, 1), dtype=np.int64)
    unit[0] = R.one_vec()
    # x*x = x is associative and unital (idempotent); perturb to break unit
    bad_unit = np.zeros((2, 1), dtype=np.int64)
    bad_unit[1] = R.one_vec()
    with pytest.raises((NotAssociative, NotUnital)):
        LevelAlgebra(R, struct, bad_unit)


def _one_block(alg, mat):
    """The degree-0 graded map with the single component mat in degree 0."""
    return GradedMap(alg, GradedObject.of({0: mat.cols}), GradedObject.of({0: mat.rows}),
                     0, {0: mat})


def test_level_reductions_commute(z4):
    rng = np.random.default_rng(3)
    f = _one_block(z4.bar, AlgMatrix(z4.bar, rng.integers(0, 4, size=(2, 2, 1, 1))))
    two_step = map_reduce(z4, map_reduce(z4, f, "bar", "mid"), "mid", "base")
    assert two_step == map_reduce(z4, f, "bar", "base")
    assert two_step.coef.tolist() == (f.coef % 2).tolist()


def test_section_then_reduce_is_identity(z4):
    rng = np.random.default_rng(4)
    data = rng.integers(0, 2, size=(2, 3, 1, 1)).astype(np.int64)
    f = _one_block(z4.mid, AlgMatrix(z4.mid, data))
    assert map_reduce(z4, map_lift(z4, f), "bar", "mid") == f


def test_kernel_coords_bijection(z4):
    # J-coefficient 2x2 matrices over Z/4 <-> F_2^(4 * dimJ)
    n = z4.tower.dimJ * 2 * 2 * z4.k
    seen = set()
    for idx in range(2 ** n):
        coords = np.array([(idx >> s) & 1 for s in range(n)], dtype=np.int64)
        M = AlgMatrix(z4.bar, z4.kernel_matrix(coords, 4).reshape(2, 2, 1, 1))
        assert map_reduce(z4, _one_block(z4.bar, M), "bar", "mid").is_zero()
        back = z4.kernel_coords(M.data)
        assert np.array_equal(back, coords)
        seen.add(M.data.tobytes())
    assert len(seen) == 2 ** n


def test_dual_numbers_square_zero(dual3):
    bar = dual3.bar
    x = np.zeros((1, 1, 2, 3), dtype=np.int64)
    x[0, 0, 1, 0] = 1
    assert not bar.matmul(x, x).any()


def test_kernel_matrices_absorb_i(z4):
    """I * J = 0 makes J-coefficient matrices insensitive to mid corrections."""
    # 2 * 2 = 0 in Z/4: multiplying a kernel matrix by any lift of 0 kills it
    coords = np.array([1, 0, 0, 1], dtype=np.int64)
    M = z4.kernel_matrix(coords, 4).reshape(2, 2, 1, 1)
    two = np.full((2, 2, 1, 1), 2, dtype=np.int64)
    assert not z4.bar.matmul(M, two).any()
    assert not z4.bar.matmul(two, M).any()
