"""Kernel-complex cohomology: canonical classes and lift independence."""

import numpy as np
import pytest

from sqzlift import gf
from sqzlift.algebra import AlgMatrix, dual_numbers_algebra, mk_algebra
from sqzlift.cohomology import CohClass, kernel_complex
from sqzlift.complexes import GradedMap, GradedObject, identity_map, map_lift, zero_map
from sqzlift.errors import CapExceeded, LevelMismatch, NotACocycle, ShapeMismatch
from sqzlift.finring import mk_tower
from sqzlift.oracle import gen_instance


OB2 = GradedObject.of({0: 1, 1: 1})


@pytest.fixture(scope="module")
def K_z4():
    """J (x) Hom(C0, C0) for the three-term zero complex over the Z/4 tower."""
    defalg = mk_algebra(mk_tower("zmod", 2, a=2, b=1), "trivial")
    ob = GradedObject.of({0: 1, 1: 1, 2: 1})
    d0 = zero_map(defalg.base, ob, ob, 1)
    return defalg, ob, kernel_complex(defalg, ob, ob, d0, d0)


@pytest.fixture(scope="module")
def K_t3():
    """Kernel complex over F_3[t]/t^3 -> F_3[t]/t^2 with a nonzero base d."""
    defalg = mk_algebra(mk_tower("trunc_poly", 3, a=3, b=2), "trivial")
    ob = GradedObject.of({0: 1, 1: 2, 2: 1})
    base = defalg.base
    d_comps = {
        0: AlgMatrix(base, np.array([[[[1]]], [[[0]]]], dtype=np.int64)),
        1: AlgMatrix(base, np.array([[[[0]], [[1]]]], dtype=np.int64)),
    }
    d0 = GradedMap(base, ob, ob, 1, d_comps)
    return defalg, ob, d0, kernel_complex(defalg, ob, ob, d0, d0)


def test_dimensions_and_zero_differential(K_z4):
    defalg, ob, K = K_z4
    # d = 0: every cochain is a cocycle and H^n = kernel degree n space
    for n in (0, 1, 2):
        assert K.h_dim(n) == K.dim(n)
        assert not K.delta_matrix(n).any()
    assert K.dim(1) == 2   # dimJ = 1, two off-diagonal slots


@pytest.fixture(scope="module")
def K_sq2():
    """Kernel complex over square_zero(3; r=2), so dimJ = 2."""
    defalg = mk_algebra(mk_tower("square_zero", 3, r=2), "trivial")
    base = defalg.base
    ob = GradedObject.of({0: 1, 1: 2, 2: 1})
    d0 = GradedMap(base, ob, ob, 1, {
        0: AlgMatrix(base, np.array([[[[1]]], [[[2]]]], dtype=np.int64)),
        1: AlgMatrix(base, np.array([[[[1]], [[1]]]], dtype=np.int64)),
    })
    return kernel_complex(defalg, ob, ob, d0, d0)


@pytest.fixture(scope="module")
def K_ladder():
    """A ladder-shaped complex over F_3[t]/t^3 -> F_3[t]/t^2: ranks 6, 7, 7
    and a base differential of two 2 x 2 identity blocks, so delta is
    mostly zero rows and zero columns."""
    defalg = mk_algebra(mk_tower("trunc_poly", 3, a=3, b=2), "trivial")
    base = defalg.base
    ob = GradedObject.of({0: 6, 1: 7, 2: 7})
    d_0, d_1 = np.zeros((7, 6), dtype=np.int64), np.zeros((7, 7), dtype=np.int64)
    d_0[:2, :2] = d_1[2:4, 2:4] = np.eye(2, dtype=np.int64)
    d0 = GradedMap(base, ob, ob, 1, {0: AlgMatrix(base, d_0[:, :, None, None]),
                                     1: AlgMatrix(base, d_1[:, :, None, None])})
    return kernel_complex(defalg, ob, ob, d0, d0)


def test_kernel_delta_is_the_hom_delta_once_per_j_basis_vector(K_t3, K_sq2):
    """dimJ = 1 keeps the Hom matrix itself; dimJ = 2 (square_zero r = 2)
    is its Kronecker product with the identity."""
    _, _, _, K = K_t3
    assert K.dimJ == 1
    for n in (-1, 0, 1):
        assert np.array_equal(K.delta_matrix(n), K.hom.delta_matrix(n))
    K2 = K_sq2
    assert K2.dimJ == 2
    for n in (-1, 0, 1):
        want = np.kron(np.eye(2, dtype=np.int64), K2.hom.delta_matrix(n))
        assert want.any() and np.array_equal(K2.delta_matrix(n), want)


def test_h_dim_rank_nullity(K_t3):
    _, _, _, K = K_t3
    for n in (-1, 0, 1, 2):
        expected = (K.dim(n) - gf.rank(K.delta_matrix(n), 3)
                    - gf.rank(K.delta_matrix(n - 1), 3))
        assert K.h_dim(n) == expected >= 0


def test_canonical_class_representatives_are_stable(K_t3):
    _, _, _, K = K_t3
    rng = np.random.default_rng(0)
    Z = K.delta_matrix(0)
    for _ in range(10):
        x = rng.integers(0, 3, size=K.dim(0)).astype(np.int64)
        v = (Z @ x) % 3                      # an exact degree-1 cocycle
        cls = K.coh_class(v, 1)
        assert cls.is_zero                   # coboundaries reduce to zero
    # shifting a cocycle by a coboundary leaves the canonical rep unchanged
    for z in [np.zeros(K.dim(1), dtype=np.int64)]:
        x = rng.integers(0, 3, size=K.dim(0)).astype(np.int64)
        shifted = (z + Z @ x) % 3
        assert K.coh_class(shifted, 1) == K.coh_class(z, 1)


def test_non_cocycle_rejected(K_t3):
    _, _, _, K = K_t3
    # find a vector that is not a cocycle
    M = K.delta_matrix(1)
    for idx in range(K.dim(1)):
        v = np.zeros(K.dim(1), dtype=np.int64)
        v[idx] = 1
        if ((M @ v) % 3).any():
            with pytest.raises(NotACocycle):
                K.coh_class(v, 1)
            return
    pytest.skip("every unit vector is a cocycle here")


def test_all_classes_enumerates_p_to_h(K_z4):
    _, _, K = K_z4
    for n in (0, 1, 2):
        classes = K.all_classes(n)
        assert len(classes) == 2 ** K.h_dim(n)
        assert len({c.rep for c in classes}) == len(classes)


def test_all_classes_checks_the_cap_before_enumerating(K_z4):
    _, _, K = K_z4
    n = next(n for n in (0, 1, 2) if K.h_dim(n))
    count = 2 ** K.h_dim(n)
    with pytest.raises(CapExceeded):
        K.all_classes(n, cap=count - 1)
    assert len(K.all_classes(n, cap=count)) == count


def test_into_kernel_refuses_a_map_that_is_not_bar_level_from_C_to_D():
    defalg = mk_algebra(mk_tower("trunc_poly", 3, a=3, b=2), "trivial")
    d0 = zero_map(defalg.base, OB2, OB2, 1)
    K = kernel_complex(defalg, OB2, OB2, d0, d0)
    with pytest.raises(LevelMismatch):
        K.into_kernel(identity_map(defalg.mid, OB2))
    with pytest.raises(ShapeMismatch):
        K.into_kernel(zero_map(defalg.bar, OB2, GradedObject.of({0: 2}), 0))


def test_in_and_out_of_kernel_roundtrip(K_t3):
    _, _, _, K = K_t3
    rng = np.random.default_rng(1)
    for n in (0, 1):
        v = rng.integers(0, 3, size=K.dim(n)).astype(np.int64)
        f = K.out_of_kernel(v, n)
        assert np.array_equal(K.into_kernel(f), v)


def test_delta_independent_of_graded_lift(K_t3):
    """The kernel differential must not depend on which graded lift of the
    mid differential is used to conjugate."""
    defalg, ob, d0, K = K_t3
    rng = np.random.default_rng(2)
    dbar = map_lift(defalg, GradedMap(defalg.mid, ob, ob, 1,
                    {i: AlgMatrix(defalg.mid,
                                  np.concatenate([m.data, np.zeros_like(m.data)], axis=-1))
                     for i, m in d0.comps.items()}))
    for n in (0, 1):
        v = rng.integers(0, 3, size=K.dim(n)).astype(np.int64)
        via_matrix = (K.delta_matrix(n) @ v) % 3
        via_bar = K.delta_via_bar(v[None], n, dbar, dbar)[0]
        assert np.array_equal(via_matrix, via_bar)
        # perturb the bar lift by a J-coefficient matrix: same answer
        gamma = K.out_of_kernel(
            rng.integers(0, 3, size=K.dim(1)).astype(np.int64), 1)
        via_bar2 = K.delta_via_bar(v[None], n, dbar + gamma, dbar + gamma)[0]
        assert np.array_equal(via_matrix, via_bar2)


def test_delta_via_bar_rejects_differentials_that_do_not_fit(K_z4):
    """All ranks are 1, so a degree-0 map or a lower-level differential has
    blocks that multiply; they are refused, not used."""
    defalg, ob, K = K_z4
    vecs = np.ones((2, K.dim(0)), dtype=np.int64)
    dbar = zero_map(defalg.bar, ob, ob, 1)
    assert not K.delta_via_bar(vecs, 0, dbar, dbar).any()
    for dC, dD in ((identity_map(defalg.bar, ob), dbar),
                   (dbar, identity_map(defalg.bar, ob)),
                   (zero_map(defalg.mid, ob, ob, 1), dbar),
                   (dbar, zero_map(defalg.bar, ob, OB2, 1))):
        with pytest.raises(ShapeMismatch, match="differentials"):
            K.delta_via_bar(vecs, 0, dC, dD)
    with pytest.raises(ShapeMismatch):      # one vector, not a stack of them
        K.delta_via_bar(vecs[0], 0, dbar, dbar)


def test_solve_coboundary_consistency(K_t3):
    _, _, _, K = K_t3
    rng = np.random.default_rng(3)
    Z = K.delta_matrix(0)
    x = rng.integers(0, 3, size=K.dim(0)).astype(np.int64)
    v = (Z @ x) % 3
    y = K.solve_coboundary(v, 1)
    assert y is not None
    assert np.array_equal((Z @ y) % 3, v)


def _greedy_h_basis(K, n):
    """Reduced cocycles kept one at a time when they raise the rank of the
    coboundaries and the cocycles kept so far."""
    Z = gf.nullspace(K.delta_matrix(n), K.p)
    red, pivots = K.coboundary_space(n)
    out, current = [], red
    r = gf.rank(current, K.p)
    for z in Z:
        rep = gf.reduce_mod_rowspace(z, red, pivots, K.p)
        if not rep.any():
            continue
        cand = np.vstack([current, rep[None, :]])
        if gf.rank(cand, K.p) > r:
            out.append(rep)
            current = cand
            r += 1
    return out


def _classes_digit_by_digit(K, n, basis):
    red, pivots = K.coboundary_space(n)
    classes = []
    for idx in range(K.p ** len(basis)):
        vec = np.zeros(K.dim(n), dtype=np.int64)
        rem = idx
        for b in basis:
            vec = (vec + (rem % K.p) * b) % K.p
            rem //= K.p
        rep = gf.reduce_mod_rowspace(vec, red, pivots, K.p)
        classes.append(CohClass(n, tuple(int(x) for x in rep)))
    return classes


def test_h_basis_and_all_classes_match_the_greedy_loops(K_z4, K_t3):
    complexes = [K_z4[-1], K_t3[-1]]
    complexes += [gen_instance(kind, seed).problem.kernel
                  for kind in ("differential", "map", "homotopy") for seed in range(10)]
    compared = 0
    for K in complexes:
        for n in (-1, 0, 1, 2):
            basis = K.h_basis(n)
            ref = _greedy_h_basis(K, n)
            assert basis.dtype == np.int64 and basis.shape == (len(ref), K.dim(n))
            assert [row.tolist() for row in basis] == [row.tolist() for row in ref]
            compared += len(ref)
            if K.p ** len(ref) <= 729:
                assert K.all_classes(n) == _classes_digit_by_digit(K, n, ref)
    assert compared > 0


# -- the core of delta against the dense matrix ----------------------------

def _dense_h_basis(K, n):
    """h_basis on the dense matrix: the reduced null space of delta_n, each
    vector kept when it is independent of the ones before it."""
    red, pivots = gf.row_space(K.delta_matrix(n - 1).T, K.p)
    reps = gf.reduce_mod_rowspace(gf.nullspace(K.delta_matrix(n), K.p), red, pivots, K.p)
    return reps[gf.rref(reps.T, K.p)[1]]


@pytest.mark.parametrize("name", ["K_t3", "K_z4", "K_sq2", "K_ladder"])
def test_core_answers_are_the_dense_answers(name, request):
    K = request.getfixturevalue(name)
    K = K[-1] if isinstance(K, tuple) else K
    rng = np.random.default_rng(5)
    solved = unsolved = 0
    for n in (-1, 0, 1, 2):
        dense, prev = K.delta_matrix(n), K.delta_matrix(n - 1)
        core = K.delta_core(n)
        assert np.array_equal(dense[np.ix_(core.rows, core.cols)], core.mat)
        assert dense.sum() == core.mat.sum()   # nothing nonzero outside the core
        red, pivots = K.coboundary_space(n)
        want_red, want_pivots = gf.row_space(prev.T, K.p)
        assert np.array_equal(red, want_red) and pivots == want_pivots
        assert K.h_dim(n) == K.dim(n) - gf.rank(dense, K.p) - gf.rank(prev, K.p)
        basis = K.h_basis(n)
        assert basis.dtype == np.int64 and K.h_dim(n) == len(basis)
        assert np.array_equal(basis, _dense_h_basis(K, n).reshape(-1, K.dim(n)))
        # coboundaries, cocycles and random vectors, through solve and is_cocycle
        null = gf.nullspace(dense, K.p)
        xs = rng.integers(0, K.p, size=(4, K.dim(n - 1)))
        zs = rng.integers(0, K.p, size=(4, len(null))) @ null % K.p
        vs = np.concatenate([xs @ prev.T % K.p, zs, rng.integers(0, K.p, size=(4, K.dim(n)))])
        for v in vs:
            got, want = K.solve_coboundary(v, n), gf.solve(prev, v, K.p)
            assert (got is None) == (want is None)
            assert want is None or np.array_equal(got, want)
            assert K.is_cocycle(v, n) == (not (dense @ v % K.p).any())
            solved, unsolved = solved + (got is not None), unsolved + (got is None)
    assert solved and unsolved


def _battery_algebra(name):
    """A deformed algebra whose base level is one of the battery's: F_2 and
    F_3 with the trivial algebra, the dual numbers over F_3, the
    noncommutative T_2(F_2) and T_2(F_3), and square_zero(3; r=2) (dimJ = 2)
    with the trivial algebra and T_2."""
    tower = {2: mk_tower("trunc_poly", 2, a=2, b=1), 3: mk_tower("trunc_poly", 3, a=3, b=2),
             "sq": mk_tower("square_zero", 3, r=2)}[name[1]]
    if name[0] == "trivial":
        return mk_algebra(tower, "trivial")
    if name[0] == "dual":
        return dual_numbers_algebra(tower)
    one = tower.Rbar.one_vec()   # upper-triangular T_2 with basis e11, e12, e22
    struct = np.zeros((3, 3, 3, tower.Rbar.m), dtype=np.int64)
    struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 2, 1] = struct[2, 2, 2] = one
    return mk_algebra(tower, "custom", struct=struct, unit=np.stack([one, 0 * one, one]))


def _battery_differential(rng, alg, ob, density):
    """A degree-1 endomorphism of ob over alg with about this share of
    nonzero coefficients; it need not square to zero."""
    comps = {}
    for i, c in ob.ranks:
        if ob.rank(i + 1):
            shape = (ob.rank(i + 1), c, alg.k, alg.ring.m)
            keep = rng.random(shape) < density
            comps[i] = rng.integers(0, alg.ring.orders, size=shape) * keep
    return GradedMap.from_arrays(alg, ob, ob, 1, comps)


@pytest.mark.parametrize("name", [("trivial", 2), ("trivial", 3), ("dual", 3), ("T2", 2),
                                  ("T2", 3), ("trivial", "sq"), ("T2", "sq")])
def test_core_is_the_nonzero_part_of_the_dense_matrix(name):
    """The core built from delta's nonzero blocks against a cut of the dense
    matrix, for HomComplex and KernelComplex: rows and cols are exactly the
    nonzero rows and columns, mat is the block they cut out, and the dense
    matrix is zero outside it.  Zero, sparse and dense differentials (none
    need square to zero), n from -3 to 2, unequal C and D, empty blocks."""
    defalg = _battery_algebra(name)
    base = defalg.base
    rng = np.random.default_rng(sum(map(ord, str(name))))
    pairs = [(GradedObject.of({0: 1, 1: 2, 2: 1}),) * 2,
             (GradedObject.of({-1: 2, 0: 1, 2: 1}), GradedObject.of({0: 1, 1: 1, 3: 2})),
             (GradedObject.of({0: 2, 1: 3}), GradedObject.of({1: 2, 2: 1}))]
    seen = {"empty": 0, "partial": 0, "zero": 0}
    for obC, obD in pairs:
        for density in (0.0, 0.3, 1.0):
            dC = _battery_differential(rng, base, obC, density)
            dD = _battery_differential(rng, base, obD, density)
            K = kernel_complex(defalg, obC, obD, dC, dD)
            for X in (K.hom, K):
                for n in range(-3, 3):
                    dense, core = X.delta_matrix(n), X.delta_core(n)
                    assert core.rows.dtype == core.cols.dtype == core.mat.dtype == np.int64
                    assert np.array_equal(core.rows, np.flatnonzero(dense.any(axis=1)))
                    assert np.array_equal(core.cols, np.flatnonzero(dense.any(axis=0)))
                    assert np.array_equal(core.mat, dense[np.ix_(core.rows, core.cols)])
                    outside = dense.copy()
                    outside[np.ix_(core.rows, core.cols)] = 0
                    assert not outside.any()
                    seen["empty"] += 0 in dense.shape
                    seen["zero"] += 0 not in dense.shape and not dense.any()
                    seen["partial"] += 0 < len(core.rows) < len(dense)
    assert all(seen.values()), seen


def test_all_classes_counts_before_it_builds_a_basis(K_ladder, monkeypatch):
    """The cap is checked on p^h_dim before h_basis writes a row."""
    K, n = K_ladder, 1

    def refuse(n):
        raise AssertionError("h_basis called over the cap")
    monkeypatch.setattr(K, "h_basis", refuse)
    with pytest.raises(CapExceeded, match=f"^{3 ** K.h_dim(n)} cohomology classes"):
        K.all_classes(n, cap=3 ** K.h_dim(n) - 1)


def test_zero_delta_has_an_empty_core(K_z4):
    """d = 0: every core is 0 x 0, every vector a cocycle, and only 0 a
    coboundary."""
    _, _, K = K_z4
    for n in (-1, 0, 1, 2):
        core = K.delta_core(n)
        assert core.mat.shape == (0, 0) and not len(core.rows) and not len(core.cols)
        assert K.coboundary_space(n)[0].shape == (0, K.dim(n))
        assert np.array_equal(K.h_basis(n), np.eye(K.dim(n), dtype=np.int64))
    v = np.ones(K.dim(1), dtype=np.int64)
    assert K.is_cocycle(v, 1) and K.solve_coboundary(v, 1) is None
    assert np.array_equal(K.solve_coboundary(0 * v, 1), np.zeros(K.dim(0), dtype=np.int64))


def test_rhs_on_a_zero_row_of_delta_has_no_solution(K_ladder):
    """A vector that is nonzero only on a zero row of delta is no coboundary,
    although the core part of it (zero) is solvable."""
    K = K_ladder
    for n in (0, 1, 2):
        core = K.delta_core(n - 1)
        zero_rows = np.setdiff1d(np.arange(K.dim(n)), core.rows)
        assert len(zero_rows) and len(core.rows)
        v = np.zeros(K.dim(n), dtype=np.int64)
        v[zero_rows[0]] = 1
        assert K.solve_coboundary(v, n) is None
        assert gf.solve(K.delta_matrix(n - 1), v, K.p) is None
