"""Obstruction classes and torsor classifications."""

import numpy as np
import pytest

from sqzlift.algebra import AlgMatrix, mk_algebra
from sqzlift.complexes import (
    Complex,
    GradedMap,
    GradedObject,
    compose,
    delta,
    identity_map,
    map_lift,
    map_reduce,
    zero_map,
)
from sqzlift.cohomology import KernelComplex
from sqzlift.errors import InternalObstruction, Obstructed
from sqzlift.finring import mk_tower
from sqzlift.obstruction import (
    DifferentialProblem,
    HomotopyProblem,
    MapProblem,
    classify_connecting_isos,
    classify_lifts,
    classify_map_lifts,
    lift_differential,
    lift_homotopy,
    lift_map,
    obstruct_differential,
    obstruct_homotopy,
    obstruct_map,
    v_class,
)

OB3 = GradedObject.of({0: 1, 1: 1, 2: 1})


@pytest.fixture(scope="module")
def z4_prob(z4):
    d0 = zero_map(z4.mid, OB3, OB3, 1)
    return DifferentialProblem(z4, OB3, d0)


@pytest.fixture(scope="module")
def mf_prob():
    """d = (x, x) over Lambda = Rbar[x]/(x^2 - eps), Rbar = F_2[eps]."""
    tower = mk_tower("trunc_poly", 2, a=2, b=1)
    R = tower.Rbar
    struct = np.zeros((2, 2, 2, 2), dtype=np.int64)
    struct[0, 0, 0] = R.one_vec()
    struct[0, 1, 1] = R.one_vec()
    struct[1, 0, 1] = R.one_vec()
    struct[1, 1, 0] = np.array([0, 1])   # x^2 = eps
    unit = np.zeros((2, 2), dtype=np.int64)
    unit[0] = R.one_vec()
    defalg = mk_algebra(tower, "custom", struct=struct, unit=unit)
    x = np.zeros((1, 1, 2, 1), dtype=np.int64)
    x[0, 0, 1, 0] = 1
    d = GradedMap(defalg.mid, OB3, OB3, 1,
                  {0: AlgMatrix(defalg.mid, x), 1: AlgMatrix(defalg.mid, x.copy())})
    return DifferentialProblem(defalg, OB3, d)


# -- differentials ----------------------------------------------------------

def test_zero_complex_over_z4_lifts(z4_prob):
    cls, _ = obstruct_differential(z4_prob)
    assert cls.is_zero
    rep = lift_differential(z4_prob)
    assert not rep.obstructed
    assert compose(rep.lifted, rep.lifted).is_zero()


def test_zero_complex_over_z4_has_four_classes(z4_prob):
    assert z4_prob.kernel.h_dim(1) == 2
    cl = classify_lifts(z4_prob)
    assert cl.count == 4
    # the (2, 2) differential is a valid lift and appears among the reps
    reps_data = set()
    for rep in cl.reps:
        assert compose(rep, rep).is_zero()
        assert map_reduce(z4_prob.defalg, rep, "bar", "mid") == z4_prob.d_mid
        reps_data.add(tuple(rep.coef.tolist()))   # the 1x1 components in degrees 0, 1
    assert (2, 2) in reps_data


def test_connecting_isos_are_a_torsor_over_h0(z4_prob):
    cl = classify_lifts(z4_prob)
    d1 = cl.reps[0]
    isos = classify_connecting_isos(z4_prob, d1, d1)
    assert isos.count == 2 ** z4_prob.kernel.h_dim(0) == 8
    # each iso actually carries d1 to d1; (1 + kappa)^-1 = 1 - kappa as J^2 = 0
    one = identity_map(z4_prob.defalg.bar, OB3)
    for kappa in isos.reps:
        assert compose(compose(one + kappa, d1), one - kappa) == d1


@pytest.mark.parametrize("tower", ["z4", "t3"])
def test_connecting_isos_between_two_distinct_lifts(tower, request):
    """d2 = d1 - delta(kappa) is another lift of d_mid: the isos carrying d1
    to d2 are a torsor over H^0, and each one conjugates d1 to d2."""
    defalg = request.getfixturevalue(tower)
    p, mid = defalg.mid.ring.p, defalg.mid
    unit = np.zeros((1, 1, 1, mid.ring.m), dtype=np.int64)
    unit[..., :2] = 1   # d_0 is 1 over Z/2 and 1 + t over F_3[t]/t^2
    d_mid = GradedMap(mid, OB3, OB3, 1, {0: AlgMatrix(mid, unit)})
    prob = DifferentialProblem(defalg, OB3, d_mid)
    K, d1 = prob.kernel, lift_differential(prob).lifted
    one = identity_map(defalg.bar, OB3)
    moved = 0
    for vec in np.eye(K.dim(0), dtype=np.int64):
        move = delta(K.out_of_kernel(vec, 0), d1, d1)
        if move.is_zero():
            continue
        d2 = d1 - move
        isos = classify_connecting_isos(prob, d1, d2)
        assert isos.count == p ** K.h_dim(0) > 1
        for rep in isos.reps:
            assert compose(compose(one + rep, d1), one - rep) == d2
        moved += 1
    assert moved


def test_distinct_classes_are_not_connected(z4_prob):
    cl = classify_lifts(z4_prob)
    with pytest.raises(Obstructed):
        classify_connecting_isos(z4_prob, cl.reps[0], cl.reps[1])


def test_matrix_factorization_is_obstructed(mf_prob):
    cls, _ = obstruct_differential(mf_prob)
    assert not cls.is_zero
    assert mf_prob.kernel.h_dim(2) == 1
    rep = lift_differential(mf_prob)
    assert rep.obstructed and rep.lifted is None


def test_v_class_is_the_difference_class(z4_prob):
    K = z4_prob.kernel
    cl = classify_lifts(z4_prob)
    for i in range(cl.count):
        for j in range(cl.count):
            v = v_class(z4_prob, cl.reps[i], cl.reps[j])
            direct = K.coh_class(K.into_kernel(cl.reps[j] - cl.reps[i]), 1)
            assert v == direct
            assert v.is_zero == (i == j)


# -- maps -------------------------------------------------------------------

def test_identity_map_obstruction_is_lift_difference(z4_prob):
    """o(1 | d1, d2) = [d2 - d1] as degree-1 classes."""
    cl = classify_lifts(z4_prob)
    one_mid = identity_map(z4_prob.defalg.mid, OB3)
    for i in (0, 1, 2):
        for j in (0, 1):
            C = Complex(z4_prob.defalg.bar, OB3, cl.reps[i])
            D = Complex(z4_prob.defalg.bar, OB3, cl.reps[j])
            prob = MapProblem(z4_prob.defalg, C, D, one_mid)
            cls, _ = obstruct_map(prob)
            vc = v_class(z4_prob, cl.reps[i], cl.reps[j])
            assert (cls.rep == vc.rep) and (cls.is_zero == (i == j))


def test_map_lift_and_classification(z4_prob):
    cl = classify_lifts(z4_prob)
    C = Complex(z4_prob.defalg.bar, OB3, cl.reps[0])
    one_mid = identity_map(z4_prob.defalg.mid, OB3)
    prob = MapProblem(z4_prob.defalg, C, C, one_mid)
    rep = lift_map(prob)
    assert not rep.obstructed
    assert delta(rep.lifted, C.d, C.d).is_zero()
    mc = classify_map_lifts(prob)
    assert mc.count == 2 ** prob.kernel.h_dim(0)
    for w in mc.reps:
        assert delta(w, C.d, C.d).is_zero()
        assert map_reduce(prob.defalg, w, "bar", "mid") == one_mid


def test_broken_correction_is_an_internal_error_not_an_obstruction(z4, monkeypatch):
    """A solve that returns a wrong correction trips the post-check."""
    ob = GradedObject.of({0: 1, 1: 1})
    one = AlgMatrix(z4.bar, np.ones((1, 1, 1, 1), dtype=np.int64))
    C = Complex(z4.bar, ob, GradedMap(z4.bar, ob, ob, 1, {0: one}))
    prob = MapProblem(z4, C, C, identity_map(z4.mid, ob))
    solve = KernelComplex.solve_coboundary

    def wrong(self, vec, n):
        x = solve(self, vec, n)
        x[0] += 1              # gamma_0 = 1 on C^0: delta(gamma) != 0
        return x

    monkeypatch.setattr(KernelComplex, "solve_coboundary", wrong)
    with pytest.raises(InternalObstruction):
        lift_map(prob)


def test_homotopic_maps_have_equal_obstruction(t3):
    """g = f + delta(h) at the mid level gives o(f) = o(g)."""
    rng = np.random.default_rng(0)
    ob = GradedObject.of({0: 1, 1: 2, 2: 1})
    d_mid = zero_map(t3.mid, ob, ob, 1)
    dp = DifferentialProblem(t3, ob, d_mid)
    dbar = classify_lifts(dp).reps[1]   # a nonzero lift of the zero complex
    C = Complex(t3.bar, ob, dbar)
    mid = t3.mid

    def rand_mid(n):
        comps = {}
        for i in ob.support:
            r, c = ob.rank(i + n), ob.rank(i)
            if r:
                data = np.stack(
                    [rng.integers(0, int(o), size=(r, c, t3.k))
                     for o in mid.ring.orders], axis=-1).astype(np.int64)
            else:
                continue
            comps[i] = AlgMatrix(mid, data)
        return GradedMap(mid, ob, ob, n, comps)

    dCm = map_reduce(t3, C.d, "bar", "mid")
    for _ in range(5):
        h = rand_mid(-1)
        f = delta(rand_mid(-1), dCm, dCm)   # a mid cochain map
        g = f + delta(h, dCm, dCm)
        of, _ = obstruct_map(MapProblem(t3, C, C, f))
        og, _ = obstruct_map(MapProblem(t3, C, C, g))
        assert of == og


# -- homotopies -------------------------------------------------------------

def test_homotopy_lifting_with_known_primitive(z4_prob):
    defalg = z4_prob.defalg
    cl = classify_lifts(z4_prob)
    C = Complex(defalg.bar, OB3, cl.reps[0])
    rng = np.random.default_rng(1)
    data = {i: AlgMatrix(defalg.bar,
                         rng.integers(0, 4, size=(1, 1, 1, 1)).astype(np.int64))
            for i in (1, 2)}
    hbar = GradedMap(defalg.bar, OB3, OB3, -1, data)
    f = identity_map(defalg.bar, OB3)
    g = f + delta(hbar, C.d, C.d)
    H_mid = map_reduce(defalg, hbar, "bar", "mid")
    prob = HomotopyProblem(defalg, C, C, f, g, H_mid)
    cls, _ = obstruct_homotopy(prob)
    assert cls.is_zero
    rep = lift_homotopy(prob)
    assert delta(rep.lifted, C.d, C.d) == g - f
