"""Residuals, compose/delta and the J-coordinate codec on stacks of maps,
against the same computation on one GradedMap per row."""

import numpy as np
import pytest

from sqzlift.algebra import AlgMatrix, dual_numbers_algebra, mk_algebra
from sqzlift.complexes import (
    Complex,
    GradedMap,
    GradedObject,
    coefficient_orders,
    compose,
    delta,
    map_reduce,
    zero_map,
)
from sqzlift.errors import NotInKernel, ShapeMismatch
from sqzlift.finring import mk_tower
from sqzlift.obstruction import DifferentialProblem, HomotopyProblem, MapProblem, obstruct
from sqzlift.oracle import _square_zero_scalars

from conftest import from_coefficients

TOWERS = {"zmod(2;2,1)": ("zmod", 2, {"a": 2, "b": 1}),
          "trunc_poly(3;3,2)": ("trunc_poly", 3, {"a": 3, "b": 2}),
          "square_zero(3;r=2)": ("square_zero", 3, {"r": 2})}   # dim J = 2
ALGEBRAS = ("trivial", "dual", "T2")                             # k = 1, 2, 3
PAR = GradedObject.of({0: 1, 1: 2, 2: 1, 3: 1})
TWO = GradedObject.of({0: 1, 1: 1})
OB3 = GradedObject.of({0: 1, 1: 1, 2: 1})


def _defalg(tower, algebra):
    t = mk_tower(*TOWERS[tower][:2], **TOWERS[tower][2])
    if algebra == "trivial":
        return mk_algebra(t, "trivial")
    if algebra == "dual":
        return dual_numbers_algebra(t)
    one = t.Rbar.one_vec()   # upper-triangular T_2 with basis e11, e12, e22
    struct = np.zeros((3, 3, 3, t.Rbar.m), dtype=np.int64)
    struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 2, 1] = struct[2, 2, 2] = one
    return mk_algebra(t, "custom", struct=struct, unit=np.stack([one, 0 * one, one]))


def _scalar(alg, s):
    """The ring element s times the algebra's unit, as a 1x1 matrix."""
    return AlgMatrix(alg, np.stack([alg.ring.mul_vec(s, u) for u in alg.unit])[None, None])


def _rand_map(rng, alg, src, tgt, n, degrees=None):
    """A random degree-n map, nonzero only at the source degrees given."""
    comps = {}
    for i in src.support:
        if tgt.rank(i + n) and (degrees is None or i in degrees):
            shape = (tgt.rank(i + n), src.rank(i), alg.k, alg.ring.m)
            comps[i] = AlgMatrix(alg, rng.integers(0, alg.ring.orders, size=shape))
    return GradedMap(alg, src, tgt, n, comps)


def _parity_complex(rng, alg, ob):
    """A random top-level complex on ob, its differential zero from odd degrees."""
    return Complex(alg, ob, _rand_map(rng, alg, ob, ob, 1, degrees={0, 2}))


def _problems(tower, algebra):
    """(label, problem) pairs of every kind over one tower and algebra: each
    kind liftable by construction, and obstructed where the tower allows."""
    rng = np.random.default_rng(sum(map(ord, tower + algebra)))
    da = _defalg(tower, algebra)
    bar, t = da.bar, da.tower
    u = _scalar(bar, t.jbasis[0])   # a nonzero element of J
    out = []
    # differentials: the reduction of a top-level complex lifts; d = (s, s)
    # with s^2 = 0 at the mid level but not at the top level does not
    d = _parity_complex(rng, bar, PAR).d
    out.append(("differential", DifferentialProblem(da, PAR, map_reduce(da, d, "bar", "mid"))))
    for s in _square_zero_scalars(da.mid.ring)[:1]:
        sm = _scalar(da.mid, s)
        out.append(("differential", DifferentialProblem(
            da, OB3, GradedMap(da.mid, OB3, OB3, 1, {0: sm, 1: sm}))))
    # maps: delta of a top-level map lifts; the identity on degree 1
    # against d_C = u (which reduces to zero) does not
    C, D = _parity_complex(rng, bar, PAR), _parity_complex(rng, bar, TWO)
    for n in (-1, 0):
        f = delta(_rand_map(rng, bar, PAR, TWO, n - 1), C.d, D.d)
        out.append(("map", MapProblem(da, C, D, map_reduce(da, f, "bar", "mid"))))
    Cu = Complex(bar, TWO, GradedMap(bar, TWO, TWO, 1, {0: u}))
    Dz = Complex(bar, TWO, zero_map(bar, TWO, TWO, 1))
    one = GradedMap(da.mid, TWO, TWO, 0, {1: AlgMatrix(da.mid, da.mid.unit[None, None])})
    out.append(("map", MapProblem(da, Cu, Dz, one)))
    # homotopies: g = f + delta(k) lifts along k; g - f = u with d = 0 does not
    h, k = (_rand_map(rng, bar, PAR, TWO, -1) for _ in range(2))
    f = delta(h, C.d, D.d)
    out.append(("homotopy", HomotopyProblem(da, C, D, f, f + delta(k, C.d, D.d),
                                            map_reduce(da, k, "bar", "mid"))))
    g = GradedMap(bar, TWO, TWO, 0, {0: u, 1: u})
    out.append(("homotopy", HomotopyProblem(da, Dz, Dz, zero_map(bar, TWO, TWO, 0), g,
                                            zero_map(da.mid, TWO, TWO, -1))))
    return out


def _reference_residual(prob, X):
    """The defining equation of each kind, on one GradedMap."""
    if isinstance(prob, DifferentialProblem):
        return compose(X, X)
    if isinstance(prob, MapProblem):
        return delta(X, prob.C.d, prob.D.d)
    return prob.g_bar - prob.f_bar - delta(X, prob.C.d, prob.D.d)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("tower", TOWERS)
def test_stacked_residual_matches_the_per_map_residual(tower, algebra):
    seen = set()
    for kind, prob in _problems(tower, algebra):
        seen.add((kind, not obstruct(prob)[0].is_zero))
        K, m = prob.kernel, prob.degree
        bar, obC, obD = K.defalg.bar, K.hom.obC, K.hom.obD
        rng = np.random.default_rng(len(seen))
        X0 = prob.sigma_lift.coef
        orders = coefficient_orders(bar, obC, obD, m)
        for rows in (0, 1, 6):
            # candidate lifts X0 + gamma, and then arbitrary top-level maps
            lifts = X0 + K.out_of_kernel_stack(
                rng.integers(0, K.p, size=(rows, K.dim(m))), m)
            anything = rng.integers(0, orders, size=(rows, len(orders)))
            for stack in (lifts, anything):
                got = prob.residuals(stack)
                assert got.shape == (rows, len(coefficient_orders(bar, obC, obD, m + 1)))
                for row, vec in zip(got, stack):
                    X = from_coefficients(bar, obC, obD, m, vec)
                    want = _reference_residual(prob, X)
                    assert np.array_equal(row, want.coef)
                    assert prob.residual(X) == want
    kinds = {"differential", "map", "homotopy"}
    assert {k for k, _ in seen} == kinds
    assert {k for k, obstructed in seen if obstructed} == (
        kinds if tower == "trunc_poly(3;3,2)" else {"map", "homotopy"})
    assert {k for k, obstructed in seen if not obstructed} == kinds


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("tower", TOWERS)
def test_kernel_codec_round_trip_on_stacks(tower, algebra):
    _, prob = _problems(tower, algebra)[0]
    K = prob.kernel
    ring = K.defalg.bar.ring
    rng = np.random.default_rng(3)
    for n in (0, 1, 2):
        for rows in (0, 1, 5):
            vecs = rng.integers(0, K.p, size=(rows, K.dim(n)))
            stack = K.out_of_kernel_stack(vecs, n)
            assert np.array_equal(K.into_kernel_stack(stack), vecs)
            for vec, row in zip(vecs, stack):
                f = K.out_of_kernel(vec, n)
                assert np.array_equal(f.coef, row)
                assert np.array_equal(K.into_kernel(f), vec)
        # one coefficient of one row outside J
        stack = K.out_of_kernel_stack(rng.integers(0, K.p, size=(4, K.dim(n))), n)
        stack[2, :ring.m] = (stack[2, :ring.m] + ring.one_vec()) % ring.orders
        with pytest.raises(NotInKernel):
            K.into_kernel_stack(stack)
        K.into_kernel_stack(np.delete(stack, 2, axis=0))


def test_stacks_of_the_wrong_width_are_refused():
    """A stack is read only when each row holds exactly the map's coefficients."""
    for _, prob in _problems("zmod(2;2,1)", "dual"):
        K, m = prob.kernel, prob.degree
        bar, obC, obD = K.defalg.bar, K.hom.obC, K.hom.obD
        X0 = prob.sigma_lift.coef
        assert prob.residuals(X0[None]).shape[0] == 1
        for bad in (np.append(X0, 0)[None], X0[None, :-1], X0, np.stack([X0[None]] * 2)):
            with pytest.raises(ShapeMismatch, match="coefficients per row"):
                prob.residuals(bad)
        with pytest.raises(ShapeMismatch):
            from_coefficients(bar, obC, obD, m, np.append(X0, 0))
