"""Graded maps, the differential delta, and Hom-complex coordinates."""

import numpy as np
import pytest

from sqzlift.complexes import (
    Complex,
    GradedMap,
    GradedObject,
    HomComplex,
    PreComplex,
    compose,
    coefficient_orders,
    delta,
    delta_generators,
    delta_solutions,
    identity_map,
    map_lift,
    map_reduce,
    zero_map,
)
from sqzlift.errors import CapExceeded, NotADifferential
from sqzlift.algebra import AlgMatrix, LevelAlgebra, mk_algebra
from sqzlift.finring import mk_tower, trunc_poly_ring, zmod_ring

from conftest import delta_generators_reference, enumerate_graded_maps, from_coefficients
from test_defun import _base_algebra


@pytest.fixture(scope="module")
def A3():
    return mk_algebra(mk_tower("trunc_poly", 3, a=3, b=2), "trivial")


def _rand_map(rng, alg, src, tgt, n):
    comps = {}
    for i in src.support:
        r, c = tgt.rank(i + n), src.rank(i)
        if r == 0:
            continue
        data = np.stack([rng.integers(0, int(o), size=(r, c, alg.k))
                         for o in alg.ring.orders], axis=-1).astype(np.int64)
        comps[i] = AlgMatrix(alg, data)
    return GradedMap(alg, src, tgt, n, comps)


def _rand_precomplex(rng, alg, ob):
    return _rand_map(rng, alg, ob, ob, 1)


def test_compose_degrees_add(A3):
    rng = np.random.default_rng(0)
    ob = GradedObject.of({0: 2, 1: 1, 2: 2})
    f = _rand_map(rng, A3.mid, ob, ob, 1)
    g = _rand_map(rng, A3.mid, ob, ob, -1)
    assert compose(g, f).degree == 0
    assert compose(f, g).degree == 0


def test_delta_squared_is_conjugation_by_d_squared(A3):
    """delta(delta(u)) = d_D^2 u - u d_C^2 for arbitrary graded data."""
    rng = np.random.default_rng(1)
    ob = GradedObject.of({0: 2, 1: 2, 2: 1, 3: 1})
    for n in (-1, 0, 1):
        dC = _rand_precomplex(rng, A3.mid, ob)
        dD = _rand_precomplex(rng, A3.mid, ob)
        u = _rand_map(rng, A3.mid, ob, ob, n)
        lhs = delta(delta(u, dC, dD), dC, dD)
        rhs = compose(compose(dD, dD), u) - compose(u, compose(dC, dC))
        assert lhs == rhs


def test_leibniz_rule_odd_characteristic(A3):
    """delta(v u) = delta(v) u + (-1)^|v| v delta(u), checked at p = 3 where
    signs are visible."""
    rng = np.random.default_rng(2)
    ob = GradedObject.of({0: 2, 1: 2, 2: 2, 3: 1})
    dC = _rand_precomplex(rng, A3.mid, ob)
    dD = _rand_precomplex(rng, A3.mid, ob)
    dE = _rand_precomplex(rng, A3.mid, ob)
    for nu, nv in [(0, 1), (1, 1), (-1, 1), (1, -1), (1, 0)]:
        u = _rand_map(rng, A3.mid, ob, ob, nu)    # C -> D
        v = _rand_map(rng, A3.mid, ob, ob, nv)    # D -> E
        lhs = delta(compose(v, u), dC, dE)
        rhs = compose(delta(v, dD, dE), u)
        term = compose(v, delta(u, dC, dD))
        if nv % 2 == 1:
            rhs = rhs - term
        else:
            rhs = rhs + term
        assert lhs == rhs


def test_delta_of_identity_vanishes(A3):
    rng = np.random.default_rng(3)
    ob = GradedObject.of({0: 2, 1: 1})
    dC = _rand_precomplex(rng, A3.mid, ob)
    one = identity_map(A3.mid, ob)
    assert delta(one, dC, dC).is_zero()


def test_complex_rejects_nonzero_square(A3):
    ob = GradedObject.of({0: 1, 1: 1, 2: 1})
    one = np.zeros((1, 1, 1, 2), dtype=np.int64)
    one[0, 0, 0, 0] = 1
    d = GradedMap(A3.mid, ob, ob, 1, {0: AlgMatrix(A3.mid, one),
                                      1: AlgMatrix(A3.mid, one.copy())})
    with pytest.raises(NotADifferential):
        Complex(A3.mid, ob, d)
    PreComplex(A3.mid, ob, d)   # pre-complexes carry any degree-1 map


def test_map_lift_then_reduce_roundtrip(A3):
    rng = np.random.default_rng(5)
    ob = GradedObject.of({0: 2, 1: 1})
    f = _rand_map(rng, A3.mid, ob, ob, 0)
    assert map_reduce(A3, map_lift(A3, f), "bar", "mid") == f


def test_hom_complex_flatten_roundtrip(A3):
    rng = np.random.default_rng(6)
    obC = GradedObject.of({0: 2, 1: 1})
    obD = GradedObject.of({0: 1, 1: 2})
    d0 = zero_map(A3.base, obC, obC, 1)
    e0 = zero_map(A3.base, obD, obD, 1)
    hc = HomComplex(A3.base, obC, obD, d0, e0)
    for n in (-1, 0, 1):
        f = _rand_map(rng, A3.base, obC, obD, n)
        v = f.coef
        assert v.shape == (hc.dim(n),)
        assert from_coefficients(A3.base, obC, obD, n, v) == f


def test_hom_complex_delta_matrix_matches_delta(A3):
    rng = np.random.default_rng(7)
    ob = GradedObject.of({0: 1, 1: 2, 2: 1})
    dC = _rand_precomplex(rng, A3.base, ob)
    if not compose(dC, dC).is_zero():
        # build an honest complex instead: upper-triangular trick, d = 0
        dC = zero_map(A3.base, ob, ob, 1)
    hc = HomComplex(A3.base, ob, ob, dC, dC)
    for n in (-1, 0, 1):
        f = _rand_map(rng, A3.base, ob, ob, n)
        direct = delta(f, dC, dC).coef
        via_matrix = (hc.delta_matrix(n) @ f.coef) % 3
        assert np.array_equal(direct, via_matrix)


def _t2(ring):
    """Upper-triangular T_2(ring) with basis e11, e12, e22."""
    one = ring.one_vec()
    struct = np.zeros((3, 3, 3, ring.m), dtype=np.int64)
    struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 2, 1] = struct[2, 2, 2] = one
    return LevelAlgebra(ring, struct, np.stack([one, 0 * one, one]))


@pytest.mark.parametrize("level", [
    "F_3", "T_2(F_2)", "T_2(F_3)", "F_3[e]/e^2", "Z/4", "Z/9 (x) T_2",
    "F_3[t]/t^3 (x) T_2",
])
def test_closed_form_delta_matches_the_per_generator_reference(level, z4):
    """delta_generators against delta applied to one GradedMap per generator:
    noncommutative algebras, two generators per coefficient over Z/4 and Z/9,
    m > 1, d that need not square to zero, and degrees where Hom^n or
    Hom^{n+1} has empty blocks."""
    alg = {"F_3": lambda: _base_algebra(3, "trivial"),
           "T_2(F_2)": lambda: _base_algebra(2, "t2"),
           "T_2(F_3)": lambda: _base_algebra(3, "t2"),
           "F_3[e]/e^2": lambda: _base_algebra(3, "dual"),
           "Z/4": lambda: z4.bar,
           "Z/9 (x) T_2": lambda: _t2(zmod_ring(3, 2)),
           "F_3[t]/t^3 (x) T_2": lambda: _t2(trunc_poly_ring(3, 3))}[level]()
    rng = np.random.default_rng(8)
    pairs = [(GradedObject.of({0: 1, 1: 2, 2: 1}), GradedObject.of({0: 1, 1: 2, 2: 1})),
             (GradedObject.of({-1: 2, 0: 1, 2: 1}), GradedObject.of({0: 1, 1: 1, 3: 2})),
             (GradedObject.of({0: 1, 1: 1}), GradedObject.of({1: 2, 2: 1}))]
    empty = 0
    for obC, obD in pairs:
        dC, dD = _rand_precomplex(rng, alg, obC), _rand_precomplex(rng, alg, obD)
        for n in range(-3, 3):
            got = delta_generators(alg, dC, dD, n)
            want = delta_generators_reference(alg, dC, dD, n)
            assert got.shape == want.shape and np.array_equal(got, want)
            empty += 0 in got.shape
    assert empty


def _generator_rows(alg, obC, obD, n):
    """The generators p^t e_q (t < e) of Hom^n, in coefficient order."""
    orders = coefficient_orders(alg, obC, obD, n)
    rows = []
    for q, order in enumerate(orders.tolist()):
        t = 1
        while t < order:
            rows.append(np.eye(len(orders), dtype=np.int64)[q] * t)
            t *= alg.ring.p
    return np.array(rows, dtype=np.int64).reshape(-1, len(orders)), orders


@pytest.mark.parametrize("level", ["Z/4", "F_3[t]/t^2"])
def test_delta_solutions_match_the_enumeration_within_the_cap(level, z4, A3):
    """delta_solutions against one GradedMap per map, for targets inside and
    outside the image; the digits over the generators cover every map once,
    and a cap one below the count of maps raises before anything is tested."""
    ob = GradedObject.of({0: 1, 1: 1, 2: 1})
    if level == "Z/4":
        alg = z4.bar
        two = AlgMatrix(alg, np.full((1, 1, 1, 1), 2, dtype=np.int64))
        d = GradedMap(alg, ob, ob, 1, {0: two, 1: two})
    else:
        alg = A3.mid
        t = AlgMatrix(alg, np.array([[[[0, 1]]]], dtype=np.int64))
        d = GradedMap(alg, ob, ob, 1, {0: t, 1: t})
    for n in (-1, 0):
        maps = list(enumerate_graded_maps(alg, ob, ob, n, 1 << 12))
        gens, orders = _generator_rows(alg, ob, ob, n)
        assert len(maps) == alg.ring.p ** len(gens)
        images = [delta(f, d, d) for f in (maps[0], maps[-1], maps[len(maps) // 3])]
        one = AlgMatrix(alg, alg.unit[None, None])
        outside = GradedMap(alg, ob, ob, n + 1, {0: one})   # d is nilpotent
        for target in images + [outside, zero_map(alg, ob, ob, n + 1)]:
            want = {tuple(f.coef.tolist()) for f in maps
                    if delta(f, d, d) == target}
            hits = delta_solutions(alg, d, d, n, target, len(maps))
            digits = np.array([[i // alg.ring.p ** s % alg.ring.p
                                for s in range(len(gens))] for i in hits.tolist()],
                              dtype=np.int64).reshape(-1, len(gens))
            got = [tuple(v) for v in ((digits @ gens) % orders).tolist()]
            assert len(got) == len(set(got)) and set(got) == want
        with pytest.raises(CapExceeded, match=f"^{len(maps)} graded maps exceed "
                                              f"the cap {len(maps) - 1}$"):
            delta_solutions(alg, d, d, n, zero_map(alg, ob, ob, n + 1), len(maps) - 1)
