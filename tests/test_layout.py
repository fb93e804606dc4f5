"""The coefficient layout of a graded map: a GradedMap is its reduced
coefficient vector, and its components, checks and level changes read it."""

import numpy as np
import pytest

from sqzlift import defun
from sqzlift.algebra import AlgMatrix
from sqzlift.complexes import (
    GradedMap,
    GradedObject,
    block_view,
    coefficient_count,
    compose,
    identity_map,
    map_lift,
    map_reduce,
    zero_map,
)
from sqzlift.defun import ArtinLocalRing, functor_eval, strict_lifts, trivial_base_algebra
from sqzlift.errors import LevelMismatch, ShapeMismatch
from sqzlift.finring import trunc_poly_ring

from conftest import from_coefficients
from test_stacked_residuals import _defalg, _rand_map

OB = GradedObject.of({-1: 1, 0: 2, 1: 1, 3: 2})
OTHER = GradedObject.of({0: 1, 1: 2, 2: 1})


@pytest.mark.parametrize("tower, algebra", [
    ("square_zero(3;r=2)", "trivial"),      # dim J = 2
    ("square_zero(3;r=2)", "T2"),
    ("trunc_poly(3;3,2)", "T2"),             # noncommutative, k = 3
    ("zmod(2;2,1)", "dual"),
])
@pytest.mark.parametrize("level", ["bar", "mid", "base"])
def test_coefficients_round_trip_and_comps_are_the_nonzero_blocks(tower, algebra, level):
    da = _defalg(tower, algebra)
    alg = da.level(level)
    rng = np.random.default_rng(7)
    for n in (-1, 0, 1, 2):
        for degrees in (None, set(), {0}, {-1, 3}):
            f = _rand_map(rng, alg, OB, OTHER, n, degrees)
            vec = f.coef
            assert vec.shape == (coefficient_count(alg, OB, OTHER, n),)
            assert from_coefficients(alg, OB, OTHER, n, vec) == f
            # reduction happens on the way in
            assert from_coefficients(alg, OB, OTHER, n, vec + np.tile(alg.ring.orders,
                                     len(vec) // alg.ring.m)) == f
            comps = f.comps
            every = block_view(alg, OB, OTHER, n, vec[None])
            want = {i for i, blk in every.items() if blk.any()}
            assert set(comps) == set(f.blocks()) == want
            for i, mat in comps.items():
                assert isinstance(mat, AlgMatrix) and mat.alg is alg
                assert np.array_equal(mat.data, every[i][0])
                assert np.shares_memory(f.blocks()[i], vec)   # a view, not a copy
            assert GradedMap(alg, OB, OTHER, n, comps) == f
            assert f.is_zero() == (not comps)


def test_arithmetic_and_level_changes_are_vector_operations():
    da = _defalg("square_zero(3;r=2)", "T2")
    rng = np.random.default_rng(8)
    f, g = (_rand_map(rng, da.bar, OB, OTHER, 0) for _ in range(2))
    orders = np.tile(da.bar.ring.orders, len(f.coef) // da.bar.ring.m)
    assert np.array_equal((f + g).coef, (f.coef + g.coef) % orders)
    assert np.array_equal((f - g).coef, (f.coef - g.coef) % orders)
    assert np.array_equal((-f).coef, -f.coef % orders)
    assert (f - f).is_zero() and f - f == zero_map(da.bar, OB, OTHER, 0)
    down = map_reduce(da, f, "bar", "mid")
    rows = f.coef.reshape(-1, da.bar.ring.m)
    assert np.array_equal(down.coef, da.tower.pibar.apply_many(rows).reshape(-1))
    assert map_reduce(da, map_lift(da, down), "bar", "mid") == down


def test_wrong_length_algebra_or_shape_is_refused():
    da = _defalg("trunc_poly(3;3,2)", "T2")
    n = coefficient_count(da.mid, OB, OTHER, 0)
    for bad in (np.zeros(n - 1, np.int64), np.zeros(n + 1, np.int64), np.zeros((1, n), np.int64)):
        with pytest.raises(ShapeMismatch):
            from_coefficients(da.mid, OB, OTHER, 0, bad)
    with pytest.raises(LevelMismatch):                    # a component over another level
        GradedMap(da.mid, OB, OTHER, 0, {0: AlgMatrix(da.bar, np.zeros((2, 2, 3, 3)))})
    with pytest.raises(ShapeMismatch):                    # 2x2 where 1x2 fits
        GradedMap(da.mid, OB, OTHER, 0, {0: AlgMatrix(da.mid, np.zeros((2, 2, 3, 2)))})
    with pytest.raises(ShapeMismatch):
        GradedMap.from_arrays(da.mid, OB, OTHER, 0, {0: np.zeros((2, 2, 3, 2), np.int64)})
    f = zero_map(da.mid, OB, OTHER, 0)
    with pytest.raises(ShapeMismatch):                    # not parallel
        f + zero_map(da.mid, OB, OTHER, 1)
    with pytest.raises(LevelMismatch):                    # reduce a map from the wrong level
        map_reduce(da, f, "bar", "mid")
    with pytest.raises(ShapeMismatch):
        compose(f, identity_map(da.mid, OTHER))


def test_strict_lifts_and_orbits_build_no_matrix_or_checked_map_per_lift(monkeypatch):
    """The strict lifts are one stack: no AlgMatrix is built and no
    GradedMap is checked per lift, per conjugator or per orbit root."""
    alg0 = trivial_base_algebra(2)
    ob = GradedObject.of({0: 1, 1: 2, 2: 1})
    d0 = GradedMap(alg0, ob, ob, 1, {})
    A = ArtinLocalRing(trunc_poly_ring(2, 3))
    builds = {"AlgMatrix": 0, "GradedMap": 0}

    def counting(name, init):
        def wrapper(self, *args):
            builds[name] += 1
            return init(self, *args)
        return wrapper

    monkeypatch.setattr(AlgMatrix, "__post_init__", counting("AlgMatrix", AlgMatrix.__post_init__))
    monkeypatch.setattr(GradedMap, "__post_init__", counting("GradedMap", GradedMap.__post_init__))
    lifts = strict_lifts(A, alg0, ob, d0)
    assert len(lifts) == 160
    orbits = defun.iso_orbits(A, alg0, ob, lifts)
    values = functor_eval(A, alg0, ob, d0)
    assert builds == {"AlgMatrix": 0, "GradedMap": 0}
    assert sorted(orbits) == values["F"].classes and len(orbits) > 1
    assert values["F0"].elements == list(map(tuple, lifts.tolist()))
