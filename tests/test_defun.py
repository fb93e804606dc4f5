"""Deformation functors over artinian local F_p-algebras."""

import itertools

import numpy as np
import pytest

from sqzlift import defun
from sqzlift.algebra import AlgMatrix, LevelAlgebra
from sqzlift.complexes import GradedMap, GradedObject, compose, identity_map
from sqzlift.defun import (
    ArtinLocalRing,
    check_smoothness,
    check_triple,
    extend_order,
    find_intertwiner,
    functor_eval,
    is_small,
    iso_orbits,
    map_coords,
    schlessinger_check,
    strict_lifts,
    tangent_dim,
    tensor_algebra,
    trivial_base_algebra,
    unipotent_inverse,
)
from sqzlift.errors import CapExceeded, NotLocal, ValidationError
from sqzlift.finring import FiniteRing, mk_tower, trunc_poly_ring, zmod_ring

OB2 = GradedObject.of({0: 1, 1: 1})
OB3 = GradedObject.of({0: 1, 1: 1, 2: 1})


@pytest.fixture(scope="module")
def alg0():
    return trivial_base_algebra(2)


@pytest.fixture(scope="module")
def d0_zero(alg0):
    return GradedMap(alg0, OB2, OB2, 1, {})


def test_artin_ring_validation():
    ArtinLocalRing(trunc_poly_ring(2, 3))
    with pytest.raises(ValidationError):
        ArtinLocalRing(zmod_ring(2, 2))   # Z/4 is not an F_2-algebra
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    mult[1, 1, 0] = 1
    mult[1, 1, 1] = 1
    with pytest.raises(NotLocal):
        ArtinLocalRing(FiniteRing(2, np.array([2, 2]), mult, ("1", "w")))


def test_residue_and_section():
    A = ArtinLocalRing(trunc_poly_ring(3, 2))
    for c in range(3):
        v = A.section(c)
        assert A.residue(v) == c
        assert A.residue((v + np.array([0, 2])) % 3) == c


def test_value_on_the_field_is_a_singleton(alg0, d0_zero):
    A = ArtinLocalRing(zmod_ring(2, 1))
    values = functor_eval(A, alg0, OB2, d0_zero)
    for tag in ("F0", "F", "F1"):
        assert len(values[tag].classes) == 1


def test_tangent_dimension_counts_first_order_lifts(alg0, d0_zero):
    A = ArtinLocalRing(trunc_poly_ring(2, 2))
    t = tangent_dim(alg0, OB2, d0_zero)
    assert t == 1
    val = functor_eval(A, alg0, OB2, d0_zero)["F"]
    assert len(val.classes) == 2 ** t


def test_f1_cross_check_agrees(alg0, d0_zero):
    A = ArtinLocalRing(trunc_poly_ring(2, 2))
    values = functor_eval(A, alg0, OB2, d0_zero, cross_check=True)
    assert values["F1"].classes == values["F"].classes


def test_f1_cross_check_nonzero_differential(alg0):
    one = AlgMatrix(alg0, np.ones((1, 1, 1, 1), dtype=np.int64))
    d = GradedMap(alg0, OB3, OB3, 1, {0: one})
    A = ArtinLocalRing(trunc_poly_ring(2, 2))
    val = functor_eval(A, alg0, OB3, d, cross_check=True)["F1"]
    assert len(val.classes) == 1   # tangent dimension is 0 here
    assert tangent_dim(alg0, OB3, d) == 0


def test_strict_lifts_are_honest(alg0):
    from sqzlift.complexes import compose
    A = ArtinLocalRing(trunc_poly_ring(2, 2))
    one = AlgMatrix(alg0, np.ones((1, 1, 1, 1), dtype=np.int64))
    d = GradedMap(alg0, OB3, OB3, 1, {0: one})
    lifts = strict_lifts(A, alg0, OB3, d)
    assert lifts
    for L in lifts:
        assert compose(L, L).is_zero()


def test_is_small():
    from sqzlift.finring import RingSurjection
    assert is_small(mk_tower("trunc_poly", 2, a=2, b=1).pibar)
    # F_2[t]/t^3 -> F_2 has kernel (t) with 4 elements: not small
    src = trunc_poly_ring(2, 3)
    tgt = trunc_poly_ring(2, 1)
    images = np.zeros((3, 1), dtype=np.int64)
    images[0, 0] = 1
    assert not is_small(RingSurjection(src, tgt, images))


def test_fiber_product_bijection(alg0, d0_zero):
    pi = mk_tower("trunc_poly", 2, a=2, b=1).pibar
    tr = check_triple(pi, pi, alg0, OB2, d0_zero)
    assert tr.f0_bijective
    assert tr.f_surjective
    assert tr.sizes["F0(P)"] == tr.sizes["F0(R')"] * tr.sizes["F0(R'')"]


def test_smoothness_by_conjugation(alg0, d0_zero):
    pi = mk_tower("trunc_poly", 2, a=3, b=2).pibar
    rep = check_smoothness(pi, alg0, OB2, d0_zero)
    assert rep.ok and not rep.vacuous


def test_schlessinger_battery(alg0, d0_zero):
    small = mk_tower("trunc_poly", 2, a=2, b=1).pibar
    smooth = mk_tower("trunc_poly", 2, a=3, b=2).pibar
    rep = schlessinger_check(alg0, OB2, d0_zero, [(small, small)], [smooth])
    assert rep.ok


def test_schlessinger_at_p3():
    alg0 = trivial_base_algebra(3)
    d0 = GradedMap(alg0, OB2, OB2, 1, {})
    small = mk_tower("trunc_poly", 3, a=2, b=1).pibar
    rep = schlessinger_check(alg0, OB2, d0, [(small, small)], [])
    assert rep.ok


def test_extend_order_unobstructed(alg0):
    alg_t1 = tensor_algebra(trunc_poly_ring(2, 1), alg0)
    d = GradedMap(alg_t1, OB2, OB2, 1, {})
    rep = extend_order(2, alg0, OB2, d, 1)
    assert not rep.obstructed


def test_extend_order_tt_obstruction(alg0):
    """The order-2 one-parameter deformation d = (t, t) of the three-term
    zero complex does not extend to order 3."""
    alg_t2 = tensor_algebra(trunc_poly_ring(2, 2), alg0)
    tvec = np.zeros((1, 1, 1, 2), dtype=np.int64)
    tvec[0, 0, 0, 1] = 1
    d = GradedMap(alg_t2, OB3, OB3, 1,
                  {0: AlgMatrix(alg_t2, tvec), 1: AlgMatrix(alg_t2, tvec.copy())})
    rep = extend_order(2, alg0, OB3, d, 2)
    assert rep.obstructed
    assert rep.obstruction.rep == (1,)


def test_orbits_cover_all_lifts(alg0, d0_zero):
    A = ArtinLocalRing(trunc_poly_ring(2, 2))
    lifts = strict_lifts(A, alg0, OB2, d0_zero)
    orbits = iso_orbits(A, alg0, OB2, lifts)
    covered = sorted(i for orb in orbits for i in orb)
    assert covered == list(range(len(lifts)))


# -- the batched unipotent group against per-conjugator GradedMap arithmetic --

def _base_algebra(p, kind):
    """Base algebras over F_p: trivial, dual numbers F_p[e]/e^2, or the
    upper-triangular T_2(F_p) with basis e11, e12, e22."""
    if kind == "trivial":
        return trivial_base_algebra(p)
    if kind == "dual":
        struct = np.zeros((2, 2, 2, 1), dtype=np.int64)
        struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 0, 1] = 1
        return LevelAlgebra(zmod_ring(p, 1), struct, np.array([[1], [0]]))
    struct = np.zeros((3, 3, 3, 1), dtype=np.int64)
    struct[0, 0, 0] = struct[0, 1, 1] = struct[1, 2, 1] = struct[2, 2, 2] = 1
    return LevelAlgebra(zmod_ring(p, 1), struct, np.array([[1], [0], [1]]))


def _unipotents(A, algR, ob):
    """Every u = 1 + nu, nu with coefficients in m, in enumeration order:
    the digits of the index, least significant first, pick the coefficients
    in degree, row, column, algebra-basis order."""
    one = identity_map(algR, ob)
    ncoef = sum(r * r for _, r in ob.ranks) * algR.k
    for digits in itertools.product(range(A.msize), repeat=ncoef):
        vecs = A.mvecs[list(digits[::-1])]
        comps, pos = {}, 0
        for i, r in ob.ranks:
            size = r * r * algR.k
            comps[i] = AlgMatrix(algR, vecs[pos:pos + size].reshape(r, r, algR.k, -1))
            pos += size
        yield one + GradedMap(algR, ob, ob, 0, comps)


def _reference_orbits(A, ob, lifts):
    """Orbits by compose and unipotent_inverse, one conjugator at a time.
    An orbit that already holds every lift outside the earlier orbits is
    complete, so its scan stops there."""
    algR = lifts[0].alg
    index = {map_coords(d): i for i, d in enumerate(lifts)}
    conjugators = []
    orbits, seen = [], set()
    for i, d in enumerate(lifts):
        if i in seen:
            continue
        unseen = set(range(len(lifts))) - seen
        orbit = set()
        for n, u in enumerate(_unipotents(A, algR, ob)):
            if n == len(conjugators):
                conjugators.append(unipotent_inverse(algR, u))
            orbit.add(index[map_coords(compose(compose(u, d), conjugators[n]))])
            if orbit == unseen:
                break
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return orbits


def _scalar_diff(alg0, ob, entries):
    """Base differential C^0 -> C^1 with the given scalar column."""
    data = np.zeros((ob.rank(1), ob.rank(0), alg0.k, 1), dtype=np.int64)
    data[:, 0, 0, 0] = entries
    return GradedMap(alg0, ob, ob, 1, {0: AlgMatrix(alg0, data)})


SMALL_BLOCK = 1   # one conjugator per block: orbits grow across blocks


@pytest.mark.parametrize("p, a, kind, ranks, entries, block", [
    (3, 3, "trivial", (1, 2), (1, 0), None),  # one orbit of 81 lifts, 9^5 conjugators
    (2, 3, "trivial", (1, 2), (1, 0), SMALL_BLOCK),  # one orbit of 16, 4^5 conjugators
    (3, 3, "trivial", (1, 1), (0,), None),    # orbits {0}, (t), (t^2) up to units
    (3, 3, "trivial", (1, 1), (0,), SMALL_BLOCK),
    (3, 2, "dual", (1, 1), (0,), None),       # k = 2
    (3, 2, "dual", (1, 1), (0,), SMALL_BLOCK),
    (2, 2, "upper", (1, 1), (0,), None),      # k = 3, noncommutative
    (2, 2, "upper", (1, 1), (0,), SMALL_BLOCK),
])
def test_batched_orbits_match_per_conjugator_reference(monkeypatch, p, a, kind, ranks,
                                                       entries, block):
    if block:
        monkeypatch.setattr(defun, "_BLOCK", block)
    alg0 = _base_algebra(p, kind)
    ob = GradedObject.of(dict(enumerate(ranks)))
    A = ArtinLocalRing(trunc_poly_ring(p, a))
    lifts = strict_lifts(A, alg0, ob, _scalar_diff(alg0, ob, entries))
    orbits = iso_orbits(A, alg0, ob, lifts)
    assert orbits == _reference_orbits(A, ob, lifts)
    assert len(orbits) > 1 or len(lifts) > 1


def test_oversized_group_raises_cap_exceeded(alg0):
    ob = GradedObject.of({0: 2, 1: 2, 2: 2})
    A = ArtinLocalRing(trunc_poly_ring(2, 3))
    zero = GradedMap(tensor_algebra(A.ring, alg0), ob, ob, 1, {})
    with pytest.raises(CapExceeded, match="16777216 automorphism candidates"):
        iso_orbits(A, alg0, ob, [zero])
    lifts = strict_lifts(A, alg0, OB2, GradedMap(alg0, OB2, OB2, 1, {}))
    assert len(iso_orbits(A, alg0, OB2, lifts, cap=16)) == 3
    with pytest.raises(CapExceeded, match="16 automorphism candidates exceed the cap 15"):
        iso_orbits(A, alg0, OB2, lifts, cap=15)


def test_functor_eval_fails_on_the_conjugator_cap_before_enumerating(monkeypatch):
    # over F_3[t]/t^2 with ranks (2, 2): 3^4 = 81 strict-lift candidates fit
    # the cap of 100, 3^8 = 6561 conjugators do not
    alg0 = trivial_base_algebra(3)
    A = ArtinLocalRing(trunc_poly_ring(3, 2))
    ob = GradedObject.of({0: 2, 1: 2})
    d0 = GradedMap(alg0, ob, ob, 1, {})
    assert len(strict_lifts(A, alg0, ob, d0, cap=100)) == 81
    calls = {"strict_lifts": 0, "compose over R": 0}

    def counting_strict_lifts(*args, **kwargs):
        calls["strict_lifts"] += 1
        return strict_lifts(*args, **kwargs)

    def counting_compose(f, g):
        if f.alg.ring.m > 1:
            calls["compose over R"] += 1
        return compose(f, g)

    monkeypatch.setattr(defun, "strict_lifts", counting_strict_lifts)
    monkeypatch.setattr(defun, "compose", counting_compose)
    with pytest.raises(CapExceeded, match="6561 automorphism candidates exceed the cap 100"):
        functor_eval(A, alg0, ob, d0, cap=100)
    assert calls == {"strict_lifts": 0, "compose over R": 0}
    # the strict-lift cap is still checked first
    with pytest.raises(CapExceeded, match="81 strict-lift candidates exceed the cap 80"):
        functor_eval(A, alg0, ob, d0, cap=80)


@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
def test_find_intertwiner_returns_the_first_enumerated(monkeypatch, alg0, block):
    if block:
        monkeypatch.setattr(defun, "_BLOCK", block)
    ob = GradedObject.of({0: 1, 1: 2})
    A = ArtinLocalRing(trunc_poly_ring(2, 3))
    lifts = strict_lifts(A, alg0, ob, _scalar_diff(alg0, ob, (1, 0)))
    zero_lifts = strict_lifts(A, alg0, ob, GradedMap(alg0, ob, ob, 1, {}))
    for d1, d2 in [(lifts[0], lifts[5]), (lifts[3], lifts[3]),
                   (zero_lifts[0], zero_lifts[1])]:
        first = next((u for u in _unipotents(A, d1.alg, ob)
                      if compose(u, d1) == compose(d2, u)), None)
        found = find_intertwiner(A, ob, d1, d2)
        assert (found is None) == (first is None)
        if first is not None:
            assert found == first
    assert find_intertwiner(A, ob, zero_lifts[0], zero_lifts[1]) is None
