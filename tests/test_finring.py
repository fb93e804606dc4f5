"""Finite rings, surjections, towers, and fiber products."""

import numpy as np
import pytest

from sqzlift import gf
from sqzlift.errors import (
    CharMismatch,
    IJNonzero,
    NonPrime,
    NotSurjective,
    ValidationError,
)
from sqzlift.finring import (
    FiniteRing,
    RingSurjection,
    mk_tower,
    minimal_section,
    ring_fiber_product,
    square_zero_ring,
    trunc_poly_ring,
    vec_key,
    zmod_ring,
)


def test_zmod_ring_arithmetic():
    R = zmod_ring(2, 2)   # Z/4
    assert R.cardinality == 4
    three = R.from_int(3)
    assert np.array_equal(R.mul_vec(three, three), R.from_int(1))
    assert R.is_unit_vec(three)
    assert not R.is_unit_vec(R.from_int(2))


def test_trunc_poly_ring_multiplication():
    R = trunc_poly_ring(3, 3)   # F_3[t]/t^3
    t = np.array([0, 1, 0])
    t2 = R.mul_vec(t, t)
    assert np.array_equal(t2, np.array([0, 0, 1]))
    assert not R.mul_vec(t2, t).any()   # t^3 = 0


def test_square_zero_ring_relations():
    R = square_zero_ring(2, 2)   # F_2[x, y]/(x, y)^2
    x = np.array([0, 1, 0])
    y = np.array([0, 0, 1])
    assert not R.mul_vec(x, x).any()
    assert not R.mul_vec(x, y).any()


def test_nonassociative_table_rejected():
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    mult[1, 1, 1] = 1   # b*b = b but b not idempotent-compatible with unit row
    orders = np.array([2, 2])
    # this table is commutative and associative; tweak to break associativity
    mult[1, 1, 0] = 1   # b^2 = 1 + b while b*1 = b: (bb)b != b(bb) fails? keep valid
    FiniteRing(2, orders, mult, ("1", "b"))   # F_4, should be accepted


def test_locality_detection():
    assert zmod_ring(2, 2).is_local()
    assert trunc_poly_ring(3, 2).is_local()
    # F_4 is local (it is a field) with residue field F_4, not F_p; but
    # is_local here asks for maximal ideal = nilpotents with index p
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    mult[1, 1, 0] = 1
    mult[1, 1, 1] = 1
    f4 = FiniteRing(2, np.array([2, 2]), mult, ("1", "w"))
    assert not f4.is_local()


def test_ring_order_above_the_cap_is_rejected():
    m = 64   # 2^64 elements: an int64 product of the orders wraps to 0
    mult = np.zeros((m, m, m), dtype=np.int64)
    for j in range(m):
        mult[0, j, j] = mult[j, 0, j] = 1
    with pytest.raises(ValidationError, match="exceeds cap"):
        FiniteRing(2, np.full(m, 2), mult)


@pytest.mark.parametrize("kind, params", [
    ("trunc_poly", {"a": 100, "b": 1}),
    ("zmod", {"a": 100, "b": 1}),
    ("square_zero", {"r": 99}),
    ("trunc_poly", {"a": 10 ** 12, "b": 1}),
])
def test_builtin_tower_above_the_cap_is_rejected_before_building(kind, params):
    with pytest.raises(ValidationError, match="exceeds cap"):
        mk_tower(kind, 2, **params)


def test_nonprime_rejected():
    with pytest.raises(NonPrime):
        mk_tower("zmod", 4, a=2, b=1)


def test_surjection_validation():
    R4, R2 = zmod_ring(2, 2), zmod_ring(2, 1)
    surj = RingSurjection(R4, R2, np.array([[1]]))
    assert np.array_equal(surj.apply_vec(np.array([3])), np.array([1]))
    with pytest.raises(NotSurjective):
        # 1 -> 1, t -> 0 on F_2[t]/t^2 is a well-defined endomorphism
        # whose image {0, 1} misses half the ring
        Re = trunc_poly_ring(2, 2)
        RingSurjection(Re, Re, np.array([[1, 0], [0, 0]]))
    with pytest.raises(CharMismatch):
        RingSurjection(R4, zmod_ring(3, 1), np.array([[1]]))


def test_minimal_section_roundtrip():
    R4, R2 = zmod_ring(2, 2), zmod_ring(2, 1)
    surj = RingSurjection(R4, R2, np.array([[1]]))
    sec = minimal_section(surj)
    for v in R2.elements():
        assert np.array_equal(surj.apply_vec(sec[vec_key(v)]), v)


@pytest.mark.parametrize("kind,p,params", [
    ("zmod", 2, {"a": 2, "b": 1}),
    ("trunc_poly", 2, {"a": 2, "b": 1}),
    ("trunc_poly", 3, {"a": 3, "b": 2}),
    ("square_zero", 5, {"r": 2}),
])
def test_tower_invariants(kind, p, params):
    tower = mk_tower(kind, p, **params)
    # J = Ker(Rbar -> R) is killed by p and by I = Ker(Rbar -> R0)
    Jv = tower.pibar.kernel_vectors()
    Iv = tower.pibar0.kernel_vectors()
    for j in Jv:
        assert not ((p * j) % tower.Rbar.orders).any()
        for i in Iv:
            assert not tower.Rbar.mul_vec(i, j).any()
    # J-coordinates are a bijection onto F_p^dimJ
    seen = set()
    for j in Jv:
        lam = tower.j_coords(j)
        assert lam is not None
        assert np.array_equal(tower.j_reconstruct(lam), j % tower.Rbar.orders)
        seen.add(tuple(int(x) for x in lam))
    assert len(seen) == p ** tower.dimJ == len(Jv)


@pytest.mark.parametrize("kind,p,params", [
    ("zmod", 3, {"a": 2, "b": 1}),
    ("trunc_poly", 2, {"a": 4, "b": 3}),
    ("square_zero", 2, {"r": 3}),
    ("square_zero", 3, {"r": 2}),
    ("square_zero", 5, {"r": 2}),
])
def test_j_basis_matches_the_greedy_rank_loop(kind, p, params):
    tower = mk_tower(kind, p, **params)
    vecs = tower.pibar.kernel_vectors()
    scale = tower.Rbar.orders // p
    keep, current = [], np.zeros((0, tower.Rbar.m), dtype=np.int64)
    for v in vecs:
        if not v.any():
            continue
        cand = np.vstack([current, ((v // scale) % p)[None, :]])
        if gf.rank(cand, p) > len(keep):
            keep.append(v)
            current = cand
    assert tower.jbasis.tolist() == [v.tolist() for v in keep]
    assert tower.dimJ == len(keep) >= 1


@pytest.mark.parametrize("kind, params", [
    ("zmod", {"a": 2, "b": 1}), ("zmod", {"a": 1, "b": 1}),
    ("trunc_poly", {"a": 3, "b": 2}), ("trunc_poly", {"a": 2, "b": 2}),
])
def test_builtin_tower_builds_each_ring_once(kind, params, monkeypatch):
    built = []
    init = FiniteRing.__post_init__
    monkeypatch.setattr(FiniteRing, "__post_init__",
                        lambda self: (built.append(self), init(self))[1])
    tower = mk_tower(kind, 3, **params)
    assert tower.pibar.source is tower.Rbar and tower.pibar.target is tower.R
    assert tower.pi.source is tower.R and tower.pi.target is tower.R0
    assert built == [tower.Rbar, tower.R, tower.R0]


def test_tower_rejects_ij_nonzero():
    # F_2[t]/t^3 -> F_2 -> F_2 has I = J = (t) and I*J = (t^2) != 0
    with pytest.raises(IJNonzero):
        mk_tower("trunc_poly", 2, a=3, b=1)


def test_tower_rejects_kernel_not_killed_by_p():
    # Z/8 -> Z/2 -> F_2: J = 2Z/8 is not killed by p = 2
    with pytest.raises(ValidationError):
        mk_tower("zmod", 2, a=3, b=1)


def test_sigma_sections_land_correctly():
    tower = mk_tower("trunc_poly", 3, a=3, b=2)
    for v in tower.R.elements():
        assert np.array_equal(tower.pibar.apply_vec(tower.sigma_vec(v)), v)
    for v in tower.R0.elements():
        assert np.array_equal(
            tower.pibar0.apply_vec(tower.sigma0_vec(v)), v)


def test_fiber_product_of_dual_numbers():
    t = mk_tower("trunc_poly", 2, a=2, b=1)
    fp = ring_fiber_product(t.pibar, t.pibar)
    assert fp.ring.cardinality == 8   # k[eps] x_k k[delta]
    assert fp.ring.is_local()
    # projections commute with the defining surjections
    for v in fp.ring.elements():
        a = fp.proj1.apply_vec(v)
        b = fp.proj2.apply_vec(v)
        assert np.array_equal(t.pibar.apply_vec(a), t.pibar.apply_vec(b))
