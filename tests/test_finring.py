"""Finite rings, surjections, towers, and fiber products."""

import itertools

import numpy as np
import pytest

from sqzlift import gf
from sqzlift.oracle import _TOWER_MENU
from sqzlift.errors import (
    CharMismatch,
    IJNonzero,
    NonPrime,
    NotSurjective,
    ValidationError,
)
from sqzlift.finring import (
    MAX_RING_SIZE,
    FiniteRing,
    RingSurjection,
    mk_tower,
    minimal_section,
    ring_fiber_product,
    square_zero_ring,
    trunc_poly_ring,
    zmod_ring,
)


def _brute_minimal_section(surj):
    """target element (as a tuple) -> lexicographically least preimage,
    by running over the source in tuple order."""
    best = {}
    for v in itertools.product(*[range(int(o)) for o in surj.source.orders]):
        best.setdefault(tuple(surj.apply_vec(np.array(v)).tolist()), v)
    return best


def _assert_minimal_section(surj, section):
    """section[code(t)] is the least preimage of t, for every target element t."""
    best = _brute_minimal_section(surj)
    assert len(best) == surj.target.cardinality == len(section)
    for t, v in best.items():
        assert section[surj.target.code(np.array(t))].tolist() == list(v)


def test_zmod_ring_arithmetic():
    R = zmod_ring(2, 2)   # Z/4
    assert R.cardinality == 4
    three = np.array([3])
    assert np.array_equal(R.mul_vec(three, three), np.array([1]))


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
    def table(products):
        """F_2 with basis 1, a, b and the given products of a and b."""
        mult = np.zeros((3, 3, 3), dtype=np.int64)
        for j in range(3):
            mult[0, j, j] = mult[j, 0, j] = 1
        for (i, j), k in products.items():
            mult[i, j, k] = 1
        return mult

    # a^2 = b, b^2 = a, ab = ba = 0: (aa)b = a but a(ab) = 0
    with pytest.raises(ValidationError, match="not associative"):
        FiniteRing(2, np.full(3, 2), table({(1, 1): 2, (2, 2): 1}))
    # ab = a, ba = 0
    with pytest.raises(ValidationError, match="not commutative"):
        FiniteRing(2, np.full(3, 2), table({(1, 2): 1}))


def _f4():
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0, 0, 0] = 1
    mult[0, 1, 1] = 1
    mult[1, 0, 1] = 1
    mult[1, 1, 0] = 1
    mult[1, 1, 1] = 1
    return FiniteRing(2, np.array([2, 2]), mult, ("1", "w"))


def test_locality_detection():
    assert zmod_ring(2, 2).is_local()
    assert trunc_poly_ring(3, 2).is_local()
    # F_4 is local (it is a field) with residue field F_4, not F_p; but
    # is_local here asks for maximal ideal = nilpotents with index p
    assert not _f4().is_local()


def _reference_nilpotent_mask(ring):
    """x^(2^t) for 2^t >= |R|, by repeated squaring of coefficient vectors."""
    powers = ring.elements()
    for _ in range(max(1, int(np.ceil(np.log2(max(2, ring.cardinality)))))):
        powers = np.einsum("ni,nj,ijk->nk", powers, powers, ring.mult) % ring.orders
    return ~powers.any(axis=1)


def _nonlocal_ring():
    """F_2[t]/(t^3 - t^2), which is F_2[t]/t^2 x F_2: idempotents and
    nilpotents, but not local."""
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            mult[i, j, min(i + j, 2)] = 1
    return FiniteRing(2, np.full(3, 2), mult)


def _mask_rings():
    yield from (zmod_ring(p, a) for p, a in ((2, 1), (2, 4), (3, 3), (5, 2), (7, 1)))
    yield from (trunc_poly_ring(p, a) for p, a in ((2, 1), (2, 5), (3, 4), (5, 3)))
    yield from (square_zero_ring(p, r) for p, r in ((2, 1), (2, 3), (3, 2), (5, 1)))
    for kind, p, params in _TOWER_MENU:
        t = mk_tower(kind, p, **params)
        yield from (t.Rbar, t.R, t.R0)
    yield ring_fiber_product(*[mk_tower("trunc_poly", 3, a=3, b=2).pibar] * 2).ring
    yield _nonlocal_ring()


def _reference_is_local(ring):
    """The nilpotents are an additive subgroup of index p: their span, by
    coset expansion, is themselves, and |R| = p |N|."""
    nil = ring.nilpotent_mask
    span = np.zeros(ring.cardinality, dtype=bool)
    span[0] = True
    members = ring.zero_vec()[None, :]
    for v in ring.elements()[nil]:
        if span[ring.code(v)]:
            continue
        shells = [v]
        while not span[ring.code(acc := (shells[-1] + v) % ring.orders)]:
            shells.append(acc)
        new = (members[None, :, :] + np.stack(shells)[:, None, :]) % ring.orders
        members = np.concatenate([members, new.reshape(-1, ring.m)])
        span[ring.code(members)] = True
    return np.array_equal(span, nil) and ring.cardinality == ring.p * int(nil.sum())


def test_is_local_matches_coset_expansion():
    verdicts = set()
    for ring in [*_mask_rings(), _f4()]:   # _mask_rings ends with the non-local ring
        assert ring.is_local() == _reference_is_local(ring)
        verdicts.add(ring.is_local())
    assert verdicts == {True, False}


def test_nilpotent_mask_matches_repeated_squaring():
    for ring in _mask_rings():
        mask = ring.nilpotent_mask
        assert mask.dtype == bool and mask.shape == (ring.cardinality,)
        assert np.array_equal(mask, _reference_nilpotent_mask(ring))
    # codes c0 * 4 + c1 * 2 + c2: the nilpotents are 0 and t + t^2
    assert np.flatnonzero(_nonlocal_ring().nilpotent_mask).tolist() == [0, 3]
    assert not _nonlocal_ring().is_local()


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


def test_prime_above_the_performance_cap_is_rejected():
    with pytest.raises(ValidationError, match="performance cap"):
        mk_tower("zmod", 11, a=2, b=1)


def test_surjection_validation():
    R4, R2 = zmod_ring(2, 2), zmod_ring(2, 1)
    surj = RingSurjection(R4, R2, np.array([[1]]))
    assert np.array_equal(surj.apply_vec(np.array([3])), np.array([1]))
    with pytest.raises(NotSurjective):
        # 1 -> 1, t -> 0 on F_2[t]/t^2 is a well-defined endomorphism
        # whose image {0, 1} misses half the ring
        Re = trunc_poly_ring(2, 2)
        RingSurjection(Re, Re, np.array([[1, 0], [0, 0]]))
    with pytest.raises(NotSurjective):
        # t -> t^2 on F_2[t]/t^3: the image {0, 1, t^2, 1 + t^2} misses t
        Rc = trunc_poly_ring(2, 3)
        RingSurjection(Rc, Rc, np.array([[1, 0, 0], [0, 0, 1], [0, 0, 0]]))
    with pytest.raises(CharMismatch):
        RingSurjection(R4, zmod_ring(3, 1), np.array([[1]]))


def test_surjection_rejections():
    Re = trunc_poly_ring(2, 2)   # F_2[t]/t^2
    # t -> 1 + t: t^2 = 0 but (1 + t)^2 = 1
    with pytest.raises(ValidationError, match=r"map not multiplicative on \(b1, b1\)"):
        RingSurjection(Re, Re, np.array([[1, 0], [1, 1]]))
    with pytest.raises(ValidationError, match="not unital"):
        RingSurjection(Re, Re, np.array([[0, 1], [0, 1]]))
    # 2 * 1 = 0 in Z/2 but not in Z/4
    with pytest.raises(ValidationError, match="additive orders"):
        RingSurjection(zmod_ring(2, 1), zmod_ring(2, 2), np.array([[1]]))


def test_minimal_section_roundtrip():
    R4, R2 = zmod_ring(2, 2), zmod_ring(2, 1)
    surj = RingSurjection(R4, R2, np.array([[1]]))
    _assert_minimal_section(surj, minimal_section(surj))
    t = mk_tower("trunc_poly", 2, a=2, b=1)
    fp = ring_fiber_product(t.pibar, t.pibar)
    for proj in (fp.proj1, fp.proj2):
        _assert_minimal_section(proj, minimal_section(proj))


_TOWERS = [
    ("zmod", 2, {"a": 2, "b": 1}),
    ("trunc_poly", 2, {"a": 2, "b": 1}),
    ("trunc_poly", 3, {"a": 3, "b": 2}),
    ("square_zero", 5, {"r": 2}),
]
# every tower of the gen instances, and dim J = 2 over F_3
_TOWERS += [t for t in _TOWER_MENU if t not in _TOWERS] + [("square_zero", 3, {"r": 2})]


@pytest.mark.parametrize("kind,p,params", _TOWERS)
def test_tower_invariants(kind, p, params):
    tower = mk_tower(kind, p, **params)
    # J = Ker(Rbar -> R) is killed by p and by I = Ker(Rbar -> R0)
    Jv = tower.pibar.kernel_vectors()
    Iv = tower.pibar0.kernel_vectors()
    for j in Jv:
        assert not ((p * j) % tower.Rbar.orders).any()
        for i in Iv:
            assert not tower.Rbar.mul_vec(i, j).any()
    # J-coordinates are a bijection onto F_p^dimJ, and -1 off J
    codes = tower.Rbar.code(Jv)
    lams = tower.jcoords[codes]
    assert (lams >= 0).all()
    assert np.array_equal(lams @ tower.jbasis % tower.Rbar.orders, Jv)
    assert len({tuple(lam) for lam in lams.tolist()}) == p ** tower.dimJ == len(Jv)
    off = np.ones(tower.Rbar.cardinality, dtype=bool)
    off[codes] = False
    assert (tower.jcoords[off] == -1).all()
    # the section picks the lexicographically least preimage
    _assert_minimal_section(tower.pibar, tower.sigma)


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
def test_builtin_tower_builds_each_ring_once(kind, params):
    """The maps of the tower share its three rings, and no copy is made."""
    tower = mk_tower(kind, 3, **params)
    assert tower.pibar.source is tower.Rbar and tower.pibar.target is tower.R
    assert tower.pi.source is tower.R and tower.pi.target is tower.R0
    assert tower.pibar0.source is tower.Rbar and tower.pibar0.target is tower.R0


def test_tower_rejects_ij_nonzero():
    # F_2[t]/t^3 -> F_2 -> F_2 has I = J = (t) and I*J = (t^2) != 0
    with pytest.raises(IJNonzero):
        mk_tower("trunc_poly", 2, a=3, b=1)


def test_tower_rejects_kernel_not_killed_by_p():
    # Z/8 -> Z/2 -> F_2: J = 2Z/8 is not killed by p = 2
    with pytest.raises(ValidationError):
        mk_tower("zmod", 2, a=3, b=1)


def _f2_ring_with_orders(orders):
    """F_2[t]/t^2 with one more basis element of the given additive order,
    which multiplies to zero; the table is canonical for order 1."""
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = 1
    return FiniteRing(2, np.array(orders), mult)


@pytest.mark.parametrize("orders", [[2, 2, 1], [2, 2, 0], [2, 2, -2]])
def test_basis_element_of_order_below_p_is_rejected(orders):
    """A basis element of order 1 is zero, which left Tower dividing by
    orders // p = 0; order 0 used to loop forever.  The ring is refused
    before any table is built, so mk_tower never sees it."""
    with pytest.raises(ValidationError, match=f"additive order {orders[2]} is not a power"):
        fp = zmod_ring(2, 1)
        rbar = _f2_ring_with_orders(orders)
        mk_tower("custom", 2, Rbar=rbar, R=fp, R0=fp,
                 pibar=RingSurjection(rbar, fp, np.array([[1], [0], [0]])),
                 pi=RingSurjection(fp, fp, np.array([[1]])))


def test_sigma_sections_land_correctly():
    tower = mk_tower("trunc_poly", 3, a=3, b=2)
    assert np.array_equal(tower.pibar.apply_many(tower.sigma), tower.R.elements())


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


def test_fiber_product_of_truncated_polynomials_is_pinned():
    """F_3[t]/t^3 x_{F_3[t]/t^2} F_3[t]/t^3: the basis the null-space rule
    picks, its orders, the multiplication table and the projections."""
    t = mk_tower("trunc_poly", 3, a=3, b=2)
    fp = ring_fiber_product(t.pibar, t.pibar)
    # basis as (first factor | second factor): 1, (t^2, 0), (t, t), (0, t^2)
    basis = np.concatenate([fp.proj1.images, fp.proj2.images], axis=1)
    assert basis.tolist() == [[1, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0],
                              [0, 1, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]
    assert fp.ring.orders.tolist() == [3, 3, 3, 3]
    mult = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(4):
        mult[0, i, i] = mult[i, 0, i] = 1
    mult[2, 2] = [0, 1, 0, 1]          # (t, t)^2 = (t^2, t^2) = b1 + b3
    assert np.array_equal(fp.ring.mult, mult)
    assert fp.proj1.source is fp.ring and fp.proj1.target == t.Rbar
    assert fp.proj2.source is fp.ring and fp.proj2.target == t.Rbar
    # every element is a pair over one element of F_3[t]/t^2, and each pair once
    pairs = np.concatenate([fp.proj1.apply_many(fp.ring.elements()),
                            fp.proj2.apply_many(fp.ring.elements())], axis=1)
    assert len(np.unique(pairs, axis=0)) == fp.ring.cardinality == 81
    assert np.array_equal(t.pibar.apply_many(pairs[:, :3]), t.pibar.apply_many(pairs[:, 3:]))


def _fiber_product_cases():
    """(id, f1, f2): dual numbers; F_3[t]/t^3 over F_3[t]/t^2; the mixed
    factors F_3[t]/t^3 -> F_3 <- square_zero(3; r=2); F_3 itself as R'."""
    dual = mk_tower("trunc_poly", 2, a=2, b=1).pibar
    t32 = mk_tower("trunc_poly", 3, a=3, b=2).pibar
    f3 = zmod_ring(3, 1)
    to_f3 = RingSurjection(trunc_poly_ring(3, 3), f3, np.array([[1], [0], [0]]))
    sq = mk_tower("square_zero", 3, r=2).pibar
    yield "dual-numbers", dual, dual
    yield "t3-over-t2", t32, t32
    yield "t3-and-square-zero-over-f3", to_f3, sq
    yield "f3-factor", RingSurjection(f3, f3, np.array([[1]])), sq


@pytest.mark.parametrize("f1, f2", [pytest.param(f1, f2, id=name)
                                    for name, f1, f2 in _fiber_product_cases()])
def test_fiber_product_is_the_set_of_compatible_pairs(f1, f2):
    """The images under (proj1, proj2) are exactly the pairs (a, b) with
    f1(a) = f2(b), found by brute force over R' x R'', each pair once."""
    e1, e2 = f1.source.elements(), f2.source.elements()
    c1, c2 = f1.target.code(f1.apply_many(e1)), f2.target.code(f2.apply_many(e2))
    i, j = np.nonzero(c1[:, None] == c2[None, :])
    expected = np.concatenate([e1[i], e2[j]], axis=1)
    fp = ring_fiber_product(f1, f2)
    elems = fp.ring.elements()
    pairs = np.concatenate([fp.proj1.apply_many(elems), fp.proj2.apply_many(elems)], axis=1)
    assert len(np.unique(pairs, axis=0)) == fp.ring.cardinality == len(expected)
    assert sorted(map(tuple, pairs.tolist())) == sorted(map(tuple, expected.tolist()))
    one = np.concatenate([f1.source.one_vec(), f2.source.one_vec()])
    assert np.array_equal(pairs[fp.ring.code(fp.ring.one_vec())], one)
    assert fp.ring.is_local()


def test_fiber_product_rejects_factors_that_are_not_fp_algebras():
    z4_to_z2 = mk_tower("zmod", 2, a=2, b=1).pibar
    with pytest.raises(ValidationError, match="F_p-algebras"):
        ring_fiber_product(z4_to_z2, z4_to_z2)


def test_fiber_product_above_the_cap_is_rejected_before_building(monkeypatch):
    # F_2[t]/t^9 x_{F_2} F_2[t]/t^9 has 2^17 elements
    R, f2 = trunc_poly_ring(2, 9), zmod_ring(2, 1)
    images = np.zeros((9, 1), dtype=np.int64)
    images[0, 0] = 1
    proj = RingSurjection(R, f2, images)
    assert 2 ** 17 > MAX_RING_SIZE
    built = []
    monkeypatch.setattr(FiniteRing, "__post_init__", lambda self: built.append(self))
    with pytest.raises(ValidationError, match="fiber product exceeds the ring size cap"):
        ring_fiber_product(proj, proj)
    assert built == [] and "_elements" not in vars(R)
