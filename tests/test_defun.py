"""Deformation functors over artinian local F_p-algebras."""

import gc
import itertools
import weakref

import numpy as np
import pytest

from sqzlift import defun
from sqzlift.algebra import AlgMatrix, LevelAlgebra, mk_algebra
from sqzlift.complexes import (GradedMap, GradedObject, block_view, coefficient_count,
                               compose, delta, identity_map, map_push,
                               stack_of)
from sqzlift.defun import (
    ArtinLocalRing,
    check_smoothness,
    check_triple,
    extend_order,
    functor_eval,
    is_small,
    iso_orbits,
    schlessinger_check,
    strict_lifts,
    tangent_dim,
    tensor_algebra,
    trivial_base_algebra,
    unipotent_inverse,
)
from sqzlift.errors import CapExceeded, CheckFailed, NotLocal, ValidationError
from sqzlift.finring import (FiniteRing, mk_tower, ring_fiber_product, trunc_poly_ring,
                              zmod_ring)
from sqzlift.obstruction import DifferentialProblem
from sqzlift.oracle import gen_instance

from conftest import enumerate_graded_maps, from_coefficients
from test_acceptance import _base_diffs

OB2 = GradedObject.of({0: 1, 1: 1})


def map_coords(f):
    return tuple(f.coef.tolist())


def as_maps(A, alg0, ob, lifts):
    """A stack of strict lifts as checked GradedMaps over R (x) alg0."""
    algR = tensor_algebra(A.ring, alg0)
    return [from_coefficients(algR, ob, ob, 1, row) for row in lifts]


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
    assert len(lifts)
    for L in as_maps(A, alg0, OB3, lifts):
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


@pytest.mark.parametrize("edit, verdict", [
    ("drop a lift", "f0_bijective"),         # a compatible pair has no lift
    ("repeat a lift", "f0_bijective"),       # a compatible pair has two
    ("merge two classes", "f_surjective"),   # a compatible class pair is missed
])
def test_triple_fails_on_an_edited_fiber_product(monkeypatch, alg0, d0_zero, edit, verdict):
    """Over P = R' x_R R'' the lifts are the compatible pairs of lifts, each
    once; edit the lifts or classes over P and the verdict turns false."""
    pi = mk_tower("trunc_poly", 2, a=2, b=1).pibar
    lifts_of, orbits_of = defun.strict_lifts, defun.iso_orbits
    over_p = []

    def edited_lifts(A, *args, **kwargs):
        lifts = lifts_of(A, *args, **kwargs)
        if not over_p:   # the first call is over P
            over_p.append(A)
            if edit == "drop a lift":
                lifts = lifts[:-1]
            elif edit == "repeat a lift":
                lifts = np.concatenate([lifts[:-1], lifts[:1]])
        return lifts

    def edited_orbits(A, *args, **kwargs):
        orbits = orbits_of(A, *args, **kwargs)
        if A is over_p[0] and edit == "merge two classes":
            orbits = [tuple(sorted(orbits[0] + orbits[1]))] + orbits[2:]
        return orbits

    assert getattr(check_triple(pi, pi, alg0, OB2, d0_zero), verdict)
    monkeypatch.setattr(defun, "strict_lifts", edited_lifts)
    monkeypatch.setattr(defun, "iso_orbits", edited_orbits)
    assert not getattr(check_triple(pi, pi, alg0, OB2, d0_zero), verdict)


def test_smoothness_by_conjugation(alg0, d0_zero):
    pi = mk_tower("trunc_poly", 2, a=3, b=2).pibar
    rep = check_smoothness(pi, alg0, OB2, d0_zero)
    assert rep.ok and not rep.vacuous


def _reference_pairs(pi, alg0, ob, d0):
    """The pairs (d_R, d_S) with d_S isomorphic to pi(d_R), one intertwiner
    search per pair."""
    AR, AS = ArtinLocalRing(pi.source), ArtinLocalRing(pi.target)
    LS = as_maps(AS, alg0, ob, strict_lifts(AS, alg0, ob, d0))
    one = identity_map(LS[0].alg, ob).coef
    pairs = 0
    for dR in as_maps(AR, alg0, ob, strict_lifts(AR, alg0, ob, d0)):
        dRS = map_push(pi, LS[0].alg, dR)
        pairs += sum(next(defun._intertwiners(AS, ob, dRS, dS, one, 1 << 20), None)
                     is not None for dS in LS)
    return pairs


def test_smoothness_pairs_match_per_pair_reference():
    """On the criterion-8 shapes, along F_p[t]/t^3 -> F_p[t]/t^2, with the
    zero base differential and the first nonzero one (all eight nonzero ones
    of ranks (1, 2) over F_3 would take seconds)."""
    classes_over_s = set()
    for p in (2, 3):
        pi = mk_tower("trunc_poly", p, a=3, b=2).pibar
        AS = ArtinLocalRing(pi.target)
        for ranks in ((1, 1), (1, 1, 1), (1, 2)):
            ob = GradedObject.of(dict(enumerate(ranks)))
            for a0, d0 in _base_diffs(p, ob)[:2]:
                rep = check_smoothness(pi, a0, ob, d0)
                assert rep.ok and rep.pairs_checked == _reference_pairs(pi, a0, ob, d0)
                classes_over_s.add(len(iso_orbits(AS, a0, ob, strict_lifts(AS, a0, ob, d0))))
    assert max(classes_over_s) > 1


def test_smoothness_fails_when_classes_over_s_merge(monkeypatch, alg0, d0_zero):
    """pi maps a class over R into a class over S; if the partition over S
    merges two classes, the image no longer fills its class."""
    pi = mk_tower("trunc_poly", 2, a=3, b=2).pibar
    iso = defun.iso_orbits

    def merging(A, *args, **kwargs):
        orbits = iso(A, *args, **kwargs)
        if A.ring is pi.target:
            assert len(orbits) > 1
            orbits = [tuple(sorted(orbits[0] + orbits[1]))] + orbits[2:]
        return orbits

    monkeypatch.setattr(defun, "iso_orbits", merging)
    with pytest.raises(CheckFailed, match="does not map onto a class over S"):
        check_smoothness(pi, alg0, OB2, d0_zero)


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


def _order_problem(n: int, ob: GradedObject, comps: dict) -> DifferentialProblem:
    """The differential with these components over F_2[t]/(t^n), in the
    one-step tower to F_2[t]/(t^(n+1))."""
    defalg = mk_algebra(mk_tower("trunc_poly", 2, a=n + 1, b=n), "trivial")
    d = GradedMap(defalg.mid, ob, ob, 1,
                  {i: AlgMatrix(defalg.mid, c) for i, c in comps.items()})
    return DifferentialProblem(defalg, ob, d)


def test_extend_order_unobstructed():
    rep = extend_order(_order_problem(1, OB2, {}))
    assert not rep.obstructed


def test_extend_order_tt_obstruction():
    """The order-2 one-parameter deformation d = (t, t) of the three-term
    zero complex does not extend to order 3."""
    tvec = np.zeros((1, 1, 1, 2), dtype=np.int64)
    tvec[0, 0, 0, 1] = 1
    rep = extend_order(_order_problem(2, OB3, {0: tvec, 1: tvec.copy()}))
    assert rep.obstructed
    assert rep.obstruction.rep == (1,)


def test_extend_order_rejects_another_tower():
    defalg = mk_algebra(mk_tower("zmod", 2, a=2, b=1), "trivial")
    with pytest.raises(ValidationError):
        extend_order(DifferentialProblem(defalg, OB2, GradedMap(defalg.mid, OB2, OB2, 1, {})))


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
    """Orbits of GradedMap lifts by compose and unipotent_inverse, one
    conjugator at a time.  An orbit that already holds every lift outside
    the earlier orbits is complete, so its scan stops there."""
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


def _scan_orbits(A, alg0, ob, lifts, cap=1 << 20):
    """Orbits by scanning the whole unipotent group, a block of conjugators
    at a time.  Each block conjugates only the current class roots (least
    members), so the least member of every orbit meets every conjugator and
    its whole orbit is merged."""
    if not len(lifts):
        return []
    algR = A.algebra(alg0)
    index = defun._LiftIndex(lifts)
    lift_blocks = block_view(algR, ob, ob, 1, lifts)
    root = np.arange(len(lifts))
    one = identity_map(algR, ob).coef
    for u in defun._blocks(A, algR, one, cap, "automorphism candidates"):
        ub = block_view(algR, ob, ob, 0, u)
        u_ops = {i: algR.left_op(c) for i, c in ub.items()}
        uinv = defun._unipotent_inverse_many(algR, ob, ub, u_ops)
        for n in range(len(lifts)):
            if root[n] != n:
                continue
            conj = {i: algR.apply_left(u_ops[i + 1], algR.matmul(c[n], uinv[i]))
                    for i, c in lift_blocks.items()}
            hits = index.find(stack_of(algR, ob, ob, 1, conj, len(u)))
            merged = np.union1d(root[hits], root[n])
            root[np.isin(root, merged)] = merged[0]
    return [tuple(np.flatnonzero(root == r).tolist()) for r in np.unique(root)]


def _scalar_diff(alg0, ob, entries):
    """Base differential C^0 -> C^1 with the given scalar column."""
    data = np.zeros((ob.rank(1), ob.rank(0), alg0.k, 1), dtype=np.int64)
    data[:, 0, 0, 0] = entries
    return GradedMap(alg0, ob, ob, 1, {0: AlgMatrix(alg0, data)})


SMALL_BLOCK = 1   # one conjugator per block: orbits grow across blocks


ORBIT_CASES = [
    (3, 3, "trivial", (1, 2), (1, 0), None),  # one orbit of 81 lifts, 9^5 conjugators
    (2, 3, "trivial", (1, 2), (1, 0), SMALL_BLOCK),  # one orbit of 16, 4^5 conjugators
    (3, 3, "trivial", (1, 1), (0,), None),    # orbits {0}, (t), (t^2) up to units
    (3, 3, "trivial", (1, 1), (0,), SMALL_BLOCK),
    (3, 2, "dual", (1, 1), (0,), None),       # k = 2
    (3, 2, "dual", (1, 1), (0,), SMALL_BLOCK),
    (2, 2, "upper", (1, 1), (0,), None),      # k = 3, noncommutative
    (2, 2, "upper", (1, 1), (0,), SMALL_BLOCK),
]


@pytest.mark.parametrize("p, a, kind, ranks, entries, block", ORBIT_CASES)
def test_batched_orbits_match_per_conjugator_reference(monkeypatch, p, a, kind, ranks,
                                                       entries, block):
    if block:
        monkeypatch.setattr(defun, "_BLOCK", block)
    alg0 = _base_algebra(p, kind)
    ob = GradedObject.of(dict(enumerate(ranks)))
    A = ArtinLocalRing(trunc_poly_ring(p, a))
    lifts = strict_lifts(A, alg0, ob, _scalar_diff(alg0, ob, entries))
    orbits = iso_orbits(A, alg0, ob, lifts)
    assert orbits == _reference_orbits(A, ob, as_maps(A, alg0, ob, lifts))
    assert orbits == _scan_orbits(A, alg0, ob, lifts)
    assert len(orbits) > 1 or len(lifts) > 1


def test_oversized_group_raises_cap_exceeded(alg0):
    """The cap bounds the conjugations, lifts times generators.  Over
    F_2[t]/t^3 (m has the basis t^2, t) a degree-0 map of ranks (2, 2, 2)
    has 12 coefficient positions: one lift takes 24 conjugations, where the
    whole group has 4^12 elements."""
    ob = GradedObject.of({0: 2, 1: 2, 2: 2})
    A = ArtinLocalRing(trunc_poly_ring(2, 3))
    zero = GradedMap(tensor_algebra(A.ring, alg0), ob, ob, 1, {})
    assert iso_orbits(A, alg0, ob, zero.coef[None], cap=24) == [(0,)]
    with pytest.raises(CapExceeded, match="24 conjugations exceed the cap 23"):
        iso_orbits(A, alg0, ob, zero.coef[None], cap=23)
    lifts = strict_lifts(A, alg0, OB2, GradedMap(alg0, OB2, OB2, 1, {}))
    assert len(iso_orbits(A, alg0, OB2, lifts, cap=16)) == 3   # 4 lifts, 4 generators
    with pytest.raises(CapExceeded, match="16 conjugations exceed the cap 15"):
        iso_orbits(A, alg0, OB2, lifts, cap=15)


def test_functor_eval_fails_on_the_conjugation_cap_before_conjugating(monkeypatch):
    # over F_3[t]/t^2 with ranks (2, 2): 3^4 = 81 strict-lift candidates fit
    # the cap of 100 and are all lifts; 81 lifts times 8 generators (t at
    # each of the 8 degree-0 positions) = 648 conjugations do not
    alg0 = trivial_base_algebra(3)
    A = ArtinLocalRing(trunc_poly_ring(3, 2))
    ob = GradedObject.of({0: 2, 1: 2})
    d0 = GradedMap(alg0, ob, ob, 1, {})
    assert len(strict_lifts(A, alg0, ob, d0, cap=100)) == 81
    calls = {"strict_lifts": 0, "generators": 0, "lookups": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(defun, "strict_lifts", counting("strict_lifts", strict_lifts))
    monkeypatch.setattr(defun, "_transvections",
                        counting("generators", defun._transvections))
    monkeypatch.setattr(defun._LiftIndex, "find", counting("lookups", defun._LiftIndex.find))
    with pytest.raises(CapExceeded, match="648 conjugations exceed the cap 100"):
        functor_eval(A, alg0, ob, d0, cap=100)
    assert calls == {"strict_lifts": 1, "generators": 0, "lookups": 0}
    classes = functor_eval(A, alg0, ob, d0, cap=648)["F"].classes
    assert calls["generators"] == 1 and calls["lookups"] > 0   # the counters see the kernel
    assert len(classes) == 3 ** tangent_dim(alg0, ob, d0)
    # the strict-lift cap is still checked first
    with pytest.raises(CapExceeded, match="81 strict-lift candidates exceed the cap 80"):
        functor_eval(A, alg0, ob, d0, cap=80)


# -- the transvections' closed form against GradedMap arithmetic --

def _transvection(algR, ob, basis, i0, g):
    """Generator g of degree i0 in the order of defun._transvections, as a
    GradedMap u = 1 + x E_rc, with its (b, r, c, e)."""
    n0, k = ob.rank(i0), algR.k
    b, r, c, e = np.unravel_index(g, (len(basis), n0, n0, k))
    nu = np.zeros((n0, n0, k, algR.ring.m), dtype=np.int64)
    nu[r, c, e] = basis[b]
    return identity_map(algR, ob) + GradedMap.from_arrays(algR, ob, ob, 0, {i0: nu}), (b, r, c, e)


def test_transvections_conjugate_like_graded_map_products():
    """On every shape, every generator's column and row update of random
    degree-1 maps (not only strict lifts) is u d u^-1 by compose and the
    Newton unipotent_inverse; the degrees left out move nothing; and the
    closed-form inverse 1 + y E_rc, y read from the right multiplication
    operator, is a two-sided inverse of u at diagonal and off-diagonal
    positions.  The shapes include a = 2 and a = 3 (two terms of the series)
    and k = 1, 2 and 3 (T_2, noncommutative)."""
    rng = np.random.default_rng(26)
    seen = set()
    for ring, alg0, ob, _ in _shapes():
        A = ArtinLocalRing(ring)
        algR, basis = A.algebra(alg0), defun._m_basis(A)
        if not len(basis):
            assert defun._transvections(algR, ob, basis) == []
            continue
        groups = {i0: rest for i0, *rest in defun._transvections(algR, ob, basis)}
        left, neg, inv = defun._multipliers(algR, basis)
        one = algR.unit.reshape(-1)
        ncoef = coefficient_count(algR, ob, ob, 1)
        maps = [from_coefficients(algR, ob, ob, 1, rng.integers(0, A.p, size=ncoef))
                for _ in range(2)]
        for i0, n0 in ob.ranks:
            for g in range(len(basis) * n0 * n0 * algR.k):
                u, (b, r, c, e) = _transvection(algR, ob, basis, i0, g)
                uinv = unipotent_inverse(algR, u)
                for d in maps:
                    want = compose(compose(u, d), uinv).coef
                    got = d.coef.copy()
                    if i0 in groups:
                        src, dst, ops = (a[g] for a in groups[i0])
                        moved = np.einsum("syz,sz->sy", ops, d.coef[src].reshape(len(ops), -1))
                        got[dst] = (got[dst] + moved.ravel()) % A.p
                    assert got.tolist() == want.tolist()
                # 1 + y E_rc from the closed form, y = 1 * y
                y = ((inv if r == c else neg)[b, e] @ one % A.p).reshape(algR.k, -1)
                nu = np.zeros((n0, n0) + y.shape, dtype=np.int64)
                nu[r, c] = y
                closed = identity_map(algR, ob) + GradedMap.from_arrays(algR, ob, ob, 0, {i0: nu})
                assert closed == uinv
                assert compose(u, closed) == compose(closed, u) == identity_map(algR, ob)
                x = np.zeros_like(y)
                x[e] = basis[b]
                assert (left[b, e] @ one % A.p).tolist() == x.ravel().tolist()   # x 1 = x
                assert (neg[b, e] @ one % A.p).tolist() == (-x.ravel() % A.p).tolist()
                seen.add((ring.m, algR.k, r == c, i0 in groups))
    assert {(a, k) for a, k, _, _ in seen} >= {(2, 1), (3, 1), (2, 2), (2, 3)}
    assert {diagonal for _, _, diagonal, _ in seen} == {True, False}


# -- the closure under generators against the whole-group scan --

STRICT_SHAPES = [
    (3, 3, "trivial", (1, 2), (0, 0)),       # two terms: every candidate passes
    (2, 3, "trivial", (1, 2, 1), (1, 0)),    # nonzero base differential
    (3, 3, "trivial", (1, 1, 1), (0,)),
    (2, 3, "trivial", (1, 1, 1), (1,)),
    (3, 2, "dual", (1, 1, 1), (1,)),         # k = 2
    (2, 2, "upper", (1, 1, 1), (1,)),        # k = 3, noncommutative
]


def _shapes():
    """(ring, base algebra, ob, d0) of the orbit and strict-lift shapes of this
    file, and of the criterion-8 shapes over F_p[t]/t^a for a = 1, 2, 3."""
    for p, a, kind, ranks, entries in sorted({c[:5] for c in ORBIT_CASES} | set(STRICT_SHAPES)):
        alg0 = _base_algebra(p, kind)
        ob = GradedObject.of(dict(enumerate(ranks)))
        yield trunc_poly_ring(p, a), alg0, ob, _scalar_diff(alg0, ob, entries)
    for p in (2, 3):
        for a in (1, 2, 3):
            for ranks in ((1, 1), (1, 1, 1), (1, 2)):
                ob = GradedObject.of(dict(enumerate(ranks)))
                for alg0, d0 in _base_diffs(p, ob)[:3]:
                    yield trunc_poly_ring(p, a), alg0, ob, d0


def test_closure_matches_whole_group_scan_on_every_shape():
    merged = 0
    for ring, alg0, ob, d0 in _shapes():
        A = ArtinLocalRing(ring)
        lifts = strict_lifts(A, alg0, ob, d0)
        orbits = iso_orbits(A, alg0, ob, lifts)
        assert orbits == _scan_orbits(A, alg0, ob, lifts)
        merged += len(orbits) < len(lifts)
    assert merged >= 10


def _assert_index_finds_like_a_dict(rows, rng):
    """_LiftIndex.find gives the position of every row, in any order and
    repeated, as a dict of the rows does, and refuses a row that is none."""
    index = defun._LiftIndex(rows)
    where = {tuple(r): i for i, r in enumerate(rows.tolist())}
    pick = rng.integers(0, len(rows), size=2 * len(rows))
    assert index.find(rows[pick]).tolist() == [where[tuple(r)] for r in rows[pick].tolist()]
    assert index.find(rows[:0]).tolist() == []
    for col in range(rows.shape[1]):
        other = rows[:1].copy()
        other[0, col] += 1
        if tuple(other[0].tolist()) not in where:
            with pytest.raises(CheckFailed, match="image left the strict-lift set"):
                index.find(np.concatenate([rows, other]))


def test_lift_index_finds_rows_like_a_dict_on_every_shape():
    rng = np.random.default_rng(5)
    for ring, alg0, ob, d0 in _shapes():
        _assert_index_finds_like_a_dict(strict_lifts(ArtinLocalRing(ring), alg0, ob, d0), rng)
    for p in (2, 3):
        pi = mk_tower("trunc_poly", p, a=2, b=1).pibar
        A = ArtinLocalRing(ring_fiber_product(pi, pi).ring)
        ob = GradedObject.of({0: 1, 1: 2})
        for alg0, d0 in _base_diffs(p, ob)[:2]:
            _assert_index_finds_like_a_dict(strict_lifts(A, alg0, ob, d0), rng)


@pytest.mark.parametrize("ncols", [0, 1, 63, 64, 130])
def test_lift_index_on_rows_wider_than_one_int64_key(ncols):
    """Rows of bits, from no column at all to wider than one int64 key."""
    rng = np.random.default_rng(ncols)
    rows = np.unique(rng.integers(0, 2, size=(300, ncols)), axis=0)
    _assert_index_finds_like_a_dict(rows, rng)


def test_closure_matches_whole_group_scan_on_fiber_products():
    """The check_triple rings F_p[t]/t^2 x_{F_p} F_p[t]/t^2, where m^2 = 0."""
    merged = 0
    for p in (2, 3):
        pi = mk_tower("trunc_poly", p, a=2, b=1).pibar
        A = ArtinLocalRing(ring_fiber_product(pi, pi).ring)
        for ranks in ((1, 1), (1, 1, 1), (1, 2)):
            ob = GradedObject.of(dict(enumerate(ranks)))
            for alg0, d0 in _base_diffs(p, ob)[:2]:
                lifts = strict_lifts(A, alg0, ob, d0)
                orbits = iso_orbits(A, alg0, ob, lifts)
                assert orbits == _scan_orbits(A, alg0, ob, lifts)
                merged += len(orbits) < len(lifts)
    assert merged > 0


def test_closure_matches_whole_group_scan_on_gen_seeds():
    """gen differential seeds 0-49 over an F_p-algebra whose unipotent group
    has at most 3^8 elements."""
    compared, merged = 0, 0
    for seed in range(50):
        inst = gen_instance("differential", seed)
        ring, alg0, prob = inst.defalg.tower.Rbar, inst.defalg.base, inst.problem
        if (ring.orders != ring.p).any():
            continue
        A = ArtinLocalRing(ring)
        if A.msize ** coefficient_count(alg0, prob.ob, prob.ob, 0) > 3 ** 8:
            continue
        lifts = strict_lifts(A, alg0, prob.ob, prob.d_base)
        orbits = iso_orbits(A, alg0, prob.ob, lifts)
        assert orbits == _scan_orbits(A, alg0, prob.ob, lifts)
        compared += 1
        merged += len(orbits) < len(lifts)
    assert compared >= 25 and merged >= 3


def test_generators_from_m_mod_m2_alone_give_a_finer_partition(monkeypatch):
    """Over F_3[t]/t^3, 1 + t generates only {1, 1 + t, 1 + 2t + t^2} in
    1 + m, since (1 + t)^3 = 1; with d0 = 1 on ranks (1, 1) the nine lifts
    1 + m form one orbit, which 1 + t alone splits into three.  So the
    comparison with the scan catches a generator set that is not adapted
    to m > m^2."""
    alg0 = trivial_base_algebra(3)
    ob = GradedObject.of({0: 1, 1: 1})
    A = ArtinLocalRing(trunc_poly_ring(3, 3))
    assert defun._m_basis(A).tolist() == [[0, 0, 1], [0, 1, 0]]   # t^2, then t
    lifts = strict_lifts(A, alg0, ob, _scalar_diff(alg0, ob, (1,)))
    want = _scan_orbits(A, alg0, ob, lifts)
    assert iso_orbits(A, alg0, ob, lifts) == want == [tuple(range(9))]
    monkeypatch.setattr(defun, "_m_basis", lambda A: np.array([[0, 1, 0]]))
    finer = iso_orbits(A, alg0, ob, lifts)
    assert len(finer) == 3 and all(len(orbit) == 3 for orbit in finer)


# -- the generators kept with their ring algebra --

def test_generators_are_built_once_per_algebra_and_graded_object(monkeypatch):
    """The second iso_orbits on one (algR, ob) builds no generator; the kept
    group is read-only, pads the degrees with fewer entries with the zero
    column, and does not keep algR alive."""
    built = []
    transvections = defun._transvections
    monkeypatch.setattr(defun, "_transvections",
                        lambda algR, ob, basis: built.append(ob) or transvections(algR, ob, basis))
    alg0 = trivial_base_algebra(3)
    A = ArtinLocalRing(trunc_poly_ring(3, 3))
    for ob in (OB2, OB3, OB2, OB3, OB2):
        lifts = strict_lifts(A, alg0, ob, GradedMap(alg0, ob, ob, 1, {}))
        assert iso_orbits(A, alg0, ob, lifts) == _scan_orbits(A, alg0, ob, lifts)
    assert built == [OB2, OB3]
    algR = A.algebra(alg0)
    src, dst, ops = tables = defun._generators(algR, OB3, defun._m_basis(A))
    assert built == [OB2, OB3]
    for arr in tables:
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0
    # ranks (1, 1, 1): degree 1 moves a column and a row, degrees 0 and 2 one of them
    pad = coefficient_count(algR, OB3, OB3, 1)
    assert ops.shape == (3 * 2, 2, 3, 3) and src.shape == dst.shape == (6, 2 * 3)
    assert ((src == pad) == (dst == pad)).all() and (src == pad).sum() == 4 * 3
    assert not ops[src[:, ::3] == pad].any()
    ref = weakref.ref(algR)
    del A, algR
    gc.collect()
    assert ref() is None


ID_REUSE_SHAPES = [(p, kind, ranks) for ranks in ((1, 1), (1, 2))
                   for p, kind in ((2, "trivial"), (3, "trivial"), (3, "dual"), (2, "upper"))]


def test_generators_are_never_served_to_an_algebra_that_reuses_an_id():
    """Rings and algebras built and freed in turn, as the tests and library
    callers do.  The shapes share their ring's m-adapted basis (t, over
    F_p[t]/t^2) and their graded objects, so only the algebra tells their
    generators apart: an algebra that gets a freed one's id must build its
    own, and every partition matches the whole-group scan."""
    seen, reused = set(), 0
    for n in range(4 * len(ID_REUSE_SHAPES)):
        p, kind, ranks = ID_REUSE_SHAPES[n % len(ID_REUSE_SHAPES)]
        alg0 = _base_algebra(p, kind)
        ob = GradedObject.of(dict(enumerate(ranks)))
        A = ArtinLocalRing(trunc_poly_ring(p, 2))
        lifts = strict_lifts(A, alg0, ob, _scalar_diff(alg0, ob, (1,) + (0,) * (ranks[1] - 1)))
        assert iso_orbits(A, alg0, ob, lifts) == _scan_orbits(A, alg0, ob, lifts)
        reused += id(A.algebra(alg0)) in seen
        seen.add(id(A.algebra(alg0)))
        del A, alg0, lifts
        gc.collect()
    assert reused > 0


def test_components_match_union_find():
    rng = np.random.default_rng(0)
    for n, edges in ((1, 0), (7, 0), (40, 25), (200, 150), (200, 400)):
        src, dst = rng.integers(0, n, size=(2, edges))
        # a long chain, numbered backwards, besides the random edges
        src = np.concatenate([src, np.arange(n - 1, 0, -1)[: n // 4]])
        dst = np.concatenate([dst, np.arange(n - 2, -1, -1)[: n // 4]])
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for a, b in zip(src.tolist(), dst.tolist()):
            parent[max(find(a), find(b))] = min(find(a), find(b))
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        assert defun._components(src, dst, n) == [tuple(g) for g in groups.values()]


@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
def test_intertwiners_come_in_enumeration_order(monkeypatch, alg0, block):
    if block:
        monkeypatch.setattr(defun, "_BLOCK", block)
    ob = GradedObject.of({0: 1, 1: 2})
    A = ArtinLocalRing(trunc_poly_ring(2, 3))
    lifts = as_maps(A, alg0, ob, strict_lifts(A, alg0, ob, _scalar_diff(alg0, ob, (1, 0))))
    zero_lifts = as_maps(A, alg0, ob, strict_lifts(A, alg0, ob, GradedMap(alg0, ob, ob, 1, {})))
    for d1, d2 in [(lifts[0], lifts[5]), (lifts[3], lifts[3]),
                   (zero_lifts[0], zero_lifts[1])]:
        first = next((u for u in _unipotents(A, d1.alg, ob)
                      if compose(u, d1) == compose(d2, u)), None)
        one = identity_map(d1.alg, ob).coef
        found = next(defun._intertwiners(A, ob, d1, d2, one, 1 << 20), None)
        assert (found is None) == (first is None)
        if first is not None:
            assert found == first
    assert found is None


# -- batched strict lifts against one GradedMap per candidate --

def _reference_strict_lifts(A, alg0, ob, d0):
    """Every candidate as a GradedMap, kept when compose(d, d) is zero; the
    digits of the index in base |m|, least significant first, pick the
    coefficients in degree, row, column, algebra-basis order."""
    shapes = [(i, ob.rank(i + 1), ob.rank(i)) for i in ob.support if ob.rank(i + 1) > 0]
    ncoef = sum(r * c for _, r, c in shapes) * alg0.k
    algR = tensor_algebra(A.ring, alg0)
    out = []
    for idx in range(A.msize ** ncoef):
        rem = idx
        digits = []
        for _ in range(ncoef):
            digits.append(rem % A.msize)
            rem //= A.msize
        comps = {}
        pos = 0
        for i, r, c in shapes:
            data = (block_view(alg0, ob, ob, 1, d0.coef[None])[i][0]
                    * A.ring.one_vec()) % A.ring.orders
            flat = data.reshape(-1, A.ring.m)
            for e in range(r * c * alg0.k):
                flat[e] = (flat[e] + A.mvecs[digits[pos]]) % A.ring.orders
                pos += 1
            comps[i] = AlgMatrix(algR, data)
        d = GradedMap(algR, ob, ob, 1, comps)
        if compose(d, d).is_zero():
            out.append(d)
    return out, A.msize ** ncoef


@pytest.mark.parametrize("block", [None, SMALL_BLOCK])
@pytest.mark.parametrize("p, a, kind, ranks, entries", STRICT_SHAPES)
def test_batched_strict_lifts_match_per_candidate_reference(monkeypatch, block, p, a,
                                                            kind, ranks, entries):
    if block:
        monkeypatch.setattr(defun, "_BLOCK", block)
    alg0 = _base_algebra(p, kind)
    ob = GradedObject.of(dict(enumerate(ranks)))
    A = ArtinLocalRing(trunc_poly_ring(p, a))
    d0 = _scalar_diff(alg0, ob, entries)
    want, total = _reference_strict_lifts(A, alg0, ob, d0)
    got = strict_lifts(A, alg0, ob, d0)
    assert list(map(tuple, got.tolist())) == [map_coords(d) for d in want]
    assert want and (len(want) < total or len(ranks) == 2)


# -- the homotopy-equivalence search against one GradedMap per homotopy --

def _reference_residues(alg0, ob, d0, cap=1 << 20):
    res_cands, seen = [], set()
    one0 = identity_map(alg0, ob)
    for h in enumerate_graded_maps(alg0, ob, ob, -1, cap):
        g = one0 + delta(h, d0, d0)
        if map_coords(g) not in seen:
            seen.add(map_coords(g))
            res_cands.append(g)
    return res_cands


def _reference_homotopy_equivalent(A, alg0, ob, d0, d1, d2, cap=1 << 20):
    """Residues homotopic to 1 and null-homotopies by enumerating one
    GradedMap per map; the intertwiners come from defun."""
    algR = d1.alg
    res_cands = _reference_residues(alg0, ob, d0, cap)

    def candidates(da, db):
        return [u for g in res_cands
                for u in defun._intertwiners(A, ob, da, db, A.scalars(g.coef), cap)]

    def null_homotopic(m, da, db):
        return any(delta(P, da, db) == m
                   for P in enumerate_graded_maps(algR, ob, ob, -1, cap))

    oneR = identity_map(algR, ob)
    us, vs = candidates(d1, d2), candidates(d2, d1)
    return any(null_homotopic(oneR - compose(v, u), d1, d1)
               and null_homotopic(oneR - compose(u, v), d2, d2)
               for u in us for v in vs)


def test_homotopy_equivalence_search_matches_reference():
    """On the criterion-8 shapes: the residues homotopic to 1, and the first
    lift against every lift."""
    verdicts, residue_counts = set(), set()
    for p in (2, 3):
        A = ArtinLocalRing(trunc_poly_ring(p, 2))
        for ranks in ((1, 1), (1, 1, 1), (1, 2)):
            ob = GradedObject.of(dict(enumerate(ranks)))
            for a0, d0 in _base_diffs(p, ob):
                residues = defun._residues_homotopic_to_one(a0, ob, d0, 1 << 20)
                want = {map_coords(g) for g in _reference_residues(a0, ob, d0)}
                assert sorted(map(tuple, residues.tolist())) == sorted(want)
                residue_counts.add(len(residues))
                lifts = as_maps(A, a0, ob, strict_lifts(A, a0, ob, d0))
                for d2 in lifts:
                    got = defun._homotopy_equivalent(A, a0, ob, d0, lifts[0], d2)
                    assert got == _reference_homotopy_equivalent(A, a0, ob, d0, lifts[0], d2)
                    verdicts.add(got)
    assert verdicts == {True, False} and len(residue_counts) > 1
