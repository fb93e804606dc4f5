"""Deformation functors of a base complex over artinian local F_p-algebras.

For an artinian local F_p-algebra (R, m) and a base complex (C0, d0) over
F_p, the functors computed here are:

    F0(R) = all square-zero differentials on R (x) C0 reducing to d0,
    F(R)  = F0(R) modulo conjugation by graded automorphisms 1 + nu
            with nu having coefficients in m,
    F1(R) = classes of lifts in the homotopy category.

F0 is enumerated exactly (the equations are quadratic over R, so every
candidate is tested by honest matrix arithmetic); F is the orbit partition;
F1 coincides with F's classification and can be cross-checked by an
exhaustive homotopy-equivalence search.  Schlessinger-style conditions are
verified on concrete fiber-product rings, and one-parameter deformations are
extended order by order through the truncated-polynomial towers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import AlgMatrix, DeformedAlgebra, LevelAlgebra
from .complexes import (
    GradedMap,
    GradedObject,
    HomComplex,
    compose,
    delta,
    enumerate_graded_maps,
    identity_map,
)
from .errors import (
    CapExceeded,
    CheckFailed,
    NotLocal,
    ValidationError,
)
from .finring import (
    FiniteRing,
    RingSurjection,
    minimal_section,
    mk_tower,
    vec_key,
    zmod_ring,
)
from .obstruction import DifferentialProblem, LiftReport, lift_differential

DEFAULT_CAP = 1 << 20
MAX_ARTIN_SIZE = 1 << 12


@dataclass(eq=False)
class ArtinLocalRing:
    """Finite local F_p-algebra with residue field F_p."""

    ring: FiniteRing

    def __post_init__(self):
        if self.ring.cardinality > MAX_ARTIN_SIZE:
            raise ValidationError("artinian ring exceeds the size cap")
        if np.any(self.ring.orders != self.ring.p):
            raise ValidationError("not an F_p-algebra: p does not kill the ring")
        if not self.ring.is_local():
            raise NotLocal("ring is not local with residue field F_p")
        self.mvecs = self.ring.nilpotent_vectors      # lex order
        self._mkeys = {vec_key(v) for v in self.mvecs}

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def msize(self) -> int:
        return len(self.mvecs)

    def residue(self, v: np.ndarray) -> int:
        """The residue in F_p = R/m of a ring element."""
        one = self.ring.one_vec()
        for c in range(self.p):
            if vec_key((v - c * one) % self.ring.orders) in self._mkeys:
                return c
        raise ValidationError("element has no residue; ring is not local")

    def section(self, c: int) -> np.ndarray:
        return (int(c) * self.ring.one_vec()) % self.ring.orders

    def is_field(self) -> bool:
        return self.msize == 1


def tensor_algebra(ring: FiniteRing, alg0: LevelAlgebra) -> LevelAlgebra:
    """R (x) Lambda_0 for a base algebra over F_p."""
    if alg0.ring.m != 1 or alg0.ring.orders[0] != ring.p:
        raise ValidationError("base algebra must live over F_p")
    one = ring.one_vec()
    struct = (alg0.struct[..., 0:1] * one) % ring.orders
    unit = (alg0.unit[..., 0:1] * one) % ring.orders
    return LevelAlgebra(ring, struct, unit)


def _lift_map_to(algR: LevelAlgebra, A: ArtinLocalRing, f0: GradedMap) -> GradedMap:
    """Coefficientwise section F_p -> R of a base-level graded map."""
    comps = {}
    for i, mat in f0.comps.items():
        data = (mat.data[..., 0:1] * A.ring.one_vec()) % A.ring.orders
        comps[i] = AlgMatrix(algR, data)
    return GradedMap(algR, f0.src, f0.tgt, f0.degree, comps)


def map_coords(f: GradedMap) -> tuple[int, ...]:
    parts = []
    for i in sorted(set(f.src.support)):
        parts.extend(int(x) for x in f.comp(i).data.reshape(-1))
    return tuple(parts)


# ---------------------------------------------------------------------------
# F0: exact enumeration of strict lifts
# ---------------------------------------------------------------------------

def _strict_candidates(A: ArtinLocalRing, alg0: LevelAlgebra, ob: GradedObject,
                       d0: GradedMap, cap: int):
    """Validate d0 and count the strict-lift candidates against the cap:
    (component shapes, coefficients, candidates)."""
    if not compose(d0, d0).is_zero():
        raise ValidationError("d0 is not a differential")
    shapes = [(i, ob.rank(i + 1), ob.rank(i)) for i in ob.support
              if ob.rank(i + 1) > 0]
    ncoef = sum(r * c for _, r, c in shapes) * alg0.k
    total = A.msize ** ncoef
    if total > cap:
        raise CapExceeded(f"{total} strict-lift candidates exceed the cap {cap}")
    return shapes, ncoef, total


def strict_lifts(A: ArtinLocalRing, alg0: LevelAlgebra, ob: GradedObject,
                 d0: GradedMap, cap: int = DEFAULT_CAP) -> list[GradedMap]:
    """All differentials on R (x) C0 lifting d0, in enumeration order.

    The square-zero condition is quadratic over R, so every candidate is
    tested directly.
    """
    shapes, ncoef, total = _strict_candidates(A, alg0, ob, d0, cap)
    algR = tensor_algebra(A.ring, alg0)
    base = _lift_map_to(algR, A, d0)
    out = []
    for idx in range(total):
        rem = idx
        digits = []
        for _ in range(ncoef):
            digits.append(rem % A.msize)
            rem //= A.msize
        comps = {}
        pos = 0
        for i, r, c in shapes:
            data = base.comp(i).data.copy()
            flat = data.reshape(-1, A.ring.m)
            for e in range(r * c * alg0.k):
                flat[e] = (flat[e] + A.mvecs[digits[pos]]) % A.ring.orders
                pos += 1
            comps[i] = AlgMatrix(algR, data)
        d = GradedMap(algR, ob, ob, 1, comps)
        if compose(d, d).is_zero():
            out.append(d)
    return out


# ---------------------------------------------------------------------------
# F: orbits under unipotent conjugation
# ---------------------------------------------------------------------------

def unipotent_inverse(algR: LevelAlgebra, u: GradedMap) -> GradedMap:
    """Inverse of a degree-0 automorphism congruent to 1 mod nilpotents,
    by Newton iteration v <- v(2 - uv)."""
    one = identity_map(algR, u.src)
    v = one
    for _ in range(64):
        uv = compose(u, v)
        if uv == one:
            return v
        v = compose(v, one + one - uv)
    raise ValidationError("map is not unipotently invertible")


# The degree-0 maps base + nu, nu with coefficients in m, are enumerated in
# blocks of stacked component arrays {degree: (N, r, r, k, m)}, N <= _BLOCK,
# so that memory stays bounded however many there are.  Row n of a block is
# candidate start + n; its digits in base |m|, least significant first, pick
# the coefficients of nu in degree, row, column, algebra-basis order.
_BLOCK = 4096


def _left_op(alg: LevelAlgebra, a: np.ndarray) -> np.ndarray:
    """Left multiplication by stacked matrices a (..., r, c, k, m), as
    F_p-matrices (..., r*k*m, c*k*m) acting on columns of coefficients."""
    r, c = a.shape[-4:-2]
    km = alg.k * alg.ring.m
    op = np.einsum("...acis,isjtlw->...alwcjt", a, alg._T)
    return op.reshape(a.shape[:-4] + (r * km, c * km))


def _apply(alg: LevelAlgebra, op: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over alg for op = _left_op(alg, a); a and b stack by broadcasting."""
    c, s, k, m = b.shape[-4:]
    cols = np.moveaxis(b, -3, -1).reshape(b.shape[:-4] + (c * k * m, s))
    prod = op @ cols
    prod = prod.reshape(prod.shape[:-2] + (-1, k, m, s))
    return np.moveaxis(prod, -1, -3) % alg.ring.orders


def _m_candidates(A: ArtinLocalRing, k: int, ob: GradedObject, cap: int):
    """Count the degree-0 nu with coefficients in m, over an algebra of rank
    k, against the cap: (coefficients, candidates)."""
    ncoef = sum(r * r for _, r in ob.ranks) * k
    total = A.msize ** ncoef
    if total > cap:
        raise CapExceeded(f"{total} automorphism candidates exceed the cap {cap}")
    return ncoef, total


def _m_blocks(A: ArtinLocalRing, alg: LevelAlgebra, ob: GradedObject,
              base: GradedMap, cap: int):
    """base + nu for every degree-0 nu with coefficients in m, as blocks
    (N, {degree: (N, r, r, k, m)}) in enumeration order.  The cap is checked
    at the call, before any block is built."""
    ncoef, total = _m_candidates(A, alg.k, ob, cap)

    def block(start: int):
        rem = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        digits = np.empty((len(rem), ncoef), dtype=np.int64)
        for e in range(ncoef):
            digits[:, e] = rem % A.msize
            rem //= A.msize
        nu = A.mvecs[digits]
        comps, pos = {}, 0
        for i, r in ob.ranks:
            size = r * r * alg.k
            comp = nu[:, pos:pos + size].reshape(-1, r, r, alg.k, alg.ring.m)
            comps[i] = (comp + base.comp(i).data) % alg.ring.orders
            pos += size
        return len(digits), comps

    return (block(start) for start in range(0, total, _BLOCK))


def _unipotent_inverse_many(alg: LevelAlgebra, u: dict[int, np.ndarray],
                            u_ops: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
    """unipotent_inverse of every automorphism of a block at once; u_ops
    holds the _left_op of u."""
    one = {i: alg.eye(c.shape[1]).data for i, c in u.items()}
    v = {i: np.broadcast_to(one[i], c.shape) for i, c in u.items()}
    for _ in range(64):
        uv = {i: _apply(alg, u_ops[i], v[i]) for i in u}
        if all((uv[i] == one[i]).all() for i in u):
            return v
        v = {i: _apply(alg, _left_op(alg, v[i]), 2 * one[i] - uv[i]) for i in u}
    raise ValidationError("map is not unipotently invertible")


class _LiftIndex:
    """Vectorised lookup of coordinate rows among the strict lifts."""

    def __init__(self, lifts: list[GradedMap]):
        self.rows = self._pad([np.array([map_coords(d) for d in lifts], dtype=np.int64)],
                              len(lifts))
        keys = self._keys(self.rows)
        self.order = np.argsort(keys)
        self.sorted = keys[self.order]

    @staticmethod
    def _pad(parts: list[np.ndarray], size: int) -> np.ndarray:
        # one zero column, because rows of width 0 have no void view
        return np.concatenate([p.reshape(size, -1) for p in parts]
                              + [np.zeros((size, 1), np.int64)], axis=1)

    @staticmethod
    def _keys(rows: np.ndarray) -> np.ndarray:
        return rows.view(np.dtype((np.void, rows.shape[1] * 8))).reshape(-1)

    def find(self, parts: list[np.ndarray], size: int) -> np.ndarray:
        """Lift index of each of `size` rows, given as column blocks that
        concatenate to map_coords order; CheckFailed if some row is no lift."""
        rows = self._pad(parts, size)
        pos = np.searchsorted(self.sorted, self._keys(rows))
        hits = self.order[np.minimum(pos, len(self.order) - 1)]
        if not np.array_equal(self.rows[hits], rows):
            raise CheckFailed("conjugate left the strict-lift set")
        return hits


def _diff_degrees(ob: GradedObject) -> list[int]:
    """Degrees where a degree-1 endomorphism of ob has a component, in the
    order of map_coords."""
    return [i for i in ob.support if ob.rank(i + 1) > 0]


def iso_orbits(A: ArtinLocalRing, alg0: LevelAlgebra, ob: GradedObject,
               lifts: list[GradedMap], cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """Partition of the strict lifts under d -> u d u^{-1}, u = 1 + nu.

    Classes are merged block by block of conjugators.  Each block conjugates
    only the current class roots (least members), so the least member of
    every orbit meets every conjugator and its whole orbit is merged.
    """
    if not lifts:
        return []
    algR = lifts[0].alg
    blocks = _m_blocks(A, algR, ob, identity_map(algR, ob), cap)
    index = _LiftIndex(lifts)
    degs = _diff_degrees(ob)
    d_ops = {}
    root = np.arange(len(lifts))
    for size, u in blocks:
        u_ops = {i: _left_op(algR, c) for i, c in u.items()}
        uinv = _unipotent_inverse_many(algR, u, u_ops)
        for n, d in enumerate(lifts):
            if root[n] != n:
                continue
            if n not in d_ops:
                d_ops[n] = {i: _left_op(algR, d.comp(i).data) for i in degs}
            conj = [_apply(algR, u_ops[i + 1], _apply(algR, d_ops[n][i], uinv[i]))
                    for i in degs]
            hits = index.find(conj, size)
            merged = np.union1d(root[hits], root[n])
            root[np.isin(root, merged)] = merged[0]
    return [tuple(np.flatnonzero(root == r).tolist()) for r in np.unique(root)]


def _intertwiners(A: ArtinLocalRing, ob: GradedObject, d1: GradedMap,
                  d2: GradedMap, base: GradedMap, cap: int):
    """Yield, in enumeration order, every u = base + nu (nu with coefficients
    in m) with u d1 = d2 u."""
    algR = d1.alg
    degs = _diff_degrees(ob)
    d2_ops = {i: _left_op(algR, d2.comp(i).data) for i in degs}
    d1_data = {i: d1.comp(i).data for i in degs}
    for size, u in _m_blocks(A, algR, ob, base, cap):
        ok = np.ones(size, dtype=bool)
        for i in degs:
            lhs = _apply(algR, _left_op(algR, u[i + 1]), d1_data[i])
            rhs = _apply(algR, d2_ops[i], u[i])
            ok &= (lhs == rhs).all(axis=(1, 2, 3, 4))
        for n in np.flatnonzero(ok).tolist():
            yield GradedMap(algR, ob, ob, 0,
                            {i: AlgMatrix(algR, c[n]) for i, c in u.items()})


def find_intertwiner(A: ArtinLocalRing, ob: GradedObject, d1: GradedMap,
                     d2: GradedMap, cap: int = DEFAULT_CAP) -> GradedMap | None:
    """The first unipotent u, in enumeration order, with u d1 = d2 u, or None."""
    one = identity_map(d1.alg, ob)
    return next(_intertwiners(A, ob, d1, d2, one, cap), None)


# ---------------------------------------------------------------------------
# F1: homotopy classes, by exhaustive search
# ---------------------------------------------------------------------------

def _homotopy_equivalent(A: ArtinLocalRing, alg0: LevelAlgebra,
                         ob: GradedObject, d0: GradedMap,
                         d1: GradedMap, d2: GradedMap,
                         cap: int = DEFAULT_CAP) -> bool:
    """Search for a homotopy equivalence (R (x) C0, d1) -> (R (x) C0, d2)
    lifting a map homotopic to the identity."""
    algR = d1.alg
    p = A.p
    # residues homotopic to 1: g = 1 + delta0(h), h over F_p in degree -1
    res_cands = []
    seen_res = set()
    one0 = identity_map(alg0, ob)
    for h in enumerate_graded_maps(alg0, ob, ob, -1, cap):
        g = one0 + delta(h, d0, d0)
        key = map_coords(g)
        if key not in seen_res:
            seen_res.add(key)
            res_cands.append(g)

    def candidates(da, db):
        """Cochain maps (da) -> (db) over R whose residue is homotopic to 1."""
        return [u for g in res_cands
                for u in _intertwiners(A, ob, da, db, _lift_map_to(algR, A, g), cap)]

    def null_homotopic(m, da, db):
        """Is the degree-0 map m of the form delta(P) for P over R?"""
        for P in enumerate_graded_maps(algR, ob, ob, -1, cap):
            if delta(P, da, db) == m:
                return True
        return False

    oneR = identity_map(algR, ob)
    us = candidates(d1, d2)
    if not us:
        return False
    vs = candidates(d2, d1)
    for u in us:
        for v in vs:
            if (null_homotopic(oneR - compose(v, u), d1, d1)
                    and null_homotopic(oneR - compose(u, v), d2, d2)):
                return True
    return False


def homotopy_classes(A: ArtinLocalRing, alg0: LevelAlgebra, ob: GradedObject,
                     d0: GradedMap, lifts: list[GradedMap],
                     cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """Partition of the strict lifts by homotopy equivalence (exhaustive)."""
    n = len(lifts)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if find(i) == find(j):
                continue
            if _homotopy_equivalent(A, alg0, ob, d0, lifts[i], lifts[j], cap):
                parent[find(j)] = find(i)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(tuple(sorted(v)) for v in groups.values())


# ---------------------------------------------------------------------------
# functor evaluation
# ---------------------------------------------------------------------------

@dataclass
class FunctorValue:
    tag: str                      # "F0" | "F" | "F1"
    ring: FiniteRing
    elements: list[tuple[int, ...]]       # canonical coordinates of the lifts
    classes: list[tuple[int, ...]]        # partition (singletons for F0)
    reps: list[int]                       # index of the minimal element per class


def functor_eval(A: ArtinLocalRing, alg0: LevelAlgebra, ob: GradedObject,
                 d0: GradedMap, cap: int = DEFAULT_CAP,
                 cross_check: bool = False) -> dict[str, FunctorValue]:
    """The values of F0, F and F1 at A, keyed by tag.

    The strict lifts are enumerated once, and F and F1 share one orbit
    partition; cross_check compares it with the exhaustive homotopy classes.
    Both caps are checked before any lift is enumerated.
    """
    _strict_candidates(A, alg0, ob, d0, cap)
    _m_candidates(A, alg0.k, ob, cap)
    lifts = strict_lifts(A, alg0, ob, d0, cap)
    coords = [map_coords(d) for d in lifts]
    orbits = sorted(iso_orbits(A, alg0, ob, lifts, cap))
    if cross_check:
        hcls = homotopy_classes(A, alg0, ob, d0, lifts, cap)
        if hcls != orbits:
            raise CheckFailed(
                "homotopy classes disagree with conjugation orbits: "
                f"{hcls} vs {orbits}")
    values = {}
    for tag, classes in (("F0", [(i,) for i in range(len(lifts))]),
                         ("F", orbits), ("F1", orbits)):
        if A.is_field() and len(classes) != 1:
            raise CheckFailed("value over the residue field is not a singleton")
        reps = [min(cl, key=lambda i: coords[i]) for cl in classes]
        values[tag] = FunctorValue(tag, A.ring, coords, classes, reps)
    return values


def tangent_dim(alg0: LevelAlgebra, ob: GradedObject, d0: GradedMap) -> int:
    """dim_{F_p} H^1 Hom(C0, C0): the tangent space of the functor F."""
    hc = HomComplex(alg0, ob, ob, d0, d0)
    z = hc.dim(1) - gf.rank(hc.delta_matrix(1), alg0.ring.p)
    b = gf.rank(hc.delta_matrix(0), alg0.ring.p)
    return z - b


# ---------------------------------------------------------------------------
# Schlessinger-type checks on concrete rings
# ---------------------------------------------------------------------------

def push_diff(surj: RingSurjection, alg_t: LevelAlgebra, d: GradedMap) -> GradedMap:
    comps = {}
    for i, mat in d.comps.items():
        flat = mat.data.reshape(-1, surj.source.m)
        out = surj.apply_many(flat).reshape(mat.data.shape[:3] + (surj.target.m,))
        comps[i] = AlgMatrix(alg_t, out)
    return GradedMap(alg_t, d.src, d.tgt, d.degree, comps)


def is_small(surj: RingSurjection) -> bool:
    """Kernel is one-dimensional over F_p and killed by the maximal ideal."""
    ker = surj.kernel_vectors()
    if len(ker) != surj.source.p:
        return False
    A = ArtinLocalRing(surj.source)
    for k in ker:
        for mv in A.mvecs:
            if surj.source.mul_vec(k, mv).any():
                return False
    return True


@dataclass
class TripleReport:
    f0_bijective: bool
    f_surjective: bool
    f_bijective: bool
    sizes: dict


@dataclass
class SmoothReport:
    pairs_checked: int
    vacuous: bool
    ok: bool


@dataclass
class SchlessingerReport:
    triples: list[TripleReport]
    smooth: list[SmoothReport]
    ok: bool


def check_triple(f1: RingSurjection, f2: RingSurjection, alg0: LevelAlgebra,
                 ob: GradedObject, d0: GradedMap,
                 cap: int = DEFAULT_CAP) -> TripleReport:
    """Compare F0/F on R' x_R R'' with the fiber product of values."""
    from .finring import ring_fiber_product
    fp = ring_fiber_product(f1, f2)
    AP = ArtinLocalRing(fp.ring)
    A1 = ArtinLocalRing(f1.source)
    A2 = ArtinLocalRing(f2.source)
    AR = ArtinLocalRing(f1.target)
    algP = tensor_algebra(fp.ring, alg0)
    alg1 = tensor_algebra(f1.source, alg0)
    alg2 = tensor_algebra(f2.source, alg0)
    algR = tensor_algebra(f1.target, alg0)

    LP = strict_lifts(AP, alg0, ob, d0, cap)
    L1 = strict_lifts(A1, alg0, ob, d0, cap)
    L2 = strict_lifts(A2, alg0, ob, d0, cap)

    k1 = {map_coords(d): i for i, d in enumerate(L1)}
    k2 = {map_coords(d): i for i, d in enumerate(L2)}
    images = set()
    for d in LP:
        a = map_coords(push_diff(fp.proj1, alg1, d))
        b = map_coords(push_diff(fp.proj2, alg2, d))
        pair = (k1[a], k2[b])
        if pair in images:
            break
        images.add(pair)
    injective = len(images) == len(LP)
    compat = set()
    for i, da in enumerate(L1):
        ra = map_coords(push_diff(f1, algR, da))
        for j, db in enumerate(L2):
            if ra == map_coords(push_diff(f2, algR, db)):
                compat.add((i, j))
    f0_bij = injective and images == compat

    # class level
    O_P = iso_orbits(AP, alg0, ob, LP, cap)
    O_1 = iso_orbits(A1, alg0, ob, L1, cap)
    O_2 = iso_orbits(A2, alg0, ob, L2, cap)
    cls1 = {i: ci for ci, cl in enumerate(O_1) for i in cl}
    cls2 = {i: ci for ci, cl in enumerate(O_2) for i in cl}
    f_pairs = set()
    for cl in O_P:
        d = LP[cl[0]]
        a = cls1[k1[map_coords(push_diff(fp.proj1, alg1, d))]]
        b = cls2[k2[map_coords(push_diff(fp.proj2, alg2, d))]]
        f_pairs.add((a, b))
    # compatible class pairs over R
    LR = strict_lifts(AR, alg0, ob, d0, cap)
    O_R = iso_orbits(AR, alg0, ob, LR, cap)
    kR = {map_coords(d): i for i, d in enumerate(LR)}
    clsR = {i: ci for ci, cl in enumerate(O_R) for i in cl}
    compat_cls = set()
    for ci, cl in enumerate(O_1):
        r = clsR[kR[map_coords(push_diff(f1, algR, L1[cl[0]]))]]
        for cj, cl2 in enumerate(O_2):
            r2 = clsR[kR[map_coords(push_diff(f2, algR, L2[cl2[0]]))]]
            if r == r2:
                compat_cls.add((ci, cj))
    f_surj = compat_cls.issubset(f_pairs)
    f_bij = f_surj and len(f_pairs) == len(O_P)
    return TripleReport(f0_bij, f_surj, f_bij,
                        {"F0(P)": len(LP), "F0(R')": len(L1), "F0(R'')": len(L2),
                         "F(P)": len(O_P), "F(R')": len(O_1), "F(R'')": len(O_2)})


def check_smoothness(pi: RingSurjection, alg0: LevelAlgebra, ob: GradedObject,
                     d0: GradedMap, cap: int = DEFAULT_CAP) -> SmoothReport:
    """Formal smoothness of F0 -> F along pi: R -> S on concrete data.

    For every strict lift d_R over R and strict lift d_S over S isomorphic
    to the image of d_R, a conjugate of d_R must map exactly onto d_S.  The
    conjugator is the coefficientwise section of the S-level intertwiner,
    which is unipotent, hence exactly invertible over R.
    """
    AR = ArtinLocalRing(pi.source)
    AS = ArtinLocalRing(pi.target)
    algR = tensor_algebra(pi.source, alg0)
    algS = tensor_algebra(pi.target, alg0)
    LR = strict_lifts(AR, alg0, ob, d0, cap)
    LS = strict_lifts(AS, alg0, ob, d0, cap)
    section = minimal_section(pi)
    pairs = 0
    for dR in LR:
        dRS = push_diff(pi, algS, dR)
        for dS in LS:
            u = find_intertwiner(AS, ob, dRS, dS, cap)
            if u is None:
                continue
            pairs += 1
            comps = {}
            for i in u.support():
                mat = u.comp(i)
                flat = mat.data.reshape(-1, pi.target.m)
                out = np.stack([section[vec_key(v)] for v in flat])
                comps[i] = AlgMatrix(algR, out.reshape(
                    mat.data.shape[:3] + (pi.source.m,)))
            ubar = GradedMap(algR, ob, ob, 0, comps)
            uinv = unipotent_inverse(algR, ubar)
            dR2 = compose(compose(ubar, dR), uinv)
            if map_coords(push_diff(pi, algS, dR2)) != map_coords(dS):
                raise CheckFailed("conjugated lift does not map onto d_S")
            if not compose(dR2, dR2).is_zero():
                raise CheckFailed("conjugated lift is not square-zero")
            if find_intertwiner(AR, ob, dR, dR2, cap) is None:
                raise CheckFailed("conjugated lift left its class")
    return SmoothReport(pairs, pairs == 0, True)


def schlessinger_check(alg0: LevelAlgebra, ob: GradedObject, d0: GradedMap,
                       triples: list[tuple[RingSurjection, RingSurjection]],
                       surjections: list[RingSurjection] | None = None,
                       cap: int = DEFAULT_CAP) -> SchlessingerReport:
    treports = []
    for f1, f2 in triples:
        tr = check_triple(f1, f2, alg0, ob, d0, cap)
        if not tr.f0_bijective:
            raise CheckFailed("fiber-product bijection of strict lifts failed")
        if is_small(f2) and not tr.f_surjective:
            raise CheckFailed("class-level surjectivity failed on a small map")
        treports.append(tr)
    sreports = []
    for pi in (surjections or []):
        sreports.append(check_smoothness(pi, alg0, ob, d0, cap))
    return SchlessingerReport(treports, sreports, True)


# ---------------------------------------------------------------------------
# order-by-order extension
# ---------------------------------------------------------------------------

def extend_order(p: int, alg0: LevelAlgebra, ob: GradedObject,
                 d_current: GradedMap, n: int) -> LiftReport:
    """Extend a differential over F_p[t]/(t^n) to F_p[t]/(t^{n+1}).

    Uses the one-step tower F_p[t]/(t^{n+1}) -> F_p[t]/(t^n) -> F_p, whose
    two kernels multiply to zero; reports the extension or the order-(n+1)
    obstruction class.
    """
    tower = mk_tower("trunc_poly", p, a=n + 1, b=n)
    bar_alg = tensor_algebra(tower.Rbar, alg0)
    defalg = DeformedAlgebra(tower, bar_alg)
    d_mid = GradedMap(defalg.mid, ob, ob, 1,
                      {i: defalg.mid.mat(m.data) for i, m in d_current.comps.items()})
    prob = DifferentialProblem(defalg, ob, d_mid)
    return lift_differential(prob)


def trivial_base_algebra(p: int) -> LevelAlgebra:
    ring = zmod_ring(p, 1)
    struct = np.ones((1, 1, 1, 1), dtype=np.int64) % p
    unit = np.ones((1, 1), dtype=np.int64) % p
    return LevelAlgebra(ring, struct, unit)
