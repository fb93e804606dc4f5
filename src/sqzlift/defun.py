"""Deformation functors of a base complex over artinian local F_p-algebras.

For an artinian local F_p-algebra (R, m) and a base complex (C0, d0) over
F_p, the functors computed here are:

    F0(R) = all square-zero differentials on R (x) C0 reducing to d0,
    F(R)  = F0(R) modulo conjugation by graded automorphisms 1 + nu
            with nu having coefficients in m,
    F1(R) = classes of lifts in the homotopy category.

F0 is enumerated exactly: the equations are quadratic over R, so every
candidate is tested by honest matrix arithmetic, on blocks of candidates
stacked as coefficient vectors (the digits of the candidate index pick the
coefficients) and read through the block view of complexes.py.  The lifts
are one (N, ncoef) stack, row n the coefficient vector of lift n.  F is the
orbit partition of that stack: the closure of each lift under generators of
the unipotent group, elementary transvections whose conjugation changes one
column and one row of a lift, in blocks of conjugates.  F1 coincides with F's
classification and can be cross-checked by an exhaustive homotopy-equivalence
search, whose affine questions (is a map a delta?) go through the scan
kernel gf.scan_affine_zero.
Schlessinger-style conditions are verified on concrete fiber-product rings:
lifts move between rings by mapping their rows, are found again with one
sorted index per ring, and are compared by their orbit labels.
One-parameter deformations are extended order by order through the
truncated-polynomial towers.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import LevelAlgebra
from .complexes import (
    Blocks,
    GradedMap,
    GradedObject,
    HomComplex,
    add_blocks,
    block_view,
    coefficient_count,
    compose,
    compose_blocks,
    delta_solutions,
    identity_map,
    reduce_coefficients,
    stack_of,
)
from .errors import CapExceeded, CheckFailed, NotLocal, ShapeMismatch, ValidationError
from .finring import (
    SHARED_TOWERS,
    FiniteRing,
    RingSurjection,
    _read_only,
    identity_memo,
    is_shared,
    ring_fiber_product,
    shared_cache,
    trunc_poly_ring,
    zmod_ring,
)
from .gf import DEFAULT_CAP
from .obstruction import DifferentialProblem, LiftReport, lift_differential

MAX_ARTIN_SIZE = 1 << 12


@dataclass(eq=False)
class ArtinLocalRing:
    """Finite local F_p-algebra with residue field F_p.

    It keeps what the functor computations derive from the ring alone, for
    as long as it lives: its maximal ideal m (mvecs), the m-adapted basis
    (_m_basis), and R (x) Lambda_0 for the last base algebra Lambda_0 asked
    for, which keeps its transvection multipliers and the orbit generators
    of the last ORBIT_TABLES graded objects (_multipliers, _generators).
    artin_ring(ring) gives the one
    instance kept for a ring of a shared tower, so that data is built once
    per process; for any other ring it is a new instance.
    """

    ring: FiniteRing

    def __post_init__(self):
        if self.ring.cardinality > MAX_ARTIN_SIZE:
            raise ValidationError("artinian ring exceeds the size cap")
        if np.any(self.ring.orders != self.ring.p):
            raise ValidationError("not an F_p-algebra: p does not kill the ring")
        if not self.ring.is_local():
            raise NotLocal("ring is not local with residue field F_p")
        self.mvecs = _read_only(self.ring.elements()[self.ring.nilpotent_mask])   # lex order
        self._algebra = None   # (weak reference to alg0, R (x) alg0)

    @property
    def p(self) -> int:
        return self.ring.p

    @property
    def msize(self) -> int:
        return len(self.mvecs)

    def algebra(self, alg0: LevelAlgebra) -> LevelAlgebra:
        """R (x) alg0, built once for the last base algebra asked for, and
        kept only while that algebra lives."""
        if self._algebra is None or self._algebra[0]() is not alg0:
            self._algebra = weakref.ref(alg0), tensor_algebra(self.ring, alg0)
        return self._algebra[1]

    def scalars(self, coef: np.ndarray) -> np.ndarray:
        """Base-level coefficient vectors (the last axis) read over R: each
        c in F_p becomes c * 1, so each coefficient grows m coordinates."""
        coef = np.asarray(coef, dtype=np.int64)
        out = coef[..., None] * self.ring.one_vec() % self.ring.orders
        return out.reshape(coef.shape[:-1] + (coef.shape[-1] * self.ring.m,))

    def is_field(self) -> bool:
        return self.msize == 1


@shared_cache(2 * SHARED_TOWERS)
def _shared_artin_ring(ring: FiniteRing) -> ArtinLocalRing:
    return ArtinLocalRing(ring)


def artin_ring(ring: FiniteRing) -> ArtinLocalRing:
    """The ArtinLocalRing of ring: the one kept for a ring of a shared tower
    (finring.is_shared), with its orbit data; a new one for any other ring."""
    return _shared_artin_ring(ring) if is_shared(ring) else ArtinLocalRing(ring)


def tensor_algebra(ring: FiniteRing, alg0: LevelAlgebra) -> LevelAlgebra:
    """R (x) Lambda_0 for a base algebra over F_p."""
    if alg0.ring.m != 1 or alg0.ring.orders[0] != ring.p:
        raise ValidationError("base algebra must live over F_p")
    one = ring.one_vec()
    struct = (alg0.struct[..., 0:1] * one) % ring.orders
    unit = (alg0.unit[..., 0:1] * one) % ring.orders
    algR = LevelAlgebra(ring, struct, unit)
    _read_only(algR.struct, algR.unit)
    return algR


# ---------------------------------------------------------------------------
# the candidate blocks
# ---------------------------------------------------------------------------

# Maps base + nu, nu with coefficients in m, are enumerated in blocks: (N,
# ncoef) stacks of coefficient vectors, N <= _BLOCK, so that memory stays
# bounded however many there are.  Row n of a block is candidate start + n;
# its digits in base |m|, least significant first, pick nu's coefficients in
# coefficient order (degree, row, column, algebra basis).  iso_orbits makes
# its conjugates _BLOCK at a time too, as a copy of up to _BLOCK lift rows
# with one column and one row changed per generator.
_BLOCK = 4096


def _blocks(A: ArtinLocalRing, alg: LevelAlgebra, base: np.ndarray, cap: int, what: str):
    """base + nu for every nu as above, base a coefficient vector over alg,
    as stacks in enumeration order.  The cap is checked at the call, before
    any block is built."""
    entries = len(base) // alg.ring.m
    total = gf.count_candidates(A.msize, entries, cap, what)

    def block(start: int):
        idx = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        nu = A.mvecs[gf.digits(idx, entries, A.msize)].reshape(len(idx), -1)
        return reduce_coefficients(alg, nu + base)

    return (block(start) for start in range(0, total, _BLOCK))


def _zero_rows(blocks: Blocks, size: int) -> np.ndarray:
    """Which of the size rows of a stack, given by its blocks, are zero."""
    ok = np.ones(size, dtype=bool)
    for blk in blocks.values():
        ok &= ~blk.reshape(size, -1).any(axis=1)
    return ok


# ---------------------------------------------------------------------------
# F0: exact enumeration of strict lifts
# ---------------------------------------------------------------------------

def _check_base(d0: GradedMap) -> None:
    if not compose(d0, d0).is_zero():
        raise ValidationError("d0 is not a differential")


def strict_lifts(A: ArtinLocalRing, alg0: LevelAlgebra, ob: GradedObject,
                 d0: GradedMap, cap: int = DEFAULT_CAP) -> np.ndarray:
    """All differentials on R (x) C0 lifting d0, in enumeration order, as
    one (N, ncoef) stack of coefficient vectors over A.algebra(alg0).

    The square-zero condition is quadratic over R, so every candidate is
    tested directly, a block of candidates at a time, and the rows that pass
    are kept.
    """
    _check_base(d0)
    algR = A.algebra(alg0)
    kept = []
    for d in _blocks(A, algR, A.scalars(d0.coef), cap, "strict-lift candidates"):
        blk = block_view(algR, ob, ob, 1, d)
        kept.append(d[_zero_rows(compose_blocks(algR, blk, blk, 1), len(d))])
    return np.concatenate(kept)


# ---------------------------------------------------------------------------
# F: orbits under unipotent conjugation
# ---------------------------------------------------------------------------

def unipotent_inverse(algR: LevelAlgebra, u: GradedMap) -> GradedMap:
    """Inverse of a degree-0 automorphism congruent to 1 mod nilpotents: the
    one-row case of _unipotent_inverse_many."""
    if u.alg != algR or u.src != u.tgt or u.degree != 0:
        raise ShapeMismatch("not a degree-0 endomorphism over the algebra")
    ub = block_view(algR, u.src, u.tgt, 0, u.coef[None])
    inv = _unipotent_inverse_many(algR, u.src, ub, {i: algR.left_op(c) for i, c in ub.items()})
    return GradedMap.wrap(algR, u.src, u.tgt, 0, stack_of(algR, u.src, u.tgt, 0, inv, 1)[0])


def _unipotent_inverse_many(alg: LevelAlgebra, ob: GradedObject, u: Blocks,
                            u_ops: dict[int, np.ndarray]) -> Blocks:
    """The inverse of every automorphism of ob in a stack u at once, by
    Newton iteration v <- v(2 - uv); u_ops holds the left_op of u."""
    one = identity_map(alg, ob).blocks()
    v = {i: np.broadcast_to(one[i], c.shape) for i, c in u.items()}
    for _ in range(64):
        uv = {i: alg.apply_left(u_ops[i], v[i]) for i in u}
        if all((uv[i] == one[i]).all() for i in u):
            return v
        v = {i: alg.apply_left(alg.left_op(v[i]), 2 * one[i] - uv[i]) for i in u}
    raise ValidationError("map is not unipotently invertible")


class _LiftIndex:
    """Vectorised lookup of coefficient rows among the strict lifts, keyed by
    the rows' own bytes.  The rows are kept padded: with one zero column
    appended, because rows of width 0 have no void view."""

    def __init__(self, rows: np.ndarray):
        self.rows = self._pad(rows)
        keys = self._keys(self.rows)
        self.order = np.argsort(keys)
        self.sorted = keys[self.order]

    @staticmethod
    def _pad(rows: np.ndarray) -> np.ndarray:
        return np.concatenate([rows, np.zeros((len(rows), 1), np.int64)], axis=1)

    @staticmethod
    def _keys(padded: np.ndarray) -> np.ndarray:
        return padded.view(np.dtype((np.void, padded.shape[1] * 8))).reshape(-1)

    def find(self, rows: np.ndarray, padded: bool = False) -> np.ndarray:
        """Lift index of each row, given padded or not; CheckFailed if some
        row is no lift."""
        rows = rows if padded else self._pad(rows)
        pos = np.searchsorted(self.sorted, self._keys(rows))
        hits = self.order[np.minimum(pos, len(self.order) - 1)]
        if not np.array_equal(self.rows[hits], rows):
            raise CheckFailed("image left the strict-lift set")
        return hits


@identity_memo
def _m_basis(A: ArtinLocalRing) -> np.ndarray:
    """An F_p-basis of m adapted to m > m^2 > ...: its rows in m^k span m^k.
    The powers are row spaces, and from the deepest up each row is kept that
    is independent of the rows before it.  Built once per A, read-only."""
    ring, p = A.ring, A.p
    powers = [gf.row_space(A.mvecs, p)[0]]
    while len(powers[-1]):
        prods = np.einsum("ai,bj,ijk->abk", powers[-1], powers[0], ring.mult) % p
        powers.append(gf.row_space(prods.reshape(-1, ring.m), p)[0])
    rows = np.concatenate(powers[::-1])
    return _read_only(rows[gf.rref(rows.T, p)[1]])


def _components(src: np.ndarray, dst: np.ndarray, n: int) -> list[tuple[int, ...]]:
    """The components of the graph on n nodes with edges src -> dst, sorted
    tuples in order of least member: each round hooks the larger label of
    every edge onto the smaller and jumps every label to its root."""
    label = np.arange(n)
    while not np.array_equal(a := label[src], b := label[dst]):
        np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := label[label], label):
            label = jumped
    order = np.argsort(label, kind="stable")
    return [tuple(c.tolist()) for c in np.split(order, np.flatnonzero(np.diff(label[order])) + 1)]


@identity_memo
def _multipliers(algR: LevelAlgebra, basis: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For x = b e, b a row of basis and e an algebra basis element: the
    left multiplication by x, the right multiplication by -x, and the right
    multiplication by y = (1 + x)^-1 - 1, which is the sum over j >= 1 of
    (-x)^j (a finite sum: x is nilpotent).  Each is a (len(basis), k, k*m,
    k*m) stack of operators on the flat (k, m) coefficients of one entry,
    built from algR._T, so a noncommutative algebra is multiplied on the
    correct side.  Built once per algR and basis, read-only."""
    k, km, p, T = algR.k, algR.k * algR.ring.m, algR.ring.p, algR._T
    left = np.einsum("bs,esjvlw->belwjv", basis, T).reshape(len(basis), k, km, km) % p
    neg = -np.einsum("bs,iueslw->belwiu", basis, T).reshape(len(basis), k, km, km) % p
    inv, power = np.zeros_like(neg), neg   # right multiplication by (-x)^j is neg^j
    while power.any():
        inv, power = inv + power, power @ neg % p
    return _read_only(left), _read_only(neg), _read_only(inv % p)


def _transvections(algR: LevelAlgebra, ob: GradedObject, basis: np.ndarray
                   ) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """The generators u = 1 + x E_rc of iso_orbits, as the change each makes
    to a degree-1 map d: one (i0, src, dst, ops) per degree i0 of ob where d
    has a block to change, and u d u^-1 sets d[dst[g]] += ops[g] @ d[src[g]],
    entry by entry of k*m coefficients.

    Generator g = ((b * n0 + r) * n0 + c) * k + e of degree i0 (rank n0)
    has x = b e (see _multipliers) at row r and column c.  u is the identity
    outside degree i0, and u^-1 = 1 + y E_rc, with y = -x off the diagonal
    and y = (1 + x)^-1 - 1 on it.  So column c of d_{i0} gains (column r) y
    and row r of d_{i0-1} gains x (row c).  src and dst hold flat
    coefficient indices of shape (G, S * k*m), S entries per generator (the
    column, then the row), and ops is (G, S, k*m, k*m).  iso_orbits takes
    them merged into one group by _generators, which keeps it.
    """
    if not len(basis):   # m = 0: the group is trivial
        return []
    k, km = algR.k, algR.k * algR.ring.m
    left, neg, inv = _multipliers(algR, basis)
    # the flat coefficient index of every entry of a degree-1 map, by block
    at = block_view(algR, ob, ob, 1, np.arange(coefficient_count(algR, ob, ob, 1))[None])
    out = []
    for i0, n0 in ob.ranks:
        # the entries of column j of d_{i0} and of row j of d_{i0-1}, by j < n0
        empty = np.empty((n0, 0), dtype=np.int64)
        cols = at[i0][0].swapaxes(0, 1).reshape(n0, -1) if i0 in at else empty
        rows = at[i0 - 1][0].reshape(n0, -1) if i0 - 1 in at else empty
        if not (cols.size or rows.size):
            continue
        b, r, c, e = np.indices((len(basis), n0, n0, k)).reshape(4, -1)
        right = np.where((r == c)[:, None, None], inv[b, e], neg[b, e])
        ops = np.concatenate([np.repeat(right[:, None], cols.shape[1] // km, 1),
                              np.repeat(left[b, e][:, None], rows.shape[1] // km, 1)], 1)
        src = np.concatenate([cols[r], rows[c]], 1)
        dst = np.concatenate([cols[c], rows[r]], 1)
        out.append((i0, src, dst, ops))
    return out


# the (ob, basis) pairs whose generators are kept per ring algebra
ORBIT_TABLES = 8


@identity_memo(size=ORBIT_TABLES)
def _generators(algR: LevelAlgebra, ob: GradedObject, basis: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transvections of every degree as one group (src, dst, ops), in
    the order of _transvections: each degree's entries padded to the most
    that any degree has, with entries that read and write the padding
    column, index coefficient_count(algR, ob, ob, 1), the zero column that
    _LiftIndex appends, through zero operators.  Kept for algR, ob and
    basis while algR lives, read-only."""
    km = algR.k * algR.ring.m
    groups = [g[1:] for g in _transvections(algR, ob, basis)]
    G, S = sum(len(g[0]) for g in groups), max((g[2].shape[1] for g in groups), default=0)
    src = np.full((G, S * km), coefficient_count(algR, ob, ob, 1), dtype=np.int64)
    dst, ops = src.copy(), np.zeros((G, S, km, km), dtype=np.int64)
    g = 0
    for s, d, o in groups:
        src[g:g + len(s), :s.shape[1]], dst[g:g + len(s), :s.shape[1]] = s, d
        ops[g:g + len(s), :o.shape[1]] = o
        g += len(s)
    _read_only(src, dst, ops)
    return src, dst, ops


def iso_orbits(A: ArtinLocalRing, alg0: LevelAlgebra, ob: GradedObject,
               lifts: np.ndarray, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """Partition of a stack of strict lifts under d -> u d u^{-1}, u = 1 + nu.

    The u form a group filtered by the 1 + m^k, whose layers are spanned by
    the generators 1 + b, b one row of _m_basis(A) at one coefficient
    position; so an orbit is the closure of a lift under them.  Such a
    generator is an elementary transvection 1 + x E_rc, which changes one
    column and one row of a lift (_transvections), so every lift is
    conjugated by every generator in that closed form, with no product of
    whole blocks and no Newton inverse.  The generators of all degrees are
    one padded group (_generators), built once per ring algebra, graded
    object and basis and then kept, so a call conjugates in one round:
    _BLOCK conjugates at a time, the moved column and row of each lift go
    through the generators' multiplication operators into a copy of the
    padded lift stack, which is looked up as it is.  Each image is found
    among the lifts (CheckFailed if it is none), and the orbits are the
    components of the graph lift -> image.  The cap bounds the
    conjugations, lifts times generators, and is checked before the
    generators are built or looked up.
    """
    if not len(lifts):
        return []
    algR, basis, n = A.algebra(alg0), _m_basis(A), len(lifts)
    total = n * len(basis) * algR.k * sum(r * r for _, r in ob.ranks)
    if total > cap:
        raise CapExceeded(f"{total} conjugations exceed the cap {cap}")
    src, dst, ops = _generators(algR, ob, basis)
    index, p = _LiftIndex(lifts), A.p
    S, km = ops.shape[1:3]
    image = np.empty((len(src), n), dtype=np.int64)
    gstep = max(1, min(len(src), _BLOCK))
    lstep = max(1, _BLOCK // gstep)
    for g in range(0, len(src), gstep):
        for l in range(0, n, lstep):
            rows, at = index.rows[l:l + lstep], dst[g:g + gstep]
            G, L = len(at), len(rows)
            moved = np.einsum("gsyz,lgsz->lgsy", ops[g:g + gstep],
                              rows[:, src[g:g + gstep]].reshape(L, G, S, km))
            conj = np.tile(rows, (G, 1))   # row j * L + i: generator g + j on lift l + i
            where = (np.arange(G)[:, None] * L + np.arange(L)[:, None, None]) * rows.shape[1]
            np.put(conj, where + at, (rows[:, at] + moved.reshape(L, G, -1)) % p)
            image[g:g + G, l:l + L] = index.find(conj, padded=True).reshape(G, L)
    return _components(np.tile(np.arange(n), len(image)), image.ravel(), n)


def _intertwiners(A: ArtinLocalRing, ob: GradedObject, d1: GradedMap,
                  d2: GradedMap, base: np.ndarray, cap: int):
    """Yield, in enumeration order, every u = base + nu (base a coefficient
    vector over d1's algebra, nu with coefficients in m) with u d1 = d2 u."""
    algR = d1.alg
    d1b, d2b = d1.blocks(), d2.blocks()
    for u in _blocks(A, algR, base, cap, "automorphism candidates"):
        ub = block_view(algR, ob, ob, 0, u)
        diff = add_blocks(compose_blocks(algR, ub, d1b, 1), compose_blocks(algR, d2b, ub, 0), -1)
        for row in u[_zero_rows(diff, len(u))]:
            yield GradedMap.wrap(algR, ob, ob, 0, row)


# ---------------------------------------------------------------------------
# F1: homotopy classes, by exhaustive search
# ---------------------------------------------------------------------------

def _residues_homotopic_to_one(alg0: LevelAlgebra, ob: GradedObject,
                               d0: GradedMap, cap: int) -> np.ndarray:
    """The coefficient vector of every map 1 + delta0(h), from every h over
    F_p in degree -1, each map once, one per row."""
    hc = HomComplex(alg0, ob, ob, d0, d0)
    p, dim = alg0.ring.p, hc.dim(-1)
    total = gf.count_candidates(p, dim, cap, "graded maps")
    images = np.unique(gf.digit_matrix(0, total, dim, p) @ hc.delta_matrix(-1).T % p,
                       axis=0)
    return (identity_map(alg0, ob).coef + images) % p


def _homotopy_equivalent(A: ArtinLocalRing, alg0: LevelAlgebra,
                         ob: GradedObject, d0: GradedMap,
                         d1: GradedMap, d2: GradedMap,
                         cap: int = DEFAULT_CAP) -> bool:
    """Search for a homotopy equivalence (R (x) C0, d1) -> (R (x) C0, d2)
    lifting a map homotopic to the identity."""
    algR = d1.alg
    res_cands = A.scalars(_residues_homotopic_to_one(alg0, ob, d0, cap))

    def candidates(da, db):
        """Cochain maps (da) -> (db) over R whose residue is homotopic to 1."""
        return [u for g in res_cands for u in _intertwiners(A, ob, da, db, g, cap)]

    def null_homotopic(m, da, db):
        """Is the degree-0 map m of the form delta(P) for P over R?"""
        return len(delta_solutions(algR, da, db, -1, m, cap)) > 0

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
                     d0: GradedMap, lifts: np.ndarray,
                     cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """Partition of a stack of strict lifts by homotopy equivalence
    (exhaustive): each lift joins the first class whose least member it is
    equivalent to, or starts a class."""
    algR = A.algebra(alg0)
    maps = [GradedMap.wrap(algR, ob, ob, 1, row) for row in lifts]
    classes: list[list[int]] = []
    for j, d in enumerate(maps):
        home = next((c for c in classes
                     if _homotopy_equivalent(A, alg0, ob, d0, maps[c[0]], d, cap)), None)
        if home is None:
            classes.append([j])
        else:
            home.append(j)
    return [tuple(c) for c in classes]


# ---------------------------------------------------------------------------
# functor evaluation
# ---------------------------------------------------------------------------

@dataclass
class FunctorValue:
    elements: list[tuple[int, ...]]       # canonical coordinates of the lifts
    classes: list[tuple[int, ...]]        # partition (singletons for F0)


def functor_eval(A: ArtinLocalRing, alg0: LevelAlgebra, ob: GradedObject,
                 d0: GradedMap, cap: int = DEFAULT_CAP,
                 cross_check: bool = False) -> dict[str, FunctorValue]:
    """The values of F0, F and F1 at A, keyed by tag.

    The strict lifts are enumerated once, and F and F1 share one orbit
    partition; cross_check compares it with the exhaustive homotopy classes.
    The cap bounds the strict-lift candidates before any is tested, then
    the conjugations of iso_orbits before any is made.
    """
    lifts = strict_lifts(A, alg0, ob, d0, cap)   # checks d0 first
    coords = list(map(tuple, lifts.tolist()))
    orbits = iso_orbits(A, alg0, ob, lifts, cap)
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
        values[tag] = FunctorValue(coords, classes)
    return values


def tangent_dim(alg0: LevelAlgebra, ob: GradedObject, d0: GradedMap) -> int:
    """dim_{F_p} H^1 Hom(C0, C0): the tangent space of the functor F."""
    hc, p = HomComplex(alg0, ob, ob, d0, d0), alg0.ring.p
    return hc.dim(1) - gf.rank(hc.delta_core(1).mat, p) - gf.rank(hc.delta_core(0).mat, p)


# ---------------------------------------------------------------------------
# Schlessinger-type checks on concrete rings
# ---------------------------------------------------------------------------

def is_small(surj: RingSurjection) -> bool:
    """Kernel is one-dimensional over F_p and killed by the maximal ideal."""
    ker = surj.kernel_vectors()
    if len(ker) != surj.source.p:
        return False
    ring = surj.source
    prods = np.einsum("ai,bj,ijk->abk", ker, artin_ring(ring).mvecs, ring.mult)
    return not (prods % ring.orders).any()


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


def _push(surj: RingSurjection, lifts: np.ndarray) -> np.ndarray:
    """A stack of coefficient vectors over surj.source mapped along surj."""
    rows = surj.apply_many(lifts.reshape(len(lifts), -1, surj.source.m))
    return rows.reshape(len(lifts), -1)


def _labels(orbits: list[tuple[int, ...]], n: int) -> np.ndarray:
    """The index of the orbit holding each of n lifts."""
    label = np.empty(n, dtype=np.int64)
    for c, orbit in enumerate(orbits):
        label[list(orbit)] = c
    return label


def _roots(orbits: list[tuple[int, ...]]) -> np.ndarray:
    """The least member of each orbit."""
    return np.array([orbit[0] for orbit in orbits], dtype=np.int64)


def check_triple(f1: RingSurjection, f2: RingSurjection, alg0: LevelAlgebra,
                 ob: GradedObject, d0: GradedMap,
                 cap: int = DEFAULT_CAP) -> TripleReport:
    """Compare F0/F on R' x_R R'' with the fiber product of values.

    Lifts are moved along the projections and along f1, f2 by mapping their
    rows and found again among the lifts over the target ring; classes are
    read from each ring's orbit labels.
    """
    fp = ring_fiber_product(f1, f2)
    AP = ArtinLocalRing(fp.ring)
    A1, A2, AR = artin_ring(f1.source), artin_ring(f2.source), artin_ring(f1.target)

    LP = strict_lifts(AP, alg0, ob, d0, cap)
    L1 = strict_lifts(A1, alg0, ob, d0, cap)
    L2 = strict_lifts(A2, alg0, ob, d0, cap)
    LR = strict_lifts(AR, alg0, ob, d0, cap)

    # lift level: P -> F0(R') x_F0(R) F0(R''), lift n |-> (P1[n], P2[n])
    P1 = _LiftIndex(L1).find(_push(fp.proj1, LP))
    P2 = _LiftIndex(L2).find(_push(fp.proj2, LP))
    index = _LiftIndex(LR)
    R1, R2 = index.find(_push(f1, L1)), index.find(_push(f2, L2))
    injective = len(np.unique(P1 * len(L2) + P2)) == len(LP)
    compatible = np.bincount(R1, minlength=len(LR)) @ np.bincount(R2, minlength=len(LR))
    f0_bij = bool(injective and (R1[P1] == R2[P2]).all() and len(LP) == compatible)

    # class level
    O_P = iso_orbits(AP, alg0, ob, LP, cap)
    O_1 = iso_orbits(A1, alg0, ob, L1, cap)
    O_2 = iso_orbits(A2, alg0, ob, L2, cap)
    O_R = iso_orbits(AR, alg0, ob, LR, cap)
    cls1, cls2, clsR = _labels(O_1, len(L1)), _labels(O_2, len(L2)), _labels(O_R, len(LR))
    roots = _roots(O_P)
    f_pairs = np.unique(cls1[P1[roots]] * len(O_2) + cls2[P2[roots]])
    # compatible class pairs: their least members map to one class over R
    over1, over2 = clsR[R1[_roots(O_1)]], clsR[R2[_roots(O_2)]]
    c1, c2 = np.nonzero(over1[:, None] == over2[None, :])
    f_surj = bool(np.isin(c1 * len(O_2) + c2, f_pairs).all())
    f_bij = f_surj and len(f_pairs) == len(O_P)
    return TripleReport(f0_bij, f_surj, f_bij,
                        {"F0(P)": len(LP), "F0(R')": len(L1), "F0(R'')": len(L2),
                         "F(P)": len(O_P), "F(R')": len(O_1), "F(R'')": len(O_2)})


def check_smoothness(pi: RingSurjection, alg0: LevelAlgebra, ob: GradedObject,
                     d0: GradedMap, cap: int = DEFAULT_CAP) -> SmoothReport:
    """Formal smoothness of F0 -> F along pi: R -> S on concrete data.

    Every strict lift d_S over S isomorphic to the image of a strict lift
    d_R must be the image of a conjugate of d_R.  Conjugation commutes with
    pi, so this holds exactly when pi maps every class over R onto the
    whole class over S of the image of its least member; CheckFailed
    otherwise.  pairs_checked counts the pairs (d_R, d_S).
    """
    AR, AS = artin_ring(pi.source), artin_ring(pi.target)
    LR = strict_lifts(AR, alg0, ob, d0, cap)
    LS = strict_lifts(AS, alg0, ob, d0, cap)
    O_S = iso_orbits(AS, alg0, ob, LS, cap)
    O_R = iso_orbits(AR, alg0, ob, LR, cap)
    clsS = _labels(O_S, len(LS))
    image = _LiftIndex(LS).find(_push(pi, LR))
    for orbit in O_R:
        if np.unique(image[list(orbit)]).tolist() != list(O_S[clsS[image[orbit[0]]]]):
            raise CheckFailed("a class over R does not map onto a class over S")
    pairs = int(np.bincount(clsS)[clsS[image]].sum())
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

def extend_order(prob: DifferentialProblem) -> LiftReport:
    """Extend a differential over F_p[t]/(t^n) to F_p[t]/(t^{n+1}).

    The problem's tower must be the one-step tower F_p[t]/(t^{n+1}) ->
    F_p[t]/(t^n) -> F_p (ValidationError otherwise), whose two kernels
    multiply to zero; reports the extension or the order-(n+1) obstruction
    class.
    """
    tower, p = prob.defalg.tower, prob.defalg.p
    n = tower.R.m
    if tower.R != trunc_poly_ring(p, n) or tower.Rbar != trunc_poly_ring(p, n + 1):
        raise ValidationError("extend-order needs the one-step truncated-polynomial tower")
    return lift_differential(prob)


def trivial_base_algebra(p: int) -> LevelAlgebra:
    ring = zmod_ring(p, 1)
    struct = np.ones((1, 1, 1, 1), dtype=np.int64) % p
    unit = np.ones((1, 1), dtype=np.int64) % p
    return LevelAlgebra(ring, struct, unit)
