"""Bounded cochain complexes of free modules over a LevelAlgebra.

Objects are graded ranks with finite support; morphisms of degree n are
families of matrices f_i : C_i -> D_{i+n}.  Composition is (g o f)_i =
g_{i+|f|} f_i and the differential on graded maps is

    delta(f)_i = d_{D, i+n} f_i - (-1)^n f_{i+1} d_{C, i}.

delta on Hom^n is laid out once in closed form (`delta_layout`), as blocks of
left multiplication by d_D and right multiplication by d_C, one per nonzero
component.  Its (row, column, value) triplets are scattered into a dense
matrix for the scans that need every generator (`delta_generators`), and
into its nonzero core for the cohomology (`HomComplex.delta_core`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import gf
from .errors import (
    BadDimensions,
    LevelMismatch,
    NotADifferential,
    ShapeMismatch,
)
from .algebra import AlgMatrix, DeformedAlgebra, LevelAlgebra
from .finring import FiniteRing, RingSurjection


@dataclass(frozen=True)
class GradedObject:
    """Finitely supported graded ranks."""

    ranks: tuple[tuple[int, int], ...]   # sorted ((degree, rank), ...)

    @staticmethod
    def of(ranks: dict[int, int]) -> "GradedObject":
        items = tuple(sorted((int(i), int(r)) for i, r in ranks.items() if r))
        for _, r in items:
            if r < 0:
                raise BadDimensions("ranks must be nonnegative")
        return GradedObject(items)

    @cached_property
    def rank_of(self) -> dict[int, int]:
        return dict(self.ranks)

    def rank(self, i: int) -> int:
        return self.rank_of.get(i, 0)

    @property
    def support(self) -> list[int]:
        return [d for d, _ in self.ranks]


class GradedMap:
    """Degree-n map between graded objects, components f_i : src_i -> tgt_{i+n}.

    A map is its coefficient vector `coef` (see the layout below), reduced
    mod the coefficient orders; its components are views of it.
    GradedMap(alg, src, tgt, n, {i: AlgMatrix}) checks each component's
    algebra and shape, GradedMap.from_arrays checks arrays, and
    GradedMap.wrap takes a vector that is laid out and reduced already.
    """

    def __init__(self, alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                 degree: int, comps: dict[int, AlgMatrix] | None = None):
        self.alg, self.src, self.tgt, self.degree = alg, src, tgt, int(degree)
        self._blocks = None
        self.__post_init__(comps or {})

    def __post_init__(self, comps: dict[int, AlgMatrix]):
        for mat in comps.values():
            if mat.alg != self.alg:
                raise LevelMismatch("component lives over the wrong algebra")
        self.coef = _checked_vector(self.alg, self.src, self.tgt, self.degree,
                                    {i: mat.data for i, mat in comps.items()})

    @classmethod
    def from_arrays(cls, alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                    n: int, arrays: dict[int, np.ndarray]) -> "GradedMap":
        """The map with components arrays[i] of shape (rows, cols, k, m);
        ShapeMismatch if a component does not fit."""
        return cls.wrap(alg, src, tgt, n, _checked_vector(alg, src, tgt, n, arrays))

    @classmethod
    def wrap(cls, alg: LevelAlgebra, src: GradedObject, tgt: GradedObject, n: int,
             coef: np.ndarray) -> "GradedMap":
        """The map whose coefficient vector is coef, unchecked: coef must be
        laid out and reduced already."""
        f = cls.__new__(cls)
        f.alg, f.src, f.tgt, f.degree, f.coef, f._blocks = alg, src, tgt, n, coef, None
        return f

    def blocks(self) -> "Blocks":
        """The nonzero components as a stack of one map: {i: (1, rows, cols,
        k, m) view}, so that compose_blocks skips the zero ones.  Made once
        per map; callers must not change it."""
        if self._blocks is None:
            self._blocks = {i: blk for i, blk in block_view(
                self.alg, self.src, self.tgt, self.degree, self.coef[None]).items() if blk.any()}
        return self._blocks

    @property
    def comps(self) -> dict[int, AlgMatrix]:
        """The nonzero components, as a new dict of AlgMatrix."""
        return {i: AlgMatrix(self.alg, blk[0]) for i, blk in self.blocks().items()}

    def _like(self, coef: np.ndarray) -> "GradedMap":
        return GradedMap.wrap(self.alg, self.src, self.tgt, self.degree,
                              reduce_coefficients(self.alg, coef))

    def __add__(self, other: "GradedMap") -> "GradedMap":
        self._check_parallel(other)
        return self._like(self.coef + other.coef)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        self._check_parallel(other)
        return self._like(self.coef - other.coef)

    def __neg__(self) -> "GradedMap":
        return self._like(-self.coef)

    def _parallel(self, other: "GradedMap") -> bool:
        return (self.alg == other.alg and self.src == other.src
                and self.tgt == other.tgt and self.degree == other.degree)

    def _check_parallel(self, other: "GradedMap"):
        if not self._parallel(other):
            raise ShapeMismatch("graded maps are not parallel")

    def is_zero(self) -> bool:
        return not self.coef.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMap):
            return NotImplemented
        return self._parallel(other) and np.array_equal(self.coef, other.coef)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"GradedMap(deg={self.degree}, "
                f"support={list(self.blocks())})")


def zero_map(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
             degree: int) -> GradedMap:
    return GradedMap.wrap(alg, src, tgt, degree,
                          np.zeros(coefficient_count(alg, src, tgt, degree), dtype=np.int64))


def identity_map(alg: LevelAlgebra, ob: GradedObject) -> GradedMap:
    eye = {d: np.eye(r, dtype=np.int64)[None, :, :, None, None] * alg.unit
           for d, r in ob.ranks}
    return GradedMap.wrap(alg, ob, ob, 0, stack_of(alg, ob, ob, 0, eye, 1)[0])


def compose(g: GradedMap, f: GradedMap) -> GradedMap:
    """g o f, degree |g| + |f|, components (g o f)_i = g_{i+|f|} f_i."""
    if f.alg != g.alg or f.tgt != g.src:
        raise ShapeMismatch("composition endpoints do not match")
    n = f.degree + g.degree
    gf_blocks = compose_blocks(f.alg, g.blocks(), f.blocks(), f.degree)
    return GradedMap.wrap(f.alg, f.src, g.tgt, n, stack_of(f.alg, f.src, g.tgt, n, gf_blocks, 1)[0])


def check_differentials(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                        dC: GradedMap, dD: GradedMap):
    """ShapeMismatch unless dC and dD are degree-1 endomorphisms over alg of
    src and tgt, as delta on maps src -> tgt needs."""
    if not (dC.src == dC.tgt == src and dD.src == dD.tgt == tgt
            and dC.degree == dD.degree == 1 and dC.alg == alg == dD.alg):
        raise ShapeMismatch("differentials do not match the map endpoints")


def delta(f: GradedMap, dC: GradedMap, dD: GradedMap) -> GradedMap:
    """delta(f) = dD o f - (-1)^|f| f o dC."""
    check_differentials(f.alg, f.src, f.tgt, dC, dD)
    n = f.degree + 1
    d = delta_blocks(f.alg, f.blocks(), f.degree, dC.blocks(), dD.blocks())
    return GradedMap.wrap(f.alg, f.src, f.tgt, n, stack_of(f.alg, f.src, f.tgt, n, d, 1)[0])


# ---------------------------------------------------------------------------
# the coefficient layout of a graded map, and stacks of maps
# ---------------------------------------------------------------------------
#
# A degree-n map src -> tgt is one flat int64 vector, its `coef`: graded
# degree i ascending over the degrees where src_i and tgt_{i+n} are both
# nonzero, then row-major matrix entries, then algebra basis index, then ring
# coordinate, each coefficient reduced mod its additive order.  A stack of N
# such maps is an (N, ncoef) array, one map per row.  Its block view is a
# dict from graded degree i to the (N, rows, cols, k, m) view of the
# components f_i.  compose and delta work on block dicts: a missing degree is
# a zero block, and a block with N = 1 (a fixed map such as a differential)
# broadcasts against a stack.  GradedMap arithmetic and equality are vector
# operations, a change of level maps the vector's ring coordinates
# (map_push, map_lift), and compose and delta on GradedMaps are the
# one-row case of the stacked forms.  Every block offset and size, and so
# the dimension of a Hom space, comes from _block_shapes.

Blocks = dict[int, np.ndarray]


def _block_shapes(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                  n: int) -> list[tuple[int, tuple[int, int, int, int]]]:
    """(degree, component shape) of each nonempty block, in coefficient order."""
    rows, k, m = tgt.rank_of, alg.k, alg.ring.m
    return [(i, (rows[i + n], r, k, m)) for i, r in src.ranks if rows.get(i + n)]


def coefficient_count(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                      n: int) -> int:
    """The length of the coefficient vector of a degree-n map src -> tgt."""
    return sum(math.prod(shape) for _, shape in _block_shapes(alg, src, tgt, n))


def reduce_coefficients(alg: LevelAlgebra, stack: np.ndarray) -> np.ndarray:
    """Coefficient vectors (the last axis) reduced mod the coefficient orders."""
    m = alg.ring.m
    grouped = stack.reshape(stack.shape[:-1] + (stack.shape[-1] // m, m))
    return (grouped % alg.ring.orders).reshape(stack.shape)


def _checked_vector(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject, n: int,
                    arrays: dict[int, np.ndarray]) -> np.ndarray:
    """The reduced coefficient vector with components arrays[i]; ShapeMismatch
    if a component is not tgt_{i+n} x src_i.  Components of an empty shape
    are dropped."""
    blocks = {}
    for i, data in arrays.items():
        r, c = tgt.rank(i + n), src.rank(i)
        if data.ndim != 4 or data.shape[2:] != (alg.k, alg.ring.m):
            raise BadDimensions(f"matrix data has shape {data.shape}")
        if data.shape[:2] != (r, c):
            raise ShapeMismatch(f"component at degree {i} is {data.shape[0]}x{data.shape[1]}, "
                                f"expected {r}x{c}")
        if r and c:
            blocks[int(i)] = data[None]
    return stack_of(alg, src, tgt, n, blocks, 1)[0]


def block_view(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject, n: int,
               stack: np.ndarray) -> Blocks:
    """The blocks of an (N, ncoef) stack of degree-n maps src -> tgt, as
    (N, rows, cols, k, m) views into it; ShapeMismatch if the stack is not
    ncoef wide."""
    shapes = _block_shapes(alg, src, tgt, n)
    ncoef = sum(math.prod(shape) for _, shape in shapes)
    if stack.ndim != 2 or stack.shape[1] != ncoef:
        raise ShapeMismatch(f"expected a stack of {ncoef} coefficients per row, "
                            f"got shape {stack.shape}")
    out, pos = {}, 0
    for i, shape in shapes:
        size = math.prod(shape)
        out[i] = stack[:, pos:pos + size].reshape((len(stack),) + shape)
        pos += size
    return out


def stack_of(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject, n: int,
             blocks: Blocks, rows: int) -> np.ndarray:
    """The (rows, ncoef) stack of degree-n maps src -> tgt with these blocks,
    reduced mod the coefficient orders."""
    parts = []
    for i, shape in _block_shapes(alg, src, tgt, n):
        blk = blocks.get(i)
        size = math.prod(shape)
        if blk is None:
            parts.append(np.zeros((rows, size), dtype=np.int64))
        elif len(blk) == rows:
            parts.append(blk.reshape(rows, size))
        else:
            parts.append(np.broadcast_to(blk, (rows,) + shape).reshape(rows, size))
    if not parts:
        return np.zeros((rows, 0), dtype=np.int64)
    return reduce_coefficients(alg, np.concatenate(parts, axis=1))


def add_blocks(a: Blocks, b: Blocks, sign: int) -> Blocks:
    """a + sign * b, blockwise."""
    out = dict(a)
    for i, blk in b.items():
        out[i] = out[i] + sign * blk if i in out else sign * blk
    return out


def compose_blocks(alg: LevelAlgebra, g: Blocks, f: Blocks, nf: int) -> Blocks:
    """g o f on stacks, with f of degree nf: (g o f)_i = g_{i+nf} f_i."""
    return {i: alg.matmul(g[i + nf], blk) for i, blk in f.items() if i + nf in g}


def delta_blocks(alg: LevelAlgebra, f: Blocks, n: int, dC: Blocks, dD: Blocks) -> Blocks:
    """delta(f) = dD o f - (-1)^n f o dC on a stack of degree-n maps."""
    return add_blocks(compose_blocks(alg, dD, f, n), compose_blocks(alg, f, dC, 1),
                      1 if n % 2 else -1)


def coefficient_orders(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                       n: int) -> np.ndarray:
    """The additive order of each coefficient of a degree-n map src -> tgt."""
    return np.tile(alg.ring.orders, coefficient_count(alg, src, tgt, n) // alg.ring.m)


class DeltaCore(NamedTuple):
    """A matrix of delta cut down to its nonzero rows and columns: every other
    entry of the matrix is zero, and mat is its [rows][:, cols] block."""

    rows: np.ndarray
    cols: np.ndarray
    mat: np.ndarray


class DeltaLayout(NamedTuple):
    """The integer matrix M of delta on Hom^n (one row per coefficient of
    Hom^{n+1}, one column per coefficient of Hom^n) by its nonzero blocks.

    Each block is (row, col, op, c): op is an (A, L, R, Y) operator reduced
    mod the coefficient orders, repeated along an identity of size c, so that
    M[row + (a*c + j)*L + l, col + (r*c + j)*Y + y] = op[a, l, r, y] for
    every j < c.  Every other entry of M is zero, and no two blocks share an
    entry.
    """

    shape: tuple[int, int]
    blocks: list[tuple[int, int, np.ndarray, int]]

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row, column, value) of every nonzero entry of M, from the blocks'
        nonzero operator entries, each repeated along its identity."""
        rs, cs, vs = [_EMPTY], [_EMPTY], [_EMPTY]
        for row, col, op, c in self.blocks:
            nz = a, l, r, y = op.nonzero()
            _, L, _, Y = op.shape
            rs.append(np.add.outer(a * (c * L) + l + row, np.arange(0, c * L, L)).ravel())
            cs.append(np.add.outer(r * (c * Y) + y + col, np.arange(0, c * Y, Y)).ravel())
            vs.append(np.repeat(op[nz], c))
        return np.concatenate(rs), np.concatenate(cs), np.concatenate(vs)

    def dense(self) -> np.ndarray:
        """M as one int64 array."""
        mat = np.zeros(self.shape, dtype=np.int64)
        rs, cs, vs = self.triplets()
        mat[rs, cs] = vs
        return mat

    def core(self) -> DeltaCore:
        """M's nonzero rows and columns and the block they cut out, scattered
        from the triplets; no array of M's shape is made."""
        rs, cs, vs = self.triplets()
        rows, cols = _hits(rs, self.shape[0]), _hits(cs, self.shape[1])
        mat = np.zeros((len(rows), len(cols)), dtype=np.int64)
        mat[np.searchsorted(rows, rs), np.searchsorted(cols, cs)] = vs
        return DeltaCore(rows, cols, mat)


_EMPTY = np.zeros(0, dtype=np.int64)


def _hits(idx: np.ndarray, size: int) -> np.ndarray:
    """The sorted distinct entries of idx, all in [0, size): a mask, not a sort."""
    mask = np.zeros(size, dtype=bool)
    mask[idx] = True
    return np.flatnonzero(mask)


def delta_layout(alg: LevelAlgebra, dC: GradedMap, dD: GradedMap, n: int) -> DeltaLayout:
    """delta on Hom^n(C, D) over alg, from the nonzero components of dC and
    dD: block row i of M (the maps C_i -> D_{i+n+1}) holds left
    multiplication by dD_{i+n} on f_i, the identity on columns, and right
    multiplication by -(-1)^n dC_i on f_{i+1}, the identity on rows."""
    src, tgt = dC.src, dD.src
    km = alg.k * alg.ring.m

    def offsets(deg):
        """Offset of each block of Hom^deg in coefficient order, and the total size."""
        sizes = {i: math.prod(shape) for i, shape in _block_shapes(alg, src, tgt, deg)}
        return dict(zip(sizes, accumulate(sizes.values(), initial=0))), sum(sizes.values())

    cols, ncols = offsets(n)
    rows, nrows = offsets(n + 1)
    dCb, dDb = dC.blocks(), dD.blocks()
    sign = 1 if n % 2 else -1
    korders = np.tile(alg.ring.orders, alg.k)   # the order of each coefficient of an entry
    blocks = []
    for i, row in rows.items():
        c0, r1 = src.rank(i), tgt.rank(i + n + 1)
        if i in cols and i + n in dDb:   # dD_{i+n} f_i: the identity on columns
            op = alg.left_op(dDb[i + n][0]).reshape(r1, km, -1, km)
            blocks.append((row, cols[i], op % korders[:, None, None], c0))
        if i + 1 in cols and i in dCb:   # f_{i+1} dC_i: the identity on rows
            op = (sign * alg.right_op(dCb[i][0])).reshape(c0, km, -1) % korders[:, None]
            blocks.append((row, cols[i + 1], op.reshape(1, c0 * km, 1, -1), r1))
    return DeltaLayout((nrows, ncols), blocks)


def delta_generators(alg: LevelAlgebra, dC: GradedMap, dD: GradedMap,
                     n: int) -> np.ndarray:
    """delta on Hom^n(C, D) over alg, one row of coefficients per generator.

    A coefficient of order p^e contributes the e generators p^t e_q, t < e,
    in coefficient order, so the base-p digits of [0, p^rows) run over every
    degree-n map exactly once; over a field the generators are the unit
    vectors and the rows are the columns of the matrix of delta.  delta is
    Z-linear, so its integer matrix M is filled from delta_layout, and the
    row of p^t e_q is t * M[:, q], reduced.
    """
    src, tgt = dC.src, dD.src
    mat = delta_layout(alg, dC, dD, n).dense()
    qs, ts = [], []
    for q, order in enumerate(coefficient_orders(alg, src, tgt, n).tolist()):
        t = 1
        while t < order:
            qs.append(q)
            ts.append(t)
            t *= alg.ring.p
    if len(qs) == mat.shape[1]:   # one generator per coefficient (t = 1, as over a field)
        return mat.T
    orders = coefficient_orders(alg, src, tgt, n + 1)[:, None]
    return (mat[:, qs] * np.array(ts, dtype=np.int64) % orders).T


def delta_solutions(alg: LevelAlgebra, dC: GradedMap, dD: GradedMap, n: int,
                    target: GradedMap, cap: int) -> np.ndarray:
    """Every degree-n map P: C -> D over alg with delta(P) = target, found by
    gf.scan_affine_zero, which joins the affine equation's two digit tables:
    the ascending indices whose base-p digits are P's coordinates over
    delta_generators.  CapExceeded if there are more than cap maps."""
    gens = delta_generators(alg, dC, dD, n)
    total = gf.count_candidates(alg.ring.p, len(gens), cap, "graded maps")
    moduli = coefficient_orders(alg, dC.src, dD.src, n + 1)
    return gf.scan_affine_zero(-target.coef % moduli, gens, moduli,
                               alg.ring.p, 0, total)


@dataclass(eq=False)
class PreComplex:
    """Graded object with a degree-1 endomorphism, d^2 = 0 not required."""

    alg: LevelAlgebra
    ob: GradedObject
    d: GradedMap

    def __post_init__(self):
        if self.d.alg != self.alg or self.d.src != self.ob or self.d.tgt != self.ob:
            raise ShapeMismatch("differential must be an endomorphism of the object")
        if self.d.degree != 1:
            raise ShapeMismatch("differential must have degree 1")

    def d_square(self) -> GradedMap:
        return compose(self.d, self.d)


class Complex(PreComplex):
    """PreComplex with d^2 = 0 enforced."""

    def __post_init__(self):
        super().__post_init__()
        sq = self.d_square()
        if not sq.is_zero():
            raise NotADifferential(f"d^2 != 0 at degrees {list(sq.blocks())}")


# ---------------------------------------------------------------------------
# moving graded maps between rings: one pass over the ring coordinates
# ---------------------------------------------------------------------------

def _ring_rows(f: GradedMap, ring: FiniteRing) -> np.ndarray:
    """f's coefficients as (entries, m) rows of ring elements; LevelMismatch
    unless f lives over ring."""
    if f.alg.ring != ring:
        raise LevelMismatch("graded map lives over the wrong ring")
    return f.coef.reshape(-1, ring.m)


def map_push(surj: RingSurjection, alg: LevelAlgebra, f: GradedMap) -> GradedMap:
    """f with each ring coefficient mapped by surj, as a map over alg (whose
    ring is surj's target)."""
    return GradedMap.wrap(alg, f.src, f.tgt, f.degree,
                          surj.apply_many(_ring_rows(f, surj.source)).reshape(-1))


def map_reduce(defalg: DeformedAlgebra, f: GradedMap, src: str, dst: str) -> GradedMap:
    """Push a graded map down the tower (coefficientwise)."""
    t = defalg.tower
    surj = {("bar", "mid"): t.pibar, ("bar", "base"): t.pibar0, ("mid", "base"): t.pi}
    return map_push(surj[(src, dst)], defalg.level(dst), f)


def map_lift(defalg: DeformedAlgebra, f: GradedMap) -> GradedMap:
    """Lift a graded map from the mid level to the top, each ring
    coefficient by the tower's minimal set-theoretic section sigma."""
    ring = defalg.mid.ring
    return GradedMap.wrap(defalg.bar, f.src, f.tgt, f.degree,
                          defalg.tower.sigma[ring.code(_ring_rows(f, ring))].reshape(-1))


# ---------------------------------------------------------------------------
# the Hom complex over the base field
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class HomComplex:
    """Hom(C, D) as a complex of F_p-vector spaces at the base level.

    A degree-n map is its coefficient vector; the ring has one coordinate
    here, so its length is dim(n).
    """

    alg: LevelAlgebra          # base level (ring = F_p)
    obC: GradedObject
    obD: GradedObject
    dC: GradedMap              # base differential of C
    dD: GradedMap              # base differential of D

    def __post_init__(self):
        if self.alg.ring.m != 1:
            raise LevelMismatch("HomComplex lives at the base (prime field) level")
        self.p = self.alg.ring.p
        self._cores: dict[int, DeltaCore] = {}

    def dim(self, n: int) -> int:
        return coefficient_count(self.alg, self.obC, self.obD, n)

    def delta_matrix(self, n: int) -> np.ndarray:
        """Matrix of delta: Hom^n -> Hom^{n+1} on coefficient vectors."""
        return delta_generators(self.alg, self.dC, self.dD, n).T

    def delta_core(self, n: int) -> DeltaCore:
        """The core of delta_n, made once per degree from delta's nonzero
        blocks (DeltaLayout.core)."""
        if n not in self._cores:
            self._cores[n] = delta_layout(self.alg, self.dC, self.dD, n).core()
        return self._cores[n]
