"""Bounded cochain complexes of free modules over a LevelAlgebra.

Objects are graded ranks with finite support; morphisms of degree n are
families of matrices f_i : C_i -> D_{i+n}.  Composition is (g o f)_i =
g_{i+|f|} f_i and the differential on graded maps is

    delta(f)_i = d_{D, i+n} f_i - (-1)^n f_{i+1} d_{C, i}.

delta on Hom^n is built in closed form, from blocks of left multiplication by
d_D and right multiplication by d_C.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from . import gf
from .errors import (
    BadDimensions,
    LevelMismatch,
    NotADifferential,
    NotAHomotopy,
    NotCochainMap,
    ShapeMismatch,
)
from .algebra import AlgMatrix, DeformedAlgebra, LevelAlgebra


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

    def rank(self, i: int) -> int:
        for d, r in self.ranks:
            if d == i:
                return r
        return 0

    @property
    def support(self) -> list[int]:
        return [d for d, _ in self.ranks]

    def shift(self, s: int) -> "GradedObject":
        return GradedObject(tuple((d + s, r) for d, r in self.ranks))

    def direct_sum(self, other: "GradedObject") -> "GradedObject":
        degs = set(self.support) | set(other.support)
        return GradedObject.of({d: self.rank(d) + other.rank(d) for d in degs})


@dataclass(eq=False)
class GradedMap:
    """Degree-n map between graded objects, components f_i : src_i -> tgt_{i+n}."""

    alg: LevelAlgebra
    src: GradedObject
    tgt: GradedObject
    degree: int
    comps: dict[int, AlgMatrix] = field(default_factory=dict)

    def __post_init__(self):
        cleaned = {}
        for i, mat in self.comps.items():
            r, c = self.tgt.rank(i + self.degree), self.src.rank(i)
            if mat.alg != self.alg:
                raise LevelMismatch("component lives over the wrong algebra")
            if (mat.rows, mat.cols) != (r, c):
                raise ShapeMismatch(
                    f"component at degree {i} is {mat.rows}x{mat.cols}, "
                    f"expected {r}x{c}")
            if r and c and not mat.is_zero():
                cleaned[int(i)] = mat
        self.comps = cleaned

    def support(self) -> list[int]:
        """Degrees where a component can be nonzero (by ranks)."""
        return sorted(i for i in self.src.support
                      if self.tgt.rank(i + self.degree) > 0)

    def comp(self, i: int) -> AlgMatrix:
        if i in self.comps:
            return self.comps[i]
        return self.alg.zeros(self.tgt.rank(i + self.degree), self.src.rank(i))

    def _like(self, comps: dict[int, AlgMatrix]) -> "GradedMap":
        return GradedMap(self.alg, self.src, self.tgt, self.degree, comps)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        self._check_parallel(other)
        return self._like({i: self.comp(i) + other.comp(i) for i in self.support()})

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        self._check_parallel(other)
        return self._like({i: self.comp(i) - other.comp(i) for i in self.support()})

    def __neg__(self) -> "GradedMap":
        return self._like({i: -m for i, m in self.comps.items()})

    def _check_parallel(self, other: "GradedMap"):
        if (self.alg != other.alg or self.src != other.src
                or self.tgt != other.tgt or self.degree != other.degree):
            raise ShapeMismatch("graded maps are not parallel")

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.comps.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedMap):
            return NotImplemented
        if (self.alg != other.alg or self.src != other.src
                or self.tgt != other.tgt or self.degree != other.degree):
            return False
        return all(self.comp(i) == other.comp(i) for i in self.support())

    __hash__ = None

    def __repr__(self) -> str:
        return (f"GradedMap(deg={self.degree}, "
                f"support={sorted(self.comps)})")


def zero_map(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
             degree: int) -> GradedMap:
    return GradedMap(alg, src, tgt, degree, {})


def identity_map(alg: LevelAlgebra, ob: GradedObject) -> GradedMap:
    return GradedMap(alg, ob, ob, 0,
                     {d: alg.eye(r) for d, r in ob.ranks})


def compose(g: GradedMap, f: GradedMap) -> GradedMap:
    """g o f, degree |g| + |f|, components (g o f)_i = g_{i+|f|} f_i."""
    if f.alg != g.alg or f.tgt != g.src:
        raise ShapeMismatch("composition endpoints do not match")
    return _one_map(f.alg, f.src, g.tgt, f.degree + g.degree,
                    compose_blocks(f.alg, map_blocks(g), map_blocks(f), f.degree))


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
    return _one_map(f.alg, f.src, f.tgt, f.degree + 1,
                    delta_blocks(f.alg, map_blocks(f), f.degree,
                                 map_blocks(dC), map_blocks(dD)))


# ---------------------------------------------------------------------------
# the coefficient layout of a graded map, and stacks of maps
# ---------------------------------------------------------------------------
#
# A degree-n map src -> tgt is one flat int64 vector: graded degree i
# ascending over its support, then row-major matrix entries, then algebra
# basis index, then ring coordinate.  A stack of N such maps is an
# (N, ncoef) array, one map per row.  Its block view is a dict from graded
# degree i to the (N, rows, cols, k, m) array of the components f_i, and
# compose and delta work on block dicts: a missing degree is a zero block,
# and a block with N = 1 (a fixed map such as a differential) broadcasts
# against a stack.  coefficients, from_coefficients, compose and delta on
# GradedMaps are the one-row case, and every block offset and size (here,
# in coefficient_orders and in delta_generators) comes from _block_shapes.

Blocks = dict[int, np.ndarray]


def _block_shapes(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                  n: int) -> list[tuple[int, tuple[int, int, int, int]]]:
    """(degree, component shape) of each nonempty block, in coefficient order."""
    rows, k, m = dict(tgt.ranks), alg.k, alg.ring.m
    return [(i, (rows[i + n], r, k, m)) for i, r in src.ranks if rows.get(i + n)]


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


def _flat_stack(shapes: list[tuple[int, tuple[int, int, int, int]]], blocks: Blocks,
                rows: int) -> np.ndarray:
    """The (rows, ncoef) stack with these blocks, laid out by shapes
    (_block_shapes) and not reduced."""
    parts = []
    for i, shape in shapes:
        blk = blocks.get(i)
        size = math.prod(shape)
        if blk is None:
            parts.append(np.zeros((rows, size), dtype=np.int64))
        else:
            parts.append((blk if len(blk) == rows else np.broadcast_to(blk, (rows,) + shape))
                         .reshape(rows, size))
    return np.concatenate(parts, axis=1) if parts else np.zeros((rows, 0), dtype=np.int64)


def stack_of(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject, n: int,
             blocks: Blocks, rows: int) -> np.ndarray:
    """The (rows, ncoef) stack of degree-n maps src -> tgt with these blocks,
    reduced mod the coefficient orders."""
    return (_flat_stack(_block_shapes(alg, src, tgt, n), blocks, rows)
            % coefficient_orders(alg, src, tgt, n))


def map_blocks(f: GradedMap) -> Blocks:
    """f as a stack of one map."""
    return {i: mat.data[None] for i, mat in f.comps.items()}


def _one_map(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject, n: int,
             blocks: Blocks) -> GradedMap:
    """The map of a stack of one map."""
    return GradedMap(alg, src, tgt, n, {i: AlgMatrix(alg, blk[0]) for i, blk in blocks.items()})


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


def coefficients(f: GradedMap) -> np.ndarray:
    """The coefficient vector of f: its stack of one map, whose blocks (the
    data of AlgMatrix components) are reduced already."""
    return _flat_stack(_block_shapes(f.alg, f.src, f.tgt, f.degree), map_blocks(f), 1)[0]


def from_coefficients(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                      n: int, vec: np.ndarray) -> GradedMap:
    """The degree-n map src -> tgt over alg with coefficient vector vec."""
    return _one_map(alg, src, tgt, n, block_view(alg, src, tgt, n, np.asarray(vec)[None]))


def coefficient_orders(alg: LevelAlgebra, src: GradedObject, tgt: GradedObject,
                       n: int) -> np.ndarray:
    """The additive order of each coefficient of a degree-n map src -> tgt."""
    entries = sum(rows * cols for _, (rows, cols, _, _) in _block_shapes(alg, src, tgt, n))
    return np.tile(alg.ring.orders, entries * alg.k)


def delta_generators(alg: LevelAlgebra, dC: GradedMap, dD: GradedMap,
                     n: int) -> np.ndarray:
    """delta on Hom^n(C, D) over alg, one row of coefficients per generator.

    A coefficient of order p^e contributes the e generators p^t e_q, t < e,
    in coefficient order, so the base-p digits of [0, p^rows) run over every
    degree-n map exactly once; over a field the generators are the unit
    vectors and the rows are the columns of the matrix of delta.  delta is
    Z-linear, so its integer matrix M is filled block by block in closed
    form, and the row of p^t e_q is t * M[:, q], reduced.
    """
    src, tgt = dC.src, dD.src
    km = alg.k * alg.ring.m

    def blocks(deg):
        """Offset of each block of Hom^deg in coefficient order, and the total size."""
        sizes = {i: math.prod(shape) for i, shape in _block_shapes(alg, src, tgt, deg)}
        return dict(zip(sizes, accumulate(sizes.values(), initial=0))), sum(sizes.values())

    cols, ncols = blocks(n)
    rows, nrows = blocks(n + 1)
    sign = 1 if n % 2 else -1
    mat = np.zeros((nrows, ncols), dtype=np.int64)
    for i, row in rows.items():
        c0, r1 = src.rank(i), tgt.rank(i + n + 1)
        out = slice(row, row + r1 * c0 * km)
        if i in cols and i + n in dD.comps:   # dD_{i+n} f_i: the identity on columns
            op = alg.left_op(dD.comps[i + n].data).reshape(r1, km, -1, km)
            blk = np.einsum("alry,cd->aclrdy", op, np.eye(c0, dtype=np.int64))
            blk = blk.reshape(r1 * c0 * km, -1)
            mat[out, cols[i]:cols[i] + blk.shape[1]] = blk
        if i + 1 in cols and i in dC.comps:   # f_{i+1} dC_i: the identity on rows
            blk = np.kron(np.eye(r1, dtype=np.int64), alg.right_op(dC.comps[i].data))
            mat[out, cols[i + 1]:cols[i + 1] + blk.shape[1]] = sign * blk
    qs, ts = [], []
    for q, order in enumerate(coefficient_orders(alg, src, tgt, n).tolist()):
        t = 1
        while t < order:
            qs.append(q)
            ts.append(t)
            t *= alg.ring.p
    # one generator per coefficient (t = 1, as over a field): M itself, without a copy
    gens = mat if len(qs) == ncols else mat[:, qs] * np.array(ts, dtype=np.int64)
    gens %= coefficient_orders(alg, src, tgt, n + 1)[:, None]
    return gens.T


def delta_solutions(alg: LevelAlgebra, dC: GradedMap, dD: GradedMap, n: int,
                    target: GradedMap, cap: int) -> np.ndarray:
    """Every degree-n map P: C -> D over alg with delta(P) = target, found by
    testing each one with gf.scan_affine_zero: the ascending indices whose
    base-p digits are P's coordinates over delta_generators.  CapExceeded if
    there are more than cap maps."""
    gens = delta_generators(alg, dC, dD, n)
    total = gf.count_candidates(alg.ring.p, len(gens), cap, "graded maps")
    moduli = coefficient_orders(alg, dC.src, dD.src, n + 1)
    return gf.scan_affine_zero(-coefficients(target) % moduli, gens, moduli,
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
            bad = [i for i in sq.support() if not sq.comp(i).is_zero()]
            raise NotADifferential(f"d^2 != 0 at degrees {bad}")


def check_cochain_map(f: GradedMap, dC: GradedMap, dD: GradedMap):
    if f.degree != 0:
        raise NotCochainMap("cochain maps have degree 0")
    df = delta(f, dC, dD)
    if not df.is_zero():
        bad = [i for i in df.support() if not df.comp(i).is_zero()]
        raise NotCochainMap(f"d f != f d at degrees {bad}")


def check_homotopy(h: GradedMap, f: GradedMap, g: GradedMap,
                   dC: GradedMap, dD: GradedMap):
    """h is a homotopy from f to g: delta(h) = g - f."""
    if h.degree != f.degree - 1:
        raise NotAHomotopy("homotopy degree must be one below the maps")
    if delta(h, dC, dD) != g - f:
        raise NotAHomotopy("delta(h) != g - f")


# ---------------------------------------------------------------------------
# moving graded maps between tower levels
# ---------------------------------------------------------------------------

_REDUCERS = {
    ("bar", "mid"): "reduce_bar_to_mid",
    ("bar", "base"): "reduce_bar_to_base",
    ("mid", "base"): "reduce_mid_to_base",
}
_LIFTERS = {
    ("mid", "bar"): "lift_mid_to_bar",
    ("base", "bar"): "lift_base_to_bar",
    ("base", "mid"): "lift_base_to_mid",
}


def map_reduce(defalg: DeformedAlgebra, f: GradedMap, src: str, dst: str) -> GradedMap:
    """Push a graded map down the tower (coefficientwise)."""
    fn = getattr(defalg, _REDUCERS[(src, dst)])
    tgt_alg = defalg.level(dst)
    return GradedMap(tgt_alg, f.src, f.tgt, f.degree,
                     {i: fn(m) for i, m in f.comps.items()})


def map_lift(defalg: DeformedAlgebra, f: GradedMap, src: str, dst: str) -> GradedMap:
    """Lift a graded map up the tower by the minimal set-theoretic section."""
    fn = getattr(defalg, _LIFTERS[(src, dst)])
    tgt_alg = defalg.level(dst)
    comps = {}
    for i in f.support():
        comps[i] = fn(f.comp(i))
    return GradedMap(tgt_alg, f.src, f.tgt, f.degree, comps)


# ---------------------------------------------------------------------------
# the Hom complex over the base field
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class HomComplex:
    """Hom(C, D) as a complex of F_p-vector spaces at the base level.

    The flattening of a degree-n map is its coefficient vector (the ring
    has one coordinate here), reduced mod p.
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

    def support(self, n: int) -> list[int]:
        return sorted(i for i in self.obC.support if self.obD.rank(i + n) > 0)

    def dim(self, n: int) -> int:
        return sum(self.obD.rank(i + n) * self.obC.rank(i) * self.alg.k
                   for i in self.support(n))

    def flatten(self, f: GradedMap) -> np.ndarray:
        return coefficients(f) % self.p

    def unflatten(self, vec: np.ndarray, n: int) -> GradedMap:
        vec = np.asarray(vec, dtype=np.int64) % self.p
        if vec.shape != (self.dim(n),):
            raise ShapeMismatch(f"expected a vector of length {self.dim(n)}")
        return from_coefficients(self.alg, self.obC, self.obD, n, vec)

    def delta_matrix(self, n: int) -> np.ndarray:
        """Matrix of delta: Hom^n -> Hom^{n+1} in the flattening bases."""
        return delta_generators(self.alg, self.dC, self.dD, n).T
