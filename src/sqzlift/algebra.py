"""Matrix categories over a finite algebra, at the three tower levels.

A LevelAlgebra is a free module over a FiniteRing with basis e_0, ..,
e_{k-1} and structure constants e_i * e_j = sum_l struct[i,j,l] e_l (each
struct[i,j,l] a ring coefficient vector).  Elements are (k, m) int arrays;
matrices over the algebra are (rows, cols, k, m) arrays.  A DeformedAlgebra
packages the same structure constants read over Rbar, R and R0, and the
J-coordinate codec of the top level; graded maps change level in
complexes.map_reduce and map_lift.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadDimensions,
    NotAssociative,
    NotInKernel,
    NotUnital,
    ShapeMismatch,
    ValidationError,
)
from .finring import (
    SHARED_TOWERS,
    FiniteRing,
    RingSurjection,
    Tower,
    _read_only,
    _trusted,
    identity_memo,
    is_shared,
    shared_cache,
)

# matmul takes the two-step path from this many terms of the einsum on
# (batch of matrices) * r*c*s * (k*m)^3; below it the one einsum is faster
# (see the matmul rows of benchmarks/bench_kernels.py)
_TWO_STEP_MIN_TERMS = 1000


@dataclass(eq=False)
class LevelAlgebra:
    """Associative unital algebra over a FiniteRing, with fixed basis."""

    ring: FiniteRing
    struct: np.ndarray        # (k, k, k, m)
    unit: np.ndarray          # (k, m) coefficients of 1

    def __post_init__(self):
        self.struct = np.asarray(self.struct, dtype=np.int64) % self.ring.orders
        self.unit = np.asarray(self.unit, dtype=np.int64) % self.ring.orders
        k = self.struct.shape[0]
        if self.struct.shape != (k, k, k, self.ring.m):
            raise BadDimensions("structure constants have wrong shape")
        if self.unit.shape != (k, self.ring.m):
            raise BadDimensions("unit has wrong shape")
        mult = self.ring.mult
        lhs = np.einsum("ijxu,xklv,uvw->ijklw", self.struct, self.struct,
                        mult) % self.ring.orders
        rhs = np.einsum("jkyv,iylu,uvw->ijklw", self.struct, self.struct,
                        mult) % self.ring.orders
        if not np.array_equal(lhs, rhs):
            raise NotAssociative("structure constants are not associative")
        eye = np.zeros((k, k, self.ring.m), dtype=np.int64)
        for i in range(k):
            eye[i, i] = self.ring.one_vec()
        left = np.einsum("iu,ijlv,uvw->jlw", self.unit, self.struct,
                         mult) % self.ring.orders
        right = np.einsum("ju,ijlv,uvw->ilw", self.unit, self.struct,
                          mult) % self.ring.orders
        if not (np.array_equal(left, eye) and np.array_equal(right, eye)):
            raise NotUnital("declared unit is not a two-sided unit")

    @property
    def k(self) -> int:
        return self.struct.shape[0]

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, LevelAlgebra)
                and self.ring == other.ring
                and np.array_equal(self.struct, other.struct)
                and np.array_equal(self.unit, other.unit))

    __hash__ = object.__hash__

    @property
    def _T(self) -> np.ndarray:
        """Combined tensor: (b_u e_i)(b_v e_j) = sum_{l,w} T[i,u,j,v,l,w] b_w e_l."""
        return _combined_tensor(self)

    # -- matrices ----------------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of stacked matrices a (..., r, c, k, m) and b (..., c, s, k, m),
        the leading axes broadcast.

        The one einsum over a, b and T has no contraction order, but the
        least overhead: it is the faster path below _TWO_STEP_MIN_TERMS
        terms.  From there on, left_op(a) is formed once and applied to b's
        columns as one integer matmul.
        """
        (r, c), s = a.shape[-4:-2], b.shape[-3]
        if c != b.shape[-4]:
            raise ShapeMismatch(f"cannot multiply {a.shape} by {b.shape}")
        km = self.k * self.ring.m
        # a.size * s * km^2 = (a's batch) * r*c*s * km^3, and likewise for b
        if max(a.size * s, b.size * r) * km * km < _TWO_STEP_MIN_TERMS:
            return np.einsum("...acis,...cbjt,isjtlw->...ablw", a, b,
                             self._T) % self.ring.orders
        return self.apply_left(self.left_op(a), b)

    def left_op(self, a: np.ndarray) -> np.ndarray:
        """Left multiplication by stacked matrices a (..., r, c, k, m), as integer
        matrices (..., r*k*m, c*k*m) acting on each column of coefficients."""
        r, c, km = *a.shape[-4:-2], self.k * self.ring.m
        op = np.einsum("...acis,isjtlw->...alwcjt", a, self._T)
        return op.reshape(a.shape[:-4] + (r * km, c * km))

    def apply_left(self, op: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b for op = left_op(a), as one integer matmul on the columns of
        b (..., c, s, k, m); op and b stack by broadcasting."""
        c, s, k, m = b.shape[-4:]
        cols = np.moveaxis(b, -3, -1).reshape(b.shape[:-4] + (c * k * m, s))
        prod = op @ cols
        prod = prod.reshape(prod.shape[:-2] + (prod.shape[-2] // (k * m), k, m, s))
        return np.moveaxis(prod, -1, -3) % self.ring.orders

    def right_op(self, b: np.ndarray) -> np.ndarray:
        """Right multiplication by stacked matrices b (..., c, s, k, m), x -> x @ b,
        as integer matrices (..., s*k*m, c*k*m) acting on each row of coefficients."""
        c, s, km = *b.shape[-4:-2], self.k * self.ring.m
        op = np.einsum("...cbjt,isjtlw->...blwcis", b, self._T)
        return op.reshape(b.shape[:-4] + (s * km, c * km))


@identity_memo
def _combined_tensor(alg: LevelAlgebra) -> np.ndarray:
    """LevelAlgebra._T, built once per algebra and kept outside it, read-only."""
    mult = alg.ring.mult
    return _read_only(np.einsum("uvx,ijly,xyw->iujvlw", mult, alg.struct,
                                mult) % alg.ring.orders)


@dataclass(eq=False)
class AlgMatrix:
    """Matrix over a LevelAlgebra; data shape (rows, cols, k, m)."""

    alg: LevelAlgebra
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.int64) % self.alg.ring.orders
        if self.data.ndim != 4 or self.data.shape[2:] != (self.alg.k, self.alg.ring.m):
            raise BadDimensions(f"matrix data has shape {self.data.shape}")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, AlgMatrix)
                and self.alg == other.alg
                and self.data.shape == other.data.shape
                and np.array_equal(self.data, other.data))

    __hash__ = None

    def __repr__(self) -> str:
        return f"AlgMatrix({self.rows}x{self.cols} over rank-{self.alg.k} algebra)"


@dataclass(eq=False)
class DeformedAlgebra:
    """One algebra read over all three levels of a tower.

    `bar` is the algebra over Rbar; `mid` and `base` carry the same structure
    constants pushed down along the tower surjections.
    """

    tower: Tower
    bar: LevelAlgebra
    mid: LevelAlgebra = field(init=False)
    base: LevelAlgebra = field(init=False)

    def __post_init__(self):
        if self.bar.ring != self.tower.Rbar:
            raise ValidationError("algebra must be defined over the top ring")
        self.mid = self._push(self.tower.pibar)
        self.base = self._push(self.tower.pibar0)

    def _push(self, surj: RingSurjection) -> LevelAlgebra:
        k, m = self.bar.k, self.bar.ring.m
        struct = surj.apply_many(self.bar.struct.reshape(-1, m)).reshape(
            k, k, k, surj.target.m)
        unit = surj.apply_many(self.bar.unit)
        return LevelAlgebra(surj.target, struct, unit)

    @property
    def k(self) -> int:
        return self.bar.k

    @property
    def p(self) -> int:
        return self.tower.p

    def level(self, name: str) -> LevelAlgebra:
        return {"bar": self.bar, "mid": self.mid, "base": self.base}[name]

    # -- kernel coordinates --------------------------------------------------

    def kernel_coords(self, coeffs: np.ndarray) -> np.ndarray:
        """F_p coordinates of Rbar coefficients (the last axis) that lie in J.

        Flat ordering: J-basis index (major), then the order of the
        coefficients.  Inverse of kernel_matrix.
        """
        lam = self.tower.jcoords[self.tower.Rbar.code(coeffs).reshape(-1)]
        if (lam < 0).any():
            raise NotInKernel("matrix coefficient outside Ker(Rbar -> R)")
        return lam.T.reshape(-1)

    def kernel_matrix(self, coords: np.ndarray, n: int) -> np.ndarray:
        """The (..., n, m) Rbar coefficients in J whose F_p coordinates are
        coords (..., dimJ * n), in the kernel_coords ordering."""
        t = self.tower
        coords = np.asarray(coords, dtype=np.int64)
        lam = coords.reshape(coords.shape[:-1] + (t.dimJ, n)).swapaxes(-1, -2) % self.p
        return lam @ t.jbasis % t.Rbar.orders



def _integer_algebra(tower: Tower, c: np.ndarray, u: np.ndarray) -> DeformedAlgebra:
    """The algebra whose structure constants and unit are the integers c
    (k, k, k) and u (k,) times 1, at every level, with read-only arrays.  c
    and u are associative and unital over Z, so over every ring, and the
    unital tower maps send them to themselves: nothing is checked again."""
    def level(ring: FiniteRing) -> LevelAlgebra:
        one = ring.one_vec()
        return _trusted(LevelAlgebra, ring=ring,
                        struct=_read_only(np.multiply.outer(c, one)),
                        unit=_read_only(np.multiply.outer(u, one)))
    return _trusted(DeformedAlgebra, tower=tower, bar=level(tower.Rbar),
                    mid=level(tower.pibar.target), base=level(tower.pibar0.target))


def _tables(kind: str) -> tuple[np.ndarray, np.ndarray]:
    """The integer structure constants and unit of a built-in algebra kind:
    trivial is Rbar itself (rank 1), dual_numbers is Rbar[x]/(x^2) (rank 2)."""
    if kind == "trivial":
        return np.ones((1, 1, 1), dtype=np.int64), np.ones(1, dtype=np.int64)
    c = np.zeros((2, 2, 2), dtype=np.int64)
    c[0, 0, 0] = c[0, 1, 1] = c[1, 0, 1] = 1
    return c, np.array([1, 0], dtype=np.int64)


@shared_cache(2 * SHARED_TOWERS)
def _shared_algebra(tower: Tower, kind: str) -> DeformedAlgebra:
    return _integer_algebra(tower, *_tables(kind))


def _builtin_algebra(tower: Tower, kind: str) -> DeformedAlgebra:
    """The built-in algebra of a kind over tower: built once per shared
    tower (finring.is_shared) and kept with it, built anew over any other."""
    if is_shared(tower):
        return _shared_algebra(tower, kind)
    return _integer_algebra(tower, *_tables(kind))


def mk_algebra(tower: Tower, kind: str = "trivial", **params) -> DeformedAlgebra:
    """Build a DeformedAlgebra over a tower.

    kinds: trivial: Lambda = Rbar itself (rank 1), shared over a shared tower;
           custom(struct, unit): explicit structure constants over Rbar,
           checked, and built anew on every call.
    """
    if kind == "trivial":
        return _builtin_algebra(tower, "trivial")
    if kind == "custom":
        return DeformedAlgebra(tower, LevelAlgebra(tower.Rbar, params["struct"], params["unit"]))
    raise ValidationError(f"unknown algebra kind {kind!r}")


def dual_numbers_algebra(tower: Tower) -> DeformedAlgebra:
    """Lambda-bar = Rbar[x]/(x^2 - c) style rank-2 algebras are built via
    mk_algebra(..., kind="custom"); this helper gives x^2 = 0, shared over a
    shared tower."""
    return _builtin_algebra(tower, "dual_numbers")
