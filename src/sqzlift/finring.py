"""Finite commutative local rings, surjection towers and fiber products.

A ring is presented by an additive basis b_0 = 1, ..., b_{m-1} where b_i
generates a cyclic group of order p^{e_i}, together with the multiplication
table of the basis.  Elements are canonical coefficient vectors
(c_0, ..., c_{m-1}) with 0 <= c_i < p^{e_i}.

Each element also has an integer code, its index in the lexicographic list
`elements()`: code(v) = v @ strides with strides[i] = prod(orders[i+1:]),
so code(elements()) == arange(cardinality).  A map out of a ring is then
an array indexed by code: the minimal section of a tower, its
J-coordinates and the nilpotents of a ring are all lookup tables.

Surjectivity and fiber products are linear algebra mod p with `gf`: a map
is onto when its images span the target mod p, and the fiber product of two
F_p-algebras over a common quotient is a null space, not a search through
the pairs of elements.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import gf
from .errors import (
    CharMismatch,
    IJNonzero,
    NonPrime,
    NotLocal,
    NotSurjective,
    TargetMismatch,
    ValidationError,
)

MAX_RING_SIZE = 1 << 16
MAX_P = 7
# the built-in towers mk_tower keeps, the least recently asked for going first
SHARED_TOWERS = 8
# the parameters of each built-in tower kind, in mk_tower's order
TOWER_PARAMS = {"zmod": ("a", "b"), "trunc_poly": ("a", "b"), "square_zero": ("r",)}


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _read_only(*arrays: np.ndarray) -> np.ndarray:
    """Make the arrays read-only; returns the first."""
    for a in arrays:
        a.setflags(write=False)
    return arrays[0]


# ---------------------------------------------------------------------------
# what a process keeps between commands
# ---------------------------------------------------------------------------

_SHARED_CACHES = []
# the shared towers and their rings, by identity: FiniteRing compares by value
_SHARED = weakref.WeakValueDictionary()


def shared_cache(maxsize: int):
    """functools.lru_cache(maxsize) for objects kept between commands, which
    clear_shared empties."""
    def decorate(fn):
        cached = functools.lru_cache(maxsize)(fn)
        _SHARED_CACHES.append(cached)
        return cached
    return decorate


def clear_shared() -> None:
    """Empty every shared_cache: what is asked for next is built again."""
    for cached in _SHARED_CACHES:
        cached.cache_clear()


def identity_memo(fn=None, *, size: int = 1):
    """fn(obj, *args), memoized for obj and the last `size` distinct args it
    was asked with (an array by its dtype, shape and bytes, anything else by
    value).  The memo is kept outside obj, holds obj by identity only (rings
    and algebras compare by value), and drops obj's entries when obj is
    freed, so an object that later gets the same id finds none of them."""
    if fn is None:
        return functools.partial(identity_memo, size=size)
    memo = {}

    @functools.wraps(fn)
    def kept(obj, *args):
        key = tuple((a.dtype.str, a.shape, a.tobytes()) if isinstance(a, np.ndarray) else a
                    for a in args)
        entries = memo.get(id(obj))
        if entries is None:
            entries = memo[id(obj)] = {}
            weakref.finalize(obj, memo.pop, id(obj), None)
        elif key in entries:
            entries[key] = value = entries.pop(key)   # now the last asked for
            return value
        value = fn(obj, *args)
        if len(entries) >= size:
            del entries[next(iter(entries))]
        entries[key] = value
        return value

    return kept


def is_shared(obj) -> bool:
    """True for a tower that mk_tower shares and for its rings.  Their arrays
    are read-only, so what is derived from them alone may be kept with them."""
    return _SHARED.get(id(obj)) is obj


def _mixed_radix(orders: np.ndarray) -> np.ndarray:
    """Strides s with s[i] = prod(orders[i+1:]): v @ s numbers the vectors
    with 0 <= v[i] < orders[i] in lexicographic order."""
    return np.cumprod(np.append(1, orders[:0:-1]))[::-1].copy()


@dataclass(eq=False)
class FiniteRing:
    """Finite commutative ring of prime-power order with unit b_0."""

    p: int
    orders: np.ndarray           # (m,) additive order p^{e_i} of b_i
    mult: np.ndarray             # (m,m,m) b_i * b_j = sum_k mult[i,j,k] b_k
    names: tuple[str, ...] = ()

    def __post_init__(self):
        if not is_prime(self.p):
            raise NonPrime(f"{self.p} is not prime")
        self.orders = np.asarray(self.orders, dtype=np.int64)
        self.mult = np.asarray(self.mult, dtype=np.int64)
        m = len(self.orders)
        if not self.names:
            self.names = tuple(f"b{i}" for i in range(m))
        # p^e with e >= 1: a basis element of order 1 is zero, and 0 is no order
        for o in self.orders.tolist():
            e = o
            while e > 1 and e % self.p == 0:
                e //= self.p
            if o < self.p or e != 1:
                raise ValidationError(f"additive order {o} is not a power p^e, e >= 1, "
                                      f"of {self.p}")
        if self.cardinality > MAX_RING_SIZE:
            raise ValidationError(f"ring of order {self.cardinality} exceeds cap {MAX_RING_SIZE}")
        if self.mult.shape != (m, m, m):
            raise ValidationError("multiplication table has wrong shape")
        if np.any(self.mult < 0) or np.any(self.mult >= self.orders[None, None, :]):
            raise ValidationError("multiplication table not canonically reduced")
        # bilinear extension must respect additive orders
        for side in (self.orders[:, None, None], self.orders[None, :, None]):
            if np.any((side * self.mult) % self.orders[None, None, :] != 0):
                raise ValidationError("multiplication table incompatible with additive orders")
        # b_0 is a two-sided unit
        eye = np.zeros((m, m), dtype=np.int64)
        np.fill_diagonal(eye, 1)
        if not np.array_equal(self.mult[0] % self.orders[None, :], eye % self.orders[None, :]):
            raise ValidationError("b_0 is not a left unit")
        if not np.array_equal(self.mult[:, 0] % self.orders[None, :], eye % self.orders[None, :]):
            raise ValidationError("b_0 is not a right unit")
        if not np.array_equal(self.mult, np.swapaxes(self.mult, 0, 1)):
            raise ValidationError("multiplication table is not commutative")
        lhs = np.einsum("ijx,xkw->ijkw", self.mult, self.mult) % self.orders
        rhs = np.einsum("jky,iyw->ijkw", self.mult, self.mult) % self.orders
        if not np.array_equal(lhs, rhs):
            raise ValidationError("multiplication table is not associative")

    # -- structural equality ------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, FiniteRing)
                and self.p == other.p
                and np.array_equal(self.orders, other.orders)
                and np.array_equal(self.mult, other.mult))

    __hash__ = object.__hash__

    # -- basic data ----------------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.orders)

    @cached_property
    def cardinality(self) -> int:
        return math.prod(int(o) for o in self.orders)

    @property
    def is_prime_field(self) -> bool:
        return self.m == 1 and int(self.orders[0]) == self.p

    def zero_vec(self) -> np.ndarray:
        return np.zeros(self.m, dtype=np.int64)

    def one_vec(self) -> np.ndarray:
        v = self.zero_vec()
        v[0] = 1 % int(self.orders[0])
        return v

    def mul_vec(self, a, b) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(a, dtype=np.int64),
                         np.asarray(b, dtype=np.int64), self.mult) % self.orders

    def mul_many(self, elems: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Multiply every row of elems (n, m) by the single vector b."""
        return np.einsum("ni,j,ijk->nk", elems, np.asarray(b, dtype=np.int64),
                         self.mult) % self.orders

    # -- element codes -------------------------------------------------------

    @cached_property
    def strides(self) -> np.ndarray:
        """code(v) = v @ strides, with strides[i] = prod(orders[i+1:])."""
        return _read_only(_mixed_radix(self.orders))

    def code(self, v) -> np.ndarray:
        """Index in elements() of each canonical vector on the last axis of v."""
        return np.asarray(v, dtype=np.int64) @ self.strides

    @cached_property
    def _elements(self) -> np.ndarray:
        codes = np.arange(self.cardinality, dtype=np.int64)[:, None]
        return _read_only((codes // self.strides) % self.orders)

    def elements(self) -> np.ndarray:
        """(cardinality, m) read-only array of all elements, lexicographic
        order: row c is the element of code c."""
        return self._elements

    # -- locality ------------------------------------------------------------

    @cached_property
    def nilpotent_mask(self) -> np.ndarray:
        """Bool array over codes: True at the nilpotent elements."""
        elems, m = self.elements(), self.m
        # x^2 = x @ (x @ mult): one matmul on the table, then a row-wise one
        half = (elems @ self.mult.reshape(m, m * m)).reshape(-1, m, m)
        # sq[c] is the code of x^e for the element x of code c, and sq[sq]
        # that of x^(e*e); a nilpotent x has x^e = 0 once e >= cardinality,
        # since its nonzero powers are distinct
        sq, e = self.code((elems[:, None, :] @ half)[:, 0] % self.orders), 2
        while e < self.cardinality:
            sq, e = sq[sq], e * e
        return _read_only(sq == 0)

    def is_local(self) -> bool:
        """True iff the ring is local with residue field F_p.  The nilpotents
        N of a commutative ring form an ideal and R/N is reduced, so R/N is
        the field F_p exactly when |R| = p |N|."""
        return self.cardinality == self.p * int(self.nilpotent_mask.sum())



@dataclass(eq=False)
class RingSurjection:
    """Unital, additive, multiplicative surjection between finite rings."""

    source: FiniteRing
    target: FiniteRing
    images: np.ndarray           # (m_src, m_tgt): image of b_i in target coords

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.int64) % self.target.orders[None, :]
        if self.source.p != self.target.p:
            raise CharMismatch("source and target have different characteristic prime")
        if self.images.shape != (self.source.m, self.target.m):
            raise ValidationError("surjection image table has wrong shape")
        # additive well-definedness: o_i * image(b_i) = 0 in target
        bad = (self.source.orders[:, None] * self.images) % self.target.orders[None, :]
        if bad.any():
            raise ValidationError("map does not respect additive orders")
        if not np.array_equal(self.apply_vec(self.source.one_vec()), self.target.one_vec()):
            raise ValidationError("map is not unital")
        lhs = self.apply_many(self.source.mult)
        rhs = np.einsum("iu,jv,uvw->ijw", self.images, self.images,
                        self.target.mult) % self.target.orders
        bad = np.argwhere((lhs != rhs).any(axis=2))
        if len(bad):
            i, j = bad[0]
            raise ValidationError(f"map not multiplicative on (b{i}, b{j})")
        # the image is a subgroup H of the p-group S, and H = S iff
        # H + pS = S (Frattini): the images span S/pS = F_p^m
        if gf.rank(self.images, self.target.p) != np.count_nonzero(self.target.orders > 1):
            raise NotSurjective("image does not cover the target")

    def apply_vec(self, v) -> np.ndarray:
        return (np.asarray(v, dtype=np.int64) @ self.images) % self.target.orders

    def apply_many(self, rows: np.ndarray) -> np.ndarray:
        return (rows @ self.images) % self.target.orders

    def compose(self, inner: "RingSurjection") -> "RingSurjection":
        """self o inner (inner first)."""
        if inner.target is not self.source and inner.target != self.source:
            raise TargetMismatch("composition endpoints do not match")
        return RingSurjection(inner.source, self.target, self.apply_many(inner.images))

    def kernel_vectors(self) -> np.ndarray:
        elems = self.source.elements()
        imgs = self.apply_many(elems)
        return elems[~imgs.any(axis=1)]


def minimal_section(surj: RingSurjection) -> np.ndarray:
    """(|target|, m_src) array: row c is the lexicographically minimal
    preimage of the target element of code c."""
    elems = surj.source.elements()  # lexicographic order
    n = len(elems)
    first = np.full(surj.target.cardinality, n)
    np.minimum.at(first, surj.target.code(surj.apply_many(elems)), np.arange(n))
    if (first == n).any():
        raise NotSurjective("section construction found a missed target element")
    return elems[first]


@dataclass(eq=False)
class Tower:
    """Chain Rbar -> R -> R0 = F_p with I = Ker(Rbar->R0), J = Ker(Rbar->R),
    I*J = 0, and a fixed minimal set-theoretic section sigma of Rbar -> R.

    sigma is an array indexed by the code of the element of R it lifts;
    jcoords[code(v)] holds the F_p-coordinates of v in the J basis, or -1
    when v is not in J.
    """

    Rbar: FiniteRing
    R: FiniteRing
    R0: FiniteRing
    pibar: RingSurjection        # Rbar -> R
    pi: RingSurjection           # R -> R0
    pibar0: RingSurjection = field(init=False)
    jbasis: np.ndarray = field(init=False)       # (dimJ, m_bar)
    jcoords: np.ndarray = field(init=False)      # (|Rbar|, dimJ)
    sigma: np.ndarray = field(init=False)        # (|R|, m_bar)

    def __post_init__(self):
        if not (self.Rbar.p == self.R.p == self.R0.p):
            raise CharMismatch("tower rings disagree on p")
        if self.pibar.source != self.Rbar or self.pibar.target != self.R:
            raise TargetMismatch("pibar endpoints do not match the tower rings")
        if self.pi.source != self.R or self.pi.target != self.R0:
            raise TargetMismatch("pi endpoints do not match the tower rings")
        if not self.R0.is_prime_field:
            raise ValidationError("bottom ring must be the prime field F_p")
        for ring, name in ((self.Rbar, "Rbar"), (self.R, "R")):
            if not ring.is_local():
                raise NotLocal(f"{name} is not local with residue field F_p")
        self.pibar0 = self.pi.compose(self.pibar)

        jvecs = self.pibar.kernel_vectors()
        # J is an F_p-vector space (killed by I, in particular by p)
        if ((self.p * jvecs) % self.Rbar.orders[None, :]).any():
            raise ValidationError("Ker(Rbar -> R) is not killed by p")
        self._phi_scale = (self.Rbar.orders // self.p).astype(np.int64)
        # x -> x / p^(e-1) embeds J into F_p^m
        if (jvecs % self._phi_scale[None, :]).any():
            raise ValidationError("kernel element with unexpected coordinates")
        self.jbasis = self._greedy_fp_basis(jvecs)
        if self.p ** len(self.jbasis) != len(jvecs):
            raise ValidationError("J basis size inconsistent with |J|")

        ivecs = self.pibar0.kernel_vectors()
        for j in self.jbasis:
            prods = self.Rbar.mul_many(ivecs, j)
            if prods.any():
                i_bad = ivecs[prods.any(axis=1)][0]
                raise IJNonzero(
                    f"I*J != 0: {list(map(int, i_bad))} * {list(map(int, j))} != 0")

        self.sigma = minimal_section(self.pibar)
        self.jcoords = _jcoords(self.Rbar, self.jbasis)

    @property
    def p(self) -> int:
        return self.R0.p

    @property
    def dimJ(self) -> int:
        return len(self.jbasis)

    def _phi(self, v: np.ndarray) -> np.ndarray:
        return (v // self._phi_scale) % self.p

    def _greedy_fp_basis(self, vecs: np.ndarray) -> np.ndarray:
        """The vectors, in order, that are independent of the ones before
        them: the pivot columns of the rref of their images under phi."""
        _, keep, _ = gf.rref(self._phi(vecs).T, self.p)
        return vecs[keep]


# ---------------------------------------------------------------------------
# built-in tower constructors
# ---------------------------------------------------------------------------

def _trusted(cls, **fields):
    """An instance of the dataclass cls holding the given fields, made without
    __init__ and so without the checks of __post_init__: only for the rings,
    maps, towers and algebras derived here in closed form, whose tables
    tests/test_closed_forms.py feeds back through the checking constructors.
    Such objects are built once per description and shared (mk_tower,
    algebra.mk_algebra), with their arrays read-only."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def _jcoords(Rbar: FiniteRing, jbasis: np.ndarray) -> np.ndarray:
    """(|Rbar|, dimJ): the coordinates in jbasis of each element of J, -1 off J."""
    p, dimJ = Rbar.p, len(jbasis)
    lams = gf.digit_matrix(0, p ** dimJ, dimJ, p)
    jcoords = np.full((Rbar.cardinality, dimJ), -1, dtype=np.int64)
    jcoords[Rbar.code(lams @ jbasis % Rbar.orders)] = lams
    return jcoords


def _check_order(p: int, e: int) -> None:
    """Reject a ring of order p^e above the cap before building its tables."""
    if e > MAX_RING_SIZE.bit_length() or p ** e > MAX_RING_SIZE:
        raise ValidationError(f"ring of order {p}^{e} exceeds cap {MAX_RING_SIZE}")


def _builtin_ring(p: int, e: int, orders, mult: np.ndarray, names) -> FiniteRing:
    """The ring of order p^e with the table of one of the closed forms below,
    which the caller built after _check_order(p, e).  For a prime p and e >= 1
    the table is a commutative ring with unit b_0, so it is not checked again;
    any other (p, e) fails as FiniteRing says."""
    orders = np.asarray(orders, dtype=np.int64)
    if not (is_prime(p) and e >= 1):
        return FiniteRing(p, orders, mult, names)
    return _trusted(FiniteRing, p=p, orders=orders, mult=mult, names=names)


def zmod_ring(p: int, a: int) -> FiniteRing:
    _check_order(p, a)
    return _builtin_ring(p, a, [p ** a], np.ones((1, 1, 1), dtype=np.int64), ("1",))


def trunc_poly_ring(p: int, a: int) -> FiniteRing:
    """F_p[t]/(t^a): t^i t^j = t^(i+j) below a."""
    _check_order(p, a)
    k = np.arange(a)
    mult = (k[:, None, None] + k[None, :, None] == k).astype(np.int64)
    names = tuple("1" if i == 0 else f"t^{i}" if i > 1 else "t" for i in range(a))
    return _builtin_ring(p, a, np.full(a, p), mult, names)


def square_zero_ring(p: int, r: int) -> FiniteRing:
    """F_p[x_1..x_r]/(x)^2: b_0 = 1 is the only basis element with nonzero products."""
    _check_order(p, r + 1)
    mult = np.zeros((r + 1, r + 1, r + 1), dtype=np.int64)
    mult[0] = mult[:, 0] = np.eye(r + 1, dtype=np.int64)
    names = ("1",) + tuple(f"x{i}" for i in range(1, r + 1))
    return _builtin_ring(p, r + 1, np.full(r + 1, p), mult, names)


def _proj(src: FiniteRing, tgt: FiniteRing) -> RingSurjection:
    """The surjection b_i -> b_i (b_i -> 0 past the target's basis) of the
    built-in towers."""
    return _trusted(RingSurjection, source=src, target=tgt,
                    images=np.eye(src.m, tgt.m, dtype=np.int64))


def _projection_tower(Rbar: FiniteRing, R: FiniteRing, R0: FiniteRing) -> Tower:
    """The built-in tower Rbar -> R -> R0 = F_p in closed form, where J is an
    F_p-space with I*J = 0 (zmod and trunc_poly with a <= b + 1, square_zero).

    J is spanned by the o_i b_i that are nonzero in Rbar, o_i the order of
    b_i in R (1 past R's basis); the greedy basis in lexicographic order takes
    them from the last coordinate down.  The least preimage of an element of
    R is its coordinates padded with zeros.
    """
    mb, m = Rbar.m, R.m
    scale = np.ones(mb, dtype=np.int64)
    scale[:m] = R.orders
    jbasis = np.eye(mb, dtype=np.int64)[np.flatnonzero(scale < Rbar.orders)[::-1]] * scale
    sigma = np.zeros((R.cardinality, mb), dtype=np.int64)
    sigma[:, :m] = R.elements()
    return _trusted(Tower, Rbar=Rbar, R=R, R0=R0, pibar=_proj(Rbar, R), pi=_proj(R, R0),
                    pibar0=_proj(Rbar, R0), jbasis=jbasis, jcoords=_jcoords(Rbar, jbasis),
                    sigma=sigma, _phi_scale=Rbar.orders // Rbar.p)


def mk_tower(kind: str, p: int, **params) -> Tower:
    """Build one of the built-in towers, or wrap custom data.

    kinds: zmod(a, b): Z/p^a -> Z/p^b -> F_p;
           trunc_poly(a, b): F_p[t]/(t^a) -> F_p[t]/(t^b) -> F_p;
           square_zero(r): F_p[x_1..x_r]/(x)^2 -> F_p -> F_p;
           custom(Rbar, R, R0, pibar, pi).
    A built-in kind takes exactly the integer parameters TOWER_PARAMS[kind]
    (TypeError otherwise, as for a call with wrong arguments).
    Only the parameters and custom data are checked.  zmod and trunc_poly
    with a > b + 1, where J is not killed by p or I*J != 0, fail with
    Tower's errors before any ring is built (_long_tower_error).

    A built-in tower is shared: once its description (kind, p, params) has
    passed the checks, the same Tower is returned for it while it is among
    the SHARED_TOWERS last asked for, and every array of it is read-only
    (its rings, surjections, jbasis, sigma and jcoords).  A description that
    fails raises on every call, since nothing is kept for it.  Custom data
    are checked and wrapped anew on every call, never shared.
    """
    p = operator.index(p)
    if not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if p > MAX_P:
        raise ValidationError(f"p={p} exceeds the performance cap {MAX_P}")
    if kind == "custom":
        return Tower(params["Rbar"], params["R"], params["R0"],
                     params["pibar"], params["pi"])
    if kind not in TOWER_PARAMS:
        raise ValidationError(f"unknown tower kind {kind!r}")
    names = TOWER_PARAMS[kind]
    if sorted(params) != sorted(names):
        raise TypeError(f"{kind} takes the parameters {', '.join(names)}, "
                        f"not {', '.join(sorted(params)) or 'none'}")
    values = tuple(operator.index(params[k]) for k in names)
    if kind == "square_zero":
        if values[0] < 0:
            raise ValidationError("square_zero requires r >= 0")
    elif not (values[0] >= values[1] >= 1):
        raise ValidationError(f"{kind} requires a >= b >= 1")
    elif values[0] > values[1] + 1:
        raise _long_tower_error(kind, p, values[0])
    return _shared_tower(kind, p, values)


def _long_tower_error(kind: str, p: int, a: int) -> ValidationError | IJNonzero:
    """The error that Tower's checks raise on zmod or trunc_poly with
    a > b + 1, decided from the closed form before any table is built (the
    ring's size cap first, as building it would).  Over Z/p^a, J = (p^b) is
    not killed by p.  Over F_p[t]/t^a, J has the greedy basis t^(a-1), ...,
    t^b, I = (t); t^(a-1) kills I, and the least element of I (lexicographic
    in the coordinates of 1, t, ..., t^(a-1)) that t^(a-2) does not kill is t."""
    _check_order(p, a)
    if kind == "zmod":
        return ValidationError("Ker(Rbar -> R) is not killed by p")
    i, j = np.eye(a, dtype=np.int64)[[1, a - 2]].tolist()
    return IJNonzero(f"I*J != 0: {i} * {j} != 0")


@shared_cache(SHARED_TOWERS)
def _shared_tower(kind: str, p: int, params: tuple[int, ...]) -> Tower:
    """The built-in tower of a checked description, with every array read-only."""
    if kind == "square_zero":
        ring, fp = square_zero_ring(p, *params), zmod_ring(p, 1)
        tower = _projection_tower(ring, fp, fp)
    else:
        ring = zmod_ring if kind == "zmod" else trunc_poly_ring
        tower = _projection_tower(*(ring(p, e) for e in (*params, 1)))
    for ring in (tower.Rbar, tower.R, tower.R0):
        _read_only(ring.orders, ring.mult)
        _SHARED[id(ring)] = ring
    _read_only(tower.pibar.images, tower.pi.images, tower.pibar0.images,
               tower.jbasis, tower.jcoords, tower.sigma, tower._phi_scale)
    _SHARED[id(tower)] = tower
    return tower


# ---------------------------------------------------------------------------
# fiber products
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FiberProduct:
    ring: FiniteRing
    proj1: RingSurjection
    proj2: RingSurjection


def ring_fiber_product(f1: RingSurjection, f2: RingSurjection) -> FiberProduct:
    """Fiber product of f1: R' -> R and f2: R'' -> R, with its projections.

    R' and R'' must be F_p-algebras (every basis element of additive order
    p); ValidationError otherwise.  The pairs (a, b) with f1(a) = f2(b) are
    then the null space of [f1.images; -f2.images]^T mod p.  Its basis is the
    pivot columns of the rref of [unit; null space]^T, so b_0 = (1, 1).
    """
    if f1.target != f2.target:
        raise TargetMismatch("fiber product needs a common target")
    if f1.source.p != f2.source.p:
        raise CharMismatch("fiber product factors have different characteristic")
    R1, R2, p = f1.source, f2.source, f1.source.p
    if (R1.orders != p).any() or (R2.orders != p).any():
        raise ValidationError("fiber product factors must be F_p-algebras")
    null = gf.nullspace(np.concatenate([f1.images, -f2.images]).T, p)
    if p ** len(null) > MAX_RING_SIZE:
        raise ValidationError("fiber product exceeds the ring size cap")
    pairs = np.concatenate([[np.concatenate([R1.one_vec(), R2.one_vec()])], null])
    basis = pairs[gf.rref(pairs.T, p)[1]]
    k, b1, b2 = len(basis), basis[:, :R1.m], basis[:, R1.m:]
    # the products b_i b_j, factor by factor, one row per pair (i, j)
    prods = np.concatenate([np.einsum("iu,jv,uvw->ijw", b1, b1, R1.mult),
                            np.einsum("iu,jv,uvw->ijw", b2, b2, R2.mult)], axis=2)
    red, pivots, _ = gf.rref(np.concatenate([basis.T, prods.reshape(k * k, -1).T], axis=1), p)
    if pivots != list(range(k)):
        raise ValidationError("fiber product is not closed under multiplication")
    ring = FiniteRing(p, np.full(k, p), red[:k, k:].T.reshape(k, k, k))
    return FiberProduct(ring, RingSurjection(ring, R1, b1), RingSurjection(ring, R2, b2))
