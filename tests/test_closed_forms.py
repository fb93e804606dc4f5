"""The built-in towers and algebras are built from closed forms, with no
checks.  These tests feed each closed form's tables back through the checking
constructors and compare every field, so that the trust is tested."""

import numpy as np
import pytest

from sqzlift.algebra import DeformedAlgebra, LevelAlgebra, dual_numbers_algebra, mk_algebra
from sqzlift.errors import NonPrime, ValidationError
from sqzlift.finring import (
    MAX_RING_SIZE,
    FiniteRing,
    RingSurjection,
    Tower,
    mk_tower,
    trunc_poly_ring,
    zmod_ring,
)

# polynomial rings above this many elements are left out of the grid: the
# checked build of F_2[t]/t^16 alone takes about 1 s and 180 MB
GRID_SIZE = 1 << 12


def _top(p, size):
    """The largest e with p^e <= size."""
    e = 0
    while p ** (e + 1) <= size:
        e += 1
    return e


def _grid(p):
    """(kind, params) for every built-in tower over F_p with |Rbar| up to the
    ring cap (zmod, whose rings have one basis element) or GRID_SIZE; the
    first parameters above the cap come in test_cap_and_parameters."""
    for kind, size in (("zmod", MAX_RING_SIZE), ("trunc_poly", GRID_SIZE)):
        for a in range(1, _top(p, size) + 1):
            for b in range(1, a + 1):
                yield kind, {"a": a, "b": b}
    for r in range(_top(p, GRID_SIZE)):
        yield "square_zero", {"r": r}


def _same(x, y):
    """Equal arrays of one dtype and shape."""
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


def _same_ring(x: FiniteRing, y: FiniteRing):
    return (x.p == y.p and x.names == y.names
            and _same(x.orders, y.orders) and _same(x.mult, y.mult))


def _checked(tower: Tower) -> Tower:
    """tower's rings and maps rebuilt by FiniteRing, RingSurjection and Tower,
    with every check; a ring that tower shares between levels is shared."""
    rings = {}
    for ring in (tower.Rbar, tower.R, tower.R0):
        if id(ring) not in rings:
            rings[id(ring)] = FiniteRing(ring.p, ring.orders, ring.mult, ring.names)
    Rbar, R, R0 = (rings[id(r)] for r in (tower.Rbar, tower.R, tower.R0))
    return Tower(Rbar, R, R0, RingSurjection(Rbar, R, tower.pibar.images),
                 RingSurjection(R, R0, tower.pi.images))


def _assert_same_tower(t: Tower, c: Tower):
    for name in ("Rbar", "R", "R0"):
        assert _same_ring(getattr(t, name), getattr(c, name)), name
    assert (t.R is t.R0) == (c.R is c.R0)
    for name in ("pibar", "pi", "pibar0"):
        tm, cm = getattr(t, name), getattr(c, name)
        assert _same(tm.images, cm.images), name
        # the endpoints are the tower's own rings, as in the checked build
        for end in ("source", "target"):
            levels = [n for n in ("Rbar", "R", "R0") if getattr(c, n) is getattr(cm, end)]
            assert any(getattr(t, n) is getattr(tm, end) for n in levels), (name, end)
    for name in ("jbasis", "jcoords", "sigma", "_phi_scale"):
        assert _same(getattr(t, name), getattr(c, name)), name
    assert vars(t).keys() == vars(c).keys()


def _assert_same_algebra(a: DeformedAlgebra, c: DeformedAlgebra):
    for level in ("bar", "mid", "base"):
        x, y = a.level(level), c.level(level)
        assert _same(x.struct, y.struct) and _same(x.unit, y.unit), level
        assert x.ring is getattr(a.tower, {"bar": "Rbar", "mid": "R", "base": "R0"}[level])
        assert vars(x).keys() == vars(y).keys()
    assert vars(a).keys() == vars(c).keys()


def _raised(build):
    """(type, message) of what build raises, or None."""
    try:
        build()
    except Exception as e:
        return type(e), str(e)
    return None


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_builtin_towers_and_algebras_equal_their_checked_builds(p):
    built = failed = 0
    for kind, params in _grid(p):
        expected = None
        if kind != "square_zero" and params["a"] > params["b"] + 1:
            # outside the closed form: the checked build of the same tables fails
            ring = {"zmod": zmod_ring, "trunc_poly": trunc_poly_ring}[kind]
            rings = [FiniteRing(r.p, r.orders, r.mult, r.names)
                     for r in (ring(p, params["a"]), ring(p, params["b"]), ring(p, 1))]
            eye = [np.eye(s.m, t.m, dtype=np.int64) for s, t in zip(rings, rings[1:])]
            expected = _raised(lambda: Tower(*rings, RingSurjection(*rings[:2], eye[0]),
                                             RingSurjection(*rings[1:], eye[1])))
            assert expected is not None, (kind, params)
        got = _raised(lambda: mk_tower(kind, p, **params))
        assert got == expected, (kind, p, params)
        if expected is not None:
            failed += 1
            continue
        tower = mk_tower(kind, p, **params)
        checked = _checked(tower)
        _assert_same_tower(tower, checked)
        for alg in (mk_algebra(tower, "trivial"), dual_numbers_algebra(tower)):
            ref = DeformedAlgebra(checked, LevelAlgebra(checked.Rbar, alg.bar.struct,
                                                        alg.bar.unit))
            _assert_same_algebra(alg, ref)
        built += 1
    # every kind has both sides; the grid reaches the largest rings it names
    assert built >= 8 and failed >= 2


@pytest.mark.parametrize("kind, p, params, error, message", [
    ("zmod", 4, {"a": 2, "b": 1}, NonPrime, "4 is not prime"),
    ("square_zero", 1, {"r": 1}, NonPrime, "1 is not prime"),
    ("trunc_poly", 11, {"a": 2, "b": 1}, ValidationError,
     "p=11 exceeds the performance cap 7"),
    ("zmod", 2, {"a": 1, "b": 2}, ValidationError, "zmod requires a >= b >= 1"),
    ("trunc_poly", 3, {"a": 2, "b": 0}, ValidationError, "trunc_poly requires a >= b >= 1"),
    ("zmod", 2, {"a": 17, "b": 1}, ValidationError, "ring of order 2^17 exceeds cap 65536"),
    ("trunc_poly", 3, {"a": 11, "b": 10}, ValidationError,
     "ring of order 3^11 exceeds cap 65536"),
    ("square_zero", 7, {"r": 5}, ValidationError, "ring of order 7^6 exceeds cap 65536"),
    ("square_zero", 3, {"r": -1}, ValidationError, "square_zero requires r >= 0"),
    ("square_zero", 3, {"r": -2}, ValidationError, "square_zero requires r >= 0"),
    ("cyclic", 2, {}, ValidationError, "unknown tower kind 'cyclic'"),
])
def test_cap_and_parameters(kind, p, params, error, message):
    assert _raised(lambda: mk_tower(kind, p, **params)) == (error, message)


def test_rings_outside_the_closed_form_fail_as_the_checks_say():
    """A ring function given a p that is not prime, or no basis, builds
    through FiniteRing and fails there."""
    assert _raised(lambda: zmod_ring(4, 2)) == (NonPrime, "4 is not prime")
    assert _raised(lambda: trunc_poly_ring(6, 2)) == (NonPrime, "6 is not prime")
    assert _raised(lambda: zmod_ring(2, 0)) == (
        ValidationError, "additive order 1 is not a power p^e, e >= 1, of 2")
