"""Constructive pipeline turning a mid-level homotopy equivalence into a
full top-level one, plus the homotopy-category classification layer.

Given complexes C, D at the mid level, maps f: C -> D and g: D -> C
homotopy inverse to each other (witnessed by H: gf -> 1 and K: fg -> 1),
and a square-zero top-level lift of d_D, the pipeline produces top-level
d_C, f, g, H, K satisfying all five equations exactly:

    d_C^2 = 0,  delta(f) = 0,  delta(g) = 0,
    delta(H) = 1 - g f,  delta(K) = 1 - f g.

Every correction is either an explicit exact witness or a lift through the
affine-lift core of obstruction.py (f in stage (ii), H and K in stage (v)),
from the pipeline's own minimal lift X0; each class vanishes by construction,
so an obstructed lift is reported as InternalObstruction (always a bug, never
a property of the input).

The homotopy-category layer adds no lifting code of its own: lifts of a
complex up to homotopy are the strict lifts, and a map lift is realigned to
a lift of a homotopic map by obstructing and lifting a HomotopyProblem, all
through the affine-lift core in obstruction.py.  Its guard, whether
H^{-1}Hom(C, D) vanishes at the mid level, is decided by brute force with
the affine scan of gf.py: it counts the degree -1 maps z with delta z = 0
and the degree -2 maps w with delta w = 0, and compares |Z^{-1}| with
|B^{-1}| = |Hom^{-2}| / |ker delta|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import DeformedAlgebra
from .cohomology import CohClass
from .complexes import (
    Complex,
    GradedMap,
    coefficient_orders,
    compose,
    delta,
    delta_solutions,
    identity_map,
    map_lift,
    map_reduce,
    zero_map,
)
from .errors import (
    CapExceeded,
    InternalObstruction,
    LevelMismatch,
    NotHomotopyEquivalence,
    ValidationError,
)
from .gf import DEFAULT_CAP
from .obstruction import (
    Classification,
    DifferentialProblem,
    HomotopyProblem,
    LiftReport,
    MapProblem,
    classify_lifts,
    classify_map_lifts,
    lift,
    lift_differential,
    lift_homotopy,
    lift_map,
    obstruct_homotopy,
)


@dataclass(eq=False)
class HomotopyEquivData:
    """A homotopy equivalence between two mid-level complexes, with explicit
    homotopies H: gf -> 1_C and K: fg -> 1_D."""

    defalg: DeformedAlgebra
    C: Complex
    D: Complex
    f: GradedMap
    g: GradedMap
    H: GradedMap
    K: GradedMap

    def __post_init__(self):
        mid = self.defalg.mid
        for X, name in ((self.C, "C"), (self.D, "D")):
            if X.alg != mid:
                raise LevelMismatch(f"complex {name} must live at the mid level")
        if not delta(self.f, self.C.d, self.D.d).is_zero():
            raise NotHomotopyEquivalence("f is not a cochain map")
        if not delta(self.g, self.D.d, self.C.d).is_zero():
            raise NotHomotopyEquivalence("g is not a cochain map")
        oneC = identity_map(mid, self.C.ob)
        oneD = identity_map(mid, self.D.ob)
        if delta(self.H, self.C.d, self.C.d) != oneC - compose(self.g, self.f):
            raise NotHomotopyEquivalence("H is not a homotopy gf -> 1_C")
        if delta(self.K, self.D.d, self.D.d) != oneD - compose(self.f, self.g):
            raise NotHomotopyEquivalence("K is not a homotopy fg -> 1_D")


@dataclass
class CrudeResult:
    d_C: GradedMap
    f: GradedMap
    g: GradedMap
    H: GradedMap
    K: GradedMap
    K_mid_repaired: GradedMap
    trace: list[dict] = field(default_factory=list)


def _nonzero_count(m: GradedMap) -> int:
    return int(np.count_nonzero(m.coef))


def crude_lift(E: HomotopyEquivData, dbar_D: GradedMap,
               collect_trace: bool = False) -> CrudeResult:
    """Run the five-stage pipeline; see the module docstring."""
    da = E.defalg
    bar = da.bar
    if dbar_D.alg != bar:
        raise LevelMismatch("dbar_D must live at the top level")
    if not compose(dbar_D, dbar_D).is_zero():
        raise ValidationError("dbar_D does not square to zero")
    if map_reduce(da, dbar_D, "bar", "mid") != E.D.d:
        raise ValidationError("dbar_D does not reduce to d_D")

    trace: list[dict] = []

    def record(stage: str, checks):
        """Trace a stage; checks() is evaluated only when tracing."""
        if collect_trace:
            trace.append({"stage": stage, **checks()})

    def corrected(prob) -> GradedMap:
        """X0 + gamma from the lifting core; an obstructed lift is a bug."""
        rep = lift(prob)
        if rep.obstructed:
            raise InternalObstruction(
                f"{type(prob).__name__} of the pipeline is obstructed: {rep.obstruction}")
        return rep.lifted

    # stage (iv) first at the mid level: repair K so that [Hg - gK'] = 0,
    # with the explicit primitive z = H(Hg - gK)
    w = compose(E.H, E.g) - compose(E.g, E.K)
    K_mid = E.K + compose(E.f, w)
    z_mid = compose(E.H, w)
    oneD_mid = identity_map(da.mid, E.D.ob)
    if delta(K_mid, E.D.d, E.D.d) != oneD_mid - compose(E.f, E.g):
        raise InternalObstruction("repaired K is not a homotopy fg -> 1")
    if delta(z_mid, E.D.d, E.C.d) != compose(E.H, E.g) - compose(E.g, K_mid):
        raise InternalObstruction("explicit primitive for Hg - gK' failed")
    record("mid-repair", lambda: {"K_nonzero": _nonzero_count(K_mid)})

    # coefficientwise minimal lifts of everything
    dC = map_lift(da, E.C.d)
    f = map_lift(da, E.f)
    g = map_lift(da, E.g)
    H = map_lift(da, E.H)
    Kb = map_lift(da, K_mid)
    dD = dbar_D

    # stage (i): d_C^2 = delta(eta) with eta = g eps + H xi, eps = -delta(f)
    xi = compose(dC, dC)
    eps = -delta(f, dC, dD)
    eta = compose(g, eps) + compose(H, xi)
    dC = dC - eta
    if not compose(dC, dC).is_zero():
        raise InternalObstruction("stage (i): d_C^2 != 0 after correction")
    record("i", lambda: {"dC_sq_nonzero": _nonzero_count(compose(dC, dC))})

    # stage (ii): shift d_C by g delta(f), then lift f between the
    # top-level complexes; its X0 is the minimal lift f above
    xif = delta(f, dC, dD)
    dC = dC + compose(g, xif)
    if not compose(dC, dC).is_zero():
        raise InternalObstruction("stage (ii): d_C^2 broken by the shift")
    Cbar, Dbar = Complex(bar, E.C.ob, dC), Complex(bar, E.D.ob, dD)
    f = corrected(MapProblem(da, Cbar, Dbar, E.f))
    record("ii", lambda: {"delta_f_nonzero": _nonzero_count(delta(f, dC, dD))})

    # stage (iii): g <- g - eta_g with eta_g = -g mu_K + H delta(g)
    oneD = identity_map(bar, E.D.ob)
    oneC = identity_map(bar, E.C.ob)
    mu_K = oneD - compose(f, g) - delta(Kb, dD, dD)
    xig = delta(g, dD, dC)
    eta_g = -compose(g, mu_K) + compose(H, xig)
    g = g - eta_g
    if not delta(g, dD, dC).is_zero():
        raise InternalObstruction("stage (iii): delta(g) != 0 after correction")
    record("iii", lambda: {"delta_g_nonzero": _nonzero_count(delta(g, dD, dC))})

    # stage (v): g <- g + mu_H g, then lift H: gf -> 1_C and K': fg -> 1_D;
    # their X0 are the minimal lifts of H and K'
    mu_H = oneC - compose(g, f) - delta(H, dC, dC)
    gamma = compose(mu_H, g)
    if not delta(gamma, dD, dC).is_zero():
        raise InternalObstruction("stage (v): gamma is not a cocycle")
    g = g + gamma
    H = corrected(HomotopyProblem(da, Cbar, Cbar, compose(g, f), oneC, E.H))
    Kb = corrected(HomotopyProblem(da, Dbar, Dbar, compose(f, g), oneD, K_mid))
    record("v", lambda: {
        "mu_H_nonzero": _nonzero_count(oneC - compose(g, f) - delta(H, dC, dC)),
        "mu_K_nonzero": _nonzero_count(oneD - compose(f, g) - delta(Kb, dD, dD))})

    # final postconditions, all exact
    checks = {
        "d_C^2 = 0": compose(dC, dC).is_zero(),
        "delta(f) = 0": delta(f, dC, dD).is_zero(),
        "delta(g) = 0": delta(g, dD, dC).is_zero(),
        "delta(H) = 1 - gf": delta(H, dC, dC) == oneC - compose(g, f),
        "delta(K) = 1 - fg": delta(Kb, dD, dD) == oneD - compose(f, g),
        "reduce(d_C) = d_C": map_reduce(da, dC, "bar", "mid") == E.C.d,
        "reduce(f) = f": map_reduce(da, f, "bar", "mid") == E.f,
        "reduce(g) = g": map_reduce(da, g, "bar", "mid") == E.g,
        "reduce(H) = H": map_reduce(da, H, "bar", "mid") == E.H,
        "reduce(K) = K'": map_reduce(da, Kb, "bar", "mid") == K_mid,
    }
    for name, ok in checks.items():
        if not ok:
            raise InternalObstruction(f"postcondition failed: {name}")
    record("post", lambda: {k: bool(v) for k, v in checks.items()})
    return CrudeResult(dC, f, g, H, Kb, K_mid, trace)


# ---------------------------------------------------------------------------
# homotopy-category classification
# ---------------------------------------------------------------------------

def classify_homotopy_lifts(prob: DifferentialProblem,
                            cap: int = DEFAULT_CAP) -> tuple[LiftReport, Classification | None]:
    """Classify lifts of a complex up to homotopy.

    Every homotopy-category lift is equivalent to a strict lift on the fixed
    graded object, and two strict lifts are homotopy-equivalent iff they are
    strictly equivalent, so the report coincides with the strict
    classification: obstruction in H^2, classes affine over H^1.
    CapExceeded if H^1 has more than cap classes.
    """
    rep = lift_differential(prob)
    if rep.obstructed:
        return rep, None
    return rep, classify_lifts(prob, rep.lifted, cap)


def h_minus1_guard(defalg: DeformedAlgebra, C: Complex, D: Complex,
                   cap: int = DEFAULT_CAP) -> str:
    """Decide whether H^{-1}Hom(C, D) vanishes at the mid level.

    Returns "zero", "nonzero", or "undecided" (enumeration cap exceeded).
    The mid ring need not be a field, so every map is tested (see the module
    docstring).  B^{-1} lies in Z^{-1} because C and D are complexes, so
    H^{-1} vanishes iff the two counts agree.
    """
    mid = defalg.mid
    dC = C.d if C.alg == mid else map_reduce(defalg, C.d, "bar", "mid")
    dD = D.d if D.alg == mid else map_reduce(defalg, D.d, "bar", "mid")
    try:
        cocycles = len(delta_solutions(mid, dC, dD, -1, zero_map(mid, C.ob, D.ob, 0), cap))
        kernel = len(delta_solutions(mid, dC, dD, -2, zero_map(mid, C.ob, D.ob, -1), cap))
    except CapExceeded:
        return "undecided"
    image = math.prod(coefficient_orders(mid, C.ob, D.ob, -2).tolist()) // kernel
    return "zero" if cocycles == image else "nonzero"


@dataclass
class HomotopyMapReport:
    obstruction: CohClass
    obstructed: bool
    lifted: GradedMap | None
    homotopy: GradedMap | None          # set when realigned from a lift of g
    realigned: bool
    guard: str                          # "zero" | "nonzero" | "undecided"
    torsor_guaranteed: bool
    classification: Classification | None


def classify_homotopy_map_lifts(prob: MapProblem,
                                g_bar: GradedMap | None = None,
                                H_mid: GradedMap | None = None,
                                cap: int = DEFAULT_CAP) -> HomotopyMapReport:
    """Lift a cochain map up to homotopy, with the degree -1 guard.

    The obstruction lives in H^1 of the kernel complex.  If instead of f a
    lift g_bar of a homotopic map g (with homotopy H_mid: f -> g) is
    supplied, the lift of f is realigned to it: the homotopy problem from the
    strict lift of f to g_bar is obstructed by a class in H^n, so shifting
    the lift of f by the canonical representative of that class makes the
    homotopy lift.  The classes are affine over H^0 only when
    H^{-1}Hom(C, D) = 0 at the mid level, which is decided by bounded
    enumeration; otherwise the torsor structure is reported as not
    guaranteed.  CapExceeded if H^0 has more than cap classes.
    """
    rep = lift_map(prob)
    guard = h_minus1_guard(prob.defalg, prob.C, prob.D, cap)
    if rep.obstructed:
        return HomotopyMapReport(rep.obstruction, True, None, None, False,
                                 guard, guard == "zero", None)
    fbar = rep.lifted
    homotopy = None
    if g_bar is not None:
        if H_mid is None:
            raise ValidationError("realignment needs the mid-level homotopy")
        cls, _ = obstruct_homotopy(HomotopyProblem(prob.defalg, prob.C, prob.D,
                                                   fbar, g_bar, H_mid))
        fbar = fbar + prob.kernel.out_of_kernel(cls.vec(), prob.degree)
        hrep = lift_homotopy(HomotopyProblem(prob.defalg, prob.C, prob.D,
                                             fbar, g_bar, H_mid))
        if hrep.obstructed:
            raise InternalObstruction("homotopy realignment left a nonzero class")
        homotopy = hrep.lifted
    return HomotopyMapReport(rep.obstruction, False, fbar, homotopy,
                             homotopy is not None, guard, guard == "zero",
                             classify_map_lifts(prob, fbar, cap))
