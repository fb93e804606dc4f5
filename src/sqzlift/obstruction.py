"""Obstruction classes, lifts and torsor classifications, written once for
the three lifting problems: differentials, maps commuting with the
differentials, and homotopies.

Each problem asks to lift a mid-level graded map of some degree m (the
unknown) to the top level.  The coefficientwise minimal lift X0 = sigma(X)
is a graded lift, and every other one is X0 + gamma with gamma J-valued.
The defining equation of a lift has a residual that is J-valued on graded
lifts and affine in the correction:

    residual(X0 + gamma) = residual(X0) + sign * delta(gamma).

So residual(X0) is a cocycle of degree m+1 in the kernel complex
J (x) Hom(C0, D0); its class is the obstruction, a lift exists iff the class
vanishes, and then the lifts modulo delta of degree m-1 form a torsor over
H^m.  The problems state only what differs:

    problem              unknown, m       residual(X)         sign  moves against
    DifferentialProblem  d-bar, 1         d-bar o d-bar        +1    (X0, X0)
    MapProblem           f-bar, deg f     delta(f-bar)         +1    (d_C, d_D)
    HomotopyProblem      H-bar, deg f-1   g - f - delta(H-bar) -1    (d_C, d_D)

Each residual is stated once, on a stack of unknowns (`residual_blocks`,
over the block view of complexes.py): `residuals` evaluates it on every row
of an (N, ncoef) coefficient stack in one pass, which is how the oracle
evaluates it on all of its basis vectors and witnesses, and `residual` on
one GradedMap is the one-row case.  `obstruct`, `lift` and `classify` do the
rest.  The per-kind functions below them are one-line entry points kept
under their public names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import gf
from .algebra import DeformedAlgebra
from .cohomology import CohClass, KernelComplex, kernel_complex
from .complexes import (
    Blocks,
    Complex,
    GradedMap,
    GradedObject,
    add_blocks,
    block_view,
    compose,
    compose_blocks,
    delta,
    delta_blocks,
    map_lift,
    map_reduce,
    stack_of,
)
from .errors import (
    InternalObstruction,
    LevelMismatch,
    NotAHomotopy,
    NotCochainMap,
    NotADifferential,
    Obstructed,
    ShapeMismatch,
    ValidationError,
)
from .gf import DEFAULT_CAP


# ---------------------------------------------------------------------------
# problem statements
# ---------------------------------------------------------------------------

class AffineLift:
    """A lifting problem whose residual is affine in a J-valued correction.

    A subclass provides `defalg`, `kernel`, the mid-level datum `mid_datum`
    of degree `degree`, `residual_blocks` (the residual on the block view of
    a stack of top-level unknowns), `sign` and `move_ends` (the
    differentials that the orbit moves delta(kappa) are taken against); see
    the module docstring.
    """

    sign: ClassVar[int] = 1

    @cached_property
    def sigma_lift(self) -> GradedMap:
        """The coefficientwise minimal lift X0 of the mid-level datum."""
        return map_lift(self.defalg, self.mid_datum)

    @cached_property
    def base_residual(self) -> np.ndarray:
        """residual(X0) as a coefficient vector of degree m+1: the defect
        that the obstruction class reads and the base of the oracle's scan."""
        return self.residuals(self.sigma_lift.coef[None])[0]

    def residuals(self, stack: np.ndarray) -> np.ndarray:
        """residual(X) for each row X of an (N, ncoef) stack of top-level
        degree-m maps, as an (N, ncoef) stack of degree m+1 maps."""
        K, m = self.kernel, self.degree
        bar, obC, obD = K.defalg.bar, K.hom.obC, K.hom.obD
        # a block that is zero in every row composes to zero: leave it out
        blocks = block_view(bar, obC, obD, m, stack)
        res = self.residual_blocks({i: blk for i, blk in blocks.items() if blk.any()})
        return stack_of(bar, obC, obD, m + 1, res, len(stack))

    def residual(self, X: GradedMap) -> GradedMap:
        """residual(X) of one top-level map: the one-row case of residuals."""
        K, m = self.kernel, self.degree
        return GradedMap.wrap(K.defalg.bar, K.hom.obC, K.hom.obD, m + 1,
                              self.residuals(X.coef[None])[0])


@dataclass(eq=False)
class DifferentialProblem(AffineLift):
    """Lift a square-zero differential from the mid level to the top level."""

    defalg: DeformedAlgebra
    ob: GradedObject
    d_mid: GradedMap

    degree: ClassVar[int] = 1

    def __post_init__(self):
        if self.d_mid.alg != self.defalg.mid:
            raise LevelMismatch("d_mid must live at the mid level")
        Complex(self.defalg.mid, self.ob, self.d_mid)   # validates d^2 = 0

    @property
    def mid_datum(self) -> GradedMap:
        return self.d_mid

    @cached_property
    def d_base(self) -> GradedMap:
        return map_reduce(self.defalg, self.d_mid, "mid", "base")

    @cached_property
    def kernel(self) -> KernelComplex:
        return kernel_complex(self.defalg, self.ob, self.ob,
                              self.d_base, self.d_base)

    def residual_blocks(self, d: Blocks) -> Blocks:
        return compose_blocks(self.defalg.bar, d, d, 1)

    @property
    def move_ends(self) -> tuple[GradedMap, GradedMap]:
        return self.sigma_lift, self.sigma_lift


@dataclass(eq=False)
class _BetweenComplexes(AffineLift):
    """A problem about graded maps C -> D between two top-level complexes."""

    defalg: DeformedAlgebra
    C: Complex                 # bar level
    D: Complex                 # bar level

    @cached_property
    def kernel(self) -> KernelComplex:
        dC0 = map_reduce(self.defalg, self.C.d, "bar", "base")
        dD0 = map_reduce(self.defalg, self.D.d, "bar", "base")
        return kernel_complex(self.defalg, self.C.ob, self.D.ob, dC0, dD0)

    @property
    def move_ends(self) -> tuple[GradedMap, GradedMap]:
        return self.C.d, self.D.d

    @cached_property
    def _d_blocks(self) -> tuple[Blocks, Blocks]:
        return self.C.d.blocks(), self.D.d.blocks()


@dataclass(eq=False)
class MapProblem(_BetweenComplexes):
    """Lift a degree-n map commuting with the differentials, given top-level
    square-zero lifts of the differentials on both sides."""

    f_mid: GradedMap

    def __post_init__(self):
        for X in (self.C, self.D):
            if X.alg != self.defalg.bar:
                raise LevelMismatch("complexes must live at the top level")
        if self.f_mid.alg != self.defalg.mid:
            raise LevelMismatch("f_mid must live at the mid level")
        if self.f_mid.src != self.C.ob or self.f_mid.tgt != self.D.ob:
            raise ShapeMismatch("f_mid endpoints do not match the complexes")
        dCm = map_reduce(self.defalg, self.C.d, "bar", "mid")
        dDm = map_reduce(self.defalg, self.D.d, "bar", "mid")
        if not delta(self.f_mid, dCm, dDm).is_zero():
            raise NotCochainMap("f_mid does not commute with the differentials")

    @property
    def mid_datum(self) -> GradedMap:
        return self.f_mid

    @property
    def degree(self) -> int:
        return self.f_mid.degree

    def residual_blocks(self, f: Blocks) -> Blocks:
        return delta_blocks(self.defalg.bar, f, self.degree, *self._d_blocks)


@dataclass(eq=False)
class HomotopyProblem(_BetweenComplexes):
    """Lift a homotopy between two given top-level lifted maps."""

    f_bar: GradedMap
    g_bar: GradedMap
    H_mid: GradedMap

    sign: ClassVar[int] = -1

    def __post_init__(self):
        for m, name in ((self.f_bar, "f_bar"), (self.g_bar, "g_bar")):
            if m.alg != self.defalg.bar:
                raise LevelMismatch(f"{name} must live at the top level")
            if not delta(m, self.C.d, self.D.d).is_zero():
                raise NotCochainMap(f"{name} does not commute with the differentials")
        if self.f_bar.degree != self.g_bar.degree:
            raise ShapeMismatch("f_bar and g_bar must have the same degree")
        if self.H_mid.alg != self.defalg.mid:
            raise LevelMismatch("H_mid must live at the mid level")
        if self.H_mid.degree != self.f_bar.degree - 1:
            raise NotAHomotopy("homotopy degree must be one below the maps")
        dCm = map_reduce(self.defalg, self.C.d, "bar", "mid")
        dDm = map_reduce(self.defalg, self.D.d, "bar", "mid")
        fm = map_reduce(self.defalg, self.f_bar, "bar", "mid")
        gm = map_reduce(self.defalg, self.g_bar, "bar", "mid")
        if delta(self.H_mid, dCm, dDm) != gm - fm:
            raise NotAHomotopy("H_mid is not a homotopy between the reductions")

    @property
    def mid_datum(self) -> GradedMap:
        return self.H_mid

    @property
    def degree(self) -> int:
        return self.H_mid.degree

    @cached_property
    def _g_minus_f(self) -> Blocks:
        return (self.g_bar - self.f_bar).blocks()

    def residual_blocks(self, H: Blocks) -> Blocks:
        return add_blocks(self._g_minus_f,
                          delta_blocks(self.defalg.bar, H, self.degree, *self._d_blocks), -1)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class LiftReport:
    obstruction: CohClass
    obstructed: bool
    lifted: GradedMap | None


@dataclass
class Classification:
    """Equivalence classes of lifts: a torsor over H^torsor_degree."""

    torsor_degree: int
    h_dim: int
    count: int
    class_reps: list[CohClass]
    reps: list[GradedMap]


# ---------------------------------------------------------------------------
# the core: obstruction, lift, classification
# ---------------------------------------------------------------------------

def _defect(prob: AffineLift):
    """Kernel coordinates of residual(X0), and their class in H^{m+1}."""
    K = prob.kernel
    vec = K.into_kernel_stack(prob.base_residual[None])[0]
    return vec, K.coh_class(vec, prob.degree + 1)


def obstruct(prob: AffineLift) -> tuple[CohClass, GradedMap]:
    """The obstruction class, and the minimal lift X0 whose residual
    represents it."""
    return _defect(prob)[1], prob.sigma_lift


def lift(prob: AffineLift) -> LiftReport:
    """A lift X0 + gamma with gamma echelon-minimal, or the obstruction."""
    K, m, X0 = prob.kernel, prob.degree, prob.sigma_lift
    vec, obstruction = _defect(prob)
    if not obstruction.is_zero:
        return LiftReport(obstruction, True, None)
    corr = K.solve_coboundary(-prob.sign * vec, m + 1)
    if corr is None:
        raise InternalObstruction("the defect of a zero class is not a coboundary")
    X = X0 + K.out_of_kernel(corr, m)
    if not prob.residual(X).is_zero():
        raise InternalObstruction("the corrected lift has a nonzero residual")
    if map_reduce(prob.defalg, X, "bar", "mid") != prob.mid_datum:
        raise InternalObstruction("the corrected lift does not reduce to the datum")
    return LiftReport(obstruction, False, X)


def classify(prob: AffineLift, base: GradedMap | None = None,
             cap: int = DEFAULT_CAP) -> Classification:
    """All lifts modulo delta of degree m-1 J-valued maps: a torsor over
    H^m, with representatives base + (canonical H^m class representatives);
    CapExceeded if H^m has more than cap classes."""
    K, m = prob.kernel, prob.degree
    if base is None:
        rep = lift(prob)
        if rep.obstructed:
            raise Obstructed(f"no lift exists; obstruction {rep.obstruction}")
        base = rep.lifted
    classes = K.all_classes(m, cap)
    reps = [base + K.out_of_kernel(c.vec(), m) for c in classes]
    return Classification(m, K.h_dim(m), len(classes), classes, reps)


# One entry point per problem kind, under the public names that callers (and
# the tracer in liftbench/tracing.py) use.

def obstruct_differential(prob: DifferentialProblem) -> tuple[CohClass, GradedMap]:
    return obstruct(prob)


def obstruct_map(prob: MapProblem) -> tuple[CohClass, GradedMap]:
    return obstruct(prob)


def obstruct_homotopy(prob: HomotopyProblem) -> tuple[CohClass, GradedMap]:
    return obstruct(prob)


def lift_differential(prob: DifferentialProblem) -> LiftReport:
    return lift(prob)


def lift_map(prob: MapProblem) -> LiftReport:
    return lift(prob)


def lift_homotopy(prob: HomotopyProblem) -> LiftReport:
    return lift(prob)


def classify_lifts(prob: DifferentialProblem, base: GradedMap | None = None,
                   cap: int = DEFAULT_CAP) -> Classification:
    return classify(prob, base, cap)


def classify_map_lifts(prob: MapProblem, base: GradedMap | None = None,
                       cap: int = DEFAULT_CAP) -> Classification:
    return classify(prob, base, cap)


def classify_homotopy_lifts_of(prob: HomotopyProblem, base: GradedMap | None = None,
                               cap: int = DEFAULT_CAP) -> Classification:
    return classify(prob, base, cap)


# ---------------------------------------------------------------------------
# differentials: difference classes and connecting isomorphisms
# ---------------------------------------------------------------------------

def v_class(prob: DifferentialProblem, d1: GradedMap, d2: GradedMap) -> CohClass:
    """Difference class of two lifted differentials; zero iff they are
    connected by an isomorphism of the form 1 + kappa, kappa in J."""
    K = prob.kernel
    for d in (d1, d2):
        if map_reduce(prob.defalg, d, "bar", "mid") != prob.d_mid:
            raise ValidationError("not a lift of d_mid")
        if not compose(d, d).is_zero():
            raise NotADifferential("d^2 != 0 at the top level")
    return K.coh_class(K.into_kernel(d2 - d1), 1)


def classify_connecting_isos(prob: DifferentialProblem, d1: GradedMap,
                             d2: GradedMap) -> Classification:
    """Isomorphisms 1 + kappa carrying d1 to d2, up to two-cells.

    (1+kappa) d1 (1+kappa)^{-1} = d1 - delta(kappa), so kappa must solve
    delta(kappa) = d1 - d2; two solutions give the same iso up to a two-cell
    iff they differ by a coboundary, so the classes are a torsor over H^0.
    """
    K = prob.kernel
    diff = K.into_kernel(d1 - d2)
    part = K.solve_coboundary(diff, 1)
    if part is None:
        raise Obstructed("the two lifts are not connected by any 1 + kappa")
    red, pivots = K.coboundary_space(0)
    part = gf.reduce_mod_rowspace(part, red, pivots, K.p)
    classes = K.all_classes(0)
    reps = []
    for c in classes:
        reps.append(K.out_of_kernel((part + c.vec()) % K.p, 0))
    return Classification(0, K.h_dim(0), len(classes), classes, reps)
