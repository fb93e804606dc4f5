"""Cohomology of the kernel complex J (x) Hom(C0, D0) over F_p.

Graded maps whose coefficients lie in J = Ker(Rbar -> R) form, in each
degree, an F_p-vector space isomorphic to dimJ copies of the base-level Hom
space.  Because I*J = 0, composing such a map with bar-level differentials
only depends on the base reductions of the latter, so the complex carries the
differential id_J (x) delta_0.  All cohomology classes get canonical
representatives (reduction against the row-reduced coboundary space), which
keeps reports deterministic.

For nilpotent deformations delta_0 is almost all zero, so the linear algebra
runs on its core (`HomComplex.delta_core`): the nonzero rows, the nonzero
columns and the small matrix they cut out, assembled from the nonzero blocks
of the differentials without a dense matrix of delta; the kernel complex's
core is dimJ diagonal copies of it.  Each answer is scattered back to full
coordinates and is the one that the dense matrix gives: a zero row never
pivots, a zero column is free (its variable is 0 in a solution, and its unit
vector is a cocycle), and a right-hand side that is nonzero on a zero row
has no solution.  `delta_matrix` stays as the tests' dense reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import DeformedAlgebra
from .complexes import (
    DeltaCore,
    GradedMap,
    HomComplex,
    block_view,
    check_differentials,
    delta_blocks,
    stack_of,
)
from .errors import LevelMismatch, NotACocycle, ShapeMismatch
from .gf import DEFAULT_CAP


@dataclass(frozen=True)
class CohClass:
    """Cohomology class in degree n with its canonical representative."""

    n: int
    rep: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.rep)

    def vec(self) -> np.ndarray:
        return np.asarray(self.rep, dtype=np.int64)

    def __repr__(self) -> str:
        return f"CohClass(n={self.n}, rep={list(self.rep)})"


@dataclass(eq=False)
class KernelComplex:
    """J (x) Hom(C0, D0) with differential id_J (x) delta_0.

    Flattening order in degree n: J-basis index (major), then the HomComplex
    order (graded degree, row-major entries, algebra basis).
    """

    defalg: DeformedAlgebra
    hom: HomComplex

    def __post_init__(self):
        self.p = self.defalg.p
        self.dimJ = self.defalg.tower.dimJ
        self._cores: dict[int, DeltaCore] = {}
        self._cobound: dict[int, tuple[np.ndarray, list[int]]] = {}

    def dim(self, n: int) -> int:
        return self.dimJ * self.hom.dim(n)

    def delta_matrix(self, n: int) -> np.ndarray:
        """The dense matrix of id_J (x) delta_n, made afresh on each call."""
        return np.kron(np.eye(self.dimJ, dtype=np.int64), self.hom.delta_matrix(n))

    def delta_core(self, n: int) -> DeltaCore:
        """The core of id_J (x) delta_n: one diagonal copy of the Hom core
        per J-basis vector."""
        if n not in self._cores:
            core = self.hom.delta_core(n)
            if self.dimJ > 1:
                shift = np.arange(self.dimJ)[:, None]
                core = DeltaCore((shift * self.hom.dim(n + 1) + core.rows).reshape(-1),
                                 (shift * self.hom.dim(n) + core.cols).reshape(-1),
                                 np.kron(np.eye(self.dimJ, dtype=np.int64), core.mat))
            self._cores[n] = core
        return self._cores[n]

    # -- moving between graded maps and coordinate vectors -----------------

    def into_kernel_stack(self, stack: np.ndarray) -> np.ndarray:
        """Coordinates (N, dim) of an (N, ncoef) stack of bar-level maps with J
        coefficients; NotInKernel if any coefficient is outside J."""
        stack = np.asarray(stack)
        m = self.defalg.bar.ring.m
        rows, entries = len(stack), stack.shape[1] // m
        # kernel_coords orders J-basis index first over the whole stack
        lam = self.defalg.kernel_coords(stack.reshape(-1, m))
        return lam.reshape(self.dimJ, rows, entries).swapaxes(0, 1).reshape(
            rows, self.dimJ * entries)

    def out_of_kernel_stack(self, vecs: np.ndarray, n: int) -> np.ndarray:
        """The (N, ncoef) stack of bar-level degree-n maps with coordinates vecs
        (N, dim(n))."""
        vecs = np.asarray(vecs, dtype=np.int64)
        if vecs.ndim != 2 or vecs.shape[1] != self.dim(n):
            raise ShapeMismatch(f"expected vectors of length {self.dim(n)}")
        entries = self.hom.dim(n)
        coeffs = self.defalg.kernel_matrix(vecs, entries)
        return coeffs.reshape(len(vecs), entries * self.defalg.bar.ring.m)

    def into_kernel(self, f: GradedMap) -> np.ndarray:
        """Coordinates of a bar-level graded map C -> D with J coefficients;
        LevelMismatch for another algebra, ShapeMismatch for other ends."""
        if f.alg != self.defalg.bar:
            raise LevelMismatch("expected a bar-level map")
        if f.src != self.hom.obC or f.tgt != self.hom.obD:
            raise ShapeMismatch("expected a map from C to D")
        return self.into_kernel_stack(f.coef[None])[0]

    def out_of_kernel(self, vec: np.ndarray, n: int) -> GradedMap:
        """The bar-level degree-n graded map with coordinates vec."""
        return GradedMap.wrap(self.defalg.bar, self.hom.obC, self.hom.obD, n,
                              self.out_of_kernel_stack(np.asarray(vec)[None], n)[0])

    # -- cohomology ----------------------------------------------------------

    def is_cocycle(self, vec: np.ndarray, n: int) -> bool:
        core = self.delta_core(n)
        return not (core.mat @ (np.asarray(vec)[core.cols] % self.p) % self.p).any()

    def coboundary_space(self, n: int) -> tuple[np.ndarray, list[int]]:
        """Row-reduced basis of the degree-n coboundaries, with pivots."""
        if n not in self._cobound:
            core = self.delta_core(n - 1)
            red, pivots = gf.row_space(core.mat.T, self.p)   # images as rows
            full = np.zeros((len(pivots), self.dim(n)), dtype=np.int64)
            full[:, core.rows] = red
            self._cobound[n] = full, core.rows[pivots].tolist()
        return self._cobound[n]

    def coh_class(self, vec: np.ndarray, n: int) -> CohClass:
        vec = np.asarray(vec, dtype=np.int64) % self.p
        if not self.is_cocycle(vec, n):
            raise NotACocycle(f"vector is not a degree-{n} cocycle")
        red, pivots = self.coboundary_space(n)
        rep = gf.reduce_mod_rowspace(vec, red, pivots, self.p)
        return CohClass(n, tuple(int(x) for x in rep))

    def solve_coboundary(self, vec: np.ndarray, n: int) -> np.ndarray | None:
        """x with delta(x) = vec (x in degree n-1), or None: gf.solve's
        canonical solution, with zero free variables."""
        vec = np.asarray(vec, dtype=np.int64) % self.p
        if vec.shape != (self.dim(n),):
            raise ShapeMismatch(f"expected a vector of length {self.dim(n)}")
        core = self.delta_core(n - 1)
        part = vec[core.rows]
        if np.count_nonzero(part) < np.count_nonzero(vec):   # nonzero on a zero row
            return None
        y = gf.solve(core.mat, part, self.p)
        if y is None:
            return None
        x = np.zeros(self.dim(n - 1), dtype=np.int64)
        x[core.cols] = y
        return x

    def h_dim(self, n: int) -> int:
        # rank delta_n = rank delta_n^T, the number of degree-(n+1) coboundary pivots
        rank_n = len(self.coboundary_space(n + 1)[1])
        return self.dim(n) - rank_n - len(self.coboundary_space(n)[1])

    def h_basis(self, n: int) -> np.ndarray:
        """Canonical representatives of a basis of H^n, one per row: the
        reduced null space vectors of delta_n that are independent of the ones
        before them, in the order of their free columns.

        A coordinate that is neither a column of delta_n's core nor a row of
        delta_{n-1}'s is its own class (its unit vector); the other vectors
        live on the touched coordinates, and are found there."""
        cocycles, red, pivots = self.delta_core(n), *self.coboundary_space(n)
        touched = np.union1d(cocycles.cols, self.delta_core(n - 1).rows)
        a = np.zeros((len(cocycles.rows), len(touched)), dtype=np.int64)
        a[:, np.searchsorted(touched, cocycles.cols)] = cocycles.mat
        free = np.setdiff1d(np.arange(len(touched)),
                            np.asarray(gf.rref(a, self.p)[1], dtype=np.int64))
        z = np.zeros((len(free), self.dim(n)), dtype=np.int64)
        z[:, touched] = gf.nullspace(a, self.p)
        reps = gf.reduce_mod_rowspace(z, red, pivots, self.p)
        # the reps are zero on the coboundaries' pivot columns, so a rep is
        # independent of the coboundaries and the earlier reps iff it is
        # independent of the earlier reps: a pivot column of reps^T
        keep = gf.rref(reps[:, touched].T, self.p)[1]
        untouched = np.setdiff1d(np.arange(self.dim(n)), touched)
        units = np.zeros((len(untouched), self.dim(n)), dtype=np.int64)
        units[np.arange(len(untouched)), untouched] = 1
        order = np.argsort(np.concatenate([untouched, touched[free[keep]]]))
        return np.concatenate([units, reps[keep]])[order]

    def all_classes(self, n: int, cap: int = DEFAULT_CAP) -> list[CohClass]:
        """All of H^n, canonical representatives, lexicographic digit order;
        CapExceeded if H^n has more than cap classes, before any basis
        vector is made."""
        total = gf.count_candidates(self.p, self.h_dim(n), cap, "cohomology classes")
        basis = self.h_basis(n)
        red, pivots = self.coboundary_space(n)
        vecs = gf.digit_matrix(0, total, len(basis), self.p) @ basis
        reps = gf.reduce_mod_rowspace(vecs, red, pivots, self.p)
        return [CohClass(n, tuple(rep)) for rep in reps.tolist()]

    # -- delta through bar-level lifts -------------------------------------

    def delta_via_bar(self, vecs: np.ndarray, n: int, dbarC: GradedMap,
                      dbarD: GradedMap) -> np.ndarray:
        """delta of each row of an (N, dim(n)) stack of degree-n vectors, in one
        evaluation with bar-level graded lifts of the differentials.

        Must agree with delta_matrix(n) applied to each row for any choice of
        graded lifts; exposed so that independence can be checked on concrete
        data.  ShapeMismatch if dbarC, dbarD are not degree-1 endomorphisms of
        C and D at the bar level; NotInKernel if a result leaves J.
        """
        bar, obC, obD = self.defalg.bar, self.hom.obC, self.hom.obD
        check_differentials(bar, obC, obD, dbarC, dbarD)
        stack = self.out_of_kernel_stack(vecs, n)
        d = delta_blocks(bar, block_view(bar, obC, obD, n, stack), n,
                         dbarC.blocks(), dbarD.blocks())
        return self.into_kernel_stack(stack_of(bar, obC, obD, n + 1, d, len(stack)))


def kernel_complex(defalg: DeformedAlgebra, obC, obD, dC0: GradedMap,
                   dD0: GradedMap) -> KernelComplex:
    hom = HomComplex(defalg.base, obC, obD, dC0, dD0)
    return KernelComplex(defalg, hom)
