"""Brute-force oracle: find every candidate lift that satisfies the problem's
defining equation, over the whole candidate space.

A candidate lift differs from the coefficientwise minimal lift X0 by a
matrix with coefficients in J, so the candidate space is F_p^kdim.  A
candidate is a witness when the problem's defining equation, evaluated over
the top ring, is zero coefficientwise; nothing here relies on the
cohomological machinery except the coordinate codec for J-matrices.  The
evaluation is batched: the residual of candidate gamma = sum_s c_s kappa_s
equals base + sum_s c_s gens_s over the ring, with base = residual(X0) (the
problem's `base_residual`, which its obstruction class reads too) and
gens_s = residual(X0 + kappa_s) - residual(X0) (the residual is affine in a
J-valued correction because J * J = 0).  The scan kernel finds every digit
tuple with base + sum_s c_s gens_s = 0 by joining a table of the low digits'
sums with one of the high digits' negated sums, so no tuple is tested on its
own.

The defining equation is evaluated on stacks of coefficient vectors
(`residuals`, see obstruction.py), so each of these is one call: every
generator, from the stack X0 + kappa_s over the kernel basis; the re-check
of the first VERIFY_WITNESSES scan hits, from the stack of those candidate
lifts; and every orbit move, delta of the stack of degree m-1 basis maps
taken with the bar-level differentials (`KernelComplex.delta_via_bar`).
None of them reads the closed-form delta matrix (`delta_layout`).  They
share one primitive with it: `LevelAlgebra.matmul` multiplies large stacks
as left_op(a) times the columns of b, and `delta_layout` builds its
blocks from left_op; the tests that compare both matmul paths with the plain
einsum over the structure constants guard it.

Equivalence orbits come from the moves: conjugating by 1 + kappa, or
absorbing a delta of a lower-degree J-matrix, moves a witness by an element
of an F_p-linear image, so an orbit is a coset of the row space of the moves.
Each witness is keyed by the index of its representative modulo that space,
found from only the digit columns that the row-reduced moves touch (none
when every move is zero); witnesses with one key form one orbit, and the
orbit is checked to lie wholly inside the witness set.  `oracle` and
`witness` are written once for every problem kind (see obstruction.py for
what each kind states).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import mk_algebra
from .complexes import (
    Complex,
    GradedMap,
    GradedObject,
    coefficient_orders,
    compose,
    delta,
    map_reduce,
)
from .errors import CheckFailed, ValidationError
from .finring import mk_tower
from .gf import DEFAULT_CAP
from .obstruction import (
    AffineLift,
    DifferentialProblem,
    HomotopyProblem,
    MapProblem,
    lift_differential,
)

VERIFY_WITNESSES = 16      # scan hits re-checked by evaluating the residual
_PARTITION_ROWS = 1 << 15  # witnesses per digit array, to bound its memory


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    candidates: int
    witness_indices: np.ndarray        # sorted candidate indices that lift
    orbits: np.ndarray                 # partition of witness_indices, an orbit per row
    kdim: int

    @property
    def num_witnesses(self) -> int:
        return len(self.witness_indices)

    @property
    def num_classes(self) -> int:
        return len(self.orbits)


def _partition(witness_indices: np.ndarray, kdim: int, p: int,
               move_gens: np.ndarray) -> np.ndarray:
    """Partition the witnesses (ascending, distinct: CheckFailed otherwise)
    into orbits of w -> w + sum c_s move_gens[s] (the moves as rows, kdim
    long each): an int64 array with one orbit per row, each row ascending,
    rows ordered by least member.

    An orbit is a coset of the row space of the moves.  Row-reduced, the
    moves have `rank` pivot columns: a coset's members take every
    combination of pivot digits, and its canonical representative has them
    cleared and its free touched columns (nonzero in some move, not a pivot)
    changed by them.  A witness's key holds the representative's other
    digits rank places up and the witness's own pivot digits below them.
    Each run of pivot or of other columns moves by one division pair; the
    digits of the pivots and of the free touched columns are decoded only
    when such columns exist.  A key and the coset's moves give back the
    witness, so distinct witnesses have distinct keys, all below p^kdim:
    they fit in int64 whatever the cap, and one sort of them, which need
    not be stable, lists the cosets one after another.  A coset is inside
    the witness set exactly when all p^rank of its keys, q p^rank to
    q p^rank + p^rank - 1, are there: so each row of p^rank sorted keys must
    share its quotient q.  Within a coset the keys ascend with the pivot
    digits, and so do the witnesses unless free touched columns exist; then
    each row is sorted.  The rows are put in order by their first entries.
    """
    w = np.asarray(witness_indices, dtype=np.int64)
    if (w[1:] <= w[:-1]).any():
        raise CheckFailed("orbit left the witness set; internal inconsistency")
    G = np.asarray(move_gens, dtype=np.int64).reshape(len(move_gens), kdim)
    G, pivots = gf.row_space(G, p)
    rank = len(pivots)
    if not rank:   # no move: every witness is an orbit of its own
        return w.reshape(-1, 1)
    is_pivot = np.zeros(kdim, dtype=bool)
    is_pivot[pivots] = True
    place = np.empty(kdim, dtype=np.int64)   # a column's place in the key
    place[is_pivot], place[~is_pivot] = np.arange(rank), np.arange(rank, kdim)
    cuts = [0, *(np.flatnonzero(is_pivot[1:] != is_pivot[:-1]) + 1).tolist(), kdim]
    keys, rest = 0, w
    for a, b in zip(cuts, cuts[1:]):
        run = rest
        if b < kdim:   # numpy's int64 % is several times slower than this
            rest = rest // p ** (b - a)
            run = run - rest * p ** (b - a)
        keys += run * p ** int(place[a])
    free = np.flatnonzero(G.any(axis=0) & ~is_pivot)
    if len(free):
        change = G[:, free]
        for lo in range(0, len(w), _PARTITION_ROWS):
            chunk = w[lo:lo + _PARTITION_ROWS]   # each power divides the whole chunk
            C, D = (gf.floor_mod(chunk // p ** np.asarray(cols)[:, None], p).T
                    for cols in (pivots, free))
            keys[lo:lo + len(D)] += (gf.floor_mod(D - C @ change, p) - D) @ p ** place[free]
    size = p ** rank
    order = np.argsort(keys)
    keys = keys[order]
    if len(w) % size or (keys[::size] // size != keys[size - 1::size] // size).any():
        raise CheckFailed("orbit left the witness set; internal inconsistency")
    rows = w[order].reshape(-1, size)
    if len(free):
        rows = np.sort(rows, axis=1)
    return np.take(rows, np.argsort(rows[:, 0]), axis=0)


# ---------------------------------------------------------------------------
# the oracle, written once
# ---------------------------------------------------------------------------

def oracle(prob: AffineLift, cap: int = DEFAULT_CAP) -> OracleResult:
    """Exhaustively test every graded lift X0 + gamma of the mid-level datum
    against the problem's defining equation residual(X) = 0."""
    K, p, m = prob.kernel, prob.kernel.p, prob.degree
    kdim = K.dim(m)
    total = gf.count_candidates(p, kdim, cap, "candidates")
    X0 = prob.sigma_lift.coef
    base = prob.base_residual
    moduli = coefficient_orders(K.defalg.bar, K.hom.obC, K.hom.obD, m + 1)
    eye = np.eye(kdim, dtype=np.int64)
    gens = (prob.residuals(X0 + K.out_of_kernel_stack(eye, m)) - base) % moduli
    hits = gf.scan_affine_zero(base, gens, moduli, p, 0, total)

    # independent re-verification of a deterministic sample of witnesses
    sample = gf.digits(hits[:VERIFY_WITNESSES], kdim, p)
    if prob.residuals(X0 + K.out_of_kernel_stack(sample, m)).any():
        raise CheckFailed("scan produced a false witness")

    # orbit moves: delta of the degree m-1 kernel basis
    moves = (K.delta_via_bar(np.eye(K.dim(m - 1), dtype=np.int64), m - 1, *prob.move_ends)
             if len(hits) else np.zeros((0, kdim), dtype=np.int64))
    orbits = _partition(hits, kdim, p, moves)
    return OracleResult(total, hits, orbits, kdim)


def witness(prob: AffineLift, idx: int) -> GradedMap:
    """The candidate lift X0 + gamma whose digits in base p are idx, for idx
    in [0, p^kdim); ValidationError otherwise."""
    K, m = prob.kernel, prob.degree
    kdim = K.dim(m)
    if not 0 <= idx < K.p ** kdim:
        raise ValidationError(f"candidate index {idx} is outside [0, {K.p}^{kdim})")
    return prob.sigma_lift + K.out_of_kernel(gf.digits([idx], kdim, K.p)[0], m)


# One entry point per problem kind, under the public names that callers (and
# the tracer in liftbench/tracing.py) use.

def oracle_differential(prob: DifferentialProblem, cap: int = DEFAULT_CAP) -> OracleResult:
    return oracle(prob, cap)


def oracle_map(prob: MapProblem, cap: int = DEFAULT_CAP) -> OracleResult:
    return oracle(prob, cap)


def oracle_homotopy(prob: HomotopyProblem, cap: int = DEFAULT_CAP) -> OracleResult:
    return oracle(prob, cap)


def witness_differential(prob: DifferentialProblem, idx: int) -> GradedMap:
    return witness(prob, idx)


def witness_map(prob: MapProblem, idx: int) -> GradedMap:
    return witness(prob, idx)


def witness_homotopy(prob: HomotopyProblem, idx: int) -> GradedMap:
    return witness(prob, idx)


# ---------------------------------------------------------------------------
# seeded instance generation
# ---------------------------------------------------------------------------

@dataclass
class GenInstance:
    kind: str
    seed: int
    tower_desc: tuple
    defalg: object
    problem: object
    meta: dict


_TOWER_MENU = [
    ("zmod", 2, {"a": 2, "b": 1}),
    ("trunc_poly", 2, {"a": 2, "b": 1}),
    ("trunc_poly", 3, {"a": 2, "b": 1}),
    ("trunc_poly", 3, {"a": 3, "b": 2}),
    ("square_zero", 2, {"r": 1}),
    ("square_zero", 3, {"r": 1}),
]


def _rand_object(rng, max_len=4, max_rank=2):
    start = rng.randint(-2, 0)
    length = rng.randint(2, max_len)
    ranks = {}
    for i in range(start, start + length):
        ranks[i] = rng.randint(0, max_rank) if rng.random() < 0.35 else \
            rng.randint(1, max_rank)
    if sum(ranks.values()) == 0:
        ranks[start] = 1
    return GradedObject.of(ranks)


def _rand_matrix(rng, alg, r, c):
    ring = alg.ring
    data = np.zeros((r, c, alg.k, ring.m), dtype=np.int64)
    flat = data.reshape(-1, ring.m)
    for e in range(flat.shape[0]):
        flat[e] = [rng.randrange(int(o)) for o in ring.orders]
    return data


def _rand_map(rng, alg, src, tgt, n):
    comps = {}
    for i in src.support:
        if tgt.rank(i + n) > 0:
            comps[i] = _rand_matrix(rng, alg, tgt.rank(i + n), src.rank(i))
    return GradedMap.from_arrays(alg, src, tgt, n, comps)


def _square_zero_scalars(ring):
    """Nonzero ring elements a with a * a = 0, lexicographic order."""
    out = []
    for v in ring.elements():
        if v.any() and not ring.mul_vec(v, v).any():
            out.append(v)
    return out


def _rand_mid_differential(rng, defalg, ob):
    """A random square-zero mid-level differential on ob, by family."""
    family = rng.choice(["zero", "parity", "nilscalar"])
    comps = {}
    if family == "parity":
        par = rng.randint(0, 1)
        for i in ob.support:
            if i % 2 == par % 2 and ob.rank(i + 1) > 0:
                comps[i] = _rand_matrix(rng, defalg.mid, ob.rank(i + 1), ob.rank(i))
    elif family == "nilscalar":
        sq = _square_zero_scalars(defalg.mid.ring)
        if sq:
            a = sq[rng.randrange(len(sq))]
            for i in ob.support:
                if ob.rank(i + 1) > 0 and rng.random() < 0.8:
                    m = _rand_matrix(rng, defalg.mid, ob.rank(i + 1), ob.rank(i))
                    data = np.zeros_like(m)
                    ring = defalg.mid.ring
                    for idx in np.ndindex(m.shape[:3]):
                        data[idx] = ring.mul_vec(a, m[idx])
                    comps[i] = data
        else:
            family = "zero"
    d = GradedMap.from_arrays(defalg.mid, ob, ob, 1, comps)
    if not compose(d, d).is_zero():
        raise CheckFailed("generator produced a non-square-zero differential")
    return d, family


def gen_instance(kind: str, seed: int, cap: int = DEFAULT_CAP,
                 max_kdim: int = 16) -> GenInstance:
    """Deterministic seeded lifting instance of the given kind.

    kinds: "differential", "map", "homotopy".  Complexes have windows of
    length at most 4 and ranks at most 2; the candidate space of the
    associated brute-force scan is kept at or below p^max_kdim.
    """
    rng = random.Random(f"{kind}:{seed}")
    for attempt in range(200):
        t_kind, p, params = _TOWER_MENU[rng.randrange(len(_TOWER_MENU))]
        tower = mk_tower(t_kind, p, **params)
        defalg = mk_algebra(tower, "trivial")
        desc = (t_kind, p, tuple(sorted(params.items())))

        if kind == "differential":
            ob = _rand_object(rng)
            d_mid, family = _rand_mid_differential(rng, defalg, ob)
            prob = DifferentialProblem(defalg, ob, d_mid)
            if prob.kernel.dim(1) > max_kdim:
                continue
            return GenInstance(kind, seed, desc, defalg, prob, {"family": family})

        if kind not in ("map", "homotopy"):
            raise CheckFailed(f"unknown instance kind {kind!r}")
        obC = _rand_object(rng, max_len=3)
        obD = _rand_object(rng, max_len=3)
        dC_mid, famC = _rand_mid_differential(rng, defalg, obC)
        dD_mid, famD = _rand_mid_differential(rng, defalg, obD)
        rC = lift_differential(DifferentialProblem(defalg, obC, dC_mid))
        rD = lift_differential(DifferentialProblem(defalg, obD, dD_mid))
        if rC.obstructed or rD.obstructed:
            continue
        C = Complex(defalg.bar, obC, rC.lifted)
        D = Complex(defalg.bar, obD, rD.lifted)
        if kind == "map":
            n = rng.choice([-1, 0, 1])
            h0 = _rand_map(rng, defalg.mid, obC, obD, n - 1)
            dCm = map_reduce(defalg, C.d, "bar", "mid")
            dDm = map_reduce(defalg, D.d, "bar", "mid")
            prob = MapProblem(defalg, C, D, delta(h0, dCm, dDm))
        else:
            n = rng.choice([0, 1])
            hbar = _rand_map(rng, defalg.bar, obC, obD, n - 1)
            kbar = _rand_map(rng, defalg.bar, obC, obD, n - 1)
            f_bar = delta(hbar, C.d, D.d)
            g_bar = f_bar + delta(kbar, C.d, D.d)
            H_mid = map_reduce(defalg, kbar, "bar", "mid")
            prob = HomotopyProblem(defalg, C, D, f_bar, g_bar, H_mid)
        if prob.kernel.dim(prob.degree) > max_kdim:
            continue
        return GenInstance(kind, seed, desc, defalg, prob,
                           {"families": (famC, famD), "degree": n})
    raise CheckFailed(f"could not generate a {kind} instance for seed {seed}")
