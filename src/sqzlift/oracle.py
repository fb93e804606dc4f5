"""Brute-force oracle: enumerate every candidate lift and test it directly.

A candidate lift differs from the coefficientwise minimal lift X0 by a
matrix with coefficients in J, so the candidate space is F_p^kdim.  For each
candidate the problem's defining equation is evaluated over the top ring and
compared to zero coefficientwise; nothing here relies on the cohomological
machinery except the coordinate codec for J-matrices.  The evaluation is
batched: the residual of candidate gamma = sum_s c_s kappa_s equals
base + sum_s c_s gens_s over the ring, with base = residual(X0) and
gens_s = residual(X0 + kappa_s) - residual(X0) (the residual is affine in a
J-valued correction because J * J = 0), which the scan kernel checks digit
tuple by digit tuple.

Equivalence orbits come from the moves: conjugating by 1 + kappa, or
absorbing a delta of a lower-degree J-matrix, moves a witness by an element
of an F_p-linear image, so an orbit is a coset of the row space of the moves.
All witnesses are reduced modulo that space in one vectorised pass and keyed
by their representative; witnesses with one key form one orbit, and the
orbit is checked to lie wholly inside the witness set.  `oracle` and
`witness` are written once for every problem kind (see obstruction.py for
what each kind states).
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import gf
from .algebra import AlgMatrix, mk_algebra
from .cohomology import KernelComplex
from .complexes import Complex, GradedMap, GradedObject, compose, delta, map_reduce
from .errors import CapExceeded, CheckFailed
from .finring import mk_tower
from .obstruction import (
    AffineLift,
    DifferentialProblem,
    HomotopyProblem,
    MapProblem,
    lift_differential,
)

DEFAULT_CAP = 1 << 20
VERIFY_WITNESSES = 16      # scan hits re-checked by evaluating the residual
_PARTITION_ROWS = 1 << 15  # witnesses per digit array, to bound its memory


# ---------------------------------------------------------------------------
# flattening bar-level maps to residue vectors with moduli
# ---------------------------------------------------------------------------

def _flat_bar(K: KernelComplex, f: GradedMap) -> np.ndarray:
    parts = [f.comp(i).data.reshape(-1) for i in K.hom.support(f.degree)]
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)

def _flat_moduli(K: KernelComplex, n: int) -> np.ndarray:
    orders = K.defalg.bar.ring.orders
    k = K.defalg.k
    parts = []
    for i in K.hom.support(n):
        cnt = K.hom.obD.rank(i + n) * K.hom.obC.rank(i) * k
        parts.append(np.tile(orders, cnt))
    if not parts:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(parts)


def _one_hot(n: int, s: int) -> np.ndarray:
    v = np.zeros(n, dtype=np.int64)
    v[s] = 1
    return v


def _scan_parallel(base, gens, moduli, p, total, workers):
    if workers <= 1 or total < (1 << 12):
        return gf.scan_affine_zero(base, gens, moduli, p, 0, total)
    chunk = max(1 << 12, -(-total // (workers * 8)))
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    with ThreadPoolExecutor(max_workers=workers) as ex:
        parts = list(ex.map(
            lambda r: gf.scan_affine_zero(base, gens, moduli, p, r[0], r[1]),
            ranges))
    # chunk order is fixed, so the merged result is deterministic
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# result container
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    candidates: int
    witness_indices: np.ndarray        # sorted candidate indices that lift
    orbits: list[tuple[int, ...]]      # partition of witness_indices
    kdim: int

    @property
    def num_witnesses(self) -> int:
        return len(self.witness_indices)

    @property
    def num_classes(self) -> int:
        return len(self.orbits)


def _partition(witness_indices: np.ndarray, kdim: int, p: int,
               move_gens: list[np.ndarray]) -> list[tuple[int, ...]]:
    """Partition the witnesses (ascending, distinct) into orbits of
    w -> w + sum c_s move_gens[s], each orbit ascending, orbits ordered by
    least member.

    An orbit is a coset of the row space of the moves, so every witness is
    keyed by its canonical representative modulo that space.  A key's group
    lies in its coset, which has p^rank elements; the coset is inside the
    witness set exactly when the group has that many members.
    """
    w = np.asarray(witness_indices, dtype=np.int64)
    if len(w) == 0:
        return []
    G = (np.stack(move_gens) if move_gens
         else np.zeros((0, kdim), dtype=np.int64))
    G, pivots = gf.row_space(G, p)
    # G is in rref, so w reduces to w - w[pivots] @ G, which is zero on the
    # pivot columns; its free columns are the key
    free = [j for j in range(kdim) if j not in pivots]
    powers = p ** np.arange(len(free), dtype=np.int64)
    keys = np.empty(len(w), dtype=np.int64)
    for lo in range(0, len(w), _PARTITION_ROWS):
        W = gf.digits(w[lo:lo + _PARTITION_ROWS], kdim, p)
        reduced = W[:, free]
        if pivots:
            reduced = (reduced - W[:, pivots] @ G[:, free]) % p
        keys[lo:lo + len(W)] = reduced @ powers
    _, first, group, counts = np.unique(keys, return_index=True,
                                        return_inverse=True, return_counts=True)
    size = p ** len(pivots)
    if np.any(counts != size):
        raise CheckFailed("orbit left the witness set; internal inconsistency")
    # first[group] is the position of each witness's least orbit member; a
    # stable sort by it lists the orbits in order, each ascending
    members = iter(w[np.argsort(first[group], kind="stable")].tolist())
    return list(zip(*[members] * size))


# ---------------------------------------------------------------------------
# the oracle, written once
# ---------------------------------------------------------------------------

def oracle(prob: AffineLift, cap: int = DEFAULT_CAP,
           workers: int = 1) -> OracleResult:
    """Exhaustively test every graded lift X0 + gamma of the mid-level datum
    against the problem's defining equation residual(X) = 0."""
    K, p, m = prob.kernel, prob.kernel.p, prob.degree
    kdim = K.dim(m)
    total = p ** kdim
    if total > cap:
        raise CapExceeded(f"{total} candidates exceed the cap {cap}")
    X0 = prob.sigma_lift
    r0 = prob.residual(X0)
    base = _flat_bar(K, r0)
    moduli = _flat_moduli(K, m + 1)
    gens = [_flat_bar(K, prob.residual(X0 + K.out_of_kernel(_one_hot(kdim, s), m)) - r0)
            for s in range(kdim)]
    gens = np.stack(gens) if gens else np.zeros((0, len(base)), dtype=np.int64)
    hits = _scan_parallel(base, gens, moduli, p, total, workers)

    # independent re-verification of a deterministic sample of witnesses
    for idx in hits[:VERIFY_WITNESSES]:
        if not prob.residual(witness(prob, int(idx))).is_zero():
            raise CheckFailed("scan produced a false witness")

    # orbit moves: delta of the degree m-1 kernel basis
    moves = []
    if len(hits):
        kdim_lo = K.dim(m - 1)
        for s in range(kdim_lo):
            kap = K.out_of_kernel(_one_hot(kdim_lo, s), m - 1)
            moves.append(K.into_kernel(delta(kap, *prob.move_ends)))
    orbits = _partition(hits, kdim, p, moves)
    return OracleResult(total, hits, orbits, kdim)


def witness(prob: AffineLift, idx: int) -> GradedMap:
    """The candidate lift X0 + gamma whose digits in base p are idx."""
    K, m = prob.kernel, prob.degree
    return prob.sigma_lift + K.out_of_kernel(gf.digits([idx], K.dim(m), K.p)[0], m)


# One entry point per problem kind, under the public names that callers (and
# the tracer in liftbench/tracing.py) use.

def oracle_differential(prob: DifferentialProblem, cap: int = DEFAULT_CAP,
                        workers: int = 1) -> OracleResult:
    return oracle(prob, cap, workers)


def oracle_map(prob: MapProblem, cap: int = DEFAULT_CAP,
               workers: int = 1) -> OracleResult:
    return oracle(prob, cap, workers)


def oracle_homotopy(prob: HomotopyProblem, cap: int = DEFAULT_CAP,
                    workers: int = 1) -> OracleResult:
    return oracle(prob, cap, workers)


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
    return AlgMatrix(alg, data)


def _rand_map(rng, alg, src, tgt, n):
    comps = {}
    for i in src.support:
        if tgt.rank(i + n) > 0:
            comps[i] = _rand_matrix(rng, alg, tgt.rank(i + n), src.rank(i))
    return GradedMap(alg, src, tgt, n, comps)


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
                    data = np.zeros_like(m.data)
                    ring = defalg.mid.ring
                    for idx in np.ndindex(m.data.shape[:3]):
                        data[idx] = ring.mul_vec(a, m.data[idx])
                    comps[i] = AlgMatrix(defalg.mid, data)
        else:
            family = "zero"
    d = GradedMap(defalg.mid, ob, ob, 1, comps)
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
