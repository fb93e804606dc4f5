"""The benchmark's problem documents, made from a workload seed.

Every instance is a fixed shape whose verdict and cohomology are known by
construction; the seed draws the entries.  Shapes are moved around by random
graded base changes (unitriangular over the relevant level, or congruent to 1
modulo the maximal ideal for the large ladder rungs), which give isomorphic
problems: the program does the same amount of work on every seed, while its
inputs differ.  The arithmetic used to build the entries is the checker's,
not the program's; the program only receives the finished documents.

Run as a script to write one workload's documents to a directory:

    python3 liftbench/workloads.py --workload lift --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import checker as ck
else:
    from . import checker as ck

T3 = {"kind": "trunc_poly", "p": 3, "params": {"a": 3, "b": 2}}
Z4 = {"kind": "zmod", "p": 2, "params": {"a": 2, "b": 1}}
SZ = {"kind": "square_zero", "p": 3, "params": {"r": 2}}

# ring elements of Rbar used by the block shapes: u1 is nilpotent and u2
# lies in J = Ker(Rbar -> R); u1 * J = 0 in every tower here
U1 = {"trunc_poly": [0, 1, 0], "zmod": [2], "square_zero": [0, 1, 0]}
U2 = {"trunc_poly": [0, 0, 1], "zmod": [2], "square_zero": [0, 0, 1]}

# oracle documents: `gen` instances (max_kdim 20) of seeds 0..149 whose
# candidate count p^kdim lies in [2^12, 2^20]; see README for the rule
ORACLE_SEED_RANGE = range(150)
ORACLE_SEEDS = [("differential", 34), ("differential", 49), ("differential", 51),
                ("differential", 74), ("differential", 79), ("differential", 83),
                ("differential", 101), ("differential", 105), ("homotopy", 12),
                ("homotopy", 143), ("homotopy", 148)]
ORACLE_LARGEST = ("differential", 51)


@dataclass
class Instance:
    """One op of a pass: `command` on the document at `path`."""

    name: str
    command: str
    doc: dict
    expect: str | None           # verdict known by construction, if any
    path: str = ""

    def argv(self, out: str) -> list[str]:
        flag = "--map" if self.command in ("lift-map", "lift-homotopy") else "--complex"
        return [self.command, flag, self.path, "--workers", "1", "--out", out]


# ---------------------------------------------------------------------------
# arithmetic on graded families of matrices, with the checker's einsum
# ---------------------------------------------------------------------------


def rand_elems(rng, lvl: ck.Level, shape, part: str = "full") -> np.ndarray:
    """Random algebra elements; part "m" keeps the coefficient of 1 at zero."""
    out = rng.integers(0, lvl.ring.orders, size=tuple(shape) + (lvl.k, lvl.ring.m))
    if part == "m":
        out[..., 0] = 0
    return out % lvl.ring.orders


def const(lvl: ck.Level, a) -> np.ndarray:
    """Matrix over the algebra with F_p coefficients a of shape (r, c, k)."""
    a = np.asarray(a, dtype=np.int64)
    out = np.zeros(a.shape + (lvl.ring.m,), dtype=np.int64)
    out[..., 0] = a
    return out % lvl.ring.orders


def scale(lvl: ck.Level, u, x) -> np.ndarray:
    """Multiply every ring coefficient of x by the ring element u."""
    return lvl.ring.mul(np.asarray(x), np.asarray(u, dtype=np.int64))


def inverse_unipotent(lvl: ck.Level, P: np.ndarray) -> np.ndarray:
    """Inverse of P = 1 + N with N nilpotent (strictly triangular, or with
    coefficients in the maximal ideal), by the terminating Neumann series."""
    n = P.shape[0]
    one = lvl.eye(n)
    N = (P - one) % lvl.ring.orders
    term, inv = one, one
    for _ in range(n + lvl.ring.m + 2):
        term = (-lvl.matmul(term, N)) % lvl.ring.orders
        if not term.any():
            return inv
        inv = (inv + term) % lvl.ring.orders
    raise ValueError("base change is not unipotent")


def base_change(rng, lvl: ck.Level, n: int, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """Random invertible P and its inverse: "full" is lower times upper
    unitriangular, "m" is 1 plus a matrix over the maximal ideal."""
    one = lvl.eye(n)
    if mode == "m":
        P = (one + rand_elems(rng, lvl, (n, n), "m")) % lvl.ring.orders
        return P, inverse_unipotent(lvl, P)
    low = rand_elems(rng, lvl, (n, n)) * np.tril(np.ones((n, n), np.int64), -1)[..., None, None]
    up = rand_elems(rng, lvl, (n, n)) * np.triu(np.ones((n, n), np.int64), 1)[..., None, None]
    L, U = (one + low) % lvl.ring.orders, (one + up) % lvl.ring.orders
    P = lvl.matmul(L, U)
    return P, lvl.matmul(inverse_unipotent(lvl, U), inverse_unipotent(lvl, L))


def graded_change(rng, lvl, ranks: dict, mode: str) -> dict:
    return {i: base_change(rng, lvl, r, mode) for i, r in ranks.items() if r}


def transport(lvl, comps: dict, n: int, PC: dict, PD: dict) -> dict:
    """Components f_i -> PD_{i+n} f_i PC_i^{-1} of a degree-n map."""
    return {i: lvl.matmul(lvl.matmul(PD[i + n][0], f), PC[i][1]) % lvl.ring.orders
            for i, f in comps.items()}


def reduce_changes(s: ck.Setting, changes: dict) -> dict:
    return {i: (s.reduce(P, "bar", "mid"), s.reduce(Q, "bar", "mid"))
            for i, (P, Q) in changes.items()}


def rand_graded(rng, lvl, src: dict, tgt: dict, n: int) -> dict:
    return {i: rand_elems(rng, lvl, (tgt[i + n], r)) for i, r in src.items()
            if r and tgt.get(i + n, 0)}


def gdelta(lvl, h: dict, n: int, dC: dict, dD: dict, src: dict, tgt: dict) -> dict:
    """delta(h) = dD h - (-1)^n h dC for a degree-n family, as components."""
    sign = -1 if n % 2 == 0 else 1
    out = {}
    for i, r in src.items():
        rows = tgt.get(i + n + 1, 0)
        if not (r and rows):
            continue
        acc = np.zeros((rows, r, lvl.k, lvl.ring.m), dtype=np.int64)
        if i in h and (i + n) in dD:
            acc += lvl.matmul(dD[i + n], h[i])
        if i in dC and (i + 1) in h:
            acc += sign * lvl.matmul(h[i + 1], dC[i])
        out[i] = acc % lvl.ring.orders
    return out


# ---------------------------------------------------------------------------
# block shapes with known answers
# ---------------------------------------------------------------------------


def _nil_pair(rng, s: ck.Setting, a: int, obstructed: bool):
    """F_p matrices A, B (a x a over the base algebra) with BA != 0 exactly
    when obstructed."""
    base = s.base
    while True:
        if obstructed:
            A = rng.integers(0, s.p, size=(a, a, s.k))
            B = rng.integers(0, s.p, size=(a, a, s.k))
            if base.matmul(const(base, B), const(base, A)).any():
                return A, B
        else:
            q = a // 2 if a > 1 else 1
            A = np.zeros((a, a, s.k), dtype=np.int64)
            B = np.zeros((a, a, s.k), dtype=np.int64)
            A[:q] = rng.integers(0, s.p, size=(q, a, s.k))
            B[:, q:] = rng.integers(0, s.p, size=(a, a - q, s.k))
            return A, B


def std_differential(rng, s: ck.Setting, tkind: str, blocks, level: str):
    """Direct sum of blocks as (ranks, components) at `level`.

    ("split", i, r): identity R^r in degree i -> R^r in degree i + 1;
    ("zero", i, r):  R^r in degree i with zero differential;
    ("nil", i, a, obstructed): u1 A : deg i -> i + 1, u1 B : i + 1 -> i + 2;
    ("jblock", i, r): u2 E : deg i -> i + 1 (bar level only).
    """
    lvl = s.level(level)
    u1 = s.reduce(U1[tkind], "bar", level) if level != "bar" else np.asarray(U1[tkind])
    ranks: dict[int, int] = {}
    pieces = []                     # (src deg, tgt deg, src offset, tgt offset, matrix)
    for blk in blocks:
        kind, i = blk[0], blk[1]
        if kind == "zero":
            ranks[i] = ranks.get(i, 0) + blk[2]
            continue
        if kind == "nil":
            a = blk[2]
            A, B = _nil_pair(rng, s, a, blk[3])
            offs = [ranks.get(i + t, 0) for t in range(3)]
            for t in range(3):
                ranks[i + t] = offs[t] + a
            pieces.append((i, offs[0], offs[1], scale(lvl, u1, const(lvl, A))))
            pieces.append((i + 1, offs[1], offs[2], scale(lvl, u1, const(lvl, B))))
            continue
        r = blk[2]
        o0, o1 = ranks.get(i, 0), ranks.get(i + 1, 0)
        ranks[i], ranks[i + 1] = o0 + r, o1 + r
        if kind == "split":
            pieces.append((i, o0, o1, lvl.eye(r)))
        elif kind == "jblock":
            E = rng.integers(0, s.p, size=(r, r, s.k))
            pieces.append((i, o0, o1, scale(lvl, U2[tkind], const(lvl, E))))
        else:
            raise ValueError(kind)
    comps = {}
    for i, r in ranks.items():
        if ranks.get(i + 1, 0):
            comps[i] = np.zeros((ranks[i + 1], r, lvl.k, lvl.ring.m), dtype=np.int64)
    for i, o0, o1, M in pieces:
        comps[i][o1:o1 + M.shape[0], o0:o0 + M.shape[1]] = M
    return ranks, comps


# ---------------------------------------------------------------------------
# building documents through the program's API
# ---------------------------------------------------------------------------


class Builder:
    """Turns arrays into sqzlift objects and problem documents."""

    def __init__(self, sq):
        self.sq = sq
        self._defalgs = {}

    def defalg(self, tower: dict, alg: str):
        key = (json.dumps(tower, sort_keys=True), alg)
        if key not in self._defalgs:
            tw = self.sq.finring.mk_tower(tower["kind"], tower["p"], **tower["params"])
            if alg == "dual_numbers":
                da = self.sq.algebra.dual_numbers_algebra(tw)
            else:
                da = self.sq.algebra.mk_algebra(tw, alg)
            self._defalgs[key] = da
        return self._defalgs[key]

    def gmap(self, da, level: str, src: dict, tgt: dict, n: int, comps: dict):
        lvl = da.level(level)
        go = self.sq.complexes.GradedObject
        return self.sq.complexes.GradedMap(
            lvl, go.of(src), go.of(tgt), n,
            {i: self.sq.algebra.AlgMatrix(lvl, c) for i, c in comps.items()})

    def doc(self, kind: str, tower: dict, alg: str, **parts) -> dict:
        sq = self.sq
        da = self.defalg(tower, alg)
        ob = sq.complexes.GradedObject.of
        if kind == "differential":
            ranks, d = parts["d"]
            prob = sq.obstruction.DifferentialProblem(
                da, ob(ranks), self.gmap(da, "mid", ranks, ranks, 1, d))
        else:
            (rC, dC), (rD, dD) = parts["C"], parts["D"]
            C = sq.complexes.Complex(da.bar, ob(rC), self.gmap(da, "bar", rC, rC, 1, dC))
            D = sq.complexes.Complex(da.bar, ob(rD), self.gmap(da, "bar", rD, rD, 1, dD))
            if kind == "map":
                prob = sq.obstruction.MapProblem(
                    da, C, D, self.gmap(da, "mid", rC, rD, 0, parts["f"]))
            else:
                n = parts.get("n", 0)
                prob = sq.obstruction.HomotopyProblem(
                    da, C, D, self.gmap(da, "bar", rC, rD, n, parts["f"]),
                    self.gmap(da, "bar", rC, rD, n, parts["g"]),
                    self.gmap(da, "mid", rC, rD, n - 1, parts["H"]))
        desc = (tower["kind"], tower["p"], tuple(sorted(tower["params"].items())))
        return sq.cli.problem_to_doc(kind, da, desc, prob,
                                     algebra_kind="trivial" if alg == "trivial" else "custom")


def setting(tower: dict, alg: str) -> ck.Setting:
    return ck.Setting(tower, {"kind": alg})


def make_differential(b: Builder, rng, tower, alg, blocks, mode="full"):
    s = setting(tower, alg)
    ranks, d = std_differential(rng, s, tower["kind"], blocks, "mid")
    P = graded_change(rng, s.mid, ranks, mode)
    return b.doc("differential", tower, alg, d=(ranks, transport(s.mid, d, 1, P, P)))


def _bar_complex(rng, s, tkind, blocks):
    ranks, d = std_differential(rng, s, tkind, blocks, "bar")
    P = graded_change(rng, s.bar, ranks, "full")
    return ranks, transport(s.bar, d, 1, P, P)


def make_map(b: Builder, rng, tower, alg, obstructed: bool, c: int = 2):
    """Degree-0 map problems.  Liftable: f = reduction of delta(h) between
    random bar complexes.  Obstructed: C has u1 E in degrees 0 -> 1, D has
    zero differential, and f^1 E != 0, which no correction can repair."""
    s, tk = setting(tower, alg), tower["kind"]
    if not obstructed:
        rC, dC = _bar_complex(rng, s, tk, [("split", 0, 1), ("zero", 0, c), ("jblock", 1, c)])
        rD, dD = _bar_complex(rng, s, tk, [("zero", 0, c), ("split", 0, 1), ("zero", 1, c)])
        h = rand_graded(rng, s.bar, rC, rD, -1)
        f = gdelta(s.bar, h, -1, dC, dD, rC, rD)
        return b.doc("map", tower, alg, C=(rC, dC), D=(rD, dD),
                     f={i: s.reduce(x, "bar", "mid") for i, x in f.items()})
    # f^1 d_C must vanish at the mid level: over F_3[t]/t^2 it takes a factor t
    v = s.reduce(U1[tk], "bar", "mid") if tk == "trunc_poly" else np.eye(s.mid.ring.m)[0]
    while True:
        E = rng.integers(0, s.p, size=(c, c, s.k))
        F = rng.integers(0, s.p, size=(c, c, s.k))
        if s.base.matmul(const(s.base, F), const(s.base, E)).any():
            break
    rC, rD = {0: c, 1: c}, {0: c, 1: c}
    dC = {0: scale(s.bar, U1[tk], const(s.bar, E))}
    f = {0: rand_elems(rng, s.mid, (c, c)), 1: scale(s.mid, v, const(s.mid, F))}
    PC, PD = graded_change(rng, s.bar, rC, "full"), graded_change(rng, s.bar, rD, "full")
    return b.doc("map", tower, alg, C=(rC, transport(s.bar, dC, 1, PC, PC)),
                 D=(rD, {}), f=transport(s.mid, f, 0, reduce_changes(s, PC),
                                         reduce_changes(s, PD)))


def make_homotopy(b: Builder, rng, tower, alg, obstructed: bool, c: int = 2):
    """Homotopies between degree-0 maps.  Liftable: g = f + delta(k) and
    H = reduction of k.  Obstructed: D has u1 B in degrees -1 -> 0 and
    g - f = u1 B X + u2 G with G != 0; H = reduction of X."""
    s, tk = setting(tower, alg), tower["kind"]
    if not obstructed:
        rC, dC = _bar_complex(rng, s, tk, [("zero", -1, c), ("split", -1, 1), ("jblock", 0, c)])
        rD, dD = _bar_complex(rng, s, tk, [("split", -1, 1), ("zero", -1, c), ("zero", 0, c)])
        h = rand_graded(rng, s.bar, rC, rD, -1)
        kk = rand_graded(rng, s.bar, rC, rD, -1)
        f = gdelta(s.bar, h, -1, dC, dD, rC, rD)
        dk = gdelta(s.bar, kk, -1, dC, dD, rC, rD)
        g = {i: (f[i] + dk[i]) % s.bar.ring.orders for i in f}
        return b.doc("homotopy", tower, alg, C=(rC, dC), D=(rD, dD), f=f, g=g,
                     H={i: s.reduce(x, "bar", "mid") for i, x in kk.items()})
    rC, rD = {0: c}, {-1: c, 0: c}
    B = const(s.bar, rng.integers(0, s.p, size=(c, c, s.k)))
    dD = {-1: scale(s.bar, U1[tk], B)}
    X = rand_elems(rng, s.bar, (c, c))
    G = np.zeros((c, c, s.k), dtype=np.int64)
    while not G.any():
        G = rng.integers(0, s.p, size=(c, c, s.k))
    gap = (s.bar.matmul(dD[-1], X) + scale(s.bar, U2[tk], const(s.bar, G))) % s.bar.ring.orders
    PC, PD = graded_change(rng, s.bar, rC, "full"), graded_change(rng, s.bar, rD, "full")
    dDt = transport(s.bar, dD, 1, PD, PD)
    f = transport(s.bar, {0: np.zeros((c, c, s.k, s.bar.ring.m), np.int64)}, 0, PC, PD)
    g = transport(s.bar, {0: gap}, 0, PC, PD)
    H = transport(s.mid, {0: s.reduce(X, "bar", "mid")}, -1,
                  reduce_changes(s, PC), reduce_changes(s, PD))
    return b.doc("homotopy", tower, alg, C=(rC, {}), D=(rD, dDt), f=f, g=g, H=H)


def ladder(a: int, obstructed: bool):
    """Nilpotent blocks of rank a in degrees 0, 1, 2 plus a rank-2 split block."""
    return [("nil", 0, a, obstructed), ("split", 1, 2)]


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------

LIFT_LARGEST = "ladder24-lift-diff"


def lift_instances(b: Builder, seed: int) -> list[Instance]:
    out: list[Instance] = []

    def add(name, command, expect, fn, *args, **kw):
        rng = np.random.default_rng([seed, len(out)])
        out.append(Instance(name, command, fn(b, rng, *args, **kw), expect))

    # the ladder: F_3[t]/t^3 -> F_3[t]/t^2, base change congruent to 1 mod t
    for a, cmd, obs in ((4, "obstruct-diff", True), (4, "lift-diff", False),
                        (4, "extend-order", False), (8, "obstruct-diff", False),
                        (8, "lift-diff", True), (8, "extend-order", True),
                        (12, "obstruct-diff", True), (12, "lift-diff", False),
                        (16, "lift-diff", True), (24, "lift-diff", False)):
        add(f"ladder{a}-{cmd}", cmd, "obstructed" if obs else "lifts",
            make_differential, T3, "trivial", ladder(a, obs), mode="m")
    # small complexes with full base changes; R = F_p towers always lift
    small = [("split", 0, 1), ("zero", 0, 1), ("zero", 1, 1)]
    for tower, alg in ((T3, "trivial"), (Z4, "trivial"), (SZ, "trivial"),
                       (T3, "dual_numbers")):
        tag = f"{tower['kind']}-{alg}"
        add(f"{tag}-classify", "classify", "lifts", make_differential, tower, alg, small)
        add(f"{tag}-classify-homotopy", "classify-homotopy", "lifts",
            make_differential, tower, alg, small)
        for obs in (False, True):
            verdict = "obstructed" if obs else "lifts"
            add(f"{tag}-map-{verdict}", "lift-map", verdict, make_map, tower, alg, obs)
            add(f"{tag}-homotopy-{verdict}", "lift-homotopy", verdict,
                make_homotopy, tower, alg, obs)
    for tower, alg in ((Z4, "trivial"), (SZ, "trivial")):
        add(f"{tower['kind']}-lift-diff", "lift-diff", "lifts", make_differential, tower,
            alg, [("split", 0, 2), ("zero", 0, 2), ("split", 1, 1), ("zero", 2, 2)])
    for obs in (False, True):
        add(f"dual-nil-{obs}", "lift-diff", "obstructed" if obs else "lifts",
            make_differential, T3, "dual_numbers", [("nil", 0, 2, obs), ("split", 1, 1)])
    return out


def _data(gm) -> dict:
    return {i: m.data for i, m in gm.comps.items()}


def oracle_instances(b: Builder, seed: int) -> list[Instance]:
    """The selected `gen` instances, each moved by a seeded base change."""
    sq = b.sq
    out = []
    for n, (kind, gseed) in enumerate(ORACLE_SEEDS):
        inst = sq.oracle.gen_instance(kind, gseed, max_kdim=20)
        name, p, params = inst.tower_desc
        tower = {"kind": name, "p": p, "params": dict(params)}
        s = setting(tower, "trivial")
        rng = np.random.default_rng([seed, n])
        prob = inst.problem
        if kind == "differential":
            ranks = dict(prob.ob.ranks)
            P = graded_change(rng, s.mid, ranks, "full")
            doc = b.doc(kind, tower, "trivial",
                        d=(ranks, transport(s.mid, _data(prob.d_mid), 1, P, P)))
        else:
            rC, rD = dict(prob.C.ob.ranks), dict(prob.D.ob.ranks)
            PC = graded_change(rng, s.bar, rC, "full")
            PD = graded_change(rng, s.bar, rD, "full")
            mC, mD = reduce_changes(s, PC), reduce_changes(s, PD)
            C = (rC, transport(s.bar, _data(prob.C.d), 1, PC, PC))
            D = (rD, transport(s.bar, _data(prob.D.d), 1, PD, PD))
            if kind == "map":
                n_f = prob.f_mid.degree
                doc = b.doc(kind, tower, "trivial", C=C, D=D,
                            f=transport(s.mid, _data(prob.f_mid), n_f, mC, mD))
            else:
                n_f = prob.f_bar.degree
                doc = b.doc(kind, tower, "trivial", C=C, D=D, n=n_f,
                            f=transport(s.bar, _data(prob.f_bar), n_f, PC, PD),
                            g=transport(s.bar, _data(prob.g_bar), n_f, PC, PD),
                            H=transport(s.mid, _data(prob.H_mid), n_f - 1, mC, mD))
        out.append(Instance(f"gen-{kind}-{gseed}", "oracle", doc, None))
    return out


# (p, a, ranks, degrees with a nonzero base differential)
FUNCTOR_SHAPES = [(2, 2, (1, 1), ()), (2, 2, (1, 1, 1), ()), (2, 2, (1, 2), ()),
                  (2, 2, (2, 1), (0,)), (2, 3, (1, 1), ()), (2, 3, (1, 1, 1), (0,)),
                  (2, 3, (1, 2), (0,)), (3, 2, (1, 1), (0,)), (3, 2, (1, 1, 1), ()),
                  (3, 2, (1, 2), (0,)), (3, 2, (2, 1), ()), (3, 3, (1, 1), ()),
                  (3, 3, (1, 1), (0,))]
FUNCTOR_LARGEST = "functor-2-3-1x2-d0-functor-eval"


def functor_instances(b: Builder, seed: int) -> list[Instance]:
    """Base complexes over F_p with a rank-1 differential in the listed
    degrees, conjugated by random invertible F_p matrices, over the tower
    F_p[t]/t^a -> F_p[t]/t^(a-1)."""
    out = []
    for n, (p, a, ranks, nonzero) in enumerate(FUNCTOR_SHAPES):
        tower = {"kind": "trunc_poly", "p": p, "params": {"a": a, "b": a - 1}}
        s = setting(tower, "trivial")
        rng = np.random.default_rng([seed, n])
        rk = {i: r for i, r in enumerate(ranks)}
        d = {}
        for i in range(len(ranks) - 1):
            blk = np.zeros((ranks[i + 1], ranks[i], 1), dtype=np.int64)
            if i in nonzero:
                blk[0, 0, 0] = 1
            d[i] = const(s.mid, blk)
        P = {}
        for i, r in rk.items():
            while True:
                M = rng.integers(0, p, size=(r, r))
                red, piv = ck.row_reduce(np.hstack([M, np.eye(r, dtype=np.int64)]), p)
                if piv[:r] == list(range(r)):
                    break
            P[i] = (const(s.mid, M[..., None]), const(s.mid, red[:, r:][..., None]))
        doc = b.doc("differential", tower, "trivial", d=(rk, transport(s.mid, d, 1, P, P)))
        shape = "x".join(map(str, ranks))
        tag = f"functor-{p}-{a}-{shape}-{'d0' if nonzero else 'z'}"
        out.append(Instance(f"{tag}-functor-eval", "functor-eval", doc, "verified"))
        out.append(Instance(f"{tag}-tangent", "tangent", doc, "verified"))
    return out


WORKLOADS = {"lift": (lift_instances, LIFT_LARGEST),
             "oracle": (oracle_instances, f"gen-{ORACLE_LARGEST[0]}-{ORACLE_LARGEST[1]}"),
             "functor": (functor_instances, FUNCTOR_LARGEST)}


def write_documents(sq, workload: str, seed: int, out_dir: str) -> list[Instance]:
    """Build and write every document of a workload; paths are set on the
    returned instances (one file per distinct document)."""
    os.makedirs(out_dir, exist_ok=True)
    build = WORKLOADS[workload][0]
    insts = build(Builder(sq), seed)
    written: dict[int, str] = {}
    for n, inst in enumerate(insts):
        key = id(inst.doc)
        if key not in written:
            written[key] = os.path.join(out_dir, f"{n:02d}-{inst.name}.json")
            sq.cli.save_doc(written[key], inst.doc)
        inst.path = written[key]
    return insts


def select_oracle_seeds(sq, seeds=ORACLE_SEED_RANGE) -> list[tuple[str, int]]:
    """The rule behind ORACLE_SEEDS: gen instances whose scan has between
    2^12 and 2^20 candidates."""
    chosen = []
    for kind in ("differential", "map", "homotopy"):
        for seed in seeds:
            prob = sq.oracle.gen_instance(kind, seed, max_kdim=20).problem
            if kind == "differential":
                n = 1
            elif kind == "map":
                n = prob.f_mid.degree
            else:
                n = prob.f_bar.degree - 1
            total = prob.kernel.p ** prob.kernel.dim(n)
            if (1 << 12) <= total <= (1 << 20):
                chosen.append((kind, seed))
    return chosen


def import_program():
    """Import sqzlift from the checkout's src directory."""
    import importlib
    import types
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.isfile(os.path.join(src, "sqzlift", "__init__.py")):
        raise ImportError(f"no sqzlift package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    mods = ["cli", "finring", "algebra", "complexes", "cohomology", "gf",
            "obstruction", "crude", "oracle", "defun"]
    return types.SimpleNamespace(**{m: importlib.import_module(f"sqzlift.{m}") for m in mods})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", help="directory for the documents")
    ap.add_argument("--select-oracle-seeds", action="store_true",
                    help="re-derive the oracle seed list from its rule")
    args = ap.parse_args(argv)
    sq = import_program()
    if args.select_oracle_seeds:
        chosen = select_oracle_seeds(sq)
        print(json.dumps(chosen))
        return 0 if chosen == ORACLE_SEEDS else 1
    if not (args.workload and args.out):
        ap.error("--workload and --out are required")
    for inst in write_documents(sq, args.workload, args.seed, args.out):
        print(inst.command, inst.path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
