"""Benchmark the hot kernels.

The cases are row reduction and the affine candidate scan in `gf`, the
oracle's orbit partition `oracle._partition` on the shape of
`sqzlift gen --kind differential --seed 74` (p = 3, kdim 10: all 59 049
candidates are witnesses and its 13 moves are zero, so every orbit is a
singleton; `rank=0`), on the same witnesses with the two moves e_0 and
e_5 (`rank=2`: 6561 orbits of 9) or e_0 + e_9 and e_5 + 2 e_9
(`rank=free`: 6561 orbits of 9, whose keys change at the free touched
column 9), and on the shape of `gen --kind differential --seed 51` (p = 3,
kdim 12: 6561 witnesses in one orbit, the unit moves at digits 0-3 and 8-11,
two runs of pivots; `rank=8`), and the unipotent orbit partition
`defun.iso_orbits` on the shape of `sqzlift gen --kind differential --seed 7`
(F_3[x]/x^2, ranks 2 and 2, zero base differential: 81 strict lifts, each
conjugated by the 8 generators of the 6561-element unipotent group, 1 plus x
at one of the 8 coefficient positions), on the functor workload's largest
shape (`orbits functor`: F_2[t]/t^3, ranks 1 and 2, nonzero base
differential; 16 lifts, 10 generators) and on `gen --kind differential
--seed 2` with the cap raised (`orbits gen 2`: F_3[t]/t^3, 76 545 lifts,
20 generators).  The
`strict` case is `defun.strict_lifts` on `gen --kind differential --seed 23`
(F_3[t]/t^3 over F_3, ranks 1, 2, 2: 531 441 candidates, 111 537 lifts), and
the `guard` case is `crude.h_minus1_guard` on `gen --kind map --seed 47`
(mid ring F_3[t]/t^2: 3^10 degree -1 maps, 3^4 of degree -2).  The
`delta` cases build `HomComplex.delta_matrix` in degrees -1 and 0 for a
seeded complex over F_3 with ranks 24, 26, 26 (the size of the liftbench
ladder24 rung), and `delta4` is `complexes.delta_generators` in degree 0 at
the Z/4 level of Z/8 -> Z/4 -> F_2 (two generators per coefficient).  The
`core` cases are `KernelComplex.coboundary_space` and `solve_coboundary` in
degree 2 (delta_1, 624 x 1300) on a fresh kernel complex, on the core of
delta ("core") and on the dense matrix with `gf.row_space` and `gf.solve`
("dense"), for the seeded complex above ("random", whose core is nearly all
of delta) and for the ladder24 base differential, a rank-2 split block
("ladder": 48 nonzero entries); both paths give one digest.  The
`core build` cases are `HomComplex.delta_core(n)` of a fresh Hom complex,
which assembles the core from delta's nonzero blocks, on the ladder24 base
differential (n = 1) and on the functor workload's ranks (1, 2) over F_2
with a rank-1 differential (n = 1, no rows, and n = 0), so that the fixed
cost of the assembly on tiny complexes shows.  The
`emit` case is `cli.canonical_json` on the report that `sqzlift oracle` writes
for `gen --kind differential --seed 74` (59 049 witnesses, 59 049 singleton
orbits), taken as the command hands it to the writer, up to the report's
bytes.  The `emit (shape)`
rows write one seeded integer array by `cli._int_array` (into a buffer of
the size it gives) and through its list;
the 4-d shapes are map components (r x r entries of 3 coefficients), the 1-d
ones witness lists, and the crossovers of both set `cli._list_work` and
`cli._INT_ARRAY_MIN_WORK` (1-d arrays cross at about 250 elements, map
components between r = 3 and r = 4); these arrays are not ascending, so
`_int_array` writes them in padded rows.  The `emit asc (shape)` rows write
0, 1, 2, ... in flat order by `_int_array`'s own choice: the witness lists
and the singleton and single orbits of the oracle's largest reports.  The
`emit runs m=` rows write m copies each of 5, 50, 500 and 5000 (five runs of
one text width, the first element one) forced onto each layout, `rows` and
`runs`; their crossover sets `cli._RUN_MIN_LENGTH`.  The `scan k= L=` cases are
`gf.scan_affine_zero` over all p^k candidates on two seeded shapes whose base
is a combination of the generators (one hit each), the scan of the oracle on
`gen --kind differential --seed 51` (p = 3, k = 12, L = 24: 6 561 hits, the
oracle's largest scan in liftbench), and a seeded shape at the enumeration
cap (p = 2, k = 20, L = 16).  The `tower` case
builds every tower of `oracle._TOWER_MENU` with `mk_tower` and round-trips
the J elements of each through the kernel codec (`kernel_coords`, then
`kernel_matrix`); its digest covers the minimal section sigma, the
J-coordinate table and the codec's coordinates.  The `builtins` case builds
the towers of the liftbench documents, trunc_poly(3; 3, 2), zmod(2; 2, 1) and
square_zero(3; r=2), through `cli.tower_from_payload`, with the trivial and
dual-numbers algebras through `cli.algebra_from_payload`: the fixed cost of
loading a document.  Its digest covers every ring's orders and table, every
map's images, the J basis, sigma, the J-coordinate table and the structure
constants and unit of each level.  The `fiber` case is
`finring.ring_fiber_product` on F_3[t]/t^3 x_{F_3[t]/t^2} F_3[t]/t^3, and its
digest covers the basis orders, the multiplication table and both
projections.  The `nilpotent` case is
`FiniteRing.nilpotent_mask` on F_2[t]/t^14 (16 384 elements), computed
afresh on each run.  The `oracle_setup` cases are the oracle's three
stacked evaluations of the defining equation on `gen --kind differential
--seed 51` (3^12 candidates) and `gen --kind homotopy --seed 12` (3^10): the
scan generators (the residual on X0 + kappa_s for every kernel basis vector),
the re-check of the first 16 scan hits, and the orbit moves (delta of the
degree m-1 kernel basis); the hits come from one scan made before timing.
The `matmul` cases multiply seeded r x r matrices with `LevelAlgebra.matmul`,
forced onto each of its two paths (the one einsum, and left_op then one
integer matmul), over F_3 (k*m = 1), F_3[t]/t^3 (k*m = 3) and the dual
numbers over F_3[t]/t^3 (k*m = 6); the crossover of the two paths sets
`algebra._TWO_STEP_MIN_TERMS`, and both paths give one digest.  Each case prints its
best time of several runs and a digest of its result, so that a change of
result shows up next to a change of speed.  Case names given on the command
line select the cases whose names start with one of them.

Usage:  python benchmarks/bench_kernels.py [case prefix ...]
"""

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from time import perf_counter

import numpy as np

from sqzlift import algebra, cli, cohomology, crude, defun, finring, gf, oracle
from sqzlift.algebra import AlgMatrix, dual_numbers_algebra, mk_algebra
from sqzlift.complexes import (Complex, GradedMap, GradedObject, HomComplex,
                               coefficient_orders, delta_generators)
from sqzlift.finring import (FiniteRing, mk_tower, square_zero_ring,
                              trunc_poly_ring)

REPEATS = 5


def _workloads():
    rng = np.random.default_rng(0)
    loads = []
    for p, n in ((2, 300), (3, 250)):
        loads.append(("rref", p, rng.integers(0, p, size=(n, n)).astype(np.int64)))
    for p, neq, k in ((2, 64, 14), (3, 48, 9)):
        coeffs = rng.integers(0, p, size=k)
        gens = rng.integers(0, p, size=(k, neq)).astype(np.int64)
        base = coeffs @ gens % p   # a combination of the generators, so the scan has hits
        loads.append(("scan", p, (base, gens, np.full(neq, p, dtype=np.int64))))
    loads.append(("scan", 3, _oracle_generators("differential", 51)[1]()))
    wide = np.random.default_rng(20)
    loads.append(("scan", 2, (wide.integers(0, 2, size=16), wide.integers(0, 2, size=(20, 16)),
                              np.full(16, 2, dtype=np.int64))))
    loads.append(("partition", 3, (10, 0)))
    loads.append(("partition", 3, (10, 2)))
    loads.append(("partition", 3, (12, 8)))
    loads.append(("partition", 3, (10, "free")))
    loads.append(("orbits", 3, None))
    loads.append(("orbits", 2, "functor"))
    loads.append(("orbits", 3, "gen 2"))
    loads.append(("strict", 3, None))
    loads.append(("guard", 3, None))
    loads.append(("delta", 3, -1))
    loads.append(("delta", 3, 0))
    loads.append(("delta4", 2, None))
    for shape in ("random", "ladder"):
        for path in ("dense", "core"):
            loads.append(("core", 3, (shape, path)))
    loads.append(("core_build", 3, ("ladder", 1)))
    loads.append(("core_build", 2, ("1x2", 1)))
    loads.append(("core_build", 2, ("1x2", 0)))
    loads.append(("emit", 3, None))
    for shape in ([(r, r, 1, 3) for r in (2, 3, 4, 5, 6, 8)]
                  + [(n,) for n in (32, 64, 81, 128, 160, 192, 224, 243, 256, 384, 512)]):
        for path in ("list", "int_array"):
            loads.append(("emit_array", None, (shape, path)))
    for shape in ((6561,), (59049,), (59049, 1), (1, 6561)):
        loads.append(("emit_array", None, (shape, "int_array", 0)))
    for m in (32, 64, 128, 256, 512, 1024):
        for path in ("rows", "runs"):
            loads.append(("emit_array", None, ((4 * m,), path, m)))
    loads.append(("tower", None, None))
    loads.append(("builtins", None, None))
    loads.append(("fiber", 3, None))
    loads.append(("nilpotent", 2, 14))
    loads.append(("oracle_setup", 3, ("differential", 51)))
    loads.append(("oracle_setup", 3, ("homotopy", 12)))
    for level, k, sizes in (("base", 1, (2, 3, 4, 5, 8)), ("bar", 1, (2, 3, 4, 5, 8, 26)),
                            ("bar", 2, (2, 3, 4, 5, 8, 26))):
        for r in sizes:
            for path in ("einsum", "two-step"):
                loads.append(("matmul", 3, (level, k, r, path)))
    return loads


def _partition_job(p, kdim, rank):
    """Every candidate a witness, with 13 zero moves (rank 0), the moves e_0
    and e_5 (rank 2) or e_0 + e_9 and e_5 + 2 e_9 (rank "free": pivots 0 and
    5, free touched column 9); or (rank 8) one coset of the unit moves at
    digits 0-3 and 8-11 and 8 zero moves, the witnesses of gen differential
    seed 51."""
    witnesses = np.arange(p ** kdim, dtype=np.int64)
    eye = np.eye(kdim, dtype=np.int64)
    if rank == 8:
        zero = np.zeros(kdim, dtype=np.int64)
        moves = [eye[j] for j in (0, 1, 2, 3, 8, 9, 10, 11)] + [zero] * 8
        witnesses = witnesses[(witnesses // p ** 4 % p ** 4) == 2 + p]
    elif rank == "free":
        moves = [eye[0] + eye[9], eye[5] + 2 * eye[9]]
    else:
        moves = [eye[0], eye[5]] if rank else [np.zeros(kdim, dtype=np.int64)] * 13

    def job():
        return np.asarray(oracle._partition(witnesses, kdim, p, moves),
                          dtype=np.int64).tobytes()
    return job


def _orbits_job(shape):
    """iso_orbits on the gen seed 7 shape (shape None), on the functor
    workload's largest shape, or on gen differential seed 2 with the caps
    raised; the digest is the partition."""
    cap = 1 << 20
    if shape == "functor":
        A = defun.ArtinLocalRing(trunc_poly_ring(2, 3))
        alg0 = defun.trivial_base_algebra(2)
        ob = GradedObject.of({0: 1, 1: 2})
        d0 = GradedMap.from_arrays(alg0, ob, ob, 1, {0: np.array([[1], [0]])[..., None, None]})
    elif shape == "gen 2":
        inst = oracle.gen_instance("differential", 2)
        A = defun.ArtinLocalRing(inst.defalg.tower.Rbar)
        alg0, ob, d0 = inst.defalg.base, inst.problem.ob, inst.problem.d_base
        cap = 1 << 22   # 76 545 lifts times 20 generators
    else:
        A = defun.ArtinLocalRing(square_zero_ring(3, 1))
        alg0 = defun.trivial_base_algebra(3)
        ob = GradedObject.of({0: 2, 1: 2})
        d0 = GradedMap(alg0, ob, ob, 1, {})
    lifts = defun.strict_lifts(A, alg0, ob, d0, cap)

    def job():
        return repr(defun.iso_orbits(A, alg0, ob, lifts, cap)).encode()
    return job


def _strict_job():
    inst = oracle.gen_instance("differential", 23)
    A = defun.ArtinLocalRing(inst.defalg.tower.Rbar)
    prob = inst.problem

    def job():
        lifts = defun.strict_lifts(A, inst.defalg.base, prob.ob, prob.d_base)
        return repr(list(map(tuple, lifts.tolist()))).encode()
    return job


def _guard_job():
    prob = oracle.gen_instance("map", 47).problem

    def job():
        return crude.h_minus1_guard(prob.defalg, prob.C, prob.D).encode()
    return job


def _ladder_complex(alg, shape):
    """The base differential on ranks 24, 26, 26: seeded and of full rank
    ("random"), or the rank-2 split block of the liftbench ladder24 rung
    ("ladder", whose nilpotent blocks vanish at the base)."""
    rng = np.random.default_rng(1)
    ob = GradedObject.of({0: 24, 1: 26, 2: 26})
    if shape == "random":
        d0 = rng.integers(0, 3, size=(26, 24)).astype(np.int64)
        ker = gf.nullspace(d0.T, 3)   # rows y with y d0 = 0
        d1 = rng.integers(0, 3, size=(26, len(ker))) @ ker % 3
    else:
        d0, d1 = np.zeros((26, 24), dtype=np.int64), np.zeros((26, 26), dtype=np.int64)
        d0[24:, 22:] = np.eye(2, dtype=np.int64)
    d = GradedMap(alg, ob, ob, 1, {0: AlgMatrix(alg, d0[:, :, None, None]),
                                   1: AlgMatrix(alg, d1[:, :, None, None])})
    Complex(alg, ob, d)   # checks d^2 = 0
    return ob, d


def _delta_job(n):
    alg = defun.trivial_base_algebra(3)
    ob, d = _ladder_complex(alg, "random")
    hc = HomComplex(alg, ob, ob, d, d)

    def job():
        return hc.delta_matrix(n).tobytes()
    return job


def _core_job(shape, path):
    """coboundary_space(2) and solve_coboundary(v, 2) of a fresh kernel complex
    over F_3 (dimJ = 1), v a seeded coboundary; "dense" is the same on the
    dense matrix of delta_1 (624 x 1300), with gf.row_space and gf.solve."""
    defalg = mk_algebra(mk_tower("trunc_poly", 3, a=2, b=1), "trivial")
    ob, d = _ladder_complex(defalg.base, shape)
    mat = HomComplex(defalg.base, ob, ob, d, d).delta_matrix(1)
    v = mat @ np.random.default_rng(3).integers(0, 3, size=mat.shape[1]) % 3

    def job():
        if path == "dense":
            dmat = HomComplex(defalg.base, ob, ob, d, d).delta_matrix(1)
            (red, pivots), x = gf.row_space(dmat.T, 3), gf.solve(dmat, v, 3)
        else:
            K = cohomology.kernel_complex(defalg, ob, ob, d, d)
            (red, pivots), x = K.coboundary_space(2), K.solve_coboundary(v, 2)
        return red.tobytes() + np.asarray(pivots, dtype=np.int64).tobytes() + x.tobytes()
    return job


def _core_build_job(shape, n):
    """HomComplex.delta_core(n) of a fresh Hom complex: the ladder24 base
    differential over F_3, or the functor workload's ranks (1, 2) over F_2
    with a rank-1 differential (Hom^2 is empty, so delta_1 has no rows)."""
    if shape == "ladder":
        alg = defun.trivial_base_algebra(3)
        ob, d = _ladder_complex(alg, "ladder")
    else:
        alg = defun.trivial_base_algebra(2)
        ob = GradedObject.of({0: 1, 1: 2})
        d = GradedMap.from_arrays(alg, ob, ob, 1, {0: np.array([[1], [0]])[..., None, None]})

    def job():
        core = HomComplex(alg, ob, ob, d, d).delta_core(n)
        return b"".join(a.tobytes() for a in core)
    return job


def _emit_array_job(shape, path, runs=None):
    """One integer array of the given shape written by `_int_array`, or
    through its list: seeded entries in [-40, 40) (runs None), 0, 1, 2, ...
    (runs 0), or m = runs copies each of 5, 50, 500 and 5000, forced onto the
    padded rows or the runs of `_int_array` by `cli._RUN_MIN_LENGTH`."""
    if runs is None:
        a = np.random.default_rng(4).integers(-40, 40, size=shape)
    else:
        a = np.arange(math.prod(shape)) if runs == 0 else np.repeat([5, 50, 500, 5000], runs)
        a = a.reshape(shape)
    bound = {"rows": 1 << 62, "runs": 0}.get(path)

    def job():
        if path == "list":
            out = []
            cli._write_json(a.tolist(), "\n  ", out)
            return "".join(out).encode()
        if bound is None:
            return _written(cli._int_array(a, "\n  "))
        default, cli._RUN_MIN_LENGTH = cli._RUN_MIN_LENGTH, bound
        try:
            return _written(cli._int_array(a, "\n  "))
        finally:
            cli._RUN_MIN_LENGTH = default
    return job


def _written(array_fill) -> np.ndarray:
    """The uint8 buffer that an array's size and fill from `cli._int_array` write."""
    size, fill = array_fill
    buf = np.empty(size, dtype=np.uint8)
    fill(buf)
    return buf


def _delta_z4_job():
    rng = np.random.default_rng(2)
    alg = mk_algebra(mk_tower("zmod", 2, a=3, b=2), "trivial").mid
    ob = GradedObject.of({0: 6, 1: 8, 2: 6})
    d = GradedMap(alg, ob, ob, 1, {
        i: AlgMatrix(alg, rng.integers(0, 4, size=(ob.rank(i + 1), ob.rank(i), 1, 1)))
        for i in (0, 1)})

    def job():
        return delta_generators(alg, d, d, 0).tobytes()
    return job


def _emit_job():
    captured = []
    write = cli.canonical_json
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()):
        doc = os.path.join(tmp, "gen.json")
        cli.main(["gen", "--kind", "differential", "--seed", "74", "--out", doc])
        cli.canonical_json = lambda obj: captured.append(obj) or write(obj)
        try:
            cli.main(["oracle", "--complex", doc,
                      "--out", os.path.join(tmp, "report.json")])
        finally:
            cli.canonical_json = write
    report = captured[-1]

    def job():
        return cli.canonical_json(report)
    return job


def _tower_job():
    def job():
        out = []
        for kind, p, params in oracle._TOWER_MENU:
            t = mk_tower(kind, p, **params)
            defalg = mk_algebra(t, "trivial")
            jvecs = t.pibar.kernel_vectors()
            coords = defalg.kernel_coords(jvecs)
            if not np.array_equal(defalg.kernel_matrix(coords, len(jvecs)), jvecs):
                raise AssertionError(f"codec round trip failed on {kind} {p} {params}")
            out += [t.sigma, t.jcoords, coords]
        return b"".join(np.ascontiguousarray(a, dtype=np.int64).tobytes() for a in out)
    return job


def _builtins_job():
    towers = [{"kind": "trunc_poly", "p": 3, "params": {"a": 3, "b": 2}},
              {"kind": "zmod", "p": 2, "params": {"a": 2, "b": 1}},
              {"kind": "square_zero", "p": 3, "params": {"r": 2}}]

    def job():
        out = []
        for pay in towers:
            t = cli.tower_from_payload(pay)
            out += [a for ring in (t.Rbar, t.R, t.R0) for a in (ring.orders, ring.mult)]
            out += [t.pibar.images, t.pi.images, t.pibar0.images,
                    t.jbasis, t.sigma, t.jcoords]
            for kind in ("trivial", "dual_numbers"):
                defalg = cli.algebra_from_payload(t, {"kind": kind})
                out += [a for level in ("bar", "mid", "base")
                        for a in (defalg.level(level).struct, defalg.level(level).unit)]
        return b"".join(np.ascontiguousarray(a, dtype=np.int64).tobytes() for a in out)
    return job


def _fiber_job():
    pibar = mk_tower("trunc_poly", 3, a=3, b=2).pibar

    def job():
        fp = finring.ring_fiber_product(pibar, pibar)
        return b"".join(np.ascontiguousarray(a, dtype=np.int64).tobytes()
                        for a in (fp.ring.orders, fp.ring.mult,
                                  fp.proj1.images, fp.proj2.images))
    return job


def _nilpotent_job(p, a):
    ring = trunc_poly_ring(p, a)

    def job():   # the cached property's function, so that nothing is cached
        return FiniteRing.nilpotent_mask.func(ring).tobytes()
    return job


def _oracle_generators(kind, seed):
    """The problem of `gen --kind kind --seed seed` and a function that
    evaluates the oracle's scan inputs on it: base, gens and moduli."""
    prob = oracle.gen_instance(kind, seed, max_kdim=20).problem
    K, m = prob.kernel, prob.degree
    X0 = prob.sigma_lift.coef
    eye = np.eye(K.dim(m), dtype=np.int64)
    moduli = coefficient_orders(K.defalg.bar, K.hom.obC, K.hom.obD, m + 1)

    def generators():
        base = prob.residuals(X0[None])[0]
        gens = (prob.residuals(X0 + K.out_of_kernel_stack(eye, m)) - base) % moduli
        return base, gens, moduli
    return prob, generators


def _oracle_setup_job(kind, seed):
    prob, generators = _oracle_generators(kind, seed)
    K, p, m = prob.kernel, prob.kernel.p, prob.degree
    kdim = K.dim(m)
    X0 = prob.sigma_lift.coef
    hits = gf.scan_affine_zero(*generators(), p, 0, p ** kdim)
    sample = gf.digits(hits[:oracle.VERIFY_WITNESSES], kdim, p)

    def job():
        base, gens, _ = generators()
        rechecked = prob.residuals(X0 + K.out_of_kernel_stack(sample, m))
        if rechecked.any():
            raise AssertionError(f"a scan hit of {kind} {seed} is not a witness")
        moves = K.delta_via_bar(np.eye(K.dim(m - 1), dtype=np.int64), m - 1,
                                *prob.move_ends)
        return b"".join(np.ascontiguousarray(a, dtype=np.int64).tobytes()
                        for a in (base, gens, rechecked, moves))
    return job


def _matmul_job(level, k, r, path):
    rng = np.random.default_rng(r)
    tower = mk_tower("trunc_poly", 3, a=3, b=2)
    alg = getattr(mk_algebra(tower, "trivial") if k == 1 else dual_numbers_algebra(tower),
                  level)
    a, b = (rng.integers(0, 3, size=(r, r, alg.k, alg.ring.m)) for _ in range(2))
    bound = 10 ** 18 if path == "einsum" else 0

    def job():
        default, algebra._TWO_STEP_MIN_TERMS = algebra._TWO_STEP_MIN_TERMS, bound
        try:
            return np.ascontiguousarray(alg.matmul(a, b)).tobytes()
        finally:
            algebra._TWO_STEP_MIN_TERMS = default
    return job


def main(prefixes: list[str]) -> int:
    print(f"{'case':<36} {'seconds':>10} {'digest':>18}")
    for name, p, payload in _workloads():
        if name == "rref":
            mat = payload

            def job():
                r, piv, rk = gf.rref(mat, p)
                return r.tobytes() + bytes([rk % 251])
        elif name == "partition":
            job = _partition_job(p, *payload)
            name = f"partition rank={payload[1]}"
        elif name == "orbits":
            job = _orbits_job(payload)
            name = "orbits" if payload is None else f"orbits {payload}"
        elif name == "strict":
            job = _strict_job()
        elif name == "guard":
            job = _guard_job()
        elif name == "delta":
            job = _delta_job(payload)
            name = f"delta n={payload}"
        elif name == "delta4":
            job = _delta_z4_job()
        elif name == "core":
            job = _core_job(*payload)
            name = f"core {payload[0]} {payload[1]}"
        elif name == "core_build":
            job = _core_build_job(*payload)
            name = f"core build {payload[0]} n={payload[1]}"
        elif name == "emit_array":
            job = _emit_array_job(*payload)
            shape, path, runs = (payload + (None,))[:3]
            name = (f"emit {shape} {path}" if runs is None else f"emit asc {shape} {path}"
                    if runs == 0 else f"emit runs m={runs} {path}")
        elif name == "emit":
            job = _emit_job()
        elif name == "tower":
            job = _tower_job()
        elif name == "builtins":
            job = _builtins_job()
        elif name == "fiber":
            job = _fiber_job()
        elif name == "nilpotent":
            job = _nilpotent_job(p, payload)
        elif name == "oracle_setup":
            job = _oracle_setup_job(*payload)
            name = f"oracle_setup {payload[0][:4]} {payload[1]}"
        elif name == "matmul":
            job = _matmul_job(*payload)
            level, k, r, path = payload
            name = f"matmul {level} k={k} r={r} {path}"
        else:
            base, gens, moduli = payload
            name = f"scan k={gens.shape[0]} L={base.shape[0]}"

            def job():
                hits = gf.scan_affine_zero(base, gens, moduli, p,
                                           0, p ** gens.shape[0])
                return np.asarray(hits, dtype=np.int64).tobytes()

        label = name if p is None else f"{name} p={p}"
        if prefixes and not label.startswith(tuple(prefixes)):
            continue
        job()   # warm up
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            out = job()
            best = min(best, perf_counter() - t0)
        if isinstance(out, np.ndarray):   # the buffer that _int_array's fill wrote
            out = out.tobytes()
        if not isinstance(out, (bytes, bytearray)):
            out = repr(out).encode()
        digest = hashlib.sha256(out).hexdigest()[:16]
        print(f"{label:<36} {best:>10.6f} {digest:>18}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
