"""Benchmark the hot kernels: numba versus the numpy fallback.

The cases are row reduction and the affine candidate scan in `gf`, the
oracle's orbit partition `oracle._partition` on the shape of
`sqzlift gen --kind differential --seed 74` (p = 3, kdim 10: all 59 049
candidates are witnesses and its 13 moves are zero, so every orbit is a
singleton), and the unipotent orbit partition `defun.iso_orbits` on the
shape of `sqzlift gen --kind differential --seed 7` (F_3[x]/x^2, ranks 2 and
2, zero base differential: 81 strict lifts, 6561 conjugators).  Runs each
backend in its own subprocess (the backend is chosen once at import time
from SQZLIFT_NUMBA), times identical workloads, and checks that both
backends return bit-identical results.  Columns are headed by the backend
each run actually used; without numba both runs use numpy, so the comparison
is skipped and only the numpy times are printed.

Usage:  python benchmarks/bench_kernels.py
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from time import perf_counter

REPEATS = 5


def _workloads():
    import numpy as np

    rng = np.random.default_rng(0)
    loads = []
    for p, n in ((2, 300), (3, 250)):
        loads.append(("rref", p, rng.integers(0, p, size=(n, n)).astype(np.int64)))
    for p, neq, k in ((2, 64, 14), (3, 48, 9)):
        base = rng.integers(0, p, size=neq).astype(np.int64)
        gens = rng.integers(0, p, size=(k, neq)).astype(np.int64)
        loads.append(("scan", p, (base, gens)))
    loads.append(("partition", 3, (10, 13)))
    loads.append(("orbits", 3, None))
    return loads


def _partition_job(p, kdim, nmoves):
    import numpy as np

    from sqzlift import oracle

    witnesses = np.arange(p ** kdim, dtype=np.int64)
    moves = [np.zeros(kdim, dtype=np.int64)] * nmoves

    def job():
        return oracle._partition(witnesses, kdim, p, moves)
    return job


def _orbits_job():
    from sqzlift import defun
    from sqzlift.complexes import GradedMap, GradedObject
    from sqzlift.finring import square_zero_ring

    A = defun.ArtinLocalRing(square_zero_ring(3, 1))
    alg0 = defun.trivial_base_algebra(3)
    ob = GradedObject.of({0: 2, 1: 2})
    lifts = defun.strict_lifts(A, alg0, ob, GradedMap(alg0, ob, ob, 1, {}))

    def job():
        return repr(defun.iso_orbits(A, alg0, ob, lifts)).encode()
    return job


def run_worker() -> None:
    import numpy as np

    from sqzlift import gf

    results = {"backend": "numba" if gf.USING_NUMBA else "numpy", "cases": []}
    for name, p, payload in _workloads():
        if name == "rref":
            mat = payload

            def job():
                r, piv, rk = gf.rref(mat.copy(), p)
                return r.tobytes() + bytes([rk % 251])
        elif name == "partition":
            job = _partition_job(p, *payload)
        elif name == "orbits":
            job = _orbits_job()
        else:
            base, gens = payload
            moduli = np.full(base.shape[0], p, dtype=np.int64)

            def job():
                hits = gf.scan_affine_zero(base, gens, moduli, p,
                                           0, p ** gens.shape[0])
                return np.asarray(hits, dtype=np.int64).tobytes()

        job()   # warm up (includes JIT compilation on the numba path)
        best = float("inf")
        digest = None
        for _ in range(REPEATS):
            t0 = perf_counter()
            out = job()
            best = min(best, perf_counter() - t0)
            if not isinstance(out, bytes):
                out = repr(out).encode()
            digest = hashlib.sha256(out).hexdigest()[:16]
        results["cases"].append({"case": f"{name} p={p}", "seconds": best,
                                 "digest": digest})
    json.dump(results, sys.stdout)


def main() -> int:
    here = os.path.abspath(__file__)
    runs = {}
    for flag in ("1", "0"):
        env = dict(os.environ, SQZLIFT_NUMBA=flag)
        out = subprocess.run([sys.executable, here, "--worker"], env=env,
                             capture_output=True, text=True, check=True)
        runs[flag] = json.loads(out.stdout)

    first, second = runs["1"], runs["0"]
    if first["backend"] == second["backend"]:
        print(f"backend comparison skipped: numba is not available, "
              f"both runs used {first['backend']}")
        print(f"{'case':<14} {first['backend'] + ' (s)':>12}")
        for c in first["cases"]:
            print(f"{c['case']:<14} {c['seconds']:>12.4f}")
        return 0
    print(f"{'case':<14} {first['backend'] + ' (s)':>12} "
          f"{second['backend'] + ' (s)':>12} {'speedup':>8}")
    ok = True
    for a, b in zip(first["cases"], second["cases"]):
        assert a["case"] == b["case"]
        match = a["digest"] == b["digest"]
        ok &= match
        speed = b["seconds"] / a["seconds"] if a["seconds"] else float("inf")
        note = "" if match else "  RESULTS DIFFER"
        print(f"{a['case']:<14} {a['seconds']:>12.4f} {b['seconds']:>12.4f} "
              f"{speed:>7.1f}x{note}")
    print("results bit-identical across backends" if ok
          else "ERROR: backend results differ")
    return 0 if ok else 1


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--worker", action="store_true")
    if ap.parse_args().worker:
        run_worker()
        sys.exit(0)
    sys.exit(main())
