"""Exact linear algebra mod a prime, plus the batched candidate scan.

Two implementations of the hot kernels exist: numba-compiled loops and a
pure-numpy fallback.  Selection is done once at import time via the
SQZLIFT_NUMBA environment variable ("0"/"off"/"false"/"no" disables numba).
Everything is int64 and exact; no pivoting heuristics, so results are
bit-for-bit deterministic across both paths.

The numpy scan uses two tables.  A candidate index splits as
idx = hi * p^a + lo, with a about half the k digits and p^a at most `chunk`,
so its residual is Lo[lo] + B[hi] mod the moduli, where
Lo = digits(lo) @ gens[:a] and B = base + digits(hi) @ gens[a:] are built
once per call.  Each candidate then costs one comparison of its Lo row with
-B[hi] (O(L)) in place of k multiply-adds (O(kL)); every candidate is still
tested, and the tables cost about sqrt(p^k) rows each.
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "rref",
    "rank",
    "solve",
    "nullspace",
    "row_space",
    "reduce_mod_rowspace",
    "scan_affine_zero",
    "affine_combinations",
    "digits",
    "digit_matrix",
]


def _want_numba() -> bool:
    val = os.environ.get("SQZLIFT_NUMBA", "1").strip().lower()
    return val not in ("0", "off", "false", "no")


# ---------------------------------------------------------------------------
# kernel bodies (plain python/numpy, numba-compilable)
# ---------------------------------------------------------------------------

def _inv_mod_p(a: int, p: int) -> int:
    # Fermat; p is a small prime and a != 0 mod p.
    r = 1
    e = p - 2
    b = a % p
    while e > 0:
        if e & 1:
            r = (r * b) % p
        b = (b * b) % p
        e >>= 1
    return r


def _rref_body(a, p):
    """In-place reduced row echelon form mod p.

    Returns (pivot_of_col, rank) where pivot_of_col[j] is the pivot row of
    column j or -1.  Leftmost-column, topmost-row pivot choice only.
    """
    m, n = a.shape
    piv = np.full(n, -1, dtype=np.int64)
    r = 0
    for j in range(n):
        if r == m:
            break
        k = -1
        for i in range(r, m):
            if a[i, j] % p != 0:
                k = i
                break
        if k < 0:
            continue
        if k != r:
            for t in range(n):
                tmp = a[r, t]
                a[r, t] = a[k, t]
                a[k, t] = tmp
        inv = _inv_mod_p(a[r, j], p)
        for t in range(n):
            a[r, t] = (a[r, t] * inv) % p
        for i in range(m):
            if i != r and a[i, j] % p != 0:
                c = a[i, j] % p
                for t in range(n):
                    a[i, t] = (a[i, t] - c * a[r, t]) % p
        piv[j] = r
        r += 1
    return piv, r


def _scan_body(base, gens, moduli, p, start, stop, out):
    """Collect indices in [start, stop) whose base-p digit combination gives
    (base + sum_s digit_s * gens[s]) == 0 mod moduli.  Returns the count."""
    nvars = gens.shape[0]
    length = base.shape[0]
    cnt = 0
    digits = np.zeros(nvars, dtype=np.int64)
    for idx in range(start, stop):
        rem = idx
        for s in range(nvars):
            digits[s] = rem % p
            rem //= p
        ok = True
        for t in range(length):
            acc = base[t]
            for s in range(nvars):
                d = digits[s]
                if d != 0:
                    acc += d * gens[s, t]
            if acc % moduli[t] != 0:
                ok = False
                break
        if ok:
            out[cnt] = idx
            cnt += 1
    return cnt


USING_NUMBA = False
_rref_impl = _rref_body
_scan_impl = _scan_body

if _want_numba():  # pragma: no branch
    try:
        from numba import njit

        _inv_mod_p = njit(cache=True)(_inv_mod_p)
        _rref_impl = njit(cache=True)(_rref_body)
        _scan_impl = njit(cache=True)(_scan_body)
        USING_NUMBA = True
    except ImportError:
        pass


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form of `a` mod p: (rref, pivot columns, rank)."""
    a = np.asarray(a, dtype=np.int64) % p
    if a.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    a = np.ascontiguousarray(a)
    if a.size == 0:
        return a, [], 0
    piv, r = _rref_impl(a, p)
    pivots = [int(j) for j in range(a.shape[1]) if piv[j] >= 0]
    return a, pivots, int(r)


def rank(a: np.ndarray, p: int) -> int:
    return rref(a, p)[2]


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """A particular solution x of a @ x = b mod p, or None.

    The returned solution is the canonical one with zero free variables.
    """
    a = np.asarray(a, dtype=np.int64) % p
    b = np.asarray(b, dtype=np.int64) % p
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("rhs shape mismatch")
    aug = np.concatenate([a, b.reshape(m, 1)], axis=1)
    red, pivots, _ = rref(aug, p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    for j in pivots:
        row = np.flatnonzero(red[:, j])
        # rref: pivot column has a single 1
        x[j] = red[row[0], n]
    return x


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row (canonical)."""
    a = np.asarray(a, dtype=np.int64) % p
    m, n = a.shape
    red, pivots, _ = rref(a, p)
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, j in enumerate(free):
        basis[bi, j] = 1
        for pj in pivots:
            row = np.flatnonzero(red[:, pj])[0]
            basis[bi, pj] = (-red[row, j]) % p
    return basis


def row_space(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Nonzero rows of the rref of `a`, with their pivot columns."""
    red, pivots, r = rref(a, p)
    return red[:r], pivots


def reduce_mod_rowspace(v: np.ndarray, red: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Canonical representative of v modulo the row space (red in rref)."""
    v = np.asarray(v, dtype=np.int64) % p
    out = v.copy()
    for i, j in enumerate(pivots):
        c = out[j] % p
        if c:
            out = (out - c * red[i]) % p
    return out


def digits(idx: np.ndarray, nvars: int, p: int) -> np.ndarray:
    """(N, nvars) base-p digits of the indices, least significant first."""
    idx = np.asarray(idx, dtype=np.int64)
    powers = p ** np.arange(nvars, dtype=np.int64)
    return (idx[:, None] // powers[None, :]) % p


def digit_matrix(start: int, stop: int, nvars: int, p: int) -> np.ndarray:
    """Base-p digits of [start, stop), least significant digit first."""
    return digits(np.arange(start, stop, dtype=np.int64), nvars, p)


def affine_combinations(base: np.ndarray, gens: np.ndarray, moduli: np.ndarray,
                        p: int, start: int, stop: int) -> np.ndarray:
    """(stop-start, L) array of (base + digits @ gens) % moduli, in index order."""
    digits = digit_matrix(start, stop, gens.shape[0], p)
    if gens.shape[0] == 0:
        vals = np.tile(base, (stop - start, 1))
    else:
        vals = base[None, :] + digits @ gens
    return vals % moduli[None, :]


def _scan_numpy(base, gens, moduli, p, start, stop, chunk=1 << 15):
    """The two-table scan of [start, stop) (see the module docstring)."""
    if stop <= start:
        return np.empty(0, dtype=np.int64)
    a, width = 0, 1
    while 2 * a < gens.shape[0] and width * p <= chunk:
        a, width = a + 1, width * p
    lo_tab = affine_combinations(np.zeros_like(base), gens[:a], moduli, p, 0, width)
    first, last = start // width, -(-stop // width)
    # idx = hi * width + lo is a hit iff Lo[lo] == -B[hi] mod moduli
    need = -affine_combinations(base, gens[a:], moduli, p, first, last) % moduli
    rows = max(1, chunk // width)     # values of hi compared per numpy pass
    found = [np.empty(0, dtype=np.int64)]
    for h in range(0, last - first, rows):
        hit = (lo_tab[None] == need[h:h + rows, None]).all(axis=2)
        found.append(np.flatnonzero(hit) + (first + h) * width)
    hits = np.concatenate(found)
    return hits[(hits >= start) & (hits < stop)]


def scan_affine_zero(base: np.ndarray, gens: np.ndarray, moduli: np.ndarray,
                     p: int, start: int, stop: int,
                     chunk: int = 1 << 15) -> np.ndarray:
    """Indices idx in [start, stop) whose base-p digits gamma satisfy
    (base + sum_s gamma_s * gens[s]) % moduli == 0 componentwise, ascending."""
    base = np.ascontiguousarray(base, dtype=np.int64)
    if base.shape[0] == 0:
        # zero-length equation: everything is a solution
        return np.arange(start, stop, dtype=np.int64)
    gens = np.ascontiguousarray(gens, dtype=np.int64).reshape(-1, base.shape[0])
    moduli = np.ascontiguousarray(moduli, dtype=np.int64)
    if not USING_NUMBA:
        return _scan_numpy(base, gens, moduli, p, start, stop, chunk)
    found: list[np.ndarray] = []
    for lo in range(start, stop, chunk):
        hi = min(lo + chunk, stop)
        out = np.empty(hi - lo, dtype=np.int64)
        cnt = _scan_impl(base, gens, moduli, p, lo, hi, out)
        found.append(out[:cnt].copy())
    if not found:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(found)
