"""Exact linear algebra mod a prime, plus the batched candidate scan.

All arithmetic is int64 numpy and exact, with no floating point.  `rref` is
one numpy routine vectorised over rows at each pivot: it takes the leftmost
column with a nonzero entry at or below the current row, the topmost such
row as the pivot, and clears every other row in one array update.  The
reduced form has its i-th pivot in row i and unit vectors in the pivot
columns; `solve`, `nullspace` and `reduce_mod_rowspace` read their answers
straight from that invariant.

The scan is a meet-in-the-middle join on two tables (Horowitz and Sahni,
JACM 1974).  A candidate index splits as idx = hi * p^a + lo with
a = ceil(k/2), so its residual is Lo[lo] + B[hi] mod the moduli, where
Lo = digits(lo) @ gens[:a] and B = base + digits(hi) @ gens[a:] are built
once per call, one generator at a time by p-fold broadcasting, about
sqrt(p^k) rows each.  The candidate is a hit exactly
when Lo[lo] == -B[hi].  Equal rows get equal integer labels (`_row_labels`),
and each -B[hi] row is matched to the Lo rows with its label through one
stable sort of the Lo labels, so no candidate is compared: the work is
O((p^a + p^(k-a)) L) plus the number of hits.

Every brute-force enumeration in the package runs over the digits of
[0, radix^n) in one of two forms: blocks of `digits` (the deformation
functors in defun.py), or `scan_affine_zero` when the tested equation is
affine in the digits.  `count_candidates` checks the count against the cap
before anything is enumerated.
"""

from __future__ import annotations

import numpy as np

from .errors import CapExceeded

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
    "DEFAULT_CAP",
    "count_candidates",
    "digits",
    "digit_matrix",
]

# There is one numpy path; liftbench/run.py reads this to name the backend.
USING_NUMBA = False


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int], int]:
    """Reduced row echelon form of `a` mod p: (rref, pivot columns, rank)."""
    a = np.asarray(a, dtype=np.int64)
    if a.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    a = a % p
    m, n = a.shape
    pivots: list[int] = []
    for j in range(n):
        r = len(pivots)
        if r == m:
            break
        below = a[r:, j].nonzero()[0]
        if not len(below):
            continue
        k = r + below[0]
        if k != r:
            a[[r, k]] = a[[k, r]]
        # row r is zero left of column j, so only columns j: change
        a[r, j:] = a[r, j:] * pow(int(a[r, j]), -1, p) % p
        rows = a[:, j].nonzero()[0]
        if len(rows) > 1:
            rows = rows[rows != r]
            a[rows, j:] = (a[rows, j:] - a[rows, j, None] * a[r, j:]) % p
        pivots.append(j)
    return a, pivots, len(pivots)


def rank(a: np.ndarray, p: int) -> int:
    return rref(a, p)[2]


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray | None:
    """A particular solution x of a @ x = b mod p, or None.

    The returned solution is the canonical one with zero free variables.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    m, n = a.shape
    if b.shape != (m,):
        raise ValueError("rhs shape mismatch")
    red, pivots, r = rref(np.concatenate([a, b.reshape(m, 1)], axis=1), p)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.int64)
    x[pivots] = red[:r, n]
    return x


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis of the right nullspace mod p, one vector per row (canonical)."""
    red, pivots, r = rref(a, p)
    n = red.shape[1]
    free = np.setdiff1d(np.arange(n), np.asarray(pivots, dtype=np.int64))
    basis = np.zeros((len(free), n), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -red[:r, free].T % p
    return basis


def row_space(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Nonzero rows of the rref of `a`, with their pivot columns."""
    red, pivots, r = rref(a, p)
    return red[:r], pivots


def reduce_mod_rowspace(v: np.ndarray, red: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Canonical representative of v modulo the row space (red in rref, one
    row per pivot), for one vector or for each row of a 2-d stack.

    The pivot columns of `red` are unit vectors, so subtracting v[pivots] @ red
    clears v's pivot entries.
    """
    v = np.asarray(v, dtype=np.int64)
    return (v - v[..., pivots] @ red) % p


# the enumeration cap that every cap= argument defaults to
DEFAULT_CAP = 1 << 20


def count_candidates(radix: int, ndigits: int, cap: int, what: str) -> int:
    """radix ** ndigits, the number of digit tuples to enumerate; CapExceeded
    if that exceeds the cap.  The message names a count too long to print in
    decimal (Python refuses ints of more than 4300 digits) as radix^ndigits."""
    total = radix ** ndigits
    if total > cap:
        try:
            count = str(total)
        except ValueError:
            count = f"{radix}^{ndigits}"
        raise CapExceeded(f"{count} {what} exceed the cap {cap}")
    return total


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
    """(stop-start, L) array of (base + digits @ gens) % moduli, in index order.

    The table of the first s generators becomes that of s + 1 by p-fold
    broadcasting, T_{s+1}[c p^s + i] = T_s[i] + c gens[s], so no digit is
    decoded, and is reduced mod the moduli once at the end.  The whole table
    of p^n rows is built and [start, stop) cut from it: the scan asks for
    whole tables, and a part of one costs no more than the scan's other table.
    """
    table = base[None, :]
    for g in np.asarray(gens) % moduli:
        table = (table + np.arange(p)[:, None, None] * g).reshape(p * len(table), len(moduli))
    return table[start:stop] % moduli


def _row_keys(rows: np.ndarray, moduli: np.ndarray
              ) -> tuple[np.ndarray, list[tuple[int, np.ndarray, np.ndarray | None]]]:
    """Exact int64 keys of the rows of `rows` (entries in [0, moduli)), equal
    exactly for equal rows, and the folds that `_keys_like` keys other rows
    by.

    Columns are folded into int64 mixed-radix keys over `moduli`, as many at a
    time as keep label * span + key below 2^63, each fold's value by one
    matmul.  The keys of every fold but the last are re-labelled in [0, n)
    by one np.unique before the next fold, so labels never exceed the row
    count.  A fold is kept as its first column, its place values and its
    sorted distinct keys (None for the last fold).
    """
    keys, folds, count, j, ncols = None, [], 1, 0, rows.shape[1]
    while True:
        j0, span = j, count
        while j < ncols and span * int(moduli[j]) <= 1 << 63:   # keys fit in int64
            span *= int(moduli[j])
            j += 1
        # prod(moduli[k:j]) for k = j0, ..., j: what a label, then each column,
        # is worth; the first wraps at 2^63 only when it goes unused (count 1)
        place = np.append(np.cumprod(moduli[j0:j][::-1])[::-1], 1)
        keys = _fold_keys(rows, keys, count, j0, place)
        if j == ncols:
            folds.append((j0, place, None))
            return keys, folds
        uniq, keys = np.unique(keys, return_inverse=True)
        folds.append((j0, place, uniq))
        count = len(uniq)


def _fold_keys(rows: np.ndarray, labels: np.ndarray | None, count: int, j0: int,
               place: np.ndarray) -> np.ndarray:
    """label * place[0] plus the mixed-radix value of the fold's columns,
    for labels in [0, count)."""
    keys = rows[:, j0:j0 + len(place) - 1] @ place[1:]
    if count > 1:   # labels are all 0 otherwise
        keys += labels * place[0]
    return keys


def _keys_like(rows: np.ndarray,
               folds: list[tuple[int, np.ndarray, np.ndarray | None]]) -> np.ndarray:
    """The keys that `_row_keys` gave, with these folds, to the rows equal to
    these; a row equal to none may share a key with another row, so a caller
    that needs to know compares the rows themselves.  One matmul per fold and
    one searchsorted per fold but the last."""
    keys, count = None, 1
    for j0, place, uniq in folds:
        keys = _fold_keys(rows, keys, count, j0, place)
        if uniq is not None:
            keys, count = np.minimum(np.searchsorted(uniq, keys), len(uniq) - 1), len(uniq)
    return keys


def _row_labels(rows: np.ndarray, moduli: np.ndarray) -> tuple[np.ndarray, int]:
    """Labels in [0, n) of the rows of `rows` (entries in [0, moduli)), equal
    exactly for equal rows, and the number n of distinct rows: the keys of
    `_row_keys`, re-labelled by one np.unique."""
    uniq, labels = np.unique(_row_keys(rows, moduli)[0], return_inverse=True)
    return labels, len(uniq)


def scan_affine_zero(base: np.ndarray, gens: np.ndarray, moduli: np.ndarray,
                     p: int, start: int, stop: int) -> np.ndarray:
    """Indices idx in [start, stop) whose base-p digits gamma satisfy
    (base + sum_s gamma_s * gens[s]) % moduli == 0 componentwise, ascending.

    This is the two-table join of the module docstring.
    """
    base = np.asarray(base, dtype=np.int64)
    if base.shape[0] == 0:
        # zero-length equation: everything is a solution
        return np.arange(start, stop, dtype=np.int64)
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, base.shape[0])
    moduli = np.asarray(moduli, dtype=np.int64)
    if stop <= start:
        return np.empty(0, dtype=np.int64)
    a = -(-gens.shape[0] // 2)
    width = p ** a
    lo_tab = affine_combinations(np.zeros_like(base), gens[:a], moduli, p, 0, width)
    first, last = start // width, -(-stop // width)
    # idx = hi * width + lo is a hit iff Lo[lo] == -B[hi] mod moduli
    need = affine_combinations(-base % moduli, -gens[a:] % moduli, moduli, p, first, last)
    labels, count = _row_labels(np.concatenate([lo_tab, need]), moduli)
    lo_labels, need_labels = labels[:width], labels[width:]
    by_label = np.argsort(lo_labels, kind="stable")   # each label's Lo indices, ascending
    counts = np.bincount(lo_labels, minlength=count)
    firsts = np.cumsum(counts) - counts      # where each label starts in by_label
    per_hi = counts[need_labels]
    offsets = np.cumsum(per_hi) - per_hi     # where each hi's hits start in the output
    pos = np.arange(per_hi.sum()) + np.repeat(firsts[need_labels] - offsets, per_hi)
    hits = np.repeat(np.arange(first, last, dtype=np.int64) * width, per_hi) + by_label[pos]
    return hits[(hits >= start) & (hits < stop)]
