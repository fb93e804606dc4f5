"""Exact linear algebra over F_p: reduction, solving, and the affine scan."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzlift import gf
from sqzlift.errors import CapExceeded

# ---------------------------------------------------------------------------
# reference kernels: plain loops, compared against the numpy routines
# ---------------------------------------------------------------------------


def _rref_body(a, p):
    """In-place reduced row echelon form mod p of a matrix reduced mod p.

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
        inv = pow(int(a[r, j]), -1, p)
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


def _reference_rref(a, p):
    a = np.asarray(a, dtype=np.int64) % p
    piv, r = _rref_body(a, p)
    return a, [j for j in range(a.shape[1]) if piv[j] >= 0], r


def _nullspace_per_pivot(a, p):
    red, pivots, _ = _reference_rref(a, p)
    n = red.shape[1]
    free = [j for j in range(n) if j not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for bi, j in enumerate(free):
        basis[bi, j] = 1
        for pj in pivots:
            row = np.flatnonzero(red[:, pj])[0]
            basis[bi, pj] = (-red[row, j]) % p
    return basis


def _reduce_per_pivot(v, red, pivots, p):
    out = np.asarray(v, dtype=np.int64) % p
    for i, j in enumerate(pivots):
        c = out[j] % p
        if c:
            out = (out - c * red[i]) % p
    return out


def _greedy_rank_basis(rows, p):
    """Indices of the rows that raise the rank of the rows kept before them."""
    keep, current = [], np.zeros((0, rows.shape[1]), dtype=np.int64)
    for i, v in enumerate(rows):
        if not (v % p).any():
            continue
        cand = np.vstack([current, v[None, :]])
        if gf.rank(cand, p) > len(keep):
            keep.append(i)
            current = cand
    return keep


PRIMES = st.sampled_from([2, 3, 5, 7])


@st.composite
def matrices(draw, max_rows=8, max_cols=8):
    """(A, p): any shape up to the bounds, empty ones included, entries of
    either sign, and about half of them of low rank."""
    p = draw(PRIMES)
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(0, max_cols))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    if m and n and draw(st.booleans()):
        k = draw(st.integers(0, min(m, n)))
        a = rng.integers(-p, p, size=(m, k)) @ rng.integers(-p, p, size=(k, n))
    else:
        a = rng.integers(-20, 20, size=(m, n))
    return a.astype(np.int64), p


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


@PROPERTY
@given(matrices(), st.sampled_from(["any", "row", "col"]))
def test_rref_matches_the_reference_kernel(case, shape):
    a, p = case
    if shape == "row":
        a = a[:1]
    elif shape == "col":
        a = a[:, :1]
    before = a.copy()
    red, pivots, r = gf.rref(a, p)
    ref, ref_pivots, ref_r = _reference_rref(a, p)
    assert red.dtype == np.int64 and red.shape == a.shape
    assert np.array_equal(red, ref)
    assert pivots == ref_pivots and all(type(j) is int for j in pivots)
    assert r == ref_r == len(pivots)
    assert np.array_equal(a, before)   # the input is never written


@PROPERTY
@given(matrices(max_cols=4), st.integers(0, 2 ** 32 - 1), st.booleans())
def test_solve_is_none_exactly_off_the_column_space(case, seed, consistent):
    a, p = case
    m, n = a.shape
    rng = np.random.default_rng(seed)
    b = (a @ rng.integers(0, p, size=n) if consistent
         else rng.integers(-p, p, size=m)).astype(np.int64)
    # every x in F_p^n, so membership is decided without row reduction
    xs = np.array(list(itertools.product(range(p), repeat=n)),
                  dtype=np.int64).reshape(p ** n, n)
    reachable = (((xs @ a.T - b) % p) == 0).all(axis=1).any()
    x = gf.solve(a, b, p)
    if not reachable:
        assert x is None
        return
    assert x is not None and x.dtype == np.int64 and x.shape == (n,)
    assert not ((a @ x - b) % p).any()
    _, pivots, _ = _reference_rref(a, p)
    free = [j for j in range(n) if j not in pivots]
    assert not x[free].any()
    assert ((0 <= x) & (x < p)).all()


@PROPERTY
@given(matrices())
def test_nullspace_matches_the_per_pivot_construction(case):
    a, p = case
    basis = gf.nullspace(a, p)
    assert basis.dtype == np.int64
    assert np.array_equal(basis, _nullspace_per_pivot(a, p))
    assert not ((a @ basis.T) % p).any()


@PROPERTY
@given(matrices(), st.integers(0, 5), st.integers(0, 2 ** 32 - 1))
def test_batched_reduction_matches_a_row_by_row_loop(case, k, seed):
    a, p = case
    red, pivots = gf.row_space(a, p)
    rng = np.random.default_rng(seed)
    vs = rng.integers(-3 * p, 3 * p, size=(k, a.shape[1])).astype(np.int64)
    got = gf.reduce_mod_rowspace(vs, red, pivots, p)
    rows = [_reduce_per_pivot(v, red, pivots, p) for v in vs]
    assert got.dtype == np.int64 and got.shape == vs.shape
    assert np.array_equal(got, np.array(rows, dtype=np.int64).reshape(vs.shape))
    for v, row in zip(vs, got):
        assert np.array_equal(gf.reduce_mod_rowspace(v, red, pivots, p), row)


@PROPERTY
@given(matrices())
def test_pivot_columns_of_the_transpose_are_the_greedy_basis(case):
    rows, p = case
    _, keep, _ = gf.rref(rows.T, p)
    assert keep == _greedy_rank_basis(rows, p)


def _rand(rng, r, c, p):
    return rng.integers(0, p, size=(r, c)).astype(np.int64)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rref_is_reduced_and_rank_consistent(p):
    rng = np.random.default_rng(p)
    for _ in range(25):
        A = _rand(rng, rng.integers(1, 7), rng.integers(1, 7), p)
        R, pivots, r = gf.rref(A, p)
        assert r == len(pivots) == gf.rank(A, p)
        for k, col in enumerate(pivots):
            assert R[k, col] == 1
            others = np.delete(R[:, col], k)
            assert not others.any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_and_nullspace(p):
    rng = np.random.default_rng(100 + p)
    for _ in range(40):
        A = _rand(rng, rng.integers(1, 6), rng.integers(1, 6), p)
        x_true = rng.integers(0, p, size=A.shape[1]).astype(np.int64)
        b = (A @ x_true) % p
        x = gf.solve(A, b, p)
        assert x is not None
        assert not ((A @ x - b) % p).any()
        for z in gf.nullspace(A, p):
            assert not ((A @ z) % p).any()
        # rank-nullity
        assert len(gf.nullspace(A, p)) == A.shape[1] - gf.rank(A, p)


def test_solve_reports_inconsistency():
    A = np.array([[1, 0], [1, 0]], dtype=np.int64)
    b = np.array([0, 1], dtype=np.int64)
    assert gf.solve(A, b, 2) is None


@pytest.mark.parametrize("p", [2, 3])
def test_reduce_mod_rowspace_is_canonical(p):
    rng = np.random.default_rng(7 * p)
    A = _rand(rng, 4, 6, p)
    red, pivots = gf.row_space(A, p)
    v = rng.integers(0, p, size=6).astype(np.int64)
    r1 = gf.reduce_mod_rowspace(v, red, pivots, p)
    # adding any row-space element does not change the representative
    comb = rng.integers(0, p, size=red.shape[0]).astype(np.int64)
    v2 = (v + comb @ red) % p
    r2 = gf.reduce_mod_rowspace(v2, red, pivots, p)
    assert np.array_equal(r1, r2)
    # the representative has zeros in all pivot columns
    for col in pivots:
        assert r1[col] == 0


@pytest.mark.parametrize("p", [2, 3])
def test_scan_affine_zero_matches_naive(p):
    rng = np.random.default_rng(13 * p)
    L, nvars = 5, 4
    base = rng.integers(0, p, size=L).astype(np.int64)
    gens = rng.integers(0, p, size=(nvars, L)).astype(np.int64)
    moduli = np.full(L, p, dtype=np.int64)
    total = p ** nvars
    hits = gf.scan_affine_zero(base, gens, moduli, p, 0, total)
    expected = []
    for idx in range(total):
        digits = []
        rem = idx
        for _ in range(nvars):
            digits.append(rem % p)
            rem //= p
        val = (base + np.asarray(digits) @ gens) % moduli
        if not val.any():
            expected.append(idx)
    assert hits.tolist() == expected


def test_scan_affine_zero_with_mixed_moduli():
    # residuals over Z/4 x Z/2 with F_2 digit coefficients
    base = np.array([2, 0], dtype=np.int64)
    gens = np.array([[2, 0], [0, 1]], dtype=np.int64)
    moduli = np.array([4, 2], dtype=np.int64)
    hits = gf.scan_affine_zero(base, gens, moduli, 2, 0, 4)
    # need digit0 * 2 = -2 mod 4 (digit0 = 1) and digit1 = 0
    assert hits.tolist() == [1]


def test_scan_zero_length_equation_accepts_everything():
    base = np.zeros(0, dtype=np.int64)
    gens = np.zeros((3, 0), dtype=np.int64)
    hits = gf.scan_affine_zero(base, gens, np.zeros(0, dtype=np.int64), 2, 0, 8)
    assert hits.tolist() == list(range(8))


def test_scan_of_a_subrange_is_the_whole_scan_cut_to_it():
    p = 2
    rng = np.random.default_rng(5)
    base = rng.integers(0, p, size=3).astype(np.int64)
    gens = rng.integers(0, p, size=(10, 3)).astype(np.int64)
    moduli = np.full(3, p, dtype=np.int64)
    whole = gf.scan_affine_zero(base, gens, moduli, p, 0, 1 << 10)
    for lo, hi in ((37, 1 << 10), (0, 999), (300, 301), (31, 33)):
        part = gf.scan_affine_zero(base, gens, moduli, p, lo, hi)
        assert np.array_equal(part, whole[(whole >= lo) & (whole < hi)]), (lo, hi)


def _python_scan(base, gens, moduli, p, start, stop):
    out = np.empty(max(stop - start, 0), dtype=np.int64)
    cnt = _scan_body(base, gens, moduli, p, start, stop, out)
    return out[:cnt]


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("trial", range(6))
def test_two_table_scan_matches_the_python_kernel(p, trial):
    # random ranges whose ends are not multiples of the table width, few
    # digits (one value of hi), and all-zero generators
    rng = np.random.default_rng(50 * p + trial)
    nvars = (0, 1, 2, 4, 6, 7)[trial]
    L = int(rng.integers(1, 4))
    total = p ** nvars
    base = rng.integers(0, p, size=L).astype(np.int64) * int(rng.random() < 0.6)
    gens = rng.integers(0, p, size=(nvars, L)).astype(np.int64)
    moduli = np.full(L, p, dtype=np.int64)
    start = int(rng.integers(0, total))
    stop = int(rng.integers(start, total + 1))
    for g in (gens, np.zeros_like(gens)):
        for lo, hi in ((0, total), (start, stop), (stop, start)):
            ref = _python_scan(base, g, moduli, p, lo, hi)
            got = gf.scan_affine_zero(base, g, moduli, p, lo, hi)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref), (lo, hi)


def _join_case(rng, p, k, moduli, rank, solvable):
    """base and gens over the moduli, the gens spanning `rank` seeded rows, so
    that dependent generators give equal table rows; base is in their span
    when `solvable`, so that the equation has solutions."""
    moduli = np.asarray(moduli, dtype=np.int64)
    rows = rng.integers(0, 1 << 20, size=(rank, len(moduli))) % moduli
    gens = rng.integers(0, p, size=(k, rank)) @ rows % moduli
    if solvable:
        base = rng.integers(0, p, size=rank) @ rows % moduli
    else:
        base = rng.integers(0, 1 << 20, size=len(moduli)) % moduli
    return base.astype(np.int64), gens.astype(np.int64), moduli


@pytest.mark.parametrize("p,k,moduli,rank", [
    (3, 5, [3] * 60, 3),              # 3^60 > 2^63: the labels take two groups
    (2, 7, [2] * 70, 4),              # odd k, 2^70 > 2^63
    (3, 0, [3, 9, 27] * 14, 0),       # k = 0: one table row on each side
    (2, 6, [2, 4, 8, 2] * 5, 3),      # mixed moduli p, p^2, p^3
    (3, 4, [9, 3, 27] * 8, 2),
    (5, 3, [5, 125] * 20, 2),         # 125^20 > 2^63 with mixed moduli
])
def test_scan_join_matches_the_python_kernel(p, k, moduli, rank):
    rng = np.random.default_rng(p * 100 + k)
    total = p ** k
    ranges = [(0, total), (1, total - 1), (total // 3, 2 * total // 3 + 1), (total - 1, total)]
    for solvable in (True, False):
        base, gens, mod = _join_case(rng, p, k, moduli, rank, solvable)
        for lo, hi in ranges:
            ref = _python_scan(base, gens, mod, p, lo, hi)
            got = gf.scan_affine_zero(base, gens, mod, p, lo, hi)
            assert got.dtype == np.int64
            assert np.array_equal(got, ref), (solvable, lo, hi)


@pytest.mark.parametrize("moduli", [[3] * 60, [5, 125] * 20, [2, 4, 8, 2] * 5, [7]])
def test_row_labels_are_exact(moduli):
    """Equal labels exactly for equal rows, over one fold or several (3^60
    and 625^20 exceed 2^63), and as many labels as distinct rows."""
    rng = np.random.default_rng(len(moduli))
    moduli = np.asarray(moduli, dtype=np.int64)
    rows = rng.integers(0, moduli, size=(150, len(moduli)))
    first, last = rows[::5].copy(), rows[::7].copy()
    first[:, 0] = (first[:, 0] + 1) % moduli[0]      # differ in the first column only
    last[:, -1] = (last[:, -1] + 1) % moduli[-1]     # or in the last
    rows = np.concatenate([rows, rows[::3], first, last])
    _, inv = np.unique(rows, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    labels, count = gf._row_labels(rows, moduli)
    assert count == inv.max() + 1
    assert np.array_equal(labels[:, None] == labels, inv[:, None] == inv)


def test_scan_join_tells_apart_rows_that_differ_only_in_the_first_column():
    # 2^70 > 2^64: a single int64 key over all 70 columns would wrap and
    # drop columns 0 to 5, and every candidate would look like a hit
    p, L = 2, 70
    gens = np.zeros((4, L), dtype=np.int64)
    gens[0, 0] = gens[3, 1] = 1
    moduli = np.full(L, p, dtype=np.int64)
    hits = gf.scan_affine_zero(np.zeros(L, dtype=np.int64), gens, moduli, p, 0, p ** 4)
    assert hits.tolist() == [0, 2, 4, 6]


def test_scan_join_with_dependent_low_generators_matches_several_lo():
    # gens[0] == gens[1] and gens[2] == 0: the low table repeats rows, and a
    # high row matches several low rows
    p = 3
    gens = np.array([[1, 2, 0, 1], [1, 2, 0, 1], [0, 0, 0, 0], [2, 0, 1, 1], [0, 1, 1, 0]],
                    dtype=np.int64)
    moduli = np.full(4, p, dtype=np.int64)
    base = np.array([2, 1, 0, 2], dtype=np.int64)   # -gens[0]: one solution is e_0
    for lo, hi in ((0, p ** 5), (4, 200), (26, 28)):
        ref = _python_scan(base, gens, moduli, p, lo, hi)
        got = gf.scan_affine_zero(base, gens, moduli, p, lo, hi)
        assert np.array_equal(got, ref), (lo, hi)
    hits = gf.scan_affine_zero(base, gens, moduli, p, 0, p ** 5)
    assert len(np.unique(hits // p ** 3)) < len(hits)


def test_scan_where_every_candidate_is_a_hit():
    p, k = 2, 9
    gens = np.zeros((k, 5), dtype=np.int64)
    gens[:, 1] = 4                      # zero mod 4
    moduli = np.array([2, 4, 2, 8, 2], dtype=np.int64)
    base = np.array([2, 0, 4, 8, 0], dtype=np.int64)
    for lo, hi in ((0, p ** k), (5, 300), (17, 18)):
        got = gf.scan_affine_zero(base, gens, moduli, p, lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == list(range(lo, hi))


def test_count_candidates_names_a_count_too_long_to_print_as_a_power():
    """A count with more decimal digits than Python will print (4300) is
    named p^n; shorter counts keep their decimal message."""
    assert gf.count_candidates(3, 5, 243, "candidates") == 243
    with pytest.raises(CapExceeded) as short:
        gf.count_candidates(2, 21, gf.DEFAULT_CAP, "graded maps")
    assert str(short.value) == "2097152 graded maps exceed the cap 1048576"
    with pytest.raises(CapExceeded) as at_limit:
        gf.count_candidates(10, 4299, 1, "candidates")   # 4300 digits: printed
    assert str(at_limit.value) == f"1{'0' * 4299} candidates exceed the cap 1"
    with pytest.raises(CapExceeded) as huge:
        gf.count_candidates(3, 320000, gf.DEFAULT_CAP, "cohomology classes")
    assert str(huge.value) == "3^320000 cohomology classes exceed the cap 1048576"
