"""Exact linear algebra over F_p: reduction, solving, and the affine scan."""

import numpy as np
import pytest

from sqzlift import gf


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


def test_scan_chunking_is_seamless():
    p = 2
    rng = np.random.default_rng(5)
    base = rng.integers(0, p, size=3).astype(np.int64)
    gens = rng.integers(0, p, size=(10, 3)).astype(np.int64)
    moduli = np.full(3, p, dtype=np.int64)
    whole = gf.scan_affine_zero(base, gens, moduli, p, 0, 1 << 10)
    small = gf.scan_affine_zero(base, gens, moduli, p, 0, 1 << 10, chunk=37)
    assert np.array_equal(whole, small)


def test_numba_and_numpy_scans_agree():
    # the numba kernel's body runs compiled when numba is present and as
    # plain Python otherwise, so the two scan implementations are compared
    # either way
    p = 3
    rng = np.random.default_rng(11)
    base = rng.integers(0, p, size=4).astype(np.int64)
    gens = rng.integers(0, p, size=(6, 4)).astype(np.int64)
    moduli = np.full(4, p, dtype=np.int64)
    ref = gf._scan_numpy(base, gens, moduli, p, 0, p ** 6)
    out = np.empty(p ** 6, dtype=np.int64)
    cnt = gf._scan_impl(base, gens, moduli, p, 0, p ** 6, out)
    assert np.array_equal(out[:cnt], ref)
    assert np.array_equal(gf.scan_affine_zero(base, gens, moduli, p, 0, p ** 6), ref)


def test_numba_backend_runs_compiled_kernels():
    if not gf.USING_NUMBA:
        pytest.skip("numba is not installed: only the uncompiled kernels are exercised")
    assert hasattr(gf._scan_impl, "py_func") and hasattr(gf._rref_impl, "py_func")
