"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from sqzlift.algebra import AlgMatrix, mk_algebra
from sqzlift.complexes import (
    Complex,
    GradedMap,
    GradedObject,
    coefficient_count,
    coefficient_orders,
    compose,
    delta,
    map_lift,
    reduce_coefficients,
)
from sqzlift.errors import CapExceeded, ShapeMismatch
from sqzlift.finring import mk_tower


def mid_matrix(defalg, entries):
    """AlgMatrix at the mid level from a nested list of coefficient vectors."""
    return AlgMatrix(defalg.mid, np.asarray(entries, dtype=np.int64))


def scalar_mid(defalg, rows):
    """Rank-1 algebra convenience: matrix from a list of lists of ring vectors."""
    arr = np.asarray(rows, dtype=np.int64)
    return AlgMatrix(defalg.mid, arr[:, :, None, :])


def from_coefficients(alg, src, tgt, n, vec):
    """The degree-n map src -> tgt over alg with coefficient vector vec,
    reduced; ShapeMismatch unless vec has one coefficient per position."""
    vec = np.asarray(vec, dtype=np.int64)
    ncoef = coefficient_count(alg, src, tgt, n)
    if vec.shape != (ncoef,):
        raise ShapeMismatch(f"expected {ncoef} coefficients, got shape {vec.shape}")
    return GradedMap.wrap(alg, src, tgt, n, reduce_coefficients(alg, vec))


def enumerate_graded_maps(alg, obC, obD, n, cap):
    """Reference enumeration: yield every degree-n graded map over `alg`, one
    GradedMap per map, in lexicographic order of its coefficients.

    Raises CapExceeded before yielding anything if the count exceeds cap.
    """
    entries = sum(obD.rank(i + n) * obC.rank(i) for i in obC.support)
    total = alg.ring.cardinality ** (entries * alg.k)
    if total > cap:
        raise CapExceeded(f"{total} graded maps exceed the cap {cap}")
    support = sorted(i for i in obC.support if obD.rank(i + n) > 0)
    shapes = [(i, obD.rank(i + n), obC.rank(i)) for i in support]
    orders = np.tile(alg.ring.orders, entries * alg.k)
    for idx in range(total):
        digits = np.zeros(len(orders), dtype=np.int64)
        rem = idx
        for t in range(len(orders) - 1, -1, -1):
            digits[t] = rem % int(orders[t])
            rem //= int(orders[t])
        comps = {}
        pos = 0
        m = alg.ring.m
        for i, r, c in shapes:
            size = r * c * alg.k * m
            comps[i] = AlgMatrix(alg, digits[pos:pos + size].reshape(r, c, alg.k, m))
            pos += size
        yield GradedMap(alg, obC, obD, n, comps)


def delta_generators_reference(alg, dC, dD, n):
    """Reference for complexes.delta_generators: delta applied to one
    GradedMap per generator p^t e_q, t < e, in coefficient order."""
    src, tgt = dC.src, dD.src
    orders = coefficient_orders(alg, src, tgt, n)
    gens = []
    for q, order in enumerate(orders.tolist()):
        t = 1
        while t < order:
            gens.append((q, t))
            t *= alg.ring.p
    rows = np.zeros((len(gens), len(coefficient_orders(alg, src, tgt, n + 1))),
                    dtype=np.int64)
    for row, (q, t) in enumerate(gens):
        e = np.zeros(len(orders), dtype=np.int64)
        e[q] = t
        rows[row] = delta(from_coefficients(alg, src, tgt, n, e), dC, dD).coef
    return rows


@pytest.fixture(scope="session")
def z4():
    """Z/4 -> Z/2 -> F_2 with the trivial rank-1 algebra."""
    return mk_algebra(mk_tower("zmod", 2, a=2, b=1), "trivial")


@pytest.fixture(scope="session")
def eps2():
    """F_2[t]/t^2 -> F_2 -> F_2 with the trivial rank-1 algebra."""
    return mk_algebra(mk_tower("trunc_poly", 2, a=2, b=1), "trivial")


@pytest.fixture(scope="session")
def t3():
    """F_3[t]/t^3 -> F_3[t]/t^2 -> F_3 with the trivial rank-1 algebra."""
    return mk_algebra(mk_tower("trunc_poly", 3, a=3, b=2), "trivial")


def build_equiv(defalg, obC, dC_mid, contr_deg):
    """A homotopy equivalence C -> D = C + (contractible two-term identity).

    D adds a rank-1 contractible summand in degrees contr_deg, contr_deg + 1;
    f is the inclusion, g the projection, H = 0, and K the identity on the
    contractible summand placed in degree contr_deg + 1.
    """
    from sqzlift.crude import HomotopyEquivData

    mid = defalg.mid
    k = defalg.k
    extra = GradedObject.of({contr_deg: 1, contr_deg + 1: 1})
    obD = GradedObject.of({d: obC.rank(d) + extra.rank(d)
                           for d in {*obC.support, *extra.support}})

    def unit():
        return mid.unit.copy()

    # D's differential: C's blocks in the leading corner, identity on the tail
    dD_comps = {}
    for i in set(obC.support) | {contr_deg}:
        r, c = obD.rank(i + 1), obD.rank(i)
        if r == 0 or c == 0:
            continue
        data = np.zeros((r, c, k, mid.ring.m), dtype=np.int64)
        blk = dC_mid.blocks().get(i)
        if blk is not None:
            data[:blk.shape[1], :blk.shape[2]] = blk[0]
        if i == contr_deg:
            data[r - 1, c - 1] = unit()
        dD_comps[i] = AlgMatrix(mid, data)
    dD = GradedMap(mid, obD, obD, 1, dD_comps)

    f_comps, g_comps = {}, {}
    for i in obC.support:
        rC = obC.rank(i)
        rD = obD.rank(i)
        inc = np.zeros((rD, rC, k, mid.ring.m), dtype=np.int64)
        for a in range(rC):
            inc[a, a] = unit()
        f_comps[i] = AlgMatrix(mid, inc)
        proj = np.zeros((rC, rD, k, mid.ring.m), dtype=np.int64)
        for a in range(rC):
            proj[a, a] = unit()
        g_comps[i] = AlgMatrix(mid, proj)
    f = GradedMap(mid, obC, obD, 0, f_comps)
    g = GradedMap(mid, obD, obC, 0, g_comps)

    H = GradedMap(mid, obC, obC, -1, {})
    kdatr = obD.rank(contr_deg + 1)
    kdatc = obD.rank(contr_deg + 1)
    kdat = np.zeros((obD.rank(contr_deg), kdatc, k, mid.ring.m), dtype=np.int64)
    kdat[obD.rank(contr_deg) - 1, kdatc - 1] = unit()
    K = GradedMap(mid, obD, obD, -1, {contr_deg + 1: AlgMatrix(mid, kdat)})

    C = Complex(mid, obC, dC_mid)
    D = Complex(mid, obD, dD)
    E = HomotopyEquivData(defalg, C, D, f, g, H, K)
    dbar_D = map_lift(defalg, dD)
    if not compose(dbar_D, dbar_D).is_zero():
        from sqzlift.obstruction import DifferentialProblem, lift_differential
        rep = lift_differential(DifferentialProblem(defalg, obD, dD))
        assert not rep.obstructed, "test construction needs a liftable D"
        dbar_D = rep.lifted
    return E, dbar_D
