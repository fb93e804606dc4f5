"""The constructive strictification pipeline and homotopy-category lifting."""

import numpy as np
import pytest

from sqzlift import crude, obstruction
from sqzlift.algebra import AlgMatrix, mk_algebra
from sqzlift.cohomology import CohClass
from sqzlift.complexes import (
    Complex,
    GradedMap,
    GradedObject,
    coefficient_orders,
    compose,
    delta,
    identity_map,
    map_reduce,
    zero_map,
)
from sqzlift.crude import (
    classify_homotopy_lifts,
    classify_homotopy_map_lifts,
    crude_lift,
    h_minus1_guard,
)
from sqzlift.errors import CapExceeded, InternalObstruction, Obstructed, ValidationError
from sqzlift.finring import mk_tower
from sqzlift.obstruction import (
    DifferentialProblem,
    HomotopyProblem,
    LiftReport,
    MapProblem,
    classify_lifts,
    lift_differential,
)
from sqzlift.oracle import oracle_differential, witness_differential

from conftest import build_equiv, enumerate_graded_maps


def _run_and_verify(E, dbar_D):
    da = E.defalg
    res = crude_lift(E, dbar_D, collect_trace=True)
    one_C = identity_map(da.bar, E.C.ob)
    one_D = identity_map(da.bar, E.D.ob)
    assert compose(res.d_C, res.d_C).is_zero()
    assert delta(res.f, res.d_C, dbar_D).is_zero()
    assert delta(res.g, dbar_D, res.d_C).is_zero()
    assert delta(res.H, res.d_C, res.d_C) == one_C - compose(res.g, res.f)
    assert delta(res.K, dbar_D, dbar_D) == one_D - compose(res.f, res.g)
    # each output reduces to its input (K to the repaired mid homotopy)
    assert map_reduce(da, res.d_C, "bar", "mid") == E.C.d
    assert map_reduce(da, res.f, "bar", "mid") == E.f
    assert map_reduce(da, res.g, "bar", "mid") == E.g
    assert map_reduce(da, res.H, "bar", "mid") == E.H
    assert map_reduce(da, res.K, "bar", "mid") == res.K_mid_repaired
    assert [t["stage"] for t in res.trace] == \
        ["mid-repair", "i", "ii", "iii", "v", "post"]
    return res


def test_pipeline_on_z4_zero_complex(z4):
    obC = GradedObject.of({0: 1, 1: 1})
    E, dbar_D = build_equiv(z4, obC, zero_map(z4.mid, obC, obC, 1), 0)
    _run_and_verify(E, dbar_D)


def test_pipeline_with_perturbed_target_differential(z4):
    obC = GradedObject.of({0: 1, 1: 1})
    E, dbar_D = build_equiv(z4, obC, zero_map(z4.mid, obC, obC, 1), 0)
    # replace dbar_D by a different lift of d_D, if one exists
    dp = DifferentialProblem(z4, E.D.ob, E.D.d)
    cl = classify_lifts(dp)
    for alt in cl.reps:
        if alt != dbar_D:
            _run_and_verify(E, alt)
            return
    pytest.skip("no alternative lift to perturb with")


def test_pipeline_odd_characteristic(t3):
    obC = GradedObject.of({-1: 1, 0: 1, 1: 1})
    mid = t3.mid
    # nilpotent-scalar differential: d = t * 1 in one slot, square zero at mid
    tvec = np.zeros((1, 1, 1, 2), dtype=np.int64)
    tvec[0, 0, 0, 1] = 1
    dC = GradedMap(mid, obC, obC, 1, {-1: AlgMatrix(mid, tvec)})
    assert compose(dC, dC).is_zero()
    E, dbar_D = build_equiv(t3, obC, dC, 0)
    _run_and_verify(E, dbar_D)


@pytest.mark.parametrize("call, kind", [(0, MapProblem), (1, HomotopyProblem),
                                        (2, HomotopyProblem)])
def test_an_obstructed_correction_is_an_internal_obstruction(z4, monkeypatch, call, kind):
    """The pipeline lifts f (stage (ii)), then H and K (stage (v)); if the
    core reports a nonzero class for one of them, an invariant of the
    pipeline is broken, which must not look like an obstruction."""
    obC = GradedObject.of({0: 1, 1: 1})
    E, dbar_D = build_equiv(z4, obC, zero_map(z4.mid, obC, obC, 1), 0)
    calls = []

    def lift(prob):
        rep = obstruction.lift(prob)
        calls.append(type(prob))
        if len(calls) - 1 != call:
            return rep
        return LiftReport(CohClass(rep.obstruction.n, (1,) * len(rep.obstruction.rep)),
                          True, None)

    monkeypatch.setattr(crude, "lift", lift)
    with pytest.raises(InternalObstruction) as err:
        crude_lift(E, dbar_D)
    assert not isinstance(err.value, (Obstructed, ValidationError))
    assert calls[call] is kind and len(calls) == call + 1


def test_strictified_differential_is_an_oracle_witness(z4):
    obC = GradedObject.of({0: 1, 1: 1})
    E, dbar_D = build_equiv(z4, obC, zero_map(z4.mid, obC, obC, 1), 0)
    res = crude_lift(E, dbar_D)
    prob = DifferentialProblem(z4, obC, E.C.d)
    ora = oracle_differential(prob)
    witnesses = [witness_differential(prob, int(i)).comps
                 for i in ora.witness_indices]
    assert res.d_C.comps.keys() <= {i for w in witnesses for i in w} | set(obC.support)
    found = any(witness_differential(prob, int(i)) == res.d_C
                for i in ora.witness_indices)
    assert found


def test_classify_homotopy_matches_strict_classification(z4):
    ob = GradedObject.of({0: 1, 1: 1, 2: 1})
    prob = DifferentialProblem(z4, ob, zero_map(z4.mid, ob, ob, 1))
    rep, cl = classify_homotopy_lifts(prob)
    strict = classify_lifts(prob)
    assert not rep.obstructed
    assert cl.count == strict.count
    assert [c.rep for c in cl.class_reps] == [c.rep for c in strict.class_reps]


def test_h_minus1_guard_two_term_zero_complex(z4):
    # Hom^{-1}(C, C) has a cocycle that is not a boundary when d = 0
    ob = GradedObject.of({0: 1, 1: 1})
    dbar = classify_lifts(
        DifferentialProblem(z4, ob, zero_map(z4.mid, ob, ob, 1))).reps[0]
    C = Complex(z4.bar, ob, dbar)
    assert h_minus1_guard(z4, C, C) == "nonzero"


def test_h_minus1_guard_one_term_complex(z4):
    ob = GradedObject.of({0: 1})
    dbar = zero_map(z4.bar, ob, ob, 1)
    C = Complex(z4.bar, ob, dbar)
    assert h_minus1_guard(z4, C, C) == "zero"


def _reference_guard(defalg, C, D, cap):
    """H^{-1} by comparing the set of degree -1 cocycles with the set of
    deltas of degree -2 maps, one GradedMap per map."""
    mid = defalg.mid
    dC = map_reduce(defalg, C.d, "bar", "mid")
    dD = map_reduce(defalg, D.d, "bar", "mid")
    try:
        cocycles = {z.coef.tobytes()
                    for z in enumerate_graded_maps(mid, C.ob, D.ob, -1, cap)
                    if delta(z, dC, dD).is_zero()}
        image = {delta(w, dC, dD).coef.tobytes()
                 for w in enumerate_graded_maps(mid, C.ob, D.ob, -2, cap)}
    except CapExceeded:
        return "undecided"
    return "zero" if cocycles == image else "nonzero"


@pytest.mark.parametrize("kind, p, params", [
    ("zmod", 2, {"a": 3, "b": 2}),          # mid Z/4: coordinates of order 4
    ("trunc_poly", 3, {"a": 3, "b": 2}),    # mid F_3[t]/t^2
    ("square_zero", 3, {"r": 2}),           # mid F_3
])
def test_h_minus1_guard_matches_the_set_comparison(kind, p, params):
    defalg = mk_algebra(mk_tower(kind, p, **params), "trivial")
    bar = defalg.bar
    one = bar.ring.one_vec()
    nil = (p * one) % bar.ring.orders if bar.ring.m == 1 else np.eye(bar.ring.m)[1]

    def complex_(ranks, comps):
        ob = GradedObject.of(dict(enumerate(ranks)))
        return Complex(bar, ob, GradedMap(bar, ob, ob, 1, {
            i: AlgMatrix(bar, np.asarray(v, dtype=np.int64).reshape(
                ob.rank(i + 1), ob.rank(i), 1, bar.ring.m)) for i, v in comps.items()}))

    two = [complex_((1, 1), {0: c}) for c in (0 * one, one, nil)]
    pairs = [(C, C) for C in two] + [
        (two[2], complex_((1, 2), {0: [nil, one]})),
        (complex_((1, 1, 1), {0: one}), complex_((1, 1, 1), {0: one})),
        (complex_((1, 1, 1), {0: one}), two[0])]
    verdicts = []
    for C, D in pairs:
        verdict = h_minus1_guard(defalg, C, D)
        assert verdict == _reference_guard(defalg, C, D, 1 << 20)
        verdicts.append(verdict)
        count = max(int(np.prod(coefficient_orders(defalg.mid, C.ob, D.ob, n)))
                    for n in (-1, -2))
        assert h_minus1_guard(defalg, C, D, cap=count) == verdict
        assert _reference_guard(defalg, C, D, count) == verdict
        assert h_minus1_guard(defalg, C, D, cap=count - 1) == "undecided"
        assert _reference_guard(defalg, C, D, count - 1) == "undecided"
    assert set(verdicts) == {"zero", "nonzero"}


def test_classify_homotopy_map_lifts_guard_and_torsor(z4):
    ob1 = GradedObject.of({0: 1})
    dbar1 = zero_map(z4.bar, ob1, ob1, 1)
    C = Complex(z4.bar, ob1, dbar1)
    one_mid = identity_map(z4.mid, ob1)
    prob = MapProblem(z4, C, C, one_mid)
    hm = classify_homotopy_map_lifts(prob)
    assert not hm.obstructed
    assert hm.guard == "zero"
    assert hm.torsor_guaranteed
    assert hm.classification is not None
    assert hm.classification.count == 2 ** prob.kernel.h_dim(0)


def test_realignment_from_homotopic_lift(z4):
    """Supplying a lift of a homotopic map g realigns the lift of f."""
    ob = GradedObject.of({0: 1, 1: 1})
    dp = DifferentialProblem(z4, ob, zero_map(z4.mid, ob, ob, 1))
    dbar = classify_lifts(dp).reps[0]
    C = Complex(z4.bar, ob, dbar)
    rng = np.random.default_rng(0)
    hbar = GradedMap(z4.bar, ob, ob, -1,
                     {1: AlgMatrix(z4.bar, rng.integers(0, 4, (1, 1, 1, 1)))})
    f_bar = identity_map(z4.bar, ob)
    g_bar = f_bar + delta(hbar, C.d, C.d)
    f_mid = map_reduce(z4, f_bar, "bar", "mid")
    H_mid = map_reduce(z4, hbar, "bar", "mid")
    prob = MapProblem(z4, C, C, f_mid)
    hm = classify_homotopy_map_lifts(prob, g_bar=g_bar, H_mid=H_mid)
    assert not hm.obstructed
    assert hm.realigned
    assert hm.lifted is not None and hm.homotopy is not None
    # the realigned lift is homotopic to g_bar through the returned homotopy
    assert delta(hm.homotopy, C.d, C.d) == g_bar - hm.lifted
