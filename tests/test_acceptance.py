"""End-to-end acceptance battery.

Each test covers one acceptance criterion and prints a single pass line;
pinned numeric values and time budgets are asserted exactly.
"""

import itertools
import json
from time import perf_counter

import numpy as np
import pytest

from sqzlift.algebra import AlgMatrix, mk_algebra
from sqzlift.cli import main, save_doc
from sqzlift.complexes import (
    Complex,
    GradedMap,
    GradedObject,
    compose,
    delta,
    identity_map,
    map_reduce,
    zero_map,
)
from sqzlift.crude import classify_homotopy_lifts, crude_lift
from sqzlift.defun import (
    ArtinLocalRing,
    check_triple,
    extend_order,
    functor_eval,
    schlessinger_check,
    tangent_dim,
    trivial_base_algebra,
)
from sqzlift.finring import mk_tower, trunc_poly_ring, zmod_ring
from sqzlift.obstruction import (
    DifferentialProblem,
    HomotopyProblem,
    MapProblem,
    classify_connecting_isos,
    classify_lifts,
    obstruct_differential,
    obstruct_homotopy,
    obstruct_map,
    v_class,
)
from sqzlift.oracle import (
    gen_instance,
    oracle_differential,
    oracle_homotopy,
    oracle_map,
    witness_differential,
)

from conftest import build_equiv
from test_cli import _mf_doc, _z4_doc

OB3 = GradedObject.of({0: 1, 1: 1, 2: 1})


def _report(path_or_text):
    return json.loads(open(path_or_text).read())


# -- criterion 1: pinned unobstructed instance, via the CLI -----------------

def test_criterion_1_pinned_unobstructed_instance(tmp_path, z4, capsys):
    t0 = perf_counter()
    path = str(tmp_path / "p.json")
    save_doc(path, _z4_doc(z4))

    out1 = str(tmp_path / "obstruct.json")
    assert main(["obstruct-diff", "--complex", path, "--out", out1]) == 0
    rep = _report(out1)
    assert rep["verdict"] == "lifts"
    assert not any(rep["obstruction"]["coords"])

    out2 = str(tmp_path / "classify.json")
    assert main(["classify", "--complex", path, "--out", out2]) == 0
    cl = _report(out2)["classification"]
    assert cl["h_dim"] == 2 and cl["count"] == 4
    seen = set()
    for w in cl["witnesses"]:
        # zero components are omitted from the document
        vals = tuple(int(np.asarray(w["comps"][k]).reshape(-1)[0])
                     if k in w["comps"] else 0 for k in ("0", "1"))
        seen.add(vals)
    assert (2, 2) in seen

    out3 = str(tmp_path / "oracle.json")
    assert main(["oracle", "--complex", path, "--out", out3]) == 0
    ora = _report(out3)
    assert ora["verdict"] == "verified"
    assert ora["num_witnesses"] == 4 and ora["num_classes"] == 4
    assert ora["agrees_with_obstruction"] is True

    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS (4 lift classes over Z/4, oracle agrees, "
          f"{elapsed:.3f}s)")


# -- criterion 2: pinned obstructed instance, via the CLI -------------------

def test_criterion_2_pinned_obstructed_instance(tmp_path, capsys):
    t0 = perf_counter()
    path = str(tmp_path / "p.json")
    save_doc(path, _mf_doc())

    out1 = str(tmp_path / "obstruct.json")
    assert main(["obstruct-diff", "--complex", path, "--out", out1]) == 2
    rep = _report(out1)
    assert rep["verdict"] == "obstructed"
    assert rep["h2_dim"] == 1
    assert rep["obstruction"]["coords"] == [1, 0]

    out2 = str(tmp_path / "oracle.json")
    assert main(["oracle", "--complex", path, "--out", out2]) == 2
    ora = _report(out2)
    assert ora["verdict"] == "obstructed"
    assert ora["candidates"] == 16 and ora["num_witnesses"] == 0
    assert ora["agrees_with_obstruction"] is True

    elapsed = perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS (nonzero obstruction, 0/16 brute-force "
          f"witnesses, {elapsed:.3f}s)")


# -- criterion 3: randomized obstruction-vs-oracle agreement ----------------

def test_criterion_3_randomized_agreement():
    t0 = perf_counter()
    checked = 0
    primes = set()
    battery = (("differential", 120, obstruct_differential, oracle_differential),
               ("map", 40, obstruct_map, oracle_map),
               ("homotopy", 40, obstruct_homotopy, oracle_homotopy))
    for kind, count, obstruct, oracle in battery:
        for seed in range(count):
            inst = gen_instance(kind, seed, max_kdim=12)
            cls, _ = obstruct(inst.problem)
            res = oracle(inst.problem)
            assert cls.is_zero == (res.num_witnesses > 0), \
                f"{kind} seed {seed}: verdicts disagree"
            primes.add(inst.tower_desc[1])
            checked += 1
    elapsed = perf_counter() - t0
    assert checked >= 200
    assert primes == {2, 3}
    assert elapsed < 120.0
    print(f"criterion 3: PASS ({checked} instances, primes {sorted(primes)}, "
          f"{elapsed:.1f}s)")


# -- criterion 4: torsor counts and partition agreement ---------------------

def _v_partition(prob, res):
    witnesses = [witness_differential(prob, int(i)) for i in res.witness_indices]
    by_v = []
    for w_idx, w in zip(res.witness_indices, witnesses):
        for rep, members in by_v:
            if v_class(prob, rep, w).is_zero:
                members.append(int(w_idx))
                break
        else:
            by_v.append((w, [int(w_idx)]))
    return sorted(tuple(sorted(m)) for _, m in by_v)


def test_criterion_4_torsor_counts_and_partitions(z4):
    problems = [DifferentialProblem(z4, OB3, zero_map(z4.mid, OB3, OB3, 1))]
    seed = 0
    while len(problems) < 6 and seed < 80:
        inst = gen_instance("differential", seed, max_kdim=9)
        seed += 1
        prob = inst.problem
        # keep the quadratic partition comparison tractable
        if prob.kernel.p ** prob.kernel.dim(1) > 512:
            continue
        cls, _ = obstruct_differential(prob)
        if cls.is_zero:
            problems.append(prob)
    assert len(problems) >= 6
    for prob in problems:
        p = prob.kernel.p
        cl = classify_lifts(prob)
        assert cl.count == p ** prob.kernel.h_dim(1)
        isos = classify_connecting_isos(prob, cl.reps[0], cl.reps[0])
        assert isos.count == p ** prob.kernel.h_dim(0)
        res = oracle_differential(prob)
        assert sorted(tuple(o) for o in res.orbits.tolist()) == _v_partition(prob, res)
        assert len(res.orbits) == cl.count
    print(f"criterion 4: PASS ({len(problems)} problems: counts p^h1 / p^h0, "
          f"oracle orbits match difference classes)")


# -- criterion 5: map obstructions against lift differences -----------------

def _rand_mid(rng, defalg, ob, n):
    mid = defalg.mid
    comps = {}
    for i in ob.support:
        r, c = ob.rank(i + n), ob.rank(i)
        if r == 0 or c == 0:
            continue
        data = np.stack(
            [rng.integers(0, int(o), size=(r, c, defalg.k))
             for o in mid.ring.orders], axis=-1).astype(np.int64)
        comps[i] = AlgMatrix(mid, data)
    return GradedMap(mid, ob, ob, n, comps)


def test_criterion_5_identity_and_homotopy_obstructions(z4, eps2, t3):
    shapes = [GradedObject.of(r) for r in
              ({0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 2: 1, 3: 1}, {-1: 1, 0: 1, 1: 1})]
    pairs = 0
    for defalg, ob in itertools.product((z4, eps2, t3), shapes):
        prob = DifferentialProblem(defalg, ob, zero_map(defalg.mid, ob, ob, 1))
        reps = classify_lifts(prob).reps[:4]
        one_mid = identity_map(defalg.mid, ob)
        for d1, d2 in itertools.product(reps, reps):
            C = Complex(defalg.bar, ob, d1)
            D = Complex(defalg.bar, ob, d2)
            cls, _ = obstruct_map(MapProblem(defalg, C, D, one_mid))
            vc = v_class(prob, d1, d2)
            assert cls.rep == vc.rep and cls.is_zero == vc.is_zero
            pairs += 1
    assert pairs >= 100

    homotopic = 0
    for defalg in (z4, t3):
        ob = GradedObject.of({0: 1, 1: 2, 2: 1})
        prob = DifferentialProblem(defalg, ob, zero_map(defalg.mid, ob, ob, 1))
        dbar = classify_lifts(prob).reps[1]
        C = Complex(defalg.bar, ob, dbar)
        dCm = map_reduce(defalg, C.d, "bar", "mid")
        rng = np.random.default_rng(0)
        for _ in range(8):
            f = delta(_rand_mid(rng, defalg, ob, -1), dCm, dCm)
            g = f + delta(_rand_mid(rng, defalg, ob, -1), dCm, dCm)
            of, _ = obstruct_map(MapProblem(defalg, C, C, f))
            og, _ = obstruct_map(MapProblem(defalg, C, C, g))
            assert of == og
            homotopic += 1
    assert homotopic >= 16
    print(f"criterion 5: PASS ({pairs} identity-map pairs match lift "
          f"differences, {homotopic} homotopic pairs share obstructions)")


# -- criterion 6: strictification pipeline postconditions -------------------

def test_criterion_6_strictification_battery(z4, eps2, t3):
    t0 = perf_counter()
    shapes = ({0: 1, 1: 1}, {0: 1, 1: 1, 2: 1}, {-1: 1, 0: 1},
              {0: 2, 1: 1}, {-1: 1, 0: 1, 1: 1}, {0: 1, 1: 2})
    ran = 0
    for defalg, ranks, contr in itertools.product(
            (z4, eps2, t3), shapes, (-2, 0, 2)):
        ob = GradedObject.of(ranks)
        E, dbar_D = build_equiv(defalg, ob, zero_map(defalg.mid, ob, ob, 1),
                                contr)
        res = crude_lift(E, dbar_D)
        one_C = identity_map(defalg.bar, E.C.ob)
        one_D = identity_map(defalg.bar, E.D.ob)
        assert compose(res.d_C, res.d_C).is_zero()
        assert delta(res.f, res.d_C, dbar_D).is_zero()
        assert delta(res.g, dbar_D, res.d_C).is_zero()
        assert delta(res.H, res.d_C, res.d_C) == one_C - compose(res.g, res.f)
        assert delta(res.K, dbar_D, dbar_D) == one_D - compose(res.f, res.g)
        ran += 1
    elapsed = perf_counter() - t0
    assert ran >= 50
    assert elapsed < 60.0
    print(f"criterion 6: PASS ({ran} homotopy equivalences strictified, "
          f"all five identities exact, {elapsed:.1f}s)")


# -- criterion 7: homotopy-category classification agrees with strict -------

def test_criterion_7_homotopy_classification_matches_strict(z4, eps2, t3):
    for defalg, ranks in (((z4), {0: 1, 1: 1, 2: 1}), ((eps2), {0: 1, 1: 1}),
                          ((t3), {0: 1, 1: 1})):
        ob = GradedObject.of(ranks)
        prob = DifferentialProblem(defalg, ob, zero_map(defalg.mid, ob, ob, 1))
        rep, cl = classify_homotopy_lifts(prob)
        strict = classify_lifts(prob)
        assert not rep.obstructed
        assert cl.count == strict.count
        assert [c.rep for c in cl.class_reps] == [c.rep for c in strict.class_reps]

    ob = GradedObject.of({0: 1, 1: 1})
    E, dbar_D = build_equiv(z4, ob, zero_map(z4.mid, ob, ob, 1), 0)
    res = crude_lift(E, dbar_D)
    prob = DifferentialProblem(z4, ob, E.C.d)
    ora = oracle_differential(prob)
    assert any(witness_differential(prob, int(i)) == res.d_C
               for i in ora.witness_indices)
    print("criterion 7: PASS (homotopy classification equals strict "
          "classification; strictified lift is a brute-force witness)")


# -- criterion 8: deformation functors ---------------------------------------

def _base_diffs(p, ob):
    """All square-zero base differentials with scalar entries for small ob."""
    alg0 = trivial_base_algebra(p)
    degs = [i for i in ob.support if ob.rank(i + 1)]
    shapes = [(ob.rank(i + 1), ob.rank(i)) for i in degs]
    sizes = [r * c for r, c in shapes]
    out = []
    for digits in itertools.product(range(p), repeat=sum(sizes)):
        comps, off = {}, 0
        for i, (r, c) in zip(degs, shapes):
            blk = np.asarray(digits[off:off + r * c],
                             dtype=np.int64).reshape(r, c, 1, 1)
            off += r * c
            comps[i] = AlgMatrix(alg0, blk)
        d = GradedMap(alg0, ob, ob, 1, comps)
        if compose(d, d).is_zero():
            out.append((alg0, d))
    return out


def test_criterion_8_deformation_functors():
    # the functor of the residue field is a singleton
    alg0 = trivial_base_algebra(2)
    ob2 = GradedObject.of({0: 1, 1: 1})
    d00 = GradedMap(alg0, ob2, ob2, 1, {})
    field = ArtinLocalRing(zmod_ring(2, 1))
    values = functor_eval(field, alg0, ob2, d00)
    for tag in ("F0", "F", "F1"):
        assert len(values[tag].classes) == 1

    # tangent space: |F(k[eps])| = p^tangent
    for p in (2, 3):
        a0 = trivial_base_algebra(p)
        d0 = GradedMap(a0, ob2, ob2, 1, {})
        A = ArtinLocalRing(trunc_poly_ring(p, 2))
        t = tangent_dim(a0, ob2, d0)
        assert len(functor_eval(A, a0, ob2, d0)["F"].classes) == p ** t

    # fiber-product bijection and the smoothness battery at both primes
    for p in (2, 3):
        a0 = trivial_base_algebra(p)
        d0 = GradedMap(a0, ob2, ob2, 1, {})
        pi = mk_tower("trunc_poly", p, a=2, b=1).pibar
        tr = check_triple(pi, pi, a0, ob2, d0)
        assert tr.f0_bijective and tr.f_surjective
        smooth = [mk_tower("trunc_poly", p, a=3, b=2).pibar]
        assert schlessinger_check(a0, ob2, d0, [(pi, pi)], smooth).ok

    # strict and homotopy-category functors agree classwise on >= 20 instances
    checked = 0
    ob3 = GradedObject.of({0: 1, 1: 1, 2: 1})
    obw = GradedObject.of({0: 1, 1: 2})
    for p in (2, 3):
        A = ArtinLocalRing(trunc_poly_ring(p, 2))
        for ob in (ob2, ob3, obw):
            for a0, d0 in _base_diffs(p, ob):
                values = functor_eval(A, a0, ob, d0, cross_check=True)
                assert values["F1"].classes == values["F"].classes
                checked += 1
    assert checked >= 20

    # the (t, t) one-parameter deformation obstructs at order three
    defalg = mk_algebra(mk_tower("trunc_poly", 2, a=3, b=2), "trivial")
    tvec = np.zeros((1, 1, 1, 2), dtype=np.int64)
    tvec[0, 0, 0, 1] = 1
    d = GradedMap(defalg.mid, ob3, ob3, 1,
                  {0: AlgMatrix(defalg.mid, tvec), 1: AlgMatrix(defalg.mid, tvec.copy())})
    rep = extend_order(DifferentialProblem(defalg, ob3, d))
    assert rep.obstructed and rep.obstruction.rep == (1,)
    print(f"criterion 8: PASS (functor battery; {checked} strict-vs-homotopy "
          f"functor agreements; order-3 obstruction nonzero)")


# -- criterion 9: byte-deterministic reports --------------------------------

def test_criterion_9_byte_deterministic_reports(tmp_path, capsys):
    gen_path = str(tmp_path / "gen.json")
    assert main(["gen", "--kind", "differential", "--seed", "3",
                 "--out", gen_path]) == 0
    gens = [open(gen_path).read()]
    for i in range(2):
        other = str(tmp_path / f"gen{i}.json")
        main(["gen", "--kind", "differential", "--seed", "3", "--out", other])
        gens.append(open(other).read())
    assert gens[0] == gens[1] == gens[2]

    outs = []
    for i, workers in enumerate((1, 4, 1)):
        out = str(tmp_path / f"o{i}.json")
        code = main(["oracle", "--complex", gen_path,
                     "--workers", str(workers), "--out", out])
        assert code in (0, 2)
        outs.append(open(out).read())
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["timings"] is None
    print("criterion 9: PASS (generator and oracle reports byte-identical "
          "across runs)")
