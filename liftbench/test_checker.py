"""Tests of the benchmark's independent checker, its documents and its tracer.

    python3 -m pytest -q liftbench

The hand-computed cases need no program.  The last tests run sqzlift from
the checkout's `src` on the benchmark's own documents.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker as ck  # noqa: E402

Z4 = {"kind": "zmod", "p": 2, "params": {"a": 2, "b": 1}}
T3 = {"kind": "trunc_poly", "p": 3, "params": {"a": 3, "b": 2}}
TRIV = {"kind": "trivial"}


def problem(tower, ranks, d, level="mid"):
    return {"schema": "problem", "version": 1,
            "payload": {"kind": "differential", "tower": tower, "algebra": TRIV,
                        "complex": {"level": level, "ranks": ranks, "d": d}}}


# -- linear algebra and rings ---------------------------------------------


def test_rank_mod_p_by_hand():
    assert ck.rank_mod_p([[1, 2], [2, 4]], 3) == 1
    assert ck.rank_mod_p([[1, 1], [1, 2]], 2) == 2
    assert ck.rank_mod_p([[1, 1], [1, 2]], 3) == 2
    assert ck.rank_mod_p([[2, 1, 0], [1, 2, 0]], 3) == 1       # second row = 2 * first
    assert ck.rank_mod_p(np.zeros((3, 4), dtype=np.int64), 5) == 0


def test_null_basis_spans_the_kernel():
    a = np.array([[1, 1, 0], [0, 1, 1]])
    z = ck.null_basis(a, 2)
    assert z.shape == (1, 3) and not ((a @ z.T) % 2).any() and z.any()


def test_ring_tables_by_hand():
    t3 = ck.trunc_poly_ring(3, 3)
    t = np.array([0, 1, 0])
    assert t3.mul(t, t).tolist() == [0, 0, 1]
    assert t3.mul(t, np.array([0, 0, 1])).tolist() == [0, 0, 0]
    assert ck.zmod_ring(2, 2).mul(np.array([3]), np.array([3])).tolist() == [1]
    sz = ck.square_zero_ring(3, 2)
    assert sz.mul(np.array([0, 1, 0]), np.array([0, 0, 1])).tolist() == [0, 0, 0]


def test_j_bases_by_hand():
    assert ck.Tower(T3).jbasis.tolist() == [[0, 0, 1]]
    assert ck.Tower(Z4).jbasis.tolist() == [[2]]
    sz = ck.Tower({"kind": "square_zero", "p": 3, "params": {"r": 2}})
    assert sz.dimJ == 2 and sz.jbasis.tolist() == [[0, 0, 1], [0, 1, 0]]


def test_dual_numbers_product():
    s = ck.Setting(T3, {"kind": "dual_numbers"})
    x = np.zeros((1, 1, 2, 3), dtype=np.int64)
    x[0, 0, 1, 0] = 1                                          # the element x
    assert not s.bar.matmul(x, x).any()                        # x^2 = 0
    one_plus_x = s.bar.eye(1) + x
    assert s.bar.matmul(one_plus_x, one_plus_x)[0, 0, :, 0].tolist() == [1, 2]


# -- lifting a differential over Z/4 -> Z/2 ----------------------------------
#
# C0 = (F_2 -(1,1)^T-> F_2^2 -(1,1)-> F_2) is acyclic.  The minimal lift
# squares to 2, but d1 = (1, 3) gives (1, 3) . (1, 1)^T = 4 = 0, so the
# complex lifts.

ACYCLIC = problem(Z4, {"0": 1, "1": 2, "2": 1},
                  {"0": [[[[1]]], [[[1]]]], "1": [[[[1]], [[1]]]]})


def lift_report(d1, verdict="lifts"):
    rep = {"command": "lift-diff", "verdict": verdict,
           "obstruction": {"degree": 2, "coords": [0]}}
    if verdict == "lifts":
        rep["witness"] = {"level": "bar", "degree": 1,
                          "src": {"0": 1, "1": 2, "2": 1}, "tgt": {"0": 1, "1": 2, "2": 1},
                          "comps": {"0": [[[[1]]], [[[1]]]], "1": [[[[d1[0]]], [[d1[1]]]]]}}
    return rep


def test_acyclic_complex_lifts_and_its_witness_is_accepted():
    prob = ck.Problem(ACYCLIC["payload"])
    assert not prob.obstructed()
    assert ck.check_report("lift-diff", ACYCLIC, lift_report((1, 3)), 0) == []


def test_witness_that_does_not_square_to_zero_is_rejected():
    probs = ck.check_report("lift-diff", ACYCLIC, lift_report((1, 1)), 0)
    assert any("lifting equation" in p for p in probs)


def test_witness_that_does_not_reduce_is_rejected():
    assert ck.check_report("lift-diff", ACYCLIC, lift_report((3, 1)), 0) == []
    probs = ck.check_report("lift-diff", ACYCLIC, lift_report((0, 0)), 0)
    assert any("reduce" in p for p in probs)


def test_flipped_verdict_is_rejected():
    flipped = {"command": "lift-diff", "verdict": "obstructed",
               "obstruction": {"degree": 2, "coords": [1]}}
    probs = ck.check_report("lift-diff", ACYCLIC, flipped, 2)
    assert probs and "verdict" in probs[0]


def test_exit_code_must_match_the_verdict():
    probs = ck.check_report("lift-diff", ACYCLIC, lift_report((1, 3)), 2)
    assert probs and "exit code" in probs[0]


# -- an obstructed differential over F_3[t]/t^3 -> F_3[t]/t^2 -----------------
#
# d = (t, t) on ranks (1, 1, 1): d^2 = t^2 != 0 for every lift, the base
# differential is zero, so H^2 = J (x) Hom(C0^0, C0^2) has dimension 1.

NIL = problem(T3, {"0": 1, "1": 1, "2": 1},
              {"0": [[[[0, 1]]]], "1": [[[[0, 1]]]]})


def test_obstructed_by_hand():
    rep = {"command": "obstruct-diff", "verdict": "obstructed",
           "obstruction": {"degree": 2, "coords": [1]}, "h2_dim": 1}
    assert ck.Problem(NIL["payload"]).obstructed()
    assert ck.check_report("obstruct-diff", NIL, rep, 2) == []
    wrong_h = dict(rep, h2_dim=2)
    assert any("h2_dim" in p for p in ck.check_report("obstruct-diff", NIL, wrong_h, 2))
    flipped = dict(rep, verdict="lifts", obstruction={"degree": 2, "coords": [0]})
    assert ck.check_report("obstruct-diff", NIL, flipped, 0)


def test_verdict_known_by_construction_is_enforced():
    rep = {"command": "lift-diff", "verdict": "obstructed",
           "obstruction": {"degree": 2, "coords": [1]}}
    assert ck.check_report("lift-diff", NIL, rep, 2, expect="obstructed") == []
    assert ck.check_report("lift-diff", NIL, rep, 2, expect="lifts")


# -- the oracle on d = 0 : F_2 -> F_2 over Z/4 --------------------------------
#
# One J coordinate, both candidates square to zero, no moves: two witnesses in
# two singleton orbits.

ZERO = problem(Z4, {"0": 1, "1": 1}, {})
ORACLE = {"command": "oracle", "kind": "differential", "candidates": 2, "kdim": 1,
          "num_witnesses": 2, "num_classes": 2, "witness_indices": [0, 1],
          "orbits": [[0], [1]], "obstruction": {"degree": 2, "coords": []},
          "agrees_with_obstruction": True, "verdict": "verified"}


def test_oracle_by_hand():
    assert ck.check_report("oracle", ZERO, ORACLE, 0) == []


def test_oracle_with_merged_orbits_is_rejected():
    bad = dict(ORACLE, orbits=[[0, 1]], num_classes=1)
    assert ck.check_report("oracle", ZERO, bad, 0)


def test_oracle_with_a_flipped_verdict_is_rejected():
    bad = dict(ORACLE, verdict="obstructed", num_witnesses=0, num_classes=0,
               witness_indices=[], orbits=[])
    assert ck.check_report("oracle", ZERO, bad, 2)


# -- the deformation functor of F_2 -> F_2 (d0 = 0) over F_2[t]/t^2 -------------
#
# F0 = {0, t}, both fixed by conjugation, tangent dimension 1.

FUNCTOR_DOC = problem({"kind": "trunc_poly", "p": 2, "params": {"a": 2, "b": 1}},
                      {"0": 1, "1": 1}, {})
VALUE = {"size": 2, "classes": [[0], [1]], "elements": [[0, 0], [0, 1]]}
FUNCTOR = {"command": "functor-eval", "verdict": "verified", "ring_size": 4,
           "tangent_dim": 1, "F0": VALUE, "F": VALUE, "F1": VALUE}


def test_functor_by_hand():
    assert ck.check_report("functor-eval", FUNCTOR_DOC, FUNCTOR, 0) == []
    tangent = {"command": "tangent", "verdict": "verified", "tangent_dim": 1}
    assert ck.check_report("tangent", FUNCTOR_DOC, tangent, 0) == []


def test_functor_with_wrong_values_is_rejected():
    merged = {"size": 1, "classes": [[0, 1]], "elements": [[0, 0], [0, 1]]}
    assert ck.check_report("functor-eval", FUNCTOR_DOC, dict(FUNCTOR, F=merged, F1=merged), 0)
    not_lift = {"size": 2, "classes": [[0], [1]], "elements": [[1, 0], [0, 1]]}
    assert ck.check_report("functor-eval", FUNCTOR_DOC,
                           dict(FUNCTOR, F0=not_lift, F=not_lift, F1=not_lift), 0)
    assert ck.check_report("functor-eval", FUNCTOR_DOC, dict(FUNCTOR, tangent_dim=0), 0)


# -- against the program ------------------------------------------------------


@pytest.fixture(scope="module")
def sq():
    import workloads
    try:
        return workloads.import_program()
    except ImportError:
        pytest.skip("sqzlift is not importable from src")


def run_op(sq, inst, out):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = sq.cli.main(inst.argv(out))
    with open(out) as fh:
        return code, json.load(fh)


def test_program_reports_on_small_lift_documents_pass(sq, tmp_path):
    import workloads
    insts = [i for i in workloads.write_documents(sq, "lift", 7, str(tmp_path))
             if not i.name.startswith("ladder")]
    out = str(tmp_path / "report.json")
    for inst in insts:
        code, rep = run_op(sq, inst, out)
        assert ck.check_report(inst.command, inst.doc, rep, code, inst.expect) == [], inst.name
        # the same report with its verdict flipped must fail
        flipped = copy.deepcopy(rep)
        flipped["verdict"] = "lifts" if rep["verdict"] == "obstructed" else "obstructed"
        assert ck.check_report(inst.command, inst.doc, flipped, 2 - code, inst.expect)


def test_seed_fixes_the_documents(sq, tmp_path):
    import workloads
    a = workloads.write_documents(sq, "functor", 3, str(tmp_path / "a"))
    b = workloads.write_documents(sq, "functor", 3, str(tmp_path / "b"))
    c = workloads.write_documents(sq, "functor", 4, str(tmp_path / "c"))
    assert [i.doc for i in a] == [i.doc for i in b]
    assert [i.doc for i in a] != [i.doc for i in c]


def test_traced_passes_repeat_their_counts(sq, tmp_path):
    import tracing
    import workloads
    insts = workloads.write_documents(sq, "lift", 1, str(tmp_path))[:6]
    tr = tracing.Tracer(sq)
    tr.install()
    try:
        for _ in range(2):
            tr.begin_pass()
            for n, inst in enumerate(insts):
                tr.run_op(n, inst.command, lambda: run_op(sq, inst, str(tmp_path / "r.json")))
            tr.end_pass()
    finally:
        tr.uninstall()
    assert tr.counts_repeat()
    metrics = tr.layer_metrics()
    assert metrics["gf.rref_calls"] > 0 and metrics["complexes.delta_matrix_cols"] > 0
    assert sq.gf.rref.__name__ == "rref" and not tr.missing
