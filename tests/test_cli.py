"""Command-line interface: document round-trips, exit codes, determinism."""

import argparse
import importlib.util
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sqzlift import cli
from sqzlift.algebra import AlgMatrix, mk_algebra
from sqzlift.cli import (
    build_parser,
    canonical_json,
    complex_from_payload,
    complex_to_payload,
    gmap_from_payload,
    gmap_to_payload,
    load_doc,
    main,
    problem_from_doc,
    problem_to_doc,
    save_doc,
    tower_from_payload,
    tower_to_payload,
    unwrap,
    wrap,
)
from sqzlift.complexes import GradedMap, GradedObject, zero_map
from sqzlift.errors import NotADifferential
from sqzlift.finring import mk_tower
from sqzlift.obstruction import DifferentialProblem

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from conftest import build_equiv, from_coefficients

OB3 = GradedObject.of({0: 1, 1: 1, 2: 1})
Z4_DESC = ("zmod", 2, (("a", 2), ("b", 1)))
EPS_DESC = ("trunc_poly", 2, (("a", 2), ("b", 1)))


def _z4_doc(z4):
    prob = DifferentialProblem(z4, OB3, zero_map(z4.mid, OB3, OB3, 1))
    return problem_to_doc("differential", z4, Z4_DESC, prob)


def _mf_doc():
    """The obstructed rank-2 algebra instance (x^2 = eps, d = (x, x))."""
    tower = mk_tower("trunc_poly", 2, a=2, b=1)
    R = tower.Rbar
    struct = np.zeros((2, 2, 2, 2), dtype=np.int64)
    struct[0, 0, 0] = R.one_vec()
    struct[0, 1, 1] = R.one_vec()
    struct[1, 0, 1] = R.one_vec()
    struct[1, 1, 0] = np.array([0, 1])
    unit = np.zeros((2, 2), dtype=np.int64)
    unit[0] = R.one_vec()
    defalg = mk_algebra(tower, "custom", struct=struct, unit=unit)
    x = np.zeros((1, 1, 2, 1), dtype=np.int64)
    x[0, 0, 1, 0] = 1
    d = GradedMap(defalg.mid, OB3, OB3, 1,
                  {0: AlgMatrix(defalg.mid, x), 1: AlgMatrix(defalg.mid, x.copy())})
    prob = DifferentialProblem(defalg, OB3, d)
    return problem_to_doc("differential", defalg, EPS_DESC, prob,
                          algebra_kind="custom")


def _write(tmp_path, name, doc):
    path = tmp_path / name
    save_doc(str(path), doc)
    return str(path)


# -- document round-trips ---------------------------------------------------

def test_saved_documents_round_trip_byte_identically(tmp_path, z4):
    path = _write(tmp_path, "p.json", _z4_doc(z4))
    raw = open(path, "rb").read()
    assert canonical_json(load_doc(path)) == raw
    # and the parsed problem re-serializes to the same document
    kind, defalg, prob, _ = problem_from_doc(load_doc(path))
    again = problem_to_doc(kind, defalg, Z4_DESC, prob)
    assert canonical_json(again) == raw


def test_tower_payload_round_trip():
    tower = mk_tower("zmod", 2, a=2, b=1)
    pay = tower_to_payload(tower)   # custom encoding with explicit rings
    back = tower_from_payload(pay)
    assert back.Rbar == tower.Rbar and back.R == tower.R
    assert np.array_equal(back.pibar.images, tower.pibar.images)


def test_unwrap_rejects_wrong_schema():
    from sqzlift.errors import SchemaMismatch
    with pytest.raises(SchemaMismatch):
        unwrap(wrap("tower", {}), "complex")
    with pytest.raises(SchemaMismatch):
        unwrap({"schema": "tower", "version": 99, "payload": {}}, "tower")


# -- schema semantics -------------------------------------------------------

def _bad_square_payload():
    return {"level": "mid", "ranks": {"0": 1, "1": 1, "2": 1},
            "d": {"0": [[[[1]]]], "1": [[[[1]]]]}}


def test_complex_schema_enforces_square_zero(z4):
    with pytest.raises(NotADifferential):
        complex_from_payload(z4, _bad_square_payload(), strict=True)
    # the lax loader accepts the same payload as a pre-complex
    X = complex_from_payload(z4, _bad_square_payload(), strict=False)
    assert X.ob == OB3


def test_problem_bundle_defers_validation_to_construction(z4):
    # the codec parses the bundle; the square-zero check happens when the
    # problem object is built, not at the schema layer
    doc = wrap("problem", {
        "kind": "differential",
        "tower": tower_to_payload(z4.tower, Z4_DESC),
        "algebra": {"kind": "trivial"},
        "complex": _bad_square_payload()})
    with pytest.raises(NotADifferential):
        problem_from_doc(doc)


def test_bare_complex_doc_with_bad_square_exits_1(tmp_path, z4, capsys):
    tower_doc = _write(tmp_path, "t.json",
                       wrap("tower", tower_to_payload(z4.tower, Z4_DESC)))
    cx_doc = _write(tmp_path, "c.json", wrap("complex", _bad_square_payload()))
    code = main(["obstruct-diff", "--tower", tower_doc, "--complex", cx_doc])
    out = capsys.readouterr().out
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] == "failed"
    assert rep["error"]["type"] == "NotADifferential"


def test_tower_document_with_an_order_one_basis_element_fails_cleanly(tmp_path, capsys):
    """Rbar = F_2[t]/t^2 plus a basis element of additive order 1, which is
    zero: a ValidationError report, with no numpy warning on the way."""
    fp = {"p": 2, "orders": [2], "mult": [[[1]]], "names": ["1"]}
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    mult[0, 0, 0] = mult[0, 1, 1] = mult[1, 0, 1] = 1
    rbar = {"p": 2, "orders": [2, 2, 1], "mult": mult.tolist(), "names": ["1", "t", "z"]}
    tower = {"kind": "custom", "p": 2, "rbar": rbar, "r": fp, "r0": fp,
             "pibar": [[1], [0], [0]], "pi": [[1]]}
    tower_doc = _write(tmp_path, "t.json", wrap("tower", tower))
    cx_doc = _write(tmp_path, "c.json",
                    wrap("complex", {"level": "mid", "ranks": {"0": 1, "1": 1}, "d": {}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # as python -W error
        code = main(["obstruct-diff", "--tower", tower_doc, "--complex", cx_doc])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and rep["verdict"] == "failed"
    assert rep["error"] == {"type": "ValidationError",
                            "message": "additive order 1 is not a power p^e, e >= 1, of 2"}


# -- exit-code contract -----------------------------------------------------

def test_unobstructed_problem_exits_0(tmp_path, z4, capsys):
    path = _write(tmp_path, "p.json", _z4_doc(z4))
    code = main(["obstruct-diff", "--complex", path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["verdict"] == "lifts"
    assert rep["obstruction"]["coords"] == [0] * len(rep["obstruction"]["coords"])


def test_obstructed_problem_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "p.json", _mf_doc())
    code = main(["obstruct-diff", "--complex", path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 2
    assert rep["verdict"] == "obstructed"
    assert rep["h2_dim"] == 1
    assert any(rep["obstruction"]["coords"])


def test_missing_file_exits_1_with_error_report(capsys):
    code = main(["lift-diff", "--complex", "/nonexistent/p.json"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["verdict"] == "failed"
    assert rep["error"]["type"] == "ParseError"
    assert rep["schema"] == "report" and rep["timings"] is None


def test_command_kind_mismatch_exits_1(tmp_path, z4, capsys):
    path = _write(tmp_path, "p.json", _z4_doc(z4))
    code = main(["lift-map", "--map", path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["error"]["type"] == "SchemaMismatch"


def test_a_bare_complex_is_a_differential_problem(tmp_path, capsys):
    cx_doc = _write(tmp_path, "c.json",
                    wrap("complex", {"level": "mid", "ranks": {"0": 1}, "d": {}}))
    code = main(["lift-map", "--map", cx_doc])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["error"]["type"] == "SchemaMismatch"


# -- the command table and usage errors ---------------------------------------

FLAG_TABLE = {
    ("obstruct-diff", "lift-diff", "tangent", "extend-order"):
        "--complex --tower --algebra --workers",
    ("classify", "classify-homotopy", "functor-eval", "oracle"):
        "--complex --tower --algebra --cap --workers",
    ("schlessinger",): "--complex --tower --algebra --cap",
    ("lift-map", "lift-homotopy"): "--map --workers",
    ("crude-lift",): "--complex --trace",
    ("gen",): "--kind --seed --cap",
}


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {name: {opt for a in sp._actions for opt in a.option_strings} - {"-h", "--help"}
             for name, sp in sub.choices.items()}
    assert flags == {cmd: set(f.split()) | {"--out"}
                     for cmds, f in FLAG_TABLE.items() for cmd in cmds}
    assert sum(map(len, flags.values())) == 62


@pytest.mark.parametrize("argv, command, message, usage", [
    (["lift-diff", "--bogus"], "lift-diff", "unrecognized arguments: --bogus",
     "usage: sqzlift lift-diff [-h] [--complex COMPLEX]"),
    (["lift-diff", "--complex", "x.json", "--cap", "5"], "lift-diff",
     "unrecognized arguments: --cap 5", "usage: sqzlift lift-diff [-h] [--complex COMPLEX]"),
    (["oracle", "--complex", "p.json", "--cap", "x"], "oracle", "argument --cap",
     "usage: sqzlift oracle [-h] [--complex COMPLEX]"),
    (["no-such-command"], None, "invalid choice", "usage: sqzlift [-h] [--version]"),
    ([], None, "required", "usage: sqzlift [-h] [--version]"),
])
def test_usage_errors_end_in_one_failed_report(capsys, argv, command, message, usage):
    code = main(argv)
    out, err = capsys.readouterr()
    rep = json.loads(out)
    assert code == 1 and err.startswith(usage)
    assert rep["verdict"] == "failed" and rep["command"] == command
    assert rep["error"]["type"] == "ParseError" and message in rep["error"]["message"]
    assert rep["schema"] == "report" and rep["timings"] is None


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["oracle", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out


def _module(path):
    spec = importlib.util.spec_from_file_location(os.path.basename(path)[:-3],
                                                  os.path.join(ROOT, path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_command_lines_parse():
    """The argv of every command that liftbench and report_digests run."""
    digests = _module("benchmarks/report_digests.py")   # imports liftbench's workloads
    workloads = digests.workloads
    sq = workloads.import_program()
    argvs = [inst.argv("out.json") for build, _ in workloads.WORKLOADS.values()
             for inst in build(workloads.Builder(sq), 1)]
    assert len({argv[0] for argv in argvs}) == 10
    for kind, commands in digests.COMMANDS.items():
        argvs.append(digests.gen_argv(kind, 0) + ["--out", "out.json"])
        argvs += [digests.command_argv(cmd, "doc.json") + ["--out", "out.json"]
                  for cmd in commands]
    for argv in argvs:
        args = build_parser().parse_args(argv)
        assert args.command == argv[0] and args.out == "out.json"


# -- command outputs --------------------------------------------------------

def test_classify_reports_the_full_torsor(tmp_path, z4, capsys):
    path = _write(tmp_path, "p.json", _z4_doc(z4))
    code = main(["classify", "--complex", path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["verdict"] == "classified"
    cl = rep["classification"]
    assert cl["h_dim"] == 2 and cl["count"] == 4
    assert len(cl["witnesses"]) == 4


def test_gen_then_oracle_self_consistency(tmp_path, capsys):
    for seed in (0, 1, 2):
        path = str(tmp_path / f"gen{seed}.json")
        assert main(["gen", "--kind", "differential",
                     "--seed", str(seed), "--out", path]) == 0
        capsys.readouterr()
        code = main(["oracle", "--complex", path])
        rep = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        assert rep["agrees_with_obstruction"] is True
        assert rep["verdict"] == ("verified" if code == 0 else "obstructed")


def test_gen_is_byte_deterministic(tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    main(["gen", "--kind", "map", "--seed", "5", "--out", a])
    main(["gen", "--kind", "map", "--seed", "5", "--out", b])
    assert open(a).read() == open(b).read()


def test_reports_are_byte_identical_across_runs(tmp_path, z4):
    path = _write(tmp_path, "p.json", _z4_doc(z4))
    outs = []
    for i, workers in enumerate((1, 4, 1)):
        out = str(tmp_path / f"r{i}.json")
        assert main(["oracle", "--complex", path,
                     "--workers", str(workers), "--out", out]) == 0
        outs.append(open(out).read())
    assert outs[0] == outs[1] == outs[2]
    rep = json.loads(outs[0])
    assert rep["num_witnesses"] == 4 and rep["timings"] is None


def test_extend_order_rejects_wrong_tower(tmp_path, z4, capsys):
    path = _write(tmp_path, "p.json", _z4_doc(z4))
    code = main(["extend-order", "--complex", path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["error"]["type"] == "ValidationError"


@pytest.mark.parametrize("command", ["classify", "classify-homotopy"])
def test_classify_honours_the_cap(tmp_path, capsys, command):
    # H^1 has 3^4 = 81 classes
    defalg = mk_algebra(mk_tower("trunc_poly", 3, a=2, b=1), "trivial")
    ob = GradedObject.of({0: 2, 1: 2})
    prob = DifferentialProblem(defalg, ob, zero_map(defalg.mid, ob, ob, 1))
    path = _write(tmp_path, "p.json", problem_to_doc(
        "differential", defalg, ("trunc_poly", 3, (("a", 2), ("b", 1))), prob))
    code = main([command, "--complex", path, "--cap", "80"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["error"]["type"] == "CapExceeded"
    assert main([command, "--complex", path, "--cap", "81"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"]["count"] == 81


def test_functor_eval_on_truncated_polynomial_tower(tmp_path, capsys):
    eps = mk_algebra(mk_tower("trunc_poly", 2, a=2, b=1), "trivial")
    ob = GradedObject.of({0: 1, 1: 1})
    prob = DifferentialProblem(eps, ob, zero_map(eps.mid, ob, ob, 1))
    path = _write(tmp_path, "p.json",
                  problem_to_doc("differential", eps, EPS_DESC, prob))
    code = main(["functor-eval", "--complex", path])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rep["tangent_dim"] == 1
    assert rep["F"]["size"] == 2 ** rep["tangent_dim"]
    assert rep["F1"]["size"] == rep["F"]["size"]


# -- failures at the document boundary ---------------------------------------

def _gen_doc(tmp_path, kind="differential", seed=0):
    path = str(tmp_path / f"gen-{kind}-{seed}.json")
    assert main(["gen", "--kind", kind, "--seed", str(seed), "--out", path]) == 0
    return load_doc(path)


def _failed_report_in_out(tmp_path, capsys, argv):
    out = tmp_path / "o.json"
    code = main(argv + ["--out", str(out)])
    assert code == 1
    assert capsys.readouterr().out == ""
    rep = json.loads(out.read_text())
    assert rep["verdict"] == "failed" and rep["schema"] == "report"
    return rep


def test_error_report_honours_out(tmp_path, capsys):
    rep = _failed_report_in_out(tmp_path, capsys,
                                ["lift-diff", "--complex", str(tmp_path / "missing.json")])
    assert rep["error"]["type"] == "ParseError"
    assert rep["command"] == "lift-diff" and rep["timings"] is None


def test_missing_field_is_a_parse_error(tmp_path, capsys):
    doc = _gen_doc(tmp_path)
    del doc["payload"]["complex"]["ranks"]
    path = _write(tmp_path, "bad.json", doc)
    rep = _failed_report_in_out(tmp_path, capsys, ["obstruct-diff", "--complex", path])
    assert rep["error"]["type"] == "ParseError"
    assert "'complex'" in rep["error"]["message"] and "ranks" in rep["error"]["message"]


def test_non_integer_entry_is_a_parse_error(tmp_path, capsys):
    doc = _gen_doc(tmp_path)
    ranks = doc["payload"]["complex"]["ranks"]
    ranks[next(iter(ranks))] = "two"
    path = _write(tmp_path, "bad.json", doc)
    rep = _failed_report_in_out(tmp_path, capsys, ["lift-diff", "--complex", path])
    assert rep["error"]["type"] == "ParseError"
    assert "'complex'" in rep["error"]["message"]


# -- unwritable --out ---------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["gen", "--kind", "differential", "--seed", "3"],
    ["obstruct-diff", "--complex", None],
    ["oracle", "--complex", None],
])
def test_unwritable_out_ends_in_a_failed_report_on_stdout(tmp_path, z4, capsys, argv):
    argv = [_write(tmp_path, "p.json", _z4_doc(z4)) if a is None else a for a in argv]
    out = str(tmp_path / "no" / "such" / "dir" / "x.json")
    code = main(argv + ["--out", out])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1
    assert rep["verdict"] == "failed" and rep["command"] == argv[0]
    assert rep["error"]["type"] == "ParseError"
    assert out in rep["error"]["message"]
    assert rep["schema"] == "report" and rep["timings"] is None


@pytest.mark.parametrize("kind, seed, layout", [
    ("differential", 74, "_int_runs"),   # 59 049 witnesses, 59 049 singleton orbits
    ("map", 29, "_int_rows"),            # 32 orbits of 2
])
def test_out_and_stdout_deliver_the_same_report(tmp_path, capsys, monkeypatch, kind, seed,
                                                layout):
    """The report's bytes go to --out and its text to stdout: the same
    characters, among them those of an array that _int_array writes."""
    doc = _write(tmp_path, "p.json", _gen_doc(tmp_path, kind, seed))
    out = tmp_path / "report.json"
    calls = _count_layout_calls(monkeypatch)
    assert main(["oracle", "--complex", doc, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["oracle", "--complex", doc]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()
    assert layout in calls
    assert json.loads(out.read_bytes())["verdict"] == "verified"


# -- the canonical writer against the reference encoder -----------------------

def _reference_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\t\r\b\f\x00\x1f\x7f é€ 😀'),
                          st.characters()), max_size=8)
_INTS = st.one_of(st.integers(-3, 3), st.integers(), st.integers(-2 ** 80, 2 ** 80))
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, st.floats(), _TEXT)
# int lists, some with True, False or None mixed in
_INT_LISTS = st.one_of(st.lists(_INTS, max_size=6),
                       st.lists(st.one_of(_INTS, st.booleans(), st.none()), max_size=6))
_TREES = st.recursive(
    st.one_of(_SCALARS, _INT_LISTS, _INT_LISTS.map(tuple)),
    lambda kids: st.one_of(st.lists(kids, max_size=4),
                           st.lists(kids, max_size=4).map(tuple),
                           st.dictionaries(_TEXT, kids, max_size=4),
                           st.dictionaries(_INTS, kids, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TREES)
def test_writer_equals_the_reference_encoder(obj):
    assert canonical_json(obj) == _reference_json(obj).encode()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([np.int64, np.int32, np.int8, np.uint16]).flatmap(
           lambda dt: hnp.arrays(dt, hnp.array_shapes(min_dims=1, max_dims=4,
                                                      min_side=0, max_side=4))),
       st.integers(0, 2))
def test_writer_formats_int_arrays_as_their_lists(arr, depth):
    _assert_writes_its_list(arr, depth)


def _assert_writes_its_list(arr, depth):
    obj, ref = arr, arr.tolist()
    for _ in range(depth):   # at deeper indentation, beside a scalar
        obj, ref = {"a": [obj, 1]}, {"a": [ref, 1]}
    assert canonical_json(obj) == _reference_json(ref).encode()


_I64, _I32 = np.iinfo(np.int64), np.iinfo(np.int32)
_WIDTHS = [10 ** (w - 1) for w in range(1, 20)] + [10 ** w - 1 for w in range(1, 19)]
# up to 1000 values of each digit count 1-19, the largest of each, ascending
_EVERY_COUNT = [0] + [v for w in range(1, 20)
                      for v in range(max(10 ** (w - 1), min(10 ** w, 2 ** 63) - 1000),
                                     min(10 ** w, 2 ** 63))]
_EXACT_ARRAYS = {
    "long": np.arange(59049),
    "long column": np.arange(59049).reshape(-1, 1),
    "long row": np.arange(6561).reshape(1, -1),
    "block": np.arange(243).reshape(9, 27) - 121,
    "widths 1-19": np.array(_WIDTHS + [-v for v in _WIDTHS], dtype=np.int64),
    "uint32 edge": np.array([2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, -(2 ** 32 - 1), -(2 ** 32), 0, 99, 100],
                            dtype=np.int64),
    "width 20": np.array([10 ** 19, 2 ** 63, 2 ** 63 + 1, 2 ** 64 - 1, 0, 7], dtype=np.uint64),
    "int64 ends": np.array([[_I64.min, _I64.max], [-1, 0]], dtype=np.int64),
    "int8": np.array([-128, 127, 0, -1], dtype=np.int8),
    "uint16": np.array([[0, 65535], [9, 10]], dtype=np.uint16),
    "int32": np.array([_I32.min, _I32.max, -10], dtype=np.int32),
    "zeros": np.zeros((3, 4), dtype=np.int64),
    "zeros 3d": np.zeros((2, 1, 3), dtype=np.uint8),
    "ascending, every digit count": np.array(_EVERY_COUNT, dtype=np.int64),
    "ascending from -2^63 through 0": np.array(
        [-2 ** 63] + [-v for v in reversed(_EVERY_COUNT[1:])] + list(range(500)), dtype=np.int64),
    "ascending across 2^32": np.array(
        [v for c in (-2 ** 32, 2 ** 32) for v in range(c - 500, c + 500)], dtype=np.int64),
    "ascending across 2^63": np.array(
        [v for c in (2 ** 63, 2 ** 64 - 500) for v in range(c - 500, min(c + 500, 2 ** 64))],
        dtype=np.uint64),
    "ascending with repeats": np.repeat(np.arange(-20, 20), 80).astype(np.int16),
    "column through 0": np.arange(-3000, 3000).reshape(-1, 1),
    "row through 0": np.arange(-3000, 3000).reshape(1, -1),
    "short runs": np.arange(250) - 125,
    "descending": np.arange(6561)[::-1],
    "interleaved orbits": np.arange(6561).reshape(3, -1).T,
}
# how canonical_json writes each: through its list, or by one of _int_array's layouts
_LAYOUTS = {
    "long": "_int_runs", "long column": "_int_runs", "long row": "_int_runs",
    "block": "_int_rows", "widths 1-19": "list", "uint32 edge": "list", "width 20": "list",
    "int64 ends": "list", "int8": "list", "uint16": "list", "int32": "list", "zeros": "list",
    "zeros 3d": "list",
    "ascending, every digit count": "_int_runs", "ascending from -2^63 through 0": "_int_runs",
    "ascending across 2^32": "_int_runs", "ascending across 2^63": "_int_runs",
    "ascending with repeats": "_int_runs", "column through 0": "_int_runs",
    "row through 0": "_int_runs",
    "short runs": "_int_rows", "descending": "_int_rows", "interleaved orbits": "_int_rows",
}


@pytest.mark.parametrize("name", _EXACT_ARRAYS)
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_writer_is_exact_on_long_and_wide_int_arrays(name, depth):
    _assert_writes_its_list(_EXACT_ARRAYS[name], depth)


def _count_layout_calls(monkeypatch):
    calls = []
    for layout in ("_int_runs", "_int_rows"):
        write = getattr(cli, layout)
        monkeypatch.setattr(cli, layout,
                            lambda *args, _w=write, _l=layout: calls.append(_l) or _w(*args))
    return calls


@pytest.mark.parametrize("name", _EXACT_ARRAYS)
def test_each_exact_array_takes_its_layout(name, monkeypatch):
    """Ascending arrays with at most one axis longer than 1 are written run
    by run, other arrays past the crossover in padded rows, and both layouts
    are among the families."""
    assert _LAYOUTS.keys() == _EXACT_ARRAYS.keys()
    assert {"_int_runs", "_int_rows"} <= set(_LAYOUTS.values())
    calls = _count_layout_calls(monkeypatch)
    canonical_json(_EXACT_ARRAYS[name])
    assert calls == ([] if _LAYOUTS[name] == "list" else [_LAYOUTS[name]])


@pytest.mark.parametrize("step", [-1, 0])
def test_writer_is_exact_across_the_run_length_crossover(step, monkeypatch):
    """m copies each of 5, 50 and 500 make four runs (the first element is
    one): written run by run once 3m reaches 4 * _RUN_MIN_LENGTH."""
    m = -(-4 * cli._RUN_MIN_LENGTH // 3) + step
    arr = np.repeat([5, 50, 500], m)
    calls = _count_layout_calls(monkeypatch)
    assert canonical_json({"a": [arr, 1]}) == _reference_json({"a": [arr.tolist(), 1]}).encode()
    assert calls == ["_int_runs" if step == 0 else "_int_rows"]


def _shape(family, n):
    return tuple(n if d == -1 else d for d in family)


def _crossover(family):
    """The least n from which an array of shape _shape(family, n) is written
    by _int_array."""
    n = 1
    while cli._list_work(_shape(family, n)) < cli._INT_ARRAY_MIN_WORK:
        n += 1
    return n


def _count_int_array_calls(monkeypatch):
    calls = []
    write = cli._int_array
    monkeypatch.setattr(cli, "_int_array", lambda a, nl: calls.append(a.shape) or write(a, nl))
    return calls


@pytest.mark.parametrize("step", [-1, 0, 1])
@pytest.mark.parametrize("family", [(-1,), (-1, 1), (1, -1, 1, 1), (-1, -1, 1, 3)])
def test_writer_is_exact_across_the_int_array_crossover(step, family, monkeypatch):
    """Arrays with negative entries just below, at and just above the
    crossover of their shape, among them 1-d arrays and map components (r x r
    entries of 1 x 3 coefficients): each is written as json.dumps writes its
    list, by _int_array from the crossover on."""
    shape = _shape(family, _crossover(family) + step)
    size = math.prod(shape)
    arr = (np.arange(size, dtype=np.int64) - size // 2).reshape(shape)
    calls = _count_int_array_calls(monkeypatch)
    assert canonical_json(arr) == _reference_json(arr.tolist()).encode()
    assert canonical_json({"a": [arr, 1]}) == _reference_json({"a": [arr.tolist(), 1]}).encode()
    assert calls == ([shape] * 2 if step >= 0 else [])


def test_the_crossover_is_later_for_1d_arrays_than_for_map_components():
    # the oracle's witness lists of 81 and 243 candidates are written as lists
    assert _crossover((-1,)) > 243
    assert 3 * _crossover((-1, -1, 1, 3)) ** 2 < 81


@pytest.mark.parametrize("shape", [(400, 0, 2), (0, 400), (0,)])
def test_writer_writes_int_arrays_with_a_zero_axis_as_their_lists(shape, monkeypatch):
    arr = np.zeros(shape, dtype=np.int64)
    calls = _count_int_array_calls(monkeypatch)
    assert canonical_json(arr) == _reference_json(arr.tolist()).encode()
    assert canonical_json({"a": [arr, 1]}) == _reference_json({"a": [arr.tolist(), 1]}).encode()
    assert calls == []


def test_writer_peaks_at_one_and_a_half_reports():
    """An oracle-sized report (59 049 witnesses and as many singleton orbits)
    is written into one buffer of its size, with no array buffer or join
    beside it: canonical_json's traced peak (numpy reports its buffers to
    tracemalloc) stays within 1.5 times the report's length."""
    witnesses = np.arange(0, 3 * 59049, 3)
    obj = {"command": "oracle", "verdict": "verified",
           "witness_indices": witnesses, "orbits": witnesses.reshape(-1, 1)}
    tracemalloc.start()
    try:
        text = canonical_json(obj)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ref = {**obj, "witness_indices": witnesses.tolist(),
           "orbits": witnesses.reshape(-1, 1).tolist()}
    assert text == _reference_json(ref).encode()
    assert peak <= 1.5 * len(text)


def _witness_with_small_and_large_components():
    """A bar-level map over F_3[t]/t^3 whose components have 3 and 75
    coefficients, one below and one above the crossover."""
    defalg = mk_algebra(mk_tower("trunc_poly", 3, a=3, b=2), "trivial")
    src, tgt = GradedObject.of({0: 1, 1: 1}), GradedObject.of({0: 1, 1: 25})
    f = from_coefficients(defalg.bar, src, tgt, 0,
                          np.random.default_rng(7).integers(1, 27, size=3 + 75))
    works = sorted(cli._list_work(blk.shape) for blk in f.blocks().values())
    assert works[0] < cli._INT_ARRAY_MIN_WORK <= works[-1]
    return defalg, f


def test_witness_components_on_both_sides_of_the_crossover_write_their_lists(tmp_path):
    defalg, f = _witness_with_small_and_large_components()
    want = _reference_json(wrap("map", gmap_to_payload(f, "bar", lists=True)))
    assert canonical_json(wrap("map", gmap_to_payload(f, "bar"))) == want.encode()
    path = _write(tmp_path, "f.json", wrap("map", gmap_to_payload(f, "bar")))
    assert open(path).read() == want
    assert gmap_from_payload(defalg, unwrap(load_doc(path), "map")) == f


def _crude_doc(z4):
    obC = GradedObject.of({0: 1, 1: 1})
    E, dbar_D = build_equiv(z4, obC, zero_map(z4.mid, obC, obC, 1), 0)
    pay = {"kind": "crude", "tower": tower_to_payload(z4.tower, Z4_DESC),
           "algebra": {"kind": "trivial"},
           "C": complex_to_payload(E.C, "mid"), "D": complex_to_payload(E.D, "mid"),
           "d_bar_D": gmap_to_payload(dbar_D, "bar")}
    for key in "fgHK":
        pay[key] = gmap_to_payload(getattr(E, key), "mid")
    return wrap("problem", pay)


def test_every_problem_command_writes_the_reference_bytes(tmp_path, z4, capsys, monkeypatch):
    docs = {"crude": _write(tmp_path, "crude.json", _crude_doc(z4))}
    for kind, seed in (("differential", 15), ("map", 0), ("homotopy", 0)):
        docs[kind] = _write(tmp_path, f"{kind}.json", _gen_doc(tmp_path, kind, seed))
    runs = [(cmd, "differential") for cmd in (
        "obstruct-diff", "lift-diff", "classify", "classify-homotopy", "tangent",
        "functor-eval", "schlessinger", "extend-order", "oracle")]
    runs += [("lift-map", "map"), ("lift-homotopy", "homotopy"), ("crude-lift", "crude")]
    written = []
    write = canonical_json
    monkeypatch.setattr(cli, "canonical_json", lambda obj: written.append(obj) or write(obj))
    for cmd, kind in runs:
        flag = "--map" if kind in ("map", "homotopy") else "--complex"
        code = main([cmd, flag, docs[kind]] + (["--trace"] if kind == "crude" else []))
        out = capsys.readouterr().out
        assert code == 0, (cmd, out)
        report = written.pop()
        assert out == _reference_json(json.loads(json.dumps(report, default=np.ndarray.tolist)))
        assert json.loads(out)["verdict"] != "failed"


# -- built-in and custom towers ---------------------------------------------

T332_DESC = ("trunc_poly", 3, (("a", 3), ("b", 2)))


def _t332_docs():
    """A liftable differential (d_0 = t on ranks 1, 1, 1) over
    F_3[t]/t^3 -> F_3[t]/t^2 -> F_3, and the same problem whose tower is
    the custom payload of the built-in one."""
    defalg = mk_algebra(mk_tower("trunc_poly", 3, a=3, b=2), "trivial")
    t = np.zeros((1, 1, 1, 2), dtype=np.int64)
    t[..., 1] = 1
    d = GradedMap.from_arrays(defalg.mid, OB3, OB3, 1, {0: t, 1: np.zeros_like(t)})
    doc = problem_to_doc("differential", defalg, T332_DESC,
                         DifferentialProblem(defalg, OB3, d))
    custom = json.loads(json.dumps(doc))
    custom["payload"]["tower"] = tower_to_payload(defalg.tower)
    assert custom["payload"]["tower"]["kind"] == "custom"
    return doc, custom


@pytest.mark.parametrize("command", ["obstruct-diff", "classify", "functor-eval"])
def test_builtin_and_custom_towers_give_one_report(tmp_path, capsys, command):
    """The closed-form tower and the checked custom copy of it answer alike."""
    outs = []
    for name, doc in zip(("builtin", "custom"), _t332_docs()):
        code = main([command, "--complex", _write(tmp_path, f"{name}.json", doc)])
        outs.append((code, capsys.readouterr().out))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0 and json.loads(outs[0][1])["verdict"] != "failed"


def _corrupt_mult(tower):
    """t^2 * t^2 = t in Rbar, which keeps the table commutative and unital:
    (t t) t^2 = t but t (t t^2) = 0."""
    tower["rbar"]["mult"][2][2] = [0, 1, 0]


def _corrupt_pi(tower):
    tower["pi"] = [[2], [0]]


def _ij_nonzero(tower):
    """F_3[t]/t^3 -> F_3 -> F_3, where I = J = (t) and I*J = (t^2)."""
    tower["r"] = tower["r0"]
    tower["pibar"] = [[1], [0], [0]]
    tower["pi"] = [[1]]


@pytest.mark.parametrize("corrupt, error, message", [
    (_corrupt_mult, "ValidationError", "multiplication table is not associative"),
    (_corrupt_pi, "ValidationError", "map is not unital"),
    (_ij_nonzero, "IJNonzero", "I*J != 0: [0, 1, 0] * [0, 1, 0] != 0"),
])
def test_a_corrupted_custom_tower_still_fails_its_checks(tmp_path, capsys, corrupt,
                                                         error, message):
    _, doc = _t332_docs()
    corrupt(doc["payload"]["tower"])
    code = main(["obstruct-diff", "--complex", _write(tmp_path, "bad.json", doc)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and rep["verdict"] == "failed"
    assert rep["error"] == {"type": error, "message": message}


def test_running_out_of_memory_ends_in_a_failed_report(tmp_path, z4, capsys, monkeypatch):
    """A MemoryError (numpy raises one for an allocation it cannot make) is
    a resource limit: a CapExceeded report in --out, exit 1, never a
    traceback or a verdict."""
    def run(args):
        raise MemoryError("Unable to allocate 381. GiB for an array")
    monkeypatch.setitem(cli.COMMANDS, "obstruct-diff",
                        cli.COMMANDS["obstruct-diff"]._replace(run=run))
    rep = _failed_report_in_out(tmp_path, capsys, [
        "obstruct-diff", "--complex", _write(tmp_path, "p.json", _z4_doc(z4))])
    assert rep["command"] == "obstruct-diff"
    assert rep["error"] == {
        "type": "CapExceeded",
        "message": "memory ran out (Unable to allocate 381. GiB for an array); "
                   "this is a resource limit, not an obstruction"}


@pytest.mark.parametrize("r", [-1, -2])
def test_square_zero_with_negative_r_is_a_validation_error(tmp_path, capsys, r):
    """The tower's parameters are checked before any table is built, so the
    report names r (it was a ParseError about an IndexError or a negative
    dimension)."""
    defalg = mk_algebra(mk_tower("square_zero", 3, r=2), "trivial")
    doc = problem_to_doc("differential", defalg, ("square_zero", 3, (("r", 2),)),
                         DifferentialProblem(defalg, OB3, zero_map(defalg.mid, OB3, OB3, 1)))
    doc["payload"]["tower"]["params"]["r"] = r
    code = main(["obstruct-diff", "--complex", _write(tmp_path, "p.json", doc)])
    rep = json.loads(capsys.readouterr().out)
    assert code == 1 and rep["verdict"] == "failed"
    assert rep["error"] == {"type": "ValidationError", "message": "square_zero requires r >= 0"}


def _zero_complex_doc(rank):
    """The zero differential on ranks (rank, rank, rank) over
    F_3[t]/t^3 -> F_3[t]/t^2 -> F_3: K^1 has dimension 2 rank^2."""
    defalg = mk_algebra(mk_tower("trunc_poly", 3, a=3, b=2), "trivial")
    ob = GradedObject.of({0: rank, 1: rank, 2: rank})
    return problem_to_doc("differential", defalg, T332_DESC,
                          DifferentialProblem(defalg, ob, zero_map(defalg.mid, ob, ob, 1)))


def test_a_count_too_long_to_print_ends_in_a_cap_report(tmp_path, capsys):
    """3^9800 candidates has 4676 decimal digits, more than Python prints:
    the report names the count as a power instead of ending in a ValueError."""
    rep = _failed_report_in_out(tmp_path, capsys, [
        "oracle", "--complex", _write(tmp_path, "p.json", _zero_complex_doc(70))])
    assert rep["error"] == {"type": "CapExceeded",
                            "message": "3^9800 candidates exceed the cap 1048576"}


_LIMITED_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from sqzlift.cli import main
path, out = sys.argv[1], sys.argv[2]
codes = {}
for cmd in sys.argv[3:]:
    codes[cmd] = main([cmd, "--complex", path, "--out", f"{out}/{cmd}.json"])
print(json.dumps(codes))
"""

_LARGE_RANK_COMMANDS = ("obstruct-diff", "lift-diff", "extend-order", "tangent", "classify",
                        "classify-homotopy", "oracle")


def test_a_large_zero_complex_gets_its_verdicts_under_a_memory_limit(tmp_path):
    """Ranks (400, 400, 400), d = 0: K^1 has dimension 320 000, and a dense
    delta_1 would take 381 GiB.  One child process with a 3 GB address-space
    limit runs every command on it: each ends in a JSON report, the lifting
    commands lift, tangent counts every coordinate, and the enumerations end
    at the cap."""
    path = _write(tmp_path, "big.json", _zero_complex_doc(400))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", _LIMITED_CHILD, path, str(tmp_path),
                          *_LARGE_RANK_COMMANDS],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0 and "Traceback" not in run.stderr, run.stderr[-2000:]
    codes = json.loads(run.stdout.splitlines()[-1])
    reports = {cmd: json.loads((tmp_path / f"{cmd}.json").read_text())
               for cmd in _LARGE_RANK_COMMANDS}
    for cmd in ("obstruct-diff", "lift-diff", "extend-order"):
        assert codes[cmd] == 0 and reports[cmd]["verdict"] == "lifts"
    assert reports["obstruct-diff"]["h2_dim"] == 160000
    assert len(reports["lift-diff"]["obstruction"]["coords"]) == 160000
    assert codes["tangent"] == 0 and reports["tangent"]["verdict"] == "verified"
    assert reports["tangent"]["tangent_dim"] == 320000
    for cmd, what in (("classify", "cohomology classes"),
                      ("classify-homotopy", "cohomology classes"), ("oracle", "candidates")):
        assert codes[cmd] == 1 and reports[cmd]["verdict"] == "failed"
        assert reports[cmd]["error"] == {
            "type": "CapExceeded", "message": f"3^320000 {what} exceed the cap 1048576"}
