"""Mutated problem documents always end in exit 0, 1 or 2 with a report."""

import contextlib
import copy
import io
import json
import os
import tempfile
from functools import lru_cache

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sqzlift.cli import (
    complex_to_payload,
    gmap_to_payload,
    load_doc,
    main,
    problem_from_doc,
    save_doc,
    wrap,
)
from sqzlift.obstruction import lift_differential

from conftest import build_equiv

# a mutation may grow a rank, so the commands that enumerate (the oracle's
# candidates, the classes of a torsor, the strict lifts and conjugations of
# the functor) run under a small cap
COMMANDS = {"differential": ["obstruct-diff", "lift-diff", "classify", "classify-homotopy",
                             "oracle"],
            "map": ["lift-map", "classify-homotopy", "oracle"],
            "homotopy": ["lift-homotopy", "oracle"]}
# the commands on the deformation functor of a differential problem
FUNCTOR_COMMANDS = ["tangent", "extend-order", "functor-eval", "schlessinger"]
CAPPED = {"classify", "classify-homotopy", "oracle", "functor-eval", "schlessinger"}
# small values only, so that no mutation asks for a huge ring or complex
VALUES = st.one_of(st.integers(-2, 3), st.sampled_from(["x", None, [], {}, True, 1.5]))
FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@lru_cache(maxsize=None)
def _gen_doc(kind: str, seed: int) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["gen", "--kind", kind, "--seed", str(seed), "--out", path]) == 0
        return json.dumps(load_doc(path))


@lru_cache(maxsize=None)
def _crude_docs() -> tuple[str, ...]:
    """Crude bundles over the first three liftable gen differential
    documents: C plus a contractible two-term summand in C's lowest degree."""
    docs = []
    seed = 0
    while len(docs) < 3:
        _, defalg, prob, pay = problem_from_doc(json.loads(_gen_doc("differential", seed)))
        seed += 1
        if lift_differential(prob).obstructed:
            continue
        E, dbar_D = build_equiv(defalg, prob.ob, prob.d_mid, min(prob.ob.support))
        bundle = {"kind": "crude", "tower": pay["tower"], "algebra": pay["algebra"],
                  "C": complex_to_payload(E.C, "mid", lists=True),
                  "D": complex_to_payload(E.D, "mid", lists=True),
                  "d_bar_D": gmap_to_payload(dbar_D, "bar", lists=True),
                  **{key: gmap_to_payload(getattr(E, key), "mid", lists=True)
                     for key in "fgHK"}}
        docs.append(json.dumps(wrap("problem", bundle)))
    return tuple(docs)


def _paths(node, prefix=()):
    """Every (container path, key) position in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield prefix, k
        yield from _paths(v, prefix + (k,))


def _mutate(doc, data):
    """One or two positions of doc deleted or set to a small value."""
    for _ in range(data.draw(st.integers(1, 2))):
        prefix, key = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for k in prefix:
            parent = parent[k]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(VALUES)


def _assert_ends_in_a_report(command, flag, doc, *extra) -> dict:
    """Run command with doc at flag: exit 0, 1 or 2, nothing on stdout, and
    a report in --out, which is returned."""
    with tempfile.TemporaryDirectory() as d:
        path, out = os.path.join(d, "doc.json"), os.path.join(d, "report.json")
        save_doc(path, doc)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, flag, path, *extra, "--out", out])
        assert code in (0, 1, 2)
        assert stdout.getvalue() == ""
        with open(out) as fh:
            report = json.load(fh)
        assert "verdict" in report and (code == 1) == (report["verdict"] == "failed")
        return report


@FUZZ
@given(st.sampled_from(sorted(COMMANDS)), st.integers(0, 2), st.data())
def test_mutated_gen_documents_end_in_a_report(kind, seed, data):
    doc = copy.deepcopy(json.loads(_gen_doc(kind, seed)))
    _mutate(doc, data)
    command = data.draw(st.sampled_from(COMMANDS[kind]))
    flag = "--map" if command in ("lift-map", "lift-homotopy") else "--complex"
    cap = ["--cap", "4096"] if command in CAPPED else []
    _assert_ends_in_a_report(command, flag, doc, *cap)


@FUZZ
@given(st.sampled_from(FUNCTOR_COMMANDS), st.integers(0, 2), st.data())
def test_mutated_gen_documents_end_in_a_functor_report(command, seed, data):
    doc = copy.deepcopy(json.loads(_gen_doc("differential", seed)))
    _mutate(doc, data)
    cap = ["--cap", "4096"] if command in CAPPED else []
    _assert_ends_in_a_report(command, "--complex", doc, *cap)


@FUZZ
@given(st.integers(0, 2), st.data())
def test_mutated_crude_bundles_end_in_a_report(index, data):
    doc = json.loads(_crude_docs()[index])
    _mutate(doc, data)
    _assert_ends_in_a_report("crude-lift", "--complex", doc, "--trace")


def _integer_fields(pay):
    """(holder, key) of every integer field of a problem payload that names a
    tower or a shape: p, the tower parameters, every rank and every degree."""
    fields = [(pay["tower"], "p")] + [(pay["tower"]["params"], k) for k in pay["tower"]["params"]]
    for part in pay.values():
        if isinstance(part, dict) and "level" in part:
            fields += [(part, "degree")] if "degree" in part else []
            for ranks in ("ranks", "src", "tgt"):
                fields += [(part[ranks], k) for k in part.get(ranks, {})]
    return fields


# what a JSON document may hold in place of an integer
NOT_INTEGERS = st.one_of(st.floats(-3, 3), st.sampled_from(["1", "x", True, False, None, [], {}]))


@FUZZ
@given(st.sampled_from(sorted(COMMANDS)), st.integers(0, 2), st.data())
def test_a_non_integer_tower_rank_or_degree_is_a_parse_error(kind, seed, data):
    """Any value but a JSON integer in p, a tower parameter, a rank or a
    degree, or a tower parameter the kind does not take, ends in a failed
    report with a ParseError: nothing is truncated or converted."""
    doc = json.loads(_gen_doc(kind, seed))
    pay = doc["payload"]
    if data.draw(st.booleans()):
        holder, key = data.draw(st.sampled_from(_integer_fields(pay)))
        holder[key] = data.draw(NOT_INTEGERS)
    else:
        params = pay["tower"]["params"]
        params[data.draw(st.sampled_from(sorted({"a", "b", "r", "c"} - set(params))))] = 1
    command = data.draw(st.sampled_from(COMMANDS[kind]))
    flag = "--map" if command in ("lift-map", "lift-homotopy") else "--complex"
    cap = ["--cap", "4096"] if command in CAPPED else []
    report = _assert_ends_in_a_report(command, flag, doc, *cap)
    assert report["verdict"] == "failed" and report["error"]["type"] == "ParseError"
