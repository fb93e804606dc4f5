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

from sqzlift.cli import load_doc, main, save_doc

# a mutation may grow a rank, so the commands that enumerate (the oracle's
# candidates, the classes of a torsor) run under a small cap
COMMANDS = {"differential": ["obstruct-diff", "lift-diff", "classify", "classify-homotopy",
                             "oracle"],
            "map": ["lift-map", "classify-homotopy", "oracle"],
            "homotopy": ["lift-homotopy", "oracle"]}
CAPPED = {"classify", "classify-homotopy", "oracle"}
# small values only, so that no mutation asks for a huge ring or complex
VALUES = st.one_of(st.integers(-2, 3), st.sampled_from(["x", None, [], {}, True, 1.5]))


@lru_cache(maxsize=None)
def _gen_doc(kind: str, seed: int) -> str:
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.json")
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["gen", "--kind", kind, "--seed", str(seed), "--out", path]) == 0
        return json.dumps(load_doc(path))


def _paths(node, prefix=()):
    """Every (container path, key) position in a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for k, v in items:
        yield prefix, k
        yield from _paths(v, prefix + (k,))


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(COMMANDS)), st.integers(0, 2), st.data())
def test_mutated_gen_documents_end_in_a_report(kind, seed, data):
    doc = copy.deepcopy(json.loads(_gen_doc(kind, seed)))
    for _ in range(data.draw(st.integers(1, 2))):
        prefix, key = data.draw(st.sampled_from(list(_paths(doc))))
        parent = doc
        for k in prefix:
            parent = parent[k]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(VALUES)
    command = data.draw(st.sampled_from(COMMANDS[kind]))
    flag = "--map" if command in ("lift-map", "lift-homotopy") else "--complex"
    with tempfile.TemporaryDirectory() as d:
        path, out = os.path.join(d, "doc.json"), os.path.join(d, "report.json")
        save_doc(path, doc)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            cap = ["--cap", "4096"] if command in CAPPED else []
            code = main([command, flag, path, *cap, "--out", out])
        assert code in (0, 1, 2)
        assert stdout.getvalue() == ""
        with open(out) as fh:
            assert "verdict" in json.load(fh)
