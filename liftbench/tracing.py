"""Per-layer tracing of sqzlift from outside the program.

The tracer replaces public functions and methods of the sqzlift modules by
wrappers that time each call and count work.  A function is replaced
wherever a caller looks it up: in its own module, and in every sqzlift
module that bound it with `from ... import`.  Methods are replaced on their
class.  Nothing inside the program changes.

Two kinds of wrapper exist.  A span records (name, start, end, parent span,
op id) and is kept in memory for the first traced pass; a leaf only counts
and times, because it is called tens of thousands of times per op.  Both
keep a frame on the stack, so every name gets an exact self time: its time
minus the time of the wrapped calls made inside it.  A metric's time is the
time inside the outermost wrapped call of its group, so recursion and calls
between functions of one group are not counted twice.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter

import numpy as np

# (metric group, owner, attribute, kind, extra counters)
#   owner is "module" or "module.Class"; kind is "span" or "leaf";
#   extra(args, result) -> {counter: increment}


def _rows_cols(args, res):
    shape = np.shape(args[0])
    return {"rref_cells": int(shape[0]) * int(shape[1]) if len(shape) == 2 else 0}


def _scan(args, res):
    return {"scan_candidates": int(args[5]) - int(args[4]), "scan_hits": len(res)}


def _affine(args, res):
    return {"affine_rows": int(args[5]) - int(args[4])}


TARGETS = [
    ("cli.parse", "cli", "problem_from_doc", "span", None),
    ("cli.emit", "cli", "canonical_json", "span", lambda a, r: {"report_bytes": len(r)}),
    ("finring.ring_eq", "finring.FiniteRing", "__eq__", "leaf", None),
    ("finring.ring_build", "finring.FiniteRing", "__post_init__", "leaf", None),
    ("finring.tower_build", "finring", "mk_tower", "span", None),
    ("algebra.alg_eq", "algebra.LevelAlgebra", "__eq__", "leaf", None),
    ("algebra.algmatrix_build", "algebra.AlgMatrix", "__post_init__", "leaf", None),
    ("algebra.matmul", "algebra.LevelAlgebra", "matmul", "leaf", None),
    ("algebra.codec", "algebra.DeformedAlgebra", "kernel_coords", "leaf", None),
    ("algebra.codec", "algebra.DeformedAlgebra", "kernel_matrix", "leaf", None),
    ("complexes.gradedmap_build", "complexes.GradedMap", "__post_init__", "leaf", None),
    ("complexes.delta_matrix", "complexes.HomComplex", "delta_matrix", "span",
     lambda a, r: {"delta_matrix_cols": int(r.shape[1])}),
    ("cohomology.kernel_delta", "cohomology.KernelComplex", "delta_matrix", "span", None),
    ("cohomology.codec", "cohomology.KernelComplex", "into_kernel", "span", None),
    ("cohomology.codec", "cohomology.KernelComplex", "out_of_kernel", "span", None),
    ("cohomology.coh_class", "cohomology.KernelComplex", "coh_class", "span", None),
    ("cohomology.all_classes", "cohomology.KernelComplex", "all_classes", "span",
     lambda a, r: {"classes_enumerated": len(r)}),
    ("gf.rref", "gf", "rref", "span", _rows_cols),
    ("gf.scan", "gf", "scan_affine_zero", "span", _scan),
    ("gf.affine", "gf", "affine_combinations", "leaf", _affine),
    ("obstruction.obstruct", "obstruction", "obstruct_differential", "span", None),
    ("obstruction.obstruct", "obstruction", "obstruct_map", "span", None),
    ("obstruction.obstruct", "obstruction", "obstruct_homotopy", "span", None),
    ("obstruction.lift", "obstruction", "lift_differential", "span", None),
    ("obstruction.lift", "obstruction", "lift_map", "span", None),
    ("obstruction.lift", "obstruction", "lift_homotopy", "span", None),
    ("obstruction.classify", "obstruction", "classify_lifts", "span", None),
    ("obstruction.classify", "obstruction", "classify_map_lifts", "span", None),
    ("obstruction.classify", "obstruction", "classify_homotopy_lifts_of", "span", None),
    ("crude", "crude", "crude_lift", "span", None),
    ("crude", "crude", "classify_homotopy_lifts", "span", None),
    ("crude", "crude", "classify_homotopy_map_lifts", "span", None),
    ("crude", "crude", "h_minus1_guard", "span", None),
    ("oracle.oracle", "oracle", "oracle_differential", "span", None),
    ("oracle.oracle", "oracle", "oracle_map", "span", None),
    ("oracle.oracle", "oracle", "oracle_homotopy", "span", None),
    ("oracle.witness", "oracle", "witness_differential", "span", None),
    ("oracle.witness", "oracle", "witness_map", "span", None),
    ("oracle.witness", "oracle", "witness_homotopy", "span", None),
    ("defun.strict_lifts", "defun", "strict_lifts", "span", None),
    ("defun.iso_orbits", "defun", "iso_orbits", "span", None),
    ("defun.unipotent_inverse", "defun", "unipotent_inverse", "leaf", None),
]

# affine_combinations is also the numpy scan's inner step; only calls made
# outside a scan count as the orbit partition's work
SKIP_INSIDE = {"gf.affine": "gf.scan"}

# per-layer metric -> (source, key): "time" of a group, "calls" of a group,
# or an extra counter
LAYER_METRICS = {
    "cli.parse_s": ("time", "cli.parse"),
    "cli.emit_s": ("time", "cli.emit"),
    "cli.report_bytes": ("count", "report_bytes"),
    "finring.ring_eq_calls": ("calls", "finring.ring_eq"),
    "finring.ring_eq_s": ("time", "finring.ring_eq"),
    "finring.ring_builds": ("calls", "finring.ring_build"),
    "finring.tower_builds_s": ("time", "finring.tower_build"),
    "algebra.alg_eq_calls": ("calls", "algebra.alg_eq"),
    "algebra.algmatrix_builds": ("calls", "algebra.algmatrix_build"),
    "algebra.matmul_calls": ("calls", "algebra.matmul"),
    "algebra.matmul_s": ("time", "algebra.matmul"),
    "algebra.codec_calls": ("calls", "algebra.codec"),
    "algebra.codec_s": ("time", "algebra.codec"),
    "complexes.gradedmap_builds": ("calls", "complexes.gradedmap_build"),
    "complexes.delta_matrix_calls": ("calls", "complexes.delta_matrix"),
    "complexes.delta_matrix_cols": ("count", "delta_matrix_cols"),
    "complexes.delta_matrix_s": ("time", "complexes.delta_matrix"),
    "cohomology.kernel_delta_s": ("time", "cohomology.kernel_delta"),
    "cohomology.codec_s": ("time", "cohomology.codec"),
    "cohomology.coh_class_calls": ("calls", "cohomology.coh_class"),
    "cohomology.classes_enumerated": ("count", "classes_enumerated"),
    "gf.rref_calls": ("calls", "gf.rref"),
    "gf.rref_cells": ("count", "rref_cells"),
    "gf.rref_s": ("time", "gf.rref"),
    "gf.scan_candidates": ("count", "scan_candidates"),
    "gf.scan_hits": ("count", "scan_hits"),
    "gf.scan_s": ("time", "gf.scan"),
    "gf.affine_rows": ("count", "affine_rows"),
    "gf.affine_s": ("time", "gf.affine"),
    "obstruction.obstruct_s": ("time", "obstruction.obstruct"),
    "obstruction.lift_s": ("time", "obstruction.lift"),
    "obstruction.classify_s": ("time", "obstruction.classify"),
    "crude.s": ("time", "crude"),
    "oracle.oracle_s": ("time", "oracle.oracle"),
    "oracle.witness_calls": ("calls", "oracle.witness"),
    "defun.strict_lifts_s": ("time", "defun.strict_lifts"),
    "defun.iso_orbits_s": ("time", "defun.iso_orbits"),
    "defun.unipotent_inverse_calls": ("calls", "defun.unipotent_inverse"),
    "defun.unipotent_inverse_s": ("time", "defun.unipotent_inverse"),
}


class Tracer:
    """Installs the wrappers, and collects spans, counts and times by pass."""

    def __init__(self, sq):
        self.sq = sq
        self.stack: list[list] = []        # [name, child time, span id or None]
        self.span_ids: list[int] = []      # ids of the open spans
        self.depth: Counter = Counter()
        self.spans: list[tuple] = []
        self.keep_spans = True
        self.op = -1
        self.next_id = 0
        self.passes: list[dict] = []
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    # -- installing ------------------------------------------------------

    def install(self):
        mods = [getattr(self.sq, m) for m in vars(self.sq)]
        for group, owner, attr, kind, extra in TARGETS:
            modname, _, clsname = owner.partition(".")
            holder = getattr(self.sq, modname)
            if clsname:
                holder = getattr(holder, clsname, None)
            orig = getattr(holder, attr, None) if holder is not None else None
            if orig is None:
                self.missing.append(f"{owner}.{attr}")
                continue
            wrapped = self._wrap(group, f"{owner}.{attr}", orig, kind, extra)
            if clsname:
                self._undo.append((holder, attr, orig))
                setattr(holder, attr, wrapped)
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()

    def _wrap(self, group: str, name: str, fn, kind: str, extra):
        tr = self
        skip = SKIP_INSIDE.get(group)

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            if skip and tr.depth[skip]:
                return fn(*args, **kw)
            sid = None
            if kind == "span":
                sid = tr.next_id
                tr.next_id += 1
            parent = tr.span_ids[-1] if tr.span_ids else None
            frame = [name, 0.0, sid]
            tr.stack.append(frame)
            if sid is not None:
                tr.span_ids.append(sid)
            tr.depth[group] += 1
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kw)
            finally:
                t1 = time.perf_counter()
                tr.stack.pop()
                tr.depth[group] -= 1
                if sid is not None:
                    tr.span_ids.pop()
                dt = t1 - t0
                cur = tr.cur
                if tr.stack:
                    tr.stack[-1][1] += dt
                if not tr.depth[group]:
                    cur["time"][group] += dt
                cur["calls"][group] += 1
                cur["self"][name] += dt - frame[1]
                cur["name_calls"][name] += 1
                if sid is not None and tr.keep_spans:
                    tr.spans.append((name, t0, t1, parent, tr.op, sid))
            if extra is not None:
                for key, val in extra(args, res).items():
                    tr.cur["count"][key] += val
            return res

        return wrapper

    # -- passes and ops ------------------------------------------------------

    def begin_pass(self):
        self.cur = {"time": Counter(), "calls": Counter(), "count": Counter(),
                    "self": Counter(), "name_calls": Counter(), "op_s": 0.0}
        self.passes.append(self.cur)

    def end_pass(self):
        self.keep_spans = False

    def run_op(self, op_id: int, name: str, fn):
        """Run one op as the root span of its own spans."""
        self.op = op_id
        sid = self.next_id
        self.next_id += 1
        frame = [f"op:{name}", 0.0, sid]
        self.stack.append(frame)
        self.span_ids.append(sid)
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.span_ids.pop()
            self.cur["op_s"] += t1 - t0
            self.cur["self"]["op"] += (t1 - t0) - frame[1]
            if self.keep_spans:
                self.spans.append((frame[0], t0, t1, None, op_id, sid))

    # -- results -------------------------------------------------------------

    def counts_repeat(self) -> bool:
        """True when every traced pass made exactly the same calls and counts."""
        keys = [(p["calls"], p["count"], p["name_calls"]) for p in self.passes]
        return all(k == keys[0] for k in keys)

    def layer_metrics(self) -> dict[str, float]:
        """Per pass: counts of the first pass, median time over passes."""
        out = {}
        first = self.passes[0]
        for metric, (src, key) in LAYER_METRICS.items():
            if src == "time":
                out[metric] = statistics.median(p["time"][key] for p in self.passes)
            elif src == "calls":
                out[metric] = int(first["calls"][key])
            else:
                out[metric] = int(first["count"][key])
        return out

    def self_times(self) -> dict[str, float]:
        names = set().union(*(p["self"] for p in self.passes))
        return {n: statistics.median(p["self"][n] for p in self.passes) for n in sorted(names)}

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        return {
            "span_fields": ["name", "start_us", "end_us", "parent", "op", "id"],
            "span_names": names,
            "spans": [[index[n], round((a - t0) * 1e6, 1), round((b - t0) * 1e6, 1), par, op, sid]
                      for n, a, b, par, op, sid in self.spans],
            "passes": [{"calls": dict(p["calls"]), "count": dict(p["count"]),
                        "time_s": dict(p["time"]), "op_s": p["op_s"]} for p in self.passes],
            "self_s": self.self_times(),
            "missing": self.missing,
        }
