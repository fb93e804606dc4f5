"""Command-line front end: JSON document formats and report emission.

Documents are JSON objects {"schema": s, "version": 1, "payload": ...} with
s in {tower, algebra, complex, map, problem}.  Serialization is canonical
(sorted keys, plain decimal integers), so parse -> serialize round-trips
byte-identically and repeated runs produce identical reports.  Reports carry
"verdict" in {lifts, obstructed, classified, verified, failed}; obstructed is
exit status 2 (a mathematical outcome), errors are exit status 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import contextmanager

import numpy as np

from . import __version__, defun
from .algebra import AlgMatrix, DeformedAlgebra, dual_numbers_algebra, mk_algebra
from .complexes import Complex, GradedMap, GradedObject, PreComplex
from .crude import (
    HomotopyEquivData,
    classify_homotopy_lifts,
    classify_homotopy_map_lifts,
    crude_lift,
)
from .errors import ParseError, SchemaMismatch, SqzliftError, ValidationError
from .finring import FiniteRing, RingSurjection, Tower, mk_tower, trunc_poly_ring
from .obstruction import (
    Classification,
    DifferentialProblem,
    HomotopyProblem,
    LiftReport,
    MapProblem,
    classify_lifts,
    lift_differential,
    lift_homotopy,
    lift_map,
    obstruct_differential,
    obstruct_homotopy,
    obstruct_map,
)
from .oracle import (
    DEFAULT_CAP,
    gen_instance,
    oracle_differential,
    oracle_homotopy,
    oracle_map,
)

DOC_VERSION = 1
SCHEMAS = ("tower", "algebra", "complex", "map", "problem")


# ---------------------------------------------------------------------------
# canonical JSON
# ---------------------------------------------------------------------------

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _ilist(a) -> list:
    return np.asarray(a, dtype=np.int64).tolist()


def wrap(schema: str, payload: dict) -> dict:
    if schema not in SCHEMAS:
        raise SchemaMismatch(f"unknown schema {schema!r}")
    return {"schema": schema, "version": DOC_VERSION, "payload": payload}


def unwrap(doc: dict, schema: str) -> dict:
    if not isinstance(doc, dict) or "schema" not in doc:
        raise SchemaMismatch("document is missing the schema field")
    if doc["schema"] != schema:
        raise SchemaMismatch(f"expected schema {schema!r}, got {doc['schema']!r}")
    if doc.get("version") != DOC_VERSION:
        raise SchemaMismatch("unsupported document version")
    if "payload" not in doc:
        raise SchemaMismatch("document is missing the payload field")
    return doc["payload"]


def load_doc(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e


def save_doc(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(doc))


# ---------------------------------------------------------------------------
# rings and towers
# ---------------------------------------------------------------------------

def ring_to_payload(ring: FiniteRing) -> dict:
    return {"p": int(ring.p), "orders": _ilist(ring.orders),
            "mult": _ilist(ring.mult), "names": list(ring.names)}


def ring_from_payload(pay: dict) -> FiniteRing:
    return FiniteRing(int(pay["p"]), np.asarray(pay["orders"], dtype=np.int64),
                      np.asarray(pay["mult"], dtype=np.int64),
                      tuple(pay["names"]))


def tower_to_payload(tower: Tower, desc: tuple | None = None) -> dict:
    if desc is not None:
        kind, p, params = desc
        return {"kind": kind, "p": int(p), "params": dict(params)}
    return {"kind": "custom", "p": int(tower.Rbar.p),
            "rbar": ring_to_payload(tower.Rbar),
            "r": ring_to_payload(tower.R),
            "r0": ring_to_payload(tower.R0),
            "pibar": _ilist(tower.pibar.images),
            "pi": _ilist(tower.pi.images)}


def tower_from_payload(pay: dict) -> Tower:
    kind = pay["kind"]
    p = int(pay["p"])
    if kind == "custom":
        rbar = ring_from_payload(pay["rbar"])
        r = ring_from_payload(pay["r"])
        r0 = ring_from_payload(pay["r0"])
        pibar = RingSurjection(rbar, r, np.asarray(pay["pibar"], dtype=np.int64))
        pi = RingSurjection(r, r0, np.asarray(pay["pi"], dtype=np.int64))
        return mk_tower("custom", p, Rbar=rbar, R=r, R0=r0, pibar=pibar, pi=pi)
    params = {k: int(v) for k, v in pay.get("params", {}).items()}
    return mk_tower(kind, p, **params)


def algebra_to_payload(defalg: DeformedAlgebra, kind: str = "custom") -> dict:
    if kind == "trivial":
        return {"kind": "trivial"}
    return {"kind": "custom", "struct": _ilist(defalg.bar.struct),
            "unit": _ilist(defalg.bar.unit)}


def algebra_from_payload(tower: Tower, pay: dict) -> DeformedAlgebra:
    kind = pay["kind"]
    if kind == "trivial":
        return mk_algebra(tower, "trivial")
    if kind == "dual_numbers":
        return dual_numbers_algebra(tower)
    if kind == "custom":
        return mk_algebra(tower, "custom",
                          struct=np.asarray(pay["struct"], dtype=np.int64),
                          unit=np.asarray(pay["unit"], dtype=np.int64))
    raise SchemaMismatch(f"unknown algebra kind {kind!r}")


# ---------------------------------------------------------------------------
# graded objects, maps, complexes
# ---------------------------------------------------------------------------

def ranks_to_payload(ob: GradedObject) -> dict:
    return {str(d): int(r) for d, r in ob.ranks}


def ranks_from_payload(pay: dict) -> GradedObject:
    return GradedObject.of({int(k): int(v) for k, v in pay.items()})


def gmap_to_payload(f: GradedMap, level: str) -> dict:
    return {"level": level, "degree": int(f.degree),
            "src": ranks_to_payload(f.src), "tgt": ranks_to_payload(f.tgt),
            "comps": {str(i): _ilist(m.data) for i, m in sorted(f.comps.items())}}


def gmap_from_payload(defalg: DeformedAlgebra, pay: dict) -> GradedMap:
    alg = defalg.level(pay["level"])
    src = ranks_from_payload(pay["src"])
    tgt = ranks_from_payload(pay["tgt"])
    n = int(pay["degree"])
    comps = {}
    for k, data in pay["comps"].items():
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 4 or arr.shape[2] != defalg.k or arr.shape[3] != alg.ring.m:
            raise SchemaMismatch(f"component {k} has wrong coefficient shape")
        comps[int(k)] = AlgMatrix(alg, arr)
    return GradedMap(alg, src, tgt, n, comps)


def complex_to_payload(X, level: str) -> dict:
    return {"level": level, "ranks": ranks_to_payload(X.ob),
            "d": {str(i): _ilist(m.data) for i, m in sorted(X.d.comps.items())}}


def complex_from_payload(defalg: DeformedAlgebra, pay: dict,
                         strict: bool = True):
    """Build a complex from a document; strict enforces d^2 = 0."""
    alg = defalg.level(pay["level"])
    ob = ranks_from_payload(pay["ranks"])
    comps = {}
    for k, data in pay["d"].items():
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 4 or arr.shape[2] != defalg.k or arr.shape[3] != alg.ring.m:
            raise SchemaMismatch(f"differential component {k} has wrong shape")
        comps[int(k)] = AlgMatrix(alg, arr)
    d = GradedMap(alg, ob, ob, 1, comps)
    if strict:
        return Complex(alg, ob, d)
    return PreComplex(alg, ob, d)


# ---------------------------------------------------------------------------
# problem bundles
# ---------------------------------------------------------------------------

def problem_to_doc(kind: str, defalg: DeformedAlgebra, tower_desc, prob,
                   algebra_kind: str = "trivial", meta: dict | None = None) -> dict:
    pay = {"kind": kind,
           "tower": tower_to_payload(defalg.tower, tower_desc),
           "algebra": algebra_to_payload(defalg, algebra_kind)}
    if meta:
        pay["meta"] = meta
    if kind == "differential":
        pay["complex"] = complex_to_payload(
            type("X", (), {"ob": prob.ob, "d": prob.d_mid}), "mid")
    elif kind == "map":
        pay["C"] = complex_to_payload(prob.C, "bar")
        pay["D"] = complex_to_payload(prob.D, "bar")
        pay["f"] = gmap_to_payload(prob.f_mid, "mid")
    elif kind == "homotopy":
        pay["C"] = complex_to_payload(prob.C, "bar")
        pay["D"] = complex_to_payload(prob.D, "bar")
        pay["f"] = gmap_to_payload(prob.f_bar, "bar")
        pay["g"] = gmap_to_payload(prob.g_bar, "bar")
        pay["H"] = gmap_to_payload(prob.H_mid, "mid")
    else:
        raise SchemaMismatch(f"unknown problem kind {kind!r}")
    return wrap("problem", pay)


@contextmanager
def _field(name: str):
    """Report a missing or malformed field as a ParseError that names it."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError, OverflowError) as e:
        raise ParseError(f"malformed field {name!r}: {type(e).__name__}: {e}") from e


def problem_from_doc(doc: dict):
    """Parse a problem bundle; returns (kind, defalg, problem object, payload)."""
    pay = unwrap(doc, "problem")

    def part(key, parse=gmap_from_payload):
        with _field(key):
            return parse(defalg, pay[key])

    with _field("tower"):
        tower = tower_from_payload(pay["tower"])
    with _field("algebra"):
        defalg = algebra_from_payload(tower, pay["algebra"])
    with _field("kind"):
        kind = pay["kind"]
    if kind == "differential":
        with _field("complex"):
            X = complex_from_payload(defalg, pay["complex"], strict=False)
        prob = DifferentialProblem(defalg, X.ob, X.d)
    elif kind in ("map", "homotopy", "crude"):
        C = part("C", complex_from_payload)
        D = part("D", complex_from_payload)
        if kind == "map":
            prob = MapProblem(defalg, C, D, part("f"))
        elif kind == "homotopy":
            prob = HomotopyProblem(defalg, C, D, part("f"), part("g"), part("H"))
        else:
            E = HomotopyEquivData(defalg, C, D, part("f"), part("g"), part("H"),
                                  part("K"))
            prob = (E, part("d_bar_D"))
    else:
        raise SchemaMismatch(f"unknown problem kind {kind!r}")
    return kind, defalg, prob, pay


def _load_problem(args, expect: str | None = None):
    """Load the problem for a command, either from a problem bundle given by
    --complex/--map, or from separate tower/algebra/complex documents."""
    path = args.complex or args.map
    if path is None:
        raise ParseError("a problem or complex document is required")
    doc = load_doc(path)
    if isinstance(doc, dict) and doc.get("schema") == "problem":
        kind, defalg, prob, pay = problem_from_doc(doc)
    else:
        if not args.tower:
            raise ParseError("--tower is required with a bare complex document")
        with _field("tower"):
            tower = tower_from_payload(unwrap(load_doc(args.tower), "tower"))
        with _field("algebra"):
            if args.algebra:
                defalg = algebra_from_payload(
                    tower, unwrap(load_doc(args.algebra), "algebra"))
            else:
                defalg = mk_algebra(tower, "trivial")
        with _field("complex"):
            X = complex_from_payload(defalg, unwrap(doc, "complex"), strict=True)
        if X.d.alg != defalg.mid:
            raise SchemaMismatch("the complex must be given at the mid level")
        prob = DifferentialProblem(defalg, X.ob, X.d)
        kind, pay = "differential", None
    if expect is not None and kind != expect:
        raise SchemaMismatch(f"command needs a {expect} problem, got {kind}")
    return kind, defalg, prob


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _coh_payload(cls) -> dict | None:
    if cls is None:
        return None
    return {"degree": int(cls.n), "coords": [int(x) for x in cls.rep]}


def _classification_payload(cl: Classification) -> dict:
    return {"torsor_degree": int(cl.torsor_degree), "h_dim": int(cl.h_dim),
            "count": int(cl.count),
            "class_reps": [_coh_payload(c) for c in cl.class_reps],
            "witnesses": [gmap_to_payload(r, "bar") for r in cl.reps]}


def emit(args, report: dict, exit_code: int) -> int:
    report = dict(report)
    report.setdefault("schema", "report")
    report.setdefault("version", DOC_VERSION)
    report.setdefault("tool", f"sqzlift {__version__}")
    report.setdefault("timings", None)
    text = canonical_json(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"sqzlift {report.get('command', '')}: verdict {report['verdict']}",
          file=sys.stderr)
    return exit_code


def _lift_report(cmd: str, rep: LiftReport, level: str = "bar") -> tuple[dict, int]:
    body = {"command": cmd, "obstruction": _coh_payload(rep.obstruction)}
    if rep.obstructed:
        body["verdict"] = "obstructed"
        return body, 2
    body["verdict"] = "lifts"
    if rep.lifted is not None:
        body["witness"] = gmap_to_payload(rep.lifted, level)
    return body, 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_obstruct_diff(args) -> int:
    _, _, prob = _load_problem(args, "differential")
    cls, _ = obstruct_differential(prob)
    verdict = "obstructed" if not cls.is_zero else "lifts"
    return emit(args, {"command": "obstruct-diff", "verdict": verdict,
                       "obstruction": _coh_payload(cls),
                       "h2_dim": int(prob.kernel.h_dim(2))},
                2 if not cls.is_zero else 0)


def cmd_lift_diff(args) -> int:
    _, _, prob = _load_problem(args, "differential")
    body, code = _lift_report("lift-diff", lift_differential(prob))
    return emit(args, body, code)


def cmd_classify(args) -> int:
    _, _, prob = _load_problem(args, "differential")
    rep = lift_differential(prob)
    if rep.obstructed:
        return emit(args, {"command": "classify", "verdict": "obstructed",
                           "obstruction": _coh_payload(rep.obstruction)}, 2)
    cl = classify_lifts(prob, rep.lifted)
    return emit(args, {"command": "classify", "verdict": "classified",
                       "obstruction": _coh_payload(rep.obstruction),
                       "classification": _classification_payload(cl)}, 0)


def cmd_lift_map(args) -> int:
    _, _, prob = _load_problem(args, "map")
    body, code = _lift_report("lift-map", lift_map(prob))
    return emit(args, body, code)


def cmd_lift_homotopy(args) -> int:
    _, _, prob = _load_problem(args, "homotopy")
    body, code = _lift_report("lift-homotopy", lift_homotopy(prob))
    return emit(args, body, code)


def cmd_crude_lift(args) -> int:
    kind, defalg, prob = _load_problem(args)
    if kind != "crude":
        raise SchemaMismatch("crude-lift needs a problem bundle of kind crude")
    E, dbar_D = prob
    res = crude_lift(E, dbar_D, collect_trace=args.trace)
    body = {"command": "crude-lift", "verdict": "lifts",
            "d_C": gmap_to_payload(res.d_C, "bar"),
            "f": gmap_to_payload(res.f, "bar"),
            "g": gmap_to_payload(res.g, "bar"),
            "H": gmap_to_payload(res.H, "bar"),
            "K": gmap_to_payload(res.K, "bar")}
    if args.trace:
        body["trace"] = res.trace
    return emit(args, body, 0)


def cmd_classify_homotopy(args) -> int:
    kind, defalg, prob = _load_problem(args)
    if kind == "differential":
        rep, cl = classify_homotopy_lifts(prob)
        if rep.obstructed:
            return emit(args, {"command": "classify-homotopy",
                               "verdict": "obstructed",
                               "obstruction": _coh_payload(rep.obstruction)}, 2)
        return emit(args, {"command": "classify-homotopy",
                           "verdict": "classified",
                           "obstruction": _coh_payload(rep.obstruction),
                           "classification": _classification_payload(cl)}, 0)
    if kind == "map":
        hm = classify_homotopy_map_lifts(prob, cap=args.cap)
        body = {"command": "classify-homotopy",
                "obstruction": _coh_payload(hm.obstruction),
                "guard": hm.guard,
                "torsor_guaranteed": bool(hm.torsor_guaranteed)}
        if hm.obstructed:
            body["verdict"] = "obstructed"
            return emit(args, body, 2)
        body["verdict"] = "classified"
        if hm.lifted is not None:
            body["witness"] = gmap_to_payload(hm.lifted, "bar")
        if hm.classification is not None:
            body["classification"] = _classification_payload(hm.classification)
        return emit(args, body, 0)
    raise SchemaMismatch("classify-homotopy needs a differential or map problem")


def cmd_tangent(args) -> int:
    _, defalg, prob = _load_problem(args, "differential")
    dim = defun.tangent_dim(defalg.base, prob.ob, prob.d_base)
    return emit(args, {"command": "tangent", "verdict": "verified",
                       "tangent_dim": int(dim)}, 0)


def cmd_functor_eval(args) -> int:
    _, defalg, prob = _load_problem(args, "differential")
    A = defun.ArtinLocalRing(defalg.tower.Rbar)
    body = {"command": "functor-eval", "verdict": "verified",
            "ring_size": int(A.ring.cardinality),
            "tangent_dim": int(defun.tangent_dim(defalg.base, prob.ob,
                                                 prob.d_base))}
    values = defun.functor_eval(A, defalg.base, prob.ob, prob.d_base, cap=args.cap)
    for tag, val in values.items():
        body[tag] = {"size": len(val.classes),
                     "classes": [list(c) for c in val.classes],
                     "elements": [list(e) for e in val.elements]}
    return emit(args, body, 0)


def cmd_schlessinger(args) -> int:
    _, defalg, prob = _load_problem(args, "differential")
    p = defalg.p
    small = mk_tower("trunc_poly", p, a=2, b=1).pibar
    smooth = mk_tower("trunc_poly", p, a=3, b=2).pibar
    rep = defun.schlessinger_check(defalg.base, prob.ob, prob.d_base,
                                   [(small, small)], [smooth], cap=args.cap)
    body = {"command": "schlessinger", "verdict": "verified",
            "triples": [{"f0_bijective": t.f0_bijective,
                         "f_surjective": t.f_surjective,
                         "f_bijective": t.f_bijective,
                         "sizes": t.sizes} for t in rep.triples],
            "smooth": [{"pairs_checked": s.pairs_checked,
                        "vacuous": s.vacuous, "ok": s.ok} for s in rep.smooth]}
    return emit(args, body, 0)


def cmd_extend_order(args) -> int:
    _, defalg, prob = _load_problem(args, "differential")
    p = defalg.p
    tower = defalg.tower
    # the tower must be a one-step truncated-polynomial tower
    b = tower.R.m
    if tower.R != trunc_poly_ring(p, b) or tower.Rbar != trunc_poly_ring(p, b + 1):
        raise ValidationError(
            "extend-order needs the one-step truncated-polynomial tower")
    rep = lift_differential(prob)
    body, code = _lift_report("extend-order", rep)
    body["from_order"] = int(b)
    body["to_order"] = int(b + 1)
    return emit(args, body, code)


def cmd_oracle(args) -> int:
    kind, defalg, prob = _load_problem(args)
    if kind == "differential":
        res = oracle_differential(prob, cap=args.cap, workers=args.workers)
        cls, _ = obstruct_differential(prob)
    elif kind == "map":
        res = oracle_map(prob, cap=args.cap, workers=args.workers)
        cls, _ = obstruct_map(prob)
    elif kind == "homotopy":
        res = oracle_homotopy(prob, cap=args.cap, workers=args.workers)
        cls, _ = obstruct_homotopy(prob)
    else:
        raise SchemaMismatch("oracle needs a differential, map, or homotopy problem")
    agree = (res.num_witnesses > 0) == cls.is_zero
    body = {"command": "oracle", "kind": kind,
            "candidates": int(res.candidates),
            "kdim": int(res.kdim),
            "num_witnesses": int(res.num_witnesses),
            "num_classes": int(res.num_classes),
            "witness_indices": res.witness_indices.tolist(),
            "orbits": [list(o) for o in res.orbits],
            "obstruction": _coh_payload(cls),
            "agrees_with_obstruction": bool(agree)}
    if not agree:
        body["verdict"] = "failed"
        return emit(args, body, 1)
    if res.num_witnesses == 0:
        body["verdict"] = "obstructed"
        return emit(args, body, 2)
    body["verdict"] = "verified"
    return emit(args, body, 0)


def cmd_gen(args) -> int:
    inst = gen_instance(args.kind, args.seed, cap=args.cap)
    doc = problem_to_doc(inst.kind, inst.defalg, inst.tower_desc, inst.problem,
                         algebra_kind="trivial",
                         meta={"seed": int(args.seed),
                               **{k: list(v) if isinstance(v, tuple) else v
                                  for k, v in inst.meta.items()}})
    text = canonical_json(doc)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"sqzlift gen: {args.kind} instance, seed {args.seed}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "obstruct-diff": cmd_obstruct_diff,
    "lift-diff": cmd_lift_diff,
    "classify": cmd_classify,
    "lift-map": cmd_lift_map,
    "lift-homotopy": cmd_lift_homotopy,
    "crude-lift": cmd_crude_lift,
    "classify-homotopy": cmd_classify_homotopy,
    "tangent": cmd_tangent,
    "functor-eval": cmd_functor_eval,
    "schlessinger": cmd_schlessinger,
    "extend-order": cmd_extend_order,
    "oracle": cmd_oracle,
    "gen": cmd_gen,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sqzlift",
        description="exact lifting of complexes along square-zero deformations")
    ap.add_argument("--version", action="version", version=f"sqzlift {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--tower", default=None, help="tower document")
        sp.add_argument("--algebra", default=None, help="algebra document")
        sp.add_argument("--complex", default=None,
                        help="complex document or problem bundle")
        sp.add_argument("--map", default=None,
                        help="map document or problem bundle")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--cap", type=int, default=DEFAULT_CAP)
        sp.add_argument("--out", default=None, help="write the report here")
        sp.add_argument("--trace", action="store_true")
        sp.add_argument("--workers", type=int, default=1)
        if name == "gen":
            sp.add_argument("--kind", default="differential",
                            choices=["differential", "map", "homotopy"])
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except SqzliftError as e:
        print(f"sqzlift {args.command}: error: {e}", file=sys.stderr)
        return emit(args, {"command": args.command, "verdict": "failed",
                           "error": {"type": type(e).__name__, "message": str(e)}}, 1)


if __name__ == "__main__":
    sys.exit(main())
