"""Command-line front end: JSON document formats and report emission.

Documents are JSON objects {"schema": s, "version": 1, "payload": ...} with
s in {tower, algebra, complex, map, problem}.  Serialization is canonical
(sorted keys, plain decimal integers), so parse -> serialize round-trips
byte-identically and repeated runs produce identical reports.
`canonical_json` returns the ASCII bytes of `json.dumps(obj, sort_keys=True,
indent=2)` (as bytes or a memoryview), written by itself: a list of ints is joined with `str` in one
call, and an integer ndarray past a size crossover (reports hold map
components, witness lists and orbits as arrays) is written in a few numpy
passes: run by run if it is ascending along one axis, in padded rows
otherwise.  A report with such an array is one buffer of its exact size,
which each array fills its own slice of; the report goes to --out in binary
mode (to stdout as text).  Reports
carry "verdict" in {lifts, obstructed, classified, verified, failed};
obstructed is exit status 2 (a mathematical outcome), errors (usage errors
too) are exit status 1.  Each command takes only the flags it reads (`COMMANDS`).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from contextlib import contextmanager
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, defun
from .algebra import DeformedAlgebra, dual_numbers_algebra, mk_algebra
from .cohomology import CohClass
from .complexes import Complex, GradedMap, GradedObject, PreComplex
from .crude import (
    HomotopyEquivData,
    classify_homotopy_lifts,
    classify_homotopy_map_lifts,
    crude_lift,
)
from .errors import CapExceeded, ParseError, SchemaMismatch, SqzliftError
from .finring import FiniteRing, RingSurjection, Tower, mk_tower
from .gf import DEFAULT_CAP
from .obstruction import (
    Classification,
    DifferentialProblem,
    HomotopyProblem,
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

# an array's exact byte count and the step that writes its text into a uint8 slice of that size
_Fill = tuple[int, Callable[[np.ndarray], None]]


def canonical_json(obj) -> bytes | memoryview:
    """`json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True)` and a
    newline, as ASCII bytes, without the pure-Python encoder that `indent`
    selects.  An integer ndarray is written as its `tolist()` would be: by
    `_int_array`, with no Python object per element, once `_list_work` of its
    shape reaches _INT_ARRAY_MIN_WORK, and below that through the list
    itself.  The list costs about a sixth of a microsecond per element and
    about one per list, so `_int_array`'s fixed cost of a few tens of
    microseconds is met at about 244 elements for a 1-d array but at 48
    (r = 4) for map components (r x r entries of 1 x 3 coefficients).
    `_int_array` has two layouts: an array with at most one axis longer than
    1 that is ascending, and whose runs of one text width average
    _RUN_MIN_LENGTH elements, is written run by run (`_int_runs`: the
    oracle's witness lists and singleton or single orbits); any other array
    in padded rows (`_int_rows`: map components among them).  Both give the
    array's exact byte count and a step that writes its text into a slice of
    that size.  A report with such an array is written into one uninitialized
    uint8 buffer of its exact size (a bytearray would be zero-filled first),
    returned as a memoryview, which compares equal to its bytes and whose
    len() is its byte count: each stretch of text around the arrays is
    encoded once and copied in, `_int_runs` writes its runs into its slice
    and `_int_rows` copies its compacted bytes into its slice once.  A report
    with no such array is joined and encoded once, as bytes.
    The `emit` rows of benchmarks/bench_kernels.py measure both crossovers."""
    out: list[str | _Fill] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    pieces: list[bytes | _Fill] = []
    for kind, run in itertools.groupby(out, type):
        if kind is str:
            pieces.append("".join(run).encode())
        else:
            pieces += run
    if len(pieces) == 1:
        return pieces[0]
    sizes = [len(p) if type(p) is bytes else p[0] for p in pieces]
    # uninitialized: every byte is filled below; text goes in through a
    # memoryview (its slice assignment copies faster than numpy's), arrays
    # through the uint8 array itself
    view = np.empty(sum(sizes), dtype=np.uint8)
    mem = memoryview(view)
    off = 0
    for p, n in zip(pieces, sizes):
        if type(p) is bytes:
            mem[off:off + n] = p
        else:
            p[1](view[off:off + n])
        off += n
    return mem


_escape = json.encoder.encode_basestring_ascii


def _write_json(o, nl: str, out: list[str | _Fill]) -> None:
    """Append the indented JSON of o to out, as str pieces and, for integer
    arrays past the crossover, their byte counts and fills; nl is a newline
    followed by the indentation of the line that o starts on."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        if set(map(type, o)) == {int}:   # exact ints: str is their JSON
            out.append("[" + inner + ("," + inner).join(map(str, o)) + nl + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                if not (k is None or isinstance(k, (int, float))):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {k.__class__.__name__}")
                k = json.dumps(k)
            out.append(sep + _escape(k) + ": ")
            _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, str):
        out.append(_escape(o))
    elif isinstance(o, np.ndarray):
        if o.dtype.kind in "iu" and o.size and _list_work(o.shape) >= _INT_ARRAY_MIN_WORK:
            out.append(_int_array(o, nl))
        else:
            _write_json(o.tolist(), nl, out)
    else:
        out.append(json.dumps(o))


def _list_work(shape: tuple[int, ...]) -> int:
    """The cost of writing an array of this shape through its list, in
    elements: one per element and _LIST_WEIGHT per list that `tolist()` makes."""
    return math.prod(shape) + _LIST_WEIGHT * sum(math.prod(shape[:k])
                                                 for k in range(len(shape)))


# one list costs about as much to write as this many elements
_LIST_WEIGHT = 6
# the list work from which _int_array writes an integer array faster than its list
_INT_ARRAY_MIN_WORK = 250
# a digit pair's text by value and place: inside the number, leading (no leading 0) or before it
_PAIR_TEXT = np.frombuffer("".join([f"{v:02d}" for v in range(100)]
                                   + [f"{v:2d}" for v in range(100)]).replace(" ", "\0").encode()
                           + bytes(200), dtype=np.uint16)


def _int_array(a: np.ndarray, nl: str) -> _Fill:
    """The indented JSON of a nonempty integer array, as `tolist()` would be
    written, as the byte count of its ASCII text and the step that writes it
    into a uint8 slice of that size, in one of two layouts.  An
    element's text is the text before it (the closing and opening of lists,
    a comma and the indentation), its sign and its digits.  When at most one
    axis is longer than 1 and the array is ascending, that text changes width
    only where the sign or the digit count changes (`_width_runs`), and once
    the runs average _RUN_MIN_LENGTH elements the array is written run by
    run (`_int_runs`); the oracle's witness lists and its singleton or
    single orbits are such arrays.  Any other array, map components among
    them, takes the padded rows of `_int_rows`.  The choice costs one
    comparison pass and a searchsorted of at most 39 cuts, and nothing
    beyond the shape for an array with two axes longer than 1."""
    d = a.ndim
    ind = [nl + "  " * k for k in range(d + 1)]   # indentation at depth k
    closes, opens = [""], [""]                    # [j]: the text that closes, opens j lists
    for k in range(d - 1, -1, -1):
        closes.append(closes[-1] + ind[k] + "]")
        opens.append("[" + ind[k + 1] + opens[-1])
    before = {j: closes[j] + "," + ind[d - j] + opens[j]
              for j in range(d) if a.shape[d - 1 - j] > 1}   # the j that some element has
    before[d] = opens[d]
    flat = a.reshape(-1)
    if len(before) == 2 and (flat[1:] >= flat[:-1]).all():
        starts = _width_runs(flat)
        if flat.size >= _RUN_MIN_LENGTH * (len(starts) - 1):
            return _int_runs(flat, starts, before[d], before[min(before)], closes[d])
    return _int_rows(a, before, closes[d])


# the mean run length from which _int_runs writes an ascending array as fast
# as _int_rows (bench_kernels `emit runs` rows: slower at a mean run of 205
# elements, even at 410, faster at 819)
_RUN_MIN_LENGTH = 400
# where the text of ascending integers changes width: 0 and, for each k, 1 - 10^k and 10^k
_WIDTH_CUTS = [0] + [v for k in range(1, 20) for v in (1 - 10 ** k, 10 ** k)]


@functools.cache
def _quad_text() -> np.ndarray:
    """"0000" to "9999" as uint32 words, each two digit pairs side by side;
    made on first use, so that a command that writes no ascending array
    does not hold it."""
    return np.stack(np.broadcast_arrays(_PAIR_TEXT[:100, None], _PAIR_TEXT[None, :100]),
                    axis=2).view(np.uint32).reshape(-1)


def _width_runs(flat: np.ndarray) -> list[int]:
    """The starts of the runs of an ascending 1-d array over which its text
    width is constant (the first element apart, whose text opens the lists),
    and its size: the searchsorted positions of _WIDTH_CUTS between its ends."""
    lo, hi = int(flat[0]), int(flat[-1])
    cuts = np.array([v for v in _WIDTH_CUTS if lo < v <= hi], dtype=flat.dtype)
    return sorted({0, 1, flat.size, *np.searchsorted(flat, cuts).tolist()})


def _int_runs(flat: np.ndarray, starts: list[int], first: str, text: str,
             end: str) -> _Fill:
    """The JSON bytes of an ascending 1-d array whose runs between `starts`
    have one text width each: the first element after `first`, every other
    after `text`, then `end`; as their exact count and the step that writes
    them into a slice of that size.  Each run is a dense (n, w) block of the
    slice: the text before the element (and a sign) is copied into every row
    by doubling, and the digits are written through strided columns, four at
    a time from a table of 10 000 words, then a pair and a last digit.  A
    run's digit count is exact, so no byte is padding."""
    runs, size = [], 0
    for s, e in zip(starts, starts[1:]):
        x = int(flat[s])
        head, k = ((first if s == 0 else text) + "-" * (x < 0)).encode(), len(str(abs(x)))
        runs.append((s, e, head, k, x < 0))
        size += (e - s) * (len(head) + k)

    def fill(buf: np.ndarray) -> None:
        buf[size:] = np.frombuffer(end.encode(), dtype=np.uint8)
        udt = np.uint32 if max(int(flat[-1]), -int(flat[0])) < 1 << 32 else np.uint64
        off = 0
        for s, e, head, k, neg in runs:
            n, w = e - s, len(head) + k
            buf[off:off + len(head)] = np.frombuffer(head, dtype=np.uint8)
            done = w
            while done < n * w:   # the head of every row, by doubling the rows written
                step = min(done, n * w - done)
                buf[off + done:off + done + step] = buf[off:off + step]
                done += step
            q = flat[s:e].astype(udt)
            if neg:
                np.negative(q, out=q)   # the cast wrapped negatives, so -q is |x|
            col = off + w   # the end of the digits not yet written
            for width, dt, table in ((4, np.uint32, _quad_text()), (2, np.uint16, _PAIR_TEXT)):
                while k >= width:
                    rest = q // 10 ** width
                    np.take(table, q - rest * 10 ** width, mode="clip",
                            out=np.ndarray((n,), dt, buf, col - width, (w,)))
                    q, col, k = rest, col - width, k - width
            if k:
                np.add(q, ord("0"), out=np.ndarray((n,), np.uint8, buf, col - 1, (w,)),
                       casting="unsafe")
            off += n * w
    return size + len(end), fill


def _int_rows(a: np.ndarray, before: dict[int, str], end: str) -> _Fill:
    """The JSON bytes of an integer array, then `end`, built in one buffer of
    byte rows, one per element, with `end` after them: the text before the
    element (`before[j]`), a sign byte if some element is negative and its
    digits, padded with 0 bytes, which are dropped at the end; as their count
    and the step that copies them into a slice of that size.  The text
    before an element closes and reopens j lists, j the number of its
    trailing indices that are 0 (the first element, j = ndim, only opens
    them), and is written through one strided view of the rows for each j.
    The digits come two at a time, each pair's text looked up by its value
    and place."""
    d = a.ndim
    flat = a.reshape(-1)
    lo, hi = int(flat.min()), int(flat.max())
    npairs = (len(str(max(hi, -lo))) + 1) // 2
    start = (max(map(len, before.values())) + (lo < 0) + 1) // 2 * 2   # pairs from an even byte
    width = start + 2 * npairs
    out = np.zeros(flat.size * width + len(end), dtype=np.uint8)
    out[flat.size * width:] = np.frombuffer(end.encode(), dtype=np.uint8)
    buf = out[:flat.size * width].reshape(flat.size, width)
    rows = buf.view(f"V{width}").reshape(a.shape)   # a row is 0-padded on assignment
    for j, text in before.items():
        rows[(Ellipsis, slice(1, None)) + (0,) * j if j < d else (0,) * d] = text.encode()
    q = flat.astype(np.uint32 if max(hi, -lo) < 1 << 32 else np.uint64)
    if lo < 0:
        neg = flat < 0
        np.negative(q, out=q, where=neg)   # the cast wrapped negatives, so -q is |x|
        buf[neg, start - 1] = ord("-")
    for i in range(npairs - 1, -1, -1):   # the least significant pair first
        rest = q // 100
        # the pair's place: 0 inside the number, 1 its leading pair, 2 before it
        place = (rest == 0).view(np.uint8) + (q == 0) * (i < npairs - 1)
        buf.view(np.uint16)[:, start // 2 + i] = _PAIR_TEXT[(q - rest * 100 + place * 100)
                                                            .astype(np.intp)]
        q = rest
    text = out[out != 0]
    return text.size, functools.partial(np.copyto, src=text)


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
    with open(path, "wb") as fh:
        fh.write(canonical_json(doc))


# ---------------------------------------------------------------------------
# rings and towers
# ---------------------------------------------------------------------------

def _integer(value, name: str) -> int:
    """A JSON integer, exactly: TypeError naming it for a bool, float,
    string or anything else, which _field reports as a ParseError."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def ring_to_payload(ring: FiniteRing) -> dict:
    return {"p": int(ring.p), "orders": _ilist(ring.orders),
            "mult": _ilist(ring.mult), "names": list(ring.names)}


def ring_from_payload(pay: dict) -> FiniteRing:
    return FiniteRing(_integer(pay["p"], "p"), np.asarray(pay["orders"], dtype=np.int64),
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
    """The tower of a payload.  p and a built-in kind's parameters are JSON
    integers, and mk_tower takes exactly the kind's own parameters (TypeError
    otherwise), so each built-in tower has one spelling."""
    kind = pay["kind"]
    p = _integer(pay["p"], "p")
    if kind == "custom":
        rbar = ring_from_payload(pay["rbar"])
        r = ring_from_payload(pay["r"])
        r0 = ring_from_payload(pay["r0"])
        pibar = RingSurjection(rbar, r, np.asarray(pay["pibar"], dtype=np.int64))
        pi = RingSurjection(r, r0, np.asarray(pay["pi"], dtype=np.int64))
        return mk_tower("custom", p, Rbar=rbar, R=r, R0=r0, pibar=pibar, pi=pi)
    params = {k: _integer(v, f"params.{k}") for k, v in pay.get("params", {}).items()}
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
    return GradedObject.of({int(k): _integer(v, f"rank {k}") for k, v in pay.items()})


def _comps_payload(f: GradedMap, lists: bool) -> dict:
    """The nonzero components of f, keyed by degree: int64 arrays, which
    canonical_json writes as their lists, or with lists the lists themselves."""
    return {str(i): blk[0].tolist() if lists else blk[0] for i, blk in f.blocks().items()}


def _gmap_from_comps(alg, src: GradedObject, tgt: GradedObject, n: int, comps: dict,
                     bad_shape: str) -> GradedMap:
    """The map with the given component payloads, shapes checked here once:
    SchemaMismatch(bad_shape with the key) for a wrong coefficient shape,
    ShapeMismatch for a component that does not fit the ranks."""
    arrays = {}
    for k, data in comps.items():
        arr = np.asarray(data, dtype=np.int64)
        if arr.ndim != 4 or arr.shape[2] != alg.k or arr.shape[3] != alg.ring.m:
            raise SchemaMismatch(bad_shape.format(k))
        arrays[int(k)] = arr
    return GradedMap.from_arrays(alg, src, tgt, n, arrays)


def gmap_to_payload(f: GradedMap, level: str, lists: bool = False) -> dict:
    """The payload of f; its components are arrays unless lists is set."""
    return {"level": level, "degree": int(f.degree),
            "src": ranks_to_payload(f.src), "tgt": ranks_to_payload(f.tgt),
            "comps": _comps_payload(f, lists)}


def gmap_from_payload(defalg: DeformedAlgebra, pay: dict) -> GradedMap:
    alg = defalg.level(pay["level"])
    src = ranks_from_payload(pay["src"])
    tgt = ranks_from_payload(pay["tgt"])
    return _gmap_from_comps(alg, src, tgt, _integer(pay["degree"], "degree"), pay["comps"],
                            "component {} has wrong coefficient shape")


def complex_to_payload(X, level: str, lists: bool = False) -> dict:
    """The payload of X; its differential's components are arrays unless
    lists is set."""
    return {"level": level, "ranks": ranks_to_payload(X.ob), "d": _comps_payload(X.d, lists)}


def complex_from_payload(defalg: DeformedAlgebra, pay: dict,
                         strict: bool = True):
    """Build a complex from a document; strict enforces d^2 = 0."""
    alg = defalg.level(pay["level"])
    ob = ranks_from_payload(pay["ranks"])
    d = _gmap_from_comps(alg, ob, ob, 1, pay["d"], "differential component {} has wrong shape")
    return (Complex if strict else PreComplex)(alg, ob, d)


# ---------------------------------------------------------------------------
# problem bundles
# ---------------------------------------------------------------------------

def problem_to_doc(kind: str, defalg: DeformedAlgebra, tower_desc, prob,
                   algebra_kind: str = "trivial", meta: dict | None = None) -> dict:
    """The problem document; it holds lists, not arrays, so that documents
    compare with ==."""
    pay = {"kind": kind,
           "tower": tower_to_payload(defalg.tower, tower_desc),
           "algebra": algebra_to_payload(defalg, algebra_kind)}
    if meta:
        pay["meta"] = meta
    if kind == "differential":
        pay["complex"] = complex_to_payload(
            PreComplex(defalg.mid, prob.ob, prob.d_mid), "mid", lists=True)
    elif kind == "map":
        pay["C"] = complex_to_payload(prob.C, "bar", lists=True)
        pay["D"] = complex_to_payload(prob.D, "bar", lists=True)
        pay["f"] = gmap_to_payload(prob.f_mid, "mid", lists=True)
    elif kind == "homotopy":
        pay["C"] = complex_to_payload(prob.C, "bar", lists=True)
        pay["D"] = complex_to_payload(prob.D, "bar", lists=True)
        pay["f"] = gmap_to_payload(prob.f_bar, "bar", lists=True)
        pay["g"] = gmap_to_payload(prob.g_bar, "bar", lists=True)
        pay["H"] = gmap_to_payload(prob.H_mid, "mid", lists=True)
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


def _load_problem(args):
    """Load the problem of a command from its --complex or --map document:
    a problem bundle, or a bare complex document with --tower (and
    optionally --algebra), which is always a differential problem.
    SchemaMismatch if the command needs another kind of problem."""
    expect = COMMANDS[args.command].kind
    path = getattr(args, "complex", None) or getattr(args, "map", None)
    if path is None:
        raise ParseError("a problem or complex document is required")
    doc = load_doc(path)
    bundle = isinstance(doc, dict) and doc.get("schema") == "problem"
    kind, defalg, prob, _ = problem_from_doc(doc) if bundle else ("differential", None, None, None)
    if expect is not None and kind != expect:
        raise SchemaMismatch(f"command needs a {expect} problem, got {kind}")
    return (kind, defalg, prob) if bundle else (kind, *_bare_problem(args, doc))


def _bare_problem(args, doc: dict):
    """(defalg, differential problem) of a bare complex document over the
    --tower and --algebra documents."""
    if not args.tower:
        raise ParseError("--tower is required with a bare complex document")
    with _field("tower"):
        tower = tower_from_payload(unwrap(load_doc(args.tower), "tower"))
    with _field("algebra"):
        defalg = algebra_from_payload(tower, unwrap(load_doc(args.algebra), "algebra")
                                      if args.algebra else {"kind": "trivial"})
    with _field("complex"):
        X = complex_from_payload(defalg, unwrap(doc, "complex"), strict=True)
    if X.d.alg != defalg.mid:
        raise SchemaMismatch("the complex must be given at the mid level")
    return defalg, DifferentialProblem(defalg, X.ob, X.d)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _coh_payload(cls) -> dict:
    return {"degree": int(cls.n), "coords": [int(x) for x in cls.rep]}


def _classification_payload(cl: Classification) -> dict:
    return {"torsor_degree": int(cl.torsor_degree), "h_dim": int(cl.h_dim),
            "count": int(cl.count),
            "class_reps": [_coh_payload(c) for c in cl.class_reps],
            "witnesses": [gmap_to_payload(r, "bar") for r in cl.reps]}


def _deliver(args, text: bytes | memoryview) -> bool:
    """Write the report's bytes to --out, or its text to stdout without
    --out.  If --out cannot be written, a failed report that names it goes
    to stdout and this is False."""
    if not args.out:
        sys.stdout.write(str(text, "ascii"))
        return True
    try:
        with open(args.out, "wb") as fh:
            fh.write(text)
    except OSError as e:
        _fail(argparse.Namespace(**{**vars(args), "out": None}),
              ParseError(f"cannot write {args.out}: {e}"))
        return False
    return True


def emit(args, report: dict, exit_code: int) -> int:
    report = {"schema": "report", "version": DOC_VERSION,
              "tool": f"sqzlift {__version__}", "timings": None, **report}
    if not _deliver(args, canonical_json(report)):
        return 1
    print(f"{_prog(report['command'])}: verdict {report['verdict']}", file=sys.stderr)
    return exit_code


def _prog(command: str | None) -> str:
    return f"sqzlift {command}" if command else "sqzlift"


def _fail(args, e: SqzliftError) -> int:
    print(f"{_prog(args.command)}: error: {e}", file=sys.stderr)
    return emit(args, {"command": args.command, "verdict": "failed",
                       "error": {"type": type(e).__name__, "message": str(e)}}, 1)


def _decided(args, obstruction: CohClass, verdict: str,
             found: Callable[[], dict] = dict, **fields) -> int:
    """Emit the report of a command that decides an obstruction class: verdict
    obstructed with exit status 2 if the class is nonzero, else `verdict`
    with the fields of found() and exit status 0; `fields` go in both."""
    body = {"command": args.command, "obstruction": _coh_payload(obstruction), **fields}
    if not obstruction.is_zero:
        return emit(args, {**body, "verdict": "obstructed"}, 2)
    return emit(args, {**body, "verdict": verdict, **found()}, 0)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

# The per-kind functions below are looked up by their module names at each
# call, so that wrappers installed on those names (liftbench/tracing.py)
# see the calls.

def cmd_obstruct_diff(args) -> int:
    _, _, prob = _load_problem(args)
    cls, _ = obstruct_differential(prob)
    return _decided(args, cls, "lifts", h2_dim=int(prob.kernel.h_dim(2)))


def cmd_lift(args) -> int:
    """lift-diff, lift-map and lift-homotopy."""
    kind, _, prob = _load_problem(args)
    lift = {"differential": lift_differential, "map": lift_map,
            "homotopy": lift_homotopy}[kind]
    rep = lift(prob)
    return _decided(args, rep.obstruction, "lifts",
                    lambda: {"witness": gmap_to_payload(rep.lifted, "bar")})


def cmd_classify(args) -> int:
    _, _, prob = _load_problem(args)
    rep = lift_differential(prob)
    return _decided(args, rep.obstruction, "classified", lambda: {
        "classification": _classification_payload(classify_lifts(prob, rep.lifted, args.cap))})


def cmd_crude_lift(args) -> int:
    _, _, (E, dbar_D) = _load_problem(args)
    res = crude_lift(E, dbar_D, collect_trace=args.trace)
    body = {"command": "crude-lift", "verdict": "lifts",
            **{k: gmap_to_payload(getattr(res, k), "bar") for k in ("d_C", "f", "g", "H", "K")}}
    if args.trace:
        body["trace"] = res.trace
    return emit(args, body, 0)


def cmd_classify_homotopy(args) -> int:
    kind, _, prob = _load_problem(args)
    if kind == "differential":
        rep, cl = classify_homotopy_lifts(prob, args.cap)
        return _decided(args, rep.obstruction, "classified",
                        lambda: {"classification": _classification_payload(cl)})
    if kind != "map":
        raise SchemaMismatch("classify-homotopy needs a differential or map problem")
    hm = classify_homotopy_map_lifts(prob, cap=args.cap)
    return _decided(args, hm.obstruction, "classified", lambda: {
        "witness": gmap_to_payload(hm.lifted, "bar"),
        "classification": _classification_payload(hm.classification)},
        guard=hm.guard, torsor_guaranteed=bool(hm.torsor_guaranteed))


def cmd_tangent(args) -> int:
    _, defalg, prob = _load_problem(args)
    dim = defun.tangent_dim(defalg.base, prob.ob, prob.d_base)
    return emit(args, {"command": "tangent", "verdict": "verified",
                       "tangent_dim": int(dim)}, 0)


def cmd_functor_eval(args) -> int:
    _, defalg, prob = _load_problem(args)
    A = defun.artin_ring(defalg.tower.Rbar)
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
    _, defalg, prob = _load_problem(args)
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
    _, defalg, prob = _load_problem(args)
    rep = defun.extend_order(prob)
    b = defalg.tower.R.m
    return _decided(args, rep.obstruction, "lifts",
                    lambda: {"witness": gmap_to_payload(rep.lifted, "bar")},
                    from_order=int(b), to_order=int(b + 1))


def cmd_oracle(args) -> int:
    kind, _, prob = _load_problem(args)
    pairs = {"differential": (oracle_differential, obstruct_differential),
             "map": (oracle_map, obstruct_map),
             "homotopy": (oracle_homotopy, obstruct_homotopy)}
    if kind not in pairs:
        raise SchemaMismatch("oracle needs a differential, map, or homotopy problem")
    oracle, obstruct = pairs[kind]
    res = oracle(prob, cap=args.cap)
    cls, _ = obstruct(prob)
    agree = (res.num_witnesses > 0) == cls.is_zero
    body = {"kind": kind,
            "candidates": int(res.candidates),
            "kdim": int(res.kdim),
            "num_witnesses": int(res.num_witnesses),
            "num_classes": int(res.num_classes),
            "witness_indices": res.witness_indices,
            "orbits": res.orbits,
            "agrees_with_obstruction": bool(agree)}
    if agree:   # then the scan found no witness iff the class is nonzero
        return _decided(args, cls, "verified", **body)
    return emit(args, {**body, "command": args.command, "verdict": "failed",
                       "obstruction": _coh_payload(cls)}, 1)


def cmd_gen(args) -> int:
    inst = gen_instance(args.kind, args.seed, cap=args.cap)
    doc = problem_to_doc(inst.kind, inst.defalg, inst.tower_desc, inst.problem,
                         algebra_kind="trivial",
                         meta={"seed": int(args.seed),
                               **{k: list(v) if isinstance(v, tuple) else v
                                  for k, v in inst.meta.items()}})
    if not _deliver(args, canonical_json(doc)):
        return 1
    print(f"sqzlift gen: {args.kind} instance, seed {args.seed}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    flags: str              # the flags it takes besides --out
    kind: str | None = None  # the problem kind it needs; None: run checks it


FLAGS = {
    "complex": {"help": "problem bundle, or a complex document at the mid level"},
    "map": {"help": "problem bundle of kind map or homotopy"},
    "tower": {"help": "tower document, with a bare complex document"},
    "algebra": {"help": "algebra document, with a bare complex document"},
    "cap": {"type": int, "default": DEFAULT_CAP, "help": "enumeration cap"},
    "trace": {"action": "store_true", "help": "report the checks of every stage"},
    "kind": {"default": "differential", "choices": ["differential", "map", "homotopy"]},
    "seed": {"type": int, "default": 0},
    "workers": {"type": int, "default": 1, "help": "ignored (old command lines still run)"},
    "out": {"help": "write the report here"},
}

_PROBLEM = "complex tower algebra"   # a problem bundle, or a bare complex
COMMANDS = {
    "obstruct-diff": Command(cmd_obstruct_diff, _PROBLEM + " workers", "differential"),
    "lift-diff": Command(cmd_lift, _PROBLEM + " workers", "differential"),
    "classify": Command(cmd_classify, _PROBLEM + " cap workers", "differential"),
    "lift-map": Command(cmd_lift, "map workers", "map"),
    "lift-homotopy": Command(cmd_lift, "map workers", "homotopy"),
    "crude-lift": Command(cmd_crude_lift, "complex trace", "crude"),
    "classify-homotopy": Command(cmd_classify_homotopy, _PROBLEM + " cap workers"),
    "tangent": Command(cmd_tangent, _PROBLEM + " workers", "differential"),
    "functor-eval": Command(cmd_functor_eval, _PROBLEM + " cap workers", "differential"),
    "schlessinger": Command(cmd_schlessinger, _PROBLEM + " cap", "differential"),
    "extend-order": Command(cmd_extend_order, _PROBLEM + " workers", "differential"),
    "oracle": Command(cmd_oracle, _PROBLEM + " cap workers"),
    "gen": Command(cmd_gen, "kind seed cap"),
}


class _Parser(argparse.ArgumentParser):
    """Raises ParseError on a usage error, so that it ends in a report."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


class _CommandParser(_Parser):
    """A subcommand's parser: it reports an argument it does not take
    itself, so that the usage printed is the subcommand's."""

    def parse_known_args(self, args=None, namespace=None):
        args, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error("unrecognized arguments: " + " ".join(extra))
        return args, extra


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, _CommandParser]]:
    """The program's parser and each command's own parser, by name."""
    ap = _Parser(prog="sqzlift",
                 description="exact lifting of complexes along square-zero deformations")
    ap.add_argument("--version", action="version", version=f"sqzlift {__version__}")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name)
        for flag in command.flags.split() + ["out"]:
            sp.add_argument(f"--{flag}", **FLAGS[flag])
    return ap, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _parsers()[0]


def parse_args(argv: list[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv).  An argv that starts with a command
    goes straight to that command's parser, which is all the program's
    parser would do with it (it hands the command's parser the rest of argv
    and sets `command`), at under half the cost."""
    if argv and argv[0] in COMMANDS:
        return _parsers()[1][argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a usage error's report names the command if argv starts with one
    args = argparse.Namespace(command=argv[0] if argv and argv[0] in COMMANDS else None,
                              out=None)
    try:
        args = parse_args(argv)
        return COMMANDS[args.command].run(args)
    except SqzliftError as e:
        return _fail(args, e)
    except MemoryError as e:
        detail = f" ({e})" if str(e) else ""
        return _fail(args, CapExceeded(f"memory ran out{detail}; this is a resource "
                                       "limit, not an obstruction"))


if __name__ == "__main__":
    sys.exit(main())
