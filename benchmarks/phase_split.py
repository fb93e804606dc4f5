"""Split a liftbench pass into the command line's phases, in process.

Builds the documents of one liftbench workload through liftbench's
`workloads` (into a temporary directory; the repository is only read), runs
every op of the workload through `sqzlift.cli.main` once to warm up, then
`--passes` times, and prints the milliseconds and minor page faults per pass
that each phase took: argparse, the document read, the tower, the algebra,
the rest of the problem parse, each compute entry point the commands call,
`canonical_json` and the file write, with "other" for the rest of
`cli.main`.  The warm-up pass also fills what the process keeps between
commands: the shared built-in towers, their algebras and the orbit data of
their rings (see `finring.mk_tower`), and the orbit generators of every
(ring algebra, graded object) pair that the workload meets
(`defun._generators`).  So the passes measured find them built: the `tower`
and `algebra` phases are lookups, and `iso_orbits` does not rebuild its
m-adapted basis, multipliers or generators.  A one-shot command builds all
of them once.  The `argparse` phase is the parse of the command's own
parser (`cli.parse_args`).  As liftbench's runner
does, the report is removed before each op, so the file write creates the
file (rewriting one truncates it, which costs more).  A phase's time and
faults are its own: a phase that runs inside another (the tower inside the
parse, `iso_orbits` inside `functor_eval`) is counted only under its own
name.  The timers are plain
`perf_counter` and `getrusage` pairs around the functions, with no
profiler, so the split adds a few microseconds per call.

Usage:  python3 benchmarks/phase_split.py --workload functor [--seed 1] [--passes 20]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import resource
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "liftbench"))

import workloads  # noqa: E402

# (phase, module name, function name) of the fixed phases
FIXED = [("document read", "cli", "load_doc"),
         ("tower", "cli", "tower_from_payload"),
         ("algebra", "cli", "algebra_from_payload"),
         ("parse", "cli", "problem_from_doc"),
         ("canonical_json", "cli", "canonical_json"),
         ("file write", "cli", "_deliver")]
# compute entry points that the commands reach as module attributes, and the
# steps of functor_eval that get their own line
DEFUN = ["functor_eval", "tangent_dim", "schlessinger_check", "extend_order",
         "strict_lifts", "iso_orbits"]
COMPUTE_MODULES = ("sqzlift.obstruction", "sqzlift.crude", "sqzlift.oracle")


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Timers:
    """Self time, minor page faults and calls per phase; nested phases are
    subtracted."""

    def __init__(self):
        self.time: dict[str, float] = {}
        self.faults: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.stack: list[list] = []   # [time, faults] of the children of each open phase

    def wrap(self, phase: str, fn):
        def timed(*args, **kwargs):
            self.stack.append([0.0, 0])
            f0, t0 = _minflt(), perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent, faults = perf_counter() - t0, _minflt() - f0
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1][0] += spent
                    self.stack[-1][1] += faults
                self.time[phase] = self.time.get(phase, 0.0) + spent - children[0]
                self.faults[phase] = self.faults.get(phase, 0) + faults - children[1]
                self.calls[phase] = self.calls.get(phase, 0) + 1
        return timed


def instrument(sq, timers: Timers) -> None:
    """Put a timer around every phase, in the modules' namespaces."""
    cli = sq.cli
    cli._Parser.parse_args = timers.wrap("argparse", argparse.ArgumentParser.parse_args)
    for phase, mod, name in FIXED:
        setattr(getattr(sq, mod), name, timers.wrap(phase, getattr(getattr(sq, mod), name)))
    for name in DEFUN:
        setattr(sq.defun, name, timers.wrap(f"defun.{name}", getattr(sq.defun, name)))
    for name, obj in list(vars(cli).items()):
        if callable(obj) and getattr(obj, "__module__", None) in COMPUTE_MODULES:
            setattr(cli, name, timers.wrap(f"{obj.__module__[8:]}.{name}", obj))


def run_pass(cli, instances, out: str) -> None:
    for inst in instances:
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(inst.argv(out))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=20)
    args = ap.parse_args(argv)
    sq = workloads.import_program()
    timers = Timers()
    with tempfile.TemporaryDirectory() as tmp:
        instances = workloads.write_documents(sq, args.workload, args.seed,
                                              os.path.join(tmp, "docs"))
        out = os.path.join(tmp, "report.json")
        instrument(sq, timers)
        run_pass(sq.cli, instances, out)   # warm-up, not counted
        timers.time.clear()
        timers.faults.clear()
        timers.calls.clear()
        total, faults = 0.0, 0
        for _ in range(args.passes):
            f0, t0 = _minflt(), perf_counter()
            run_pass(sq.cli, instances, out)
            total += perf_counter() - t0
            faults += _minflt() - f0
    per_pass = {phase: t / args.passes for phase, t in timers.time.items()}
    per_pass["other"] = total / args.passes - sum(per_pass.values())
    timers.faults["other"] = faults - sum(timers.faults.values())
    print(f"{args.workload} seed {args.seed}: {len(instances)} ops, {args.passes} passes, "
          f"{1e3 * total / args.passes:.2f} ms and {faults / args.passes:g} minor faults per pass")
    print(f"{'phase':<36} {'ms/pass':>9} {'share':>7} {'faults/pass':>12} {'calls/pass':>11}")
    for phase, t in sorted(per_pass.items(), key=lambda kv: -kv[1]):
        calls = timers.calls.get(phase, 0) / args.passes
        print(f"{phase:<36} {1e3 * t:>9.3f} {t / (total / args.passes):>7.1%} "
              f"{timers.faults[phase] / args.passes:>12g} {calls:>11g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
