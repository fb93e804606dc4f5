"""End-to-end benchmark of the sqzlift command line.

    python3 liftbench/run.py --workload lift --seed 1 --seconds 25 --trace 0

Set-up imports sqzlift from the checkout's `src` and writes the workload's
problem documents (made from --seed) under `.liftbench_out/`.  The run is a
closed loop: one client in this process calls `sqzlift.cli.main` on one
document at a time, with `--workers 1`.  After one warm-up pass, whole passes
over the fixed instance list repeat until --seconds have gone by.  Every
report is checked by `checker.py`, which shares no code with the program; an
op fails when it raises, leaves no report in `--out`, exits with a code that
does not match its verdict, or fails a check.  A reference kernel is timed
before every op, and reported times are scaled to the machine speed at which
it takes REFERENCE_KERNEL_S (README, "Machine speed"); the line before the
result prints the raw figures.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the run first measures untraced passes for
half the time, then traced passes (see tracing.py) for the other half, writes
spans and counts to `.liftbench_out/trace-<workload>-seed<seed>.json` and
prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checker  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
MIN_PASSES = 3
OUT_ROOT = os.path.join(ROOT, ".liftbench_out")

# Time of one reference-kernel call at the speed the reported figures are
# scaled to (see README, "Machine speed").
REFERENCE_KERNEL_S = 0.008



class ReferenceKernel:
    """A fixed computation in the program's own mix (a vectorised scan over
    a few thousand rows, small numpy calls in a Python loop, einsum products
    and plain Python), timed between ops to follow the machine's speed."""

    def __init__(self):
        rng = np.random.default_rng(20040719)
        self.digits = rng.integers(0, 3, size=(4096, 12))
        self.gens = rng.integers(0, 3, size=(12, 48))
        self.mat = rng.integers(0, 3, size=(24, 32))
        ring = checker.trunc_poly_ring(3, 3)
        self.level = checker.Level(ring, [[[[1, 0, 0]]]], [[1, 0, 0]])
        self.x = rng.integers(0, 3, size=(6, 6, 1, 3))
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        acc = int(((self.digits @ self.gens) % 3).any(axis=1).sum())
        acc += len(checker.row_reduce(self.mat, 3)[1])
        for _ in range(10):
            acc += int(self.level.matmul(self.x, self.x)[0, 0, 0, 0])
        acc += sum(hash((i, i % 5)) & 7 for i in range(4000))
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return acc

    def take(self) -> list[float]:
        out, self.samples = self.samples, []
        return out


def import_program(first: bool):
    """Import sqzlift afresh (dropping an earlier import) from `src`."""
    if not first:
        for name in [m for m in sys.modules if m == "sqzlift" or m.startswith("sqzlift.")]:
            del sys.modules[name]
    return workloads.import_program()


def set_up(workload: str, seed: int, docs: str, kernel: ReferenceKernel):
    """Import the program and write every document, SETUP_REPEATS times;
    returns the last import, its instances and the median raw and scaled
    times (each repeat scaled by the reference kernel run around it)."""
    raw, scaled = [], []
    for rep in range(SETUP_REPEATS):
        kernel.sample()
        t0 = time.perf_counter()
        sq = import_program(rep == 0)
        insts = workloads.write_documents(sq, workload, seed, docs)
        raw.append(time.perf_counter() - t0)
        kernel.sample()
        scaled.append(raw[-1] * REFERENCE_KERNEL_S / statistics.mean(kernel.take()))
    return sq, insts, statistics.median(raw), statistics.median(scaled)


class Runner:
    """Runs ops, checks their reports and keeps the tallies."""

    def __init__(self, sq, insts, out_path: str, largest: str, kernel: ReferenceKernel):
        self.sq, self.insts, self.out, self.kernel = sq, insts, out_path, kernel
        self.largest = [i for i, inst in enumerate(insts) if inst.name == largest][0]
        self.verified: dict[int, tuple] = {}
        self.attempted = self.failed = 0
        self.wrong = 0                    # reports the checker rejected
        self.failures: dict[str, str] = {}

    def op(self, i: int, wrap=None) -> tuple[float, bool]:
        inst = self.insts[i]
        if os.path.exists(self.out):
            os.remove(self.out)
        stdout = io.StringIO()
        call = lambda: self.sq.cli.main(inst.argv(self.out))  # noqa: E731
        err = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = wrap(i, inst.command, call) if wrap else call()
        except (Exception, SystemExit) as e:          # an op that raises has failed
            code, err = None, f"raised {type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        problems = [err] if err else self.check(i, code, stdout.getvalue())
        if problems:
            self.failures.setdefault(inst.name, "; ".join(problems)[:300])
        return dt, not problems

    def check(self, i: int, code, stdout: str) -> list[str]:
        inst = self.insts[i]
        if not os.path.exists(self.out):
            return [f"no report in --out (stdout: {stdout.strip()[:200]!r})"]
        with open(self.out) as fh:
            text = fh.read()
        key = (code, hashlib.sha256(text.encode()).hexdigest())
        if self.verified.get(i) == key:
            return []
        try:
            report = json.loads(text)
        except json.JSONDecodeError as e:
            return [f"report is not JSON: {e}"]
        problems = checker.check_report(inst.command, inst.doc, report, code, inst.expect)
        if not problems:
            self.verified[i] = key
        elif report.get("verdict") != "failed":
            self.wrong += 1
        return problems

    def run_pass(self, count: bool = True, wrap=None) -> dict:
        """One pass over the instances, with a reference-kernel sample before
        each op; times are raw, `scale` turns them into reference seconds."""
        times, ok = [], 0
        for i in range(len(self.insts)):
            self.kernel.sample()
            dt, good = self.op(i, wrap)
            times.append(dt)
            ok += good
        if count:
            self.attempted += len(self.insts)
            self.failed += len(self.insts) - ok
        scale = REFERENCE_KERNEL_S / statistics.mean(self.kernel.take())
        return {"op_s": sum(times), "ok": ok, "largest_s": times[self.largest],
                "scale": scale}

    def run_for(self, seconds: float, **kw) -> list[dict]:
        passes = []
        t0 = time.perf_counter()
        while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
            passes.append(self.run_pass(**kw))
        return passes


def rate(passes: list[dict], scaled: bool = True) -> float:
    """Median over passes of verified verdicts per (reference) second."""
    return statistics.median(p["ok"] / (p["op_s"] * (p["scale"] if scaled else 1.0))
                             for p in passes)


def largest(passes: list[dict], scaled: bool = True) -> float:
    return statistics.median(p["largest_s"] * (p["scale"] if scaled else 1.0)
                             for p in passes)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sqzlift end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    # the gf kernels run on the numpy path; the run records what it got
    os.environ["SQZLIFT_NUMBA"] = "0"
    run_dir = os.path.join(OUT_ROOT, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    kernel = ReferenceKernel()
    try:
        sq, insts, *setup_s = set_up(args.workload, args.seed,
                                     os.path.join(run_dir, "docs"), kernel)
    except ImportError as e:
        print(f"liftbench: cannot import sqzlift from {ROOT}/src: {e}", file=sys.stderr)
        return 2
    try:
        return measure(args, sq, insts, setup_s, run_dir, kernel)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, sq, insts, setup_s: list[float], run_dir: str,
            kernel: ReferenceKernel) -> int:
    backend = "numba" if sq.gf.USING_NUMBA else "numpy"
    runner = Runner(sq, insts, os.path.join(run_dir, "report.json"),
                    workloads.WORKLOADS[args.workload][1], kernel)
    runner.run_pass(count=False)                      # warm-up; checks every report
    if not args.trace:
        passes = runner.run_for(args.seconds)
        metrics = {
            "verdicts_per_s": (rate(passes), "1/s"),
            "largest_s": (largest(passes), "s"),
            "setup_s": (setup_s[1], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        extra = (f" passes={len(passes)} raw: verdicts_per_s={rate(passes, False):.4f}"
                 f" largest_s={largest(passes, False):.4f} setup_s={setup_s[0]:.4f}")
    else:
        plain = runner.run_for(args.seconds / 2)
        tr = tracing.Tracer(sq)
        tr.install()
        traced = []
        t0 = time.perf_counter()
        while len(traced) < MIN_PASSES or time.perf_counter() - t0 < args.seconds / 2:
            tr.begin_pass()
            traced.append(runner.run_pass(wrap=tr.run_op))
            tr.end_pass()
        tr.uninstall()
        layers = tr.layer_metrics()
        overhead = rate(plain) / rate(traced) - 1
        os.makedirs(OUT_ROOT, exist_ok=True)
        trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "backend": backend,
                       "ops_per_pass": len(insts), "untraced_verdicts_per_s": rate(plain),
                       "traced_verdicts_per_s": rate(traced), "overhead": overhead,
                       "counts_repeat": tr.counts_repeat(), "layer_metrics": layers,
                       **tr.dump()}, fh)
        for name, val in layers.items():
            print(f"  {name:34s} {val:.6g}", file=sys.stderr)
        # BENCHMARK.json lists the per-layer metrics to print; the trace file
        # has them all (README explains which are left out there and why)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            wanted = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
        metrics = {n: (layers[n], unit) for n, unit in wanted.items()}
        extra = (f" trace={os.path.relpath(trace_path, ROOT)} overhead={overhead:.1%}"
                 f" counts_repeat={tr.counts_repeat()}")
    for name, problem in sorted(runner.failures.items()):
        print(f"liftbench: op {name} failed: {problem}", file=sys.stderr)
    print(f"liftbench {args.workload} seed={args.seed} backend={backend} "
          f"(gf.USING_NUMBA={sq.gf.USING_NUMBA}) ops_per_pass={len(insts)} "
          f"attempted={runner.attempted} failed={runner.failed}{extra}")
    print(json.dumps({"correct": runner.wrong == 0,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
