"""Digest every report the command line writes on a fixed set of documents.

Prints one line per report: source, command, exit code and the sha256 of
the report bytes.  The sources are

- `gen` documents of seeds 0-49 (`SEEDS`) of each kind: the document itself
  (command `gen`), then every command that reads a document of that kind;
- crude bundles built from the `gen` differential documents whose
  `lift-diff` lifts: C is the document's complex and D is C plus a
  contractible two-term summand, built by `build_equiv` of tests/conftest.py,
  once with the summand just below C's lowest degree and once from C's
  highest degree up (sources `crude:<seed>:<degree>`, command
  `crude-lift --trace`);
- the liftbench documents of seed 1 of every workload, each with the command
  liftbench runs on it.

`functor-eval` and `schlessinger` run on the `gen` documents with
`--cap FUNCTOR_CAP`, which bounds their strict-lift candidates and their
conjugations (lifts times generators of the unipotent group).  That cap
lets `schlessinger` finish on 30 seeds, whose smoothness checks have up to
2048 pairs.  `schlessinger` also runs at the default cap on the
differential seeds `DEFAULT_CAP_SEEDS`, whose smoothness checks have 144,
729 and 2048 pairs (command `schlessinger@default-cap`).  At the default
cap the slowest of these reports takes about 1.5 s (`schlessinger` on
differential seed 2, which ends in `CapExceeded`); the cap and the seed
lists stay fixed, so that runs on two trees compare line by line.
Everything runs in one process,
through `sqzlift.cli.main`, with reports written to a temporary `--out`
file.  An exception that escapes `main` is recorded as its type in place of
the exit code.  Two trees give the same output exactly when
every report is byte-identical, so `diff` of two runs checks a change that
must not move reports.

Usage:  PYTHONPATH=src python3 benchmarks/report_digests.py > digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "liftbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import workloads  # noqa: E402
from conftest import build_equiv  # noqa: E402
from sqzlift import cli  # noqa: E402

FUNCTOR_CAP = 4096
SEEDS = 50
KINDS = ("differential", "map", "homotopy")
COMMANDS = {
    "differential": ["obstruct-diff", "lift-diff", "classify", "classify-homotopy",
                     "tangent", "extend-order", "oracle", "functor-eval", "schlessinger"],
    "map": ["lift-map", "classify-homotopy", "oracle"],
    "homotopy": ["lift-homotopy", "oracle"],
}
DEFAULT_CAP_SEEDS = (3, 19, 41)
LIFTBENCH_SEED = 1


def gen_argv(kind: str, seed: int) -> list[str]:
    return ["gen", "--kind", kind, "--seed", str(seed)]


def command_argv(cmd: str, doc: str, capped: bool = True) -> list[str]:
    """The argv that runs cmd on the gen document doc; capped: with
    --cap FUNCTOR_CAP where cmd takes it."""
    flag = "--map" if cmd in ("lift-map", "lift-homotopy") else "--complex"
    capped = capped and cmd in ("functor-eval", "schlessinger")
    extra = ["--cap", str(FUNCTOR_CAP)] if capped else []
    return [cmd, flag, doc] + extra


def crude_docs(doc: str, seed: int, tmp: str) -> list[tuple[str, str]]:
    """(source, path) of the crude bundles over the differential gen
    document doc, whose complex must lift."""
    _, defalg, prob, pay = cli.problem_from_doc(cli.load_doc(doc))
    docs = []
    for deg in (min(prob.ob.support) - 1, max(prob.ob.support)):
        E, dbar_D = build_equiv(defalg, prob.ob, prob.d_mid, deg)
        bundle = {"kind": "crude", "tower": pay["tower"], "algebra": pay["algebra"],
                  "C": cli.complex_to_payload(E.C, "mid"),
                  "D": cli.complex_to_payload(E.D, "mid"),
                  "d_bar_D": cli.gmap_to_payload(dbar_D, "bar"),
                  **{key: cli.gmap_to_payload(getattr(E, key), "mid") for key in "fgHK"}}
        path = os.path.join(tmp, f"crude-{seed}-{deg}.json")
        cli.save_doc(path, cli.wrap("problem", bundle))
        docs.append((f"crude:{seed}:{deg}", path))
    return docs


def run(argv: list[str], out: str) -> tuple[str, str]:
    """(exit code or exception type, sha256 of the --out bytes)."""
    if os.path.exists(out):
        os.remove(out)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = str(cli.main(argv + ["--out", out]))
        except Exception as e:   # recorded, so that a crash is a visible difference
            code = type(e).__name__
    data = open(out, "rb").read() if os.path.exists(out) else b""
    return code, hashlib.sha256(data).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        for kind in KINDS:
            for seed in range(SEEDS):
                src = f"gen:{kind}:{seed}"
                doc = os.path.join(tmp, f"{kind}-{seed}.json")
                code, digest = run(gen_argv(kind, seed), doc)
                print(src, "gen", code, digest, flush=True)
                codes = {}
                for cmd in COMMANDS[kind]:
                    codes[cmd], digest = run(command_argv(cmd, doc), out)
                    print(src, cmd, codes[cmd], digest, flush=True)
                if kind == "differential" and seed in DEFAULT_CAP_SEEDS:
                    code, digest = run(command_argv("schlessinger", doc, capped=False), out)
                    print(src, "schlessinger@default-cap", code, digest, flush=True)
                if kind == "differential" and codes["lift-diff"] == "0":
                    for crude_src, bundle in crude_docs(doc, seed, tmp):
                        code, digest = run(["crude-lift", "--complex", bundle, "--trace"], out)
                        print(crude_src, "crude-lift", code, digest, flush=True)
        sq = workloads.import_program()
        for workload in sorted(workloads.WORKLOADS):
            docs = os.path.join(tmp, workload)
            for inst in workloads.write_documents(sq, workload, LIFTBENCH_SEED, docs):
                code, digest = run(inst.argv(out)[:-2], out)
                print(f"liftbench:{workload}:{inst.name}", inst.command, code, digest,
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
