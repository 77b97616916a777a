"""Golden diff of the command-line contract.

Every case runs one command line through `main(argv)` and compares its exit
code, the byte count of its stdout and the sha256 of those bytes with the
fixtures in `tests/golden/`. Verify output drops the elapsed-time column,
the only nondeterministic field.

The fixtures pin the outputs as they were before the internals were
consolidated; a refactor must leave them untouched. Regenerate them only
for an intended output change:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys

import pytest

from treelike import verify
from treelike.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

FIG_TLT = "SWSSWWWSW\no.o.o\noo.o\n..o.\no\n"
FIG_PT = "SWSSWWWS\n0101\n111\n001\n"
CUT_PIECES = "SW\no\n---\nSW\no\n---\nSSWW\noo\no.\n"
TRIPLET = "(6)(7 5 2 3)(9 1 8 4)\n(4 2 3)(5)(7 1 6)(9 8)\n2 3 2* 3* 1 4 0* 1*\n"


def _enumerate_cases():
    cases = {}
    for obj in ("tlt", "pt"):
        for n in range(1, 8):
            for fmt in ("text", "json"):
                argv = ["enumerate", "--object", obj, "--size", str(n), "--format", fmt]
                cases[" ".join(argv)] = (argv, "")
    for h in range(4):
        for w in range(4):
            for fmt in ("text", "json"):
                argv = ["enumerate", "--object", "nat", "--height", str(h),
                        "--width", str(w), "--format", fmt]
                cases[" ".join(argv)] = (argv, "")
    # rows longer than the renderer's 8-cell table: up to 13 cells
    for h, w in ((1, 8), (0, 12)):
        for fmt in ("text", "json"):
            argv = ["enumerate", "--object", "nat", "--height", str(h),
                    "--width", str(w), "--format", fmt]
            cases[" ".join(argv)] = (argv, "")
    for obj in ("tlt", "pt"):
        argv = ["enumerate", "--object", obj, "--size", "8", "--format", "text"]
        cases[" ".join(argv)] = (argv, "")
    # the first one and two objects: where the text separator starts
    for shape in (["--object", "tlt", "--size", "4"], ["--object", "pt", "--size", "4"],
                  ["--object", "nat", "--height", "2", "--width", "2"]):
        for limit in ("1", "2"):
            for fmt in ("text", "json"):
                argv = ["enumerate", *shape, "--limit", limit, "--format", fmt]
                cases[" ".join(argv)] = (argv, "")
    return cases


def _enumerate_slow_cases():
    # every 8-cell row at size 9; about 4.5 s each
    cases = {}
    for obj in ("tlt", "pt"):
        argv = ["enumerate", "--object", obj, "--size", "9", "--format", "text"]
        cases[" ".join(argv)] = (argv, "")
    return cases


def _verify_cases():
    cases = {}
    for name in verify.CHECK_NAMES:
        argv = ["verify", "--check", name, "--max-n", "6", "--format", "json"]
        cases[" ".join(argv)] = (argv, "")
    # the checks whose report rows set a value against itself, so no row can
    # fail: pin their rows over the long range (n up to 10)
    for name in ("displacement", "noc-conjecture", "expected-jumps"):
        argv = ["verify", "--check", name, "--long", "--format", "json"]
        cases[" ".join(argv)] = (argv, "")
    argv = ["verify", "--max-n", "6"]
    cases[" ".join(argv)] = (argv, "")
    return cases


def _biject_cases():
    runs = [
        (["biject", "--map", "phi"], FIG_TLT),
        (["biject", "--map", "phi-inv"], FIG_PT),
        (["biject", "--map", "cut", "--corner", "2"], "SSWW\noo\no.\n"),
        (["biject", "--map", "cut", "--corner", "1"], FIG_TLT),
        (["biject", "--map", "cut", "--corner", "4"], FIG_TLT),
        (["biject", "--map", "cut", "--corner", "8"], FIG_TLT),
        (["biject", "--map", "glue"], CUT_PIECES),
        (["biject", "--map", "run"], TRIPLET),
        (["biject", "--map", "run-inv", "--mark", "7"], "4 2 6 11 9 12 8 3 7 1 5 10\n"),
    ]
    return {" ".join(argv) + " < " + repr(stdin): (argv, stdin) for argv, stdin in runs}


GROUPS = {
    "enumerate": _enumerate_cases,
    "enumerate-slow": _enumerate_slow_cases,
    "verify": _verify_cases,
    "biject": _biject_cases,
}


def _strip_elapsed(argv: list[str], out: str) -> str:
    if "json" in argv:
        rows = json.loads(out)
        for r in rows:
            del r["elapsedMs"]
        return json.dumps(rows, indent=2) + "\n"
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in out.splitlines())


def run_case(argv: list[str], stdin: str) -> dict:
    buf = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    out = buf.getvalue()
    if argv[0] == "verify" and out:  # a usage error leaves stdout empty
        out = _strip_elapsed(argv, out)
    data = out.encode("utf-8")
    return {"exit": code, "bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}


def _load(group: str) -> dict:
    with open(os.path.join(GOLDEN_DIR, f"{group}.json"), encoding="utf-8") as fh:
        return json.load(fh)


SLOW_GROUPS = {"enumerate-slow"}


@pytest.mark.parametrize(
    "group",
    [pytest.param(g, marks=pytest.mark.slow) if g in SLOW_GROUPS else g for g in sorted(GROUPS)],
)
def test_golden(group):
    golden = _load(group)
    cases = GROUPS[group]()
    assert sorted(cases) == sorted(golden)
    diffs = []
    for key, (argv, stdin) in cases.items():
        got = run_case(argv, stdin)
        if got != golden[key]:
            diffs.append(f"{key}: got {got}, want {golden[key]}")
    assert not diffs, "\n".join(diffs)


def write_fixtures() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for group, make in GROUPS.items():
        out = {key: run_case(argv, stdin) for key, (argv, stdin) in make().items()}
        with open(os.path.join(GOLDEN_DIR, f"{group}.json"), "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_fixtures()
