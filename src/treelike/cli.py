"""Command-line front end: enumerate, verify, biject.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input errors, 141
(quietly) on a stdout the reader closed early. Output is byte-deterministic
for a fixed command line, except for the elapsed-time column of verify rows.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import islice

from . import bijections, verify
from .core import (
    Cell,
    enumerate_nat,
    enumerate_pt,
    enumerate_tlt,
    parse_nat,
    parse_tlt,
    parse_pt,
    to_json,
    to_text,
)

SEPARATOR = "---"


def _emit_objects(objs, fmt: str, limit, out) -> None:
    # one write per object; text objects after the first lead with a separator line
    render, lead = (to_json, "") if fmt == "json" else (to_text, SEPARATOR + "\n")
    first = next(objs, None)  # pulled even at --limit 0, so a bad size still exits 2
    if first is not None and limit != 0:
        out.write(render(first) + "\n")
        for obj in islice(objs, None if limit is None else limit - 1):
            out.write(lead + render(obj) + "\n")


def _cmd_enumerate(args) -> int:
    if args.limit is not None and args.limit < 0:
        print("enumerate: --limit must be at least 0", file=sys.stderr)
        return 2
    if args.object in ("tlt", "pt"):
        if args.size is None:
            print("enumerate: --size is required for tlt and pt", file=sys.stderr)
            return 2
        gen = enumerate_tlt(args.size) if args.object == "tlt" else enumerate_pt(args.size)
    else:
        if args.height is None or args.width is None:
            print("enumerate: --height and --width are required for nat", file=sys.stderr)
            return 2
        gen = enumerate_nat(args.height, args.width)
    _emit_objects(gen, args.format, args.limit, sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    if args.jobs < 1:
        print("verify: --jobs must be at least 1", file=sys.stderr)
        return 2
    names = verify.CHECK_NAMES if args.check == "all" else [args.check]
    rows = verify.run_checks(names, max_n=args.max_n, long=args.long, jobs=args.jobs)
    if not rows:
        print("verify: no sizes to check in the requested range", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps([r.json_obj() for r in rows], indent=2))
    else:
        import csv  # only the CSV branch needs it; start-up skips it

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["check", "n", "expected", "actual", "match", "elapsed_ms"])
        for r in rows:
            writer.writerow(
                [r.check, r.n, r.expected, r.actual, str(r.match).lower(), r.elapsed_ms]
            )
    return 0 if all(r.match for r in rows) else 1


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_object_stream(text: str, count: int) -> list[str]:
    """Split a stream into object texts: a path line followed by exactly as
    many row lines as the path has south steps. Separator lines between
    objects are optional."""
    lines = text.split("\n")
    idx = 0
    out = []
    for _ in range(count):
        while idx < len(lines) and lines[idx] in ("", SEPARATOR):
            idx += 1
        if idx >= len(lines):
            raise ValueError(f"expected {count} objects, found {len(out)}")
        path_line = lines[idx]
        need = path_line.count("S")
        body = lines[idx + 1 : idx + 1 + need]
        idx += 1 + need
        out.append("\n".join([path_line] + body))
    return out


def _cmd_biject(args) -> int:
    text = _read_input(args.input)
    if args.map == "phi":
        print(to_text(bijections.tlt_to_pt(parse_tlt(text))))
    elif args.map == "phi-inv":
        print(to_text(bijections.pt_to_tlt(parse_pt(text))))
    elif args.map == "cut":
        if args.corner is None:
            print("biject: --corner is required for cut", file=sys.stderr)
            return 2
        t = parse_tlt(text)
        t_l, t_r, nat = bijections.cut_at_corner(t, Cell(args.corner, args.corner + 1))
        parts = [to_text(t_l), to_text(t_r), to_text(nat)]
        print(("\n" + SEPARATOR + "\n").join(parts))
    elif args.map == "glue":
        chunks = _read_object_stream(text, 3)
        t_l = parse_tlt(chunks[0])
        t_r = parse_tlt(chunks[1])
        nat = parse_nat(chunks[2])
        t, corner = bijections.glue(t_l, t_r, nat)
        print(to_text(t))
        print(f"corner {corner.row}")
    elif args.map == "run":
        lines = text.split("\n")
        if len(lines) < 3:
            raise ValueError("triplet input needs three lines: cycles, cycles, word")
        l_cycles = bijections.parse_cycle_form(lines[0])
        r_cycles = bijections.parse_cycle_form(lines[1])
        word = bijections.parse_colored_word(lines[2])
        mr = bijections.triplet_to_run(l_cycles, r_cycles, word)
        print(" ".join(map(str, mr.perm)))
        print(f"mark {mr.k}")
    elif args.map == "run-inv":
        if args.mark is None:
            print("biject: --mark is required for run-inv", file=sys.stderr)
            return 2
        perm = tuple(int(x) for x in text.split())
        mr = bijections.MarkedRun(perm, args.mark)
        l_cycles, r_cycles, word = bijections.run_to_triplet(mr)
        print(l_cycles.text())
        print(r_cycles.text())
        print(word.text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treelike",
        description="Enumerate tableau families, verify their counting formulas, "
        "and apply the bijections between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="list every object of one size")
    p_enum.add_argument("--object", choices=["tlt", "pt", "nat"], required=True)
    p_enum.add_argument("--size", type=int, help="size for tlt, length for pt")
    p_enum.add_argument("--height", type=int, help="tree height (nat only)")
    p_enum.add_argument("--width", type=int, help="tree width (nat only)")
    p_enum.add_argument("--format", choices=["text", "json"], default="text")
    p_enum.add_argument("--limit", type=int, help="stop after this many objects")

    p_ver = sub.add_parser("verify", help="run formula checks against sweeps")
    p_ver.add_argument(
        "--check", choices=verify.CHECK_NAMES + ["all"], default="all"
    )
    p_ver.add_argument("--max-n", type=int, dest="max_n")
    p_ver.add_argument("--long", action="store_true", help="extend the size ranges")
    p_ver.add_argument("--format", choices=["csv", "json"], default="csv")
    p_ver.add_argument("--jobs", type=int, default=1)

    p_bij = sub.add_parser("biject", help="apply one of the maps to an object")
    p_bij.add_argument(
        "--map",
        choices=["phi", "phi-inv", "cut", "glue", "run", "run-inv"],
        required=True,
    )
    p_bij.add_argument("--input", default="-", help="input file, - for stdin")
    p_bij.add_argument("--corner", type=int, help="corner row label (cut)")
    p_bij.add_argument("--mark", type=int, help="marked position (run-inv)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = {"enumerate": _cmd_enumerate, "verify": _cmd_verify, "biject": _cmd_biject}
    try:
        code = command[args.command](args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # end quietly, as a shell reports a SIGPIPE death; the rest goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
