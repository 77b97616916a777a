"""One repetition of one workload, in a fresh interpreter.

Run by `run.py`, never by hand: the surveys and rank tables of `treelike`
live in unbounded caches, so a second repetition in the same process would
time cache hits that a user of the command line never gets.

The first statement imports the package, so that set-up time runs from the
launch of this interpreter (the monotonic clock reading passed as
`--launch`) to the moment the package is ready. The result goes to the last
line of stdout as JSON; latencies go to a binary file in `--scratch`.
"""

import time

import treelike.cli  # noqa: F401  -- imports every module of the package

READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from array import array  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

BIJECTION_SPANS = [
    "tlt_to_pt",
    "pt_to_tlt",
    "corner_transfer_delta",
    "cut_at_corner",
    "glue",
    "run_to_triplet",
    "triplet_to_run",
    "corner_to_run",
    "run_to_corner",
]


def install_spans(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers bind them."""
    binds = [
        ("core.tlt_fillings", ["treelike.core", "treelike.counting"], "tlt_fillings"),
        ("core.pt_fillings", ["treelike.core", "treelike.counting"], "pt_fillings"),
        ("core.enumerate_tlt", ["treelike.verify", "treelike.cli", "treelike.bijections"], "enumerate_tlt"),
        ("core.enumerate_pt", ["treelike.verify", "treelike.cli"], "enumerate_pt"),
        ("core.enumerate_nat", ["treelike.cli", "treelike.bijections"], "enumerate_nat"),
        ("core.to_text", ["treelike.cli"], "to_text"),
        ("counting.tlt_survey", ["treelike.verify", "treelike.abpoly"], "tlt_survey"),
        ("counting.pt_survey", ["treelike.verify"], "pt_survey"),
        ("counting.perm_survey", ["treelike.verify", "treelike.counting"], "perm_survey"),
        ("verify.run_checks", ["treelike.verify"], "run_checks"),
        ("cli.main", ["treelike.cli"], "main"),
    ]
    binds += [(f"bijections.{f}", ["treelike.bijections"], f) for f in BIJECTION_SPANS]
    for span, modules, attr in binds:
        for module in modules:
            tracer.patch(module, attr, span)
    abpoly = sys.modules["treelike.abpoly"]
    for attr, obj in list(vars(abpoly).items()):
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == "treelike.abpoly"
        ):
            tracer.patch("treelike.abpoly", attr, f"abpoly.{attr}")
    tracer.patch("treelike.verify", "run_check_at", lambda name, n: f"verify.check.{name}")


def layer_metrics(spans: list[dict], timed_ids: set) -> dict:
    """Per-layer totals over the spans of the timed phase. The rank table
    build is the time of the round trips called from the cold pass (set-up)
    minus the time the same number of calls take in the warm passes."""
    m: dict[str, float] = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    round_trip = {"bijections.corner_to_run", "bijections.run_to_corner"}
    phase = {s["id"]: s["name"] for s in spans if s["parent"] is None}
    trips = {"bench.setup": [0.0, 0], "bench.timed": [0.0, 0]}
    for s in spans:
        name, self_s = s["name"], s["self_ms"] / 1e3
        if name in round_trip and s["parent"] in phase:
            trips[phase[s["parent"]]][0] += s["ms"] / 1e3
            trips[phase[s["parent"]]][1] += s["calls"]
        if s["id"] not in timed_ids:
            continue
        if name == "bench.timed":
            add("harness.self_s", self_s)
        elif name.startswith("core.enumerate_"):
            add("core.construct.self_s", self_s)
            add("core.objects", s["objects"])
        elif name.startswith("counting."):
            add(f"{name}.self_s", self_s)
            computed = s["cache"]["misses"] if s["cache"] else s["calls"]
            add("counting.survey.computed", computed)
        elif name.startswith("abpoly."):
            add("abpoly.self_s", self_s)
        elif name == "cli.main":
            add("cli.self_s", self_s)
        else:
            add(f"{name}.self_s", self_s)
    (cold_s, cold_calls), (warm_s, warm_calls) = trips["bench.setup"], trips["bench.timed"]
    if cold_calls and warm_calls:
        m["bijections.rank_tables.build_s"] = cold_s - warm_s * cold_calls / warm_calls
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["timed", "traced", "alloc"], required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--scratch", required=True)
    args = ap.parse_args()

    tracer = None
    if args.mode == "traced":
        tracer = Tracer(args.workload)
        install_spans(tracer)
    work = workloads.make(args.workload, args.seed, args.mode == "timed")

    if args.mode == "alloc":
        tracemalloc.start()
    t0 = time.perf_counter()
    if tracer:
        with tracer.phase("bench.setup"):
            work.prepare()
    else:
        work.prepare()
    prepare_s = time.perf_counter() - t0
    out = {"ready_s": READY - args.launch, "prepare_s": prepare_s}
    if args.mode == "alloc":
        out["alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        print(json.dumps(out))
        return 0

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer:
        with tracer.phase("bench.timed"):
            work.run()
    else:
        work.run()
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    if tracer:
        tracer.unpatch()

    res = workloads.Result()
    work.check(res)
    out.update(
        wall_s=wall,
        cpu_s=(ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024,
        attempted=res.attempted,
        failed=res.failed,
        ops=res.ops,
        notes=res.notes,
        counts=res.counts,
    )
    if res.latencies:
        path = os.path.join(args.scratch, "latencies.bin")
        with open(path, "wb") as fh:
            array("d", res.latencies).tofile(fh)
        out["latencies"] = path
    if tracer:
        spans = list(tracer.lines())
        timed = {s.id for s in tracer.root.children[("bench.timed", None)].walk()}
        out["layers"] = layer_metrics(spans, timed)
        path = os.path.join(args.scratch, "trace.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for s in spans:
                fh.write(json.dumps(s) + "\n")
        out["spans"] = path
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
