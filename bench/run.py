"""Benchmark for treelike: run one workload and print its metrics.

    python3 bench/run.py --workload verify-sweep --seed 1 --seconds 40 --trace 0

Every repetition runs in a fresh interpreter (`rep.py`). With `--trace 0`
the repetitions are untraced and the last line of stdout reports the
end-to-end metrics of BENCHMARK.json as medians over the repetitions. With
`--trace 1` one untraced repetition is followed by one traced repetition
(and, for bijection-queries, one under tracemalloc), and the last line
reports the per-layer metrics. Outputs are checked against the golden
fixtures in `bench/golden`; any difference makes `correct` false and the
exit code 1. Results and span files are written to `bench/out`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 4
RUN_LIMIT_S = 170.0
TAIL_LADDER = (90.0,)
# Time of REFERENCE_PROGRAM on the reference machine; see speed_scale().
REFERENCE_S = 0.15

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# statistics


def percentile(sorted_samples, p: float) -> tuple[float, int]:
    """Nearest-rank p-th percentile and the number of samples above it."""
    n = len(sorted_samples)
    rank = max(1, math.ceil(p / 100 * n))
    return sorted_samples[rank - 1], n - rank


def tail_rank(count: int, ladder=TAIL_LADDER, beyond: int = 10) -> float | None:
    """The highest percentile of `ladder` that leaves at least `beyond` of
    `count` samples above it, or None."""
    for p in sorted(ladder, reverse=True):
        if count - max(1, math.ceil(p / 100 * count)) >= beyond:
            return p
    return None


def tail_percentile(samples, count: int | None = None, ladder=TAIL_LADDER):
    """(percentile, value, samples above, sample count) at the highest
    percentile that leaves at least 10 samples above it. The percentile is
    chosen for `count` samples (default: all of them), so that a run can fix
    it from its guaranteed minimum while the value uses every sample. None
    when no percentile qualifies."""
    ordered = sorted(samples)
    p = tail_rank(len(ordered) if count is None else count, ladder)
    if p is None:
        return None
    value, above = percentile(ordered, p)
    return p, value, above, len(ordered)


# ---------------------------------------------------------------------------
# machine speed

# Start-up, imports and allocation-heavy interpreter work, like a
# repetition's, with no code of `treelike`. It reports its own time from
# launch, so that the parent's polling wait does not round it.
REFERENCE_PROGRAM = """
import sys, time
import argparse, collections, dataclasses, decimal, fractions, json, typing
@dataclasses.dataclass(frozen=True)
class P:
    a: int
    b: tuple
xs = [P(i, (i & 255, i >> 8)) for i in range(20000)]
d = {x: x.b for x in xs}
s = sorted(d.values(), key=lambda t: (-t[0], t[1]))
print(time.monotonic() - float(sys.argv[1]))
"""


def reference_time() -> float:
    """Seconds from launch to the end of one REFERENCE_PROGRAM run."""
    out = subprocess.run(
        [sys.executable, "-c", REFERENCE_PROGRAM, repr(time.monotonic())],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(out.stdout)


def speed_scale(reference: list[float]) -> float:
    """Factor from this run's times to times on the reference machine:
    REFERENCE_S over the median time of the reference program, which runs
    before every repetition and after the last. A shared machine drifts in
    speed by up to half for minutes at a time, and the reference drifts with
    the timed work: over ten runs, scaled wall times spread 4-14% between
    the quartiles where raw ones spread 9-39%."""
    return REFERENCE_S / statistics.median(reference)


# ---------------------------------------------------------------------------
# repetitions


def run_rep(workload: str, seed: int, mode: str, scratch: Path, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its report."""
    scratch.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    launch = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--launch", repr(launch), "--scratch", str(scratch),
    ]
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=str(ROOT), start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{workload} repetition ran past the time limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} repetition exited {proc.returncode}:\n{err[-2000:]}")
    rep = json.loads(lines[-1])
    rep["setup_s"] = rep["ready_s"] + (rep["prepare_s"] if workload == "bijection-queries" else 0.0)
    if "latencies" in rep:
        lat = array("d")
        with open(rep["latencies"], "rb") as fh:
            lat.frombytes(fh.read())
        rep["latencies"] = lat
    return rep


def timed_reps(workload, seed, seconds, scratch, deadline, min_reps=MIN_REPS):
    """Untraced repetitions: at least `min_reps`, then more while the next
    one is expected to finish within `seconds`. Returns the repetitions and
    the reference times taken before each one and after the last."""
    reps, reference = [], []
    start = time.monotonic()
    while True:
        reference.append(reference_time())
        rep = run_rep(workload, seed, "timed", scratch / f"rep{len(reps)}", deadline)
        reps.append(rep)
        elapsed = time.monotonic() - start
        mean = elapsed / len(reps)
        if (len(reps) >= min_reps and elapsed + mean > seconds) or (
            time.monotonic() + mean > deadline
        ):
            reference.append(reference_time())
            return reps, reference


# ---------------------------------------------------------------------------
# metrics


def end_to_end(reps: list[dict], reference: list[float]) -> tuple[dict, dict]:
    """Medians over repetitions, and latency percentiles over the pooled
    operations of every repetition, with times scaled to the reference
    machine. Returns (values, details); the details keep the raw values."""
    med = lambda key: statistics.median(r[key] for r in reps)  # noqa: E731
    pooled = sorted(x for r in reps for x in r.get("latencies", ()))
    raw = {
        "wall_s": med("wall_s"),
        "cpu_s": med("cpu_s"),
        "setup_s": med("setup_s"),
        "ops_per_s": statistics.median(r["ops"] / r["wall_s"] for r in reps),
    }
    details = {"repetitions": len(reps), "op_samples": len(pooled)}
    if pooled:
        raw["op_p50_us"] = statistics.median(pooled) * 1e6
        # The percentile is fixed by the fewest operations a run can pool,
        # so that it does not change with the number of repetitions.
        tail = tail_percentile(pooled, MIN_REPS * min(r["ops"] for r in reps))
        if tail is not None:
            p, v, above, n = tail
            raw["op_tail_us"] = v * 1e6
            details["op_tail"] = {"percentile": p, "samples_above": above, "samples": n}
    scale = speed_scale(reference)
    values = {k: v / scale if k == "ops_per_s" else v * scale for k, v in raw.items()}
    values["peak_rss_mb"] = med("peak_rss_mb")
    details.update(
        raw=raw, speed_scale=scale, reference_s=reference,
        repetition_wall_s=[r["wall_s"] for r in reps],
    )
    return values, details


def per_layer(untraced: dict, traced: dict, alloc: dict | None) -> dict:
    layers = dict(traced["layers"])
    layers.update(traced["counts"])
    layers["traced_wall_s"] = traced["wall_s"]
    layers["trace_overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    if alloc is not None:
        layers["bijections.rank_tables.alloc_peak_mb"] = alloc["alloc_peak_mb"]
    return layers


def summarize(reps: list[dict], values: dict, wanted: list[dict], strict=True):
    """The result line: every wanted metric, with the failures of every
    repetition counted against the operations they attempted. A metric that
    was wanted but not measured is a failure too when `strict`."""
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    notes = sorted({n for r in reps for n in r["notes"]})
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and strict:
        notes.append(f"not measured: {', '.join(missing)}")
        failed += 1
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted
    }
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    return result, notes


def exit_code(result: dict) -> int:
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# provenance


def git_sha() -> str | None:
    """HEAD of the checkout when it is itself a git work tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treelike" / "__init__.py").is_file():
        print(f"error: no treelike sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    meta = provenance()
    out_dir = HERE / "out"
    scratch = out_dir / f"tmp-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            untraced = run_rep(args.workload, args.seed, "timed", scratch / "untraced", deadline)
            traced = run_rep(args.workload, args.seed, "traced", scratch / "traced", deadline)
            alloc = None
            if args.workload == "bijection-queries":
                alloc = run_rep(args.workload, args.seed, "alloc", scratch / "alloc", deadline)
            values = per_layer(untraced, traced, alloc)
            wanted = spec["per_layer"]
            reps = [untraced, traced]
            shutil.copyfile(traced["spans"], out_dir / f"spans-{tag}.jsonl")
            details = {"spans": str(out_dir / f"spans-{tag}.jsonl")}
        else:
            reps, reference = timed_reps(args.workload, args.seed, args.seconds, scratch, deadline)
            values, details = end_to_end(reps, reference)
            wanted = spec["end_to_end"]
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    meta["loadavg_end"] = os.getloadavg()
    meta["elapsed_s"] = time.monotonic() - started

    result, notes = summarize(reps, values, wanted, strict=args.trace == 0)
    fail_rate = result["failed"] / max(result["attempted"], 1)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "meta": meta, "details": details, "notes": notes, "fail_rate": fail_rate, **result,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(json.dumps({"meta": meta, "details": details}))
    for note in notes:
        print(f"note: {note}")
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6f} {m['unit']}")
    print(f"fail_rate {result['failed']}/{result['attempted']} = {fail_rate:.6f}")
    print(json.dumps(result))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
