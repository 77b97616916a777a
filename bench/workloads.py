"""The benchmark workloads, their inputs and their correctness checks.

Everything here runs inside one repetition's interpreter, after `treelike`
has been imported. Each workload has a `prepare` step (set-up that is not
timed as work: for queries, the cold pass that fills the rank tables), a
`run` step that is the timed phase, and a `check` step that compares the
outputs with the golden fixtures.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from array import array
from time import perf_counter

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

OBJECT_CHECKS = [
    "corner-transfer",
    "phi-roundtrip",
    "cut-roundtrip",
    "run-roundtrip",
    "corner-run-bijection",
]
ENUMERATE_ARGV = ["enumerate", "--object", "tlt", "--size", "8"]
QUERY_SIZE = 9
QUERY_COUNT = 2000
WARM_PASSES = 4

WORKLOADS = ["survey-sweep", "object-sweep", "enumerate-stream", "bijection-queries"]


def sweep_spec(workload: str) -> tuple[list[str], int]:
    """(check names, max_n) of a verify workload: the 16 survey-backed
    checks, or the 5 per-object checks. The caps keep one repetition under
    a second, so that a run holds a score of them."""
    from treelike import verify

    if workload == "object-sweep":
        return list(OBJECT_CHECKS), 6
    return [c for c in verify.CHECK_NAMES if c not in OBJECT_CHECKS], 7


def load_golden(name: str):
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs


def generate_queries(seed: int, count: int = QUERY_COUNT, n: int = QUERY_SIZE):
    """`count` marked runs of size n, uniform over all of them: draw a
    uniform permutation and a uniform mark, keep the pair when the mark is a
    run of size 1. Returns (perm, k) tuples."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        p = list(range(1, n + 1))
        rng.shuffle(p)
        k = rng.randint(1, n)
        prev = p[k - 2] if k > 1 else n + 1
        nxt = p[k] if k < n else 0
        if prev > p[k - 1] > nxt:
            out.append((tuple(p), k))
    return out


# ---------------------------------------------------------------------------
# outputs


def row_record(row) -> list:
    """A verify row without its elapsed time."""
    return [row.check, row.n, row.expected, row.actual, row.match]


def diff_rows(rows: list[list], golden: list[list]) -> tuple[int, list[str]]:
    """Rows that fail: a row whose sides differ, or that differs from the
    golden row at its place. Missing or extra rows fail too."""
    failed = 0
    notes = []
    for i in range(max(len(rows), len(golden))):
        got = rows[i] if i < len(rows) else None
        want = golden[i] if i < len(golden) else None
        if got is None or got != want or not got[4]:
            failed += 1
            if len(notes) < 5:
                notes.append(f"row {i}: got {got} want {want}")
    return failed, notes


class ByteSink:
    """Stands in for stdout: counts and hashes the bytes written, and times
    each object as the gap between writes that end one (every write but a
    lone separator line)."""

    def __init__(self, separator: str):
        self.separator = separator
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.objects = 0
        self.gaps = array("d")
        self._pending: list[str] = []
        self._last = perf_counter()

    def write(self, s: str) -> int:
        if s != self.separator:
            now = perf_counter()
            self.gaps.append(now - self._last)
            self._last = now
            self.objects += 1
        self._pending.append(s)
        if len(self._pending) >= 4096:
            self.flush()
        return len(s)

    def flush(self) -> None:
        data = "".join(self._pending).encode("utf-8")
        self._pending.clear()
        self.bytes += len(data)
        self.sha.update(data)


# ---------------------------------------------------------------------------
# workloads


class Result:
    """What one repetition reports besides its timings."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops = 0
        self.latencies: list[float] = []
        self.notes: list[str] = []
        self.counts: dict[str, int] = {}


class SweepWorkload:
    """`verify.run_checks` over the checks of `sweep_spec()`, `jobs=1`. One
    operation is one (check, n) evaluation, timed around
    `verify.run_check_at`."""

    def __init__(self, workload: str, time_ops: bool):
        from treelike import verify

        self.verify = verify
        self.workload = workload
        self.names, self.max_n = sweep_spec(workload)
        self.time_ops = time_ops
        self.op_times: list[float] = []
        self.rows = None

    def prepare(self) -> None:
        if not self.time_ops:
            return
        inner, times = self.verify.run_check_at, self.op_times

        def timed(name, n):
            t0 = perf_counter()
            rows = inner(name, n)
            times.append(perf_counter() - t0)
            return rows

        self.verify.run_check_at = timed

    def run(self) -> None:
        self.rows = self.verify.run_checks(self.names, max_n=self.max_n)

    def check(self, res: Result) -> None:
        rows = [row_record(r) for r in self.rows]
        golden = load_golden(f"verify-{self.workload}.json")
        failed, notes = diff_rows(rows, golden)
        res.attempted += max(len(rows), len(golden))
        res.failed += failed
        res.notes += notes
        res.counts["verify.rows"] = len(rows)
        res.counts["verify.rows_failed"] = failed
        res.latencies = self.op_times
        res.ops = len(self.op_times)


class EnumerateWorkload:
    """`cli.main(["enumerate", ...])` with stdout sent to a `ByteSink`. The
    stream is one operation for failure counting; its objects are the
    operations for throughput and latency."""

    def __init__(self):
        from treelike import cli

        self.cli = cli
        self.sink = None
        self.rc = None

    def prepare(self) -> None:
        pass

    def run(self) -> None:
        # created here, so that the first object's gap starts with the call
        self.sink = ByteSink(self.cli.SEPARATOR + "\n")
        saved = sys.stdout
        sys.stdout = self.sink
        try:
            self.rc = self.cli.main(ENUMERATE_ARGV)
        finally:
            sys.stdout = saved
        self.sink.flush()

    def check(self, res: Result) -> None:
        golden = load_golden("enumerate-stream.json")
        got = {"bytes": self.sink.bytes, "sha256": self.sink.sha.hexdigest(), "exit": self.rc}
        res.attempted += 1
        if got != {k: golden[k] for k in got}:
            res.failed += 1
            res.notes.append(f"stream {got} differs from golden {golden}")
        if self.sink.objects != golden["objects"]:
            res.failed += 1
            res.notes.append(f"{self.sink.objects} objects written, want {golden['objects']}")
        res.ops = self.sink.objects
        res.latencies = self.sink.gaps
        res.counts["cli.bytes"] = self.sink.bytes


class QueryWorkload:
    """Round trips `run_to_corner` then `corner_to_run` on seeded marked
    runs. The cold pass fills the rank tables and is set-up; the timed phase
    is `WARM_PASSES` warm passes over the same queries."""

    def __init__(self, seed: int):
        from treelike import bijections, core

        self.bij = bijections
        self.core = core
        self.queries = [bijections.MarkedRun(p, k) for p, k in generate_queries(seed)]
        self.seed = seed
        self.cold: list = []
        self.cold_failed = 0
        self.warm_failed = 0
        self.latencies: list[float] = []

    def prepare(self) -> None:
        bij = self.bij
        for mr in self.queries:
            t, corner = bij.run_to_corner(mr)
            if bij.corner_to_run(t, corner) != mr:
                self.cold_failed += 1
            self.cold.append((t, corner))

    def run(self) -> None:
        bij = self.bij
        lat = self.latencies
        for _ in range(WARM_PASSES):
            for mr in self.queries:
                t0 = perf_counter()
                t, corner = bij.run_to_corner(mr)
                back = bij.corner_to_run(t, corner)
                lat.append(perf_counter() - t0)
                if back != mr:
                    self.warm_failed += 1

    def digest(self) -> str:
        h = hashlib.sha256()
        for t, corner in self.cold:
            h.update(f"{self.core.to_text(t)}\n@{corner.row},{corner.col}\n".encode())
        return h.hexdigest()

    def check(self, res: Result) -> None:
        res.attempted += len(self.queries) * (1 + WARM_PASSES)
        res.failed += self.cold_failed + self.warm_failed
        if self.cold_failed or self.warm_failed:
            res.notes.append(
                f"round trips failed: cold {self.cold_failed}, warm {self.warm_failed}"
            )
        digests = load_golden("bijection-queries.json")["digests"]
        want = digests.get(str(self.seed))
        if want is None:
            res.notes.append(f"no golden digest for seed {self.seed}; round trips checked only")
        elif self.digest() != want:
            res.failed += 1
            res.notes.append(f"seed {self.seed}: results differ from the golden digest")
        res.ops = len(self.latencies)
        res.latencies = self.latencies


def make(workload: str, seed: int, time_ops: bool):
    """The workload object for one repetition; `time_ops` times each verify
    evaluation (untraced repetitions only, where no span wraps it)."""
    if workload == "enumerate-stream":
        return EnumerateWorkload()
    if workload == "bijection-queries":
        return QueryWorkload(seed)
    return SweepWorkload(workload, time_ops)
