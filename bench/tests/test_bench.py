"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

import json
import os

import pytest

import run
import workloads
from tracing import Tracer


# -- percentile rule -------------------------------------------------------


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 50) == (50, 50)
    assert run.percentile(samples, 99) == (99, 1)
    assert run.percentile(samples, 100) == (100, 0)


@pytest.mark.parametrize(
    "n, want_p, want_above",
    [(1000, 99.0, 10), (5000, 99.0, 50), (999, 90.0, 99), (100, 90.0, 10), (99, None, None)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, want_p, want_above):
    samples = [float(i) for i in range(n, 0, -1)]
    tail = run.tail_percentile(samples, ladder=(90.0, 99.0))
    if want_p is None:
        assert tail is None
        return
    p, value, above, count = tail
    assert (p, above, count) == (want_p, want_above, n)
    assert sum(1 for x in samples if x > value) == above


def test_tail_percentile_can_be_fixed_by_a_smaller_count():
    samples = [float(i) for i in range(2000)]
    ladder = (90.0, 99.0)
    assert run.tail_percentile(samples, ladder=ladder)[0] == 99.0
    p, value, above, count = run.tail_percentile(samples, count=500, ladder=ladder)
    assert (p, above, count) == (90.0, 200, 2000)
    assert run.tail_percentile(samples, count=50, ladder=ladder) is None


# -- seeded queries ----------------------------------------------------------


def test_queries_are_deterministic_per_seed():
    assert workloads.generate_queries(7, 200) == workloads.generate_queries(7, 200)


def test_queries_differ_across_seeds():
    assert workloads.generate_queries(1, 200) != workloads.generate_queries(2, 200)


def test_queries_are_marked_runs():
    from treelike.bijections import MarkedRun

    for perm, k in workloads.generate_queries(3, 300):
        MarkedRun(perm, k)  # raises unless position k is a run of size 1


# -- spans -------------------------------------------------------------------


def test_generator_span_yields_the_same_sequence():
    from treelike import core

    path = core.BorderPath("SSWSWW")
    args = (path.row_lengths, path.num_cols)
    plain = list(core.tlt_fillings(*args))
    tracer = Tracer("test")
    wrapped = tracer.wrap(core.tlt_fillings, "core.tlt_fillings")
    assert list(wrapped(*args)) == plain
    (span,) = tracer.root.children.values()
    assert span.objects == len(plain) and span.calls == 1


def test_self_time_excludes_children_and_folds_repeated_calls():
    tracer = Tracer("test")
    inner = tracer.wrap(lambda n: sum(range(n * 1000)), "inner")
    outer = tracer.wrap(lambda n: [inner(n) for _ in range(3)], "outer")
    outer(5)
    outer(5)
    (o,) = tracer.root.children.values()
    (i,) = o.children.values()
    assert (o.calls, i.calls, o.n, i.n) == (2, 6, 5, 5)
    assert o.self_s == pytest.approx(o.total_s - i.total_s)
    lines = list(tracer.lines())
    assert [ln["name"] for ln in lines] == ["outer", "inner"]
    assert lines[1]["parent"] == lines[0]["id"] and lines[0]["parent"] is None


def test_self_times_add_up_to_the_phase():
    from treelike import core

    tracer = Tracer("test")
    enum = tracer.wrap(core.enumerate_tlt, "core.enumerate_tlt")
    text = tracer.wrap(core.to_text, "core.to_text")
    with tracer.phase("bench.timed") as timed:
        out = [text(t) for t in enum(5)]
    assert len(out) == 120
    total = sum(span.self_s for span in timed.walk())
    assert total == pytest.approx(timed.total_s, abs=1e-9)


def test_patch_and_unpatch_restore_the_binding():
    from treelike import verify

    original = verify.tlt_survey
    tracer = Tracer("test")
    tracer.patch("treelike.verify", "tlt_survey", "counting.tlt_survey")
    assert verify.tlt_survey is not original
    verify.tlt_survey(3)
    tracer.unpatch()
    assert verify.tlt_survey is original
    (span,) = tracer.root.children.values()
    assert span.calls == 1 and span.hits + span.misses == 1
    assert span.objects == (6 if span.misses else 0)  # 3! tableaux visited on a miss


# -- failure counting --------------------------------------------------------


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_corrupted_fixture_fails_the_run(tmp_path):
    from treelike import verify

    rows = [workloads.row_record(r) for r in verify.run_checks(["noc"], max_n=5)]
    golden = [list(r) for r in rows]
    golden[3][3] = "9"  # corrupt one expected value
    failed, notes = workloads.diff_rows(rows, golden)
    assert failed == 1 and notes

    rep = {"attempted": len(rows), "failed": failed, "notes": notes}
    values = {m["name"]: 1.0 for m in _spec()["end_to_end"]}
    result, _ = run.summarize([rep], values, _spec()["end_to_end"])
    assert result["failed"] / result["attempted"] > 0
    assert result["correct"] is False
    assert run.exit_code(result) != 0


def test_clean_rows_pass():
    from treelike import verify

    rows = [workloads.row_record(r) for r in verify.run_checks(["noc"], max_n=5)]
    assert workloads.diff_rows(rows, [list(r) for r in rows]) == (0, [])
    rep = {"attempted": len(rows), "failed": 0, "notes": []}
    values = {m["name"]: 1.0 for m in _spec()["end_to_end"]}
    result, _ = run.summarize([rep], values, _spec()["end_to_end"])
    assert result["correct"] and run.exit_code(result) == 0


def test_missing_rows_and_missing_metrics_count_as_failures():
    rows = [["noc", 1, "0", "0", True]]
    assert workloads.diff_rows(rows, rows + [["noc", 2, "0", "0", True]])[0] == 1
    rep = {"attempted": 1, "failed": 0, "notes": []}
    result, notes = run.summarize([rep], {}, _spec()["end_to_end"])
    assert not result["correct"] and any("not measured" in n for n in notes)
