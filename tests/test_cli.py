"""End-to-end command tests driven through main(argv)."""

import concurrent.futures
import io
import json
import math
import os
import subprocess
import sys

import pytest

from treelike import verify
from treelike.cli import main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

FIG_TLT_CANON = "SWSSWWWSW\no.o.o\noo.o\n..o.\no"
FIG_PT = "SWSSWWWS\n0101\n111\n001\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_text_count_and_separators(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--object", "tlt", "--size", "3")
        assert code == 0 and err == ""
        blocks = out.split("---\n")
        assert len(blocks) == 6
        assert blocks[0] == "SSSW\no\no\no\n"

    def test_limit(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--object", "pt", "--size", "4", "--limit", "2"
        )
        assert code == 0
        assert len(out.split("---\n")) == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_limit_zero_prints_nothing(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "enumerate", "--object", "tlt", "--size", "3", "--format", fmt, "--limit", "0"
        )
        assert (code, out, err) == (0, "", "")

    @pytest.mark.parametrize(
        "obj", [("tlt", "--size", "0"), ("nat", "--height", "-1", "--width", "2")]
    )
    def test_limit_zero_still_rejects_a_bad_size(self, capsys, obj):
        # the objects are generated lazily; the size is checked all the same
        code, out, err = run_cli(capsys, "enumerate", "--object", *obj, "--limit", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_limit_above_the_total_prints_every_object(self, capsys, fmt):
        args = ("enumerate", "--object", "tlt", "--size", "3", "--format", fmt)
        code, out, err = run_cli(capsys, *args, "--limit", "7")
        assert (code, err) == (0, "")
        assert out == run_cli(capsys, *args)[1]
        objects = out.splitlines() if fmt == "json" else out.split("---\n")
        assert len(objects) == math.factorial(3)

    def test_json_lines(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--object", "tlt", "--size", "2", "--format", "json"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        objs = [json.loads(line) for line in lines]
        assert objs[0] == {"path": "SSW", "rows": ["o", "o"]}
        assert objs[1] == {"path": "SWW", "rows": ["oo"]}

    def test_nat_grid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate",
            "--object",
            "nat",
            "--height",
            "1",
            "--width",
            "2",
        )
        assert code == 0
        assert len(out.split("---\n")) == 7

    def test_byte_deterministic(self, capsys):
        args = ("enumerate", "--object", "pt", "--size", "4")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_missing_size(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--object", "tlt")
        assert code == 2
        assert "--size" in err

    def test_missing_dims(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--object", "nat", "--size", "3")
        assert code == 2
        assert "--height" in err

    def test_negative_limit_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--object", "tlt", "--size", "3", "--limit", "-1"
        )
        assert code == 2 and out == ""
        assert "--limit" in err

    def test_unknown_object_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--object", "zzz", "--size", "1"])
        assert exc.value.code == 2


class TestVerify:
    def test_csv_shape(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--check", "corners-tlt", "--max-n", "5"
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == "check,n,expected,actual,match,elapsed_ms"
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[0] == "corners-tlt"
            assert fields[4] == "true"
        assert lines[1].startswith("corners-tlt,1,1,1,true,")

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--check",
            "occupied",
            "--max-n",
            "4",
            "--format",
            "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        for r in rows:
            assert set(r) == {
                "checkName",
                "n",
                "expected",
                "actual",
                "match",
                "elapsedMs",
            }
            assert r["match"] is True
        assert rows[3]["expected"] == str(math.factorial(4))

    def test_all_fast(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--max-n", "4")
        assert code == 0
        lines = out.splitlines()
        names = {line.split(",")[0] for line in lines[1:]}
        assert set(verify.CHECK_NAMES) <= names

    def test_jobs_agree(self, capsys):
        def strip_elapsed(text):
            return [line.rsplit(",", 1)[0] for line in text.splitlines()]

        _, serial, _ = run_cli(capsys, "verify", "--max-n", "5", "--jobs", "1")
        _, parallel, _ = run_cli(capsys, "verify", "--max-n", "5", "--jobs", "2")
        assert strip_elapsed(serial) == strip_elapsed(parallel)

    @pytest.fixture
    def pool(self, monkeypatch):
        """A recording stand-in for the process pool, so that no process
        starts: the worker counts it is built with and the tasks it gets."""
        record = {"built": [], "handed": []}

        class FakePool:
            def __init__(self, max_workers):
                record["built"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                record["handed"].extend(tasks)
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        return record

    @staticmethod
    def strip(rows):
        return [(r.check, r.n, r.expected, r.actual, r.match) for r in rows]

    @pytest.mark.parametrize(
        "check, max_n, jobs, workers",
        [
            ("runs1", 1, 64, None),  # one task: no pool at all
            ("runs1", 3, 64, 3),  # never more workers than tasks
            ("runs1", 5, 2, 2),
            ("noc-conjecture", 4, 8, 2),  # min_n 3: two tasks
        ],
    )
    def test_pool_gets_one_worker_per_task_at_most(self, pool, check, max_n, jobs, workers):
        pooled = verify.run_checks([check], max_n=max_n, jobs=jobs)
        assert pool["built"] == ([] if workers is None else [workers])
        assert self.strip(pooled) == self.strip(verify.run_checks([check], max_n=max_n))

    def test_pool_gets_the_largest_sizes_first(self, pool):
        # the pool starts the long tasks first; the rows still come back in
        # registry order, sizes ascending
        checks = ["noc-conjecture", "corners-tlt", "runs1"]
        pooled = verify.run_checks(checks, max_n=5, jobs=2)
        sizes = [n for _, n in pool["handed"]]
        assert sizes == sorted(sizes, reverse=True) and len(sizes) == 13
        assert self.strip(pooled) == self.strip(verify.run_checks(checks, max_n=5))
        assert [r.check for r in pooled][:5] == ["corners-tlt"] * 5

    def test_mismatch_exit_code(self, capsys, monkeypatch):
        bad = verify.Row(
            check="corners-tlt", n=3, expected="7", actual="8", match=False, elapsed_ms=0
        )
        monkeypatch.setattr(verify, "run_checks", lambda *a, **k: [bad])
        code, out, _ = run_cli(capsys, "verify", "--check", "corners-tlt")
        assert code == 1
        assert ",false," in out

    def test_planted_collision_fails_corner_run_bijection(self, monkeypatch):
        # every corner of a tableau goes to the run of its first corner, so
        # two corners share a run; the sweep keeps no set of images, and
        # the failure row still counts the collisions from rebuilt sets
        from treelike import bijections

        real = bijections.corner_to_run
        monkeypatch.setattr(
            bijections, "corner_to_run", lambda t, c: real(t, t.path.corner_cells[0])
        )
        (row,) = verify.run_check_at("corner-run-bijection", 4)
        assert not row.match
        assert row.expected == "bijection;32"
        assert row.actual == "collisions=8,missing=8,extra=0,inverse_mm=8;24"

    @pytest.mark.parametrize(
        "argv",
        [["--max-n", "0"], ["--check", "noc-conjecture", "--max-n", "2"]],
    )
    def test_no_rows_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert "no sizes" in err

    def test_jobs_below_one_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--max-n", "3", "--jobs", "0")
        assert code == 2 and out == ""
        assert "--jobs" in err

    def test_unknown_check_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--check", "no-such-check"])
        assert exc.value.code == 2


class TestBiject:
    def test_phi_from_file(self, capsys, tmp_path):
        src = tmp_path / "t.txt"
        src.write_text(FIG_TLT_CANON + "\n")
        code, out, err = run_cli(
            capsys, "biject", "--map", "phi", "--input", str(src)
        )
        assert code == 0 and err == ""
        assert out == FIG_PT + "\n"

    def test_phi_inv_from_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(FIG_PT))
        code, out, _ = run_cli(capsys, "biject", "--map", "phi-inv")
        assert code == 0
        assert out == FIG_TLT_CANON + "\n"

    def test_cut_then_glue(self, capsys, tmp_path):
        src = tmp_path / "t.txt"
        src.write_text("SSWW\noo\no.\n")
        code, cut_out, _ = run_cli(
            capsys, "biject", "--map", "cut", "--input", str(src), "--corner", "2"
        )
        assert code == 0
        assert cut_out.count("---") == 2
        back = tmp_path / "pieces.txt"
        back.write_text(cut_out)
        code, out, _ = run_cli(
            capsys, "biject", "--map", "glue", "--input", str(back)
        )
        assert code == 0
        assert out == "SSWW\noo\no.\ncorner 2\n"

    def test_cut_needs_corner(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("SW\no\n"))
        code, _, err = run_cli(capsys, "biject", "--map", "cut")
        assert code == 2
        assert "--corner" in err

    def test_cut_bad_corner(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("SW\no\n"))
        code, _, err = run_cli(capsys, "biject", "--map", "cut", "--corner", "3")
        assert code == 2
        assert err.startswith("error:")

    def test_parse_failure(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("SQW\noo\n"))
        code, _, err = run_cli(capsys, "biject", "--map", "phi")
        assert code == 2
        assert err.startswith("error:")

    def test_run_worked_instance(self, capsys, monkeypatch):
        triplet = "(6)(7 5 2 3)(9 1 8 4)\n(4 2 3)(5)(7 1 6)(9 8)\n2 3 2* 3* 1 4 0* 1*\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(triplet))
        code, out, _ = run_cli(capsys, "biject", "--map", "run")
        assert code == 0
        assert out == "15 17 11 16 7 5 2 3 9 1 8 4 14 12 13 19 18 10 6\nmark 18\n"

    def test_run_inv_round_trip(self, capsys, monkeypatch):
        perm = "4 2 6 11 9 12 8 3 7 1 5 10"
        monkeypatch.setattr("sys.stdin", io.StringIO(perm + "\n"))
        code, out, _ = run_cli(capsys, "biject", "--map", "run-inv", "--mark", "7")
        assert code == 0
        assert out == "(3)(4 2)(6)(7 1 5)\n(2)(3 1)(4)\n2* 3* 2 3 0* 1 1* 4*\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run_cli(capsys, "biject", "--map", "run")
        assert code == 0
        assert out2 == perm + "\nmark 7\n"

    def test_run_inv_needs_mark(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
        code, _, err = run_cli(capsys, "biject", "--map", "run-inv")
        assert code == 2
        assert "--mark" in err

    def test_run_inv_invalid_mark(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
        code, _, err = run_cli(capsys, "biject", "--map", "run-inv", "--mark", "2")
        assert code == 2
        assert "error:" in err

    def test_missing_input_file(self, capsys):
        code, _, err = run_cli(
            capsys, "biject", "--map", "phi", "--input", "/no/such/file"
        )
        assert code == 2
        assert err.startswith("error:")


class TestTopLevel:
    def test_no_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


def test_commands_load_no_process_pool_or_csv():
    # a serial verify and enumerate must not pay for importing the process
    # pool stack or csv; modules a bare interpreter already holds (site
    # hooks) are not counted
    code = (
        "import io, sys\n"
        "bare = set(sys.modules)\n"
        "from treelike.cli import main\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        "codes = [\n"
        "    main(['enumerate', '--object', 'tlt', '--size', '3']),\n"
        "    main(['verify', '--check', 'runs1', '--max-n', '3', '--format', 'json']),\n"
        "]\n"
        "sys.stdout = out\n"
        "heavy = ('concurrent.futures', 'multiprocessing', 'csv')\n"
        "loaded = sorted(m for m in set(sys.modules) - bare\n"
        "                if any(m == h or m.startswith(h + '.') for h in heavy))\n"
        "print(codes, loaded)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] []"
