"""The two sides of a `verify` check are computed independently.

Each check declares `expected(n)`, a closed form, and `actual(n)`, the
survey or sweep it is set against. A check proves something only if
neither side borrows the other:

- the expected side runs with the surveys (`tlt_survey`, `pt_survey`,
  `perm_survey` with its `perm_bi_counts`, and `perm_cycle_dist`) trapped
  to raise, wherever a module of the package binds them;
- the module-level functions of `treelike.counting` and `treelike.abpoly`
  that the expected side calls are recorded, and the actual side then runs
  with exactly those trapped and with the caches of both modules cleared,
  so that no cached survey can hand back a value a closed form computed.

The report rows (`displacement-report`, `noc-conjecture-report`,
`expected-jumps-display`) are informational and not covered.
"""

import functools
import re
import sys
from pathlib import Path

import pytest

from treelike import abpoly, counting, verify

SURVEYS = {"treelike.counting.tlt_survey", "treelike.counting.pt_survey",
           "treelike.counting.perm_survey", "treelike.counting.perm_bi_counts",
           "treelike.counting.perm_cycle_dist"}

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# expected-jumps compares two rational expressions by cross-multiplying:
# each side is one form's numerator times the other form's denominator, so
# both sides use both forms by construction and the rule cannot apply.
EXEMPT = {"expected-jumps"}

CHECKED = [spec for spec in verify.CHECKS if spec.name not in EXEMPT]


class Trapped(Exception):
    pass


def _functions() -> dict:
    """Qualified name -> function, for every module-level function that
    `counting` and `abpoly` define."""
    out = {}
    for module in (counting, abpoly):
        for attr, obj in vars(module).items():
            if (
                callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__
            ):
                out[f"{module.__name__}.{attr}"] = obj
    return out


def _rebind(monkeypatch, functions: dict, make) -> None:
    """Replace each function by `make(name, function)` in every module of
    the package that binds it, so callers that imported it by name see the
    replacement too."""
    by_id = {id(f): (name, f) for name, f in functions.items()}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "treelike" and not mod_name.startswith("treelike."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in by_id:
                monkeypatch.setattr(module, attr, make(*by_id[id(obj)]))


def _trap(name, function):
    def trapped(*args, **kwargs):
        raise Trapped(name)

    return trapped


def _clear_caches(functions: dict) -> None:
    for f in functions.values():
        if hasattr(f, "cache_clear"):
            f.cache_clear()


def _expected_calls(spec, n, functions) -> tuple[str, set]:
    """The expected side's value, run with the surveys trapped, and the
    names of the functions it called."""
    calls = set()

    def record(name, function):
        @functools.wraps(function)
        def recorded(*args, **kwargs):
            calls.add(name)
            return function(*args, **kwargs)

        return recorded

    with pytest.MonkeyPatch.context() as mp:
        _rebind(mp, {k: f for k, f in functions.items() if k in SURVEYS}, _trap)
        _rebind(mp, {k: f for k, f in functions.items() if k not in SURVEYS}, record)
        value = str(spec.expected(n))
    return value, calls


@pytest.mark.parametrize("spec", CHECKED, ids=[spec.name for spec in CHECKED])
def test_sides_are_independent(spec):
    functions = _functions()
    for n in range(spec.min_n, min(spec.default_max, 6) + 1):
        try:
            expected, calls = _expected_calls(spec, n, functions)
        except Trapped as exc:
            pytest.fail(f"{spec.name} n={n}: expected side runs {exc}")
        with pytest.MonkeyPatch.context() as mp:
            _clear_caches(functions)
            _rebind(mp, {k: functions[k] for k in calls}, _trap)
            try:
                actual = str(spec.actual(n))
            except Trapped as exc:
                pytest.fail(f"{spec.name} n={n}: actual side calls {exc}")
        assert actual == expected, (spec.name, n)


def test_traps_reach_every_binding():
    functions = _functions()
    surveys = {k: functions[k] for k in SURVEYS}
    with pytest.MonkeyPatch.context() as mp:
        _rebind(mp, surveys, _trap)
        # verify, abpoly and counting each bind the surveys by name
        with pytest.raises(Trapped):
            verify.tlt_survey(3)
        with pytest.raises(Trapped):
            abpoly.weight_sum(3)
        with pytest.raises(Trapped):
            counting.perm_survey(3)
        with pytest.raises(Trapped):
            verify.perm_cycle_dist(3)


def test_ci_runs_every_check_that_reads_tlt_survey():
    # CI runs the checks whose actual side reads tlt_survey to size 12, but
    # stirling, which lists n! permutations, to size 10; its lists must name
    # exactly those, so a new one joins them
    functions = _functions()
    survey = {"treelike.counting.tlt_survey": functions["treelike.counting.tlt_survey"]}
    readers = set()
    for spec in verify.CHECKS:
        with pytest.MonkeyPatch.context() as mp:
            _clear_caches(functions)
            _rebind(mp, survey, _trap)
            try:
                spec.actual(spec.min_n)
            except Trapped:
                readers.add(spec.name)
    listed = {}
    for size, name in ((12, "Tree-like-survey checks"), (10, "Sweeps of n! objects")):
        step = WORKFLOW.read_text().split(f"name: {name} to size {size}\n")[1]
        assert f"--max-n {size} " in step.split("- name:")[0]
        listed[size] = re.search(r"for c in ([^;]+);", step).group(1).split()
    assert sorted(listed[12] + ["stirling"]) == sorted(readers)
    assert listed[10] == ["stirling", "corner-transfer"]
