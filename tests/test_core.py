"""Diagram geometry, object validation, enumeration and serialization."""

import math
from itertools import product

import pytest

from oracles import EMPTY_COL_TABLEAU, EMPTY_ROW_TABLEAU, dot_cells, tlt_dot_counts
from treelike.core import (
    BorderPath,
    Cell,
    NonAmbiguousTree,
    PermutationTableau,
    TreeLikeTableau,
    enumerate_nat,
    enumerate_pt,
    enumerate_tlt,
    noc_class,
    parse_nat,
    parse_pt,
    parse_tlt,
    pt_fillings,
    stats_of,
    tlt_fillings,
    tlt_first_row_counts,
    to_json,
    to_text,
    transpose,
)

SIZE8_TEXT = "SWSSWWWSW\no.o.o\noo.o\n..o.\no"


class TestBorderPath:
    def test_labels_and_corners(self):
        p = BorderPath("SWSSWWWS")
        assert p.row_labels == (1, 3, 4, 8)
        assert p.col_labels == (2, 5, 6, 7)
        assert p.corner_cells == (Cell(1, 2), Cell(4, 5))
        assert p.row_lengths == (4, 3, 3, 0)

    def test_shape_shared_by_equal_paths(self):
        p, q = BorderPath("SWSSWWWS"), BorderPath("SWSSWWWS")
        assert p == q and hash(p) == hash(q)
        assert p.row_lengths is q.row_lengths
        assert p.corner_grid_positions == ((0, 3), (2, 2))
        assert p != BorderPath("SWSSWWWSW")

    @pytest.mark.parametrize("steps", ["", "SXW", None, ["S", "W"]])
    def test_bad_steps_are_value_error(self, steps):
        with pytest.raises(ValueError):
            BorderPath(steps)

    def test_all_south(self):
        p = BorderPath("SSS")
        assert p.num_rows == 3
        assert p.num_cols == 0
        assert p.row_lengths == (0, 0, 0)
        assert p.corner_cells == ()

    def test_alternating(self):
        assert BorderPath("SWSW").corner_cells == (Cell(1, 2), Cell(3, 4))

    def test_col_order_is_decreasing_labels(self):
        p = BorderPath("SWWW")
        # leftmost column carries the largest label
        assert p.col_index(4) == 0
        assert p.col_index(2) == 2

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            BorderPath("")
        with pytest.raises(ValueError):
            BorderPath("SXW")


class TestTreeLikeValidation:
    def test_root_required(self):
        p = BorderPath("SWW")
        with pytest.raises(ValueError, match="root"):
            TreeLikeTableau(p, (0b10,))

    def test_one_parent_rule(self):
        # dot with both a left and an above dot
        p = BorderPath("SSWW")
        with pytest.raises(ValueError, match="both"):
            TreeLikeTableau(p, (0b11, 0b11))

    def test_orphan_rejected(self):
        p = BorderPath("SSWW")
        with pytest.raises(ValueError, match="no parent"):
            TreeLikeTableau(p, (0b01, 0b10))

    def test_coverage_required(self):
        p = BorderPath("SSWW")
        with pytest.raises(ValueError):
            TreeLikeTableau(p, (0b01, 0b01))

    def test_dot_count_ties_to_path_length(self):
        # valid rules but wrong number of dots cannot arise; a wrong-length
        # path with a correct filling errors out
        p = BorderPath("SWSW")
        with pytest.raises(ValueError):
            TreeLikeTableau(p, (0b1,) + (0b1,))

    def test_degenerates(self):
        assert EMPTY_ROW_TABLEAU.size == 0
        assert EMPTY_COL_TABLEAU.size == 0
        assert EMPTY_ROW_TABLEAU.is_degenerate
        with pytest.raises(ValueError):
            TreeLikeTableau(BorderPath("S"), (1,))
        with pytest.raises(ValueError):
            TreeLikeTableau(BorderPath("W"), (0,))

    def test_dots_have_exactly_size_many(self):
        for n in range(1, 6):
            for t in enumerate_tlt(n):
                assert len(dot_cells(t)) == n
                assert t.size == n
                assert len(t.path.steps) == n + 1


class TestPermutationTableauValidation:
    def test_column_needs_a_one(self):
        p = BorderPath("SW")
        with pytest.raises(ValueError, match="no 1"):
            PermutationTableau(p, (0,))

    def test_forbidden_zero(self):
        # 0 with a 1 above and a 1 to its left
        p = BorderPath("SSWW")
        with pytest.raises(ValueError, match="0 with a 1 above"):
            PermutationTableau(p, (0b10, 0b01))

    def test_empty_rows_allowed(self):
        p = BorderPath("SS")
        pt = PermutationTableau(p, (0, 0))
        assert len(pt.path.steps) == 2

    def test_first_step_south(self):
        with pytest.raises(ValueError, match="South"):
            PermutationTableau(BorderPath("WS"), (0,))


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_tlt_count_is_factorial(self, n):
        assert sum(1 for _ in enumerate_tlt(n)) == math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pt_count_is_factorial(self, n):
        assert sum(1 for _ in enumerate_pt(n)) == math.factorial(n)

    def test_no_duplicates(self):
        for n in range(1, 6):
            ts = list(enumerate_tlt(n))
            assert len(set(ts)) == len(ts)
            ps = list(enumerate_pt(n))
            assert len(set(ps)) == len(ps)

    def test_canonical_order_paths_then_fillings(self):
        seen = [(t.path.steps, t.rows) for t in enumerate_tlt(3)]
        paths = [s for s, _ in seen]
        assert paths == sorted(paths)
        # within one path, fillings are row-major with empty before dot
        def key(rows, lengths):
            return "".join(
                "1" if (m >> c) & 1 else "0"
                for m, lam in zip(rows, lengths)
                for c in range(lam)
            )

        for steps in set(paths):
            group = [r for s, r in seen if s == steps]
            lengths = BorderPath(steps).row_lengths
            keys = [key(r, lengths) for r in group]
            assert keys == sorted(keys)

    def test_size_two_catalogue(self):
        ts = list(enumerate_tlt(2))
        assert [to_text(t) for t in ts] == ["SSW\no\no", "SWW\noo"]

    def test_size_three_catalogue(self):
        texts = [to_text(t) for t in enumerate_tlt(3)]
        assert texts == [
            "SSSW\no\no\no",
            "SSWW\no.\noo",
            "SSWW\noo\n.o",
            "SSWW\noo\no.",
            "SWSW\noo\no",
            "SWWW\nooo",
        ]

    def test_revalidation_of_generated_objects(self):
        for n in range(1, 6):
            for t in enumerate_tlt(n):
                TreeLikeTableau(t.path, t.rows)
            for p in enumerate_pt(n):
                PermutationTableau(p.path, p.rows)

    def test_nat_counts(self):
        assert sum(1 for _ in enumerate_nat(0, 0)) == 1
        assert sum(1 for _ in enumerate_nat(1, 1)) == 3
        assert sum(1 for _ in enumerate_nat(1, 2)) == 7
        assert sum(1 for _ in enumerate_nat(2, 1)) == 7
        for k in range(5):
            assert sum(1 for _ in enumerate_nat(0, k)) == 1
            assert sum(1 for _ in enumerate_nat(k, 0)) == 1

    @pytest.mark.parametrize(
        "call",
        [
            lambda: list(tlt_fillings((), 0)),
            lambda: list(pt_fillings((), 0)),
            lambda: tlt_dot_counts((), 0),
            lambda: tlt_first_row_counts((), 0),
        ],
        ids=["tlt_fillings", "pt_fillings", "tlt_dot_counts", "tlt_first_row_counts"],
    )
    def test_shape_without_rows_is_value_error(self, call):
        with pytest.raises(ValueError, match="at least one row"):
            call()

    def test_nat_dimensions(self):
        for nat in enumerate_nat(2, 3):
            assert nat.height == 2
            assert nat.width == 3
            assert nat.tableau.size == 6


class TestStats:
    def test_size_three_stats(self):
        by_text = {to_text(t): stats_of(t) for t in enumerate_tlt(3)}
        s = by_text["SSSW\no\no\no"]
        assert (s.corners, s.occupiedCorners, s.top, s.left) == (1, 1, 0, 2)
        s = by_text["SWSW\noo\no"]
        assert (s.corners, s.occupiedCorners, s.top, s.left) == (2, 2, 1, 1)
        s = by_text["SSWW\noo\no."]
        assert (s.corners, s.occupiedCorners, s.top, s.left) == (1, 0, 1, 1)
        s = by_text["SSWW\no.\noo"]
        assert (s.corners, s.occupiedCorners, s.top, s.left) == (1, 1, 0, 1)
        total_corners = sum(v.corners for v in by_text.values())
        assert total_corners == 7

    def test_top_left_vs_first_points(self):
        for n in range(1, 6):
            for t in enumerate_tlt(n):
                s = stats_of(t)
                assert s.top == s.firstRowPoints - 1
                assert s.left == s.firstColumnPoints - 1
                assert s.corners == s.occupiedCorners + s.nonOccupiedCorners


class TestNocClass:
    def test_size_three_unique_noc_corner(self):
        t = parse_tlt("SSWW\noo\no.")
        assert noc_class(t, Cell(2, 3)) == "AB"

    def test_rejects_non_corner_and_occupied(self):
        t = parse_tlt("SSWW\noo\no.")
        with pytest.raises(ValueError, match="not a corner"):
            noc_class(t, Cell(1, 3))
        t2 = parse_tlt("SSWW\no.\noo")
        with pytest.raises(ValueError, match="occupied"):
            noc_class(t2, Cell(2, 3))

    def test_class_swap_under_transpose(self):
        swap = {"AB": "AB", "A1": "1B", "1B": "A1", "OneOne": "OneOne"}
        for n in range(3, 6):
            for t in enumerate_tlt(n):
                tt = transpose(t)
                for cell, (r, c) in zip(t.path.corner_cells, t.path.corner_grid_positions):
                    if (t.rows[r] >> c) & 1:
                        continue
                    mirrored = Cell(n + 2 - cell.col, n + 2 - cell.row)
                    assert noc_class(tt, mirrored) == swap[noc_class(t, cell)]


class TestTranspose:
    def test_involution_and_stat_swap(self):
        for n in range(1, 6):
            for t in enumerate_tlt(n):
                tt = transpose(t)
                assert transpose(tt) == t
                s, st = stats_of(t), stats_of(tt)
                assert (s.top, s.left) == (st.left, st.top)
                assert s.corners == st.corners
                assert s.occupiedCorners == st.occupiedCorners

    def test_degenerate_swap(self):
        assert transpose(EMPTY_ROW_TABLEAU) == EMPTY_COL_TABLEAU
        assert transpose(EMPTY_COL_TABLEAU) == EMPTY_ROW_TABLEAU


class TestSerialization:
    def test_size8_fixture(self):
        t = parse_tlt(SIZE8_TEXT)
        assert t.size == 8
        assert to_text(t) == SIZE8_TEXT
        dots = dot_cells(t)
        assert Cell(1, 9) in dots and Cell(4, 6) in dots
        assert Cell(1, 7) not in dots

    def test_pt_with_trailing_empty_row(self):
        # the last row has length zero, so the text form ends with an
        # empty line that the parser must keep
        text = "SWSSWWWS\n0101\n111\n001\n"
        p = parse_pt(text)
        assert p.path.steps == "SWSSWWWS"
        assert p.rows[-1] == 0
        assert to_text(p) == text
        assert parse_pt(to_text(p)) == p

    def test_degenerate_round_trip(self):
        assert parse_tlt(to_text(EMPTY_ROW_TABLEAU)) == EMPTY_ROW_TABLEAU
        assert parse_tlt(to_text(EMPTY_COL_TABLEAU)) == EMPTY_COL_TABLEAU

    def test_json_shape(self):
        t = parse_tlt("SWW\noo")
        assert to_json(t) == '{"path":"SWW","rows":["oo"]}'

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_tlt("SWW\no")  # wrong row length
        with pytest.raises(ValueError):
            parse_tlt("SWW\nox")  # bad character
        with pytest.raises(ValueError):
            parse_nat("SWSW\noo\no")  # not rectangular

    def test_text_round_trip_property(self):
        # every object up to size 6; pt rows of length 0 are empty lines
        for n in range(1, 7):
            for t in enumerate_tlt(n):
                assert parse_tlt(to_text(t)) == t
            for p in enumerate_pt(n):
                assert parse_pt(to_text(p)) == p
        for h, w in product(range(4), repeat=2):
            for nat in enumerate_nat(h, w):
                assert parse_nat(to_text(nat)) == nat


class TestNatValidation:
    def test_wrap_requires_rectangle(self):
        t = parse_tlt("SWSW\noo\no")
        with pytest.raises(ValueError, match="rectangular"):
            NonAmbiguousTree(t)

    def test_transpose_swaps_dims(self):
        for nat in enumerate_nat(1, 2):
            tt = NonAmbiguousTree(transpose(nat.tableau))
            assert (tt.height, tt.width) == (2, 1)


def test_every_cache_is_bounded():
    # memory must stay bounded: no cached function of the package may grow
    # without limit
    import sys

    import treelike.cli  # noqa: F401 -- imports every module of the package

    cached = {
        f"{name}.{attr}": obj.cache_parameters()["maxsize"]
        for name, module in list(sys.modules.items())
        if name.startswith("treelike.")
        for attr, obj in vars(module).items()
        if hasattr(obj, "cache_parameters")
    }
    assert {
        "treelike.core._tlt_completions",
        "treelike.counting.stirling_row",
        "treelike.bijections._piece_to_cycles",
        "treelike.bijections._cycles_to_piece",
        "treelike.bijections._tree_to_letters",
        "treelike.bijections._letters_to_tree",
    } <= set(cached)
    assert {name: size for name, size in cached.items() if size is None} == {}


def _orphans(sources: dict, exported=()) -> set:
    """The functions, methods, dataclass fields and module constants of
    `sources` ({path: code}) that no code names outside their own body or
    assignment (prose in a docstring does not count) and that are not
    exported. A method is named `Class.method`, and so is an annotated
    field of a `@dataclass`, `Class.field`; a module constant is a name
    bound by an assignment at the top level of a module. NamedTuples have
    no fields here, because code unpacks them by position.

    Where the receiver's class is known the use is resolved: `self.x` or
    `cls.x` inside a class, `C.x` for a class C of the sources, `t.x` in a
    function with the parameter `t: C` or after `t = C(...)`, `r.x` in a
    loop or comprehension `for r in rows` over a call to a function
    annotated `-> list[C]` (or over a name bound to such a call), and
    `r.f.x` where r resolves to a class whose body annotates the field
    `f: C`, count only for C's x. `m.x`, for a module m of the sources
    imported with `from . import m`, counts only for m's top-level x. Any
    other attribute `obj.x` counts for every method, field, function and
    constant named x, and a bare name `x` for every function and constant
    named x. Binding a name or assigning to an attribute is not a use. A
    field counts as read only outside the functions that call its class's
    constructor: the function that builds a record fills it."""
    import ast
    from pathlib import PurePath

    trees = {path: ast.parse(code) for path, code in sources.items()}
    classes = {
        node.name
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }
    modules = {PurePath(str(path)).stem: path for path in trees}
    defs = []  # (class or None, name, file, first line, last line, is a field)
    for path, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defs.extend(
                    (None, node.id, path, stmt.lineno, stmt.end_lineno, False)
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                ast.unparse(getattr(d, "func", d)).endswith("dataclass")
                for d in node.decorator_list
            ):
                defs.extend(
                    (node.name, stmt.target.id, path, stmt.lineno, stmt.end_lineno, True)
                    for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                )
    # (class, None when unknown, "" for a bare name, or a module's file;
    # name, file, line, the names its enclosing functions call)
    uses = []

    def annotated(node):
        # the class of the sources an annotation names, else None
        name = node.value if isinstance(node, ast.Constant) else getattr(node, "id", None)
        return name if name in classes else None

    fields = {  # (class, field name): the class the field is annotated with
        (node.name, stmt.target.id): annotated(stmt.annotation)
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }

    def listed(node):
        # (C,) for the annotation `list[C]`, C a class of the sources
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "list":
            c = annotated(node.slice)
            return c and (c,)
        return None

    returns = {  # (module file or class, function name): (C,) for `-> list[C]`
        (owner, stmt.name): listed(stmt.returns)
        for path, tree in trees.items()
        for owner, body in [(path, tree.body)]
        + [(node.name, node.body) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
        for stmt in body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }

    def resolve(expr, cls, env):
        # the class of the sources (or the module file) the receiver
        # expression holds, else None
        if isinstance(expr, ast.Name):
            return cls if expr.id in ("self", "cls") else env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            return fields.get((resolve(expr.value, cls, env), expr.attr))
        return None

    def made(value, path, cls, env):
        # what a call's result holds: C for the constructor call C(...),
        # (C,) for a call to a function annotated `-> list[C]`, else None
        if not isinstance(value, ast.Call):
            return None
        func = value.func
        if isinstance(func, ast.Attribute):
            return returns.get((resolve(func.value, cls, env), func.attr))
        return annotated(func) or returns.get((path, getattr(func, "id", None)))

    def element(iterable, path, cls, env):
        # the class C of the sources a loop over a list of C binds, else None
        if isinstance(iterable, ast.Name):
            held = env.get(iterable.id)
        else:
            held = made(iterable, path, cls, env)
        return held[0] if isinstance(held, tuple) else None

    def bind(target, held, env):
        # a plain name target holds `held`; a name unpacked from a tuple
        # target holds nothing known
        for name in ast.walk(target):
            if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                env[name.id] = held if name is target else None

    def visit(node, path, cls, in_class_body, env, calls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, child.name, True, env, calls)
                continue
            inner, inner_calls = env, calls
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = cls if in_class_body else None
                defs.append((owner, child.name, path, child.lineno, child.end_lineno, False))
                # a parameter holds its annotated class, or shadows a name
                a = child.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                inner = dict(env)
                for arg in filter(None, params):
                    inner[arg.arg] = arg.annotation and annotated(arg.annotation)
                inner_calls = calls | {
                    call.func.id
                    for call in ast.walk(child)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                }
            elif isinstance(child, ast.Assign):
                held = made(child.value, path, cls, env)
                for target in child.targets:
                    bind(target, held, env)
            elif isinstance(child, (ast.For, ast.AsyncFor)):
                bind(child.target, element(child.iter, path, cls, env), env)
            elif isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                # a comprehension binds its targets in a scope of its own
                inner = dict(env)
                for gen in child.generators:
                    bind(gen.target, element(gen.iter, path, cls, inner), inner)
            elif isinstance(child, ast.ImportFrom) and child.module is None:
                for alias in child.names:
                    if alias.name in modules:
                        env[alias.asname or alias.name] = modules[alias.name]
            elif isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
                uses.append(("", child.id, path, child.lineno, calls))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                owner = resolve(child.value, cls, env)
                uses.append((owner, child.attr, path, child.lineno, calls))
            visit(child, path, cls, False, inner, inner_calls)

    for path, tree in trees.items():
        visit(tree, path, None, False, {c: c for c in classes}, frozenset())

    def named(owner, name, path, first, last, is_field):
        for u_owner, u_name, p, line, calls in uses:
            if u_name != name or (p == path and first <= line <= last):
                continue
            if is_field and owner in calls:
                continue
            if owner is None and u_owner in ("", None, path):
                return True
            if owner is not None and u_owner in (owner, None):
                return True
        return False

    return {
        name if owner is None else f"{owner}.{name}"
        for owner, name, path, first, last, is_field in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in exported
        and not named(owner, name, path, first, last, is_field)
    }


def test_every_function_has_a_caller():
    # each function, method, dataclass field or module constant of the
    # package is named in code somewhere in src/, or is exported
    from pathlib import Path

    import treelike

    sources = {
        path: path.read_text() for path in sorted(Path(treelike.__file__).parent.glob("*.py"))
    }
    assert _orphans(sources, treelike.__all__) == set()


def test_caller_guard_resolves_the_receiver():
    # A.text is never called: B's call goes through self, and C's through
    # the class, so neither counts for A; a read of `.size` on an unknown
    # receiver still counts for every method named size. Of the constants
    # in k.py, main reads LIMIT; SPARE is only bound, so it has no reader
    code = """
class A:
    def text(self):
        return 1

    def size(self):
        return 2

class B:
    def text(self):
        return 3

    def show(self):
        return self.text()

class C:
    @staticmethod
    def text():
        return 4

def main(obj):
    return B().show() + C.text() + obj.size() + LIMIT
"""
    constants = """
LIMIT = 5
SPARE: int = LIMIT + 1
"""
    assert _orphans({"m.py": code}) == {"A.text", "main"}
    assert _orphans({"m.py": code, "k.py": constants}) == {"A.text", "main", "SPARE"}
    # an annotated parameter and an annotated field resolve their reads:
    # `t.length()` counts for Tableau alone and `t.path.length()` for Path
    # alone, so Grid.length has no reader
    typed = """
class Path:
    def length(self):
        return 1

class Grid:
    def length(self):
        return 2

class Tableau:
    path: Path

    def length(self):
        return 3

def total(t: Tableau):
    return t.path.length() + t.length()
"""
    assert _orphans({"t.py": typed}) == {"Grid.length", "total"}
    # a dataclass field counts as read only outside the functions that call
    # its constructor, and assigning to it is no read: `build` fills Survey
    # and reads `spare`, and `clear` only assigns it, so spare is reported,
    # while `build().total` in main reads total. `g = Grid()` binds g to
    # Grid, so `g.size()` counts for Grid alone. A NamedTuple has no fields
    # here
    records = """
@dataclass
class Survey:
    total: int = 0
    spare: int = 0

    def size(self):
        return 1

class Grid:
    def size(self):
        return 2

class Pair(NamedTuple):
    left: int

def build():
    s = Survey()
    s.total += 1
    s.spare = s.spare + 1
    return s

def clear(s: Survey):
    s.spare = 0

def main():
    g = Grid()
    return build().total + g.size()
"""
    assert _orphans({"r.py": records}) == {"Survey.spare", "Survey.size", "clear", "main"}
    # `counting.formula` names the top-level formula of counting.py alone,
    # so neither the method Poly.formula nor the formula of abpoly.py has a
    # reader
    counting = """
def formula(n):
    return n

class Poly:
    def formula(self):
        return 0
"""
    verify = """
from . import counting

def check(n):
    return counting.formula(n)
"""
    modules = {"counting.py": counting, "verify.py": verify, "abpoly.py": "def formula(): pass"}
    assert _orphans(modules) == {"Poly.formula", "check", "formula"}


def test_caller_guard_types_loop_variables():
    # a loop or comprehension variable over a call to a function annotated
    # `-> list[C]`, or over a name bound to one, holds a C: both reads of
    # `.n` in cli count for Row alone, so Survey.n has no reader. Without
    # the annotation, `.n` counts for every field named n
    verify = """
@dataclass
class Row:
    n: int

def run_checks() -> list[Row]:
    return [Row(1)]
"""
    counting = """
@dataclass
class Survey:
    n: int
"""
    cli = """
from . import verify

def main():
    rows = verify.run_checks()
    for r in rows:
        print(r.n)
    return sum(row.n for row in verify.run_checks())
"""
    modules = {"verify.py": verify, "counting.py": counting, "cli.py": cli}
    assert _orphans(modules) == {"Survey.n", "main"}
    modules["verify.py"] = verify.replace(" -> list[Row]", "")
    assert _orphans(modules) == {"main"}
