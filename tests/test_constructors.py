"""The validating constructors of the six value classes, pinned.

For each class, a table maps bad arguments to the exact `ValueError` text of
every raise, listed in the order the constructor checks them, and a few
arguments that break two checks at once show which check comes first. Every
class also gives back equal objects, with equal attributes (the tableau's
`size` among them), through keyword construction, `dataclasses.replace`,
`copy.copy`, `copy.deepcopy` and `pickle`.
"""

import copy
import dataclasses
import pickle

import pytest

from treelike.bijections import ColoredLetter, ColoredWord, CycleForm, MarkedRun
from treelike.core import BorderPath, NonAmbiguousTree, PermutationTableau, TreeLikeTableau, parse_tlt

P = BorderPath
L = ColoredLetter
TLT = TreeLikeTableau
# a valid tableau whose shape is not a rectangle
STAIR = parse_tlt("SWSW\noo\no")

REJECTED = {
    TreeLikeTableau: [
        (("SW", (1,)), "path must be a BorderPath"),
        ((P("SW"), [1]), "rows must be a tuple"),
        ((P("SW"), (1.0,)), "row masks must be integers"),
        ((P("SW"), ("1",)), "row masks must be integers"),
        ((P("S"), (1,)), "single-row degenerate tableau must be empty"),
        ((P("W"), (0,)), "single-column degenerate tableau must be empty"),
        ((P("WS"), (0,)), "first step must be South"),
        ((P("SWS"), (1, 0)), "last step must be West"),
        ((P("SW"), (1, 1)), "row count does not match path"),
        ((P("SW"), (2,)), "dot outside its row"),
        ((P("SW"), (-1,)), "dot outside its row"),
        ((P("SWW"), (0b10,)), "top-left root cell must be dotted"),
        ((P("SSW"), (1, 0)), "row 2 has no dot"),
        ((P("SSWW"), (0b11, 0b11)), "cell at row 2, column index 1 has both a left and an above dot"),
        ((P("SSWW"), (0b01, 0b10)), "cell at row 2, column index 1 has no parent dot"),
        ((P("SWW"), (1,)), "some column has no dot"),
        # two faults: the earlier check speaks
        ((P("SW"), [1.0]), "rows must be a tuple"),
        ((P("S"), (2.5,)), "single-row degenerate tableau must be empty"),
        ((P("WS"), (1, 1)), "first step must be South"),
        ((P("SW"), (2, 1)), "row count does not match path"),
        ((P("SWW"), (0b110,)), "dot outside its row"),
    ],
    PermutationTableau: [
        (("SW", (1,)), "path must be a BorderPath"),
        ((P("SW"), [1]), "rows must be a tuple"),
        ((P("SW"), (1.0,)), "row masks must be integers"),
        ((P("SW"), (None,)), "row masks must be integers"),
        ((P("WS"), (0,)), "first step must be South"),
        ((P("SW"), (1, 1)), "row count does not match path"),
        ((P("SW"), (2,)), "1 outside its row"),
        ((P("SW"), (-2,)), "1 outside its row"),
        ((P("SSWW"), (0b10, 0b01)), "cell at row 2, column index 1 is 0 with a 1 above and a 1 to its left"),
        ((P("SW"), (0,)), "some column has no 1"),
        ((P("WS"), (5, 5)), "first step must be South"),
        ((P("SSWW"), (0b10, 0b101)), "1 outside its row"),
    ],
    NonAmbiguousTree: [
        ((TLT(P("S"), (0,)),), "tree must have at least one dot"),
        ((TLT(P("W"), ()),), "tree must have at least one dot"),
        ((STAIR,), "shape is not rectangular"),
    ],
    MarkedRun: [
        (([2, 1], 1), "perm must be a tuple"),
        (((1, 1), 1), "not a permutation of 1..n"),
        (((2, 3), 1), "not a permutation of 1..n"),
        (((2, 1), 0), "mark 0 out of range"),
        (((2, 1), 3), "mark 3 out of range"),
        (((1, 2), 1), "position 1 is not a run of size 1"),
        (((1, 1), 9), "not a permutation of 1..n"),
    ],
    CycleForm: [
        (([(1,)],), "cycles must be a tuple"),
        ((((1, 3),),), "cycles must partition 1..m"),
        ((((1, 2),),), "each cycle must start with its maximum"),
        ((((),),), "each cycle must start with its maximum"),
        ((((3,), (2, 1)),), "cycle maxima must increase"),
        ((((2, 1), (3, 3)),), "cycles must partition 1..m"),
    ],
    ColoredWord: [
        (([L(0, True)], 0, 0), "letters must be a tuple"),
        (((L(0, True),), 1, 0), "pointed letters must be exactly 0..1"),
        (((L(0, True),), -1, 0), "pointed letters must be exactly 0..-1"),
        (((L(0, True), L(2, False)), 0, 1), "unpointed letters must be exactly 1..1"),
        (((L(1, True), L(2, False)), 0, 1), "pointed letters must be exactly 0..0"),
    ],
}

# per class, valid arguments by field name
ACCEPTED = {
    TreeLikeTableau: [
        {"path": P("SWSSWWWSW"), "rows": (0b10101, 0b1011, 0b100, 0b1)},
        {"path": P("S"), "rows": (0,)},
        {"path": P("W"), "rows": ()},
    ],
    PermutationTableau: [
        {"path": P("SSWW"), "rows": (0b11, 0b10)},
        {"path": P("SWS"), "rows": (1, 0)},
    ],
    NonAmbiguousTree: [{"tableau": parse_tlt("SSWW\noo\no.")}],
    MarkedRun: [{"perm": (3, 2, 1), "k": 2}, {"perm": (1,), "k": 1}],
    CycleForm: [{"cycles": ((1,), (4, 2, 3))}, {"cycles": ()}],
    ColoredWord: [{"letters": (L(1, True), L(1, False), L(0, True)), "h": 1, "w": 1}],
}


def _cases(table):
    return [
        pytest.param(cls, case, id=f"{cls.__name__}-{i}")
        for cls, cases in table.items()
        for i, case in enumerate(cases)
    ]


@pytest.mark.parametrize("cls, case", _cases(REJECTED))
def test_rejections_are_pinned(cls, case):
    args, text = case
    with pytest.raises(ValueError) as err:
        cls(*args)
    assert str(err.value) == text


def test_every_class_has_a_table():
    assert set(REJECTED) == set(ACCEPTED) == {
        TreeLikeTableau,
        PermutationTableau,
        NonAmbiguousTree,
        MarkedRun,
        CycleForm,
        ColoredWord,
    }


@pytest.mark.parametrize(
    "clone",
    [
        pytest.param(
            lambda obj: type(obj)(**{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}),
            id="keywords",
        ),
        pytest.param(dataclasses.replace, id="replace"),
        pytest.param(copy.copy, id="copy"),
        pytest.param(copy.deepcopy, id="deepcopy"),
        pytest.param(lambda obj: pickle.loads(pickle.dumps(obj)), id="pickle"),
    ],
)
@pytest.mark.parametrize("cls, fields", _cases(ACCEPTED))
def test_clones_are_equal(cls, fields, clone):
    obj = cls(**fields)
    twin = clone(obj)
    assert type(twin) is cls
    assert twin == obj and hash(twin) == hash(obj)
    assert vars(twin) == vars(obj)
    if cls is TreeLikeTableau:
        steps = fields["path"].steps
        assert twin.size == obj.size == (0 if steps in ("S", "W") else len(steps) - 1)
