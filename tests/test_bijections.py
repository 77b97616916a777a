"""Round trips and worked instances for every map."""

import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    EMPTY_COL_TABLEAU,
    EMPTY_ROW_TABLEAU,
    PairLRU,
    enumerate_colored_words,
    filling_count,
)
from treelike import bijections
from treelike.bijections import (
    _PIECES,
    _TREES,
    ColoredLetter,
    ColoredWord,
    CycleForm,
    MarkedRun,
    _cycles,
    _permutation,
    _rank_piece,
    _rank_tree,
    _tree_to_letters,
    _TwoWayMemo,
    _unrank_piece,
    _unrank_tree,
    _valid_word,
    _word_unrank,
    corner_to_run,
    corner_transfer_delta,
    count_colored_words,
    cut_at_corner,
    glue,
    m_star,
    parse_colored_word,
    parse_cycle_form,
    pt_to_tlt,
    run_to_corner,
    run_to_triplet,
    tlt_to_pt,
    triplet_to_run,
)
from treelike.core import (
    SOUTH,
    WEST,
    BorderPath,
    Cell,
    NonAmbiguousTree,
    TreeLikeTableau,
    _tlt_completions,
    enumerate_nat,
    enumerate_pt,
    enumerate_tlt,
    filling_unrank,
    first_col_points,
    first_row_points,
    noc_class,
    parse_pt,
    parse_tlt,
    to_text,
    transpose,
)
from treelike.counting import runs_of_size_1, tlt_corner_count
from treelike.verify import run_check_at


class TestColumnDeletion:
    def test_size8_worked_instance(self):
        t = parse_tlt("SWSSWWWSW\no.o.o\noo.o\n..o.\no")
        p = tlt_to_pt(t)
        assert to_text(p) == "SWSSWWWS\n0101\n111\n001\n"
        assert pt_to_tlt(p) == t

    def test_smallest(self):
        t = parse_tlt("SW\no")
        p = tlt_to_pt(t)
        assert to_text(p) == "S\n"
        assert pt_to_tlt(p) == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_both_ways(self, n):
        for t in enumerate_tlt(n):
            assert pt_to_tlt(tlt_to_pt(t)) == t
        for p in enumerate_pt(n):
            assert tlt_to_pt(pt_to_tlt(p)) == p

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            tlt_to_pt(EMPTY_ROW_TABLEAU)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_corner_transfer(self, n):
        import math

        total = 0
        for t in enumerate_tlt(n):
            d = corner_transfer_delta(t)
            assert d in (0, 1)
            before = len(t.path.corner_cells)
            after = len(tlt_to_pt(t).path.corner_cells)
            assert before - after == d
            total += d
        assert total == math.factorial(n - 1)


class TestCutGlue:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_all_corners(self, n):
        pairs = 0
        for t in enumerate_tlt(n):
            for c in t.path.corner_cells:
                t_l, t_r, nat = cut_at_corner(t, c)
                assert t_l.size + t_r.size + 1 == n
                fr_l = t_l.rows[0].bit_count() if t_l.rows else 0
                fc_r = sum(1 for m in t_r.rows if m & 1)
                assert nat.width == fr_l
                assert nat.height == fc_r
                assert glue(t_l, t_r, nat) == (t, c)
                pairs += 1
        assert pairs == tlt_corner_count(n)

    def test_smallest_cut(self):
        t = parse_tlt("SW\no")
        t_l, t_r, nat = cut_at_corner(t, Cell(1, 2))
        assert t_l == EMPTY_ROW_TABLEAU
        assert t_r == EMPTY_COL_TABLEAU
        assert (nat.height, nat.width) == (0, 0)

    def test_degenerate_sides_occur(self):
        lefts = set()
        rights = set()
        for t in enumerate_tlt(3):
            for c in t.path.corner_cells:
                t_l, t_r, _ = cut_at_corner(t, c)
                lefts.add(t_l.size)
                rights.add(t_r.size)
        assert 0 in lefts
        assert 0 in rights

    def test_rejects_non_corner(self):
        t = parse_tlt("SW\no")
        with pytest.raises(ValueError, match="not a corner"):
            cut_at_corner(t, Cell(2, 3))

    def test_glue_dimension_mismatch(self):
        nat = next(iter(enumerate_nat(1, 1)))
        with pytest.raises(ValueError, match="width|height"):
            glue(EMPTY_ROW_TABLEAU, EMPTY_COL_TABLEAU, nat)

    def test_glue_wrong_degenerate(self):
        nat = next(iter(enumerate_nat(0, 0)))
        with pytest.raises(ValueError, match="degenerate left"):
            glue(EMPTY_COL_TABLEAU, EMPTY_COL_TABLEAU, nat)

    def test_size_three_triplet_census(self):
        # seven corners split 2 + 3 + 2 by corner label
        by_label = {}
        for t in enumerate_tlt(3):
            for c in t.path.corner_cells:
                by_label[c.row] = by_label.get(c.row, 0) + 1
        assert by_label == {1: 2, 2: 3, 3: 2}


class TestColoredWords:
    def test_alphabet_validation(self):
        with pytest.raises(ValueError):
            ColoredWord((ColoredLetter(1, False),), 0, 1)  # no pointed 0
        with pytest.raises(ValueError):
            parse_colored_word("1 2")

    def test_validity_conditions(self):
        assert _valid_word(parse_colored_word("1 0* 1*").letters)
        assert not _valid_word(parse_colored_word("0* 1* 1").letters)  # ends unpointed
        assert not _valid_word(parse_colored_word("1* 0* 2*").letters)  # pointed decrease
        w = parse_colored_word("2 1 0*")
        assert not _valid_word(w.letters)  # unpointed decrease

    def test_parse_round_trip(self):
        s = "2 3 2* 3* 1 4 0* 1*"
        assert parse_colored_word(s).text() == s

    def test_counts(self):
        assert count_colored_words(0, 0) == 1
        assert count_colored_words(1, 1) == 3
        assert count_colored_words(1, 2) == 7
        assert count_colored_words(2, 1) == 7

    @pytest.mark.parametrize("h,w", [(h, w) for h in range(4) for w in range(4) if h + w <= 5])
    def test_matches_tree_count(self, h, w):
        assert count_colored_words(h, w) == sum(1 for _ in enumerate_nat(h, w))

    def test_enumeration_deterministic_and_valid(self):
        words = list(enumerate_colored_words(2, 2))
        assert words == list(enumerate_colored_words(2, 2))
        assert len(set(words)) == len(words)
        for wrd in words:
            assert _valid_word(wrd.letters)


class TestCycleForm:
    def test_text_round_trip(self):
        s = "(6)(7 5 2 3)(9 1 8 4)"
        cf = parse_cycle_form(s)
        assert cf.text() == s
        assert sum(map(len, cf.cycles)) == 9

    def test_empty(self):
        cf = parse_cycle_form("")
        assert cf.cycles == ()
        assert cf.text() == ""

    def test_permutation_round_trip(self):
        for n in range(0, 6):
            for p in permutations(range(1, n + 1)):
                cf = CycleForm(_cycles(p))  # the constructor checks the cycle form
                assert _permutation(cf.cycles) == p

    def test_validation(self):
        with pytest.raises(ValueError, match="maximum"):
            CycleForm(((1, 2),))
        with pytest.raises(ValueError, match="increase"):
            CycleForm(((3, 1), (2,)))
        with pytest.raises(ValueError, match="partition"):
            CycleForm(((2, 1), (2,)))


class TestMarkedRun:
    def test_all_positions_on_decreasing(self):
        for k in (1, 2, 3):
            MarkedRun((3, 2, 1), k)

    def test_rejects_non_run(self):
        with pytest.raises(ValueError, match="run of size 1"):
            MarkedRun((1, 2, 3), 1)
        with pytest.raises(ValueError, match="out of range"):
            MarkedRun((1,), 2)


class TestBlockSwap:
    def test_worked_instance(self):
        m = parse_colored_word("1* 4 0* 1 2 2* 3 3*")
        swapped = m_star(m.letters)
        assert ColoredWord(swapped, m.h, m.w).text() == "1* 4 0* 2* 1 2 3* 3"
        assert m_star(swapped) == m.letters

    def test_identity_branch(self):
        m = parse_colored_word("2 3 2* 3* 1 4 0* 1*")
        assert m_star(m.letters) == m.letters

    def test_branch_readable_from_last_letter(self):
        # identity keeps the word ending pointed; the swap ends unpointed
        for h in range(3):
            for w in range(3):
                for m in enumerate_colored_words(h, w):
                    out = m_star(m.letters)
                    changed = out != m.letters
                    assert changed == (not out[-1].pointed)
                    assert m_star(out) == m.letters

    def test_unpaired_block_is_value_error(self):
        # the pointed 0 is followed by one unpointed block and nothing to
        # swap it with
        with pytest.raises(ValueError, match="block pairs"):
            m_star(parse_colored_word("0* 1").letters)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_involution_on_large_alphabets(self, data):
        h = data.draw(st.integers(0, 8))
        w = data.draw(st.integers(0, 8))
        m = _word_unrank(h, w, data.draw(st.integers(0, count_colored_words(h, w) - 1)))
        out = m_star(m)
        assert m_star(out) == m
        assert (out != m) == (not out[-1].pointed)


L_EX = "(6)(7 5 2 3)(9 1 8 4)"
R_EX = "(4 2 3)(5)(7 1 6)(9 8)"


class TestTripletRun:
    def test_worked_instance_one(self):
        mr = triplet_to_run(
            parse_cycle_form(L_EX),
            parse_cycle_form(R_EX),
            parse_colored_word("2 3 2* 3* 1 4 0* 1*"),
        )
        assert mr.perm == (15, 17, 11, 16, 7, 5, 2, 3, 9, 1, 8, 4, 14, 12, 13, 19, 18, 10, 6)
        assert mr.k == 18

    def test_worked_instance_two_with_swap(self):
        mr = triplet_to_run(
            parse_cycle_form(L_EX),
            parse_cycle_form(R_EX),
            parse_colored_word("1* 4 0* 1 2 2* 3 3*"),
        )
        assert mr.perm == (6, 19, 18, 10, 7, 5, 2, 3, 14, 12, 13, 15, 9, 1, 8, 4, 17, 11, 16)
        assert mr.k == 4

    def test_worked_instance_reverse(self):
        mr = MarkedRun((4, 2, 6, 11, 9, 12, 8, 3, 7, 1, 5, 10), 7)
        l_cf, r_cf, m = run_to_triplet(mr)
        assert l_cf.text() == "(3)(4 2)(6)(7 1 5)"
        assert r_cf.text() == "(2)(3 1)(4)"
        assert m.text() == "2* 3* 2 3 0* 1 1* 4*"
        assert triplet_to_run(l_cf, r_cf, m) == mr

    def test_smallest(self):
        mr = MarkedRun((1,), 1)
        l_cf, r_cf, m = run_to_triplet(mr)
        assert l_cf.cycles == ()
        assert r_cf.cycles == ()
        assert m.text() == "0*"
        assert triplet_to_run(l_cf, r_cf, m) == mr

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_over_all_marked_runs(self, n):
        for p in permutations(range(1, n + 1)):
            for k in runs_of_size_1(p):
                mr = MarkedRun(p, k)
                trip = run_to_triplet(mr)
                assert triplet_to_run(*trip) == mr

    def test_alphabet_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cycle counts"):
            triplet_to_run(
                parse_cycle_form("(1)"),
                parse_cycle_form(""),
                parse_colored_word("0*"),
            )

    def test_invalid_word_rejected(self):
        with pytest.raises(ValueError, match="valid"):
            triplet_to_run(
                parse_cycle_form("(1)"),
                parse_cycle_form("(1)"),
                ColoredWord(
                    (
                        ColoredLetter(0, True),
                        ColoredLetter(1, True),
                        ColoredLetter(1, False),
                    ),
                    1,
                    1,
                ),
            )

    def test_check_order(self):
        # the alphabet is checked before the word's order, and both before
        # the block swap, which would reject "0* 1" with its own message:
        # its one block after the pointed 0 has no partner
        word = parse_colored_word("0* 1")
        with pytest.raises(ValueError, match="^word alphabet does not match the cycle counts$"):
            triplet_to_run(parse_cycle_form("(1)"), parse_cycle_form(""), word)
        with pytest.raises(ValueError, match="^not a valid colored word$"):
            triplet_to_run(parse_cycle_form(""), parse_cycle_form("(1)"), word)
        with pytest.raises(ValueError, match="block pairs"):
            m_star(word.letters)


class TestCornerRun:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_bijection(self, n):
        image = {}
        for t in enumerate_tlt(n):
            for c in t.path.corner_cells:
                mr = corner_to_run(t, c)
                assert mr not in image
                image[mr] = (t, c)
                assert run_to_corner(mr) == (t, c)
        runs = {
            MarkedRun(p, k)
            for p in permutations(range(1, n + 1))
            for k in runs_of_size_1(p)
        }
        assert set(image) == runs
        assert len(image) == tlt_corner_count(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_plain_pair_corners(self, n):
        # a (row, col) tuple equal to a corner acts as the Cell does
        for t in enumerate_tlt(n):
            for c in t.path.corner_cells:
                pair = (c.row, c.col)
                assert cut_at_corner(t, pair) == cut_at_corner(t, c)
                assert corner_to_run(t, pair) == corner_to_run(t, c)
                r, ci = t.path.row_index(c.row), t.path.col_index(c.col)
                if not (t.rows[r] >> ci) & 1:
                    assert noc_class(t, pair) == noc_class(t, c)

    @pytest.mark.parametrize("corner", [Cell(2, 3), (1, 1), None], ids=["cell", "pair", "none"])
    def test_rejects_non_corner(self, corner):
        t = parse_tlt("SW\no")
        for f in (cut_at_corner, corner_to_run):
            with pytest.raises(ValueError, match="not a corner"):
                f(t, corner)

    def test_one_validation_per_round_trip(self, monkeypatch):
        # the pieces, cycles and word stay rows and tuples: each map builds
        # only the object it returns
        built = Counter()
        for cls in (TreeLikeTableau, NonAmbiguousTree, CycleForm, ColoredWord, MarkedRun):

            def counted(self, *args, real=cls.__init__, name=cls.__name__):
                built[name] += 1
                real(self, *args)

            monkeypatch.setattr(cls, "__init__", counted)
        tableaux = [t for n in range(1, 6) for t in enumerate_tlt(n)]
        for memo in (_PIECES, _TREES):
            memo.cache_clear()
        # once with empty memos, once with the recodings memoized
        for _ in range(2):
            for t in tableaux:
                for c in t.path.corner_cells:
                    built.clear()
                    mr = corner_to_run(t, c)
                    assert built == {"MarkedRun": 1}
                    built.clear()
                    back = run_to_corner(mr)
                    assert built == {"TreeLikeTableau": 1}
                    assert back == (t, c)

    def test_triple_run_target(self):
        # the three marked positions of the decreasing word of size 3 all
        # pull back to corners
        for k in (1, 2, 3):
            t, c = run_to_corner(MarkedRun((3, 2, 1), k))
            assert c in t.path.corner_cells
            assert corner_to_run(t, c) == MarkedRun((3, 2, 1), k)


def _misses() -> tuple[int, int]:
    return _PIECES.cache_info().misses, _TREES.cache_info().misses


def _pairs_held(memo: _TwoWayMemo) -> list:
    # the pairs ((*c, x), y) the memo holds, least recently used first; the
    # inverse key (*c, y) of each pair, and no other, leads back to it
    assert memo._back == {(*k[:-1], y): k for k, y in memo._pairs.items()}
    return list(memo._pairs.items())


class TestTwoWayMemo:
    def test_round_trip_from_a_corner_recodes_once(self):
        # corner_to_run computes at most both pieces and the tree; mapping
        # its image back reads all three from the memos
        for memo in (_PIECES, _TREES):
            memo.cache_clear()
        for n in range(1, 7):
            for t in enumerate_tlt(n):
                for c in t.path.corner_cells:
                    pieces, trees = _misses()
                    mr = corner_to_run(t, c)
                    after = _misses()
                    assert after[0] - pieces <= 2 and after[1] - trees <= 1
                    assert run_to_corner(mr) == (t, c)
                    assert _misses() == after

    def test_round_trip_from_a_run_recodes_once(self):
        for memo in (_PIECES, _TREES):
            memo.cache_clear()
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                for k in runs_of_size_1(p):
                    mr = MarkedRun(p, k)
                    pieces, trees = _misses()
                    t, c = run_to_corner(mr)
                    after = _misses()
                    assert after[0] - pieces <= 2 and after[1] - trees <= 1
                    assert corner_to_run(t, c) == mr
                    assert _misses() == after

    def test_memo_hit_runs_no_block_swap(self, monkeypatch):
        # `_TREES` pairs each tree with its word's block order, so the swap
        # and the word check run only when a tree is recoded: each at most
        # once per miss on the first pass, and not at all on the second,
        # which hits every time
        calls = Counter()
        for name in ("m_star", "_valid_word"):

            def counted(letters, real=getattr(bijections, name), name=name):
                calls[name] += 1
                return real(letters)

            monkeypatch.setattr(bijections, name, counted)
        corners = [(t, c) for n in range(1, 6) for t in enumerate_tlt(n) for c in t.path.corner_cells]
        for memo in (_PIECES, _TREES):
            memo.cache_clear()
        for first in (True, False):
            calls.clear()
            before = _TREES.cache_info().misses
            for t, c in corners:
                assert run_to_corner(corner_to_run(t, c)) == (t, c)
            misses = _TREES.cache_info().misses - before
            if first:
                assert 0 < calls["m_star"] <= misses and calls["_valid_word"] <= misses
            else:
                assert misses == 0 and calls == {}

    def test_bound_holds_and_directions_agree(self):
        # more pairs than the bound, met from both sides: after every call
        # the memo holds at most maxsize pairs, the same ones both ways, and
        # answers as the unmemoized maps
        pieces = _TwoWayMemo(_rank_piece, _unrank_piece, maxsize=5)
        trees = _TwoWayMemo(_rank_tree, _unrank_tree, maxsize=3)
        keys = []
        for n in range(1, 5):
            for t in enumerate_tlt(n):
                for stat in (first_row_points, first_col_points):
                    piece = (t.path.steps, t.rows)
                    keys.append((pieces, _rank_piece, (stat, stat(t.rows), piece)))
        for h, w in ((1, 1), (2, 1), (1, 2)):
            for nat in enumerate_nat(w, h):
                keys.append((trees, _rank_tree, (h, w, nat.tableau.rows)))
        random.Random(0).shuffle(keys)
        for i, (memo, f, x) in enumerate(keys):
            y = (*x[:-1], f(*x))
            # every third pair is met from the inverse side first
            if i % 3:
                assert memo.forward(*x) == y[-1]
            else:
                assert memo.inverse(*y) == x[-1]
            assert memo.forward(*x) == y[-1] and memo.inverse(*y) == x[-1]
            held = _pairs_held(memo)
            assert held[-1] == (x, y[-1])
            assert len(held) == memo.cache_info().currsize <= memo.cache_parameters()["maxsize"]
        for memo, maxsize in ((pieces, 5), (trees, 3)):
            met = sum(m is memo for m, _, _ in keys)
            assert memo.cache_info() == (2 * met, met, maxsize, maxsize)

    def test_least_recently_used_pair_leaves_both_ways(self):
        memo = _TwoWayMemo(_rank_piece, _unrank_piece, maxsize=2)
        keys = [
            (first_row_points, t.rows[0].bit_count(), (t.path.steps, t.rows))
            for t in enumerate_tlt(3)
        ]
        images = [_rank_piece(*x) for x in keys[:3]]
        memo.forward(*keys[0])
        memo.inverse(*keys[1][:2], images[1])
        memo.forward(*keys[0])  # the first pair is now the most recently used
        memo.forward(*keys[2])  # so the second leaves, in both directions
        assert _pairs_held(memo) == [(keys[0], images[0]), (keys[2], images[2])]
        assert memo.cache_info() == (1, 3, 2, 2)
        memo.cache_clear()
        assert memo.cache_info() == (0, 0, 2, 0) and _pairs_held(memo) == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4),
        st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 6)), max_size=40),
    )
    def test_matches_a_reference_lru(self, maxsize, calls):
        # random forward and inverse calls on a toy bijection of 0..5 per c;
        # forward rejects x = 6, inverse is asked only for images
        memo = _TwoWayMemo(_toy_f, _toy_g, maxsize=maxsize)
        ref = PairLRU(_toy_f, _toy_g, maxsize)
        for way, c, z in calls:
            key = (c, _toy_f(c, z % 6)) if way else (c, z)
            lookup = memo.inverse if way else memo.forward
            if key == (c, 6):
                with pytest.raises(ValueError, match="no pair"):
                    lookup(*key)
                with pytest.raises(ValueError, match="no pair"):
                    ref.call(way, *key)
            else:
                assert lookup(*key) == ref.call(way, *key)
            assert memo.cache_info() == (ref.hits, ref.misses, maxsize, len(ref.held))
            assert _pairs_held(memo) == ref.held

    def test_readme_hit_counts(self):
        # the first row of the README's hit/miss table: the sweeps n = 1..6
        # of `verify --check corner-run-bijection --max-n 6`, from empty memos
        for memo in (_PIECES, _TREES):
            memo.cache_clear()
        for n in range(1, 7):
            assert all(row.match for row in run_check_at("corner-run-bijection", n))
        lookups = [(info.misses, info.hits + info.misses) for info in (_PIECES.cache_info(), _TREES.cache_info())]
        assert lookups == [(308, 5688), (381, 2844)]

    def test_rejected_key_is_not_stored(self):
        memo = _TwoWayMemo(_rank_piece, _unrank_piece)
        for _ in range(2):
            with pytest.raises(ValueError, match="must hold a dot"):
                memo.forward(first_row_points, 1, ("SWSW", (0b01, 0b01)))
            # the size-0 piece of the other side would pair with the same cycles
            with pytest.raises(ValueError, match="size-0 piece"):
                memo.forward(first_row_points, 0, (WEST, ()))
        assert memo.cache_info() == (0, 4, 512, 0)
        # a tree with an extra empty row or a dot outside the grid would pair
        # with the word of the tree without it
        for tree in ((0b01, 0b11, 0), (0b01, 0b111)):
            with pytest.raises(ValueError, match="does not fill the 2 x 2 grid"):
                _tree_to_letters(1, 1, tree)


_TOY = {0: (3, 0, 5, 1, 4, 2), 1: (1, 2, 0, 5, 3, 4)}


def _toy_f(c: int, x: int) -> int:
    # for each c, a bijection from 0..5 onto 10..15
    if not 0 <= x < 6:
        raise ValueError("no pair")
    return 10 + _TOY[c][x]


def _toy_g(c: int, y: int) -> int:
    return _TOY[c].index(y - 10)


def _draw_tableau(rng: random.Random, n: int) -> TreeLikeTableau:
    """A tree-like tableau of size n: a uniform border path, then the
    filling at a uniform index below the path's filling count
    (`filling_unrank`). The draw is uniform per path, not over all n!
    tableaux: a path with few fillings is drawn as often as one with many.
    The path's completion table grows with 2^width, so it is dropped after
    each draw."""
    steps = SOUTH + "".join(rng.choice(SOUTH + WEST) for _ in range(n - 1)) + WEST
    path = BorderPath(steps)
    count = filling_count(path.row_lengths, path.num_cols)
    rows = filling_unrank(path.row_lengths, path.num_cols, rng.randrange(count))
    _tlt_completions.cache_clear()
    return TreeLikeTableau(path, rows)


class TestDrawsAboveSize9:
    """Seeded draws past the sizes the exhaustive tests and `verify --long`
    reach, so that a fault that shows only on wide or deep shapes fails
    here too."""

    @pytest.mark.parametrize("n", range(12, 21))
    def test_round_trips(self, n):
        rng = random.Random(n)
        for _ in range(3):
            t = _draw_tableau(rng, n)
            assert parse_tlt(to_text(t)) == t
            p = tlt_to_pt(t)
            assert pt_to_tlt(p) == t
            assert len(t.path.corner_cells) - len(p.path.corner_cells) == corner_transfer_delta(t)
            u = transpose(t)  # the constructor validates the transpose
            assert (u.size, first_row_points(u.rows)) == (n, first_col_points(t.rows))
            assert transpose(u) == t
            for c in t.path.corner_cells:
                assert glue(*cut_at_corner(t, c)) == (t, c)

    @pytest.mark.parametrize("n", range(9, 13))
    def test_corner_to_run(self, n):
        rng = random.Random(n)
        for _ in range(3):
            t = _draw_tableau(rng, n)
            for c in t.path.corner_cells:
                mr = corner_to_run(t, c)
                assert len(mr.perm) == n
                assert run_to_corner(mr) == (t, c)
