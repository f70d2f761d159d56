import functools
import importlib
import itertools
import operator
import pkgutil
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplectic_kf
from make_kostka_golden import dominant_weights
from symplectic_kf import cache_sizes, clear_caches
from symplectic_kf.crystal import crystal_lower, crystal_raise, weyl_reflect, word_weight
from symplectic_kf.cyclage import charge
from symplectic_kf.kostant import kostka_def
from symplectic_kf.recurrences import kostka_morris, pieri
from symplectic_kf.tableaux import (
    _column_text,
    _FIELD,
    _MAX_BOXES,
    _high_bits,
    _pack,
    _split,
    _unpack,
    _weight_boxes,
    admissible_columns,
    admissible_split,
    column_leq,
    contract_column,
    conjugate_heights,
    enumerate_tableaux,
    fits_right_of,
    format_tableau,
    free_split,
    insert_into_column,
    insert_into_tableau,
    insertion_tableau,
    is_symplectic,
    minimal_rank,
    outside_corners,
    parse_tableau,
    reading,
    reverse_insert,
    tableau_weight,
)

T = parse_tableau


def reference_admissible_split(col, n):
    """The greedy split with the rank bound inside its loop: a substitute
    above n, or a letter above n, makes the column non-admissible."""
    letters = set(col)
    pairs = sorted(z for z in letters if z > 0 and -z in letters)
    subs = {}
    prev = 0
    for z in pairs:
        t = max(prev, z) + 1
        while t <= n and (t in letters or -t in letters or t in subs.values()):
            t += 1
        if t > n:
            return None
        subs[z] = t
        prev = t
    if any(abs(x) > n for x in col):
        return None
    r_col = tuple(sorted(subs.get(x, x) for x in col))
    l_col = tuple(sorted(-subs[-x] if (x < 0 and -x in subs) else x for x in col))
    return l_col, r_col


# the bounded greedy is pure; the differential tests below ask it for the same
# few hundred (column, rank) splits over and over
_cached_reference_split = functools.lru_cache(maxsize=None)(reference_admissible_split)


def reference_is_symplectic(tab, n):
    """Heights, strict columns, rank-n splits and rC_i <= lC_(i+1), each
    tested on its own."""
    if any(len(tab[i]) < len(tab[i + 1]) for i in range(len(tab) - 1)):
        return False
    splits = []
    for col in tab:
        if any(col[j] >= col[j + 1] for j in range(len(col) - 1)):
            return False
        s = _cached_reference_split(col, n)
        if s is None:
            return False
        splits.append(s)
    return all(column_leq(splits[i][1], splits[i + 1][0]) for i in range(len(tab) - 1))


def reference_minimal_rank(tab):
    """Try ranks upward from the largest letter until the tableau is symplectic."""
    n = max((abs(x) for col in tab for x in col), default=1)
    while not reference_is_symplectic(tab, n):
        n += 1
        if n > 4 * sum(len(c) for c in tab) + 4:
            raise ValueError(f"not a symplectic tableau: {format_tableau(tab)}")
    return n


def test_parse_format_round_trip():
    for text in ["-4,-2,2;-3,-2;-2,-1", "-1", "-2,-1;1,2", "-3,-2,-1;1,2,3"]:
        assert format_tableau(parse_tableau(text)) == text


def test_format_tableau_matches_the_generator_form():
    # the drawn tableaux hold more distinct columns than _column_text keeps,
    # so texts are also read back after evictions; a column is a nonempty
    # subset of +-1..9, drawn as a bit mask over the letters in order
    letters = [v for v in range(-9, 10) if v]
    column = st.integers(1, 2 ** len(letters) - 1).map(
        lambda mask: tuple(x for i, x in enumerate(letters) if mask >> i & 1)
    )

    @settings(derandomize=True, max_examples=500, deadline=None, database=None)
    @given(st.lists(column, min_size=6, max_size=8, unique=True))
    def check(cols):
        tab = tuple(cols)
        assert format_tableau(tab) == ";".join(",".join(str(x) for x in col) for col in tab)

    _column_text.cache_clear()
    check()
    info = _column_text.cache_info()
    assert info.misses > info.maxsize and info.hits > 0, info


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_tableau("1,0;2")
    with pytest.raises(ValueError):
        parse_tableau("2,1")  # not increasing
    with pytest.raises(ValueError):
        parse_tableau("1;1,2")  # heights increase


def test_admissible_split_fixtures():
    assert admissible_split((-3, -2, 2, 3), 4) is None
    # the substitutes for the pairs (2,2bar),(3,3bar) are 4 and 5
    l_col, r_col = admissible_split((-3, -2, 2, 3), 5)
    assert r_col == (-3, -2, 4, 5)
    assert l_col == (-5, -4, 2, 3)
    col = (-3, -1, 2)  # no (z, zbar) pair
    assert admissible_split(col, 3) == (col, col)


@pytest.mark.parametrize(
    "col",
    [(2, 1), [1, 2], (0, 1), (1, 1), (1.0, 2)],
    ids=["decreasing", "list", "zero", "repeated", "float"],
)
def test_admissible_split_rejects_a_malformed_column(col):
    # (2, 1) used to split as ((2, 1), (2, 1)) and [1, 2] as two lists
    with pytest.raises(ValueError, match="is not a strictly increasing tuple of nonzero ints"):
        admissible_split(col, 3)


def test_admissible_split_single_pair():
    l_col, r_col = admissible_split((-4, -2, 2), 4)
    assert r_col == (-4, -2, 3)
    assert l_col == (-4, -3, 2)


def test_is_symplectic_fixtures():
    assert is_symplectic(T("-2,-1;1,2"), 2)
    assert not is_symplectic(T("-3,-1,1,3"), 3)
    assert is_symplectic(T("-3,-1,1,3"), 4)
    # 0 is not a letter, and a column has at least one box
    assert not is_symplectic(((0,),), 1)
    assert not is_symplectic(((1,), ()), 1)


def test_minimal_rank_fixtures():
    assert minimal_rank(()) == 1
    assert minimal_rank(T("-2,-1;1,2")) == 2
    # the pairs (1,1bar), (3,3bar) take the substitutes 2 and 4
    assert minimal_rank(T("-3,-1,1,3")) == 4
    for tab in [((0,),), ((1,), ()), T("2;1"), ((2, 1),)]:
        with pytest.raises(ValueError, match="not a symplectic tableau"):
            minimal_rank(tab)


def test_splits_match_bounded_greedy():
    # every column over +-1..5 of height <= 5, at every rank up to 7
    letters = [v for v in range(-5, 6) if v]
    for h in range(6):
        for col in itertools.combinations(letters, h):
            for n in range(1, 8):
                assert admissible_split(col, n) == reference_admissible_split(col, n), (col, n)
            if col:
                bound = max(map(abs, col)) + len(col)
                assert free_split(col) == reference_admissible_split(col, bound), col


def greedy_split(col):
    """_split with no shortcut: the greedy substitution, then both sorts."""
    letters = set(col)
    subs = {}
    t = 0
    for z in sorted(z for z in letters if z > 0 and -z in letters):
        t = max(t, z) + 1
        while t in letters or -t in letters:
            t += 1
        subs[z] = t
    r_col = tuple(sorted(subs.get(x, x) for x in col))
    l_col = tuple(sorted(-subs[-x] if (x < 0 and -x in subs) else x for x in col))
    return l_col, r_col


def test_split_matches_the_greedy_path():
    # every strictly increasing column over +-1..5, of every height 0-10; a
    # column without a (z, zbar) pair is its own split
    letters = [v for v in range(-5, 6) if v]
    pair_free = 0
    for h in range(len(letters) + 1):
        for col in itertools.combinations(letters, h):
            assert _split(col) == greedy_split(col), col
            pair_free += _split(col) == (col, col)
    assert pair_free == 3**5


def test_fits_right_of_matches_the_split_condition():
    # every pair of nonempty columns over +-1..4: the row-by-row pretest
    # decides no pair the splits would not
    letters = [v for v in range(-4, 5) if v]
    cols = [c for h in range(1, 9) for c in itertools.combinations(letters, h)]
    splits = {c: greedy_split(c) for c in cols}
    fits = 0
    for left in cols:
        for col in cols:
            expected = len(left) >= len(col) and column_leq(splits[left][1], splits[col][0])
            assert fits_right_of(left, col) == expected, (left, col)
            fits += expected
    assert fits > 1000


def small_tableaux(letter_max, max_columns):
    """Every tuple of at most max_columns strictly increasing nonempty columns
    over +-1..letter_max with weakly decreasing heights."""
    letters = [v for v in range(-letter_max, letter_max + 1) if v]
    by_height = [list(itertools.combinations(letters, h)) for h in range(len(letters) + 1)]
    for k in range(max_columns + 1):
        for heights in itertools.combinations_with_replacement(range(len(letters), 0, -1), k):
            yield from itertools.product(*(by_height[h] for h in heights))


def test_rank_and_symplecticity_match_rank_loop():
    # every tableau of at most 3 columns over +-1..3, at n = 1..6.  No such
    # column needs a rank above 6, so a tableau that is not 6-symplectic is
    # symplectic at no rank.  Otherwise both sides are monotone in n, so the
    # minimal rank and the cut just below it decide every n.
    for tab in small_tableaux(3, 3):
        if not reference_is_symplectic(tab, 6):
            assert not is_symplectic(tab, 6), tab
            continue
        rank = reference_minimal_rank(tab)
        assert minimal_rank(tab) == rank, tab
        assert is_symplectic(tab, rank) and not is_symplectic(tab, rank - 1), tab


def test_reading_fixtures():
    assert reading(T("-1;-1;1;1")) == (1, 1, -1, -1)
    assert reading(T("-3,-1,2")) == (-3, -1, 2)
    assert reading(T("-2,-1;1,2")) == (1, 2, -2, -1)


def test_insert_into_column_fixtures():
    assert insert_into_column(5, (-4, -2, 2, 3, 4)) == (-4, -2, 2, 3, 4, 5)
    assert insert_into_column(-4, (-4, -2, 2, 3, 4)) == ((-4, -3, -2, 2, 3), 3)
    assert insert_into_column(1, (2,)) == ((1,), 2)


def test_column_bump_keeps_height_and_order():
    rng = random.Random(11)
    n = 4
    for _ in range(400):
        h = rng.randint(1, 4)
        col = rng.choice(admissible_columns(h, n))
        x = rng.choice([v for v in range(-n, n + 1) if v])
        if x > col[-1]:
            continue
        newcol, _ = insert_into_column(x, col)
        assert len(newcol) == len(col)
        assert column_leq(newcol, col), (x, col, newcol)


def test_insert_into_tableau_fixtures():
    step1 = insert_into_tableau(1, T("-1,1,3;1,2;2"))
    assert insert_into_tableau(2, step1) == T("-2,1,2;1,2,3;2;2")
    assert insert_into_tableau(2, T("-1;-1")) == T("-1,2;-1")
    assert insert_into_tableau(5, ()) == ((5,),)


def test_insertion_tableau_fixtures():
    assert insertion_tableau((7,)) == ((7,),)
    # shifted reading of -2,-1;1,2 inserts to the next vertex of its chain
    assert insertion_tableau((2, -2, -1, 1)) == T("-2,-1,1;2")
    for text in ["-4,-2,2;-3,-2;-2,-1", "-2,-1;1,2", "-3,-2;2,3", "-1;-1;1;1"]:
        tab = T(text)
        assert insertion_tableau(reading(tab)) == tab


def test_reverse_insert_fixtures():
    tab = T("-2,1,3;1,2;2")
    pairs = {reverse_insert(tab, j) for j in outside_corners(tab)}
    assert pairs == {
        (3, T("-2,1;1,2;2")),
        (1, T("-1,1,3;1;2")),
        (1, T("-1,1,3;1,2")),
    }
    # reverse of a plain append
    assert reverse_insert(((1, 2, 5),), 0) == (5, ((1, 2),))


def test_reverse_insert_rejects_non_corner():
    with pytest.raises(ValueError):
        reverse_insert(T("-2,-1;1,2"), 0)
    for corner in (-1, 2):  # outside the columns
        with pytest.raises(ValueError):
            reverse_insert(T("-2,-1;1,2"), corner)


def test_insert_reverse_round_trip():
    rng = random.Random(12)
    letters = [v for v in range(-3, 4) if v]
    for _ in range(400):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        tab = insertion_tableau(w)
        x = rng.choice([v for v in range(-4, 5) if v])
        bigger = insert_into_tableau(x, tab)
        old_heights = [len(c) for c in tab]
        corner = next(
            j
            for j in range(len(bigger))
            if j >= len(tab) or len(bigger[j]) != old_heights[j]
        )
        assert reverse_insert(bigger, corner) == (x, tab)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from([v for v in range(-4, 5) if v]), max_size=8),
    st.sampled_from([v for v in range(-5, 6) if v]),
)
def test_reverse_insert_undoes_insertion_drawn(word, x):
    # reverse insertion at the box insert_into_tableau(x, T) added gives (x, T)
    tab = insertion_tableau(tuple(word))
    bigger = insert_into_tableau(x, tab)
    corner = next(
        j for j in range(len(bigger)) if j >= len(tab) or len(bigger[j]) != len(tab[j])
    )
    assert reverse_insert(bigger, corner) == (x, tab)


@st.composite
def words_and_colors(draw):
    n = draw(st.integers(1, 4))
    word = draw(st.lists(st.sampled_from([v for v in range(-n, n + 1) if v]), max_size=7))
    return tuple(word), draw(st.integers(0, n - 1))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(words_and_colors(), st.sampled_from([crystal_lower, crystal_raise]))
def test_insertion_commutes_with_crystal_operators_drawn(case, operator):
    # w and reading(P(w)) are crystal-isomorphic (Lecouvey, J. Algebra 247,
    # 2002), so f_i and e_i act on both alike and annihilate both together
    word, i = case
    image = operator(word, i)
    expected = operator(reading(insertion_tableau(word)), i)
    if image is None:
        assert expected is None
    else:
        assert reading(insertion_tableau(image)) == expected


def test_contract_column_fixtures():
    assert contract_column((-3, -1, 1, 3), 3) == (-1, 1)
    assert contract_column((-1, 1), 1) == ()
    # unlike admissible_split, it does not check the column's type
    assert contract_column([-1, 1], 1) == ()
    assert contract_column((-2, -1, 1, 2), 2) == (-1, 1)


def test_contract_column_rejects_admissible():
    with pytest.raises(ValueError):
        contract_column((-1, 1), 2)


# ------------------------------------------------------------ plactic closure
# The length-preserving relations of the congruence, searched both ways, as
# the reference that insertion respects it.  A search that runs out of budget
# is indeterminate, so it raises instead of answering False.


class SearchBudgetExceeded(RuntimeError):
    """A bounded word-rewriting search ran out of budget (indeterminate)."""


def plactic_rewrites(w, n):
    """Words one elementary relation of Lecouvey's type-C congruence (J. Algebra
    247, 2002) away, staying inside the rank-n alphabet."""
    out = set()
    for p in range(len(w) - 2):
        a, b, x = w[p], w[p + 1], w[p + 2]
        head, tail = w[:p], w[p + 3 :]
        if a < x <= b and b != -a:
            out.add(head + (b, a, x) + tail)
        if b < x <= a and a != -b:  # inverse of relation 1
            out.add(head + (b, a, x) + tail)
        if x <= a < b and b != -x:
            out.add(head + (a, x, b) + tail)
        if b <= a < x and x != -b:  # inverse of relation 2
            out.add(head + (a, x, b) + tail)
        if 0 < b < n and a == -b and -b <= x <= b:
            out.add(head + (b + 1, -(b + 1), x) + tail)
        if a >= 2 and b == -a and -(a - 1) <= x <= a - 1:  # inverse of relation 3
            out.add(head + (-(a - 1), a - 1, x) + tail)
        if b > 0 and x == -b and -b < a < b:
            out.add(head + (a, -(b - 1), b - 1) + tail)
        if 1 <= x < n and b == -x and -(x + 1) < a < x + 1:  # inverse of relation 4
            out.add(head + (a, x + 1, -(x + 1)) + tail)
    return out


def plactic_equivalent(w1, w2, n, budget=20000):
    """Bounded bidirectional closure under the length-preserving relations.

    Raises SearchBudgetExceeded when the search explores more than ``budget``
    words without deciding; that outcome is indeterminate, not False.
    """
    if len(w1) != len(w2):
        raise ValueError("the contraction-free congruence preserves length")
    if w1 == w2:
        return True
    if word_weight(w1, n) != word_weight(w2, n):
        return False
    seen1, seen2 = {w1}, {w2}
    frontier1, frontier2 = {w1}, {w2}
    explored = 0
    while frontier1 or frontier2:
        # expand the smaller frontier
        if frontier1 and (not frontier2 or len(frontier1) <= len(frontier2)):
            frontier, seen, other = frontier1, seen1, seen2
            which = 1
        else:
            frontier, seen, other = frontier2, seen2, seen1
            which = 2
        nxt = set()
        for w in frontier:
            for v in plactic_rewrites(w, n):
                if v in other:
                    return True
                if v not in seen:
                    seen.add(v)
                    nxt.add(v)
                    explored += 1
                    if explored > budget:
                        raise SearchBudgetExceeded(
                            f"plactic search exceeded {budget} states"
                        )
        if which == 1:
            frontier1 = nxt
        else:
            frontier2 = nxt
    return False


def test_plactic_fixtures():
    w = (-2, 1, 2, -1)
    assert plactic_equivalent(w, w, 3, budget=10)
    # relation 3 with b = 1: 1bar 1 x = 2 2bar x
    for x in (-1, 1):
        assert plactic_equivalent((-1, 1, x), (2, -2, x), 2)
    assert not plactic_equivalent((1, 1, 1), (1, 1, 2), 3)


def test_plactic_budget_is_distinct_outcome():
    with pytest.raises(SearchBudgetExceeded):
        plactic_equivalent((1, 2, -2, -1, 1, 2), (2, 1, -2, -1, 2, 1), 3, budget=1)


def test_plactic_equivalence_implies_same_insertion_tableau():
    rng = random.Random(13)
    n = 3
    letters = [v for v in range(-n, n + 1) if v]
    checked = 0
    for _ in range(200):
        w = tuple(rng.choice(letters) for _ in range(5))
        v = w
        for _ in range(rng.randint(1, 4)):
            nbrs = sorted(plactic_rewrites(v, n))
            if not nbrs:
                break
            v = rng.choice(nbrs)
        if v == w:
            continue
        assert plactic_equivalent(w, v, n, budget=50000)
        assert insertion_tableau(w) == insertion_tableau(v), (w, v)
        checked += 1
    assert checked > 50


def test_word_is_equivalent_to_its_insertion_reading():
    rng = random.Random(15)
    letters = [v for v in range(-2, 3) if v]
    for _ in range(60):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
        tab = insertion_tableau(w)
        m = minimal_rank(tab)
        assert plactic_equivalent(w, reading(tab), m, budget=50000)


def test_readings_of_same_tableau_are_plactic_equivalent():
    # cocyclage-shifted reading against the reading of the re-inserted tableau
    tab = T("-2,-1;1,2")
    w = reading(tab)
    shifted = w[1:] + (w[0],)
    assert plactic_equivalent(shifted, reading(insertion_tableau(shifted)), 3)


def test_enumerate_fixtures():
    assert len(enumerate_tableaux((2, 1, 1, 1), (1, 1, 1, 0), 4)) == 4
    six = enumerate_tableaux((2, 2, 0), (0, 0, 0), 3)
    assert len(six) == 6
    expected = {
        T("-2,-1;1,2"),
        T("-2,1;-1,2"),
        T("-3,-1;1,3"),
        T("-3,1;-1,3"),
        T("-3,-2;2,3"),
        T("-3,2;-2,3"),
    }
    assert set(six) == expected
    # highest weight: a single tableau
    assert len(enumerate_tableaux((2, 1, 0), (2, 1, 0), 3)) == 1
    assert enumerate_tableaux((), (0, 0), 2) == [()]


def test_enumerate_is_sorted_and_symplectic():
    tabs = enumerate_tableaux((2, 2, 0), (0, 0, 0), 3)
    assert tabs == sorted(tabs, key=reading)
    for tab in tabs:
        assert is_symplectic(tab, 3)
        assert tableau_weight(tab, 3) == (0, 0, 0)


def check_counts_match_weight_multiplicities(n, size):
    for lam in dominant_weights(n, size):
        for mu in dominant_weights(n, size):
            count = len(enumerate_tableaux(lam, mu, n))
            assert count == kostka_def(lam, mu)(1), (lam, mu)


def test_counts_match_weight_multiplicities_rank2():
    check_counts_match_weight_multiplicities(2, 4)


def test_counts_match_weight_multiplicities_rank3():
    check_counts_match_weight_multiplicities(3, 6)


@pytest.mark.parametrize("n,size", [(5, 6), (6, 6), (8, 4), (10, 4)])
def test_counts_match_freudenthal_multiplicities(kfbench_checks, n, size):
    # past rank 3 the oracle is slow, so the counts are checked against the
    # benchmark's own Freudenthal multiplicities; these ranges hold many one-
    # and two-column shapes, where the last column comes from the weight index
    weights = dominant_weights(n, size)
    for lam in weights:
        multiplicity = kfbench_checks.weight_multiplicities(lam)
        for mu in weights:
            count = len(enumerate_tableaux(lam, mu, n))
            assert count == multiplicity.get(mu, 0), (lam, mu)


def test_enumerate_wide_shape_builds_boxes_shallowly():
    # the weight boxes of a 600-column shape are built from the shortest
    # suffix up; built from the longest down they recurse once per column
    # and pass the interpreter's recursion limit
    clear_caches()
    assert len(enumerate_tableaux((600,), (600,), 1)) == 1


def test_enumerate_wide_shape_walks_without_recursion():
    # 1100 columns, one level of the walk each: a walk that recursed per
    # column would pass the interpreter's recursion limit
    assert enumerate_tableaux((1100,), (1100,), 1) == [((-1,),) * 1100]


def test_enumerate_rejects_a_shape_past_the_field_bound():
    # the packed box test is exact only up to _MAX_BOXES boxes; |lam| is
    # checked before any table is built, so a row of 10**9 boxes raises at
    # once instead of listing its column heights
    clear_caches()
    for lam in [(10**9,), (_MAX_BOXES + 1,)]:
        with pytest.raises(ValueError, match="boxes"):
            enumerate_tableaux(lam, (0,), 1)
    assert not any(cache_sizes().values())
    assert enumerate_tableaux((_MAX_BOXES,), (-_MAX_BOXES,), 1) == [((1,),) * _MAX_BOXES]


def packed_box_test(d, box):
    """The walk's box test on packed weights: d + (-d) over 2n fields, plus
    bit 15 of each, minus the box keeps every bit 15 set."""
    n = len(d)
    high = _high_bits(2 * n)
    packed = _pack(d)
    return (packed - (packed << _FIELD * n) + high - _pack(box)) & high == high


def signed_entries(bound, size):
    edges = st.sampled_from([-bound, -bound + 1, -1, 0, 1, bound - 1, bound])
    return st.lists(st.one_of(edges, st.integers(-bound, bound)), min_size=size, max_size=size)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_packed_box_test_matches_tuplewise_at_the_bound(data):
    # with B = _MAX_BOXES, an entry of the weight still to place is at most
    # 2B in absolute value and a box entry at most B.  Drawn at the edges of
    # those ranges, and with each box field at an edge or next to the field
    # of d + (-d) it is tested against, the packed test agrees with the
    # tuplewise one
    bound = _MAX_BOXES
    n = data.draw(st.integers(1, 10), label="n")
    d = tuple(data.draw(signed_entries(2 * bound, n), label="d"))
    span = d + tuple(-x for x in d)
    box = []
    for x in span:
        near = [max(-bound, min(bound, x + step)) for step in (-1, 0, 1)]
        box.append(data.draw(st.one_of(st.sampled_from([-bound, bound, *near]), st.integers(-bound, bound))))
    box = tuple(box)
    assert packed_box_test(d, box) == all(map(operator.le, box, span))
    assert _unpack(_pack(box), 2 * n) == box and _unpack(_pack(d), n) == d


def test_packed_box_test_matches_tuplewise_on_one_field_at_the_bound():
    # every rank-1 case on a grid of edge values.  One box more, B = 10923,
    # would fail here: d = (-2B,) against the box (B, 1 - B) leaves -3B in
    # field 0, below -2^15, and the packed test passes a box the weight is not in
    bound = _MAX_BOXES
    weights = [-2 * bound, -2 * bound + 1, -bound - 1, -bound, -1, 0, 1, bound, bound + 1, 2 * bound - 1, 2 * bound]
    entries = [-bound, -bound + 1, -1, 0, 1, bound - 1, bound]
    for x in weights:
        for box in itertools.product(entries, repeat=2):
            assert packed_box_test((x,), box) == (box[0] <= x and box[1] <= -x), (x, box)


def test_enumerate_rejects_wrong_length_weight():
    with pytest.raises(ValueError):
        enumerate_tableaux((1, 0, 0), (1, 0, 0, 0), 3)


def package_caches():
    """Every functools cache defined in a module of the package, once each."""
    caches = {}
    for info in pkgutil.iter_modules(symplectic_kf.__path__):
        module = importlib.import_module(f"symplectic_kf.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and hasattr(obj, "cache_clear"):
                caches.setdefault(id(obj), (f"{info.name}.{name}", obj))
    return list(caches.values())


def package_dicts():
    """Every dict bound at module level in the package, by name."""
    dicts = {}
    for info in pkgutil.iter_modules(symplectic_kf.__path__):
        module = importlib.import_module(f"symplectic_kf.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, dict) and not name.startswith("__"):
                dicts[f"{info.name}.{name}"] = obj
    return dicts


def fill_package_caches():
    return (
        enumerate_tableaux((2, 2, 0), (0, 0, 0), 3),
        # three columns: the walk tests the weight box of the first
        enumerate_tableaux((3, 1, 0), (2, 0, 0), 3),
        pieri((1, 0), 1, 2),
        kostka_morris((4, 2, 0), (2, 0, 0), 3),
        minimal_rank(T("-1,1;2")),
        charge(T("-3;-2;-1;1"), 3),
        format_tableau(T("-1,1;2")),
    )


def test_clear_caches_rebuilds_column_tables():
    # cache_sizes() reads the package's one list of caches, so its names must
    # be every functools cache and every module-level dict the workload
    # fills.  A cache that clear_caches forgets, or that this workload does
    # not reach, fails here; so does a module-level dict left full, since
    # every such dict is a memo
    caches = package_caches()
    assert len(caches) >= 7
    assert {"tableaux._weight_boxes", "kostant._pair_steps"} <= {
        name for name, _ in caches
    }
    dicts = package_dicts()
    results = []
    for _ in range(2):
        clear_caches()
        for name, cache in caches:
            assert cache.cache_info().currsize == 0, name
        for name, memo in dicts.items():
            assert not memo, name
        assert not any(cache_sizes().values()), cache_sizes()
        results.append(fill_package_caches())
        memos = {name for name, memo in dicts.items() if memo}
        assert {"kostant._memo", "cyclage._chain_tails", "cyclage._chain_shared"} <= memos
        assert set(cache_sizes()) == {name for name, _ in caches} | memos
        for name, cache in caches:
            assert cache.cache_info().currsize > 0, name
        assert all(cache_sizes().values()), cache_sizes()
    assert results[0] == results[1]


def crystal_closure_readings(lam, n):
    """All vertices of the connected crystal component of the top tableau."""
    cols = tuple(tuple(range(-n, -n + h)) for h in conjugate_heights(lam))
    start = reading(cols)
    seen = {start}
    stack = [start]
    while stack:
        w = stack.pop()
        for i in range(n):
            v = crystal_lower(w, i)
            if v is not None and v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def reference_tableaux(lam, n):
    """Every n-symplectic tableau of shape lam, by plain backtracking.

    The reference for enumerate_tableaux: candidate columns come straight from
    the bounded greedy split, and each is tested against the split of its left
    neighbour; nothing is precomputed or pruned.
    """
    heights = conjugate_heights(lam)
    letters = [v for v in range(-n, n + 1) if v]
    pools = {
        h: [
            c
            for c in itertools.combinations(letters, h)
            if reference_admissible_split(c, n) is not None
        ]
        for h in set(heights)
    }
    out = []

    def recurse(idx, cols):
        if idx == len(heights):
            out.append(tuple(cols))
            return
        prev_r = reference_admissible_split(cols[-1], n)[1] if cols else None
        for col in pools[heights[idx]]:
            if prev_r is not None and not column_leq(
                prev_r, reference_admissible_split(col, n)[0]
            ):
                continue
            cols.append(col)
            recurse(idx + 1, cols)
            cols.pop()

    recurse(0, [])
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumeration_matches_reference(n):
    # the same tableaux in the same order, for every dominant weight, zero or
    # not, and every weight of the reference listing, dominant or not
    size = 6 if n <= 3 else 5
    for lam in dominant_weights(n, size):
        by_weight = {}
        for tab in reference_tableaux(lam, n):
            by_weight.setdefault(tableau_weight(tab, n), []).append(tab)
        for mu in set(dominant_weights(n, size)) | set(by_weight):
            expected = sorted(by_weight.get(mu, []), key=reading)
            assert enumerate_tableaux(lam, mu, n) == expected, (lam, mu)


@pytest.mark.parametrize("n,boxes", [(1, 6), (2, 6), (3, 6), (4, 4)])
def test_weight_boxes_are_exact(n, boxes):
    # each box is the coordinatewise min, then the negated coordinatewise
    # max, of the weights of the reference tableaux whose first column is
    # that column, and None exactly
    # where no tableau starts with it: a looser box would still enumerate
    # correctly, so only this test sees it.  The shapes run over every
    # sequence of column heights with at most ``boxes`` boxes.
    for lam in dominant_weights(n, boxes):
        heights = tuple(conjugate_heights(lam))
        if not heights:
            continue
        weights = {}
        for tab in reference_tableaux(lam, n):
            weights.setdefault(tab[0], []).append(tableau_weight(tab, n))
        expected = [
            tuple(map(min, zip(*weights[col]))) + tuple(-x for x in map(max, zip(*weights[col])))
            if col in weights
            else None
            for col in admissible_columns(heights[0], n)
        ]
        runs = tuple((h, len(list(group))) for h, group in itertools.groupby(heights))
        assert [unpack_box(box, n) for box in _weight_boxes(n, runs)] == expected, heights


def unpack_box(box, n):
    """A weight box as the tuple lo + (-hi) it packs, or None."""
    return None if box is None else _unpack(box, 2 * n)


def test_weight_boxes_of_a_wide_row_stay_small():
    # keyed by runs of column heights, a 2000-column row leaves 2000 keys of
    # one pair each; keyed by the heights themselves, their keys held 2000
    # suffixes of up to 2000 heights, about 17 MB
    _weight_boxes.cache_clear()
    tracemalloc.start()
    try:
        assert enumerate_tableaux((2000,), (2000,), 1) == [((-1,),) * 2000]
        filled = tracemalloc.get_traced_memory()[0]
        _weight_boxes.cache_clear()
        held = filled - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000, held


@pytest.mark.parametrize(
    "lam,n",
    [((2, 1, 0), 3), ((2, 2, 0), 3), ((1, 1, 1), 3), ((2, 2, 2, 2), 4)],
)
def test_crystal_closure_equals_enumeration(lam, n):
    # the lowering operators regenerate exactly the symplectic readings
    closure = crystal_closure_readings(lam, n)
    assert closure == {reading(tab) for tab in reference_tableaux(lam, n)}
    # weight by weight, dominant or not, in reading order
    for mu in {word_weight(w, n) for w in closure}:
        found = [reading(tab) for tab in enumerate_tableaux(lam, mu, n)]
        assert found == sorted(w for w in closure if word_weight(w, n) == mu), mu


def test_insertion_commutes_with_weyl_action():
    # readings of P(s_i(w)) and the reflected reading of P(w) agree
    n = 2
    letters = [v for v in range(-n, n + 1) if v]
    for length in range(1, 5):
        for w in itertools.product(letters, repeat=length):
            for i in range(n):
                lhs = reading(insertion_tableau(weyl_reflect(w, i)))
                rhs = weyl_reflect(reading(insertion_tableau(w)), i)
                assert lhs == rhs, (w, i)
    rng = random.Random(14)
    for _ in range(150):
        w = tuple(rng.choice(letters) for _ in range(5))
        for i in range(n):
            lhs = reading(insertion_tableau(weyl_reflect(w, i)))
            rhs = weyl_reflect(reading(insertion_tableau(w)), i)
            assert lhs == rhs, (w, i)
