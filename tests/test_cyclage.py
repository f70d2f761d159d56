import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplectic_kf
from make_kostka_golden import dominant_weights
from symplectic_kf import cyclage
from symplectic_kf.crystal import weyl_reflect
from symplectic_kf.cyclage import (
    ChainRepetitionError,
    CyclageGraph,
    charge,
    charge_chain,
    charge_column,
    cocyclage_shift,
    cocycle,
    component,
    is_authorized,
    predecessors,
    reduce,
    translate,
    translate_word,
    weight_support_rank,
)
from symplectic_kf.tableaux import (
    admissible_columns,
    enumerate_tableaux,
    format_tableau,
    free_split,
    insertion_tableau,
    outside_corners,
    parse_tableau,
    reading,
    reverse_insert,
    tableau_weight,
)

T = parse_tableau

T1 = T("-4,-2,2;-3,-2;-2,-1")
T2 = T("-4,-2,2;-3,-2;4")
T3 = T("-4,-2,3;-3,-2;-2,-1")


def test_cocyclage_shift():
    assert cocyclage_shift((5,)) == (5,)
    assert cocyclage_shift((1, 2, 3)) == (2, 3, 1)
    with pytest.raises(ValueError):
        cocyclage_shift(())


def test_shift_commutes_with_reflections():
    rng = random.Random(21)
    letters = [v for v in range(-3, 4) if v]
    for _ in range(300):
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        for i in range(3):
            assert cocyclage_shift(weyl_reflect(w, i)) == weyl_reflect(
                cocyclage_shift(w), i
            )


def test_is_authorized_fixtures():
    assert is_authorized(T1)
    assert is_authorized(T2)
    assert not is_authorized(T3)
    with pytest.raises(ValueError):
        is_authorized(T("-2,-1,1,2"))


def test_weight_zero_always_authorized():
    for text in ["-2,-1;1,2", "-1;-1;1;1", "-3,-1;1,3"]:
        tab = T(text)
        assert tableau_weight(tab, 3) == (0, 0, 0)
        assert is_authorized(tab)


def test_cocycle_fixtures():
    assert cocycle(T1) == T("-4,-3,-2;-3,-2,3;-1")
    # appending to the first column leaves the others alone, and the weight
    # is preserved, so the second column stays barred
    assert cocycle(T2) == T("-4,-2,2,4;-3,-2")
    assert cocycle(T("-3,2;-2")) == T("-3,-2;2")
    with pytest.raises(ValueError):
        cocycle(T3)


def test_cocycle_rejects_non_symplectic():
    # the columns share no letter, so the cocyclage would be authorized, but 1
    # cannot stand right of 2
    with pytest.raises(ValueError, match="not a symplectic tableau"):
        cocycle(((2,), (1,)))


def test_cocycle_preserves_weight():
    for tab in (T1, T2, T("-3,2;-2"), T("-2,-1;1,2")):
        n = 5
        assert tableau_weight(cocycle(tab), n) == tableau_weight(tab, n)


def test_reduce_fixtures():
    hat, rank = reduce(T("-3,-2,1;-3,-1"), 3)
    assert hat == T("-3,2;-2")
    assert rank == 3  # the translated letters keep d_3bar nonzero
    hat, rank = reduce(T("-4,-3,-2,-1,1"), 4)
    assert hat == T("-4,4")
    assert rank == 0
    assert reduce(T("-3,2;-2"), 3)[0] == T("-3,2;-2")  # already authorized


def test_reduce_rejects_non_dominant():
    # letters -1,2,-1 give weight (-1, 2), which is not dominant
    with pytest.raises(ValueError):
        reduce(T("-1,2;-1"), 2)


@pytest.mark.parametrize("call", [charge, charge_chain, reduce])
def test_chain_start_rejects_weight_above_rank(call):
    # the column (-3,) is symplectic at rank 3, and its weight needs rank 3
    with pytest.raises(ValueError, match="exceeds rank 2"):
        call(((-3,),), 2)


def test_charge_chain_fixtures():
    chain = charge_chain(T("-3,-2,1;-3,-1"), 3)
    assert chain.terminal == (-3, 3)
    assert chain.p == 2
    kinds = [k for _, k in chain.steps]
    assert kinds == ["reduction", "cocyclage", "cocyclage", "reduction"]
    assert chain.tableaux()[1] == T("-3,2;-2")

    col = T("-2,-1,1,2")
    chain = charge_chain(col, 2)
    assert chain.terminal == (-2, -1, 1, 2) and chain.p == 0

    chain = charge_chain(T("-3,1;-1,3"), 3)
    assert chain.terminal == (-4, -1, 1, 4)
    assert chain.p == 4


def test_charge_column_fixtures():
    assert charge_column((-4, 4), 4) == 0
    assert charge_column((-2, -1, 1, 2), 3) == 2
    # letters above the rank contribute negative summands
    assert charge_column((-4, -1, 1, 4), 3) == 2
    with pytest.raises(ValueError):
        charge_column((-2, 1), 2)


def test_charge_fixtures():
    assert charge(T("-2,-1;1,2"), 3) == 4
    assert charge(T("-2,1;-1,2"), 3) == 8
    assert charge(T("-3,-1;1,3"), 3) == 6
    assert charge(T("-3,1;-1,3"), 3) == 6
    assert charge(T("-3,-2;2,3"), 3) == 2
    assert charge(T("-3,2;-2,3"), 3) == 4


def test_translate_fixtures():
    assert translate(T("-2,-1;1,2")) == T("-3,-2;2,3")
    assert translate(T("-1,1")) == T("-2,2")
    assert translate_word((-1, 2)) == (-2, 3)
    assert charge(translate(T("-2,1;-1,2")), 4) == charge(T("-2,1;-1,2"), 3) == 8


def test_translation_laws_on_columns():
    # ch_{n+1}(C) = ch_n(C) + 2|E_C| and ch_{n+1}(t(C)) = ch_n(C)
    for n in (2, 3, 4):
        for h in range(2, n + 1, 2):
            for col in admissible_columns(h, n):
                if tableau_weight((col,), n) != (0,) * n:
                    continue
                present = set(col)
                e_c = sum(1 for i in present if i > 0 and i + 1 not in present)
                assert charge_column(col, n + 1) == charge_column(col, n) + 2 * e_c
                tcol = tuple(sorted(x + 1 if x > 0 else x - 1 for x in col))
                assert charge_column(tcol, n + 1) == charge_column(col, n)


def test_predecessors_fixtures():
    assert predecessors(T("-2,-1;1,2")) == []
    assert predecessors(T("-2,-1,1,2")) == [T("-2,-1,1;2")]
    assert predecessors(T("-1;-1;1;1")) == []


GRAPH_FIXTURES = {
    # root: hand-checked (vertices, edges) of four reference components
    "-1;-1;1;1": (
        {
            "-1;-1;1;1",
            "-1,1;-1;1",
            "-2,1;-1,2",
            "-2,-1;1;2",
            "-2,-1,2;1",
            "-3,-1,1;3",
            "-3,-1,1,3",
            "-3,-1;1,3",
            "-2,1;-1;2",
            "-2,1,2;-1",
        },
        {
            ("-1;-1;1;1", "-1,1;-1;1"),
            ("-1,1;-1;1", "-2,1;-1,2"),
            ("-2,1;-1,2", "-2,-1;1;2"),
            ("-2,-1;1;2", "-2,-1,2;1"),
            ("-2,-1,2;1", "-3,-1,1;3"),
            ("-3,-1,1;3", "-3,-1,1,3"),
            ("-3,-1;1,3", "-3,-1,1;3"),
            ("-2,1;-1;2", "-2,1,2;-1"),
            ("-2,1,2;-1", "-2,-1,2;1"),
        },
    ),
    "-3;-3;-2;-1;1": (
        {
            "-3;-3;-2;-1;1",
            "-3,1;-3;-2;-1",
            "-3,-1;-3,1;-2",
            "-3,-2;-3,-1;1",
            "-3,-1;-3;-2;1",
            "-3,-1,1;-3;-2",
            "-3,-2,1;-3,-1",
        },
        {
            ("-3;-3;-2;-1;1", "-3,1;-3;-2;-1"),
            ("-3,1;-3;-2;-1", "-3,-1;-3,1;-2"),
            ("-3,-1;-3,1;-2", "-3,-2;-3,-1;1"),
            ("-3,-2;-3,-1;1", "-3,-2,1;-3,-1"),
            ("-3,-1;-3;-2;1", "-3,-1,1;-3;-2"),
            ("-3,-1,1;-3;-2", "-3,-2,1;-3,-1"),
        },
    ),
    "-3,-2,-1;1,2,3": (
        {
            "-3,-2,-1;1,2,3",
            "-3,-2,-1,1;2,3",
            "-3,-2,-1,1,2;3",
            "-3,-2,-1,1,2,3",
        },
        {
            ("-3,-2,-1;1,2,3", "-3,-2,-1,1;2,3"),
            ("-3,-2,-1,1;2,3", "-3,-2,-1,1,2;3"),
            ("-3,-2,-1,1,2;3", "-3,-2,-1,1,2,3"),
        },
    ),
    "-2,-1;1,2": (
        {"-2,-1;1,2", "-2,-1,1;2", "-2,-1,1,2"},
        {
            ("-2,-1;1,2", "-2,-1,1;2"),
            ("-2,-1,1;2", "-2,-1,1,2"),
        },
    ),
}


@pytest.mark.parametrize("root", sorted(GRAPH_FIXTURES))
def test_component_fixtures(root):
    want_vertices, want_edges = GRAPH_FIXTURES[root]
    g = component(T(root))
    assert {format_tableau(v) for v in g.vertices} == want_vertices
    assert {
        (format_tableau(a), format_tableau(b)) for a, b in g.edges
    } == want_edges
    # tree rooted at the unique sink
    assert len(g.edges) == len(g.vertices) - 1
    out_degrees = {}
    for a, _ in g.edges:
        out_degrees[a] = out_degrees.get(a, 0) + 1
    assert all(d == 1 for d in out_degrees.values())
    g.sink  # exactly one vertex without outgoing edge


def test_sink_rejects_a_graph_without_one_sink():
    # two vertices and no edge: two sinks.  A ValueError, not an assert, so
    # python -O fails here too
    with pytest.raises(ValueError, match="one sink"):
        CyclageGraph((((-1,),), ((1,),)), ()).sink


def test_component_rejects_non_tableau():
    # symplectic at no rank: the 1 left of the 2 breaks rC <= lC
    with pytest.raises(ValueError, match="not a symplectic tableau"):
        component(T("2;1"))
    with pytest.raises(ValueError, match="not a symplectic tableau"):
        component(((0,),))  # 0 is not a letter


def reference_predecessors(tab):
    """Predecessors found by re-insertion: keep the candidate x . w(T*) of each
    outside corner when its insertion tableau reads it back and is authorized."""
    out = []
    for corner in outside_corners(tab):
        try:
            x, t_star = reverse_insert(tab, corner)
        except ValueError:
            continue
        candidate = (x,) + reading(t_star)
        s = insertion_tableau(candidate)
        if reading(s) != candidate or len(s) <= 1:
            continue
        if is_authorized(s):
            out.append(s)
    return out


def reference_component(tab):
    """Closure that applies cocycle to every vertex and gathers each edge from
    both of its ends into a set."""
    verts = {tab}
    edges = set()
    queue = [tab]
    while queue:
        t = queue.pop()
        nbrs = reference_predecessors(t)
        edges.update((s, t) for s in nbrs)
        if len(t) > 1 and is_authorized(t):
            u = cocycle(t)
            edges.add((t, u))
            nbrs.append(u)
        for s in nbrs:
            if s not in verts:
                verts.add(s)
                queue.append(s)
    return CyclageGraph(
        tuple(sorted(verts, key=reading)),
        tuple(sorted(edges, key=lambda e: (reading(e[0]), reading(e[1])))),
    )


# the fixture components and rank-4 ones: that of -4;-3;-2;-1;1 (which
# test_acceptance embeds the 7-vertex fixture into) and those of the tableaux
# of four rank-4 (shape, weight) pairs; weight zero on (2,2,2,2) reaches the
# largest cyclage-n4 component, 764 vertices
DIFFERENTIAL_ROOTS = [T(root) for root in sorted(GRAPH_FIXTURES)]
DIFFERENTIAL_ROOTS.append(T("-4;-3;-2;-1;1"))
for _lam, _mu in [
    ((2, 1, 1, 1), (1, 1, 1, 0)),
    ((2, 2, 1, 1), (1, 1, 0, 0)),
    ((3, 2, 1, 0), (2, 1, 1, 0)),
    ((2, 2, 2, 2), (0, 0, 0, 0)),
]:
    DIFFERENTIAL_ROOTS += enumerate_tableaux(_lam, _mu, 4)


@st.composite
def insertion_tableaux(draw):
    """P(w) for a word w over the rank-n alphabet, n <= 5."""
    n = draw(st.integers(1, 5))
    letters = [x for x in range(-n, n + 1) if x]
    return insertion_tableau(tuple(draw(st.lists(st.sampled_from(letters), max_size=10))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(insertion_tableaux())
def test_reverse_insertion_gives_at_most_the_first_columns_bottom(tab):
    # the bound predecessors skips corners by: no x from reverse insertion
    # exceeds tab[0][-1], and at corner 0 x is tab[0][-1] itself
    for corner in outside_corners(tab):
        x, _ = reverse_insert(tab, corner)
        assert x <= tab[0][-1], (format_tableau(tab), corner)
        if corner == 0:
            assert x == tab[0][-1]


def leaf_rule_holds(tab):
    """The condition under which predecessors answers [] before any reverse
    insertion: tab[0][-1] < tab[-1][0], tab[-2] and tab[-1] one box each, and
    tab[-3] one box or absent."""
    return (
        len(tab) > 1
        and tab[0][-1] < tab[-1][0]
        and len(tab[-2]) == len(tab[-1]) == 1
        and (len(tab) == 2 or len(tab[-3]) == 1)
    )


@settings(derandomize=True, max_examples=300, deadline=None)
@given(insertion_tableaux())
def test_leaf_rule_tableaux_have_no_predecessor(tab):
    if leaf_rule_holds(tab):
        assert reference_predecessors(tab) == [], format_tableau(tab)
        assert predecessors(tab) == []


def test_leaf_rule_on_the_differential_components():
    seen = set()
    leaves = 0
    for root in DIFFERENTIAL_ROOTS:
        if root not in seen:
            seen.update(component(root).vertices)
    for v in seen:
        if leaf_rule_holds(v):
            assert reference_predecessors(v) == [], format_tableau(v)
            leaves += 1
    assert leaves > 100


def test_component_skips_corners_that_cannot_give_a_predecessor(monkeypatch):
    calls = itertools.count()
    real = cyclage.reverse_insert

    def counted(tab, corner):
        next(calls)
        return real(tab, corner)

    monkeypatch.setattr(cyclage, "reverse_insert", counted)
    corners = 0
    seen = set()
    for root in enumerate_tableaux((2, 2, 2, 2), (0, 0, 0, 0), 4):
        if root not in seen:
            g = component(root)
            corners += sum(len(outside_corners(v)) for v in g.vertices)
            seen.update(g.vertices)
    assert 0 < next(calls) < corners


def test_component_and_predecessors_match_reinsertion():
    seen = set()
    for root in DIFFERENTIAL_ROOTS:
        if root in seen:
            continue
        g = component(root)
        assert g == reference_component(root), format_tableau(root)
        for v in g.vertices:
            preds = predecessors(v)
            assert preds == reference_predecessors(v), format_tableau(v)
            assert all(cocycle(s) == v for s in preds)
        seen.update(g.vertices)
    assert len(seen) > 1000


def test_clear_caches_empties_split_memo():
    component(T("-4;-3;-2;-1;1"))
    assert free_split.cache_info().currsize > 0
    symplectic_kf.clear_caches()
    assert free_split.cache_info().currsize == 0
    assert component(T("-4;-3;-2;-1;1")) == reference_component(T("-4;-3;-2;-1;1"))


def test_component_invariant_under_any_member():
    base = component(T("-1;-1;1;1"))
    again = component(T("-3,-1;1,3"))
    assert base == again


def test_components_isomorphic_under_translation():
    for root in ("-2,-1;1,2", "-3,-2,-1;1,2,3"):
        g = component(T(root))
        gt = component(translate(T(root)))
        mapped_vertices = {translate(v) for v in g.vertices}
        assert mapped_vertices == set(gt.vertices)
        mapped_edges = {(translate(a), translate(b)) for a, b in g.edges}
        assert mapped_edges == set(gt.edges)


def test_distinct_predecessors_have_distinct_shapes():
    for root in GRAPH_FIXTURES:
        for v in component(T(root)).vertices:
            shapes = [tuple(len(c) for c in s) for s in predecessors(v)]
            assert len(shapes) == len(set(shapes)), v


def test_cocycle_commutes_with_weyl_generators():
    # authorization status and images agree along tableau readings
    for root in GRAPH_FIXTURES:
        for v in component(T(root)).vertices:
            if len(v) <= 1:
                continue
            m = max(abs(x) for col in v for x in col)
            for i in range(m):
                w = weyl_reflect(reading(v), i)
                image = insertion_tableau(w)
                # the crystal action stays inside the component, so the
                # reflected word is again a tableau reading of the same shape
                assert reading(image) == w, (v, i)
                assert is_authorized(image) == is_authorized(v), (v, i)
                if is_authorized(v):
                    assert cocycle(image) == insertion_tableau(
                        weyl_reflect(reading(cocycle(v)), i)
                    ), (v, i)


def test_support_rank():
    assert weight_support_rank(T("-2,-1;1,2")) == 0
    assert weight_support_rank(T("-3,-2,1;-3,-1")) == 3


def test_charge_reports_negative_for_letters_beyond_rank():
    # tableaux using letters above the evaluation rank can chain to a terminal
    # column whose summands go negative; the value is reported, not clamped
    tab = T("-4,-3;-3,4")
    assert charge(tab, 3) == -1
    assert charge(tab, 4) == 1


@pytest.mark.parametrize("call", [charge, charge_chain, reduce])
@pytest.mark.parametrize("tab", [((1,), (-1,)), ((1, -1),)], ids=["1;-1", "1,-1"])
def test_chain_entries_reject_non_symplectic_tableaux(call, tab):
    # neither is symplectic at any rank: -1 cannot stand right of 1, and a
    # column increases strictly
    with pytest.raises(ValueError, match="not a symplectic tableau"):
        call(tab, 2)


def test_chain_dataclass_invariants():
    chain = charge_chain(T("-3,-2,1;-3,-1"), 3)
    assert chain.p == sum(1 for _, kind in chain.steps if kind == "cocyclage")
    assert len(chain.terminal) % 2 == 0
    assert sum(1 if x < 0 else -1 for x in chain.terminal) == 0
    empty = charge_chain(T("-1"), 1)
    assert empty.terminal == () and empty.p == 0


def n_r(tab, r):
    """Boxes in the r-1 rightmost columns."""
    return sum(len(c) for c in tab[max(0, len(tab) - (r - 1)) :])


def test_boxes_right_of_first_column_never_grow_under_cocyclage():
    # along cocyclage-only steps the rightmost-box count is non-increasing
    roots = ["-1;-1;1;1", "-3;-3;-2;-1;1", "-3,-2,-1;1,2,3", "-2,-1;1,2"]
    pairs = 0
    for root in roots:
        g = component(T(root))
        for a, b in g.edges:
            r = len(a)
            if len(b) in (r, r + 1):
                assert n_r(a, r) >= n_r(b, r), (a, b)
                pairs += 1
    # the same monotonicity along reduce-and-cocycle chains
    for root in ["-3,-2,1;-3,-1", "-3,1;-1,3", "-2,1;-1,2", "-3,-1;1,3", "-3,2;-2,3"]:
        chain = charge_chain(T(root), 3)
        tabs = chain.tableaux()
        for (prev, (cur, kind)) in zip(tabs, chain.steps):
            if kind != "cocyclage" or len(prev) <= 1:
                continue
            r = len(prev)
            if len(cur) in (r, r + 1):
                assert n_r(prev, r) >= n_r(cur, r), (prev, cur)
                pairs += 1
    assert pairs > 15


# ------------------------------------------------------------- the chain memo

def reference_charge(tab, n):
    chain = charge_chain(tab, n)
    return charge_column(chain.terminal, n) + chain.p


def sweep_n3_tableaux():
    weights = dominant_weights(3, 8)
    return [t for lam in weights for mu in weights for t in enumerate_tableaux(lam, mu, 3)]


def rank4_component_vertices():
    """The vertices of the rank-4 components of two 8-box (shape, weight) pairs."""
    verts = set()
    for lam, mu in [((2, 2, 2, 2), (0, 0, 0, 0)), ((3, 3, 1, 1), (1, 1, 0, 0))]:
        for root in enumerate_tableaux(lam, mu, 4):
            if root not in verts:
                verts.update(component(root).vertices)
    return sorted(verts, key=reading)


def check_charge_matches_chain():
    cases = [(t, 3) for t in sweep_n3_tableaux()]
    cases += [(v, 4) for v in rank4_component_vertices()]
    assert len(cases) > 5000
    symplectic_kf.clear_caches()
    got = [charge(t, n) for t, n in cases]
    assert got == [reference_charge(t, n) for t, n in cases]


def test_charge_matches_chain_reference():
    check_charge_matches_chain()
    assert len(cyclage._chain_tails) > 1000


def test_charge_matches_chain_reference_through_memo_clears(monkeypatch):
    monkeypatch.setattr(cyclage, "_CHAIN_MEMO_CAP", 7)
    check_charge_matches_chain()
    assert 0 < len(cyclage._chain_tails) <= 7


def test_memo_reaches_stored_tableau_within_stride():
    symplectic_kf.clear_caches()
    tab = T("-3;-2;-1;1")
    steps = [t for t, _ in charge_chain(tab, 3).steps]
    assert len(steps) > 2 * cyclage._CHAIN_STRIDE
    assert charge(tab, 3) == reference_charge(tab, 3)
    # the start is never stored; of the rest, every third tableau is
    stored = [t in cyclage._chain_tails for t in [tab] + steps]
    assert stored == [i > 0 and i % cyclage._CHAIN_STRIDE == 0 for i in range(len(stored))]
    for t in steps:
        assert charge(t, 3) == reference_charge(t, 3)


@pytest.mark.parametrize("warm", [False, True])
def test_cycling_chain_raises_with_cold_or_warm_memo(monkeypatch, warm):
    start = T("-3,-2,1;-3,-1")
    symplectic_kf.clear_caches()
    if warm:
        # store tails of start's true chain and of another pair's chains
        for t in [start] + enumerate_tableaux((2, 1, 0), (1, 0, 0), 3):
            charge(t, 3)
        assert cyclage._chain_tails
    # a stored start or first step would end the walk before the cycle
    authorized, _ = reduce(start, 3)
    assert start not in cyclage._chain_tails
    assert authorized not in cyclage._chain_tails
    calls = itertools.count()

    def cycling_pop_insert(t):
        # a cocyclage that sends the authorized tableau back to the start;
        # fails rather than loops if the repeat goes unnoticed
        assert next(calls) < 100, "the chain ran on past a repeated tableau"
        return start

    monkeypatch.setattr(cyclage, "_pop_insert", cycling_pop_insert)
    with pytest.raises(ChainRepetitionError):
        charge(start, 3)
    with pytest.raises(ChainRepetitionError):
        charge_chain(start, 3)
