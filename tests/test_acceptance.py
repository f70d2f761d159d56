"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

from make_kostka_golden import dominant_weights
from symplectic_kf import cli, clear_caches
from symplectic_kf.cyclage import (
    charge,
    charge_chain,
    charge_column,
    cocycle,
    cocyclage_shift,
    component,
    is_authorized,
)
from symplectic_kf.crystal import string_lengths, weyl_reflect
from symplectic_kf.kostant import kostka_def
from symplectic_kf.qpoly import QPolynomial
from symplectic_kf.recurrences import (
    charge_kostka,
    kostka_morris,
    kostka_row,
    verify_conjecture,
)
from symplectic_kf.tableaux import (
    admissible_columns,
    admissible_split,
    column_leq,
    insert_into_column,
    insert_into_tableau,
    insertion_tableau,
    outside_corners,
    parse_tableau,
    reading,
    reverse_insert,
    tableau_weight,
)

T = parse_tableau


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}{': ' + detail if detail else ''}")
    assert ok, f"criterion {num} failed: {detail}"


def _cold_caches():
    clear_caches()


def test_criterion_1_definitional_fixtures():
    _cold_caches()
    t0 = time.monotonic()
    k1 = kostka_def((2, 2, 0), (0, 0, 0))
    t1 = time.monotonic() - t0
    t0 = time.monotonic()
    k2 = kostka_def((2, 1, 1, 1), (1, 1, 1, 0))
    t2 = time.monotonic() - t0
    ok = (
        k1 == QPolynomial({2: 1, 4: 2, 6: 2, 8: 1})
        and k2 == QPolynomial({1: 1, 2: 1, 3: 1, 4: 1})
        and t1 < 5.0
        and t2 < 5.0
    )
    _report(1, ok, f"definitional fixtures exact ({t1:.2f}s, {t2:.2f}s)")


def test_criterion_2_charge_route():
    from symplectic_kf.tableaux import enumerate_tableaux

    c1 = charge_kostka((2, 2, 0), (0, 0, 0), 3)
    c2 = charge_kostka((2, 1, 1, 1), (1, 1, 1, 0), 4)
    m1 = sorted(charge(t, 3) for t in enumerate_tableaux((2, 2, 0), (0, 0, 0), 3))
    m2 = sorted(
        charge(t, 4) for t in enumerate_tableaux((2, 1, 1, 1), (1, 1, 1, 0), 4)
    )
    ok = (
        c1 == QPolynomial({2: 1, 4: 2, 6: 2, 8: 1})
        and c2 == QPolynomial({1: 1, 2: 1, 3: 1, 4: 1})
        and m1 == [2, 4, 4, 6, 6, 8]
        and m2 == [1, 2, 3, 4]
    )
    _report(2, ok, f"charge multisets {m1} and {m2}")


def test_criterion_3_column_pair_closed_form():
    _cold_caches()
    t0 = time.monotonic()
    all_ok = True
    for n in range(2, 7):
        lam = (1, 1) + (0,) * (n - 2)
        want = QPolynomial({2 * i: 1 for i in range(1, n)})
        if kostka_def(lam, (0,) * n) != want:
            all_ok = False
            break
    elapsed = time.monotonic() - t0
    _report(3, all_ok and elapsed < 60.0, f"n=2..6 in {elapsed:.1f}s")


def test_criterion_4_row_formula():
    all_ok = True
    for n in (1, 2, 3):
        for p in range(6):
            lam = (p,) + (0,) * (n - 1)
            for mu in dominant_weights(n, p):
                row = kostka_row(p, mu, n)
                ref = kostka_def(lam, mu)
                if row != ref:
                    all_ok = False
                if (p - sum(mu)) % 2 and not row.is_zero():
                    all_ok = False
    _report(4, all_ok, "row formula equals definitional for p <= 5, n <= 3")


def test_criterion_5_morris_corollary():
    all_ok = True
    checked = 0
    for n in (2, 3):
        for nu in dominant_weights(n, 6):
            for mu in dominant_weights(n, 6):
                if mu[0] < nu[1]:
                    continue
                if kostka_morris(nu, mu, n) != kostka_def(nu, mu):
                    all_ok = False
                checked += 1
    for nu in dominant_weights(1, 6):
        for mu in dominant_weights(1, 6):
            if kostka_morris(nu, mu, 1) != kostka_def(nu, mu):
                all_ok = False
            checked += 1
    _report(5, all_ok and checked > 400, f"{checked} admissible pairs agree")


GRAPHS = {
    "-1;-1;1;1": (10, 9),
    "-3;-3;-2;-1;1": (7, 6),
    "-3,-2,-1;1,2,3": (4, 3),
    "-2,-1;1,2": (3, 2),
}

GRAPH_VERTICES = {
    "-1;-1;1;1": {
        "-1;-1;1;1", "-1,1;-1;1", "-2,1;-1,2", "-2,-1;1;2", "-2,-1,2;1",
        "-3,-1,1;3", "-3,-1,1,3", "-3,-1;1,3", "-2,1;-1;2", "-2,1,2;-1",
    },
    "-3;-3;-2;-1;1": {
        "-3;-3;-2;-1;1", "-3,1;-3;-2;-1", "-3,-1;-3,1;-2", "-3,-2;-3,-1;1",
        "-3,-1;-3;-2;1", "-3,-1,1;-3;-2", "-3,-2,1;-3,-1",
    },
    "-3,-2,-1;1,2,3": {
        "-3,-2,-1;1,2,3", "-3,-2,-1,1;2,3", "-3,-2,-1,1,2;3", "-3,-2,-1,1,2,3",
    },
    "-2,-1;1,2": {"-2,-1;1,2", "-2,-1,1;2", "-2,-1,1,2"},
}

GRAPH_EDGES = {
    "-1;-1;1;1": {
        ("-1;-1;1;1", "-1,1;-1;1"), ("-1,1;-1;1", "-2,1;-1,2"),
        ("-2,1;-1,2", "-2,-1;1;2"), ("-2,-1;1;2", "-2,-1,2;1"),
        ("-2,-1,2;1", "-3,-1,1;3"), ("-3,-1,1;3", "-3,-1,1,3"),
        ("-3,-1;1,3", "-3,-1,1;3"), ("-2,1;-1;2", "-2,1,2;-1"),
        ("-2,1,2;-1", "-2,-1,2;1"),
    },
    "-3;-3;-2;-1;1": {
        ("-3;-3;-2;-1;1", "-3,1;-3;-2;-1"), ("-3,1;-3;-2;-1", "-3,-1;-3,1;-2"),
        ("-3,-1;-3,1;-2", "-3,-2;-3,-1;1"), ("-3,-2;-3,-1;1", "-3,-2,1;-3,-1"),
        ("-3,-1;-3;-2;1", "-3,-1,1;-3;-2"), ("-3,-1,1;-3;-2", "-3,-2,1;-3,-1"),
    },
    "-3,-2,-1;1,2,3": {
        ("-3,-2,-1;1,2,3", "-3,-2,-1,1;2,3"),
        ("-3,-2,-1,1;2,3", "-3,-2,-1,1,2;3"),
        ("-3,-2,-1,1,2;3", "-3,-2,-1,1,2,3"),
    },
    "-2,-1;1,2": {
        ("-2,-1;1,2", "-2,-1,1;2"), ("-2,-1,1;2", "-2,-1,1,2"),
    },
}


def _graph_maps(g):
    fwd, pred = {}, {}
    for a, b in g.edges:
        fwd[a] = b
        pred.setdefault(b, []).append(a)
    return fwd, pred


def _shape(t):
    return tuple(len(c) for c in t)


def _embeddings(small, big):
    """Shape-preserving maps commuting with the cocyclage, found from the sinks."""
    fwd_s, pred_s = _graph_maps(small)
    fwd_b, pred_b = _graph_maps(big)
    root = small.sink
    found = []
    for cand in big.vertices:
        if _shape(cand) != _shape(root):
            continue
        phi = {root: cand}
        stack = [root]
        ok = True
        while stack and ok:
            t = stack.pop()
            for child in pred_s.get(t, []):
                images = [u for u in pred_b.get(phi[t], []) if _shape(u) == _shape(child)]
                if len(images) != 1:
                    ok = False
                    break
                phi[child] = images[0]
                stack.append(child)
        if ok and len(phi) == len(small.vertices):
            found.append(phi)
    return found


def test_criterion_6_cyclage_graph_fixtures():
    from symplectic_kf.tableaux import format_tableau

    ok = True
    for root, (nv, ne) in GRAPHS.items():
        g = component(T(root))
        if (len(g.vertices), len(g.edges)) != (nv, ne):
            ok = False
        if {format_tableau(v) for v in g.vertices} != GRAPH_VERTICES[root]:
            ok = False
        got_edges = {(format_tableau(a), format_tableau(b)) for a, b in g.edges}
        if got_edges != GRAPH_EDGES[root]:
            ok = False
    g7 = component(T("-3;-3;-2;-1;1"))
    g_big = component(T("-4;-3;-2;-1;1"))
    embeddings = _embeddings(g7, g_big)
    ok = ok and len(embeddings) == 1
    if embeddings:
        fwd_s, _ = _graph_maps(g7)
        fwd_b, _ = _graph_maps(g_big)
        phi = embeddings[0]
        for t, u in fwd_s.items():
            if fwd_b.get(phi[t]) != phi[u]:
                ok = False
    _report(6, ok, "four reference graphs exact; 7-vertex graph embeds uniquely")


def test_criterion_7_cocyclage_fixtures():
    t1 = T("-4,-2,2;-3,-2;-2,-1")
    t2 = T("-4,-2,2;-3,-2;4")
    t3 = T("-4,-2,3;-3,-2;-2,-1")
    ok = cocycle(t1) == T("-4,-3,-2;-3,-2,3;-1")
    # appending to the first column cannot alter the second, and the weight
    # is preserved, so the second column keeps its bars
    ok = ok and cocycle(t2) == T("-4,-2,2,4;-3,-2")
    ok = ok and tableau_weight(cocycle(t2), 4) == tableau_weight(t2, 4)
    ok = ok and not is_authorized(t3)
    chain = charge_chain(T("-3,-2,1;-3,-1"), 3)
    tabs = chain.tableaux()
    ok = (
        ok
        and tabs[1] == T("-3,2;-2")
        and tabs[2] == T("-3,-2;2")
        and chain.terminal == (-3, 3)
        and chain.p == 2
    )
    _report(7, ok, "cocyclage and reduction fixtures match box-for-box")


def test_criterion_8_insertion_fixtures():
    ok = insert_into_column(5, (-4, -2, 2, 3, 4)) == (-4, -2, 2, 3, 4, 5)
    ok = ok and insert_into_column(-4, (-4, -2, 2, 3, 4)) == ((-4, -3, -2, 2, 3), 3)
    step1 = insert_into_tableau(1, T("-1,1,3;1,2;2"))
    ok = ok and insert_into_tableau(2, step1) == T("-2,1,2;1,2,3;2;2")
    tab = T("-2,1,3;1,2;2")
    pairs = {reverse_insert(tab, j) for j in outside_corners(tab)}
    ok = ok and pairs == {
        (3, T("-2,1;1,2;2")),
        (1, T("-1,1,3;1;2")),
        (1, T("-1,1,3;1,2")),
    }
    _report(8, ok, "column, tableau and reverse insertion fixtures exact")


def _shapes_up_to(max_boxes, max_height):
    out = []

    def rec(prev, cur, total):
        if cur:
            out.append(tuple(cur))
        for h in range(min(prev, max_height), 0, -1):
            if total + h <= max_boxes:
                cur.append(h)
                rec(h, cur, total + h)
                cur.pop()

    rec(max_height, [], 0)
    return out


def test_criterion_9_property_suites():
    ok = True
    # termination without repetition: every dominant-weight symplectic tableau
    # with at most 8 boxes over the rank-3 alphabet reaches a weight-0 column
    n = 3
    chains = 0
    for heights in _shapes_up_to(8, 3):
        stack = [()]
        for h in heights:
            new = []
            for cols in stack:
                prev_r = admissible_split(cols[-1], n)[1] if cols else None
                for col in admissible_columns(h, n):
                    if prev_r is None or column_leq(prev_r, admissible_split(col, n)[0]):
                        new.append(cols + (col,))
            stack = new
        for tab in stack:
            wt = tableau_weight(tab, n)
            if not all(wt[i] >= wt[i + 1] for i in range(n - 1)) or wt[-1] < 0:
                continue
            charge_chain(tab, n)  # raises on repetition or non-termination
            chains += 1
    ok = ok and chains > 2500

    # enumeration counts equal weight multiplicities
    from symplectic_kf.tableaux import enumerate_tableaux

    for rank in (1, 2, 3):
        for lam in dominant_weights(rank, 6):
            for mu in dominant_weights(rank, 6):
                count = len(enumerate_tableaux(lam, mu, rank))
                if count != kostka_def(lam, mu)(1):
                    ok = False

    # re-inserting a fixture reading returns the fixture
    fixtures = [T(s) for s in GRAPH_VERTICES["-1;-1;1;1"]]
    fixtures += [T(s) for s in GRAPH_VERTICES["-3;-3;-2;-1;1"]]
    fixtures += [
        T("-2,-1;1,2"), T("-2,1;-1,2"), T("-3,-1;1,3"),
        T("-3,1;-1,3"), T("-3,-2;2,3"), T("-3,2;-2,3"),
    ]
    for tab in fixtures:
        if insertion_tableau(reading(tab)) != tab:
            ok = False

    # shift and cocyclage commute with the Weyl generators on fixture vertices
    for root in GRAPHS:
        for v in component(T(root)).vertices:
            m = max(abs(x) for col in v for x in col)
            w = reading(v)
            for i in range(m):
                if cocyclage_shift(weyl_reflect(w, i)) != weyl_reflect(
                    cocyclage_shift(w), i
                ):
                    ok = False
                if len(v) > 1:
                    image = insertion_tableau(weyl_reflect(w, i))
                    if is_authorized(image) != is_authorized(v):
                        ok = False
                    elif is_authorized(v) and cocycle(image) != insertion_tableau(
                        weyl_reflect(reading(cocycle(v)), i)
                    ):
                        ok = False

    # the two charge formulas agree on weight-0 admissible columns over C_5
    n5 = 5
    cols_checked = 0
    for h in (2, 4):
        for col in admissible_columns(h, n5):
            if tableau_weight((col,), n5) != (0,) * n5:
                continue
            direct = charge_column(col, n5)
            via_eps = 2 * sum(
                (n5 - i) * string_lengths(col, i)[0] for i in range(1, n5)
            )
            if direct != via_eps:
                ok = False
            cols_checked += 1
    # four height-2 and five height-4 zero-weight admissible columns exist
    ok = ok and cols_checked == 9
    _report(9, ok, f"{chains} chains terminated; {cols_checked} columns cross-checked")


def test_criterion_10_conjecture_sweep():
    t0 = time.monotonic()
    code, out = cli.run(["verify", "-n", "3", "--max-weight", "6"])
    elapsed = time.monotonic() - t0
    ok = code == 0 and "mismatches: 0" in out and elapsed < 600.0
    # the reported instances must match regardless of the sweep outcome
    ok = ok and verify_conjecture((2, 2, 0), (0, 0, 0), 3).verdict == "match"
    ok = ok and verify_conjecture((2, 1, 1, 1), (1, 1, 1, 0), 4).verdict == "match"
    _report(10, ok, f"529-pair sweep clean in {elapsed:.1f}s")
