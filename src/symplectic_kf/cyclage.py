"""Cocyclage, reduction, charge chains, the charge statistic and cyclage graphs."""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .algebra import check_rank, is_dominant
from .crystal import Word, weight_counts
from .tableaux import (
    Column,
    Tableau,
    fits_right_of,
    format_tableau,
    insert_into_tableau,
    minimal_rank,
    outside_corners,
    reading,
    reverse_insert,
)


# The chain memo: tableau -> (cocyclages left, terminal column) for tableaux
# that charge chains passed through.  A chain does not depend on the rank, so
# one memo serves every rank.  ``charge`` stores every third tableau of each
# new segment, never the start, so a later chain that merges into a stored one
# meets a stored tableau within three steps.  Entries share one copy of each
# column and of each value through _chain_shared, which on the rank-3 sweep
# of size <= 8 (2798 charges, 2481 entries) holds the memo near 0.4 MB
# instead of 0.75 MB.  Both are emptied wholesale when the memo holds
# _CHAIN_MEMO_CAP entries.
_CHAIN_STRIDE = 3
_CHAIN_MEMO_CAP = 16_384
_chain_tails: dict[Tableau, tuple[int, Column]] = {}
_chain_shared: dict = {}


class ChainRepetitionError(RuntimeError):
    """A charge chain revisited a tableau, which the theory forbids."""


def cocyclage_shift(w: Word) -> Word:
    """xi: move the first letter to the end."""
    if not w:
        raise ValueError("empty word")
    return w[1:] + (w[0],)


def translate_word(w: Word) -> Word:
    """t applied letter-wise: k -> k+1, kbar -> (k+1)bar."""
    return tuple(x + 1 if x > 0 else x - 1 for x in w)


def translate(tab: Tableau) -> Tableau:
    """t applied to every letter of the tableau."""
    return tuple(translate_word(col) for col in tab)


def weight_support_rank(tab: Tableau) -> int:
    """Largest k with d_kbar nonzero; 0 for weight-zero tableaux."""
    return max(weight_counts(chain.from_iterable(tab)), default=0)


def is_authorized(tab: Tableau) -> bool:
    """True unless some letter occupies every column with its conjugate absent."""
    if len(tab) <= 1:
        raise ValueError("no cocyclage on columns")
    # the last column is the shortest, and the set of letters common to every
    # column is usually empty after a column or two
    common = set(tab[-1])
    for col in tab[-2::-1]:
        common.intersection_update(col)
        if not common:
            return True
    present = {x for col in tab for x in col}
    return all(-y in present for y in common)


def cocycle(tab: Tableau) -> Tableau:
    """U(T): pop the top box of the last column and insert its letter; T must
    be symplectic at some rank, with an authorized cocyclage."""
    minimal_rank(tab)
    if not is_authorized(tab):
        raise ValueError(f"cocyclage not authorized for {format_tableau(tab)}")
    return _pop_insert(tab)


def _pop_insert(tab: Tableau) -> Tableau:
    """U(T) for a tableau whose cocyclage the caller has just found authorized."""
    last = tab[-1]
    x = last[0]
    rest = last[1:]
    t_star = tab[:-1] + ((rest,) if rest else ())
    return insert_into_tableau(x, t_star)


def _reduction_step(tab: Tableau) -> Tableau:
    """The $-operation: erase the top-rank barred letters and translate the rest.

    The rank is the largest k with d_kbar nonzero; letters strictly between
    kbar and k move out by one step, letters beyond stay put.
    """
    n = weight_support_rank(tab)
    if n == 0:
        raise ValueError("weight-zero tableau admits no reduction")
    out = []
    for col in tab:
        newcol = []
        for x in col:
            if x == -n:
                continue
            if -n < x < n:
                newcol.append(x + 1 if x > 0 else x - 1)
            else:
                newcol.append(x)
        if newcol:
            out.append(tuple(sorted(newcol)))
    return tuple(out)


def _check_chain_start(tab: Tableau, n: int) -> None:
    check_rank(n)
    d = weight_counts(chain.from_iterable(tab))
    m = max(d, default=0)
    if not is_dominant(tuple(d.get(k, 0) for k in range(m, 0, -1))):
        raise ValueError(f"weight of {format_tableau(tab)} is not dominant")
    if m > n:
        raise ValueError(f"weight of {format_tableau(tab)} exceeds rank {n}")


def reduce(tab: Tableau, n: int) -> tuple[Tableau, int]:
    """Apply $-operations until the cocyclage is defined or a weight-0 column.

    Requires the weight of ``tab`` to be dominant of rank at most n.  Returns
    the stabilized tableau together with the rank its weight still occupies
    (0 once the weight vanishes).  An already-authorized tableau is returned
    unchanged.  Raises ValueError unless ``tab`` is symplectic at some rank.
    """
    minimal_rank(tab)
    _check_chain_start(tab, n)
    for t, kind in _chain_steps(tab):
        if kind == "cocyclage":
            break
        tab = t
    return tab, weight_support_rank(tab)


class ChargeChain(namedtuple("ChargeChain", "start steps terminal p")):
    """Trace of reduce-then-cocycle iterations down to a weight-0 column.

    ``start`` is the first tableau, ``steps`` the (result, "cocyclage" |
    "reduction") pairs in order, ``terminal`` the weight-0 column the chain
    ends at and ``p`` the number of cocyclage steps.
    """

    __slots__ = ()

    def tableaux(self) -> list[Tableau]:
        return [self.start] + [t for t, _ in self.steps]


def _chain_steps(tab: Tableau):
    """Yield (result, "reduction" | "cocyclage") for each step of the chain
    from ``tab``, down to a weight-0 column or the empty tableau.

    Each step depends on the tableau it starts from alone, never on the rank:
    the cocyclage when it is authorized, the $-operation otherwise.
    """
    while len(tab) > 1 or weight_support_rank(tab):
        if len(tab) > 1 and is_authorized(tab):
            tab = _pop_insert(tab)
            yield tab, "cocyclage"
        else:
            tab = _reduction_step(tab)
            yield tab, "reduction"


def _revisited(tab: Tableau, t: Tableau) -> ChainRepetitionError:
    return ChainRepetitionError(
        f"chain from {format_tableau(tab)} revisited {format_tableau(t)}"
    )


def charge_chain(tab: Tableau, n: int) -> ChargeChain:
    """Iterate reduction and cocyclage until a weight-0 column, recording steps.

    This is the reference trace: it walks every step and keeps no memo, and
    ``charge`` is tested against it.  The theory guarantees termination
    without repetition; a repeat raises ChainRepetitionError since it can only
    come from an implementation bug.  Raises ValueError unless ``tab`` is
    symplectic at some rank.
    """
    minimal_rank(tab)
    _check_chain_start(tab, n)
    seen = {tab}
    steps: list[tuple[Tableau, str]] = []
    cur = tab
    for cur, kind in _chain_steps(tab):
        if cur in seen:
            raise _revisited(tab, cur)
        seen.add(cur)
        steps.append((cur, kind))
    p = sum(kind == "cocyclage" for _, kind in steps)
    return ChargeChain(tab, tuple(steps), cur[0] if cur else (), p)


def charge_column(col: Column, n: int) -> int:
    """2 * sum of (n - i) over unbarred i in the column with i+1 absent.

    Defined for weight-0 columns only; summands may be negative when the
    column uses letters above n.
    """
    if weight_counts(col):
        raise ValueError(f"column {col} does not have weight zero")
    present = set(col)
    return 2 * sum(n - i for i in present if i > 0 and i + 1 not in present)


def charge(tab: Tableau, n: int) -> int:
    """Charge of the terminal column plus the number of cocyclage steps.

    Gives what ``charge_chain``, the reference, gives, but reuses chain tails
    across calls: the walk stops at the first tableau found in the chain memo,
    whose entry holds the cocyclages left and the terminal column.  Only the
    new segment, the steps walked in this call, is checked for a repeated
    tableau.  That suffices: the step function is deterministic, and every
    stored tail was checked when it was stored.  Raises ValueError unless
    ``tab`` is symplectic at some rank.
    """
    minimal_rank(tab)
    _check_chain_start(tab, n)
    return _charge(tab, n)


def _charge(tab: Tableau, n: int) -> int:
    """``charge`` of a tableau the caller has checked, such as one that
    ``enumerate_tableaux`` listed: symplectic by construction, and of the
    weight the caller checked once for the whole listing.  Neither the
    symplectic check nor the weight check is made."""
    p, term = _chain_tails.get(tab) or _walk_chain(tab)
    return charge_column(term, n) + p


def _walk_chain(tab: Tableau) -> tuple[int, Column]:
    """(cocyclages, terminal column) of the chain from ``tab``, walked until
    the terminal column or a tableau of the chain memo; stores every third
    tableau of the new segment."""
    memo = _chain_tails
    seen = {tab}
    segment = []  # (tableau, cocyclages up to it) for each new step
    p = 0
    cur = tab
    for cur, kind in _chain_steps(tab):
        p += kind == "cocyclage"
        tail = memo.get(cur)
        if tail is not None:
            left, term = tail
            break
        if cur in seen:
            raise _revisited(tab, cur)
        seen.add(cur)
        segment.append((cur, p))
    else:
        left, term = 0, (cur[0] if cur else ())
    p += left
    intern = _chain_shared.setdefault
    for t, walked in segment[_CHAIN_STRIDE - 1 :: _CHAIN_STRIDE]:
        if len(memo) >= _CHAIN_MEMO_CAP:
            memo.clear()
            _chain_shared.clear()
        value = (p - walked, intern(term, term))
        memo[tuple([intern(c, c) for c in t])] = intern(value, value)
    return p, term


# ----------------------------------------------------------------- the graphs

def predecessors(tab: Tableau) -> list[Tableau]:
    """All symplectic S with an authorized cocyclage and U(S) = tab.

    ``tab`` must be a symplectic tableau.  Reverse-insert at each outside
    corner to get (x, T*).  U(S) = tab makes S equal to T* with x back on top
    of its last column, so S has one of two shapes: T* plus the one-box column
    (x,) when x >= the top of T*'s last column, or T* with x on top of that
    column when x is smaller.  T* is a tableau, so only the changed column is
    tested, against its left neighbour with the rank-free splits.
    """
    corners = outside_corners(tab)
    if len(tab) > 1 and tab[0][-1] < tab[-1][0]:
        # Skip the corners that cannot give a predecessor, before reverse
        # inserting there.  The x from reverse insertion at any corner is at
        # most tab[0][-1]: reverse_insert's walk down column 0 starts x at
        # the column's top letter, and each of its four cases keeps x, or
        # replaces it by a letter d of the column, or by -(d+1) for a letter
        # d >= 1, all at most the column's bottom letter (at corner 0, x is
        # tab[0][-1] itself).  With k = len(tab), at a corner c < k-1, T*'s
        # last column is tab[-1], and the column left of it has height
        # len(tab[-2]) - (c == k-2).  When that height is at most
        # len(tab[-1]), x on top would make the last column the taller, so
        # the only shape left is T* + (x,), which needs x >= tab[-1][0],
        # while x <= tab[0][-1] < tab[-1][0].
        # With tab[-2] as tall as tab[-1] that rules out every corner but the
        # last; with tab[-2] one box taller, corner k-2 alone.
        room = len(tab[-2]) - len(tab[-1])
        if room == 0:
            if len(tab[-1]) == 1 and (len(tab) == 2 or len(tab[-3]) == 1):
                # The last corner fails too when tab[-2] and tab[-1] are one
                # box each and tab[-3] is one box or absent: reverse-bumping
                # tab[-1][0] into the one-box tab[-2] leaves T*'s last column
                # (tab[-1][0],), so x <= tab[0][-1] rules out T* + (x,), and
                # T*'s second-last column is one box or absent, so there is
                # no room for x on top.
                return []
            corners = corners[-1:]
        elif room == 1:
            del corners[-2]
    out = []
    for corner in corners:
        try:
            x, t_star = reverse_insert(tab, corner)
        except ValueError:
            continue
        if not t_star:
            continue  # S would be the single box (x,), which has no cocyclage
        last = t_star[-1]
        if x >= last[0]:
            # rC(last) starts with last[0], so (x,) always fits right of it
            s = t_star + ((x,),)
        elif (
            len(t_star) > 1
            and len(t_star[-2]) > len(last)
            and fits_right_of(t_star[-2], (x,) + last)
        ):
            s = t_star[:-1] + ((x,) + last,)
        else:
            continue
        if is_authorized(s):
            out.append(s)
    return out


class CyclageGraph(namedtuple("CyclageGraph", "vertices edges")):
    """Connected component of the cocyclage graph; a tree rooted at its sink.

    ``vertices`` are sorted by reading; ``edges`` are the (T, U(T)) pairs,
    sorted as their first tableaux are.
    """

    __slots__ = ()

    @property
    def sink(self) -> Tableau:
        with_out = {a for a, _ in self.edges}
        sinks = [v for v in self.vertices if v not in with_out]
        if len(sinks) != 1:
            raise ValueError(f"a cyclage graph has one sink, not {len(sinks)}")
        return sinks[0]


def component(tab: Tableau) -> CyclageGraph:
    """Close {tab} under authorized cocyclages and their inverses.

    Raises ValueError unless ``tab`` is symplectic at some rank.  Each edge is
    computed once: a vertex first met as a predecessor of t has the out-edge
    (s, t) already, so U is applied only to ``tab`` and to cocyclage images.
    U is a function, so a vertex has at most one out-edge, and the edges are
    listed from the out-edge map in vertex order.
    """
    minimal_rank(tab)
    verts = {tab}
    out_edge: dict[Tableau, Tableau] = {}
    queue = [(tab, True)]
    while queue:
        t, needs_out_edge = queue.pop()
        if needs_out_edge and len(t) > 1 and is_authorized(t):
            u = _pop_insert(t)
            out_edge[t] = u
            if u not in verts:
                verts.add(u)
                queue.append((u, True))
        for s in predecessors(t):
            if s not in verts:
                verts.add(s)
                queue.append((s, False))
                out_edge[s] = t
    ordered = tuple(sorted(verts, key=reading))
    return CyclageGraph(ordered, tuple((v, out_edge[v]) for v in ordered if v in out_edge))
