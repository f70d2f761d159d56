"""Admissible columns, symplectic tableaux and the type-C insertion scheme.

A column is a strictly increasing tuple of letters (top to bottom); a tableau
is a tuple of columns, left to right, with weakly decreasing heights.

Text format shared with the CLI: columns separated by ';', letters within a
column comma-separated top to bottom, barred letters with a leading '-'.
Example: ``-4,-2,2;-3,-2;-2,-1``.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from operator import ge, itemgetter, le

from .algebra import (
    Weight,
    _int_entries,
    _non_int_weight,
    check_rank,
    in_positive_root_cone,
    is_dominant,
)
from .crystal import Word, word_weight

Column = tuple[int, ...]
Tableau = tuple[Column, ...]


# ---------------------------------------------------------------- text format

def parse_tableau(text: str) -> Tableau:
    cols = []
    for part in text.split(";"):
        col = tuple(int(tok) for tok in part.split(","))
        if any(x == 0 for x in col):
            raise ValueError(f"zero letter in column {part!r}")
        if any(col[j] >= col[j + 1] for j in range(len(col) - 1)):
            raise ValueError(f"column {part!r} is not strictly increasing")
        cols.append(col)
    tab = tuple(cols)
    if any(len(tab[i]) < len(tab[i + 1]) for i in range(len(tab) - 1)):
        raise ValueError(f"column heights must weakly decrease: {text!r}")
    return tab


# The text of the most recent columns, kept until ``clear_caches``: on the
# rank-4 cyclage components 1024 entries (about 0.3 MB) answer 94% of lookups.
@functools.lru_cache(maxsize=1024)
def _column_text(col: Column) -> str:
    return ",".join(map(str, col))


def format_tableau(tab: Tableau) -> str:
    return ";".join(map(_column_text, tab))


# ------------------------------------------------------------- basic geometry

def reading(tab: Tableau) -> Word:
    """Concatenate the columns right to left, each top to bottom."""
    out = []
    for col in reversed(tab):
        out.extend(col)
    return tuple(out)


def conjugate_heights(lam) -> list[int]:
    """Column heights of the diagram of a partition, left to right: height k
    for each of the lam[k-1] - lam[k] columns that part k ends."""
    heights = []
    for k in range(len(lam), 0, -1):
        heights += [k] * (lam[k - 1] - (lam[k] if k < len(lam) else 0))
    return heights


def tableau_weight(tab: Tableau, n: int) -> Weight:
    return word_weight(reading(tab), n)


# ---------------------------------------------------------------- columns

def _split(col: Column) -> tuple[Column, Column]:
    """(lC, rC) of a column by the greedy substitution, with no rank bound.

    For each unbarred z with both z and zbar in the column (ascending), the
    substitute t is the lowest letter above both z and the previous
    substitute such that neither t nor tbar occurs in the column.  rC moves
    the unbarred member of each pair up to t, lC moves the barred member down
    to tbar.  The column is n-admissible exactly when no letter of rC exceeds
    n in absolute value.
    """
    letters = set(col)
    subs = {}
    t = 0
    for z in sorted(z for z in letters if z > 0 and -z in letters):
        t = max(t, z) + 1
        while t in letters or -t in letters:
            t += 1
        subs[z] = t
    if not subs:
        return col, col  # it strictly increases, so both sorts below keep it
    r_col = tuple(sorted(subs.get(x, x) for x in col))
    l_col = tuple(sorted(-subs[-x] if (x < 0 and -x in subs) else x for x in col))
    return l_col, r_col


def admissible_split(col: Column, n: int) -> tuple[Column, Column] | None:
    """Split an n-admissible column into (lC, rC); None when not admissible.

    Raises ValueError unless col is a strictly increasing tuple of nonzero ints.
    """
    if (
        type(col) is not tuple
        or not _int_entries(col)
        or 0 in col
        or any(map(ge, col, col[1:]))
    ):
        raise ValueError(f"{col!r} is not a strictly increasing tuple of nonzero ints")
    return _rank_split(col, n)


def _rank_split(col: Column, n: int) -> tuple[Column, Column] | None:
    """``admissible_split`` without its check of col."""
    split = _split(col)
    return split if max(map(abs, split[1]), default=0) <= n else None


def column_leq(c1: Column, c2: Column) -> bool:
    """c1 <= c2: c1 at least as tall and the rows of c1 c2 weakly increase."""
    return len(c1) >= len(c2) and all(map(le, c1, c2))


def is_symplectic(tab: Tableau, n: int) -> bool:
    """All columns n-admissible and rC_i <= lC_{i+1} for consecutive columns."""
    try:
        return minimal_rank(tab) <= n
    except ValueError:
        return False


def minimal_rank(tab: Tableau) -> int:
    """Smallest n for which the tableau is n-symplectic: the largest column rank.

    Raises ValueError when the tableau is symplectic at no rank: a column is
    empty, holds 0 or does not strictly increase, or a column does not fit
    right of its left neighbour.
    """
    for i, col in enumerate(tab):
        if (
            not col
            or 0 in col
            or any(map(ge, col, col[1:]))
            or (i and not fits_right_of(tab[i - 1], col))
        ):
            raise ValueError(f"not a symplectic tableau: {format_tableau(tab)}")
    return max((max(map(abs, free_split(col)[1])) for col in tab), default=1)


# ------------------------------------------------------------ packed weights

# The walk of ``enumerate_tableaux`` holds a vector as one int, sum v_i 2^(16 i)
# with v_i a signed 16-bit field (Kronecker substitution, as for the packed
# polynomials of ``kostant``): a difference of vectors is one subtraction, and
# "every entry is >= 0" is one mask test.  Both are exact while every field
# stays in [-2^15, 2^15).  With B boxes in the shape, the weight still to place
# is mu minus the weights of the columns placed so far, so each entry is at
# most sum |mu| + B <= 2B in absolute value (the cone test in front leaves
# sum |mu| <= B), and a box entry is an entry of the weight of at most B boxes.
# A field of the box test is their difference, at most 3B, so B is capped at
# _MAX_BOXES.
_FIELD = 16
_MAX_BOXES = ((1 << (_FIELD - 1)) - 1) // 3


def _pack(v) -> int:
    """One int for the vector v, entry i in field i."""
    return sum(x << (_FIELD * i) for i, x in enumerate(v))


def _unpack(packed: int, size: int) -> tuple[int, ...]:
    """The vector of ``size`` signed fields that ``_pack`` made ``packed`` from."""
    out = []
    half = 1 << (_FIELD - 1)
    for _ in range(size):
        x = ((packed + half) & ((1 << _FIELD) - 1)) - half
        out.append(x)
        packed = (packed - x) >> _FIELD
    return tuple(out)


def _high_bits(size: int) -> int:
    """Bit 15 of each of ``size`` fields: the sign bits of the box test."""
    return ((1 << (_FIELD * size)) - 1) // ((1 << _FIELD) - 1) << (_FIELD - 1)


# ---------------------------------------------------------------- column tables

# The n-admissible columns of one height, sorted, with per-column data: the
# lC, the rC and the packed weight (``_pack``) of each column, and the indices
# of the columns of each packed weight.
_ColumnTable = namedtuple("_ColumnTable", "columns left right packed by_weight")


@functools.cache
def _column_table(n: int, height: int) -> _ColumnTable:
    """The rank-n admissible columns of one height, kept until ``clear_caches``."""
    letters = list(range(-n, 0)) + list(range(1, n + 1))
    splits = {}
    for col in itertools.combinations(letters, height):
        split = _rank_split(col, n)
        if split is not None:
            splits[col] = split
    packed = tuple(_pack(word_weight(col, n)) for col in splits)
    by_weight = {}
    for j, p in enumerate(packed):
        by_weight.setdefault(p, []).append(j)
    return _ColumnTable(
        tuple(splits),
        tuple(l_col for l_col, _ in splits.values()),
        tuple(r_col for _, r_col in splits.values()),
        packed,
        {p: tuple(js) for p, js in by_weight.items()},
    )


@functools.cache
def _successors(n: int, h1: int, h2: int) -> tuple[tuple[int, ...], ...]:
    """For each rank-n column C of height h1, the indices of the height-h2
    columns C' with rC <= lC', the condition for C' to stand right of C in a
    tableau.  Kept until ``clear_caches``."""
    left = _column_table(n, h2).left
    return tuple(
        tuple(j for j, l_col in enumerate(left) if column_leq(r_col, l_col))
        for r_col in _column_table(n, h1).right
    )


@functools.cache
def _weight_boxes(n: int, runs: tuple[tuple[int, int], ...]) -> tuple[int | None, ...]:
    """For each rank-n column C of height runs[0][0], the weight box of the
    column chains that start at C and follow the successor lists; None when
    no chain does.  The box is lo + (-hi), with lo and hi the coordinatewise
    min and max of the chains' weights, packed over 2n fields (``_pack``), so
    a weight d lies in it exactly when box <= d + (-d) in every field.  The
    boxes of a set of chains combine by one coordinatewise min of their
    unpacked fields, and a column's weight w adds to a box as the packed
    w + (-w).  The chains run over the column heights that ``runs``
    spells as (height, count) pairs, so a key holds at most n pairs however
    wide the shape.  Built from the boxes of the chains one column shorter, so
    shapes that share a suffix of column heights share them.  Kept until
    ``clear_caches``."""
    height, count = runs[0]
    shift = _FIELD * n
    spans = [p - (p << shift) for p in _column_table(n, height).packed]
    if count > 1:
        tail = ((height, count - 1),) + runs[1:]
    elif len(runs) > 1:
        tail = runs[1:]
    else:
        return tuple(spans)
    rest = [None if box is None else _unpack(box, 2 * n) for box in _weight_boxes(n, tail)]
    out = []
    for span, nxt in zip(spans, _successors(n, height, tail[0][0])):
        boxes = [rest[k] for k in nxt if rest[k] is not None]
        out.append(span + _pack(map(min, zip(*boxes))) if boxes else None)
    return tuple(out)


# The split of the most recent columns, valid at every rank where they are
# admissible, kept until ``clear_caches``.  On the rank-4 cyclage components
# 1024 entries (about 0.2 MB) answer 82% of the 43,081 lookups; keeping every
# split would hold 4,460 (about 0.8 MB) for 90%.
free_split = functools.lru_cache(maxsize=1024)(_split)


def fits_right_of(left: Column, col: Column) -> bool:
    """True when col may stand directly right of left in a tableau of large
    enough rank: left is at least as tall and rC(left) <= lC(col).  Since
    rC(left) >= left and lC(col) <= col row by row, left <= col row by row is
    necessary, and it settles most failures without looking up either split."""
    return column_leq(left, col) and column_leq(free_split(left)[1], free_split(col)[0])


def admissible_columns(height: int, n: int) -> tuple[Column, ...]:
    """All n-admissible columns of the given height, sorted."""
    return _column_table(n, height).columns


# ---------------------------------------------------------------- insertion

def _bump_two(x: int, a: int, b: int) -> tuple[tuple[int, int], int]:
    """Insert x into the two-letter column (a, b), x <= b.

    The four elementary transformations; exactly one applies:
      1. a < x <= b, b != abar          -> ((a, x), b)
      2. x <= a < b, b != xbar          -> ((x, b), a)
      3. a = bbar, bbar <= x <= b       -> (((b+1)bar, x), b+1)
      4. x = bbar, bbar < a < b         -> (((b-1)bar, b-1), a)
    """
    if a == -b and -b <= x <= b:
        return (-(b + 1), x), b + 1
    if b > 0 and x == -b and -b < a < b:
        return (-(b - 1), b - 1), a
    if a < x <= b and b != -a:
        return (a, x), b
    if x <= a < b and b != -x:
        return (x, b), a
    raise ValueError(f"no transformation applies to {x} -> ({a}, {b})")


def _bump_column(x: int, col: Column) -> tuple[Column, int]:
    """Insert x into a column with x <= max; returns (C', bumped letter).

    x climbs from the bottom pair to the top: at each step it meets the next
    letter up and the letter bumped so far, and _bump_two settles one box.
    """
    y = col[-1]
    below = ()
    for a in col[-2::-1]:
        (x, d), y = _bump_two(x, a, y)
        below = (d,) + below
    return (x,) + below, y


def insert_into_column(x: int, col: Column):
    """Insert a letter into an admissible column.

    Returns the taller column when x exceeds every letter, otherwise the pair
    (C', y) with C' of equal height and y the bumped letter.
    """
    if x > col[-1]:
        return col + (x,)
    return _bump_column(x, col)


def insert_into_tableau(x: int, tab: Tableau) -> Tableau:
    """Contraction-free insertion: bump through columns left to right."""
    cols = list(tab)
    for i, col in enumerate(tab):
        if x > col[-1]:
            cols[i] = col + (x,)
            return tuple(cols)
        cols[i], x = _bump_column(x, col)
    cols.append((x,))
    return tuple(cols)


def insertion_tableau(w: Word) -> Tableau:
    """P(w): left-to-right fold of the insertion."""
    tab: Tableau = ()
    for x in w:
        tab = insert_into_tableau(x, tab)
    return tab


# ---------------------------------------------------------- reverse insertion

def outside_corners(tab: Tableau) -> list[int]:
    """Column indices whose bottom box has nothing below or to the right.

    Heights weakly decrease, so ascending index order is bottom-row-first.
    """
    out = []
    nxt = 0
    for j in range(len(tab) - 1, -1, -1):
        height = len(tab[j])
        if height > nxt:
            out.append(j)
        nxt = height
    out.reverse()
    return out


def reverse_insert(tab: Tableau, corner: int) -> tuple[int, Tableau]:
    """Undo an insertion whose new box landed on the given outside corner.

    Returns the unique (x, T) with insert_into_tableau(x, T) = tab and the
    shape of T equal to tab minus that corner box.
    """
    if not 0 <= corner < len(tab) or len(tab[corner]) <= (
        len(tab[corner + 1]) if corner + 1 < len(tab) else 0
    ):
        raise ValueError(f"column {corner} has no outside corner")
    y = tab[corner][-1]
    rest = tab[corner][:-1]
    cols = []
    # undo _bump_column in each column left of the corner, right to left; the
    # four cases undo those of _bump_two and are disjoint, so the plain bumps,
    # 83% of the steps on the rank-4 cyclage components, come first
    for col in reversed(tab[:corner]):
        x = col[0]
        out = []
        for d in col[1:]:
            if x < d <= y and y != -x:
                out.append(x)
                x = d
            elif x <= y < d and d != -x:
                out.append(y)
                y = d
            elif x == -y and y >= 2 and -(y - 1) <= d <= y - 1:
                out.append(1 - y)
                x, y = d, y - 1
            elif x == -d and d >= 1 and -(d + 1) < y < d + 1:
                out.append(y)
                x, y = -(d + 1), d + 1
            else:
                raise ValueError(f"no transformation produced (({x}, {d}), {y})")
        out.append(y)
        cols.append(tuple(out))
        y = x
    cols.reverse()
    if rest:
        cols.append(rest)
    return y, (*cols, *tab[corner + 1 :])


# ---------------------------------------------------------------- contraction

def contract_column(col: Column, n: int) -> Column:
    """Erase the (z, zbar) pair making a non-admissible column n-admissible.

    z is the maximal unbarred letter whose pair occurs in the column with
    card{t in column : |t| >= z} > n - z + 1.
    """
    if _rank_split(col, n) is not None:
        raise ValueError("column is already n-admissible")
    letters = set(col)
    for z in sorted((x for x in letters if x > 0 and -x in letters), reverse=True):
        if sum(1 for t in col if abs(t) >= z) > n - z + 1:
            out = tuple(t for t in col if t not in (z, -z))
            if out and _rank_split(out, n) is None:
                raise ValueError(f"contraction of {col} is not n-admissible")
            return out
    raise ValueError(f"no contractible pair in {col}")


# ---------------------------------------------------------------- enumeration

# a tableau's columns, right to left
_right_to_left = itemgetter(slice(None, None, -1))


def enumerate_tableaux(lam, mu: Weight, n: int) -> list[Tableau]:
    """All n-symplectic tableaux of shape lam whose reading has weight mu.

    Column-by-column backtracking over the rank-n column graph, on packed
    weights (``_pack``): the first column ranges over its whole table, each
    later one over the successors of the column left of it, and a column is
    taken only when the weight still to be placed lies in its weight box,
    which is one int test.  The last column is looked up by the weight left
    for it.  The result is sorted lexicographically by reading.  Raises
    ValueError if an entry of lam or mu is not an int, or if lam has more
    than ``_MAX_BOXES`` boxes, past which the packed fields could overflow.
    """
    check_rank(n)
    lam, mu = tuple(lam), tuple(mu)
    for w in (lam, mu):
        if not _int_entries(w):
            raise _non_int_weight(w)
    if not is_dominant(lam):
        raise ValueError(f"{lam} is not dominant")
    if len(mu) != n:
        raise ValueError(f"weight {mu} has {len(mu)} entries, not {n}")
    if sum(lam) > _MAX_BOXES:
        raise ValueError(f"{lam} has more than {_MAX_BOXES} boxes, too many for 16-bit weight fields")
    heights = conjugate_heights(lam)
    if not heights:
        return [()] if not any(mu) else []
    # a tableau's weight is a weight of the crystal B(lam), so the dominant
    # weight in its Weyl orbit, mu+ = |mu| sorted in decreasing order, has
    # lam - mu+ in the root cone.  Of the cuts that counting letters gives, as
    # each letter moves one weight entry by +-1, the test holds the parity
    # (sum(mu) = box count mod 2, its even total) and sum |mu| <= box count
    # (its last prefix sum), which bounds the packed fields
    mu_plus = sorted(map(abs, mu), reverse=True)
    if not in_positive_root_cone(
        tuple(a - b for a, b in itertools.zip_longest(lam, mu_plus, fillvalue=0))
    ):
        return []
    tables = [_column_table(n, h) for h in heights]
    last = tables[-1]
    if len(heights) == 1:
        return [(last.columns[k],) for k in last.by_weight.get(_pack(mu), ())]
    pre = len(heights) - 2
    # the successor lists and weight boxes of the columns before the last two,
    # the boxes shortest suffix first: each table is built from a cached one,
    # so the build recurses one level, not once per column
    succ = [_successors(n, h1, h2) for h1, h2 in zip(heights[:pre], heights[1:])]
    weight_boxes = []
    runs = ()
    for count, h in enumerate(reversed(heights), 1):
        if runs and runs[0][0] == h:
            runs = ((h, runs[0][1] + 1),) + runs[1:]
        else:
            runs = ((h, 1),) + runs
        if count > 2:
            weight_boxes.append(_weight_boxes(n, runs))
    weight_boxes.reverse()
    shift = _FIELD * n
    high = _high_bits(2 * n)
    index, last_left, last_columns = last.by_weight, last.left, last.columns
    results = []
    # depth first with an explicit stack, so a wide shape does not pass the
    # recursion limit: a node holds the columns placed so far, the candidates
    # for the next one and the packed weight still to place
    stack = [((), range(len(tables[0].columns)), _pack(mu))]
    while stack:
        placed, candidates, d = stack.pop()
        idx = len(placed)
        columns, packed = tables[idx].columns, tables[idx].packed
        if idx == pre:
            # the last column has the weight left after column j, and must
            # stand right of j: rC_j <= lC_k, the rule of ``_successors``
            right = tables[idx].right
            for j in candidates:
                for k in index.get(d - packed[j], ()):
                    if column_leq(right[j], last_left[k]):
                        results.append(placed + (columns[j], last_columns[k]))
            continue
        nxt, box = succ[idx], weight_boxes[idx]
        # d + (-d) over 2n fields, plus bit 15 of each: a field of span - box
        # keeps its bit 15 exactly when box <= d + (-d) there
        span = d - (d << shift) + high
        for j in candidates:
            b = box[j]
            if b is not None and (span - b) & high == high:
                stack.append((placed + (columns[j],), nxt[j], d - packed[j]))

    # the tableaux share one shape, so their readings compare as their columns
    # do, read right to left: one C-level key, not a reading per tableau
    results.sort(key=_right_to_left)
    return results
