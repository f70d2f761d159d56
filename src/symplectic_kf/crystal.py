"""Words as crystal vertices: weight, raising/lowering operators, Weyl action.

A letter is a nonzero integer; -k encodes the barred letter.  The integer
order realizes nbar < ... < 1bar < 1 < ... < n.  Words are tuples of letters.
"""

from __future__ import annotations

from collections.abc import Iterable

from .algebra import Weight

Word = tuple[int, ...]


def weight_counts(letters: Iterable[int]) -> dict[int, int]:
    """The nonzero d_kbar (barred count minus unbarred count of k), keyed by k.

    Rank-free: charge chains carry letters above the rank they started at.
    """
    d: dict[int, int] = {}
    for x in letters:
        k = abs(x)
        d[k] = d.get(k, 0) + (1 if x < 0 else -1)
    return {k: v for k, v in d.items() if v}


def word_weight(w: Word, n: int) -> Weight:
    """(d_nbar, ..., d_1bar): barred count minus unbarred count per value."""
    for x in w:
        if not 1 <= abs(x) <= n:
            raise ValueError(f"letter {x} outside rank-{n} alphabet")
    d = weight_counts(w)
    return tuple(d.get(k, 0) for k in range(n, 0, -1))


def _signed_positions(w: Word, i: int) -> tuple[list[int], list[int]]:
    """Reduced signature of color i as (positions of '-'^r, positions of '+'^s).

    Color i >= 1 encodes (i+1)bar and i as '+', ibar and i+1 as '-'; color 0
    encodes 1bar as '+' and 1 as '-' (each letter carries at most one 0-arrow).
    A single stack pass cancels the +- factors.  A negative color is an error.
    """
    if i < 0:
        raise ValueError(f"color must be at least 0, got {i}")
    if i == 0:
        plus, minus = (-1,), (1,)
    else:
        plus, minus = (-(i + 1), i), (-i, i + 1)
    stack: list[int] = []
    minuses: list[int] = []
    for p, x in enumerate(w):
        if x in plus:
            stack.append(p)
        elif x in minus:
            if stack:
                stack.pop()
            else:
                minuses.append(p)
    return minuses, stack


def _to_plus(x: int, i: int) -> int:
    # '-' -> '+': i+1 -> i, ibar -> (i+1)bar; color 0: 1 -> 1bar
    if i == 0:
        return -1
    return i if x == i + 1 else -(i + 1)


def _to_minus(x: int, i: int) -> int:
    # '+' -> '-': i -> i+1, (i+1)bar -> ibar; color 0: 1bar -> 1
    if i == 0:
        return 1
    return i + 1 if x == i else -i


def string_lengths(w: Word, i: int) -> tuple[int, int]:
    """(epsilon, phi) = maximal numbers of raising resp. lowering steps."""
    minuses, pluses = _signed_positions(w, i)
    return len(minuses), len(pluses)


def crystal_raise(w: Word, i: int) -> Word | None:
    """Apply the raising operator of color i; None when it annihilates w."""
    minuses, _ = _signed_positions(w, i)
    if not minuses:
        return None
    p = minuses[-1]
    return w[:p] + (_to_plus(w[p], i),) + w[p + 1 :]


def crystal_lower(w: Word, i: int) -> Word | None:
    """Apply the lowering operator of color i; None when it annihilates w."""
    _, pluses = _signed_positions(w, i)
    if not pluses:
        return None
    p = pluses[0]
    return w[:p] + (_to_minus(w[p], i),) + w[p + 1 :]


def weyl_reflect(w: Word, i: int) -> Word:
    """Generator s_i on words: flip the exceeding symbols of the signature.

    Changes the r-s rightmost '-' into '+' when r >= s, otherwise the s-r
    leftmost '+' into '-'; an involution on each i-string.
    """
    minuses, pluses = _signed_positions(w, i)
    r, s = len(minuses), len(pluses)
    out = list(w)
    if r >= s:
        for p in minuses[len(minuses) - (r - s) :]:
            out[p] = _to_plus(out[p], i)
    else:
        for p in pluses[: s - r]:
            out[p] = _to_minus(out[p], i)
    return tuple(out)


def is_highest(w: Word, n: int) -> bool:
    """True iff every raising operator of color 0..n-1 annihilates w."""
    word_weight(w, n)  # raises for a letter outside the rank-n alphabet
    return all(crystal_raise(w, i) is None for i in range(n))
