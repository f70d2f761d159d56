"""q-analogue of Kostant's partition function and the definitional Kostka sum."""

from __future__ import annotations

import functools
from itertools import accumulate
from operator import add, sub

from .algebra import (
    Weight,
    _int_entries,
    _non_int_weight,
    check_weight,
    in_positive_root_cone,
    rho,
)
from .qpoly import QPolynomial

# Entries the state memo may hold, all ranks together, before it is emptied
# wholesale.  At rank 6 one Weyl sum such as K_{(2,2,2,2,2,0),0} fills about
# 24k entries of about 430 bytes each (key, packed value pair and memo slot,
# read with tracemalloc), so the cap leaves room for a sweep and bounds the
# memo near 85 MB.
_MEMO_CAP = 200_000

# Bits per coefficient slot of a packed q-polynomial.  Inside the DP, the
# Weyl sum and the Morris recurrence a polynomial sum_e c_e q^e is the one
# int sum_e c_e 2^(_W e), its value at q = 2^_W (Kronecker substitution), so
# a sum of polynomials is a sum of ints and a product by q^s is a shift by
# _W s bits.  That arithmetic is exact: evaluation at 2^_W is a ring
# homomorphism.  Only reading the coefficients back can go wrong, when one
# of them does not fit its slot, so _unpack checks a bound first:
# - nonnegative coefficients with value c at q = 1 are each at most c, and
#   decode exactly when c < 2^_W (the DP and the recurrence);
# - a signed sum of such polynomials has every |coefficient| at most the sum
#   of their values at q = 1, and decodes exactly as balanced digits in
#   [-2^(_W-1), 2^(_W-1)) when that sum is below 2^(_W-1) (the Weyl sum).
# Past the bound _unpack raises OverflowError instead.  Over every pair of
# n = 8, max weight 4 the largest DP coefficient is 20 bits, the largest DP
# value at q = 1 is 22 bits and the largest Weyl-sum bound is 27 bits.
_W = 64


class PositivityError(RuntimeError):
    """A Kostka polynomial came out with a negative coefficient."""


@functools.cache
def _pair_steps(n: int) -> tuple[tuple[int, int, bool], ...]:
    """(p, j, whether j is the last pair of p) for each rank-n pair step, in order."""
    return tuple((p, j, j == n - 1) for p in range(n) for j in range(p + 1, n))


def _unpack(packed: int, bound: int, signed: bool, name: str, *inputs) -> dict[int, int]:
    """The coefficients of a packed q-polynomial, as exponent -> coefficient,
    in the stored form of ``QPolynomial``: ascending exponents, no zero.

    ``bound`` is the q = 1 value of a nonnegative polynomial, or, if
    ``signed``, the bound on every |coefficient| of a signed one; past what
    the slots hold exactly, raise OverflowError naming ``name(*inputs)``.
    """
    top = 1 << _W
    half = top >> 1 if signed else top
    if bound >= half:
        called = f"{name}({','.join(map(str, inputs))})"
        raise OverflowError(f"{called}: coefficients up to {bound} overflow {_W}-bit slots")
    mask = top - 1
    out = {}
    e = 0
    while packed:
        c = packed & mask
        packed >>= _W
        if c >= half:
            # a negative digit: the slot above lent it 2^_W
            c -= top
            packed += 1
        if c:
            out[e] = c
        e += 1
    return out


# The state memo of every rank, (idx, remaining) -> _count's value.  A key's
# rank is len(remaining), so one memo serves every rank and _MEMO_CAP bounds
# all ranks together.
_memo: dict[tuple[int, Weight], tuple[int, int]] = {}


def _count(idx: int, remaining: Weight) -> tuple[int, int]:
    """The ways to write ``remaining`` as a sum of the pair roots of
    ``steps[idx:]``, their 2e_p and the roots of the later leading positions,
    with one q per root used, as (packed polynomial, number of ways); ``steps``
    is ``_pair_steps(len(remaining))``.

    The positive roots with leading position p are e_p - e_j and e_p + e_j for
    j > p, and 2e_p.  The DP takes the pairs (p, j) in order, and the last pair
    of p also closes p with 2e_p.  A pair used s times in all adds s to
    coordinate p and d in {-s, -s+2, ..., s} to coordinate j, one way each,
    weighted q^s.  After the last pair of p, what is left of coordinate p must
    be even, and 2e_p takes it all: one way, no loop.

    With (p, j) the pair of ``steps[idx]`` and R_k the sum of coordinates
    p+1..k, a state ``(idx, remaining)`` has coordinates before p zero, lies
    in the root cone, and has R_k >= 0 for p < k < j, since the pairs that
    could still move coordinates p+1..j-1 are spent.  The bounds on s and d
    keep every child in that set, and every state in it can be completed
    (take s = x, d = -x at each step), so no state that counts to zero is
    built.
    """
    key = (idx, remaining)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    steps = _pair_steps(len(remaining))
    if idx == len(steps):
        # only 2e_(n-1) is left: every coordinate but the last is zero,
        # and the cone makes the last one even
        return 1 << (_W * (sum(remaining) // 2)), 1
    p, j, closing = steps[idx]
    x = remaining[p]
    # R_j, and the least of R_j and every R_k after it
    r_j = sum(remaining[p + 1 : j + 1])
    r_min = min(accumulate(remaining[j + 1 :], initial=r_j))
    child = list(remaining)
    out = ways = 0
    # on the last pair of p, 2e_p takes the x - s left, (x - s) / 2 times,
    # so s has the parity of x and the weight is q^(s + (x - s) / 2)
    for s in range(x % 2, x + 1, 2) if closing else range(x + 1):
        child[p] = 0 if closing else x - s
        acc = 0
        # d <= R_j keeps R_j >= 0 for when p is spent; d <= x - s + R_k
        # keeps the child's prefix sums after j nonnegative
        for d in range(-s, min(s, r_j, x - s + r_min) + 1, 2):
            child[j] = remaining[j] - d
            v, c = _count(idx + 1, tuple(child))
            acc += v
            ways += c
        out += acc << (_W * ((x + s) // 2 if closing else s))
    if len(_memo) >= _MEMO_CAP:
        _memo.clear()
    value = _memo[key] = (out, ways)
    return value


def q_kostant(beta: Weight) -> QPolynomial:
    """Number of ways to write beta as a sum of exactly k positive roots, as q^k.

    Bounded dynamic programming over the pairs of roots e_p - e_j, e_p + e_j
    and the closing 2e_p steps in leading-position order, with one memo
    shared by every beta of every rank.  Raises ValueError if an entry of
    beta is not an int, and OverflowError if the number of ways reaches 2^64,
    past what the DP's packed values read back exactly.
    """
    beta = tuple(beta)
    if not _int_entries(beta):
        raise _non_int_weight(beta)
    if not in_positive_root_cone(beta):
        return QPolynomial.zero()
    return QPolynomial._of(_unpack(*_count(0, beta), False, "q_kostant", beta))


def _weyl_terms(lam_rho: Weight, mu_rho: Weight) -> list[tuple[int, Weight]]:
    """The (sign, beta) for each w with beta = w(lam_rho) - mu_rho in the root
    cone, as a list: j ascending at each coordinate, + before - for each j.

    Builds w(lam_rho) one coordinate at a time, each coordinate +-lam_rho[j]
    for an unused j, and cuts a branch as soon as a prefix sum of beta goes
    negative.  lam_rho is strictly decreasing and positive, so each signed
    permutation gives a distinct vector, and its sign (-1)^l(w) is the parity
    of inversions plus sign flips, as in ``straighten`` of
    ``tests/weyl_reference.py``.  Picking j at coordinate i adds the used
    indices above j, i less the ones met below j in the loop, to the
    inversions.  The + value exceeds the - value, and every later j has a
    smaller one, so a failed + test ends the loop.  The last coordinate has
    one j left and is settled in place: its two values differ by
    2 lam_rho[j], so one test decides the parity of both.
    """
    n = len(lam_rho)
    last = n - 1
    used = [False] * n
    beta = [0] * n
    terms = []

    def rec(i: int, prefix: int, parity: int) -> None:
        target = mu_rho[i]
        if i == last:
            j = used.index(False)
            value = lam_rho[j]
            b = value - target
            if prefix + b < 0 or (prefix + b) % 2:
                return
            # the last - j used indices above j are inversions
            parity = (parity + last - j) % 2
            beta[i] = b
            terms.append((-1 if parity else 1, tuple(beta)))
            b = -value - target
            if prefix + b >= 0:
                beta[i] = b
                terms.append((1 if parity else -1, tuple(beta)))
            return
        below = 0
        for j in range(n):
            if used[j]:
                below += 1
                continue
            value = lam_rho[j]
            b = value - target
            if prefix + b < 0:
                break
            used[j] = True
            parity_j = parity + i - below
            beta[i] = b
            rec(i + 1, prefix + b, parity_j)
            b = -value - target
            if prefix + b >= 0:
                beta[i] = b
                rec(i + 1, prefix + b, parity_j + 1)
            used[j] = False

    rec(0, 0, 0)
    return terms


def kostka_def(lam: Weight, mu: Weight) -> QPolynomial:
    """Alternating Weyl-group sum over the q-Kostant partition function.

    Both arguments must be dominant weights of the same rank, at least 1.
    Only the Weyl terms whose beta lies in the positive root cone are visited;
    the rest are zero, and when lam - mu is outside the cone so is every beta,
    so no term is visited.  The result is checked for nonnegative coefficients;
    a violation signals a bug, not a property of the inputs.  Raises
    OverflowError if the terms' q-Kostant values together reach 2^63, past
    what the packed sum reads back exactly.
    """
    n = len(lam)
    lam, mu = check_weight(lam, n), check_weight(mu, n)
    # Every term is zero unless lam - mu is in the root cone.  A term's beta,
    # w(lam+rho) - (mu+rho), is (lam - mu) - ((lam+rho) - w(lam+rho)), and the
    # second part is in the cone: its k-th prefix sum is the k largest entries
    # of lam+rho (all positive) less k distinct ones of them, each with a
    # sign, so it is nonnegative, and its total is twice the sum of the
    # entries w negates, so even.  The cone is closed under sums, so a beta
    # in the cone puts lam - mu = beta + ((lam+rho) - w(lam+rho)) in it too.
    if not in_positive_root_cone(tuple(map(sub, lam, mu))):
        return QPolynomial.zero()
    rhov = rho(n)
    lam_rho = tuple(map(add, lam, rhov))
    mu_rho = tuple(map(add, mu, rhov))
    # each beta is in the root cone; bound sums the terms' values at q = 1,
    # which bounds every |coefficient| of the signed sum
    total = bound = 0
    for sign, beta in _weyl_terms(lam_rho, mu_rho):
        v, c = _count(0, beta)
        total += sign * v
        bound += c
    coeffs = _unpack(total, bound, True, "K_", lam, mu)
    result = QPolynomial._of(coeffs)
    if min(coeffs.values(), default=0) < 0:
        raise PositivityError(f"negative coefficient in K_({lam},{mu}): {result!r}")
    return result
