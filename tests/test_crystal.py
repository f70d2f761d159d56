import random

import pytest

from symplectic_kf.algebra import act
from symplectic_kf.crystal import (
    crystal_lower,
    crystal_raise,
    is_highest,
    string_lengths,
    weyl_reflect,
    word_weight,
)
from weyl_reference import generators


def alphabet(n):
    return [x for x in range(-n, n + 1) if x]


def random_word(rng, n, max_len):
    return tuple(rng.choice(alphabet(n)) for _ in range(rng.randint(0, max_len)))


def test_word_weight_fixtures():
    assert word_weight((-1, -1, 1, 1), 1) == (0,)
    assert word_weight((-3, -3, -2, -1, 1), 3) == (2, 1, 0)
    assert word_weight((), 3) == (0, 0, 0)


def test_word_weight_range_check():
    with pytest.raises(ValueError):
        word_weight((4,), 3)


def test_vector_chain():
    # single letters form one chain: nbar -> ... -> 1bar -> 1 -> ... -> n
    n = 4
    expected = [(-k,) for k in range(n, 0, -1)] + [(k,) for k in range(1, n + 1)]
    colors = list(range(n - 1, 0, -1)) + [0] + list(range(1, n))
    cur = (-n,)
    seen = [cur]
    for c in colors:
        cur = crystal_lower(cur, c)
        seen.append(cur)
    assert seen == expected
    assert crystal_lower((n,), n - 1) is None
    assert all(crystal_raise((-n,), i) is None for i in range(n))


def test_raise_lower_fixtures():
    assert crystal_lower((-1,), 0) == (1,)
    assert crystal_lower((-2, -1), 1) is None  # symbols cancel
    assert crystal_raise((1,), 0) == (-1,)


def test_string_lengths_fixtures():
    assert string_lengths((-1,), 0) == (0, 1)
    assert string_lengths((-2, -1), 1) == (0, 0)
    w = (-3, -3, -2, -1, 1)
    assert all(string_lengths(w, i)[0] == 0 for i in range(3))


@pytest.mark.parametrize(
    "call",
    [
        lambda: crystal_raise((1,), -1),
        lambda: crystal_lower((-1,), -1),
        lambda: string_lengths((1, -1), -1),
        lambda: weyl_reflect((1,), -2),
    ],
    ids=["crystal_raise", "crystal_lower", "string_lengths", "weyl_reflect"],
)
def test_negative_color_is_rejected(call):
    # color -1 would read as the letter pair (0, -1) and write the letter 0
    with pytest.raises(ValueError, match="color"):
        call()


def test_raise_lower_inverse():
    rng = random.Random(1)
    for _ in range(300):
        n = rng.randint(1, 3)
        w = random_word(rng, n, 5)
        for i in range(n):
            down = crystal_lower(w, i)
            if down is not None:
                assert crystal_raise(down, i) == w
            up = crystal_raise(w, i)
            if up is not None:
                assert crystal_lower(up, i) == w


def simple_root(i, n):
    alpha = [0] * n
    if i == 0:
        alpha[n - 1] = 2
    else:
        alpha[n - i - 1] = 1
        alpha[n - i] = -1
    return tuple(alpha)


def test_lowering_subtracts_simple_root():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 3)
        w = random_word(rng, n, 5)
        for i in range(n):
            down = crystal_lower(w, i)
            if down is None:
                continue
            alpha = simple_root(i, n)
            assert word_weight(down, n) == tuple(
                a - b for a, b in zip(word_weight(w, n), alpha)
            )


def test_weyl_reflect_fixtures():
    assert weyl_reflect((-1,), 0) == (1,)
    assert weyl_reflect((-2,), 1) == (-1,)
    w = (-2, 2)
    assert weyl_reflect(w, 1) == w  # epsilon = phi


def test_weyl_reflect_involution_and_weight():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(1, 3)
        w = random_word(rng, n, 5)
        for i in range(n):
            r = weyl_reflect(w, i)
            assert weyl_reflect(r, i) == w
            s_i = generators(n)[i]
            assert word_weight(r, n) == act(s_i, word_weight(w, n))


# --- reference implementation of the two-factor tensor rule -----------------


def tensor_eps_phi(u, v, i):
    eu, pu = string_lengths(u, i)
    ev, pv = string_lengths(v, i)
    eps = eu + max(0, ev - pu)
    phi = pv + max(0, pu - ev)
    return eps, phi


def tensor_lower(u, v, i):
    _, pu = string_lengths(u, i)
    ev, _ = string_lengths(v, i)
    if pu > ev:
        fu = crystal_lower(u, i)
        return None if fu is None else fu + v
    fv = crystal_lower(v, i)
    return None if fv is None else u + fv


def tensor_raise(u, v, i):
    _, pu = string_lengths(u, i)
    ev, _ = string_lengths(v, i)
    if pu < ev:
        rv = crystal_raise(v, i)
        return None if rv is None else u + rv
    ru = crystal_raise(u, i)
    return None if ru is None else ru + v


def test_signature_rule_matches_tensor_rule():
    rng = random.Random(4)
    for _ in range(400):
        n = rng.randint(1, 3)
        w = random_word(rng, n, 6)
        if not w:
            continue
        cut = rng.randint(0, len(w))
        u, v = w[:cut], w[cut:]
        for i in range(n):
            eps, phi = tensor_eps_phi(u, v, i)
            assert (eps, phi) == string_lengths(w, i), (w, cut, i)
            assert tensor_lower(u, v, i) == crystal_lower(w, i)
            assert tensor_raise(u, v, i) == crystal_raise(w, i)


def test_is_highest_fixtures():
    assert is_highest((-3,), 3)
    assert not is_highest((1,), 1)
    assert is_highest((-3, -3, -2, -1, 1), 3)


@pytest.mark.parametrize("call", [word_weight, is_highest])
@pytest.mark.parametrize("w", [(4,), (1, -4), (0,)])
def test_letters_outside_the_alphabet_are_rejected(call, w):
    with pytest.raises(ValueError, match="outside rank-3 alphabet"):
        call(w, 3)


def test_highest_weight_splits_across_concatenation():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randint(1, 2)
        w = random_word(rng, n, 6)
        cut = rng.randint(0, len(w)) if w else 0
        u, v = w[:cut], w[cut:]
        lhs = is_highest(w, n)
        rhs = is_highest(u, n) and all(
            string_lengths(v, i)[0] <= string_lengths(u, i)[1] for i in range(n)
        )
        assert lhs == rhs, (u, v)
