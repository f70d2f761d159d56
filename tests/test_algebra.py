import itertools
import math
import random

import pytest

from symplectic_kf.algebra import act, is_dominant, rho
from weyl_reference import compose, dot_act, generators, identity, straighten, weyl_group


def test_rho():
    assert rho(3) == (3, 2, 1)
    assert rho(1) == (1,)


@pytest.mark.parametrize("n,order", [(1, 2), (2, 8), (3, 48)])
def test_group_order(n, order):
    elements = list(weyl_group(n))
    assert len(elements) == order == 2**n * math.factorial(n)
    assert len({s for s, _ in elements}) == order


def test_lengths():
    lengths = sorted(l for _, l in weyl_group(1))
    assert lengths == [0, 1]
    assert max(l for _, l in weyl_group(2)) == 4
    # longest element of the rank-2 group is -id
    longest = [s for s, l in weyl_group(2) if l == 4]
    assert longest == [(-1, -2)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signs_cancel(n):
    assert sum((-1) ** l for _, l in weyl_group(n)) == 0


def test_act_examples():
    s0, = [s for s, l in weyl_group(1) if l == 1]
    assert act(s0, (3,)) == (-3,)
    s1 = generators(2)[1]
    assert act(s1, (5, 7)) == (7, 5)
    assert act(identity(2), (5, 7)) == (5, 7)


def test_act_rank_mismatch():
    with pytest.raises(ValueError):
        act(identity(2), (1, 2, 3))
    with pytest.raises(ValueError):
        dot_act(identity(3), (1, 2))


def test_act_is_homomorphism():
    rng = random.Random(0)
    n = 3
    group = [s for s, _ in weyl_group(n)]
    for _ in range(50):
        s, t = rng.choice(group), rng.choice(group)
        beta = tuple(rng.randint(-4, 4) for _ in range(n))
        assert act(compose(s, t), beta) == act(s, act(t, beta))


def test_length_subadditive_under_generator():
    lengths = dict(weyl_group(2))
    for g in generators(2):
        for s, l in weyl_group(2):
            assert abs(lengths[compose(s, g)] - l) == 1


def test_dot_act_examples():
    assert dot_act(identity(3), (4, 0, -1)) == (4, 0, -1)
    s1 = generators(3)[1]  # swaps the last two coordinates
    assert dot_act(s1, (1, 1, 0)) == (1, -1, 2)
    # the sign flip fixes any weight whose last coordinate of beta+rho is zero
    s0 = generators(3)[0]
    assert dot_act(s0, (2, 1, -1)) == (2, 1, -1)


def test_straighten_examples():
    assert straighten((0, 2, 0)) == (-1, (1, 1, 0))
    assert straighten((3, 1, 0)) == (1, (3, 1, 0))
    assert straighten((0, 1)) is None  # beta + rho = (2, 2)
    assert straighten((-2,)) == (-1, (0,))  # beta + rho = (-1,), one flip
    assert straighten((-1,)) is None  # beta + rho = (0,)


def test_straighten_dot_orbit():
    # straighten recovers (sign, lam) from any dot-translate of a dominant lam
    import itertools

    for n in (1, 2, 3):
        for lam in itertools.product(range(5), repeat=n):
            if sum(lam) > 4 or not is_dominant(lam):
                continue
            for sigma, l in weyl_group(n):
                got = straighten(dot_act(sigma, lam))
                assert got == ((-1) ** l, lam), (n, lam, sigma)


def test_is_dominant():
    assert is_dominant((3, 1, 0))
    assert is_dominant(())
    assert not is_dominant((1, 2))
    assert not is_dominant((1, -1))


def test_is_dominant_matches_its_definition():
    # weakly decreasing, and a nonnegative last entry when there is one
    def defined(beta):
        return all(beta[i] >= beta[i + 1] for i in range(len(beta) - 1)) and (
            not beta or beta[-1] >= 0
        )

    for length in range(5):
        for beta in itertools.product(range(-2, 4), repeat=length):
            assert is_dominant(beta) == defined(beta), beta
