import pytest

from symplectic_kf.qpoly import QPolynomial, format_poly, parse_poly


def test_zero_coefficients_dropped():
    p = QPolynomial({2: 1, 3: 0})
    assert p.coefficients() == {2: 1}
    assert QPolynomial({0: 0}).is_zero()


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        QPolynomial({-1: 2})
    with pytest.raises(ValueError):
        QPolynomial({0: 1, 2: 3}).shift(-1)


def test_arithmetic():
    p = QPolynomial({0: 1, 2: 3})
    q = QPolynomial({2: -3, 1: 2})
    assert (p + q).coefficients() == {0: 1, 1: 2}
    assert (p - p).is_zero()
    assert (p * QPolynomial.q_power(2)).coefficients() == {2: 1, 4: 3}
    assert (2 * p).coefficients() == {0: 2, 2: 6}
    assert p.shift(1).coefficients() == {1: 1, 3: 3}


def test_evaluate():
    p = QPolynomial({1: 1, 3: 2})
    assert p(1) == 3
    assert p(2) == 2 + 16
    assert QPolynomial.zero()(5) == 0


def test_equality_is_coefficientwise():
    assert QPolynomial({1: 1}) == QPolynomial({1: 1, 5: 0})
    assert QPolynomial({1: 1}) != QPolynomial({1: 2})


def test_equal_polynomials_have_equal_reprs():
    # stored in ascending exponent order, however they were built
    one_plus_q2 = [
        QPolynomial({0: 1, 2: 1}),
        QPolynomial({2: 1, 0: 1}),
        QPolynomial({2: 1, 1: 0, 0: 1}),
        QPolynomial({2: 1}) + QPolynomial({0: 1}),
        QPolynomial({3: 1, 2: 1}) - QPolynomial({3: 1, 0: -1}),
        QPolynomial({2: 1, 0: 1}) * QPolynomial.one(),
        QPolynomial({1: 1, 0: 1}) * QPolynomial({1: -1, 0: 1}) + 2 * QPolynomial({2: 1}),
        QPolynomial({0: 1, 2: 1}).shift(0),
    ]
    assert all(p == one_plus_q2[0] for p in one_plus_q2)
    assert {repr(p) for p in one_plus_q2} == {"QPolynomial({0: 1, 2: 1})"}
    assert repr(QPolynomial({5: 1, 3: 2}).shift(1)) == "QPolynomial({4: 2, 6: 1})"


@pytest.mark.parametrize(
    "coeffs,text",
    [
        ({}, "0"),
        ({0: 1}, "1"),
        ({0: 5}, "5"),
        ({1: 1}, "q"),
        ({1: 2}, "2*q"),
        ({2: 1, 4: 2, 6: 2, 8: 1}, "q^2 + 2*q^4 + 2*q^6 + q^8"),
        ({0: 1, 1: -1}, "1 - q"),
        ({2: -3}, "-3*q^2"),
    ],
)
def test_format(coeffs, text):
    assert format_poly(QPolynomial(coeffs)) == text


@pytest.mark.parametrize(
    "coeffs",
    [{}, {0: 1}, {1: 1}, {2: 1, 4: 2}, {0: 3, 1: -2, 7: 5}, {1: -1}],
)
def test_parse_round_trip(coeffs):
    p = QPolynomial(coeffs)
    assert parse_poly(format_poly(p)) == p
