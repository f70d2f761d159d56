"""Sparse integer polynomials in the formal variable q."""

from __future__ import annotations


class QPolynomial:
    """Polynomial in q with integer coefficients and nonnegative exponents.

    Stored sparsely as exponent -> coefficient in ascending exponent order,
    with no zero coefficient, so equal polynomials have equal dicts and reprs.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in sorted(dict(coeffs).items()):
                if e < 0:
                    raise ValueError(f"negative exponent {e}")
                if c:
                    clean[int(e)] = int(c)
        self._coeffs = clean

    @classmethod
    def _of(cls, clean: dict) -> "QPolynomial":
        """Wrap ``clean`` as it is, without copying or checking it.

        Only for a dict already in stored form, built so by its caller: int
        exponents >= 0 in ascending order, int coefficients, none of them zero.
        """
        p = object.__new__(cls)
        p._coeffs = clean
        return p

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls({0: 1})

    @classmethod
    def q_power(cls, k: int, coeff: int = 1) -> "QPolynomial":
        return cls({k: coeff})

    def coefficients(self) -> dict:
        return dict(self._coeffs)

    def to_record(self) -> dict[str, int]:
        """JSON-ready form: {"exponent": coefficient}, ascending exponents."""
        return {str(e): c for e, c in sorted(self._coeffs.items())}

    def coefficient(self, e: int) -> int:
        return self._coeffs.get(e, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_nonnegative(self) -> bool:
        return all(c >= 0 for c in self._coeffs.values())

    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return max(self._coeffs, default=-1)

    def __add__(self, other):
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return QPolynomial(out)

    def __sub__(self, other):
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) - c
        return QPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial({e: c * other for e, c in self._coeffs.items()})
        out = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return QPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QPolynomial":
        """Multiply by q^k."""
        return QPolynomial({e + k: c for e, c in self._coeffs.items()})

    def __call__(self, value):
        """Evaluate at q = value."""
        return sum(c * value**e for e, c in self._coeffs.items())

    def __eq__(self, other):
        return isinstance(other, QPolynomial) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"QPolynomial({self._coeffs!r})"

    def __str__(self):
        return format_poly(self)


def _term(e: int, c: int) -> str:
    mag = abs(c)
    if e == 0:
        return str(mag)
    base = "q" if e == 1 else f"q^{e}"
    return base if mag == 1 else f"{mag}*{base}"


def format_poly(p: QPolynomial) -> str:
    """Render with ascending exponents, e.g. ``q^2 + 2*q^4 + q^8``."""
    if p.is_zero():
        return "0"
    parts = []
    for e in sorted(p.coefficients()):
        c = p.coefficient(e)
        if not parts:
            parts.append(("-" if c < 0 else "") + _term(e, c))
        else:
            parts.append(("- " if c < 0 else "+ ") + _term(e, c))
    return " ".join(parts)


def parse_poly(text: str) -> QPolynomial:
    """Inverse of :func:`format_poly`."""
    text = text.strip()
    if text == "0":
        return QPolynomial.zero()
    coeffs = {}
    # normalize "a - b" to "a + -b" so we can split on '+'
    norm = text.replace("- ", "+ -").replace(" -", " + -")
    for chunk in norm.split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:].strip()
        if "*" in chunk:
            cs, qs = chunk.split("*")
            coeff = int(cs)
        elif chunk.startswith("q"):
            coeff, qs = 1, chunk
        else:
            coeff, qs = int(chunk), ""
        if qs == "":
            exp = 0
        elif qs == "q":
            exp = 1
        else:
            if not qs.startswith("q^"):
                raise ValueError(f"bad term {chunk!r}")
            exp = int(qs[2:])
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
    return QPolynomial(coeffs)
