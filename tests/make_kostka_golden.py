"""Remake data/kostka_golden.txt, the golden table of the definitional oracle.

    python3 tests/make_kostka_golden.py

For every rank n = 1..4 and every pair (lam, mu) of dominant weights with
|lam|, |mu| <= 8, in lexicographic order, the file has one line per nonzero
K_{lam,mu}(q) = kostka_def(lam, mu):

    <n> <lam> <mu> <e>:<c> <e>:<c> ...

with the parts of a weight joined by commas and the terms in ascending
exponent.  The weights come from a filter over itertools.product here, not
from the package.  Making the file takes a few seconds.
"""

from __future__ import annotations

import itertools
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "data" / "kostka_golden.txt"
MAX_RANK, MAX_WEIGHT = 4, 8

sys.path.insert(0, str(HERE.parent / "src"))

from symplectic_kf import kostka_def  # noqa: E402


def dominant_weights(n: int, max_weight: int):
    return [
        v
        for v in itertools.product(range(max_weight + 1), repeat=n)
        if sum(v) <= max_weight and all(v[i] >= v[i + 1] for i in range(n - 1))
    ]


def weight_text(v) -> str:
    return ",".join(map(str, v))


def golden_lines():
    yield "# nonzero kostka_def(lam, mu) for dominant lam, mu of rank n <= 4 and size <= 8;"
    yield "# remake with: python3 tests/make_kostka_golden.py"
    for n in range(1, MAX_RANK + 1):
        weights = dominant_weights(n, MAX_WEIGHT)
        for lam in weights:
            for mu in weights:
                coeffs = kostka_def(lam, mu).coefficients()
                if coeffs:
                    terms = " ".join(f"{e}:{coeffs[e]}" for e in sorted(coeffs))
                    yield f"{n} {weight_text(lam)} {weight_text(mu)} {terms}"


def main() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(line + "\n" for line in golden_lines()))


if __name__ == "__main__":
    main()
