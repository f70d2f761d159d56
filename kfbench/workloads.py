"""The four workloads: which items each one holds, made from the seed.

An item is ``(item_id, args)``.  ``item_id`` is the item's place in the
canonical (unshuffled) order, so checks and spans can name it whatever order
the seed puts the items in.  Nothing here imports the package under test.
"""

from __future__ import annotations

import random
from pathlib import Path

CYCLAGE_DATA = Path(__file__).resolve().parent / "data" / "cyclage_n4.txt"

WORKLOADS = ("sweep-n3", "oracle-n5", "morris-n4", "cyclage-n4")

# Full size and the shrunken size the self-test uses.
SIZES = {
    "sweep-n3": {"full": 8, "small": 3},  # max |weight|
    "oracle-n5": {"full": 4, "small": 2},  # max |weight|
    "morris-n4": {"full": 12, "small": 5},  # |nu|
    "cyclage-n4": {"full": None, "small": 12},  # number of components
}


def dominant_weights(n: int, max_size: int, exact: bool = False) -> list[tuple[int, ...]]:
    """Dominant rank-n weights (weakly decreasing, nonnegative) of size <= max_size."""
    out = []

    def rec(prefix, cap, left):
        if len(prefix) == n:
            if not exact or left == 0:
                out.append(tuple(prefix))
            return
        for x in range(min(cap, left), -1, -1):
            rec(prefix + [x], x, left - x)

    rec([], max_size, max_size)
    return sorted(out)


def in_cone(beta) -> bool:
    """beta lies in the monoid of C_n positive roots: prefix sums >= 0, total even."""
    s = 0
    for b in beta:
        s += b
        if s < 0:
            return False
    return s % 2 == 0


def _pairs(n: int, max_size: int):
    ws = dominant_weights(n, max_size)
    return [(lam, mu) for lam in ws for mu in ws]


def _morris_pairs(size: int):
    n = 4
    out = []
    for nu in dominant_weights(n, size, exact=True):
        for mu in dominant_weights(n, size):
            if mu[0] >= nu[1] and in_cone(tuple(a - b for a, b in zip(nu, mu))):
                out.append((nu, mu))
    return out


def parse_tableau(text: str):
    return tuple(tuple(int(x) for x in col.split(",")) for col in text.split(";"))


def load_cyclage_data(path: Path = CYCLAGE_DATA):
    """Components as (vertex count, vertex digest, [(seed tableau text, charge), ...])."""
    comps = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            count, digest, *cands = line.split()
            seeds = []
            for c in cands:
                text, charge = c.split("=")
                seeds.append((text, int(charge)))
            comps.append((int(count), digest, seeds))
    return comps


def make_items(workload: str, seed: int, small: bool = False) -> list:
    """The workload's items in the order the seed gives them."""
    size = SIZES[workload]["small" if small else "full"]
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-n3":
        args = _pairs(3, size)
    elif workload == "oracle-n5":
        args = _pairs(5, size)
    elif workload == "morris-n4":
        args = _morris_pairs(size)
    elif workload == "cyclage-n4":
        comps = load_cyclage_data()
        if size is not None:
            comps = comps[:size]
        # the seed picks one tableau of each component to start from
        args = [(parse_tableau(rng.choice(seeds)[0]),) for _, _, seeds in comps]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    items = list(enumerate(args))
    rng.shuffle(items)
    return items
