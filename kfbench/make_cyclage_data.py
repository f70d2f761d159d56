"""Remake data/cyclage_n4.txt, the components the cyclage-n4 workload starts from.

    python3 kfbench/make_cyclage_data.py

The tableaux are the rank-4 symplectic tableaux with 8 boxes and dominant
weight: ``enumerate_tableaux(lam, mu, 4)`` over every partition lam of 8 with
at most 4 parts and every dominant mu.  They fall into cyclage components;
each line of the file describes one, in order of first appearance:

    <vertex count> <digest of the vertex set> <tableau>=<charge> ...

The listed tableaux are the enumerated ones that lie in the component, with
the charge the program gave them when the file was made.  A run picks its
seed tableau among them, and checks the component it gets against the count
and the digest (a sha256 prefix of the sorted vertex texts), and the charge
against the listed value.  Making the file takes about 20 s.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from symplectic_kf import charge, component, enumerate_tableaux, format_tableau  # noqa: E402

from workloads import CYCLAGE_DATA, dominant_weights  # noqa: E402

N, BOXES = 4, 8


def vertex_digest(texts) -> str:
    return hashlib.sha256("\n".join(sorted(texts)).encode()).hexdigest()[:16]


def main() -> None:
    tableaux = []
    for lam in dominant_weights(N, BOXES, exact=True):
        for mu in dominant_weights(N, BOXES):
            tableaux.extend(enumerate_tableaux(lam, mu, N))
    owner: dict = {}
    comps = []
    for tab in tableaux:
        if tab in owner:
            continue
        graph = component(tab)
        for v in graph.vertices:
            owner[v] = len(comps)
        comps.append((graph, []))
    for tab in tableaux:
        comps[owner[tab]][1].append(tab)
    lines = [
        "# cyclage components of the rank-4 tableaux with 8 boxes and dominant weight;",
        "# remake with: python3 kfbench/make_cyclage_data.py",
    ]
    for graph, seeds in comps:
        texts = [format_tableau(v) for v in graph.vertices]
        cands = sorted(f"{format_tableau(t)}={charge(t, N)}" for t in seeds)
        lines.append(" ".join([str(len(texts)), vertex_digest(texts)] + cands))
    CYCLAGE_DATA.parent.mkdir(exist_ok=True)
    CYCLAGE_DATA.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"{len(tableaux)} tableaux, {len(comps)} components -> {CYCLAGE_DATA}")


if __name__ == "__main__":
    main()
