"""Recorded outputs: one table row per output whose bytes are pinned, giving
the function that returns its lines, their arguments, the line count where
one is pinned, and the sha256 of the lines joined by newlines.  CI runs this
file with the rest of the suite; a change that moves an output edits its row
and says in CHANGES.md why the new digest is right."""

import hashlib
import json
import pathlib
import re

import pytest

from symplectic_kf import cli, component, format_tableau, kostant, kostka_morris, parse_tableau
from symplectic_kf import q_kostant, verify_conjecture
from symplectic_kf.algebra import rho

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _run(*argv):
    """What the command line prints, after checking that it exits 0."""
    code, out = cli.run(list(argv))
    assert code == 0
    return out


def _pairs(n, mw):
    ws = list(cli._dominant_vectors(n, mw))
    return [(lam, mu) for lam in ws for mu in ws]


def _weyl_terms(n, mw):
    """Every (sign, beta) of every pair's Weyl sum, pair by pair in walk order."""
    plus_rho = lambda w: tuple(a + b for a, b in zip(w, rho(n)))
    return [t for lam, mu in _pairs(n, mw) for t in kostant._weyl_terms(plus_rho(lam), plus_rho(mu))]


def _cyclage_seeds():
    """The first listed tableau of each of the 668 rank-4 components."""
    with open(ROOT / "kfbench/data/cyclage_n4.txt", encoding="ascii") as f:
        return [line.split()[2].split("=")[0] for line in f if not line.startswith("#")]


# verify prints only its pair, mismatch and error counts, so this pins that
# every pair was checked and matched; the records pin the polynomials, the
# tableaux in order with their charges, and the verdicts
def verify(n, mw, jobs=None):
    with pytest.MonkeyPatch.context() as mp:
        if jobs:
            # a pool (cli._verify_pair) even on a one-CPU host, which caps it to 1
            mp.setattr(cli.os, "cpu_count", lambda: jobs)
            mp.setenv(cli.JOBS_ENV_VAR, str(jobs))
        return _run("verify", "-n", str(n), "--max-weight", str(mw)).split("\n")


def records(n, mw):
    reports = (verify_conjecture(lam, mu, n) for lam, mu in _pairs(n, mw))
    return [json.dumps(r.to_record(), sort_keys=True) for r in reports]


def morris(n, mw):
    """Every pair the recurrence's hypothesis admits."""
    pairs = [(nu, mu) for nu, mu in _pairs(n, mw) if mu[0] >= nu[1]]
    return [json.dumps(kostka_morris(nu, mu, n).to_record()) for nu, mu in pairs]


def q_values(n, mw):
    return [json.dumps([beta, q_kostant(beta).to_record()]) for _, beta in _weyl_terms(n, mw)]


def weyl_terms(n, mw):
    return [json.dumps([sign, beta]) for sign, beta in _weyl_terms(n, mw)]


def graphs():
    """Each component's vertices, then its edges in order: two lines each.
    kfbench/data/cyclage_n4.txt pins only the vertex sets."""
    out = []
    for g in map(component, map(parse_tableau, _cyclage_seeds())):
        out.append(" ".join(map(format_tableau, g.vertices)))
        out.append(" ".join(f"{format_tableau(a)}>{format_tableau(b)}" for a, b in g.edges))
    return out


def graph_cli():
    """DOT and JSON of the first 50 components, printed back to back."""
    argvs = [("--tableau", t, "--format", f) for t in _cyclage_seeds()[:50] for f in ("dot", "json")]
    return "".join(_run("cyclage-graph", *argv) for argv in argvs).split("\n")


VERIFY_N3 = "814f1a3a417f932fb16225c4c5d175ee68ccdc059458fecb0b53d8ab2e3d3206"

ROWS = [  # (lines, their arguments, line count where pinned, sha256)
    (verify, (3, 8), None, VERIFY_N3),
    (verify, (3, 8, 2), None, VERIFY_N3),
    (verify, (8, 4), None, "b092b0d837180eb1de149c57ffb34024639932052f6206b9f6e3af8d9a06b767"),
    (records, (3, 8), None, "8109fa820d513c3b8d9c1c3ef560e8568b2bf740f88e4793da776834e3734e3a"),
    (records, (5, 6), None, "9c4cc29bcb98da503e70ac8849e074811818626b64bb74c10b52b1512751ab7f"),
    (records, (8, 4), None, "f71d00a00d90c8be6930723f0c1393f710beb2dc33b5beea25f1988ce6137252"),
    (morris, (4, 10), None, "b12afc767d40289eb4ccdb33333a0547afd1e29fe8a7e46be269c402d1e73ab1"),
    (morris, (6, 6), None, "3c16f86d8f8b58a5439ea4c31fbf1a193e1eea910d6d5c4913e9d7ffe286a372"),
    (q_values, (4, 6), None, "d831c54439befdb886d9455dd885ff6f9a474ac9cd86da27c97c9f2f1bea5c9e"),
    (q_values, (5, 4), None, "254b2ab4f19a6569a358b1243ccb0359f5bbd152a6449bed60cd16ecb8da4dc9"),
    (weyl_terms, (6, 4), 1132, "fa84166db3e472e1fe0a5d521a0f43988524baafe6aaf7f1d65e5652294453f8"),
    (weyl_terms, (8, 3), 786, "6c7042252a876429d79a05bca1fb1e331cd22e6658ffcaf05dedb1a0f74c4751"),
    (graphs, (), 2 * 668, "a6c7350fe3ae87f2b54a5784798b3d71e6b0d0cb169416f4ff9f75ddaa0c8a91"),
    (graph_cli, (), None, "d828cd4e3b32094c4c4a948372a1c45bf9ec86eeb05d061400f6793498c8de5d"),
]


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize(
    "lines, args, count, digest", ROWS, ids=["-".join([r[0].__name__, *map(str, r[1])]) for r in ROWS]
)
def test_recorded_output(monkeypatch, lines, args, count, digest):
    monkeypatch.delenv(cli.JOBS_ENV_VAR, raising=False)
    got = lines(*args)
    assert _digest(got) == digest
    assert count is None or len(got) == count


def test_workflow_holds_no_digest():
    # the table above is the one place a recorded digest is kept
    workflow = (ROOT / ".github/workflows/tests.yml").read_text()
    assert not re.search(r"\b[0-9a-f]{64}\b", workflow)
