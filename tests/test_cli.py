import itertools
import json

import pytest

from symplectic_kf import cli
from symplectic_kf.algebra import is_dominant
from symplectic_kf.cyclage import ChainRepetitionError, cocycle, component
from symplectic_kf.kostant import PositivityError
from symplectic_kf.qpoly import parse_poly
from symplectic_kf.tableaux import parse_tableau


def run(*argv):
    return cli.run(list(argv))


def test_kostka_def_fixture():
    code, out = run("kostka", "--method", "def", "-n", "3", "--lambda", "2,2,0", "--mu", "0,0,0")
    assert code == 0
    assert out == "q^2 + 2*q^4 + 2*q^6 + q^8\n"


def test_kostka_trivial():
    code, out = run("kostka", "--method", "def", "-n", "3", "--lambda", "0,0,0", "--mu", "0,0,0")
    assert code == 0
    assert out == "1\n"


def test_kostka_methods_agree():
    outs = set()
    for method in ("def", "morris", "row", "charge"):
        code, out = run("kostka", "--method", method, "-n", "2", "--lambda", "2,0", "--mu", "0,0")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1


def test_kostka_json():
    code, out = run("kostka", "-n", "3", "--lambda", "2,2,0", "--mu", "0,0,0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"poly": {"2": 1, "4": 2, "6": 2, "8": 1}}


def test_kostka_output_parses_back():
    code, out = run("kostka", "-n", "3", "--lambda", "2,1,1", "--mu", "1,1,0")
    assert code == 0
    parsed = parse_poly(out.strip())
    assert str(parsed) == out.strip()


def test_charge_fixture():
    code, out = run("charge", "-n", "3", "--tableau", "-2,-1;1,2")
    assert code == 0
    assert out == "4\n"


def test_insert_fixture():
    code, out = run("insert", "--tableau", "-1,1,3;1,2;2", "--letter", "1")
    assert code == 0
    assert out == "-2,1,3;1,2;2;2\n"


def test_cyclage_graph_dot():
    code, out = run("cyclage-graph", "--tableau", "-2,-1;1,2")
    assert code == 0
    assert out.count(";\n") + out.count(";") >= 3
    lines = out.splitlines()
    assert lines[0] == "digraph cyclage {"
    assert lines[-1] == "}"
    nodes = [l for l in lines if '"' in l and "->" not in l]
    edges = [l for l in lines if "->" in l]
    assert len(nodes) == 3 and len(edges) == 2
    # single box: one node, no edge
    code, out = run("cyclage-graph", "--tableau", "-1")
    nodes = [l for l in out.splitlines() if '"' in l and "->" not in l]
    edges = [l for l in out.splitlines() if "->" in l]
    assert len(nodes) == 1 and len(edges) == 0


def test_cyclage_graph_ten_vertices():
    code, out = run("cyclage-graph", "--tableau", "-1;-1;1;1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 10
    assert len(payload["edges"]) == 9
    # edges are index pairs into the vertex list
    for a, b in payload["edges"]:
        assert 0 <= a < 10 and 0 <= b < 10
        assert parse_tableau(payload["vertices"][a])  # labels parse back


def test_cyclage_graph_dot_and_json_agree():
    # both formats print one graph: DOT's nodes are JSON's vertices in order,
    # DOT's edges are JSON's index pairs, and each edge runs from S to U(S)
    args = ("cyclage-graph", "--tableau", "-1;-1;1;1", "--format")
    payload = json.loads(run(*args, "json")[1])
    names = payload["vertices"]
    assert run(*args, "dot") == (
        0,
        "\n".join(
            ["digraph cyclage {"]
            + [f'  "{v}";' for v in names]
            + [f'  "{names[a]}" -> "{names[b]}";' for a, b in payload["edges"]]
            + ["}\n"]
        ),
    )
    for a, b in payload["edges"]:
        assert cocycle(parse_tableau(names[a])) == parse_tableau(names[b])


def test_graph_vertex_order_is_reading_lexicographic():
    g = component(parse_tableau("-1;-1;1;1"))
    from symplectic_kf.tableaux import reading

    readings = [reading(v) for v in g.vertices]
    assert readings == sorted(readings)


def test_deterministic_output():
    args = ("cyclage-graph", "--tableau", "-3;-3;-2;-1;1")
    assert run(*args) == run(*args)


def test_kostka_charge_on_wide_shape():
    # the enumeration's walk is one column per level: 1100 columns would
    # pass the recursion limit if it recursed per column
    code, out = run("kostka", "-n", "1", "--lambda", "1100", "--mu", "1100", "--method", "charge")
    assert (code, out) == (0, "1\n")


def test_verify_single_pair():
    code, out = run("verify", "-n", "3", "--lambda", "2,2,0", "--mu", "0,0,0")
    assert code == 0
    assert "verdict: match" in out


def test_verify_sweep_small():
    code, out = run("verify", "-n", "2", "--max-weight", "2")
    assert code == 0
    assert "mismatches: 0" in out


def test_verify_sweep_parallel(monkeypatch):
    monkeypatch.setenv(cli.JOBS_ENV_VAR, "2")
    code, out = run("verify", "-n", "2", "--max-weight", "2")
    assert code == 0
    assert "mismatches: 0" in out


def test_verify_sweep_pool_prints_the_same_bytes(monkeypatch):
    monkeypatch.delenv(cli.JOBS_ENV_VAR, raising=False)
    serial = run("verify", "-n", "3", "--max-weight", "4")
    assert serial[0] == 0
    # two workers even on a one-CPU host, where the count would be capped to 1
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setenv(cli.JOBS_ENV_VAR, "2")
    assert run("verify", "-n", "3", "--max-weight", "4") == serial


def test_verify_mismatch_exit_code(monkeypatch):
    fake = {
        "lambda": [1],
        "mu": [0],
        "definitional": {"0": 1},
        "charge": {},
        "tableaux": [],
        "verdict": "mismatch",
    }
    monkeypatch.setattr(cli, "_verify_pair", lambda args: fake)
    code, out = run("verify", "-n", "1", "--max-weight", "1")
    assert code == 2
    assert "mismatch: lambda=1" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("kostka", "-n", "3", "--lambda", "1,2,0", "--mu", "0,0,0"),  # not dominant
        ("kostka", "-n", "3", "--lambda", "nope", "--mu", "0,0,0"),
        ("kostka", "-n", "2", "--lambda", "1,0,0", "--mu", "0,0"),  # rank mismatch
        ("kostka", "--method", "row", "-n", "2", "--lambda", "2,1", "--mu", "0,0"),
        ("kostka", "--method", "morris", "-n", "2", "--lambda", "2,2", "--mu", "1,1"),
        ("charge", "-n", "2", "--tableau", "2,1"),
        ("verify", "-n", "2"),  # neither bounds nor pair
        ("charge", "-n", "1", "--tableau", "1;-1"),  # not 1-symplectic
        ("cyclage-graph", "--tableau", "2;1"),  # symplectic at no rank
        ("insert", "--tableau", "2;1", "--letter", "1"),
        ("insert", "--tableau", "1", "--letter", "0"),  # printed 0;1
        ("verify", "-n", "0", "--max-weight", "2"),  # checked 1 pair
        ("verify", "-n", "3", "--max-weight", "-1"),  # checked 0 pairs
        ("verify", "-n", "-1", "--max-weight", "2"),  # leaked a repeat() error
        ("verify", "-n", "2", "--lambda", "2,0", "--max-weight", "2"),  # swept 16 pairs
        ("verify", "-n", "2", "--mu", "0,0", "--max-weight", "2"),  # swept 16 pairs
        # ran the pair and dropped --max-weight
        ("verify", "-n", "2", "--lambda", "2,0", "--mu", "0,0", "--max-weight", "2"),
        ("verify", "-n", "2", "--lambda", "2,0"),
        ("verify", "-n", "2", "--mu", "0,0"),
    ],
)
def test_domain_errors_exit_one(argv, capsys):
    code, out = run(*argv)
    assert code == 1
    assert out == ""
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ("kostka", "-n", "2", "--lambda", "2,0", "--mu", "0,0", "--bogus"),  # unknown flag
        ("kostka", "-n", "2", "--lambda", "2,0"),  # --mu missing
        ("kostka", "--method", "nope", "-n", "2", "--lambda", "2,0", "--mu", "0,0"),
        (),  # no command
    ],
)
def test_usage_errors_exit_one(argv, capsys):
    assert run(*argv) == (1, "")
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("--help",), ("kostka", "--help")])
def test_help_exits_zero(argv, capsys):
    assert run(*argv) == (0, "")
    assert "usage:" in capsys.readouterr().out


def test_typed_errors_exit_one(monkeypatch, capsys):
    def fail(lam, mu):
        raise PositivityError("negative coefficient")

    monkeypatch.setattr(cli, "kostka_def", fail)
    code, out = run("kostka", "-n", "2", "--lambda", "2,0", "--mu", "0,0")
    assert code == 1
    assert out == ""
    assert "error: PositivityError: negative coefficient" in capsys.readouterr().err


def test_verify_sweep_reports_error_pairs(monkeypatch):
    monkeypatch.delenv(cli.JOBS_ENV_VAR, raising=False)
    real = cli.verify_conjecture

    def flaky(lam, mu, n):
        if lam == (1, 1) and mu == (0, 0):
            raise ChainRepetitionError("revisited")
        return real(lam, mu, n)

    monkeypatch.setattr(cli, "verify_conjecture", flaky)
    code, out = run("verify", "-n", "2", "--max-weight", "2")
    assert code == 1
    assert "error: lambda=1,1 mu=0,0 ChainRepetitionError: revisited" in out
    assert "checked: 16 pairs" in out
    assert "mismatches: 0" in out
    assert "errors: 1" in out


def test_parse_jobs(monkeypatch):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 4)
    assert cli.parse_jobs(None) == 1
    assert cli.parse_jobs("3") == 3
    assert cli.parse_jobs("64") == 4
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli.parse_jobs("8") == 1
    for bad in ("0", "-2", "two", "1.5", ""):
        with pytest.raises(ValueError):
            cli.parse_jobs(bad)


def test_verify_rejects_bad_jobs(monkeypatch, capsys):
    monkeypatch.setenv(cli.JOBS_ENV_VAR, "0")
    code, out = run("verify", "-n", "2", "--max-weight", "2")
    assert code == 1
    assert cli.JOBS_ENV_VAR in capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_dominant_vectors_match_filtered_product(n):
    for max_weight in range(7):
        want = [
            v
            for v in itertools.product(range(max_weight + 1), repeat=n)
            if sum(v) <= max_weight and is_dominant(v)
        ]
        assert list(cli._dominant_vectors(n, max_weight)) == want, max_weight
