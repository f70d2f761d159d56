"""Command-line front end: polynomials, charges, cyclage graphs, verification sweeps."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import check_weight
from .cyclage import ChainRepetitionError, CyclageGraph, charge, component
from .kostant import PositivityError, kostka_def
from .qpoly import QPolynomial
from .recurrences import (
    charge_kostka,
    kostka_morris,
    kostka_row,
    verify_conjecture,
)
from .tableaux import (
    format_tableau,
    insert_into_tableau,
    is_symplectic,
    minimal_rank,
    parse_tableau,
)

JOBS_ENV_VAR = "KF_VERIFY_JOBS"

# Failures a computation reports as a bug in the program, not in the input.
_TYPED_ERRORS = (PositivityError, ChainRepetitionError)


def _parse_partition(text: str, n: int) -> tuple[int, ...]:
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse partition {text!r}")
    return check_weight(parts, n)


def emit_dot(graph: CyclageGraph) -> str:
    """Deterministic DOT digraph: one node per tableau, one edge per cocyclage."""
    text = {v: format_tableau(v) for v in graph.vertices}
    lines = ["digraph cyclage {"]
    lines += [f'  "{t}";' for t in text.values()]
    lines += [f'  "{text[a]}" -> "{text[b]}";' for a, b in graph.edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_json(graph: CyclageGraph) -> str:
    index = {v: i for i, v in enumerate(graph.vertices)}
    payload = {
        "vertices": [format_tableau(v) for v in graph.vertices],
        "edges": [[index[a], index[b]] for a, b in graph.edges],
    }
    return json.dumps(payload) + "\n"


def poly_json(p: QPolynomial) -> str:
    return json.dumps({"poly": p.to_record()}) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="symplectic-kf")
    sub = top.add_subparsers(dest="command", required=True)

    k = sub.add_parser("kostka", help="compute a Kostka-Foulkes polynomial")
    k.add_argument("--method", choices=["def", "morris", "row", "charge"], default="def")
    k.add_argument("-n", type=int, required=True)
    k.add_argument("--lambda", dest="lam", required=True)
    k.add_argument("--mu", required=True)
    k.add_argument("--format", choices=["text", "json"], default="text")

    c = sub.add_parser("charge", help="charge statistic of a symplectic tableau")
    c.add_argument("-n", type=int, required=True)
    c.add_argument("--tableau", required=True)

    g = sub.add_parser("cyclage-graph", help="connected cyclage component")
    g.add_argument("--tableau", required=True)
    g.add_argument("--format", choices=["dot", "json"], default="dot")

    i = sub.add_parser("insert", help="insert a letter into a symplectic tableau")
    i.add_argument("--tableau", required=True)
    i.add_argument("--letter", type=int, required=True)

    v = sub.add_parser("verify", help="compare the definitional and charge routes")
    v.add_argument("-n", type=int, required=True)
    v.add_argument("--max-weight", type=int, default=None)
    v.add_argument("--lambda", dest="lam", default=None)
    v.add_argument("--mu", default=None)
    return top


def _dominant_vectors(n: int, max_weight: int):
    """Weakly decreasing nonnegative n-vectors with sum <= max_weight, in lexicographic order."""

    def rec(prefix: tuple[int, ...], largest: int, left: int):
        if len(prefix) == n:
            yield prefix
            return
        for x in range(min(largest, left) + 1):
            yield from rec(prefix + (x,), x, left - x)

    yield from rec((), max_weight, max_weight)


def parse_jobs(text: str | None) -> int:
    """Worker count for a sweep from KF_VERIFY_JOBS: 1 when unset, at most the CPU count."""
    if text is None:
        return 1
    try:
        jobs = int(text)
    except ValueError:
        raise ValueError(f"{JOBS_ENV_VAR} must be an integer, got {text!r}")
    if jobs <= 0:
        raise ValueError(f"{JOBS_ENV_VAR} must be positive, got {jobs}")
    return min(jobs, os.cpu_count() or 1)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _verify_pair(args):
    lam, mu, n = args
    try:
        return verify_conjecture(lam, mu, n).to_record()
    except (ValueError, OverflowError) + _TYPED_ERRORS as exc:
        return {
            "lambda": list(lam),
            "mu": list(mu),
            "n": n,
            "verdict": "error",
            "error": _error_text(exc),
        }


def _run_sweep(n: int, max_weight: int, out: list[str]) -> int:
    weights = list(_dominant_vectors(n, max_weight))
    pairs = [(lam, mu, n) for lam in weights for mu in weights]
    jobs = parse_jobs(os.environ.get(JOBS_ENV_VAR))
    if jobs > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            records = pool.map(_verify_pair, pairs)
    else:
        records = [_verify_pair(p) for p in pairs]
    mismatches = [r for r in records if r["verdict"] == "mismatch"]
    errors = [r for r in records if r["verdict"] == "error"]
    for r in mismatches:
        out.append(
            "mismatch: lambda={} mu={} definitional={} charge={}".format(
                ",".join(map(str, r["lambda"])),
                ",".join(map(str, r["mu"])),
                json.dumps(r["definitional"]),
                json.dumps(r["charge"]),
            )
        )
    for r in errors:
        out.append(
            "error: lambda={} mu={} {}".format(
                ",".join(map(str, r["lambda"])),
                ",".join(map(str, r["mu"])),
                r["error"],
            )
        )
    out.append(f"checked: {len(records)} pairs")
    out.append(f"mismatches: {len(mismatches)}")
    out.append(f"errors: {len(errors)}")
    if mismatches:
        return 2
    return 1 if errors else 0


_VALUE_FLAGS = ("--tableau", "--lambda", "--mu", "--letter")


def _glue_values(argv: list[str]) -> list[str]:
    # barred letters make tableau arguments start with '-'; fold such values
    # into --flag=value form so argparse does not read them as options
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def run(argv) -> tuple[int, str]:
    """Dispatch a command line; returns (exit code, stdout text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_glue_values(list(argv)))
    except SystemExit as exc:
        return (0 if exc.code in (0, None) else 1), ""
    out: list[str] = []
    try:
        if getattr(args, "n", 1) < 1:  # kostka, charge and verify take -n
            raise ValueError(f"-n must be at least 1, got {args.n}")
        if args.command == "kostka":
            lam = _parse_partition(args.lam, args.n)
            mu = _parse_partition(args.mu, args.n)
            if args.method == "def":
                poly = kostka_def(lam, mu)
            elif args.method == "morris":
                poly = kostka_morris(lam, mu, args.n)
            elif args.method == "row":
                if any(lam[1:]):
                    raise ValueError("--method row needs a row partition (p,0,...,0)")
                poly = kostka_row(lam[0], mu, args.n)
            else:
                poly = charge_kostka(lam, mu, args.n)
            out.append(poly_json(poly).rstrip("\n") if args.format == "json" else str(poly))
        elif args.command == "charge":
            tab = parse_tableau(args.tableau)
            if not is_symplectic(tab, args.n):
                raise ValueError(f"{args.tableau!r} is not a {args.n}-symplectic tableau")
            out.append(str(charge(tab, args.n)))
        elif args.command == "cyclage-graph":
            graph = component(parse_tableau(args.tableau))
            text = emit_dot(graph) if args.format == "dot" else emit_json(graph)
            out.append(text.rstrip("\n"))
        elif args.command == "insert":
            tab = parse_tableau(args.tableau) if args.tableau else ()
            minimal_rank(tab)
            if args.letter == 0:
                raise ValueError("0 is not a letter")
            result = insert_into_tableau(args.letter, tab)
            out.append(format_tableau(result))
        elif args.command == "verify":
            given = (args.lam is not None, args.mu is not None, args.max_weight is not None)
            if given not in ((True, True, False), (False, False, True)):
                raise ValueError("verify needs both --lambda and --mu, or --max-weight alone")
            if args.max_weight is None:
                lam = _parse_partition(args.lam, args.n)
                mu = _parse_partition(args.mu, args.n)
                report = verify_conjecture(lam, mu, args.n)
                out.append(report.to_text())
                return (2 if report.verdict == "mismatch" else 0), "\n".join(out) + "\n"
            if args.max_weight < 0:
                raise ValueError(f"--max-weight must be nonnegative, got {args.max_weight}")
            code = _run_sweep(args.n, args.max_weight, out)
            return code, "\n".join(out) + "\n"
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1, ""
    except _TYPED_ERRORS as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 1, ""
    return 0, "\n".join(out) + "\n"


def main() -> None:
    code, text = run(sys.argv[1:])
    if text:
        sys.stdout.write(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
