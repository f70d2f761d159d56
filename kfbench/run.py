"""Benchmark of symplectic-kf: one workload, one seed, for a given time.

    python3 kfbench/run.py --workload sweep-n3 --seed 1 --seconds 25 --trace 0

Each pass runs in a fresh worker process (worker.py) that imports the package
from ``src/`` next to this directory and calls it once per item, with cold
caches.  Passes repeat until ``--seconds`` is spent; each metric is the
median over the passes.  Every pass's outputs are checked (checks.py)
outside the timed part; an item with a wrong output or an error counts as
failed, and any failed item makes ``correct`` false.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced passes alternate and the per-layer metrics are printed.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
``--small`` runs the shrunken inputs the self-test uses.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS, make_items  # noqa: E402

WORKER_TIMEOUT_S = 150

# per-layer metrics computed here rather than read from the traced passes
DERIVED = ("host.ref_loop_ms", "trace.overhead_s")

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class WorkerError(RuntimeError):
    pass


def spawn(args: list[str]) -> dict:
    """Run one worker process; its report plus the set-up time seen from here."""
    t_start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-I", "-S", str(WORKER), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    report = json.loads(proc.stdout)
    report["setup_s"] = report["ready"] - t_start
    report["wall_s"] = time.monotonic() - t_start
    return report


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    def __init__(self, workload: str, seed: int, small: bool):
        self.workload, self.seed, self.small = workload, seed, small
        self.items = make_items(workload, seed, small)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._verdicts: dict[str, set[int]] = {}

    def pass_(self, traced: bool, spans: Path | None = None) -> dict:
        args = ["--workload", self.workload, "--seed", str(self.seed)]
        if self.small:
            args.append("--small")
        if traced:
            args.append("--trace")
        if spans is not None:
            args += ["--spans", str(spans)]
        report = spawn(args)
        self._check(report)
        return report

    def _check(self, report: dict) -> None:
        texts = {item_id: out for item_id, _, out, _ in report["items"]}
        key = hashlib.sha256(json.dumps(texts, sort_keys=True).encode()).hexdigest()
        if key not in self._verdicts:
            outputs = {i: None if t is None else json.loads(t) for i, t in texts.items()}
            self._verdicts[key] = checks.failed_items(self.workload, self.items, outputs)
        bad = self._verdicts[key]
        errored = {item_id for item_id, _, _, err in report["items"] if err}
        for err in sorted({err for _, _, _, err in report["items"] if err}):
            if err not in self.errors and len(self.errors) < 3:
                self.errors.append(err)
        self.attempted += len(self.items)
        self.failed += len(bad | errored)
        report["item_ms"] = [dt * 1e3 for _, dt, _, _ in report.pop("items")]


def measure(run: Run, seconds: float, trace: bool) -> tuple[list[float], list[dict], list[dict]]:
    """Passes until the time is spent: set-up times, untraced passes, traced passes.

    With tracing, untraced and traced passes alternate.  A pass starts only
    if one like it has not yet run, or the median of those fits in the time
    left, so a run makes whole passes and ends close to ``seconds``.  Set-up
    is taken from every untraced pass.
    """
    import symplectic_kf  # noqa: F401  writes the package's bytecode before any pass

    kinds = [False, True] if trace else [False]
    passes: dict[bool, list[dict]] = {False: [], True: []}
    t_start = time.monotonic()
    for traced in itertools.cycle(kinds):
        if all(passes[k] for k in kinds):
            left = seconds - (time.monotonic() - t_start)
            if statistics.median(p["wall_s"] for p in passes[traced]) > left:
                break
        spans = None
        if traced and not passes[True]:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"spans-{run.workload}-seed{run.seed}.tsv.gz"
        passes[traced].append(run.pass_(traced, spans))
    return [p["setup_s"] for p in passes[False]], passes[False], passes[True]


def end_to_end(setups: list[float], plain: list[dict]) -> dict[str, float]:
    med = statistics.median
    return {
        "setup_s": med(setups),
        "run_s": med(p["run_s"] for p in plain),
        "item_p50_ms": med(med(p["item_ms"]) for p in plain),
        "item_p90_ms": med(percentile(p["item_ms"], 90) for p in plain),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in plain),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, float], bool]:
    """Layer metrics (counts from the traced passes, times as medians) and whether counts repeat."""
    med = statistics.median
    layers = [p["layers"] for p in traced]
    out: dict[str, float] = {}
    repeat = True
    for name, unit, _ in LAYER_METRICS:
        if name in DERIVED:
            continue
        values = [lay.get(name, 0) for lay in layers]
        if unit == "count":
            repeat = repeat and len(set(values)) == 1
            out[name] = values[0]
        else:
            out[name] = med(values)
    out["host.ref_loop_ms"] = med(ms for p in plain + traced for ms in p["ref_loop_ms"])
    out["trace.overhead_s"] = med(p["run_s"] for p in traced) - med(p["run_s"] for p in plain)
    return out, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="shrunken inputs, for the self-test")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "symplectic_kf" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'symplectic_kf'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.small)
    try:
        setups, plain, traced = measure(run, args.seconds, bool(args.trace))
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    correct = run.failed == 0
    if args.trace:
        values, repeat = per_layer(plain, traced)
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        if not repeat:
            print("error: traced counts differ between passes of one run", file=sys.stderr)
            correct = False
    else:
        values = end_to_end(setups, plain)
        units = dict(END_TO_END)
    for err in run.errors:
        print(f"item error: {err}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} passes, {len(traced)} traced, "
        f"{run.attempted} items attempted, {run.failed} failed; "
        f"run_s of each pass {[round(p['run_s'], 3) for p in plain]}, "
        f"setup_s {[round(x, 4) for x in setups]}",
        file=sys.stderr,
    )
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
