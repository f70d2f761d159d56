"""One pass over a workload's items, in a fresh process with cold caches.

    python3 -I -S kfbench/worker.py --workload W --seed S [--trace] [--small] [--spans FILE]

The package is imported first; the moment the import is done is reported as
``ready`` (``time.monotonic``, which every process on the host shares), so
the parent can compute set-up time from the moment it started this process.
Nothing but ``sys``, ``os`` and ``time`` is imported before that, and ``-S``
keeps ``site`` out: the package needs nothing from site-packages, and the
``.pth`` hooks there would import unrelated modules into every start-up.
Then the items are made, a reference loop is timed, every item is run and
timed, and the reference loop is timed again.  One JSON object goes to
standard output; each item's output is in it as JSON text.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import symplectic_kf  # noqa: E402

READY = time.monotonic()
if os.path.dirname(os.path.abspath(symplectic_kf.__file__)) != os.path.join(SRC, "symplectic_kf"):
    sys.exit(f"imported symplectic_kf from {symplectic_kf.__file__}, not from {SRC}")

import argparse  # noqa: E402
import json  # noqa: E402

sys.path.insert(0, HERE)
from workloads import make_items  # noqa: E402


def ref_loop_ms() -> float:
    """A fixed pure-Python loop; it tracks how fast the host runs Python now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    if acc < 0:  # keeps the loop's result live
        print(acc)
    return (time.perf_counter() - t0) * 1e3


def peak_rss_mb() -> float:
    """This process's peak resident memory (VmHWM).

    ru_maxrss is not used: exec keeps the high-water mark of the parent's
    memory, so it would count the benchmark's parent process as well.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def serialise(workload: str, out):
    """The part of an item's output that the checks read, as plain JSON."""
    if workload == "sweep-n3":
        return {
            "def": out["definitional"],
            "charge": out["charge"],
            "verdict": out["verdict"],
            "tableaux": len(out["tableaux"]),
        }
    if workload in ("oracle-n5", "morris-n4"):
        return {str(e): c for e, c in sorted(out.coefficients().items())}
    graph, chg = out
    index = {v: i for i, v in enumerate(graph.vertices)}
    return {
        "vertices": [symplectic_kf.format_tableau(v) for v in graph.vertices],
        "edges": [[index[a], index[b]] for a, b in graph.edges],
        "charge": chg,
    }


def item_call(workload: str):
    """The public call one item makes, looked up after tracing is installed."""
    kf = symplectic_kf
    if workload == "sweep-n3":
        return lambda lam, mu: kf.recurrences.verify_conjecture(lam, mu, 3).to_record()
    if workload == "oracle-n5":
        return kf.kostant.kostka_def
    if workload == "morris-n4":
        return lambda nu, mu: kf.recurrences.kostka_morris(nu, mu, 4)
    return lambda tab: (kf.cyclage.component(tab), kf.cyclage.charge(tab, 4))


def main(argv) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    workload = args.workload
    items = make_items(workload, args.seed, small=args.small)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    call = item_call(workload)
    ref_before = ref_loop_ms()
    perf = time.perf_counter
    results = []
    t_pass = perf()
    for item_id, item_args in items:
        if tracer is not None:
            tracer.item = item_id
        t0 = perf()
        try:
            out = call(*item_args)
        except Exception as exc:  # a failing item is counted, and the pass goes on
            results.append([item_id, perf() - t0, None, f"{type(exc).__name__}: {exc}"])
            continue
        dt = perf() - t0
        # kept as text, so the outputs held do not add to the collector's work
        results.append([item_id, dt, json.dumps(serialise(workload, out)), None])
        del out
    run_s = perf() - t_pass
    peak_mb = peak_rss_mb()
    ref_after = ref_loop_ms()
    report = {
        "ready": READY,
        "run_s": run_s,
        "peak_rss_mb": peak_mb,
        "ref_loop_ms": [ref_before, ref_after],
        "items": results,
    }
    if tracer is not None:
        report["layers"] = tracer.layers()
        if args.spans:
            tracer.write(args.spans)
    json.dump(report, sys.stdout, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
