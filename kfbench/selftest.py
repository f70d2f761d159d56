"""Quick self-test of the benchmark on shrunken inputs; takes about a minute.

    python3 kfbench/selftest.py

For every workload it checks that:
* an untraced run prints every end-to-end metric of BENCHMARK.json with its
  unit, and no item fails;
* two traced runs with the same seed print every per-layer metric with its
  unit, and their counts are equal;
* the checks pass the program's real outputs and catch a wrong one;
* the tree check of cyclage components rejects a cycle.
Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import WORKLOADS, make_items  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result: dict, spec: list[dict]) -> None:
    assert result["correct"] and result["attempted"] > 0 and result["failed"] == 0, result
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in spec}, got


def wrong_output(workload: str, out):
    """The item's output with one value changed."""
    if workload == "sweep-n3":
        out["def"][max(out["def"], key=int, default="0")] = 99
    elif workload == "cyclage-n4":
        out["charge"] += 1
    else:
        out[max(out, key=int, default="0")] = 99
    return out


def checks_catch(workload: str) -> None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3", "--small"],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    items = make_items(workload, 3, small=True)
    outputs = {item_id: json.loads(out) for item_id, _, out, _ in json.loads(proc.stdout)["items"]}
    assert not checks.failed_items(workload, items, outputs)
    victim = items[0][0]
    outputs[victim] = wrong_output(workload, outputs[victim])
    assert victim in checks.failed_items(workload, items, outputs)


def tree_check() -> None:
    assert checks._is_tree(1, []) and checks._is_tree(4, [[0, 1], [1, 2], [3, 2]])
    # a 2-cycle beside a path into the sink: right edge count, one sink
    assert not checks._is_tree(4, [[0, 1], [1, 0], [2, 3]])
    assert not checks._is_tree(3, [[0, 2], [2, 0], [2, 1]])


def main() -> int:
    try:
        tree_check()
    except AssertionError as exc:
        print(f"FAIL tree check: {exc}")
        return 1
    for workload in WORKLOADS:
        try:
            expect_metrics(bench(workload, 0), SPEC["end_to_end"])
            first, second = bench(workload, 1), bench(workload, 1)
            expect_metrics(first, SPEC["per_layer"])
            counts = [
                {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                for r in (first, second)
            ]
            assert counts[0] == counts[1], counts
            checks_catch(workload)
        except AssertionError as exc:
            print(f"FAIL {workload}: {exc}")
            return 1
        print(f"ok   {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
