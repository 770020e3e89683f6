"""Steadiness report: repeat a workload over seeds and summarise each metric.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload serve-mix --seeds 1-10
    python3 perfbench/steady.py --workload serve-mix --seeds 11-20 --baseline a.json --save b.json

Runs ``run.py`` once per seed, one after another, with ``run_seconds`` from
``BENCHMARK.json``, then prints for every metric
its median, first and third quartiles (``statistics.quantiles(n=4)``) and
the spread ``(q3 - q1) / median`` as a share of the metric's bound.  With
``--baseline`` (a file an earlier ``--save`` wrote) it also prints how far
each median moved against that set's median, as a share of the bound.
Exits 1 if a run fails, a spread exceeds its bound, or a median moved by
more than its bound in the worse direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--save", help="write the per-seed values here (JSON)")
    parser.add_argument("--baseline", help="compare medians with a saved set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    seconds = spec["run_seconds"]
    values: dict = {m["name"]: [] for m in metrics}
    for seed in seeds_of(args.seeds):
        result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            print(f"seed {seed}: result check failed", file=sys.stderr)
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={values[name][-1]:.4g}" for name in values
        ), flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps({"workload": args.workload, "values": values}))
    baseline = json.loads(Path(args.baseline).read_text())["values"] if args.baseline else {}

    ok = True
    print(f"\n{args.workload}: {len(next(iter(values.values())))} runs of {seconds} s")
    print(f"{'metric':<28}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}"
          f"{'/bound':>8}{'moved':>9}")
    for metric in metrics:
        name, bound = metric["name"], metric.get("bound")
        series = values[name]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        line = f"{name:<28}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}"
        if bound is not None:
            line += f"{bound:>7.2f}{spread / bound:>8.2f}"
            if spread > bound:
                ok = False
        if name in baseline and bound is not None:
            before = statistics.median(baseline[name])
            moved = (median - before) / before if before else 0.0
            worse = moved if metric["better"] == "lower" else -moved
            line += f"{moved:>+9.3f}"
            if worse > bound:
                ok = False
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
