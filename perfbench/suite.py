"""Run every workload over several seeds, interleaved, and summarize.

    python3 perfbench/suite.py [--seeds 0-9] [--trace 0|1] [--out results.json]
                               [--compare earlier.json]

Each (seed, workload) of ``BENCHMARK.json`` is one ``run.py`` run of its
``run_seconds``, in its own processes; the workload order rotates from seed
to seed so no workload always runs first.
For each workload and metric it prints the median over runs, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (q3 - q1) / median next
to the metric's bound from ``BENCHMARK.json``, the number of runs, and
``failed_share``, the share of invocations that exited nonzero or failed an
output check. ``--compare`` adds the change of each median against an
earlier ``--out`` file, as a share of the earlier median (positive = worse).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(runs: list, spec: dict, trace: int) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        attempted = sum(r["result"]["attempted"] for r in mine)
        failed = sum(r["result"]["failed"] for r in mine)
        rows = {}
        for metric in declared:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in mine]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (med, med, med))
            rows[metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": metric.get("bound"), "better": metric["better"],
                "runs": len(values), "values": values,
            }
        summary[workload] = {"failed_share": failed / attempted,
                             "attempted": attempted, "metrics": rows}
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare")
    args = ap.parse_args()
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = []
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for workload in names[i % len(names):] + names[:i % len(names)]:
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds),
                    "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                print(done.stdout + done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}")
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"workload": workload, "seed": seed, "result": result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if not args.trace) + f" failed={result['failed']}", flush=True)
            env_line = lines[0]
    summary = summarize(runs, spec, args.trace)
    earlier = None
    if args.compare:
        with open(args.compare) as fh:
            earlier = json.load(fh)["summary"]
    print(env_line)
    for workload, block in summary.items():
        print(f"\n{workload}: failed_share {block['failed_share']:.4g} "
              f"over {block['attempted']} invocations")
        for name, row in block["metrics"].items():
            line = (f"  {name:38s} median {row['median']:12.6g} {row['unit']:5s} "
                    f"q1 {row['q1']:11.6g} q3 {row['q3']:11.6g} "
                    f"spread {row['spread']:6.3f}")
            if row["bound"] is not None:
                line += f" (bound {row['bound']}, third {row['bound'] / 3:.3f})"
            if earlier and workload in earlier:
                before = earlier[workload]["metrics"][name]["median"]
                change = (row["median"] - before) / before if before else 0.0
                worse = change if row["better"] == "lower" else -change
                line += f" worse-by {worse:+.3f}"
            print(line + f" n={row['runs']}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"env": env_line, "seconds": seconds, "trace": args.trace,
                       "runs": runs, "summary": summary}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
