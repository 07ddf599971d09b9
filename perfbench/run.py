"""Benchmark entry point for one run of one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

Run from the root of a source checkout; ``modescent`` is imported from its
``src`` directory, never from an installed copy. A run starts fresh
processes with numpy's BLAS limited to one thread (in their environment
only): with ``--trace 0``, a few set-up probes (import ``modescent.cli``
and build the workload's first problem; ``setup_s`` is their median) and
then the worker (``worker.py``) that times the closed loop of invocations;
with ``--trace 1``, the worker alone, which reports the per-layer metrics.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}`` with the
metrics named in ``BENCHMARK.json``. Exit code 0 when a result was printed,
nonzero without a result when the run could not be carried out (e.g. no
``src/modescent`` in the checkout).

``--selfcheck`` runs every workload at the tiny size, untraced and traced,
and feeds the output checks deliberately corrupted references, which they
must reject.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0
SETUP_PROBES = 15

PROBE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
import modescent.cli
modescent.cli.problem_from_name({problem!r})
took = time.perf_counter() - start
if not modescent.__file__.startswith({src!r}):
    sys.exit("modescent imported from " + modescent.__file__)
print(repr(took))
"""


class BenchError(RuntimeError):
    """The run could not be carried out; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def run_child(argv, began: float) -> str:
    remaining = DEADLINE_S - (perf_counter() - began)
    if remaining <= 0:
        raise BenchError("out of time before all processes ran")
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1]} did not finish in time") from exc
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"{argv[1]} exited {done.returncode}")
    return done.stdout


def setup_probes(problem: str, began: float) -> list:
    code = PROBE.format(src=str(SRC), problem=problem)
    return [float(run_child([sys.executable, "-c", code], began).strip())
            for _ in range(SETUP_PROBES)]


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(trace: int) -> dict:
    return {m["name"]: m["unit"] for m in spec()["per_layer" if trace else "end_to_end"]}


def bench(workload: str, seed: int, seconds: float, trace: int,
          size: str = "full") -> dict:
    """One run; returns the worker's report plus ``setup_s``."""
    began = perf_counter()
    if not (SRC / "modescent" / "__init__.py").is_file():
        raise BenchError(f"no modescent sources under {SRC}")
    if workload not in W.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    scratch = ROOT / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        metrics = {}
        if not trace:
            problem = W.WORKLOADS[workload]["problems"][size][0]
            probes = setup_probes(problem, began)
            metrics["setup_s"] = [statistics.median(probes), "s", len(probes)]
        out = run_child([sys.executable, str(HERE / "worker.py"),
                         "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace),
                         "--size", size, "--root", str(ROOT), "--work", str(work)],
                        began)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = json.loads(out.strip().splitlines()[-1])
    report["metrics"].update(metrics)
    return report


def result_line(report: dict, trace: int) -> dict:
    metrics = {}
    for name, unit in declared_metrics(trace).items():
        if name not in report["metrics"]:
            raise BenchError(f"the worker did not report {name}")
        value, got_unit, _ = report["metrics"][name]
        if got_unit != unit:
            raise BenchError(f"{name} in {got_unit}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def print_run(workload: str, seed: int, report: dict, result: dict) -> None:
    env = report["env"]
    print(f"# workload {workload} seed {seed}; python {env['python']}, numpy "
          f"{env['numpy']}, BLAS {env['blas']} (threads {env['blas_threads']}), "
          f"nproc {env['nproc']}; machine {env['machine']}")
    for name, (value, unit, samples) in sorted(report["metrics"].items()):
        print(f"{name:40s} {value:>16.6g} {unit:6s} n={samples}")
    share = result["failed"] / result["attempted"]
    print(f"{'failed_share':40s} {share:>16.6g} {'1':6s} n={result['attempted']}")


def selfcheck() -> int:
    ok = True
    for workload in W.WORKLOADS:
        for trace in (0, 1):
            try:
                report = bench(workload, 1, 0.0, trace, size="tiny")
                result = result_line(report, trace)
                passed = result["correct"] and result["attempted"] >= 1
            except BenchError as exc:
                print(f"smoke {workload} trace {trace}: {exc}")
                passed = False
            print(f"smoke {workload} trace {trace}: {'pass' if passed else 'FAIL'}")
            ok &= passed
        scratch = ROOT / ".bench_build" / "perfbench"
        scratch.mkdir(parents=True, exist_ok=True)
        work = tempfile.mkdtemp(prefix="selfcheck-", dir=scratch)
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--corrupt-check",
                 "--workload", workload, "--root", str(ROOT), "--work", work],
                cwd=ROOT, env=child_env(), text=True, timeout=DEADLINE_S)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        ok &= done.returncode == 0
    print("selfcheck " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if args.selfcheck:
        return selfcheck()
    if not args.workload:
        ap.error("--workload is required")
    try:
        seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
        report = bench(args.workload, args.seed, seconds, args.trace)
        result = result_line(report, args.trace)
    except (BenchError, ValueError, KeyError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_run(args.workload, args.seed, report, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
