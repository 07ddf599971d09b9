"""One benchmark run, in a fresh process: a closed loop of CLI invocations.

Started by ``run.py`` with numpy's BLAS limited to one thread. It imports
``modescent`` from the checkout's ``src``, calls ``modescent.cli.main(argv)``
in process, one invocation after the other, checks every invocation's
outputs against the recorded references, and prints one JSON line:
``{"attempted", "failed", "metrics", "env"}`` where each metric is
``[value, unit, samples]``.

Untraced (``--trace 0``): whole passes over the workload's pool until the
next pass would overrun ``--seconds``; ``work_per_s`` is the work units of
all passes per second of their summed ``main()`` wall time.

Traced (``--trace 1``): traced invocations over the same passes until the
next would overrun ``--seconds``; the per-layer metrics are per traced
invocation, and ``trace.overhead_s`` is the tracer's measured cost per span
(``tracer.span_cost``) times the spans of an invocation.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import io
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads as W
from tracer import ROOT, Tracer, span_cost


class Runner:
    def __init__(self, workload: str, size: str, root: Path, work: Path):
        src = (root / "src").resolve()
        sys.path.insert(0, str(src))
        import modescent
        import modescent.cli

        if Path(modescent.__file__).resolve().parent.parent != src:
            raise RuntimeError(f"imported modescent from {modescent.__file__}, "
                               f"not from {src}")
        self.package = modescent
        self.main = modescent.cli.main
        self.workload, self.size, self.work = workload, size, work
        self.refs = W.load_refs(workload)
        self.attempted = 0
        self.failures = []

    def invoke(self, case: dict, size: str, tracer: Tracer = None):
        """Run one invocation; returns (main seconds, work units)."""
        out = self.work / "case"
        argv = W.case_argv(self.workload, size, case["problem"], case["start"], out)
        stdout, stderr = io.StringIO(), io.StringIO()
        main, restore = self.main, None
        if tracer is not None:
            restore = tracer.install(self.package)
            main = tracer.wrap(ROOT, self.main, None)
        self.attempted += 1
        rc, error = None, ""
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                start = perf_counter()
                try:
                    rc = main(argv)
                finally:
                    seconds = perf_counter() - start
        except Exception:
            error = traceback.format_exc()
        finally:
            if restore is not None:
                restore()
        problems = []
        summary = None
        if rc != 0:
            problems.append(f"exit code {rc}: {stderr.getvalue().strip()} {error}")
        else:
            try:
                summary = json.loads(stdout.getvalue().strip().splitlines()[-1])
                problems = W.check_case(self.workload, size, case, summary, out,
                                        self.refs)
            except (ValueError, KeyError, IndexError, OSError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if problems:
            self.failures.append({"argv": argv, "problems": problems})
            return seconds, 0
        return seconds, W.work_units(self.workload, size, summary)

    def warm_up(self, traced: bool) -> None:
        """One tiny pass, so lazy set-up inside numpy ends before timing."""
        for case in W.plan_pass(self.workload, "tiny", np.random.default_rng(0)):
            self.invoke(case, "tiny")
            if traced:
                self.invoke(case, "tiny", Tracer())

    def run_untraced(self, seed: int, seconds: float) -> dict:
        rng = np.random.default_rng(seed)
        began = perf_counter()
        work = main_s = 0.0
        invocations = 0
        while True:
            pass_began = perf_counter()
            for case in W.plan_pass(self.workload, self.size, rng):
                s, units = self.invoke(case, self.size)
                main_s += s
                work += units
                invocations += 1
            now = perf_counter()
            if now - began + (now - pass_began) > seconds:
                break
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return {
            "work_per_s": [work / main_s, "1/s", invocations],
            "peak_rss_mb": [rss_mb, "MB", 1],
        }

    def run_traced(self, seed: int, seconds: float):
        """Returns the per-layer metrics and the tracers of the traced runs."""
        rng = np.random.default_rng(seed)
        cases = itertools.chain.from_iterable(
            W.plan_pass(self.workload, self.size, rng) for _ in itertools.count()
        )
        began = perf_counter()
        tracers = []
        for case in cases:
            case_began = perf_counter()
            tracer = Tracer()
            self.invoke(case, self.size, tracer)
            tracers.append(tracer)
            now = perf_counter()
            if now - began + (now - case_began) > seconds:
                break
        return layer_metrics(tracers, span_cost()), tracers


def write_spans(tracers, path: Path) -> None:
    """One CSV row per span: invocation, span, name, start and end in
    seconds from the invocation's root span, parent span (-1 for the root)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("invocation,span,name,start_s,end_s,parent\n")
        for inv, tr in enumerate(tracers):
            t0 = tr.starts[tr.names.index(ROOT)]
            for idx, name in enumerate(tr.names):
                fh.write(f"{inv},{idx},{name},{tr.starts[idx] - t0!r},"
                         f"{tr.ends[idx] - t0!r},{tr.parents[idx]}\n")


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracers, cost_per_span: float) -> dict:
    """Per-layer metrics per traced invocation, from the recorded spans."""
    n = len(tracers)
    self_by_name: dict = {}
    durations: dict = {}
    kkt, gaps = [0.0], [0.0]
    steps = useful = ledger_grads = ledger_fns = started = 0
    walls, spans = [], 0
    for tr in tracers:
        own = tr.self_times()
        dur = np.asarray(tr.ends) - np.asarray(tr.starts)
        names = np.asarray(tr.names)
        walls.append(float(dur[names == ROOT].sum()))
        spans += len(names)
        for name in set(tr.names):
            sel = names == name
            self_by_name[name] = self_by_name.get(name, 0.0) + float(own[sel].sum())
            durations.setdefault(name, []).extend(dur[sel].tolist())
        inside_fields = tr.ancestors_named({"fields.sample", "fields.streamline"})
        useful += int(np.count_nonzero(inside_fields & (names == "problems.query")))
        for idx, payload in tr.payloads.items():
            name = tr.names[idx]
            if name == "directions.central":
                outcome = payload[0]
                if outcome.kind == "direction" and np.isfinite(outcome.kkt_residual):
                    kkt.append(float(outcome.kkt_residual))
            elif name == "directions.steepest":
                gaps.append(W.steepest_opt_gap(*payload))
            elif name == "solvers.run":
                records = payload[0]
                last = records[-1]
                ledger_grads += last.grad_evals
                ledger_fns += last.fn_evals
                useful += last.grad_evals + last.fn_evals
                started += len(records) - (last.stop_reason == "MaxIter")
            elif name == "fields.streamline":
                steps += payload[0][0].shape[0] - 1

    def per_inv(value):
        return value / n

    def self_s(*names):
        return [per_inv(sum(self_by_name.get(x, 0.0) for x in names)), "s", n]

    def us(name, q):
        return [_pct(durations.get(name, []), q) * 1e6, "us", len(durations.get(name, []))]

    def calls(name):
        return [per_inv(len(durations.get(name, []))), "count", n]

    queries = len(durations.get("problems.query", []))
    query_us = durations.get("problems.query", [])
    return {
        "directions.central.calls": calls("directions.central"),
        "directions.central.self_s": self_s("directions.central"),
        "directions.central.us_p50": us("directions.central", 50),
        "directions.central.us_p99": us("directions.central", 99),
        "directions.central.kkt_residual_max": [max(kkt), "1", len(kkt) - 1],
        "directions.steepest.calls": calls("directions.steepest"),
        "directions.steepest.self_s": self_s("directions.steepest"),
        "directions.steepest.us_p50": us("directions.steepest", 50),
        "directions.steepest.us_p99": us("directions.steepest", 99),
        "directions.steepest.us_max": us("directions.steepest", 100),
        "directions.steepest.opt_gap_max": [max(gaps), "1", len(gaps) - 1],
        "problems.query.calls": calls("problems.query"),
        "problems.query.self_s": self_s("problems.query", "problems.query_all"),
        "problems.query.us_mean": [float(np.mean(query_us)) * 1e6 if queries else 0.0,
                                   "us", queries],
        "problems.useful_query_ratio": [useful / queries if queries else 0.0,
                                        "1", queries],
        "problems.build_s": self_s("problems.build"),
        "solvers.run.self_s": self_s("solvers.run"),
        "solvers.trace_csv_s": self_s("solvers.trace_csv"),
        "solvers.grad_evals_per_iter": [ledger_grads / started if started else 0.0,
                                        "count", started],
        "solvers.fn_evals_per_iter": [ledger_fns / started if started else 0.0,
                                      "count", started],
        "fields.sample.self_s": self_s("fields.sample"),
        "fields.to_csv_s": self_s("fields.to_csv"),
        "fields.streamline.self_s": self_s("fields.streamline"),
        "fields.streamline_s": [per_inv(sum(durations.get("fields.streamline", []))), "s", n],
        "fields.streamline.steps": [per_inv(steps), "count", n],
        "cli.self_s": self_s(ROOT),
        "trace.wall_s": [statistics.fmean(walls), "s", n],
        "trace.overhead_s": [cost_per_span * per_inv(spans), "s", n],
        "trace.spans": [per_inv(spans), "count", n],
    }


def _bump(values, i):
    values[i] = values[i] * (1 + 1e-4) + 1e-4


def _finite_nonzero(column) -> int:
    return int(np.flatnonzero(np.isfinite(column) & (column != 0.0))[0])


# Each entry corrupts one reference field; the checks must then fail.
CORRUPTIONS = {
    "solve": {
        "iterations": lambda r, g: r.update(iterations=r["iterations"] + 1),
        "grad_evals": lambda r, g: r.update(grad_evals=r["grad_evals"] + 2),
        "fn_evals": lambda r, g: r.update(fn_evals=r["fn_evals"] + 1),
        "stop_reason": lambda r, g: r.update(stop_reason=r["stop_reason"] + "?"),
        "trace_rows": lambda r, g: r.update(trace_rows=r["trace_rows"] + 1),
        "final_x": lambda r, g: _bump(r["final_x"], 0),
        "final_values": lambda r, g: _bump(r["final_values"], -1),
    },
    "field": {
        "masked_nodes": lambda r, g: r.update(masked_nodes=r["masked_nodes"] + 1),
        "streamline steps": lambda r, g: r["streamlines"][0].update(
            steps=r["streamlines"][0]["steps"] + 1),
        "streamline halt": lambda r, g: r["streamlines"][0].update(
            halt=r["streamlines"][0]["halt"] + "?"),
        "streamline_rows": lambda r, g: r.update(streamline_rows=r["streamline_rows"] + 1),
        "streamline_end": lambda r, g: _bump(r["streamline_end"], 0),
        "grid x": lambda r, g: _bump(g["x"], 1),
        "min_grad_norm": lambda r, g: _bump(g["min_grad_norm"],
                                            _finite_nonzero(g["min_grad_norm"])),
        "central_norm": lambda r, g: _bump(g["central_norm"],
                                           _finite_nonzero(g["central_norm"])),
        "steepest_value": lambda r, g: (
            _bump(g["steepest_value"], _finite_nonzero(g["steepest_exact"])),
            _bump(g["steepest_exact"], _finite_nonzero(g["steepest_exact"]))),
        "critical_mask": lambda r, g: g["critical_mask"].__setitem__(
            0, 1 - g["critical_mask"][0]),
    },
}


def corrupt_check(workload: str, root: Path, work: Path) -> int:
    """Every tiny case must pass its references and fail each corruption."""
    runner = Runner(workload, "tiny", root, work)
    out = work / "case"
    failures = 0
    for case in W.all_cases(workload, "tiny"):
        argv = W.case_argv(workload, "tiny", case["problem"], case["start"], out)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            runner.main(argv)
        summary = json.loads(stdout.getvalue().strip().splitlines()[-1])
        genuine = W.check_case(workload, "tiny", case, summary, out, runner.refs)
        if genuine:
            print(f"{workload} {W.case_key('tiny', case)}: genuine reference "
                  f"rejected: {genuine}")
            failures += 1
        for label, corrupt in CORRUPTIONS[W.WORKLOADS[workload]["kind"]].items():
            refs = copy.deepcopy(runner.refs)
            grid_key = W.grid_key("tiny", case["problem"])
            corrupt(refs["cases"][W.case_key("tiny", case)], refs["grids"].get(grid_key))
            if not W.check_case(workload, "tiny", case, summary, out, refs):
                print(f"{workload} {W.case_key('tiny', case)}: corrupted "
                      f"{label} was not detected")
                failures += 1
    print(f"corrupt-check {workload}: {'pass' if not failures else 'FAIL'}")
    return 1 if failures else 0


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": "shared, unpinned; no machine setting changed",
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--corrupt-check", action="store_true")
    args = ap.parse_args()
    if args.corrupt_check:
        return corrupt_check(args.workload, Path(args.root), Path(args.work))
    runner = Runner(args.workload, args.size, Path(args.root), Path(args.work))
    if args.size == "full":
        runner.warm_up(traced=bool(args.trace))
    if args.trace:
        metrics, tracers = runner.run_traced(args.seed, args.seconds)
        write_spans(tracers, Path(args.root) / ".bench_build" / "perfbench" / "spans"
                    / f"{args.workload}-seed{args.seed}-{args.size}.csv")
    else:
        metrics = runner.run_untraced(args.seed, args.seconds)
    for failure in runner.failures:
        print(json.dumps(failure), file=sys.stderr)
    print(json.dumps({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
