"""The repository benchmark: one workload per invocation, checked and timed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (``perfbench/README.md`` says why each exists):

* ``panda-dir``   — the default ``repro run`` (da-subw, i.e. PANDA) of the
  triangle over a 10^5-edge random digraph, from a directory written by
  ``repro ingest``; closed loop, one client.
* ``serve-mix``   — ``ServingEngine`` with 2 readers, 90 % snapshot reads
  and 10 % write batches, open loop at 200 requests/s.
* ``datalog-tc``  — ``DatalogEngine`` transitive closure: fixpoint, then
  insert-only and delete batches; closed loop, one client.

Inputs come from ``--seed`` alone.  Every result is checked against an
oracle; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics (named in ``BENCHMARK.json``) with
``--trace 1``.  The line before it records the environment.  A wrong
result exits 1 (after the result line); a missing program or a wrapped
layer that a workload never reached exits 2 without a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from procs import ROOT, BenchmarkError, child_env, ingest, run_child, run_repro  # noqa: E402
from tracer import Tracer, dead, per_session  # noqa: E402

MIN_INVOCATIONS = 3


def calibrate() -> dict:
    """Pure-Python and numpy microloops, recorded beside the metrics only."""

    def best(fn, reps: int = 5) -> float:
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    record = {"calib_py_ms": 1e3 * best(lambda: sum(i * i for i in range(300_000)))}
    try:
        import numpy
    except ImportError:
        record["numpy"] = None
        record["calib_np_ms"] = None
        return record
    values = numpy.random.default_rng(0).integers(0, 1 << 40, 1_000_000)
    record["numpy"] = numpy.__version__
    record["calib_np_ms"] = 1e3 * best(lambda: numpy.sort(values))
    return record


def probe(env: dict) -> str:
    """Import the checkout's program in a fresh process; return its backend."""
    done = run_child(
        [
            sys.executable,
            "-c",
            "import repro; from repro.relational.backend import resolve_backend; "
            "print(resolve_backend(None)); print(repro.__file__)",
        ],
        env,
        capture=True,
    )
    src = ROOT / "src"
    lines = done.stdout.split()
    if done.code != 0 or len(lines) != 2 or not Path(lines[1]).is_relative_to(src):
        raise BenchmarkError(f"cannot import repro from {src}")
    return lines[0]


def invocations(args, oracle, workdir: Path, env: dict, seconds: float, trace: bool) -> dict:
    """Closed loop of ``repro run`` invocations, each checked against the oracle.

    With ``trace`` the invocations alternate untraced and traced; the
    reported numbers come from the traced ones.
    """
    tracer = Tracer()
    runs = {False: [], True: []}
    problems = []
    attempted = failed = 0
    begin = last = time.perf_counter()
    # Stop before an invocation that would likely end past ``seconds``.
    while len(runs[trace]) < MIN_INVOCATIONS or (
        2 * time.perf_counter() - last - begin < seconds
    ):
        last = time.perf_counter()
        traced = trace and attempted % 2 == 1
        out = workdir / f"out{attempted}"
        done = run_repro(
            [*args, "--out", str(out)],
            env,
            tracer if traced else None,
            workdir / f"trace{attempted}.json",
        )
        attempted += 1
        if done.code != 0:
            failed += 1
            problems.append(f"invocation {attempted} exited with {done.code}")
            if failed >= MIN_INVOCATIONS:
                break
            continue
        rows = inputs.read_result_csv(out / "Q.csv")
        if rows != oracle:
            failed += 1
            problems.append(
                f"invocation {attempted}: {len(rows)} rows, oracle {len(oracle)}"
            )
        runs[traced].append(done)
        shutil.rmtree(out, ignore_errors=True)
    measured = runs[trace]
    if not measured:
        raise BenchmarkError("; ".join(problems[:3]))
    # Means, not medians: the machine's speed drifts in phases of tens of
    # seconds, and a mean over the whole run averages them where a median
    # of a few invocations jumps between them.
    wall = statistics.fmean(d.wall_s for d in measured)
    report = {
        "wall_s": wall,
        "cpu_s": statistics.fmean(d.cpu_s for d in measured),
        "peak_rss_mb": statistics.median(d.peak_rss_mb for d in measured),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "layer": {},
        "tracers": [tracer],
        "note": f"{len(measured)} invocations",
    }
    if trace:
        base = statistics.fmean(d.wall_s for d in runs[False])
        report["overhead_s"] = wall - base
        report["overhead_base_s"] = base
    return report


def panda_dir(workdir: Path, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    edges = inputs.random_digraph(seed)
    inputs.write_triangle_csvs(workdir / "csv", edges)
    oracle = inputs.directed_triangles(edges)
    setup_tracer = Tracer()
    setup = [
        ingest(workdir / "csv", workdir / f"db{rep}", env, setup_tracer if trace else None)
        for rep in range(inputs.SETUP_REPS)
    ]
    report = invocations(
        ["run", inputs.TRIANGLE, "--data-dir", str(workdir / f"db{inputs.SETUP_REPS - 1}")],
        oracle, workdir, env, seconds, trace,
    )
    report["setup_s"] = statistics.median(setup)
    report["tracers"].append(setup_tracer)
    return report


def in_worker(workload: str, workdir: Path, seconds: float, trace: bool, env: dict) -> dict:
    """Run ``worker.py`` in a fresh process and return its report."""
    done = run_child(
        [sys.executable, str(HERE / "worker.py"), workload, str(workdir),
         repr(seconds), "1" if trace else "0"],
        env,
        capture=True,
    )
    if done.code != 0:
        raise BenchmarkError(f"{workload} worker exited with {done.code}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["tracers"] = [
        Tracer.load(workdir / "trace-setup.json"),
        Tracer.load(workdir / "trace-timed.json"),
    ]
    return report


def serve_mix(workdir: Path, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    rng = random.Random(seed)
    relations = inputs.serve_relations(rng)
    (workdir / "csv").mkdir()
    for name, schema in inputs.TRIANGLE_SCHEMAS.items():
        inputs.write_csv(workdir / "csv" / f"{name}.csv", schema, relations[name])
    schedule = inputs.serve_schedule(rng, relations, int(seconds * inputs.SERVE_RATE))
    (workdir / "inputs.json").write_text(json.dumps({"schedule": schedule}))
    # Writing the served directory is input preparation, not set-up.
    ingest_tracer = Tracer()
    ingest(workdir / "csv", workdir / "db", env, ingest_tracer if trace else None)
    report = in_worker("serve-mix", workdir, seconds, trace, env)
    report["tracers"].append(ingest_tracer)
    return report


def datalog_tc(workdir: Path, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    rng = random.Random(seed)
    edges = inputs.tc_edges(rng)
    batches = inputs.tc_batches(rng, edges)
    (workdir / "csv").mkdir()
    inputs.write_csv(workdir / "csv" / "edge.csv", ("src", "dst"), edges)
    (workdir / "inputs.json").write_text(json.dumps({"edges": edges, "batches": batches}))
    return in_worker("datalog-tc", workdir, seconds, trace, env)


WORKLOADS = {
    "panda-dir": panda_dir,
    "serve-mix": serve_mix,
    "datalog-tc": datalog_tc,
}


def per_layer(report: dict, env_record: dict) -> dict:
    """The per-layer metrics of one traced run, per set-up plus per session.

    Metrics a workload never touches read 0.
    """
    tracers = report["tracers"]
    sec, calls, counts, maxima = per_session(tracers)
    imports = sum(t.calls.get("cli.import", 0) for t in tracers)
    values = {
        "cli.import_s": sum(t.seconds.get("cli.import", 0.0) for t in tracers) / imports,
        "io.load_s": sec.get("io.load", 0.0),
        "io.rows": counts.get("io.load.rows", 0),
        "storage.open_s": sec.get("storage.open", 0.0),
        "storage.save_s": sec.get("storage.save", 0.0),
        "storage.bytes_written": counts.get("storage.bytes_written", 0),
        "columns.build_s": sec.get("columns.build", 0.0),
        "planner.plan_s": sec.get("planner.plan", 0.0),
        "planner.hits": counts.get("planner.hits", 0),
        "planner.misses": counts.get("planner.misses", 0),
        "panda.run_s": sec.get("panda.run", 0.0),
        "panda.max_intermediate": maxima.get("panda.max_intermediate", 0),
        "panda.budget": maxima.get("panda.budget", 0),
        "execution.join_s": sec.get("execution.join", 0.0),
        "work.tuples_scanned": counts.get("work.tuples_scanned", 0),
        "work.tuples_emitted": counts.get("work.tuples_emitted", 0),
        "ivm.refresh_s": sec.get("ivm.refresh", 0.0),
        "ivm.delta_term_s": sec.get("ivm.delta_term", 0.0),
        "ivm.delta_terms": calls.get("ivm.delta_term", 0),
        "ivm.delta_rows": counts.get("ivm.delta_term.rows", 0),
        "ivm.compactions": calls.get("ivm.compact", 0),
        "ivm.compact_s": sec.get("ivm.compact", 0.0),
        "serving.publish_s": sec.get("serving.publish", 0.0),
        "serving.pins": calls.get("serving.pin", 0),
        "datalog.execute_s": sec.get("datalog.execute", 0.0),
        "datalog.stratum_s": sec.get("datalog.stratum", 0.0),
    }
    lookups = values["planner.hits"] + values["planner.misses"]
    values["planner.hit_rate"] = values["planner.hits"] / lookups if lookups else 0.0
    scanned = values["work.tuples_scanned"]
    values["work.emit_ratio"] = values["work.tuples_emitted"] / scanned if scanned else 0.0
    for op in ("semijoin", "union", "join", "project", "partition"):
        values[f"operators.{op}_s"] = sec.get(f"operators.{op}", 0.0)
        values[f"operators.{op}_rows_out"] = counts.get(f"operators.{op}.rows", 0)
    values.update(report["layer"])
    values["fail_share"] = report["failed"] / report["attempted"]
    values["trace.overhead_s"] = report.get("overhead_s", 0.0)
    base = report.get("overhead_base_s")
    values["trace.overhead_share"] = report["overhead_s"] / base if base else 0.0
    values["env.calib_py_ms"] = env_record["calib_py_ms"]
    values["env.calib_np_ms"] = env_record["calib_np_ms"] or 0.0
    values["env.loadavg_1m"] = env_record["loadavg_1m"]
    return values


def _terminate(signum, _frame):
    # SIGTERM unwinds like an exception, so child processes are killed too.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = args.trace == 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = child_env(args.seed)
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        env_record = {
            "seed": args.seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "loadavg_1m": os.getloadavg()[0],
            **calibrate(),
        }
        env_record["backend"] = probe(env)
        print(json.dumps({"env": env_record}), flush=True)
        report = WORKLOADS[args.workload](workdir, args.seed, args.seconds, trace, env)
        if trace:
            unreached = dead(args.workload, report["tracers"])
            if unreached:
                raise BenchmarkError(
                    f"wrapped layers never called on {args.workload}: {', '.join(unreached)}"
                )
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if trace:
        values = per_layer(report, env_record)
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": report[m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    correct = not report["problems"]
    for problem in report["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload}: {report['note']}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
