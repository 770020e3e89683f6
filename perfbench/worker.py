"""The in-process workloads, each run in a fresh interpreter.

Usage: ``python perfbench/worker.py <serve-mix|datalog-tc> <workdir>
<seconds> <trace 0|1>``, with ``src`` on ``PYTHONPATH``.  ``run.py`` writes
the inputs into ``workdir`` first (``inputs.json`` plus the persisted
database directories) and reads this process's one-line JSON report.

The reported ``peak_rss_mb`` is this process's maximum RSS at the end of
the timed phase, before the result checks allocate anything.

With trace 1 the timed phase alternates untraced and traced halves (two
schedule halves for ``serve-mix``, alternate passes for ``datalog-tc``):
per-layer numbers come from the traced halves and the difference between
the halves is the tracing overhead.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
from bisect import bisect_left
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from procs import child_env, ingest  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Latency limits for goodput: a request over its limit, or shed, misses.
READ_LIMIT_S = 0.050
COMMIT_LIMIT_S = 0.250


def tail(samples, beyond: int = 10):
    """The highest nearest-rank percentile with ``beyond`` samples above it."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    return ordered[max(0, len(ordered) - 1 - beyond)]


def peak_rss_mb() -> float:
    """This process's maximum RSS so far (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_name(count: int, beyond: int = 10) -> str:
    return f"p{100 * (count - beyond) // count}" if count > beyond else "max"


# -- serve-mix --------------------------------------------------------------------


def _open_serving(directory: Path):
    from repro.datalog.atoms import Atom
    from repro.datalog.conjunctive import ConjunctiveQuery
    from repro.relational.storage import open_database_dir
    from repro.serving import ServingEngine

    query = ConjunctiveQuery.full(
        tuple(Atom(name, schema) for name, schema in inputs.TRIANGLE_SCHEMAS.items()),
        name="Q",
    )
    database = open_database_dir(directory)
    # Compaction at 2 % of the base puts it on the commit path a few times
    # a run; the in-flight cap leaves room for a commit-long burst of reads.
    engine = ServingEngine(
        query, readers=2, compact_ratio=0.02, max_inflight_reads=64
    )
    engine.execute(database)
    return query, engine


def _count_key(key: int):
    """A snapshot read: the view's digest and its row count for ``A = key``.

    The view's canonical rows are sorted in schema order ``(A, B, C)``, so
    the count is two binary searches; the digest is computed once per view
    and cached.
    """

    def read(snapshot):
        view = snapshot.result().relation
        rows = view.code_rows
        code = view.encode_key(("A",), (key,))
        count = 0
        if code is not None:
            count = bisect_left(rows, (code[0] + 1,)) - bisect_left(rows, code)
        return snapshot.epoch, view.column_set(view.schema).content_digest(), count

    return read


def _run_schedule(engine, schedule, records: dict) -> None:
    """Send ``schedule`` open-loop: request ``i`` is due ``i / rate`` from now.

    Latency runs from each request's due time to its completion, so a
    stall also charges the requests queued behind it.  ``records["busy"]``
    is the writer's busy time: the single writer applies batches in
    submission order, so each commit occupies it from its submission (or
    the previous commit's completion, if later) to its completion.
    """
    from repro.exceptions import OverloadError

    rate = inputs.SERVE_RATE
    clock = time.perf_counter
    pending = []
    start = clock()
    for index, (kind, payload) in enumerate(schedule):
        due = start + index / rate
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        sent = clock()
        records["late"].append(max(0.0, sent - due))
        try:
            if kind == "read":
                future = engine.read(_count_key(payload))
            else:
                future = engine.submit(payload)
        except OverloadError:
            records["shed"] += 1
            continue
        done = {}
        future.add_done_callback(lambda _f, done=done: done.setdefault("t", clock()))
        pending.append((kind, due, sent, future, done))
    free = start
    records["busy"] = 0.0
    for kind, due, sent, future, done in pending:
        try:
            value = future.result(timeout=120)
        except Exception as error:  # a failed request, reported as such
            records["errors"].append(f"{kind}: {error!r}")
            continue
        records[kind].append(done["t"] - due)
        if kind == "read":
            records["reads"].append(value)
        else:
            records["busy"] += done["t"] - max(sent, free)
            free = done["t"]
    engine.drain()


def serve_mix(workdir: Path, seconds: float, trace: bool) -> dict:
    from repro.relational import generic_join, operators

    setup_tracer, tracer = Tracer(), Tracer()
    setup = []
    engine = None
    for _ in range(inputs.SETUP_REPS):
        if engine is not None:
            # Drop the closed engine before opening the next, so set-up
            # never holds two materialised engines at once.
            engine.close()
            engine = None
            gc.collect()
        with traced(setup_tracer, trace), operators.scoped_work_counter():
            start = time.perf_counter()
            query, engine = _open_serving(workdir / "db")
            setup.append(time.perf_counter() - start)

    spec = json.loads((workdir / "inputs.json").read_text())
    schedule = [
        (kind, {n: (list(map(tuple, i)), list(map(tuple, d))) for n, (i, d) in payload.items()}
         if kind == "write" else payload)
        for kind, payload in spec["schedule"]
    ]
    halves = [schedule] if not trace else [
        schedule[: len(schedule) // 2], schedule[len(schedule) // 2:]
    ]
    phases = []
    for number, half in enumerate(halves):
        records = {"read": [], "write": [], "late": [], "reads": [], "errors": [], "shed": 0}
        with traced(tracer, trace and number == 1):
            cpu = time.process_time()
            _run_schedule(engine, half, records)
            records["cpu"] = time.process_time() - cpu
        records["requests"] = len(half)
        phases.append(records)
    peak = peak_rss_mb()
    metrics = engine.metrics()

    # Checks, outside the timed region: one digest per epoch across all
    # reads, and the final view equals a from-scratch Generic Join.
    by_epoch: dict = {}
    for records in phases:
        for epoch, digest, _count in records["reads"]:
            by_epoch.setdefault(epoch, set()).add(digest)
    torn = sorted(epoch for epoch, digests in by_epoch.items() if len(digests) > 1)
    final = engine.read().result().relation
    bindings = [atom.bind(engine.database()) for atom in query.body]
    exact = final.code_rows == generic_join(bindings, final.schema).code_rows
    engine.close()

    measured = phases[-1]
    reads, writes = measured["read"], measured["write"]
    errors = [e for p in phases for e in p["errors"]]
    in_limit = sum(1 for x in reads if x <= READ_LIMIT_S) + sum(
        1 for x in writes if x <= COMMIT_LIMIT_S
    )
    problems = [f"torn reads at epochs {torn[:5]}"] if torn else []
    if not exact:
        problems.append("final served view differs from a from-scratch join")
    report = {
        "setup_s": statistics.median(setup),
        # The schedule fixes its own length, so the wall time the program
        # controls is the writer's: the sum of its commit times.
        "wall_s": measured["busy"],
        "cpu_s": measured["cpu"],
        "peak_rss_mb": peak,
        "attempted": len(schedule),
        "failed": (
            sum(p["shed"] for p in phases) + len(errors) + len(torn) + (0 if exact else 1)
        ),
        "problems": problems + errors[:5],
        "layer": {
            "serve.read_p50_ms": 1e3 * statistics.median(reads),
            "serve.read_tail_ms": 1e3 * tail(reads),
            "serve.commit_p50_ms": 1e3 * statistics.median(writes),
            "serve.commit_tail_ms": 1e3 * tail(writes),
            "serve.goodput_rps": in_limit * inputs.SERVE_RATE / measured["requests"],
            "serving.reads_shed": metrics["admission"]["reads_shed"],
            "serving.writes_shed": metrics["admission"]["writes_shed"],
            "serving.epoch_spread_max": metrics["epoch_spread"]["max"],
            "serving.generator_late_ms": 1e3 * max(measured["late"]),
        },
        "note": (
            f"{len(reads)} reads (tail = {percentile_name(len(reads))}), "
            f"{len(writes)} commits (tail = {percentile_name(len(writes))})"
        ),
        "tracers": [setup_tracer, tracer],
    }
    if trace:
        tracer.sessions = 1
        setup_tracer.sessions = inputs.SETUP_REPS
        # The writer applies batches in submission order, one refresh each.
        refresh = tracer.durations.get("ivm.refresh", [])
        waits = [max(0.0, w - r) for w, r in zip(writes, refresh)]
        report["layer"]["serving.queue_wait_ms"] = (
            1e3 * statistics.median(waits) if waits else 0.0
        )
        # CPU per request at a fixed offered rate: traced minus untraced half.
        per_request = [p["cpu"] / p["requests"] for p in phases]
        report["overhead_s"] = (per_request[1] - per_request[0]) * len(schedule)
        report["overhead_base_s"] = per_request[0] * len(schedule)
    return report


# -- datalog-tc ---------------------------------------------------------------------


def datalog_tc(workdir: Path, seconds: float, trace: bool) -> dict:
    from repro.datalog.engine import DatalogEngine
    from repro.datalog.parser import parse_program
    from repro.relational import operators, storage

    spec = json.loads((workdir / "inputs.json").read_text())
    env = child_env(int(os.environ.get("PYTHONHASHSEED", "0")))
    setup_tracer, tracer = Tracer(), Tracer()
    setup = []
    database = engine = None
    for rep in range(inputs.SETUP_REPS):
        directory = workdir / f"db{rep}"
        if engine is not None:
            engine.close()
            database = engine = None
            gc.collect()
        with traced(setup_tracer, trace):
            start = time.perf_counter()
            ingest(workdir / "csv", directory, env, setup_tracer if trace else None)
            database = storage.open_database_dir(directory)
            engine = DatalogEngine(parse_program(inputs.TC_PROGRAM))
            setup.append(time.perf_counter() - start)

    batches = [(k, list(map(tuple, i)), list(map(tuple, d))) for k, i, d in spec["batches"]]
    closed_form = inputs.tc_closed_form()
    problems = []
    # Per pass, (wall, cpu) of each step: the fixpoint, then each batch.
    passes = {False: [], True: []}
    attempted = 0
    begin = last = time.perf_counter()
    # Stop before a pass that would likely end past ``seconds``.
    while len(passes[trace]) < 2 or 2 * time.perf_counter() - last - begin < seconds:
        last = time.perf_counter()
        traced_pass = trace and len(passes[False]) > len(passes[True])
        steps = []
        with traced(tracer, traced_pass), operators.scoped_work_counter():
            engine.bind(database)
            t0, c0 = time.perf_counter(), time.process_time()
            result = engine.execute(database)
            steps.append((time.perf_counter() - t0, time.process_time() - c0))
            attempted += 1
            if len(result["tc"]) != closed_form:
                problems.append(
                    f"fixpoint: {len(result['tc'])} pairs, closed form {closed_form}"
                )
            for _kind, ins, dels in batches:
                t0, c0 = time.perf_counter(), time.process_time()
                engine.insert("edge", ins)
                engine.delete("edge", dels)
                result = engine.refresh()
                steps.append((time.perf_counter() - t0, time.process_time() - c0))
                attempted += 1
        passes[traced_pass].append(steps)
    peak = peak_rss_mb()
    stats = engine.stats

    # Outside the timed region: the maintained closure after the last batch
    # against a stdlib closure of the final edge set.
    live = {tuple(e) for e in spec["edges"]}
    for _kind, ins, dels in batches:
        live.update(ins)
        live.difference_update(dels)
    if result["tc"].tuples != inputs.reachable_pairs(live):
        problems.append("maintained closure differs from the closure oracle")
    engine.close()

    def mean_pass(runs, field):
        """A pass's time (fixpoint plus every batch), averaged over passes."""
        return statistics.fmean(sum(step[field] for step in steps) for steps in runs)

    timed = passes[trace]
    inserts = [1e3 * steps[k][0] for steps in timed for k, (kind, _, _) in enumerate(batches, 1) if kind == "insert"]
    deletes = [1e3 * steps[k][0] for steps in timed for k, (kind, _, _) in enumerate(batches, 1) if kind == "delete"]
    report = {
        "setup_s": statistics.median(setup),
        "wall_s": mean_pass(timed, 0),
        "cpu_s": mean_pass(timed, 1),
        "peak_rss_mb": peak,
        "attempted": attempted,
        "failed": len(problems),
        "problems": problems,
        "layer": {
            "datalog.fixpoint_s": statistics.median(steps[0][0] for steps in timed),
            "datalog.maintain_insert_ms": statistics.median(inserts),
            "datalog.maintain_delete_ms": statistics.median(deletes),
            # FixpointStats covers the last pass (bind resets it).
            "datalog.rounds": stats.rounds,
            "datalog.delta_terms": stats.delta_terms,
            "datalog.derived_rows": stats.derived_rows,
            "datalog.continuations": stats.continuations,
            "datalog.recomputes": stats.recomputes,
        },
        "note": f"{len(timed)} passes of fixpoint + {inputs.TC_PATTERN}",
        "tracers": [setup_tracer, tracer],
    }
    if trace:
        tracer.sessions = len(timed)
        setup_tracer.sessions = inputs.SETUP_REPS
        base = mean_pass(passes[False], 0)
        report["overhead_s"] = report["wall_s"] - base
        report["overhead_base_s"] = base
    return report


@contextmanager
def traced(tracer: Tracer, enabled: bool):
    """Install ``tracer`` around the body when ``enabled``."""
    if not enabled:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


WORKLOADS = {"serve-mix": serve_mix, "datalog-tc": datalog_tc}


def main(argv) -> int:
    workload, workdir, seconds, trace = argv[0], Path(argv[1]), float(argv[2]), argv[3] == "1"
    start = time.perf_counter()
    import repro.cli  # noqa: F401  (timed: a fresh import of the CLI layer)

    import_s = time.perf_counter() - start
    report = WORKLOADS[workload](workdir, seconds, trace)
    setup_tracer, tracer = report.pop("tracers")
    tracer.seconds["cli.import"] += import_s
    tracer.calls["cli.import"] += 1
    setup_tracer.dump(workdir / "trace-setup.json")
    tracer.dump(workdir / "trace-timed.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
