"""Vectorized block backend vs the interpreted driver at 10^5 tuples.

The PR-6 perf gate: the numpy block executor
(:mod:`repro.relational.vectorized`) must run the triangle and 4-cycle
joins at least ``VEC_MIN_SPEEDUP``× (default 5×) faster than the
tuple-at-a-time interpreted driver on 10^5-tuple sparse random digraphs,
with every output cross-checked bit-identical and the ``tuples_emitted``
counters equal.

A third arm runs the whole da-subw plan (Cor. 7.13, i.e. PANDA plus its
semijoin reductions and unions) on the triangle under both backends: it
gates the block paths of PANDA's operators — semijoin, union and the
Lemma 6.1 partition — at ``DASUBW_MIN_SPEEDUP``× (2×; measured ~11×).

Instance choice: sparse Erdős–Rényi digraphs (2·10^4 nodes, 10^5 edges,
mean degree 5).  Every trie node is distinct, so the interpreted driver's
per-node memo cannot collapse the walk and both engines do the full
intersection work — the regime the backends actually differ in.  Dense
block instances are deliberately *not* gated here: on those both engines
are bottlenecked on emitting the multi-million-row output, which the
engine-vs-seed bench (``bench_wcoj_baseline.py``, pinned to the
interpreted backend) already tracks.

The relations are rebuilt per rep but their sorted code columns are built
*outside* the timed region: the columnar transpose is a one-time,
backend-independent ingest cost, and both backends start from the same
warm columns — the measurement isolates the execution kernels.
"""

import gc
import json
import os
import random
import time

from repro.core.query_plans import dasubw_plan
from repro.datalog import parse_query
from repro.relational import (
    Database,
    Relation,
    generic_join,
    leapfrog_triejoin,
    scoped_work_counter,
)
from repro.relational.backend import have_numpy, scoped_backend

from _bench_utils import artifact_path, print_table

import pytest

pytestmark = pytest.mark.skipif(
    not have_numpy(), reason="the vectorized backend needs numpy"
)


def _random_edges(n_nodes, n_edges, seed):
    rng = random.Random(seed)
    edges = set()
    while len(edges) < n_edges:
        edges.add((rng.randrange(n_nodes), rng.randrange(n_nodes)))
    return sorted(edges)


def _triangle_spec(rows):
    return [("R", ("A", "B"), rows), ("S", ("B", "C"), rows), ("T", ("A", "C"), rows)]


def _cycle4_spec(rows):
    names = [("R1", ("A", "B")), ("R2", ("B", "C")), ("R3", ("C", "D")), ("R4", ("D", "A"))]
    return [(name, attrs, rows) for name, attrs in names]


TRIANGLE = parse_query("Q(A,B,C) :- R(A,B), S(B,C), T(A,C)")

#: Floor of the da-subw arm (the PANDA operators' block paths).
DASUBW_MIN_SPEEDUP = 2.0


def dasubw(relations, order):
    """The da-subw plan of the triangle over ``relations`` (PANDA arm)."""
    return dasubw_plan(TRIANGLE, Database(relations)).relation


def _best_time(fn, spec, order, backend, reps):
    """Best-of-``reps`` kernel wall time under ``backend``.

    Relations are rebuilt per rep (no cross-rep trie/memo reuse) and their
    column sets are forced beforehand, so the timed region is exactly the
    join execution.  Returns ``(seconds, result, tuples_emitted)``.
    """
    t_best, out, emitted = float("inf"), None, None
    for _ in range(reps):
        relations = [Relation(name, schema, rows) for name, schema, rows in spec]
        for relation in relations:
            attrs = tuple(v for v in order if v in relation.attributes)
            relation.column_set(attrs).columns
        gc.collect()
        gc.disable()
        try:
            with scoped_backend(backend), scoped_work_counter() as counter:
                start = time.perf_counter()
                result = fn(relations, order)
                elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        if elapsed < t_best:
            t_best, out, emitted = elapsed, result, counter.tuples_emitted
    return t_best, out, emitted


def test_vectorized_vs_interpreted_backend():
    """numpy block kernels ≥5× the interpreted driver at 10^5 tuples.

    Both WCOJ drivers on both query shapes, plus the da-subw plan on the
    triangle: outputs bit-identical (``code_rows`` equality),
    ``tuples_emitted`` equal, and each arm's wall-clock floor asserted on
    every gated leg.  The JSON artifact feeds the perf-trajectory gate.
    """
    min_speedup = float(os.environ.get("VEC_MIN_SPEEDUP", "5.0"))
    reps = 3 if os.environ.get("CI") is None else 2
    wcoj = [("generic_join", generic_join), ("leapfrog", leapfrog_triejoin)]
    instances = [
        (
            "triangle/sparse-random n=2e4 (N=10^5)",
            _triangle_spec(_random_edges(20000, 100000, seed=7)),
            ("A", "B", "C"),
            True,
            wcoj + [("dasubw", dasubw)],
        ),
        (
            "4-cycle/sparse-random n=2e4 (N=10^5)",
            _cycle4_spec(_random_edges(20000, 100000, seed=11)),
            ("A", "B", "C", "D"),
            True,
            wcoj,
        ),
    ]
    floors = {"generic_join": min_speedup, "leapfrog": min_speedup,
              "dasubw": DASUBW_MIN_SPEEDUP}

    report = {"bench": "wcoj_backend_comparison", "results": []}
    rows = []
    for label, spec, order, gated, drivers in instances:
        entry = {"instance": label, "gated": gated}
        row = [label]
        for arm, fn in drivers:
            t_int, out_int, emitted_int = _best_time(
                fn, spec, order, "interpreted", reps
            )
            t_vec, out_vec, emitted_vec = _best_time(
                fn, spec, order, "vectorized", reps
            )
            assert list(out_int.code_rows) == list(out_vec.code_rows), (label, arm)
            assert emitted_int == emitted_vec, (label, arm)
            speedup = t_int / t_vec
            entry["output_size"] = len(out_int)
            entry[arm] = {
                "interpreted_ms": t_int * 1e3,
                "vectorized_ms": t_vec * 1e3,
                "speedup": speedup,
            }
            row += [f"{t_int * 1e3:.0f}", f"{t_vec * 1e3:.0f}", f"{speedup:.1f}x"]
        row += ["-"] * (3 * len(floors) - (len(row) - 1))
        row.insert(1, entry["output_size"])
        report["results"].append(entry)
        rows.append(row)
        if gated:
            for arm, _ in drivers:
                speedup = entry[arm]["speedup"]
                assert speedup >= floors[arm], (
                    f"{label}: {arm} vectorized speedup {speedup:.2f}x "
                    f"< {floors[arm]}x"
                )

    print_table(
        "Vectorized block backend vs interpreted driver",
        ["instance", "output", "int gj ms", "vec gj ms", "gj",
         "int lf ms", "vec lf ms", "lf", "int da ms", "vec da ms", "da"],
        rows,
    )

    json_path = artifact_path(
        "wcoj_backend_comparison.json", os.environ.get("VEC_BENCH_JSON")
    )
    with open(json_path, "w") as handle:
        json.dump(report, handle, indent=2)
    print(f"perf artifact written to {json_path}")
