"""Seeded input generators and stdlib oracles for the benchmark workloads.

Nothing here imports ``repro``: the program under test receives only the
files and request lists these functions produce, and every expected result
is computed independently of it.
"""

from __future__ import annotations

import random
from pathlib import Path

TRIANGLE = "Q(A,B,C) :- R(A,B), S(B,C), T(A,C)"
TRIANGLE_SCHEMAS = {"R": ("A", "B"), "S": ("B", "C"), "T": ("A", "C")}

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3

#: ``panda-dir``: a sparse random digraph.
GRAPH_NODES = 20_000
GRAPH_EDGES = 100_000
GRAPH_MAX_DEGREE = 15

#: ``serve-mix``: uniform rows per relation, average degree 20.
SERVE_ROWS = 100_000
SERVE_DOMAIN = SERVE_ROWS // 20
SERVE_RATE = 200.0  # offered requests per second
SERVE_WRITE_EVERY = 10  # one write batch per ten requests (90/10 mix)
SERVE_BATCH_HALF = 50  # inserts (and deletes) per write batch

#: ``datalog-tc``: transitive closure over layered random matchings.
TC_CHAINS = 400
TC_LAYERS = 26
TC_BATCH_EDGES = 40
#: One maintenance pass after each fixpoint: ``I`` = insert-only batch
#: (continues the fixpoint), ``D`` = delete batch (re-runs the stratum).
TC_PATTERN = "IIDIID"
TC_PROGRAM = "tc(x,y) :- edge(x,y).\ntc(x,z) :- tc(x,y), edge(y,z).\n"


def write_csv(path: Path, schema, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(schema) + "\n")
        handle.writelines(f"{a},{b}\n" for a, b in rows)


def random_digraph(seed: int, nodes: int = GRAPH_NODES, edges: int = GRAPH_EDGES):
    """Sorted distinct directed edges ``(u, v)``, ``u != v``, uniform.

    In- and out-degrees are capped at ``GRAPH_MAX_DEGREE``.  PANDA splits
    each relation into log-degree buckets, and a node of degree 16 or more
    adds a bucket and about a quarter more work; uncapped, about half the
    seeds would have one.  The cap touches a handful of edges per graph.
    """
    rng = random.Random(seed)
    out: set = set()
    out_degree = [0] * nodes
    in_degree = [0] * nodes
    while len(out) < edges:
        u, v = rng.randrange(nodes), rng.randrange(nodes)
        if (
            u != v
            and out_degree[u] < GRAPH_MAX_DEGREE
            and in_degree[v] < GRAPH_MAX_DEGREE
            and (u, v) not in out
        ):
            out.add((u, v))
            out_degree[u] += 1
            in_degree[v] += 1
    return sorted(out)


def write_triangle_csvs(directory: Path, edges) -> None:
    """``R``, ``S`` and ``T`` all hold the same edge set (one CSV each)."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, schema in TRIANGLE_SCHEMAS.items():
        write_csv(directory / f"{name}.csv", schema, edges)


def directed_triangles(edges) -> set:
    """Oracle: every ``(a, b, c)`` with ``a->b``, ``b->c`` and ``a->c``."""
    succ: dict = {}
    for u, v in edges:
        succ.setdefault(u, set()).add(v)
    return {
        (a, b, c)
        for a, b in edges
        for c in succ.get(b, ())
        if c in succ.get(a, ())
    }


def read_result_csv(path: Path) -> set:
    """Result rows keyed by header name, reordered to ``(A, B, C)``."""
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
        index = [header.index(v) for v in ("A", "B", "C")]
        rows = set()
        for line in handle:
            cells = line.strip().split(",")
            if cells != [""]:
                rows.add(tuple(int(cells[i]) for i in index))
    return rows


# -- serve-mix ------------------------------------------------------------------


def serve_relations(rng: random.Random) -> dict:
    relations = {}
    for name in TRIANGLE_SCHEMAS:
        rows: set = set()
        while len(rows) < SERVE_ROWS:
            rows.add((rng.randrange(SERVE_DOMAIN), rng.randrange(SERVE_DOMAIN)))
        relations[name] = sorted(rows)
    return relations


def serve_schedule(rng: random.Random, relations: dict, requests: int) -> list:
    """The open-loop request list: ``("read", key)`` or ``("write", batch)``.

    Request ``i`` is due ``i / SERVE_RATE`` seconds after the start.  Write
    batches rotate over R/S/T; each inserts 50 absent rows and deletes 50
    present ones, valid against the state the batches before it leave.
    """
    live = {name: (list(rows), set(rows)) for name, rows in relations.items()}
    names = sorted(live)
    schedule = []
    writes = 0
    for i in range(requests):
        if i % SERVE_WRITE_EVERY != SERVE_WRITE_EVERY - 1:
            schedule.append(("read", rng.randrange(SERVE_DOMAIN)))
            continue
        name = names[writes % len(names)]
        writes += 1
        rows, present = live[name]
        inserts: set = set()
        while len(inserts) < SERVE_BATCH_HALF:
            row = (rng.randrange(SERVE_DOMAIN), rng.randrange(SERVE_DOMAIN))
            if row not in present:
                inserts.add(row)
        deletes = []
        for index in sorted(rng.sample(range(len(rows)), SERVE_BATCH_HALF), reverse=True):
            rows[index], rows[-1] = rows[-1], rows[index]
            deletes.append(rows.pop())
        present.difference_update(deletes)
        present.update(inserts)
        rows.extend(sorted(inserts))
        schedule.append(("write", {name: (sorted(inserts), sorted(deletes))}))
    return schedule


# -- datalog-tc -----------------------------------------------------------------


def tc_edges(rng: random.Random):
    """Layered random matchings: ``TC_CHAINS`` disjoint chains.

    Node ``layer * TC_CHAINS + slot``; consecutive layers are joined by a
    random perfect matching, so the closure has exactly
    ``TC_CHAINS * TC_LAYERS * (TC_LAYERS - 1) / 2`` pairs.
    """
    slots = list(range(TC_CHAINS))
    perms = []
    for _ in range(TC_LAYERS):
        rng.shuffle(slots)
        perms.append(list(slots))
    return sorted(
        (layer * TC_CHAINS + perms[layer][i], (layer + 1) * TC_CHAINS + perms[layer + 1][i])
        for layer in range(TC_LAYERS - 1)
        for i in range(TC_CHAINS)
    )


def tc_closed_form() -> int:
    return TC_CHAINS * TC_LAYERS * (TC_LAYERS - 1) // 2


def tc_batches(rng: random.Random, edges) -> list:
    """One pass of ``TC_PATTERN`` batches: ``(kind, inserts, deletes)``.

    Inserted edges run from layer ``TC_LAYERS // 3`` to ``2 * TC_LAYERS //
    3`` (the graph stays a DAG, and each new edge adds at most the same
    number of reachable pairs whatever the seed); deleted edges are present
    when their batch applies.
    """
    lo, hi = TC_LAYERS // 3, 2 * TC_LAYERS // 3
    live = set(edges)
    batches = []
    for kind in TC_PATTERN:
        if kind == "I":
            inserts: set = set()
            while len(inserts) < TC_BATCH_EDGES:
                edge = (
                    lo * TC_CHAINS + rng.randrange(TC_CHAINS),
                    hi * TC_CHAINS + rng.randrange(TC_CHAINS),
                )
                if edge not in live:
                    inserts.add(edge)
            live.update(inserts)
            batches.append(("insert", sorted(inserts), []))
        else:
            deletes = rng.sample(sorted(live), TC_BATCH_EDGES)
            live.difference_update(deletes)
            batches.append(("delete", [], sorted(deletes)))
    return batches


def reachable_pairs(edges) -> set:
    """Oracle: every ``(x, y)`` with a non-empty path from ``x`` to ``y``."""
    succ: dict = {}
    for u, v in edges:
        succ.setdefault(u, []).append(v)
    pairs = set()
    for start in succ:
        seen: set = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(succ.get(node, ()))
        pairs.update((start, node) for node in seen)
    return pairs
