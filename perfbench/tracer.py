"""Per-layer tracing from the benchmark's own code.

:class:`Tracer` replaces each layer's public functions and methods with
timing wrappers for the duration of a traced run and restores them after.
Nothing under ``src/`` changes.  A module that did ``from x import f``
holds its own binding of ``f``, so every loaded ``repro`` module's globals
are searched and each binding of a wrapped function is replaced too; a
binding the search misses shows up as a zero call count, which
:func:`dead` reports so the run can fail instead of printing zeros.

Times are inclusive and counted once per outermost call on each thread
(recursive calls of the same function are counted as calls, not timed
twice).  Counters merge across processes through :meth:`dump` and
:meth:`merge`.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager

#: (key, module, attribute) — attribute ``Class.method`` wraps a method.
TARGETS = (
    ("io.load", "repro.relational.io", "load_relation_csv"),
    ("storage.open", "repro.relational.storage", "open_database_dir"),
    ("storage.save", "repro.relational.storage", "save_database_dir"),
    ("columns.build", "repro.relational.relation", "Relation.column_set"),
    ("planner.plan", "repro.planner.engine", "Planner.plan_rule"),
    ("panda.run", "repro.core.panda", "panda"),
    ("panda.dasubw", "repro.core.query_plans", "dasubw_plan"),
    ("operators.semijoin", "repro.relational.operators", "semijoin"),
    ("operators.union", "repro.relational.operators", "union"),
    ("operators.join", "repro.relational.operators", "natural_join"),
    ("operators.project", "repro.relational.operators", "project"),
    ("operators.partition", "repro.relational.operators", "heavy_light_partition"),
    ("execution.join", "repro.relational.execution", "execute_join"),
    ("work.scope", "repro.relational.operators", "scoped_work_counter"),
    ("ivm.refresh", "repro.incremental.engine", "IncrementalQueryEngine.refresh"),
    ("ivm.delta_term", "repro.incremental.ivm", "execute_delta_term"),
    ("ivm.compact", "repro.incremental.delta", "VersionedRelation.compact"),
    ("serving.publish", "repro.serving.snapshot", "SnapshotRegistry.publish"),
    ("serving.pin", "repro.serving.snapshot", "SnapshotRegistry.pin"),
    ("datalog.execute", "repro.datalog.engine", "DatalogEngine.execute"),
    ("datalog.stratum", "repro.datalog.fixpoint", "run_stratum"),
)

#: Wrapped calls each workload must make (liveness check).
LIVE = {
    "panda-dir": (
        "io.load", "storage.save", "storage.open", "columns.build",
        "planner.plan", "panda.run", "panda.dasubw", "operators.semijoin",
        "operators.union", "operators.join", "operators.partition",
        "work.scope",
    ),
    "serve-mix": (
        "io.load", "storage.save", "storage.open", "columns.build",
        "execution.join", "work.scope", "ivm.refresh", "ivm.delta_term",
        "ivm.compact", "serving.publish", "serving.pin",
    ),
    "datalog-tc": (
        "io.load", "storage.save", "storage.open", "columns.build",
        "execution.join", "work.scope", "ivm.delta_term",
        "datalog.execute", "datalog.stratum",
    ),
}


def _resolve(module_name: str, attribute: str):
    module = importlib.import_module(module_name)
    owner_name, _, name = attribute.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, name, owner.__dict__[name]


class Tracer:
    """Call counts, inclusive seconds and per-layer counters by key."""

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.seconds: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.maxima: dict = defaultdict(float)
        self.durations: dict = defaultdict(list)
        self.sessions = 0  #: set-ups or timed sessions these counters cover
        self._depth = threading.local()
        self._lock = threading.Lock()
        self._patches: list = []

    # -- recording --------------------------------------------------------------

    def _enter(self, key: str) -> bool:
        depth = getattr(self._depth, key, 0)
        setattr(self._depth, key, depth + 1)
        with self._lock:
            self.calls[key] += 1
        return depth == 0

    def _exit(self, key: str, outer: bool, elapsed: float) -> None:
        setattr(self._depth, key, getattr(self._depth, key) - 1)
        if outer:
            with self._lock:
                self.seconds[key] += elapsed
                if key == "ivm.refresh":
                    self.durations[key].append(elapsed)

    def _observe(self, key: str, args, result, before) -> None:
        with self._lock:
            self._count(key, args, result, before)

    def _count(self, key: str, args, result, before) -> None:
        """Layer-specific counters read off a call's arguments and result."""
        if key in ("io.load", "ivm.delta_term") or key.startswith("operators."):
            if key == "operators.partition":
                rows = sum(len(piece.relation) for piece in result)
            else:
                rows = len(result)
            self.counts[key + ".rows"] += rows
        elif key == "panda.run":
            self.maxima["panda.max_intermediate"] = max(
                self.maxima["panda.max_intermediate"],
                result.stats.max_intermediate,
            )
            self.maxima["panda.budget"] = max(
                self.maxima["panda.budget"], result.budget
            )
        elif key == "planner.plan":
            stats = args[0].stats
            self.counts["planner.hits"] += stats.hits - before[0]
            self.counts["planner.misses"] += stats.misses - before[1]
        elif key == "storage.save":
            self.counts["storage.bytes_written"] += sum(
                path.stat().st_size for path in result.rglob("*") if path.is_file()
            )

    def _wrap(self, key: str, original):
        tracer = self
        clock = time.perf_counter

        if key == "work.scope":
            @contextmanager
            def scoped(counter=None):
                outer = tracer._enter(key)
                start = clock()
                try:
                    with original(counter) as active:
                        yield active
                finally:
                    tracer._exit(key, outer, clock() - start)
                if outer:
                    tracer.counts["work.tuples_scanned"] += active.tuples_scanned
                    tracer.counts["work.tuples_emitted"] += active.tuples_emitted

            return scoped

        def wrapper(*args, **kwargs):
            before = None
            if key == "planner.plan":
                before = (args[0].stats.hits, args[0].stats.misses)
            outer = tracer._enter(key)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(key, outer, clock() - start)
            tracer._observe(key, args, result, before)
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", key)
        return wrapper

    # -- installation -----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every target, including ``from x import f`` bindings."""
        originals = {}
        for key, module_name, attribute in TARGETS:
            owner, name, original = _resolve(module_name, attribute)
            wrapper = self._wrap(key, original)
            self._patches.append((owner, name, original))
            setattr(owner, name, wrapper)
            if isinstance(owner, types.ModuleType):
                originals[id(original)] = (original, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for name, value in list(namespace.items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, name, value))
                    namespace[name] = hit[1]
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- reporting ---------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "sessions": self.sessions,
                    "calls": self.calls,
                    "seconds": self.seconds,
                    "counts": self.counts,
                    "maxima": self.maxima,
                    "durations": self.durations,
                },
                handle,
            )

    def merge(self, path) -> None:
        """Add the counters (and sessions) that :meth:`dump` wrote."""
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        self.sessions += data["sessions"]
        for key, value in data["calls"].items():
            self.calls[key] += value
        for key, value in data["seconds"].items():
            self.seconds[key] += value
        for key, value in data["counts"].items():
            self.counts[key] += value
        for key, value in data["maxima"].items():
            self.maxima[key] = max(self.maxima[key], value)
        for key, value in data["durations"].items():
            self.durations[key].extend(value)

    @classmethod
    def load(cls, path) -> "Tracer":
        tracer = cls()
        tracer.merge(path)
        return tracer


def dead(workload: str, tracers) -> list:
    """Wrapped functions the workload must call but none of ``tracers`` saw."""
    return [
        key for key in LIVE[workload]
        if not any(tracer.calls.get(key, 0) for tracer in tracers)
    ]


def per_session(tracers) -> tuple[dict, dict, dict, dict]:
    """Seconds, calls, counts and maxima, each tracer divided by its sessions.

    A run keeps one tracer per phase (set-up, timed); the sum of their
    per-session figures is what one set-up plus one timed session costs.
    """
    seconds: dict = defaultdict(float)
    calls: dict = defaultdict(float)
    counts: dict = defaultdict(float)
    maxima: dict = defaultdict(float)
    for tracer in tracers:
        if not tracer.sessions:
            continue
        for key, value in tracer.seconds.items():
            seconds[key] += value / tracer.sessions
        for key, value in tracer.calls.items():
            calls[key] += value / tracer.sessions
        for key, value in tracer.counts.items():
            counts[key] += value / tracer.sessions
        for key, value in tracer.maxima.items():
            maxima[key] = max(maxima[key], value)
    return seconds, calls, counts, maxima
