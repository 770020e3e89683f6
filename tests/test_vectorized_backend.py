"""Bit-identity and selection tests for the vectorized execution backend.

The contract under test (ROADMAP Architecture layer 9): the numpy block
executor in :mod:`repro.relational.vectorized` is a drop-in for the
interpreted driver — same sorted code rows, same ``tuples_emitted`` — across
every layer that executes joins: the raw WCOJ kernels, the planner drivers,
the partition-parallel pool, the incremental view maintenance, and the FAQ
semiring aggregates over maintained supports.  A numpy-less install must
degrade to the interpreted driver silently, never fail.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import stable_seed

from repro.datalog.atoms import Atom
from repro.datalog.conjunctive import ConjunctiveQuery
from repro.exceptions import QueryError
from repro.faq.semiring import BOOLEAN, COUNTING, FRACTION, MAX_PRODUCT, MIN_PLUS
from repro.incremental import IncrementalQueryEngine
from repro.parallel import ParallelQueryEngine
from repro.planner import QueryEngine
from repro.relational import (
    Database,
    Relation,
    generic_join,
    leapfrog_triejoin,
    scoped_work_counter,
)
from repro.relational import backend as backend_module
from repro.relational.backend import (
    BACKENDS,
    current_backend,
    have_numpy,
    resolve_backend,
    scoped_backend,
)
from repro.relational.operators import (
    _VEC_MIN_ROWS,
    heavy_light_partition,
    semijoin,
    union,
)

requires_numpy = pytest.mark.skipif(
    not have_numpy(), reason="the vectorized backend needs numpy"
)

QUERIES = {
    "triangle": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("A", "C"))],
    "four_cycle": [
        ("R1", ("A", "B")),
        ("R2", ("B", "C")),
        ("R3", ("C", "D")),
        ("R4", ("D", "A")),
    ],
    "path": [("R", ("A", "B")), ("S", ("B", "C")), ("T", ("C", "D"))],
}

SEMIRINGS = [BOOLEAN, COUNTING, FRACTION, MIN_PLUS, MAX_PRODUCT]


def make_query(name):
    atoms = tuple(Atom(rel, attrs) for rel, attrs in QUERIES[name])
    return ConjunctiveQuery.full(atoms, name=name)


def random_rows(rng, n, domain=30):
    return {(rng.randrange(domain), rng.randrange(domain)) for _ in range(n)}


def make_database(query, rng, size=120, domain=30):
    return Database(
        [
            Relation(atom.name, atom.variables, random_rows(rng, size, domain))
            for atom in query.body
        ]
    )


def make_relations(query, rng, size=120, domain=30):
    database = make_database(query, rng, size, domain)
    return [atom.bind(database) for atom in query.body]


def random_batch(engine, rng, name, inserts=8, deletes=5, domain=30):
    current = set(engine.relation(name).tuples)
    engine.insert(name, random_rows(rng, inserts, domain) - current)
    pool = sorted(current)
    if len(pool) >= deletes:
        engine.delete(name, rng.sample(pool, deletes))


# -- backend selection --------------------------------------------------------------


class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(QueryError):
            resolve_backend("simd")
        with pytest.raises(QueryError):
            QueryEngine(make_query("triangle"), execution_backend="simd")

    def test_env_variable_selects(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "interpreted")
        assert resolve_backend(None) == "interpreted"
        assert current_backend() == "interpreted"

    def test_scoped_backend_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "interpreted")
        with scoped_backend("vectorized"):
            expected = "vectorized" if have_numpy() else "interpreted"
            assert current_backend() == expected
        assert current_backend() == "interpreted"

    def test_scoped_none_re_resolves_from_env(self, monkeypatch):
        with scoped_backend("interpreted"):
            monkeypatch.setenv("REPRO_BACKEND", "vectorized")
            with scoped_backend(None):  # what forked pool workers enter
                assert current_backend() in BACKENDS
                assert current_backend() != "interpreted" or not have_numpy()
            assert current_backend() == "interpreted"

    def test_missing_numpy_degrades_to_interpreted(self, monkeypatch):
        """A vectorized request without numpy silently runs interpreted."""
        monkeypatch.setattr(backend_module, "_numpy", None)
        monkeypatch.setattr(backend_module, "_numpy_checked", True)
        assert not have_numpy()
        with scoped_backend("vectorized"):
            assert current_backend() == "interpreted"
            relations = make_relations(
                make_query("triangle"), random.Random(0), size=40, domain=12
            )
            out = generic_join(relations, ("A", "B", "C"))
            assert out.schema == ("A", "B", "C")  # executed, interpreted


# -- kernel-level bit-identity ------------------------------------------------------


@requires_numpy
class TestKernelBitIdentity:
    @pytest.mark.parametrize("query_name", sorted(QUERIES))
    @pytest.mark.parametrize("join", [generic_join, leapfrog_triejoin])
    @pytest.mark.parametrize("seed", range(3))
    def test_join_rows_and_emitted_counter_match(self, query_name, join, seed):
        query = make_query(query_name)
        order = tuple(sorted(query.variable_set))
        relations = make_relations(
            query, random.Random(stable_seed("vec", query_name, seed))
        )
        with scoped_backend("interpreted"), scoped_work_counter() as counter:
            expected = join(relations, order)
            emitted = counter.tuples_emitted
        with scoped_backend("vectorized"), scoped_work_counter() as counter:
            result = join(relations, order)
            assert counter.tuples_emitted == emitted
        assert result.schema == expected.schema
        assert result.code_rows == expected.code_rows
        assert list(result.tuples) == list(expected.tuples)

    def test_empty_input_and_empty_output(self):
        empty = Relation("R", ("A", "B"), [])
        other = Relation("S", ("B", "C"), [(1, 2)])
        for relations in ([empty, other], [other, Relation("T", ("C", "A"), [])]):
            with scoped_backend("vectorized"):
                out = generic_join(relations, ("A", "B", "C"))
            assert len(out) == 0
            assert out.schema == ("A", "B", "C")


# -- generated operator bit-identity ------------------------------------------------

#: Derandomised profile: every run draws the same examples, so a failure
#: reproduces exactly, with no example database to carry between runs.
DERANDOMIZED = settings(
    derandomize=True, database=None, max_examples=40, deadline=None
)

#: Operator input sizes on both sides of the block-path threshold.
SIZES = st.one_of(
    st.integers(0, 40), st.integers(_VEC_MIN_ROWS - 40, 3 * _VEC_MIN_ROWS)
)


def generated_relation(rng, name, schema, size, domain, text=False, skew=1):
    """``size`` random draws over ``schema``; ``skew`` bends the first
    attribute towards small values (heavy ``X``-groups), ``text`` makes the
    values strings, whose value order differs from their numeric one."""

    def value(v):
        return f"v{v}" if text else v

    rows = set()
    for _ in range(size):
        head = int(domain * rng.random() ** skew)
        rows.add(
            (value(head),) + tuple(value(rng.randrange(domain)) for _ in schema[1:])
        )
    return Relation(name, schema, rows)


def run_on_both_backends(op, *args):
    """``op(*args)`` per backend, with the work counters it charged."""
    results = {}
    for backend in BACKENDS:
        with scoped_backend(backend), scoped_work_counter() as counter:
            results[backend] = (op(*args), counter.as_dict())
    return results["interpreted"], results["vectorized"]


def assert_same_relation(expected, result):
    assert result.name == expected.name
    assert result.schema == expected.schema
    assert list(result.code_rows) == list(expected.code_rows)


@requires_numpy
class TestGeneratedOperatorBitIdentity:
    """semijoin / union / Lemma 6.1 partition: the numpy block paths return
    the interpreted rows and charge the same work, on generated inputs."""

    @DERANDOMIZED
    @given(
        seed=st.integers(0, 2**32 - 1),
        shared_count=st.integers(1, 3),
        left_size=SIZES,
        right_size=SIZES,
        domain=st.integers(2, 9),
    )
    def test_semijoin(self, seed, shared_count, left_size, right_size, domain):
        rng = random.Random(seed)
        shared = ["GA", "GB", "GC"][:shared_count]
        left_schema = shared + ["GL"]
        right_schema = shared + ["GR"]
        rng.shuffle(left_schema)
        rng.shuffle(right_schema)
        left = generated_relation(rng, "L", tuple(left_schema), left_size, domain)
        right = generated_relation(rng, "R", tuple(right_schema), right_size, domain)
        (expected, work), (result, vec_work) = run_on_both_backends(
            semijoin, left, right
        )
        assert_same_relation(expected, result)
        assert vec_work == work

    @DERANDOMIZED
    @given(
        seed=st.integers(0, 2**32 - 1),
        arity=st.integers(1, 3),
        left_size=SIZES,
        right_size=SIZES,
        overlap=st.floats(0, 1),
        domain=st.integers(2, 12),
    )
    def test_union(self, seed, arity, left_size, right_size, overlap, domain):
        rng = random.Random(seed)
        schema = ("UA", "UB", "UC")[:arity]
        right_schema = list(schema)
        rng.shuffle(right_schema)
        left = generated_relation(rng, "L", schema, left_size, domain)
        # Part of the right side re-uses left rows (realigned to its order).
        positions = [schema.index(a) for a in right_schema]
        reused = [
            tuple(row[p] for p in positions)
            for row in sorted(left.tuples)
            if rng.random() < overlap
        ]
        fresh = generated_relation(
            rng, "R", tuple(right_schema), right_size, domain
        ).tuples
        right = Relation("R", tuple(right_schema), set(reused) | set(fresh))
        (expected, work), (result, vec_work) = run_on_both_backends(
            union, left, right
        )
        assert_same_relation(expected, result)
        assert vec_work == work

    @DERANDOMIZED
    @given(
        seed=st.integers(0, 2**32 - 1),
        arity=st.integers(2, 3),
        x_count=st.integers(1, 2),
        size=SIZES,
        domain=st.integers(3, 40),
        skew=st.sampled_from([1, 2, 4]),
        text=st.booleans(),
    )
    def test_heavy_light_partition(
        self, seed, arity, x_count, size, domain, skew, text
    ):
        rng = random.Random(seed)
        schema = ("PA", "PB", "PC")[:arity]
        relation = generated_relation(rng, "T", schema, size, domain, text, skew)
        x = rng.sample(schema, min(x_count, arity - 1))
        (expected, work), (result, vec_work) = run_on_both_backends(
            heavy_light_partition, relation, x
        )
        assert len(result) == len(expected)
        for want, got in zip(expected, result):
            assert_same_relation(want.relation, got.relation)
            assert (got.x_count, got.y_degree) == (want.x_count, want.y_degree)
        assert vec_work == work

    def test_composite_keys_survive_overflowing_radix(self):
        """Code ranges whose mixed-radix product overflows int64 still give
        keys that are equal exactly on equal rows and ordered like them."""
        import numpy as np

        from repro.relational.vectorized import composite_keys

        rng = random.Random(stable_seed("composite-keys"))
        big = [1 << 40, 1 << 62, 1 << 62]
        rows = [tuple(rng.choice((0, 7, b - 1)) for b in big) for _ in range(300)]
        half = len(rows) // 2
        blocks = [
            tuple(np.array([row[i] for row in part], dtype=np.int64) for i in range(3))
            for part in (rows[:half], rows[half:])
        ]
        keys = np.concatenate(composite_keys(blocks)).tolist()
        for a in range(0, len(rows), 7):
            for b in range(len(rows)):
                assert (keys[a] == keys[b]) == (rows[a] == rows[b])
                assert (keys[a] < keys[b]) == (rows[a] < rows[b])


# -- engine-level bit-identity ------------------------------------------------------


@requires_numpy
class TestEngineBitIdentity:
    @pytest.mark.parametrize("driver", QueryEngine.DRIVERS)
    def test_planner_drivers_match_across_backends(self, driver):
        query = make_query("triangle")
        order = tuple(sorted(query.variable_set))
        database = make_database(
            query, random.Random(stable_seed("vec-planner", driver))
        )
        reference = None
        for backend in BACKENDS:
            engine = QueryEngine(query, execution_backend=backend)
            rows = engine.execute(database, driver=driver).relation.column_set(
                order
            ).rows
            if reference is None:
                reference = list(rows)
            assert list(rows) == reference, backend

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_pool_matches_across_backends(self, workers):
        query = make_query("four_cycle")
        order = tuple(sorted(query.variable_set))
        database = make_database(
            query, random.Random(stable_seed("vec-pool", workers))
        )
        oracle = generic_join(
            [atom.bind(database) for atom in query.body], order
        )
        for backend in BACKENDS:
            with ParallelQueryEngine(
                query, workers=workers, execution_backend=backend
            ) as engine:
                for driver in ("generic", "leapfrog", "yannakakis", "panda"):
                    result = engine.execute(database, driver=driver)
                    assert result.relation.code_rows == oracle.code_rows, (
                        backend,
                        driver,
                    )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_incremental_batches_match_across_backends(self, workers):
        query = make_query("triangle")
        engines = {}
        for backend in BACKENDS:
            engine = IncrementalQueryEngine(
                query, workers=workers, execution_backend=backend
            )
            engine.execute(
                make_database(query, random.Random(stable_seed("vec-ivm")))
            )
            engines[backend] = engine
        try:
            rng = random.Random(stable_seed("vec-ivm-batches", workers))
            for _ in range(3):
                batches = {
                    atom.name: (
                        sorted(random_rows(rng, 8)),
                        rng.sample(
                            sorted(
                                engines["interpreted"].relation(atom.name).tuples
                            ),
                            5,
                        ),
                    )
                    for atom in query.body
                }
                results = {}
                for backend, engine in engines.items():
                    for name, (inserts, deletes) in batches.items():
                        current = set(engine.relation(name).tuples)
                        engine.insert(name, set(inserts) - current)
                        engine.delete(name, deletes)
                    results[backend] = engine.refresh().relation.code_rows
                assert results["vectorized"] == results["interpreted"]
        finally:
            for engine in engines.values():
                engine.close()


# -- FAQ semirings over maintained supports -----------------------------------------


@requires_numpy
class TestFAQBitIdentity:
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    def test_faq_aggregates_match_across_backends(self, semiring):
        """Semiring aggregates agree whatever backend maintains the support."""
        query = make_query("triangle")
        engines = {
            backend: IncrementalQueryEngine(
                query, workers=1, execution_backend=backend
            )
            for backend in BACKENDS
        }
        for engine in engines.values():
            engine.execute(
                make_database(
                    query,
                    random.Random(stable_seed("vec-faq", semiring.name)),
                    size=60,
                    domain=15,
                )
            )
        try:
            rng = random.Random(stable_seed("vec-faq-batches", semiring.name))
            for _ in range(2):
                batches = {
                    atom.name: (
                        sorted(random_rows(rng, 6, domain=15)),
                        rng.sample(
                            sorted(
                                engines["interpreted"].relation(atom.name).tuples
                            ),
                            4,
                        ),
                    )
                    for atom in query.body
                }
                scalars = {}
                for backend, engine in engines.items():
                    for name, (inserts, deletes) in batches.items():
                        current = set(engine.relation(name).tuples)
                        engine.insert(name, set(inserts) - current)
                        engine.delete(name, deletes)
                    engine.refresh()
                    scalars[backend] = engine.faq(semiring).scalar()
                assert scalars["vectorized"] == scalars["interpreted"]
        finally:
            for engine in engines.values():
                engine.close()
