"""Differential conformance: SQL pipeline vs hand-written relalg queries.

Three independent paths must produce byte-identical results for all 22
TPC-H queries:

1. the hand-written relational-algebra implementations in
   ``repro.analytics.queries`` (the reference),
2. the SQL transcriptions parsed/planned/executed host-only,
3. the same SQL with every scan forced through the device pushdown path.

On top of that, full live sessions (shared event kernel, background
tenants, GC) must agree across all three placement policies, and a
same-seed double run must reproduce both fingerprints *and* simulated
latencies exactly — the determinism contract everything else rests on.
"""

import pytest

from repro.analytics.queries import query_numbers, run_query
from repro.analytics.datagen import generate_database
from repro.serve.workload import TenantSpec
from repro.sql.executor import SqlExecutor
from repro.sql.parser import parse_sql
from repro.sql.planner import plan_statement
from repro.sql.session import SqlSession, table_fingerprint
from repro.sql.tpch import TPCH_SQL

SF = 0.004
#: Database seeds of the per-query cases.  At seed 5 no part qualifies for
#: q2, so its answer is empty and must still carry q2's projected heading.
SEEDS = (7, 5)
SEED = SEEDS[0]

#: (seed, query) cases; the first seed keeps the bare query number as id.
QUERY_CASES = [
    pytest.param(seed, number, id=str(number) if seed == SEED else f"seed{seed}-{number}")
    for seed in SEEDS
    for number in sorted(TPCH_SQL)
]


def _fingerprints(db):
    return {n: table_fingerprint(run_query(db, n)) for n in query_numbers()}


@pytest.fixture(scope="module")
def db():
    return generate_database(SF, seed=SEED)


@pytest.fixture(scope="module")
def reference(db):
    return _fingerprints(db)


@pytest.fixture(scope="module")
def seeded(db, reference):
    """(database, reference fingerprints) per seed, generated on first use."""
    cache = {SEED: (db, reference)}

    def lookup(seed):
        if seed not in cache:
            extra = generate_database(SF, seed=seed)
            cache[seed] = (extra, _fingerprints(extra))
        return cache[seed]

    return lookup


def test_all_queries_transcribed():
    assert sorted(TPCH_SQL) == query_numbers()


@pytest.mark.parametrize("seed,number", QUERY_CASES)
def test_host_execution_matches_relalg(seeded, seed, number):
    db, reference = seeded(seed)
    planned = plan_statement(parse_sql(TPCH_SQL[number]))
    result = SqlExecutor(db, chooser=lambda scan: "host").execute(planned)
    assert table_fingerprint(result.table) == reference[number]


@pytest.mark.parametrize("seed,number", QUERY_CASES)
def test_forced_device_pushdown_matches_relalg(seeded, seed, number):
    db, reference = seeded(seed)
    planned = plan_statement(parse_sql(TPCH_SQL[number]))
    result = SqlExecutor(db, chooser=lambda scan: "device").execute(planned)
    assert table_fingerprint(result.table) == reference[number]
    # The forced-device run really exercised the pushdown path.
    assert all(s.site == "device" for s in result.scans)


def _background():
    return (
        TenantSpec(
            name="oltp", weight=2.0, kind="scomp", kernel="psf",
            pages_per_command=16, interarrival_ns=200_000.0,
        ),
        TenantSpec(
            name="writer", weight=1.0, kind="write", overwrite=True,
            pages_per_command=8, interarrival_ns=500_000.0,
            region_pages=1024,
        ),
    )


def _run_session(policy):
    session = SqlSession(
        gen_scale_factor=SF,
        seed=SEED,
        policy=policy,
        tenants=_background(),
        duration_ns=2e7,
    )
    statements = [TPCH_SQL[n] for n in sorted(TPCH_SQL)]
    records = session.run_serial(statements)
    session.finish()
    return records


def test_live_sessions_agree_across_policies(reference):
    by_policy = {p: _run_session(p) for p in ("host", "device", "auto")}
    numbers = sorted(TPCH_SQL)
    for policy, records in by_policy.items():
        assert len(records) == len(numbers)
        for number, record in zip(numbers, records):
            assert record.fingerprint() == reference[number], (
                f"q{number} diverged under policy={policy}"
            )
    # Policies really differ in placement, not just in name.
    assert all(r.device_scans == 0 for r in by_policy["host"])
    assert all(r.host_scans == 0 for r in by_policy["device"])


def test_same_seed_double_run_is_bit_identical():
    first = _run_session("auto")
    second = _run_session("auto")
    for a, b in zip(first, second):
        assert a.fingerprint() == b.fingerprint()
        assert a.latency_ns == b.latency_ns
        assert a.completed_ns == b.completed_ns
        assert [p.site for p in a.placements] == [p.site for p in b.placements]
