"""The four benchmark campaigns, each driven through its default public entry point.

A workload is built from the seed alone and runs one campaign to
completion on freshly built devices. :meth:`Workload.run` is the timed
part: build, preload, simulate, render the report. :meth:`Workload.summarize`
reduces the result to fingerprints, simulated metrics and output checks,
untimed. The simulator's
modules are imported with this module, before any timing starts.
Everything that computes a reference (the SQL reference answers, the ZNS half-horizon
re-run) lives in :meth:`Workload.reference_checks`, which the runner calls
outside the timed window.

No campaign passes a ``SimConfig``, picks an event-loop engine, turns on
the pricing memo or starts worker processes: the benchmark measures what a
user gets from the default code paths.

``size="tiny"`` shrinks every campaign for the benchmark's own test; the
``"full"`` size is what ``BENCHMARK.json`` measures.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analytics.datagen import generate_database
from repro.analytics.queries import run_query
from repro.config import ServeConfig, assasin_sb_config
from repro.dse import SweepSpec, pareto, run_sweep
from repro.fleet import FleetConfig, simulate_fleet
from repro.serve import TenantSpec
from repro.sql.session import SqlSession, table_fingerprint
from repro.sql.tpch import tpch_sql
from repro.utils.stats import percentile
from repro.zns import ZnsConfig, run_zns

#: Percentile ladder for ``sim_tail_us``: the highest rung with at least
#: ``TAIL_MIN_BEYOND`` samples beyond it is reported.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class SimMetric:
    """One simulated end-to-end figure (simulated time, never host time)."""

    value: float
    unit: str
    note: str = ""


@dataclass
class Outcome:
    """What one campaign produced, reduced to what the benchmark reads."""

    fingerprint: str
    ops: int
    failed_ops: int
    sim: Dict[str, SimMetric]
    #: Cheap output checks evaluated on this campaign's report.
    checks: List[Tuple[str, bool]]
    #: Per-layer figures read off the report (simulated counts, not timings).
    layer: Dict[str, float] = field(default_factory=dict)
    #: JSON-able data the reference checks compare against.
    reference: object = None


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """``(pct, value, beyond)``: the highest ladder percentile with enough
    samples beyond it to mean something."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        beyond = int(n * (1.0 - pct / 100.0))
        if beyond >= TAIL_MIN_BEYOND:
            return pct, percentile(latencies, pct), beyond
    return 50.0, percentile(latencies, 50.0), n // 2


def latency_metrics(latencies_ns: List[float], what: str) -> Dict[str, SimMetric]:
    pct, value, beyond = tail(latencies_ns)
    n = len(latencies_ns)
    return {
        "sim_p50_us": SimMetric(
            percentile(latencies_ns, 50.0) / 1e3, "us", f"{what} latency, n={n}"
        ),
        "sim_tail_us": SimMetric(
            value / 1e3, "us", f"{what} latency p{pct:g}, n={n}, {beyond} beyond it"
        ),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, size: str = "full") -> None:
        if size not in ("full", "tiny"):
            raise ValueError(f"unknown size {size!r}")
        self.seed = seed
        self.tiny = size == "tiny"

    def run(self):
        """The timed campaign; returns whatever :meth:`summarize` reads."""
        raise NotImplementedError

    def summarize(self, result) -> Outcome:
        """Fingerprint, simulated metrics and output checks (untimed)."""
        raise NotImplementedError

    def reference_checks(self, reference) -> List[Tuple[str, bool]]:
        """Checks against a recomputed reference, given ``Outcome.reference``."""
        return []


# -- fleet-hedged -----------------------------------------------------------------


class FleetHedged(Workload):
    """8 x AssasinSb behind the hash-ring router; device 1 is a straggler
    (20% of its reads take +300 us) and hedging is on. Open-loop Poisson
    tenants: ``hot`` stat scomps, a ``reader`` and a ``writer``."""

    name = "fleet-hedged"

    def run(self):
        tenants = [
            TenantSpec(
                name="hot", weight=4.0, kind="scomp", kernel="stat",
                pages_per_command=4, interarrival_ns=20_000.0, region_pages=512,
            ),
            TenantSpec(
                name="reader", weight=1.0, kind="read",
                pages_per_command=4, interarrival_ns=15_000.0, region_pages=512,
            ),
            TenantSpec(
                name="writer", weight=1.0, kind="write",
                pages_per_command=4, interarrival_ns=40_000.0, region_pages=256,
            ),
        ]
        fleet = FleetConfig(
            num_devices=8,
            hedging=True,
            slow_device=1,
            slow_read_rate=0.2,
            slow_read_extra_ns=300_000.0,
        )
        report = simulate_fleet(
            assasin_sb_config(),
            fleet,
            tenants=tenants,
            duration_ns=2_000_000.0 if self.tiny else 40_000_000.0,
            seed=self.seed,
        )
        report.render()
        return report

    def summarize(self, report) -> Outcome:
        sim = latency_metrics(report.latencies_ns, "command")
        sim["sim_ops_per_s"] = SimMetric(report.commands_per_second, "1/s", "completed commands")
        return Outcome(
            fingerprint=report.fingerprint_hex(),
            ops=report.submitted,
            failed_ops=report.failed,
            sim=sim,
            checks=[
                ("fleet.success_rate==1", report.success_rate == 1.0),
                ("fleet.corruption_events==0", report.corruption_events == 0),
                ("fleet.completed>0", report.completed > 0),
            ],
            layer={
                "fleet.hedges_issued": report.hedges_issued,
                "fleet.hedge_win_rate": report.hedge_win_rate,
                "fleet.reconstructions": report.reconstructions,
            },
        )


# -- zns-lsm -----------------------------------------------------------------------


class ZnsLsm(Workload):
    """The ZNS LSM campaign with ``compaction="auto"``: four open-loop
    tenants (90% puts, spawned gets) at a 1,600 ns mean interarrival each,
    a rate at which compaction keeps up and the tree stays bounded."""

    name = "zns-lsm"
    INTERARRIVAL_NS = 1_600.0

    def horizon_ns(self) -> float:
        return 4_000_000.0 if self.tiny else 40_000_000.0

    def config(self, duration_ns: float):
        return ZnsConfig(
            seed=self.seed,
            duration_ns=duration_ns,
            mean_interarrival_ns=self.INTERARRIVAL_NS,
            compaction="auto",
        )

    def run(self):
        report = run_zns(self.config(self.horizon_ns()))
        report.render()
        return report

    def summarize(self, report) -> Outcome:
        cfg = self.config(self.horizon_ns())
        sim = latency_metrics(report.get_latencies_ns, "get")
        sim["sim_ops_per_s"] = SimMetric(report.ops_per_sec, "1/s", "puts + gets")
        hits = report.get_memtable_hits + report.get_run_hits + report.get_misses
        return Outcome(
            fingerprint=report.fingerprint_hex(),
            ops=report.puts + report.gets,
            failed_ops=0,
            sim=sim,
            checks=[
                ("zns.hits_sum==gets", hits == report.gets),
                ("zns.levels_bounded", self.bounded(report.levels_runs, cfg)),
            ],
            layer={
                "zns.compactions": report.compactions,
                "zns.compaction_link_kib": report.compaction_link_bytes / 1024.0,
                "zns.zone_resets": report.zone_resets,
                "zns.l0_runs_end": report.levels_runs[0],
            },
            reference=report.levels_runs,
        )

    @staticmethod
    def bounded(levels_runs: List[int], cfg) -> bool:
        """No level holds more than two compactions' worth of pending runs
        above its trigger: L0 waits on ``l0_runs_trigger``, deeper levels
        on ``fanout``; an overloaded tree piles runs far past either."""
        limits = [cfg.l0_runs_trigger] + [cfg.fanout] * (len(levels_runs) - 1)
        return all(
            runs <= limit + 2 * cfg.compaction_runs
            for runs, limit in zip(levels_runs, limits)
        )

    def reference_checks(self, reference) -> List[Tuple[str, bool]]:
        """Boundedness over the horizon, not only at its end: the same
        campaign cut at half the horizon must be bounded too, and L0 must
        not have grown between the two cuts by more than one trigger."""
        cfg = self.config(self.horizon_ns() / 2.0)
        half = run_zns(cfg).levels_runs
        end = reference
        return [
            ("zns.levels_bounded_at_half_horizon", self.bounded(half, cfg)),
            ("zns.l0_not_growing", end[0] - half[0] <= cfg.l0_runs_trigger),
        ]


# -- dse-sweep ---------------------------------------------------------------------


class DseSweep(Workload):
    """``run_sweep(SweepSpec())``: 12 points = cores {4,8} x {sb-S8P2,
    sb-S8P4, sp} x {static, predictive}, kernels stat/raid4/psf, every
    sampled kernel run seeded from the workload seed."""

    name = "dse-sweep"

    def spec(self):
        if self.tiny:
            return SweepSpec(
                cores=(4,), geometries=("sb-S8P2", "sp"), kernels=("stat",),
                data_bytes=1 << 20, seed=self.seed,
            )
        return SweepSpec(seed=self.seed)

    def run(self):
        result = run_sweep(self.spec())
        pareto.render_table(result)
        return result

    def summarize(self, result) -> Outcome:
        rates = [v for p in result.points for v in p.throughput_gbps.values()]
        instructions = sum(p.instructions for p in result.points)
        cycles = sum(p.sample_cycles for p in result.points)
        sim = {
            "sim_gbps": SimMetric(
                math.exp(sum(math.log(r) for r in rates) / len(rates)), "GB/s",
                f"geomean over {len(rates)} point x kernel offloads",
            ),
            "sim_ipc": SimMetric(
                instructions / cycles, "instr/cycle",
                f"{instructions} instructions over all points",
            ),
        }
        return Outcome(
            fingerprint=sha256(pareto.report_json(result)),
            ops=len(rates),
            failed_ops=sum(1 for r in rates if not r > 0),
            sim=sim,
            checks=[
                ("dse.perf_gbps>0", all(p.perf_gbps > 0 for p in result.points)),
                ("dse.pareto_nonempty", bool(result.pareto_points)),
            ],
        )


# -- sql-tpch ----------------------------------------------------------------------


class SqlTpch(Workload):
    """A ``SqlSession`` (SF 0.004, policy ``auto``) running the 22 TPC-H
    queries serially (closed loop, one client) beside a bursty ``oltp``
    psf scomp tenant (4 ms on / 18 ms off) and an overwriting ``writer``
    that drives garbage collection."""

    name = "sql-tpch"
    SCALE_FACTOR = 0.004

    def queries(self) -> List[int]:
        return [1, 6, 14] if self.tiny else list(range(1, 23))

    def run(self):
        tenants = [
            TenantSpec(
                name="oltp", weight=2.0, kind="scomp", kernel="psf",
                pages_per_command=48, interarrival_ns=60_000.0,
                arrival="burst", burst_on_ns=4e6, burst_off_ns=18e6,
            ),
            TenantSpec(
                name="writer", weight=1.0, kind="write", overwrite=True,
                pages_per_command=16, interarrival_ns=400_000.0,
                region_pages=2048,
            ),
        ]
        session = SqlSession(
            policy="auto",
            gen_scale_factor=self.SCALE_FACTOR,
            seed=self.seed,
            tenants=tenants,
            serve_config=ServeConfig(max_inflight=32),
            duration_ns=20_000_000.0 if self.tiny else 200_000_000.0,
        )
        records = session.run_serial([tpch_sql(n) for n in self.queries()])
        report = session.finish()
        report.serve.render()
        return records, report

    def summarize(self, result) -> Outcome:
        records, report = result
        latencies = [r.latency_ns for r in records]
        span_ns = records[-1].completed_ns - records[0].submitted_ns
        sim = latency_metrics(latencies, "query")
        sim["sim_ops_per_s"] = SimMetric(len(records) / (span_ns * 1e-9), "1/s", "queries")
        digest = repr(
            (
                [(r.fingerprint(), round(r.latency_ns, 6),
                  "".join(p.site[0] for p in r.placements)) for r in records],
                report.serve.fingerprint(),
            )
        )
        oltp = report.serve.tenants["oltp"]
        return Outcome(
            fingerprint=sha256(digest),
            ops=len(records),
            failed_ops=0,
            sim=sim,
            checks=[("sql.all_queries_completed", all(r.done for r in records))],
            layer={
                "sql.device_scans": sum(r.device_scans for r in records),
                "sql.host_scans": sum(r.host_scans for r in records),
                "serve.oltp_p99_us": oltp.p99_latency_ns / 1e3,
            },
            reference=[(r.fingerprint(), len(r.result.table)) for r in records],
        )

    def reference_checks(self, reference) -> List[Tuple[str, bool]]:
        """Every answer equals the hand-written reference query on the
        same generated database, by ``table_fingerprint``.

        An empty answer is compared by emptiness alone: the reference
        ``q2``/``q15``/``q17`` return early on an empty intermediate with
        that intermediate's columns, not the query's (seeds 5 and 20 give
        an empty q2), so an empty reference carries the wrong heading.
        """
        db = generate_database(self.SCALE_FACTOR, seed=self.seed)
        checks = []
        for n, (fp, rows) in zip(self.queries(), reference):
            expected = run_query(db, n)
            if len(expected) == 0:
                checks.append((f"sql.q{n}==reference (empty)", rows == 0))
            else:
                checks.append((f"sql.q{n}==reference", fp == table_fingerprint(expected)))
        return checks


WORKLOADS = {cls.name: cls for cls in (FleetHedged, ZnsLsm, DseSweep, SqlTpch)}

#: The seed each workload was written against (``--seed`` overrides it).
DEFAULT_SEEDS = {"fleet-hedged": 11, "zns-lsm": 7, "dse-sweep": 7, "sql-tpch": 11}


def make(name: str, seed: Optional[int] = None, size: str = "full") -> Workload:
    return WORKLOADS[name](DEFAULT_SEEDS[name] if seed is None else seed, size)
