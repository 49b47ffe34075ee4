"""The sim differential suite: campaigns are bit-identical on the heapq oracle.

Each test runs the *same* seeded campaign twice — once on
``repro.sim.Simulator`` (the calendar-queue loop) and once with every
simulator the campaign builds swapped onto the heapq oracle
(``tests/sim_oracle.py``) — and asserts the campaign fingerprint is
byte-identical.  The fingerprints hash the full observable surface
(per-command latencies, per-tenant stats, recovery counters, integrity
results), so any divergence in dispatch order, clock values, or service
outcomes fails loudly.  The kernel-pricing memo is always on in both runs;
a further case checks that a campaign pricing every kernel from the memo
matches one that sampled them cold.

Horizons are short smoke versions of the four campaign families; the
benchmarks run the long ones.
"""

import pytest

from repro.config import FaultConfig, ServeConfig, assasin_sb_config
from repro.core.core import CoreModel
from repro.faults import run_campaign
from repro.fleet import FleetConfig, simulate_fleet
from repro.kernels.pricing import SAMPLES
from repro.serve import default_tenants, simulate_serve
from repro.zns import ZnsConfig, run_zns
from tests.sim_oracle import oracle_loop

SEED = 7


def _serve_fingerprint():
    report = simulate_serve(
        assasin_sb_config(), default_tenants(), ServeConfig(),
        duration_ns=300_000.0, seed=SEED,
    )
    return report.fingerprint()


def _fleet_fingerprint():
    report = simulate_fleet(
        assasin_sb_config(), FleetConfig(num_devices=4),
        duration_ns=150_000.0, seed=SEED,
    )
    return report.fingerprint_hex()


def _zns_fingerprint():
    return run_zns(ZnsConfig(duration_ns=500_000.0, seed=SEED)).fingerprint_hex()


def _faults_fingerprint():
    report = run_campaign(
        assasin_sb_config(), FaultConfig(), duration_ns=200_000.0, seed=SEED,
    )
    return report.fingerprint()


CAMPAIGNS = {
    "serve": _serve_fingerprint,
    "fleet": _fleet_fingerprint,
    "zns": _zns_fingerprint,
    "faults": _faults_fingerprint,
}


@pytest.mark.parametrize("campaign", sorted(CAMPAIGNS))
def test_fast_engine_campaigns_are_byte_identical(campaign):
    run = CAMPAIGNS[campaign]
    with oracle_loop():
        reference = run()
    assert run() == reference


def test_memoized_pricing_is_byte_identical_and_actually_hits(monkeypatch):
    engine_runs = []
    original = CoreModel.run

    def counted(self, kernel, inputs):
        engine_runs.append(kernel.name)
        return original(self, kernel, inputs)

    monkeypatch.setattr(CoreModel, "run", counted)
    SAMPLES.clear()
    cold = _serve_fingerprint()
    assert engine_runs  # the cold campaign sampled its kernels
    engine_runs.clear()
    warm = _serve_fingerprint()
    # The second campaign priced every kernel from the memo.
    assert engine_runs == []
    assert warm == cold
