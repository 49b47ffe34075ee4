"""Property tests for the per-page service path's cheap bookkeeping.

Two structures trade generality for speed and are checked here against the
general version they replace:

* :class:`repro.sim.resources._Lane`, the interval-free lane behind every
  :class:`~repro.sim.PooledResource` (flash planes, stream cores), must
  grant exactly what the interval-keeping :class:`_Timeline` grants and
  what the greedy FIFO rule, written out in the test, predicts, and end
  with the same ``free_at_ns``, ``busy_ns`` and ``grants``.
* :class:`repro.fleet.router.ServiceWindow`, the hedge trigger's sorted
  rolling window, must answer every percentile exactly as
  :func:`repro.utils.stats.percentile` does on the window's samples, after
  every append, through wrap-around and with ties.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.fleet.router import ServiceWindow  # noqa: E402
from repro.sim import PooledResource  # noqa: E402
from repro.sim.resources import _Timeline  # noqa: E402
from repro.utils.stats import percentile  # noqa: E402

UNITS = 3

#: One request: ready instant, duration, and an explicit unit or ``None``
#: for least-loaded selection. Small ranges make ties and idle gaps common.
_requests = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=50),
        st.one_of(st.none(), st.integers(min_value=0, max_value=UNITS - 1)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(_requests)
def test_pool_lane_matches_interval_timeline(requests):
    pool = PooledResource("pool", UNITS)
    oracle = [_Timeline() for _ in range(UNITS)]
    # The greedy FIFO rule written out, independent of both lane classes.
    free_at = [0] * UNITS
    busy = [0] * UNITS
    grants = [0] * UNITS
    for ready, duration, unit in requests:
        grant = pool.acquire(ready, duration, unit=unit)
        if unit is None:
            # Least-loaded: first to free, ties to the lowest index.
            unit = min(range(UNITS), key=lambda i: free_at[i])
        start = max(ready, free_at[unit])
        free_at[unit] = start + duration
        busy[unit] += duration
        grants[unit] += 1
        expected = oracle[unit].reserve(ready, duration)
        assert (expected.start_ns, expected.done_ns) == (start, start + duration)
        assert tuple(grant) == (start, start + duration, unit)
    for unit, lane in enumerate(oracle):
        assert pool.free_at(unit) == lane.free_at_ns == free_at[unit]
        assert pool.busy_ns(unit) == lane.busy_ns == busy[unit]
        assert pool._lanes[unit].grants == lane.grants == grants[unit]


#: Service times drawn from a small set so the window holds many ties; mixed
#: ints and floats, as the router sees both.
_samples = st.lists(
    st.one_of(
        st.integers(min_value=0, max_value=12),
        st.sampled_from([0.5, 3.0, 7.25, 1e6]),
    ),
    min_size=1,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(_samples, st.integers(min_value=8, max_value=24), st.floats(min_value=50.0, max_value=100.0))
def test_sorted_window_matches_percentile(samples, size, pct):
    window = ServiceWindow(size)
    for count, sample in enumerate(samples, start=1):
        window.append(sample)
        assert len(window) == min(count, size)
        held = samples[:count][-size:]
        for q in (pct, 50.0, 95.0, 100.0):
            assert window.percentile(q) == percentile(held, q)
