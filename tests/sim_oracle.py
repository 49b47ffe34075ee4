"""Test-only reference event loop: one ``heapq`` ordered by (time, priority, seq).

:class:`repro.sim.Simulator` dispatches through a calendar queue with
batched same-instant dispatch and lazily sorted buckets.  This module
keeps the obviously-correct loop it replaced as the oracle the property,
parity and differential suites hold it to:

* :class:`OracleSimulator` — a drop-in ``Simulator`` whose queue is a
  single heap of ``(time_ns, priority, seq, Event)`` entries, and whose
  process resumes are ordinary scheduled callbacks.
* :func:`oracle_loop` — a context manager that swaps the oracle's queue
  methods onto :class:`~repro.sim.Simulator` itself, so campaign code that
  constructs its own simulator internally (serve, faults, fleet, zns)
  runs on the heap loop for the duration of the block.
"""

from __future__ import annotations

import contextlib
import heapq
from typing import List, Optional, Tuple, Union

from repro.sim.kernel import Event, Process, Simulator, as_ns

_SIMULATOR_INIT = Simulator.__init__


class OracleSimulator(Simulator):
    """The heapq reference loop, with the same public surface."""

    def __init__(self, tracer=None) -> None:
        # Called explicitly, not via super(): oracle_loop() installs this
        # method on Simulator itself.
        _SIMULATOR_INIT(self, tracer)
        self._heap: List[Tuple[int, int, int, Event]] = []

    def schedule_at(self, time_ns, action, label: str = "", priority: int = 0) -> Event:
        when = as_ns(time_ns)
        if when < self.now:
            raise ValueError(f"cannot schedule at {time_ns} before now={self.now}")
        seq = next(self._counter)
        event = Event(when, seq, action, label, priority)
        heapq.heappush(self._heap, (when, priority, seq, event))
        return event

    def spawn(self, gen, label: str = "process") -> Process:
        process = Process(gen, label)
        self.schedule(0, lambda: self._resume(process), label=label)
        return process

    def _resume(self, process: Process) -> None:
        try:
            request = next(process._gen)
        except StopIteration:
            process.alive = False
            return
        except Exception as err:
            self._process_error(process, err)
        when = self._wake_time(request, self.now)
        self.schedule_at(when, lambda: self._resume(process), label=process.label)

    def peek_time(self) -> Optional[int]:
        heap = self._heap
        while heap:
            if heap[0][3].cancelled:
                heapq.heappop(heap)
                continue
            return heap[0][0]
        return None

    def step(self) -> bool:
        while self._heap:
            _, _, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            event.fired = True
            self.now = event.time_ns
            self.processed += 1
            self._tracer.instant("scheduler", event.label or "event", event.time_ns)
            event.action()
            return True
        return False

    def run(
        self,
        until_ns: Optional[Union[int, float]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        bound = None if until_ns is None else as_ns(until_ns)
        executed = 0
        heap = self._heap
        while heap:
            top = heap[0]
            if top[3].cancelled:
                heapq.heappop(heap)
                continue
            if bound is not None and top[0] > bound:
                self.now = bound
                return
            if max_events is not None and executed >= max_events:
                return
            self.step()
            executed += 1
        if bound is not None and bound > self.now:
            self.now = bound

    def __len__(self) -> int:
        return len(self._heap)


#: The methods that make up the queue; everything else is shared.
_QUEUE_METHODS = (
    "__init__", "schedule_at", "spawn", "_resume", "peek_time", "step", "run", "__len__",
)


@contextlib.contextmanager
def oracle_loop():
    """Run every :class:`~repro.sim.Simulator` built inside the block on the
    heapq oracle (the class methods are restored on exit)."""
    saved = {name: Simulator.__dict__[name] for name in _QUEUE_METHODS}
    try:
        for name in _QUEUE_METHODS:
            setattr(Simulator, name, OracleSimulator.__dict__[name])
        yield
    finally:
        for name, method in saved.items():
            setattr(Simulator, name, method)
