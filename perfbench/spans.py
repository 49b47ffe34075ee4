"""Host-time spans around the public functions of each simulator layer.

:class:`Tracer` swaps timing wrappers onto the functions listed in
:data:`TARGETS` for the duration of one traced campaign and restores the
originals afterwards; nothing under ``src/`` knows it is being traced.
Spans (name, start, end, parent) live in one in-memory list and are
written once, at the end, by :meth:`Tracer.dump`.

A layer's time is its *self* time: span duration minus the time its child
spans cover. That is what keeps ``FlashChip.start_program`` from also
counting the ``encode_page`` it calls, or ``Firmware.run_offload`` the
``Simulator.run`` inside it.

:class:`FirstEvent` is the one hook the untraced runs use: it notes when
the event loop is first entered (the end of set-up) and then removes
itself, so the simulation proper runs unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from typing import Dict, List, Tuple

#: (layer, module, owner, attribute). ``owner`` is a class name in
#: ``module`` or ``None`` for a module-level function. A function bound by
#: ``from x import f`` is wrapped where its caller looks it up.
TARGETS: Tuple[Tuple[str, str, object, str], ...] = (
    ("sim.loop", "repro.sim.kernel", "Simulator", "run"),
    ("sim.loop", "repro.sim.kernel", "Simulator", "step"),
    ("flash.ecc_encode", "repro.flash.ecc", None, "encode_page"),
    ("flash.program", "repro.flash.chip", "FlashChip", "start_program"),
    ("ftl.populate", "repro.ftl.mapping", "PageMapFTL", "populate"),
    ("ftl.populate", "repro.ftl.zoned", "ZonedFTL", "populate"),
    ("ssd.build", "repro.ssd.device", "ComputationalSSD", "__init__"),
    ("ssd.offload", "repro.ssd.firmware", "Firmware", "run_offload"),
    ("kernels.sample", "repro.ssd.device", "ComputationalSSD", "sample_kernel"),
    ("core.run", "repro.core.core", "CoreModel", "run"),
    ("sql.parse", "repro.sql.session", None, "parse_sql"),
    ("sql.plan", "repro.sql.session", None, "plan_statement"),
    ("sql.execute", "repro.sql.executor", "SqlExecutor", "execute"),
    ("analytics.datagen", "repro.sql.session", None, "generate_database"),
    ("dse.point", "repro.dse.sweep", None, "evaluate_point"),
    ("report.render", "repro.fleet.metrics", "FleetReport", "render"),
    ("report.render", "repro.zns.metrics", "ZnsReport", "render"),
    ("report.render", "repro.serve.metrics", "ServeReport", "render"),
    ("report.render", "repro.dse.pareto", None, "render_table"),
)

#: Layers whose time is reported as ``<layer>_s`` (self time, summed).
TIMED = {
    "sim.loop": "sim.loop_s",
    "flash.ecc_encode": "flash.ecc_encode_s",
    "flash.program": "flash.program_s",
    "ftl.populate": "ftl.populate_s",
    "ssd.build": "ssd.build_s",
    "ssd.offload": "ssd.offload_s",
    "kernels.sample": "kernels.sample_s",
    "core.run": "core.run_s",
    "sql.parse": "sql.parse_s",
    "sql.plan": "sql.plan_s",
    "sql.execute": "sql.execute_s",
    "analytics.datagen": "analytics.datagen_s",
    "report.render": "report.render_s",
}

#: Layers whose call count is reported, under the given name.
COUNTED = {
    "flash.ecc_encode": "flash.ecc_encode_pages",
    "flash.program": "flash.programs",
    "ssd.build": "ssd.builds",
    "kernels.sample": "kernels.samples",
    "core.run": "core.runs",
}


class Tracer:
    """Installs the wrappers, records spans, derives per-layer metrics."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        #: One ``[name, start, end, parent]`` per span; parent is an index or -1.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._restore: List[tuple] = []
        self._sims: Dict[int, object] = {}
        self.populated_pages = 0
        self.core = {"instructions": 0, "branch_mispredicts": 0, "hazard_stall_cycles": 0.0}

    # -- wrappers ----------------------------------------------------------------

    def install(self) -> None:
        observers = {
            "sim.loop": self._saw_sim,
            "ftl.populate": self._saw_populate,
            "core.run": self._saw_core_run,
        }
        for layer, module_name, owner_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(layer, original, observers.get(layer)))
            self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, layer, original, observe):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            # Re-entry into the layer already open (``run`` stepping
            # through ``step``) stays inside the one outer span.
            if stack and spans[stack[-1]][0] == layer:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _saw_sim(self, args, result) -> None:
        self._sims[id(args[0])] = args[0]

    def _saw_populate(self, args, result) -> None:
        self.populated_pages += len(result)

    def _saw_core_run(self, args, result) -> None:
        self.core["instructions"] += result.instructions
        self.core["branch_mispredicts"] += result.pipeline.branch_mispredicts
        self.core["hazard_stall_cycles"] += result.pipeline.hazard_stall_cycles

    # -- results -----------------------------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's. Calls nest strictly on
        one thread, so the children of a span never overlap and their
        coverage is the sum of their durations."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, wall_s: float) -> Dict[str, float]:
        own = self.self_times()
        seconds = {name: 0.0 for name in TIMED.values()}
        counts = {name: 0 for name in COUNTED.values()}
        engine_runs = 0
        points: List[float] = []
        for (layer, start, end, parent), self_s in zip(self.spans, own):
            if layer in TIMED:
                seconds[TIMED[layer]] += self_s
            if layer in COUNTED:
                counts[COUNTED[layer]] += 1
            if layer == "core.run" and parent >= 0 and self.spans[parent][0] == "kernels.sample":
                engine_runs += 1
            if layer == "dse.point":
                points.append(end - start)
        out: Dict[str, float] = {**seconds, **counts}
        events = sum(sim.processed for sim in self._sims.values())
        samples = counts["kernels.samples"]
        out.update(
            {
                "sim.events": events,
                "sim.events_per_host_s": events / seconds["sim.loop_s"] if events else 0.0,
                "ftl.populate_pages": self.populated_pages,
                "kernels.engine_runs": engine_runs,
                "kernels.pricing_reuse": 1.0 - engine_runs / samples if samples else 0.0,
                "core.instructions": self.core["instructions"],
                "core.instr_per_host_s": (
                    self.core["instructions"] / seconds["core.run_s"]
                    if seconds["core.run_s"] > 0 else 0.0
                ),
                "core.branch_mispredicts": self.core["branch_mispredicts"],
                "core.hazard_stall_cycles": self.core["hazard_stall_cycles"],
                "dse.point_s": statistics.median(points) if points else 0.0,
                "trace.spans": len(self.spans),
                "trace.other_s": wall_s - sum(seconds.values()),
            }
        )
        return out

    def dump(self, path) -> None:
        """Write every span once, after the traced campaign has ended."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start_s", "end_s", "parent"],
                    "spans": self.spans,
                },
                out,
                separators=(",", ":"),
            )


class FirstEvent:
    """Times the end of set-up: the first entry into the event loop."""

    def __init__(self) -> None:
        self.at = None
        self._saved: Dict[str, object] = {}

    def install(self) -> None:
        from repro.sim.kernel import Simulator

        for attr in ("run", "step"):
            original = Simulator.__dict__[attr]
            self._saved[attr] = original
            setattr(Simulator, attr, self._hook(original))

    def _hook(self, original):
        probe = self

        def first(*args, **kwargs):
            if probe.at is None:
                probe.at = time.perf_counter()
                probe.uninstall()
            return original(*args, **kwargs)

        return first

    def uninstall(self) -> None:
        from repro.sim.kernel import Simulator

        for attr, original in self._saved.items():
            setattr(Simulator, attr, original)
        self._saved.clear()
