"""Cross-point batched sweep engine.

The per-point engine (:class:`repro.runtime.Job`) already dedupes node
equivalence classes *within* one sweep point; a paper-figure sweep
repeats most of that work *across* points.  The L3-geometry sweep runs
the same kernel at five memory configurations: the rank layout, the
lowered loop IR, the pipeline timing rows and every torus phase are
identical at all five points — only the hierarchy analysis differs.
This module exploits that:

* sweep points are planned together: node classes are keyed on
  ``(residents, work fingerprint, mode, mem_config)`` exactly as in
  ``Job.run``; placements, node-card counter
  modes, communication phases and the comm-side counter accumulation
  are computed once per (kernel, layout) group and shared by every L3
  point of that kernel; pipeline-timing rows are deduped on
  ``(work, mode, residents)`` — independent of the memory
  configuration — and every surviving node-class representative is
  stacked into **one** :func:`repro.mem.hierarchy.analyze_nodes_batch`
  call and **one** ``compute_cycles_batch`` matrix across all points;
* counter delivery is algebraic: a clean run's per-counter delta is the
  modular sum of its pulses (see DESIGN.md for the exactness argument),
  so the engine accumulates named counts into per-node ``uint64`` rows
  and hands synthetic :class:`~repro.core.dump.NodeDump` records to the
  unchanged :class:`~repro.core.postprocess.Aggregation` — no UPC
  objects, no dump files, no re-simulated members.

Assembly stays in the calling process at any ``--jobs N``: a point
assembles in milliseconds, so a pool never paid for its start-up and
transport (DESIGN.md, "Where parallelism pays").

The engine is wired in behind :func:`repro.parallel.set_batch_sweep`
(the ``--batch-sweep`` flag) as a :func:`repro.parallel.warm` batch
handler.  ``tests/test_harness_batch.py`` pins its results byte-identical
to the per-point ``Job.run`` path and to :func:`repro.reference.run_job`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import checkpoint as _checkpoint
from .. import faults as _faults
from .. import markers as _markers
from ..compiler.ir import Program
from ..core.dump import NodeDump, dump_file_size
from ..core.counters import CompiledEvents
from ..core.interface import NODES_PER_NODE_CARD, mode_for_node
from ..core.postprocess import Aggregation
from ..isa.latency import CORE_CLOCK_HZ
from ..mem import NodeMemoryConfig
from ..mem.hierarchy import analyze_nodes_batch
from ..net import (
    BarrierNetwork,
    CollectiveNetwork,
    EthernetIOModel,
    TorusNetwork,
    TorusTopology,
)
from ..node import ComputeNode, OperatingMode
from ..obs import metrics as _metrics
from ..obs import timeline as _timeline
from ..obs.tracer import span as _span
from ..parallel import cache_context, get_batch_sweep
from ..runtime import machine as _machine
from ..runtime.machine import JobResult, _program_to_work
from ..runtime.mpi import CommResult, SimMPI
from ..runtime.process import place_ranks


_BATCH_RUNS = _metrics.counter("batch.runs")
_BATCH_POINTS = _metrics.counter("batch.points")
_BATCH_CLASSES = _metrics.counter("batch.stacked_classes")
_BATCH_TIMING_ROWS = _metrics.counter("batch.timing_rows")
_BATCH_TIMING_SHARED = _metrics.counter("batch.timing_rows_shared")

# the per-point engine's counters, mirrored point by point so report.md
# reads identically whichever engine produced the sweep
_JOBS = _metrics.counter("runtime.jobs")
_BSP_PHASES = _metrics.counter("runtime.bsp_phases")
_NODE_CLASSES = _metrics.counter("runtime.node_classes")
_NODE_CLASS_HITS = _metrics.counter("runtime.node_class_hits")
_COMM_HITS = _metrics.counter("runtime.comm_cache_hits")
_COMM_MISSES = _metrics.counter("runtime.comm_cache_misses")
_CLASS_TIER_HITS = _metrics.counter("runtime.node_class_tier_hits")
_COMM_TIER_HITS = _metrics.counter("runtime.comm_tier_hits")
_NODE_RUNS = _metrics.counter("node.runs")


@dataclass(frozen=True)
class PointSpec:
    """One sweep point, fully specified for the batched engine."""

    program: Program
    mode: OperatingMode
    num_ranks: int
    num_nodes: int
    mem_config: NodeMemoryConfig
    counter_modes: Tuple[int, int] = (0, 2)

    @classmethod
    def for_vnm(cls, code: str, flags, l3_mb: int = 8,
                problem_class: str = "C",
                counter_modes: Tuple[int, int] = (0, 2)) -> "PointSpec":
        """The paper's VNM configuration (mirrors ``run_vnm``)."""
        from ..npb import paper_ranks
        from .sweep import MB, compiled_benchmark, vnm_nodes
        ranks = paper_ranks(code)
        return cls(
            program=compiled_benchmark(code, flags, problem_class),
            mode=OperatingMode.VNM, num_ranks=ranks,
            num_nodes=vnm_nodes(ranks),
            mem_config=NodeMemoryConfig().with_l3_size(l3_mb * MB),
            counter_modes=tuple(counter_modes))

    @classmethod
    def for_smp1(cls, code: str, flags, l3_mb: int = 2,
                 problem_class: str = "C") -> "PointSpec":
        """The paper's fair SMP/1 configuration (mirrors ``run_smp1``)."""
        from ..npb import paper_ranks
        from .sweep import MB, compiled_benchmark
        ranks = paper_ranks(code)
        return cls(
            program=compiled_benchmark(code, flags, problem_class),
            mode=OperatingMode.SMP1, num_ranks=ranks, num_nodes=ranks,
            mem_config=NodeMemoryConfig().with_l3_size(l3_mb * MB))

    @classmethod
    def for_scaled(cls, code: str, flags, num_ranks: int,
                   l3_mb: int = 8,
                   problem_class: str = "C") -> "PointSpec":
        """An arbitrary VNM scale (mirrors ``run_scaled_vnm``)."""
        from ..compiler import compile_program
        from ..npb import build_benchmark
        from .sweep import MB, vnm_nodes
        return cls(
            program=compile_program(
                build_benchmark(code, num_ranks=num_ranks,
                                problem_class=problem_class), flags),
            mode=OperatingMode.VNM, num_ranks=num_ranks,
            num_nodes=vnm_nodes(num_ranks),
            mem_config=NodeMemoryConfig().with_l3_size(l3_mb * MB))


def available() -> bool:
    """Whether the batched engine may replace the per-point path.

    The engine reproduces the *clean-run* semantics of ``Job.run``
    exactly; anything that perturbs or observes a run point-by-point —
    fault injection, timeline sampling, open marker regions — falls
    back to the per-point path.
    """
    if not get_batch_sweep():
        return False
    injector = _faults.get()
    if injector is not None and injector.config.any_enabled:
        return False
    if _timeline.resolve_config(None) is not None:
        return False
    if _markers.active():
        return False
    return True


# ---------------------------------------------------------------------------
# counter algebra: named event counts -> per-node uint64 rows
# ---------------------------------------------------------------------------
def _accumulate(acc: Dict[str, int], events: Dict[str, int]) -> None:
    for name, count in events.items():
        acc[name] = acc.get(name, 0) + count


def _counts_to_row(counts: Dict[str, int], counter_mode: int) -> np.ndarray:
    """One node's counter row: mode-gated, counter-indexed, masked.

    Resolved by the same :class:`CompiledEvents` that ``Job.run``
    delivers to replicated nodes, so it matches ``UPCUnit.pulse_many``
    exactly: zero counts are skipped, unknown names and events of
    another mode are ignored, and each counter holds its pulse sum mod
    2**64 (modular addition commutes, so summing before masking is
    identical to the per-pulse sequence).  Negative counts raise, as
    ``pulse_many`` does.
    """
    for name, count in counts.items():
        if count < 0:
            raise ValueError(f"negative event count: {name}={count}")
    return CompiledEvents(counts).row(counter_mode)


# ---------------------------------------------------------------------------
# stage helpers
# ---------------------------------------------------------------------------
class _Layout:
    """Everything shared by points with one (ranks, mode, nodes) shape."""

    def __init__(self, num_ranks: int, mode: OperatingMode,
                 num_nodes: int):
        if num_ranks > num_nodes * mode.processes_per_node:
            raise ValueError(
                f"{num_ranks} ranks exceed the partition's "
                f"{num_nodes * mode.processes_per_node} slots "
                f"({num_nodes} nodes, {mode.value})")
        self.placement = _cached_placement(num_ranks, mode.name,
                                           num_nodes)
        self.used_nodes = sorted(self.placement.slots_by_node())
        self.card_size = min(NODES_PER_NODE_CARD,
                             max(1, len(self.used_nodes) // 2))
        self.residents = [len(self.placement.ranks_on_node(n))
                          for n in self.used_nodes]

    def counter_modes(self, primary: int, secondary: int) -> List[int]:
        return [mode_for_node(n, primary, secondary, self.card_size)
                for n in self.used_nodes]


def _resolve_comm_phases(point: PointSpec, layout: _Layout,
                         tier, tier_ctx) -> Tuple[List[CommResult], bool]:
    """Costed phases for one point, through the same caches as ``Job``.

    Returns ``(phases, was_cached)``; a computed result is seeded into
    the in-process comm cache and the shared tier exactly as the
    per-point engine would, so cache keys and contents are identical.
    """
    comm_ops = list(point.program.comms())
    comm_key = (tuple(comm_ops), point.num_ranks, point.mode.name,
                point.num_nodes)
    phases = _machine._COMM_CACHE.get(comm_key)
    if phases is not None:
        return phases, True
    if tier is not None:
        payload = tier.get("machine.comm_phase", (tier_ctx, comm_key))
        if payload is not None:
            phases = [CommResult.from_dict(d) for d in payload]
            _COMM_TIER_HITS.inc()
            while len(_machine._COMM_CACHE) >= _machine._COMM_CACHE_MAX:
                _machine._COMM_CACHE.pop(next(iter(_machine._COMM_CACHE)))
            _machine._COMM_CACHE[comm_key] = phases
            return phases, True
    # cost the phases on a throwaway network set: phase costs are pure
    # functions of (ops, placement, partition), so no Machine (and no
    # JTAG boot) is needed
    topology = TorusTopology.for_nodes(point.num_nodes)
    mpi = SimMPI(layout.placement, topology, TorusNetwork(topology),
                 CollectiveNetwork(point.num_nodes),
                 BarrierNetwork(point.num_nodes))
    phases = [mpi.run(op) for op in comm_ops]
    while len(_machine._COMM_CACHE) >= _machine._COMM_CACHE_MAX:
        _machine._COMM_CACHE.pop(next(iter(_machine._COMM_CACHE)))
    _machine._COMM_CACHE[comm_key] = phases
    if tier is not None:
        tier.put("machine.comm_phase", (tier_ctx, comm_key),
                 [phase.to_dict() for phase in phases])
    return phases, False


def _comm_side_counts(layout: _Layout, phases: Sequence[CommResult],
                      mode: OperatingMode) -> Tuple[List[Dict[str, int]],
                                                    float]:
    """Per-used-node comm-phase event counts and the comm wait cycles.

    Replays the per-point delivery order as one accumulation: per-phase
    torus events on the receiving used nodes, collective events on
    every used node, the total message-staging DDR lines split across
    the controllers, and the comm wait elapsing on every rank-hosting
    core.  The float phase costs are summed in op order — the same
    additions, in the same order, as the per-point loop.
    """
    index_of = {n: i for i, n in enumerate(layout.used_nodes)}
    counts: List[Dict[str, int]] = [{} for _ in layout.used_nodes]
    collective_total: Dict[str, int] = {}
    ddr_lines: Dict[int, int] = {}
    comm_cycles = 0.0
    for phase in phases:
        comm_cycles += phase.cycles_per_rank
        for node_id, events in phase.torus_events.items():
            i = index_of.get(node_id)
            if i is not None:
                _accumulate(counts[i], events)
        if phase.collective_events:
            _accumulate(collective_total, phase.collective_events)
        for node_id, lines in phase.ddr_lines_per_node.items():
            ddr_lines[node_id] = ddr_lines.get(node_id, 0) + lines
    assignment = mode.core_assignment()
    comm_int = int(round(comm_cycles))
    for i, node_id in enumerate(layout.used_nodes):
        if collective_total:
            _accumulate(counts[i], collective_total)
        lines = ddr_lines.get(node_id, 0)
        if lines:
            _accumulate(counts[i], {"BGP_DDR0_WRITE": lines // 2,
                                    "BGP_DDR1_READ": lines - lines // 2})
        if comm_int > 0:
            _accumulate(counts[i], {
                f"BGP_PU{core}_CYCLES": comm_int
                for slot in range(layout.residents[i])
                for core in assignment[slot]})
    return counts, comm_cycles


def _dump_io_cycles(num_nodes: int, used_nodes: Sequence[int]) -> float:
    """Cycles of the post-monitoring dump phase over the I/O path.

    Each used node ships one single-set dump whose size is a pure
    function of the format (:func:`repro.core.dump.dump_file_size`), so
    the Ethernet write phase is costed without materialising files.
    """
    dump_bytes = [0] * num_nodes
    size = dump_file_size(1)
    for node_id in used_nodes:
        dump_bytes[node_id] = size
    return EthernetIOModel().write_phase(dump_bytes).cycles


# ---------------------------------------------------------------------------
# point assembly
# ---------------------------------------------------------------------------
@lru_cache(maxsize=64)
def _cached_placement(num_ranks: int, mode_name: str, num_nodes: int):
    """Block placement, shared across the points of one layout.

    Placement is deterministic, so every point of a layout group (and
    every ``JobResult`` of that group) can hold the same object.
    """
    return place_ranks(num_ranks, OperatingMode[mode_name], num_nodes)


def _assemble_point(point: PointSpec, layout: _Layout,
                    group: Dict[str, Any],
                    adds: Sequence[Tuple[np.ndarray, np.ndarray]],
                    cycles_by_residents: Dict[int, List[float]]
                    ) -> JobResult:
    """Build one point's ``JobResult``: its comm group's counter rows,
    plus each node class's event row added to that class's nodes."""
    matrix = group["comm_matrix"].copy()
    for row, indices in adds:
        matrix[indices] += row
    node_modes = group["node_modes"]
    dumps = [NodeDump(node_id=node_id, mode=node_modes[i],
                      clock_hz=CORE_CLOCK_HZ, sets={0: matrix[i]})
             for i, node_id in enumerate(layout.used_nodes)]

    placement = layout.placement
    compute_cycles = [0.0] * point.num_ranks
    for node_id in layout.used_nodes:
        residents = placement.ranks_on_node(node_id)
        cycles = cycles_by_residents[len(residents)]
        for slot, rank in enumerate(residents):
            compute_cycles[rank] = cycles[slot]
    comm_cycles = group["comm_cycles"]
    return JobResult(
        program_name=point.program.name,
        flags_label=point.program.flags_label,
        mode=point.mode,
        placement=placement,
        elapsed_cycles=max(c + comm_cycles for c in compute_cycles),
        compute_cycles_per_rank=compute_cycles,
        comm_cycles_per_rank=comm_cycles,
        aggregation=Aggregation(dumps, set_id=0),
        dump_io_cycles=group["dump_io"],
    )


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------
def run_points(points: Sequence[PointSpec]) -> List[JobResult]:
    """Run every sweep point through the cross-point batched engine.

    Byte-identical to running each point through ``Job.run`` — same
    results, same shared-tier records under the same keys, same runtime
    counters — but with the cross-point
    redundancy removed and each model stage advanced as one stacked
    pass over all surviving class representatives.
    """
    points = list(points)
    if not points:
        return []
    _BATCH_RUNS.inc()
    _BATCH_POINTS.inc(len(points))
    tier = _checkpoint.get_shared_tier()
    tier_ctx = cache_context() if tier is not None else None

    with _span("batch.sweep", points=len(points)) as sweep_span:
        # ---- stage 1: layouts + per-point class keys ------------------
        layouts: Dict[Tuple, _Layout] = {}
        point_classes: List[Dict[int, Tuple]] = []  # residents -> key
        class_specs: Dict[Tuple, PointSpec] = {}
        works: Dict[int, Any] = {}
        fingerprints: Dict[int, str] = {}
        for point in points:
            lkey = (point.num_ranks, point.mode.name, point.num_nodes)
            layout = layouts.get(lkey)
            if layout is None:
                layout = layouts[lkey] = _Layout(
                    point.num_ranks, point.mode, point.num_nodes)
            if id(point.program) not in works:
                work = works[id(point.program)] = _program_to_work(
                    point.program)
                fingerprints[id(point.program)] = work.fingerprint()
            job_key = (fingerprints[id(point.program)], point.mode.name,
                       point.mem_config)
            by_residents: Dict[int, Tuple] = {}
            for residents in layout.residents:
                if residents not in by_residents:
                    key = (residents,) + job_key
                    by_residents[residents] = key
                    class_specs.setdefault(key, point)
            point_classes.append(by_residents)

        # ---- stage 2: node-class results, one stacked pass ------------
        class_results: Dict[Tuple, Tuple[List[float], Dict[str, int]]] = {}
        class_from_tier: set = set()
        pending: List[Tuple] = []
        for key in class_specs:
            if tier is not None:
                payload = tier.get("machine.node_class", (tier_ctx, key))
                if payload is not None:
                    class_results[key] = (payload["cycles"],
                                          payload["events"])
                    class_from_tier.add(key)
                    continue
            pending.append(key)
        _BATCH_CLASSES.inc(len(pending))
        if pending:
            with _span("batch.classes", pending=len(pending)):
                _simulate_classes(pending, class_specs, works,
                                  class_results)
            if tier is not None:
                for key in pending:
                    cycles, events = class_results[key]
                    tier.put("machine.node_class", (tier_ctx, key),
                             {"cycles": list(cycles),
                              "events": dict(events)})

        # ---- stage 3: comm phases + per-group counter matrices --------
        # resolved lazily in point order so the hit/miss counters tick
        # exactly as a per-point sweep's would
        groups: Dict[Tuple, Dict[str, Any]] = {}
        class_owner: Dict[Tuple, int] = {}
        assemblies: List[Tuple] = []
        class_rows: Dict[Tuple[Tuple, int], np.ndarray] = {}
        for p_index, point in enumerate(points):
            lkey = (point.num_ranks, point.mode.name, point.num_nodes)
            layout = layouts[lkey]
            comm_ops = tuple(point.program.comms())
            gkey = (comm_ops, point.num_ranks, point.mode.name,
                    point.num_nodes, point.counter_modes)
            group = groups.get(gkey)
            if group is None:
                phases, cached = _resolve_comm_phases(point, layout,
                                                      tier, tier_ctx)
                (_COMM_HITS if cached else _COMM_MISSES).inc()
                counts, comm_cycles = _comm_side_counts(
                    layout, phases, point.mode)
                node_modes = layout.counter_modes(*point.counter_modes)
                # node indices that share one (residents, counter-mode)
                # row update, shared by every point of this group
                index_groups: Dict[Tuple[int, int], List[int]] = {}
                for i in range(len(layout.used_nodes)):
                    pair = (layout.residents[i], node_modes[i])
                    index_groups.setdefault(pair, []).append(i)
                group = groups[gkey] = {
                    "comm_matrix": np.stack(
                        [_counts_to_row(counts[i], node_modes[i])
                         for i in range(len(layout.used_nodes))]),
                    "comm_cycles": comm_cycles,
                    "node_modes": node_modes,
                    "index_groups": {
                        pair: np.asarray(indices, dtype=np.intp)
                        for pair, indices in index_groups.items()},
                    "dump_io": _dump_io_cycles(point.num_nodes,
                                               layout.used_nodes),
                }
            else:
                _COMM_HITS.inc()
            # per-point engine-counter parity
            _JOBS.inc()
            _BSP_PHASES.inc(len(comm_ops))
            by_residents = point_classes[p_index]
            _NODE_CLASSES.inc(len(by_residents))
            _NODE_CLASS_HITS.inc(len(layout.used_nodes)
                                 - len(by_residents))
            if tier is not None:
                for key in by_residents.values():
                    if key in class_from_tier:
                        _CLASS_TIER_HITS.inc()
                    elif class_owner.setdefault(key, p_index) != p_index:
                        # a later point re-reading a class an earlier
                        # point just persisted is a tier hit per point
                        _CLASS_TIER_HITS.inc()

            adds = []
            for (residents, counter_mode), indices in (
                    group["index_groups"].items()):
                key = by_residents[residents]
                row = class_rows.get((key, counter_mode))
                if row is None:
                    row = class_rows[(key, counter_mode)] = _counts_to_row(
                        class_results[key][1], counter_mode)
                adds.append((row, indices))
            assemblies.append((point, layout, group, adds, {
                residents: list(class_results[key][0])
                for residents, key in by_residents.items()}))

        # ---- stage 4: assemble every point ----------------------------
        with _span("batch.assemble", points=len(points)):
            results = [_assemble_point(*parts) for parts in assemblies]
        sweep_span.set("classes", len(class_specs))
        sweep_span.set("stacked", len(pending))
    return results


def _simulate_classes(pending: Sequence[Tuple],
                      class_specs: Dict[Tuple, PointSpec],
                      works: Dict[int, Any],
                      class_results: Dict[Tuple, Tuple]) -> None:
    """Simulate every pending node class in one stacked pass.

    One :func:`analyze_nodes_batch` call covers all classes' hierarchy
    analyses; the pipeline-timing rows are deduped on
    ``(work, mode, residents)`` — the memory configuration never enters
    the timing — and one ``compute_cycles_batch`` matrix covers the
    survivors (row results are independent of batch composition, so
    stacking across classes is exact).
    """
    nodes: List[ComputeNode] = []
    procs: List[List] = []
    class_works: List[Any] = []
    for key in pending:
        point = class_specs[key]
        work = works[id(point.program)]
        node = ComputeNode(node_id=0, mode=point.mode,
                           mem_config=point.mem_config)
        loops = work.memory_loops()
        nodes.append(node)
        procs.append([loops if loops else [((), 0)]] * key[0])
        class_works.append(work)
    mem_results = analyze_nodes_batch([n.mem_model for n in nodes], procs)

    plans: List[List[tuple]] = []
    timing_slices: Dict[Tuple, Tuple[int, int]] = {}
    rows: List[np.ndarray] = []
    serial_fractions: List[float] = []
    shared_rows = 0
    for i, key in enumerate(pending):
        point = class_specs[key]
        work = class_works[i]
        node_plans = nodes[i]._plan([work] * key[0], mem_results[i])
        plans.append(node_plans)
        tkey = (id(work), point.mode.name, key[0])
        if tkey not in timing_slices:
            timing_slices[tkey] = (len(rows), len(node_plans))
            rows.extend(plan[3].as_vector() for plan in node_plans)
            serial_fractions.extend(plan[4] for plan in node_plans)
        else:
            shared_rows += len(node_plans)
    _BATCH_TIMING_ROWS.inc(len(rows))
    _BATCH_TIMING_SHARED.inc(shared_rows)
    totals = (nodes[0].cores[0].pipeline.compute_cycles_batch(
        np.stack(rows), serial_fractions) if rows else np.zeros(0))

    for i, key in enumerate(pending):
        point = class_specs[key]
        work = class_works[i]
        tkey = (id(work), point.mode.name, key[0])
        start, count = timing_slices[tkey]
        compute = [float(t) for t in totals[start:start + count].tolist()]
        result = nodes[i]._assemble([work] * key[0], mem_results[i],
                                    plans[i], compute)
        class_results[key] = (result.process_cycles, result.events)
        _NODE_RUNS.inc()


# ---------------------------------------------------------------------------
# warm() batch handlers for the memoised sweep runners
# ---------------------------------------------------------------------------
def _points_from_vnm_keys(keys: Sequence[Tuple]) -> List[PointSpec]:
    return [PointSpec.for_vnm(*key) for key in keys]


def _points_from_smp1_keys(keys: Sequence[Tuple]) -> List[PointSpec]:
    return [PointSpec.for_smp1(*key) for key in keys]


def _points_from_scaled_keys(keys: Sequence[Tuple]) -> List[PointSpec]:
    return [PointSpec.for_scaled(*key) for key in keys]


def _handler(points_of: Callable) -> Callable:
    def handle(keys: Sequence[Tuple]) -> Optional[List[JobResult]]:
        if not available():
            return None
        return run_points(points_of(keys))
    return handle


vnm_batch = _handler(_points_from_vnm_keys)
smp1_batch = _handler(_points_from_smp1_keys)
scaled_vnm_batch = _handler(_points_from_scaled_keys)


# ---------------------------------------------------------------------------
# paper-figure working set: warm + pin policy
# ---------------------------------------------------------------------------
def figure_working_set() -> List[Tuple]:
    """The memo calls behind the paper figures (VNM L3 sweep + pairs)."""
    from ..compiler import O5
    from ..npb import BENCHMARK_ORDER
    from .sweep import PAPER_L3_SIZES_MB
    calls: List[Tuple] = []
    for code in BENCHMARK_ORDER:
        for l3_mb in PAPER_L3_SIZES_MB:
            calls.append(("run_vnm", (code, O5(), l3_mb)))
        calls.append(("run_smp1", (code, O5(), 2)))
    return calls


def pin_figure_working_set(tier) -> int:
    """Pin the paper-figure records so LRU eviction never drops them.

    The figure working set is the service's hottest — and most
    expensive — content; pinning keeps it resident under any
    ``max_records``/``max_bytes`` pressure.  Returns the number of
    records pinned (pins persist in the tier's pin index, so they also
    protect records written later under the same keys).
    """
    from .sweep import run_smp1, run_vnm
    runners = {"run_vnm": run_vnm, "run_smp1": run_smp1}
    records = []
    for name, args in figure_working_set():
        runner = runners[name]
        records.append((runner._category(),
                        runner._store_key(runner.key(*args))))
    return tier.pin_many(records)


def prefill_figure_working_set() -> int:
    """Compute-and-persist the figure working set through the runners.

    With the batched engine active the whole set is one stacked pass;
    otherwise each point runs through the per-point path.  Either way
    every record lands in the attached store/tier under its normal key.
    Returns the number of sweep points ensured resident.
    """
    from ..parallel import warm
    from .sweep import run_smp1, run_vnm
    calls = figure_working_set()
    vnm_calls = [args for name, args in calls if name == "run_vnm"]
    smp1_calls = [args for name, args in calls if name == "run_smp1"]
    warm(run_vnm, vnm_calls)
    warm(run_smp1, smp1_calls)
    for args in vnm_calls:
        run_vnm(*args)
    for args in smp1_calls:
        run_smp1(*args)
    return len(calls)
