"""The reference oracle: the job engine with every shortcut taken out.

:func:`run_job` runs a job the slow, literal way the paper's tool chain
describes it.  Every used node is simulated on its own; every memory
analysis walks one process and one loop at a time; every pipeline plan
is timed alone; every communication phase is lowered to per-rank
messages and costed message by message on the torus; every counter
event is one UPC pulse; every node's dump is written to a file, read
back and aggregated value by value.  No node-class, comm-phase or
shared-tier cache is consulted.

The production engine (:class:`repro.runtime.machine.Job` and
:func:`repro.harness.batch.run_points`) must equal this oracle byte for
byte — ``JobResult.to_dict()``, dump bytes and sampled timelines.  Only
the identity suites and the benchmark baseline legs import it.  See
DESIGN.md, "Reference oracle", for why the two agree exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .compiler.ir import Program
from .core.dump import NodeDump
from .core.events import COUNTERS_PER_MODE, EVENTS_BY_ID, EVENTS_BY_NAME
from .core.mpi_hooks import CounterSession
from .core.postprocess import Aggregation, CounterStats, validate_dumps
from .mem.analytical import analyze_loops
from .mem.hierarchy import NodeMemoryModel, NodeMemoryResult, ProcessLoops
from .mem.l3 import ProcessMemoryProfile
from .node import ComputeNode, ProcessWork
from .node.soc import NodeRunResult
from .runtime.machine import Job, JobResult, Machine
from .runtime.mpi import SimMPI
from .runtime.process import JobPlacement


def pulse_events(node: ComputeNode, events: Dict[str, int]) -> None:
    """Deliver named event counts one UPC pulse at a time."""
    for name, count in events.items():
        if count > 0 and name in EVENTS_BY_NAME:
            node.upc.pulse(name, count)


def _profile(model: NodeMemoryModel, loops: ProcessLoops,
             fair_share: float) -> ProcessMemoryProfile:
    """Intensity + thrash pressure of one process at a fair share."""
    fair = analyze_loops(loops, model._hierarchy_config(fair_share),
                         engine="scalar")
    unbounded = None
    if fair.l3.accesses != 0:
        unbounded = analyze_loops(loops, model._hierarchy_config(1 << 40),
                                  engine="scalar")
    return model._profile_from(fair, unbounded)


def analyze_memory(model: NodeMemoryModel,
                   processes: Sequence[ProcessLoops]) -> NodeMemoryResult:
    """:meth:`NodeMemoryModel.analyze`, one process and loop at a time."""
    if not processes:
        raise ValueError("no processes on the node")
    fair = model.config.l3.size_bytes / len(processes)
    profiles = [_profile(model, loops, fair) for loops in processes]
    shares = model.l3_model.capacity_shares(profiles)
    out = NodeMemoryResult(shares=shares)
    for i, (loops, share) in enumerate(zip(processes, shares)):
        cfg = model._hierarchy_config(share)
        result = analyze_loops(loops, cfg, engine="scalar")
        inflation = model.l3_model.miss_inflation(i, profiles)
        model._apply_inflation(result, inflation, cfg)
        out.per_process.append(result)
        out.inflations.append(inflation)
    return out


def run_node(node: ComputeNode,
             processes: Sequence[ProcessWork]) -> NodeRunResult:
    """:meth:`ComputeNode.run` with every stage on its scalar twin."""
    loops = [p.memory_loops() or [((), 0)] for p in processes]
    mem_result = analyze_memory(node.mem_model, loops)
    plans = node._plan(processes, mem_result)
    compute = [node.cores[core_id].pipeline.compute_cycles(
                   mix, serial_fraction).total
               for _, core_id, _, mix, serial_fraction, _ in plans]
    result = node._assemble(processes, mem_result, plans, compute)
    pulse_events(node, result.events)
    return result


def aggregate(dumps: Sequence[NodeDump], set_id: int = 0) -> Aggregation:
    """:class:`Aggregation` of validated dumps, value by value."""
    validate_dumps(dumps)
    agg = Aggregation.__new__(Aggregation)
    agg.set_id = set_id
    agg.nodes_by_mode = {}
    values_by_event: Dict[int, List[int]] = {}
    for d in dumps:
        agg.nodes_by_mode.setdefault(d.mode, []).append(d.node_id)
        arr = d.deltas(set_id)
        base = d.mode * COUNTERS_PER_MODE
        for counter in range(COUNTERS_PER_MODE):
            values_by_event.setdefault(base + counter, []).append(
                int(arr[counter]))
    agg.stats = {}
    for event_id, values in values_by_event.items():
        ev = EVENTS_BY_ID[event_id]
        agg.stats[ev.name] = CounterStats(
            event=ev,
            minimum=min(values),
            maximum=max(values),
            mean=float(np.mean(values)),
            total=int(sum(values)),
            node_count=len(values),
        )
    return agg


class ReferenceMPI(SimMPI):
    """Every point-to-point phase lowered to per-rank messages and
    costed one message at a time on the torus."""

    _phase_engine = "scalar"

    def _message_arrays(self, op):
        return None


class ReferenceJob(Job):
    """:class:`Job` with each stage hook on its scalar, cache-free twin."""

    def _class_key(self, node_id: int, residents: int,
                   job_key: Tuple) -> Tuple:
        return (residents, node_id) + job_key  # every node its own class

    def _shared_tier(self, fault_ctx):
        return None

    def _simulate_class(self, node, work, residents):
        result = run_node(node, [work] * residents)
        return result.process_cycles, result.events

    def _mpi(self, placement: JobPlacement) -> SimMPI:
        machine = self.machine
        return ReferenceMPI(placement, machine.topology, machine.torus,
                            machine.collective, machine.barrier)

    def _comm_key(self, comm_ops):
        return None  # cost every phase from scratch

    def _pulse(self, node, events) -> None:
        pulse_events(node, events)

    def _aggregate(self, session: CounterSession) -> Aggregation:
        return aggregate(session.dumps())


def run_job(machine: Machine, program: Program, num_ranks: int,
            counter_modes: Tuple[int, int] = (0, 2),
            dump_dir: Optional[str] = None,
            sample_every: Optional[int] = None) -> JobResult:
    """Run ``program`` on ``machine`` through the reference oracle.

    Arguments mean what they mean for ``Job(machine, program,
    num_ranks, sample_every=...).run(counter_modes, dump_dir)``, and
    the result must equal that call's byte for byte.
    """
    return ReferenceJob(machine, program, num_ranks,
                        sample_every=sample_every).run(
        counter_modes=counter_modes, dump_dir=dump_dir)
