"""Node-level memory system: four private hierarchies on one L3 + DDR.

Ties the per-process analytical model (:mod:`repro.mem.analytical`)
to the shared resources (:mod:`repro.mem.l3`, :mod:`repro.mem.ddr`,
:mod:`repro.mem.snoop`).  The flow for one node is:

1. analyse every process against its *fair* L3 share to learn each
   process's access intensity and thrash pressure;
2. reallocate L3 capacity by intensity and re-analyse;
3. inflate misses by the co-runner interference factor;
4. split DDR traffic across the two controllers and compute port
   contention once the execution window is known.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs import metrics as _metrics
from ..obs.tracer import span as _span
from .address import AccessPattern, StreamAccess
from .analytical import (
    HierarchyConfig,
    LoopMemoryResult,
    analyze_loops_batch,
)

_NODE_ANALYSES = _metrics.counter("mem.node_analyses")
_CONTENTION_RESOLUTIONS = _metrics.counter(
    "mem.ddr_contention_resolutions")
_QUEUE_DELAY = _metrics.histogram("mem.ddr_queue_delay_cycles")
from .cache import CacheConfig
from .ddr import ContentionResult, DDRConfig, DDRModel
from .l3 import ProcessMemoryProfile, SharedL3Config, SharedL3Model
from .prefetch import PrefetcherConfig
from .snoop import SnoopConfig, SnoopFilterModel

#: ``(streams, traversals)`` pairs describing one process's loops.
ProcessLoops = Sequence[Tuple[Sequence[StreamAccess], int]]


@dataclass(frozen=True)
class NodeMemoryConfig:
    """Full memory-system configuration of one compute node."""

    l1: CacheConfig = CacheConfig(size_bytes=32 * 1024, line_bytes=32,
                                  associativity=16, hit_latency=4)
    l2: CacheConfig = CacheConfig(size_bytes=2 * 1024, line_bytes=128,
                                  associativity=16, hit_latency=12)
    l3: SharedL3Config = SharedL3Config()
    ddr: DDRConfig = DDRConfig()
    prefetcher: PrefetcherConfig = PrefetcherConfig()
    snoop: SnoopConfig = SnoopConfig()
    overlap: float = 0.3
    write_stall_factor: float = 0.2
    capacity_sharing: str = "greedy"

    def with_l3_size(self, size_bytes: int) -> "NodeMemoryConfig":
        """A copy with a different L3 size (the Figure 11 sweep knob)."""
        return replace(self, l3=replace(self.l3, size_bytes=size_bytes))

    def with_prefetch_depth(self, depth: int) -> "NodeMemoryConfig":
        """A copy with a different L2 prefetch depth (the paper's
        future-work knob: 'vary the prefetching amount at L2 level')."""
        return replace(self, prefetcher=replace(self.prefetcher,
                                                depth=depth))


@dataclass
class NodeMemoryResult:
    """Per-process results plus node-level shared-resource accounting."""

    per_process: List[LoopMemoryResult] = field(default_factory=list)
    shares: List[float] = field(default_factory=list)
    inflations: List[float] = field(default_factory=list)
    contention: Optional[ContentionResult] = None

    @property
    def total_ddr_reads(self) -> float:
        return sum(r.ddr_reads for r in self.per_process)

    @property
    def total_ddr_writes(self) -> float:
        return sum(r.ddr_writes for r in self.per_process)

    @property
    def total_ddr_transfers(self) -> float:
        """Node-wide L3<->DDR line movements (Figure 11/12 metric)."""
        return self.total_ddr_reads + self.total_ddr_writes


class NodeMemoryModel:
    """The shared-memory-system model of one node."""

    def __init__(self, config: NodeMemoryConfig = NodeMemoryConfig()):
        self.config = config
        self.l3_model = SharedL3Model(config.l3)
        self.ddr_model = DDRModel(config.ddr)
        self.snoop_model = SnoopFilterModel(config.snoop)

    # ------------------------------------------------------------------
    def _hierarchy_config(self, l3_share: float) -> HierarchyConfig:
        return HierarchyConfig(
            l1=self.config.l1,
            l2=self.config.l2,
            l3_capacity_bytes=int(l3_share),
            l3_line_bytes=self.config.l3.line_bytes,
            l3_hit_latency=self.config.l3.hit_latency,
            ddr_latency=self.config.ddr.latency,
            prefetcher=self.config.prefetcher,
            overlap=self.config.overlap,
            write_stall_factor=self.config.write_stall_factor,
            capacity_sharing=self.config.capacity_sharing,
        )

    def _profile_from(self, fair_result: LoopMemoryResult,
                      unbounded: Optional[LoopMemoryResult]
                      ) -> ProcessMemoryProfile:
        """Intensity + thrash pressure of one process, from its analyses
        at the fair share and at an unbounded share (the latter is only
        read, and only needed, when the process touches the L3)."""
        intensity = fair_result.l3.accesses
        if intensity == 0:
            return ProcessMemoryProfile(intensity=0.0, thrash_fraction=0.0)
        # thrash pressure = *non-sequential capacity misses* only: the
        # misses a fair share causes beyond the compulsory floor, and
        # only from random/strided streams.  Compulsory misses don't
        # repeatedly evict neighbours' lines, and sequential streams'
        # one-touch lines age out quickly; random/strided re-reference
        # patterns are what genuinely pollute a shared cache.
        capacity_misses = max(0.0, fair_result.l3_nonseq_misses
                              - unbounded.l3_nonseq_misses)
        thrash = min(1.0, capacity_misses / intensity)
        return ProcessMemoryProfile(intensity=intensity,
                                    thrash_fraction=thrash)

    def _profiles_vector(self, processes: Sequence[ProcessLoops],
                         fair: float) -> List[ProcessMemoryProfile]:
        """All processes' profiles in two batched analysis passes."""
        fair_cfg = self._hierarchy_config(fair)
        fair_results = analyze_loops_batch(
            [(p, fair_cfg) for p in processes])
        # the unbounded pass only runs for processes with L3 traffic —
        # the profile never reads it otherwise
        active = [i for i, r in enumerate(fair_results)
                  if r.l3.accesses != 0]
        unb_cfg = self._hierarchy_config(1 << 40)
        unb_results = dict(zip(active, analyze_loops_batch(
            [(processes[i], unb_cfg) for i in active]))) if active else {}
        return [self._profile_from(fair_results[i], unb_results.get(i))
                for i in range(len(processes))]

    def analyze(self, processes: Sequence[ProcessLoops]
                ) -> NodeMemoryResult:
        """Full node analysis of the co-resident processes' loop sets.

        The per-process fair-share, unbounded and final-share analyses
        each run as one batched array pass over every process at once;
        :func:`repro.reference.analyze_memory` is the per-process twin
        they are byte-identical to.
        """
        if not processes:
            raise ValueError("no processes on the node")
        _NODE_ANALYSES.inc()
        n = len(processes)
        with _span("mem.analyze", processes=n):
            fair = self.config.l3.size_bytes / n
            profiles = self._profiles_vector(processes, fair)
            shares = self.l3_model.capacity_shares(profiles)
            out = NodeMemoryResult(shares=shares)
            cfgs = [self._hierarchy_config(share) for share in shares]
            finals = analyze_loops_batch(list(zip(processes, cfgs)))
            for i, (result, cfg) in enumerate(zip(finals, cfgs)):
                inflation = self.l3_model.miss_inflation(i, profiles)
                self._apply_inflation(result, inflation, cfg)
                out.per_process.append(result)
                out.inflations.append(inflation)
        return out

    @staticmethod
    def _apply_inflation(result: LoopMemoryResult, factor: float,
                         cfg: HierarchyConfig) -> None:
        """Inflate L3 misses (conflict misses caused by co-runners)."""
        if factor <= 1.0 or result.l3.misses == 0:
            return
        extra = result.l3.misses * (factor - 1.0)
        extra = min(extra, result.l3.hits)  # can't miss more than accesses
        result.l3.misses += extra
        result.l3.hits -= extra
        result.ddr_reads += extra
        result.stall_cycles += extra * cfg.ddr_latency * (1.0 - cfg.overlap)

    # ------------------------------------------------------------------
    def contention(self, result: NodeMemoryResult,
                   window_cycles: float) -> ContentionResult:
        """DDR port contention over the node's execution window."""
        c = self.ddr_model.contention(result.total_ddr_transfers,
                                      window_cycles)
        _CONTENTION_RESOLUTIONS.inc()
        _QUEUE_DELAY.observe(c.queue_delay)
        result.contention = c
        return c

    def contention_stall_per_process(self, result: NodeMemoryResult,
                                     window_cycles: float) -> List[float]:
        """Extra stall cycles per process from DDR queueing."""
        c = self.contention(result, window_cycles)
        return [r.ddr_reads * c.queue_delay * (1.0 - self.config.overlap)
                for r in result.per_process]

    # ------------------------------------------------------------------
    def node_events(self, result: NodeMemoryResult,
                    stores_per_core: Optional[Sequence[int]] = None
                    ) -> Dict[str, int]:
        """Shared-resource UPC events (modes 1 and 2) for the node."""
        reads = int(round(self.total(result, "ddr_reads")))
        writes = int(round(self.total(result, "ddr_writes")))
        split = self.ddr_model.split(reads, writes)
        l3_reads = int(round(sum(r.l3.accesses for r in result.per_process)))
        l3_hits = int(round(sum(r.l3.hits for r in result.per_process)))
        l3_misses = int(round(sum(r.l3.misses for r in result.per_process)))
        l3_wb = int(round(sum(r.l3.writebacks for r in result.per_process)))
        banks = self.l3_model.bank_split(l3_reads)
        events = {
            "BGP_L3_READ": l3_reads,
            "BGP_L3_HIT": l3_hits,
            "BGP_L3_MISS": l3_misses,
            "BGP_L3_WRITEBACK": l3_wb,
            "BGP_L3_BANK0_ACCESS": banks[0],
            "BGP_L3_BANK1_ACCESS": banks[1] if len(banks) > 1 else 0,
            "BGP_DDR0_READ": split[0][0],
            "BGP_DDR0_WRITE": split[0][1],
            "BGP_DDR1_READ": split[1][0] if len(split) > 1 else 0,
            "BGP_DDR1_WRITE": split[1][1] if len(split) > 1 else 0,
        }
        if result.contention is not None:
            events["BGP_DDR_PORT_CONFLICT"] = result.contention.conflict_cycles
        if stores_per_core is not None:
            for core, snoop in enumerate(
                    self.snoop_model.analyze(stores_per_core)):
                events[f"BGP_PU{core}_SNOOP_RECEIVED"] = snoop["received"]
                events[f"BGP_PU{core}_SNOOP_FILTERED"] = snoop["filtered"]
                events[f"BGP_PU{core}_SNOOP_HIT"] = snoop["hit"]
        return events

    @staticmethod
    def total(result: NodeMemoryResult, attr: str) -> float:
        """Sum a LoopMemoryResult attribute over the node's processes."""
        return sum(getattr(r, attr) for r in result.per_process)


def analyze_nodes_batch(models: Sequence[NodeMemoryModel],
                        node_processes: Sequence[Sequence[ProcessLoops]]
                        ) -> List[NodeMemoryResult]:
    """Analyze many nodes' memory systems in three concatenated passes.

    Each ``(model, processes)`` pair gets exactly the result
    ``model.analyze(processes)`` would produce under the vectorized
    engine, but the fair-share, unbounded and final-share analyses run
    as *one* ``analyze_loops_batch`` call each over every process of
    every node — the batched sweep engine stacks whole sweep points
    here instead of paying three array-pass launches per node.  Per-row
    results of ``analyze_loops_batch`` are independent of batch
    composition (the PR 5/7 identity suites pin this), so the
    concatenation is exactness-preserving.
    """
    if len(models) != len(node_processes):
        raise ValueError(f"{len(models)} models for "
                         f"{len(node_processes)} process lists")
    for processes in node_processes:
        if not processes:
            raise ValueError("no processes on the node")
    _NODE_ANALYSES.inc(len(models))
    with _span("mem.analyze_nodes", nodes=len(models)):
        rows: List[Tuple[int, ProcessLoops]] = []
        fair_pairs = []
        for m, (model, processes) in enumerate(zip(models,
                                                   node_processes)):
            fair = model.config.l3.size_bytes / len(processes)
            fair_cfg = model._hierarchy_config(fair)
            for loops in processes:
                rows.append((m, loops))
                fair_pairs.append((loops, fair_cfg))
        fair_results = analyze_loops_batch(fair_pairs)
        # unbounded pass only for rows with L3 traffic (the per-node
        # path skips it when intensity == 0 too)
        active = [i for i, r in enumerate(fair_results)
                  if r.l3.accesses != 0]
        unb_results: Dict[int, LoopMemoryResult] = {}
        if active:
            unb_results = dict(zip(active, analyze_loops_batch(
                [(rows[i][1],
                  models[rows[i][0]]._hierarchy_config(1 << 40))
                 for i in active])))
        # per-node capacity reallocation from the stacked profiles
        out: List[NodeMemoryResult] = []
        final_pairs = []
        node_cfgs: List[List[HierarchyConfig]] = []
        cursor = 0
        for model, processes in zip(models, node_processes):
            n = len(processes)
            profiles = [
                model._profile_from(fair_results[cursor + j],
                                    unb_results.get(cursor + j))
                for j in range(n)]
            shares = model.l3_model.capacity_shares(profiles)
            cfgs = [model._hierarchy_config(share) for share in shares]
            out.append(NodeMemoryResult(shares=shares))
            out[-1].inflations = [
                model.l3_model.miss_inflation(j, profiles)
                for j in range(n)]
            node_cfgs.append(cfgs)
            final_pairs.extend(zip(processes, cfgs))
            cursor += n
        finals = analyze_loops_batch(final_pairs)
        cursor = 0
        for model, result, cfgs in zip(models, out, node_cfgs):
            for j, cfg in enumerate(cfgs):
                final = finals[cursor + j]
                model._apply_inflation(final, result.inflations[j], cfg)
                result.per_process.append(final)
            cursor += len(cfgs)
    return out
