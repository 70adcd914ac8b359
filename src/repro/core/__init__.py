"""The paper's contribution: the UPC unit and its interface library.

Public surface:

* :class:`UPCUnit` — the per-node Universal Performance Counter unit
  (256 x 64-bit counters, 4 modes, thresholding).
* :class:`BGPCounterInterface` and the paper-style ``BGP_*`` functions.
* :class:`CounterSession` — MPI_Init/MPI_Finalize-hooked machine-wide
  collection.
* Dump read/write, cross-node aggregation, CSV emission, and the
  derived metrics (MFLOPS, L3-DDR traffic, FP instruction profile).
"""

from .config import (
    BGP_UPC_CFG_EDGE_FALL,
    BGP_UPC_CFG_EDGE_RISE,
    BGP_UPC_CFG_LEVEL_HIGH,
    BGP_UPC_CFG_LEVEL_LOW,
    CounterConfig,
    SignalMode,
)
from .counters import CompiledEvents, ThresholdInterrupt, UPCUnit
from .dump import DumpFormatError, DumpWriter, NodeDump, read_dump
from .events import (
    COUNTERS_PER_MODE,
    CORES_PER_NODE,
    EVENTS_BY_ID,
    EVENTS_BY_NAME,
    NUM_MODES,
    TOTAL_EVENTS,
    Event,
    core_event,
    event_by_name,
    events_in_mode,
)
from .interface import (
    BGP_Finalize,
    BGP_Initialize,
    BGP_Start,
    BGP_Stop,
    BGPCounterInterface,
    InterfaceError,
    OVERHEAD_INIT_CYCLES,
    OVERHEAD_START_CYCLES,
    OVERHEAD_STOP_CYCLES,
    OVERHEAD_TOTAL_CYCLES,
    mode_for_node,
    node_card,
)
from .metrics import (
    ddr_bandwidth_bytes_per_sec,
    ddr_traffic_bytes,
    elapsed_cycles,
    fp_instruction_counts,
    fp_profile,
    l1_hit_rate,
    l2_prefetch_coverage,
    l3_miss_rate,
    merge_named,
    mflops,
    simd_instructions,
    total_flops,
)
from .monitor import CounterMonitor, EventSeries, Sample
from .multiplex import (
    AdaptiveMultiplexedSession,
    ModeObservation,
    MultiplexedSession,
)
from .mpi_hooks import CounterSession
from .postprocess import (
    Aggregation,
    CounterStats,
    ValidationError,
    aggregate,
    load_dumps,
    validate_dumps,
    write_metrics_csv,
    write_raw_csv,
    write_stats_csv,
)
from .registers import UPCRegisterFile

__all__ = [
    "UPCUnit",
    "CompiledEvents",
    "UPCRegisterFile",
    "ThresholdInterrupt",
    "CounterConfig",
    "SignalMode",
    "BGP_UPC_CFG_LEVEL_HIGH",
    "BGP_UPC_CFG_EDGE_RISE",
    "BGP_UPC_CFG_EDGE_FALL",
    "BGP_UPC_CFG_LEVEL_LOW",
    "Event",
    "EVENTS_BY_ID",
    "EVENTS_BY_NAME",
    "COUNTERS_PER_MODE",
    "CORES_PER_NODE",
    "NUM_MODES",
    "TOTAL_EVENTS",
    "event_by_name",
    "events_in_mode",
    "core_event",
    "BGPCounterInterface",
    "InterfaceError",
    "BGP_Initialize",
    "BGP_Start",
    "BGP_Stop",
    "BGP_Finalize",
    "mode_for_node",
    "node_card",
    "OVERHEAD_INIT_CYCLES",
    "OVERHEAD_START_CYCLES",
    "OVERHEAD_STOP_CYCLES",
    "OVERHEAD_TOTAL_CYCLES",
    "DumpWriter",
    "NodeDump",
    "DumpFormatError",
    "read_dump",
    "CounterSession",
    "CounterMonitor",
    "EventSeries",
    "Sample",
    "AdaptiveMultiplexedSession",
    "MultiplexedSession",
    "ModeObservation",
    "Aggregation",
    "CounterStats",
    "ValidationError",
    "aggregate",
    "load_dumps",
    "validate_dumps",
    "write_stats_csv",
    "write_metrics_csv",
    "write_raw_csv",
    "mflops",
    "total_flops",
    "fp_profile",
    "fp_instruction_counts",
    "simd_instructions",
    "ddr_traffic_bytes",
    "ddr_bandwidth_bytes_per_sec",
    "elapsed_cycles",
    "l1_hit_rate",
    "l2_prefetch_coverage",
    "l3_miss_rate",
    "merge_named",
]
