"""Analytical (trace-less) memory hierarchy model.

Whole-machine runs simulate 128 processes over millions of loop
iterations; replaying concrete address traces through the exact
simulator would take hours.  This module computes the *expected*
per-level hit/miss/writeback counts for a loop's
:class:`~repro.mem.address.StreamAccess` descriptors directly, using
standard working-set arguments:

* a stream that fits in a level's capacity share misses only on first
  touch (compulsory misses) and hits on every later traversal;
* a stream larger than its share under cyclic (LRU) reuse re-misses its
  whole footprint every traversal — the classic LRU thrashing cliff;
* RANDOM streams hit with probability equal to the fraction of their
  footprint resident in steady state.

Capacity is shared between a loop's streams proportionally to footprint
(the LRU steady state for uniformly-interleaved streams), and an
``effective_fraction`` discounts conflict misses from finite
associativity.  The exact simulator in :mod:`repro.mem.cache` is the
ground truth these formulas are validated against (see
``tests/test_mem_model_agreement.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..obs import metrics as _metrics
from .address import AccessKind, AccessPattern, StreamAccess
from .cache import CacheConfig
from .prefetch import PrefetcherConfig, analytical_coverage

#: Hot-path tallies: how many cache-model evaluations a run performed.
#: Counting (one int add) is always on; spans would be too heavy here.
_LOOP_EVALS = _metrics.counter("mem.loop_evals")
_STREAM_EVALS = _metrics.counter("mem.stream_evals")

#: Fraction of nominal capacity usable before conflict misses bite.
EFFECTIVE_FRACTION = 0.9
#: Fraction of prefetches that are useless overfetch past stream ends.
PREFETCH_WASTE = 0.10
#: Stall weight of pure-WRITE streams: store misses drain through the
#: store buffers and only stall the core on buffer backpressure.
WRITE_STALL_FACTOR = 0.2


@dataclass
class LevelCounts:
    """Expected access counts at one cache level (whole loop, all trips)."""

    accesses: float = 0.0
    hits: float = 0.0
    misses: float = 0.0
    writebacks: float = 0.0
    writethroughs: float = 0.0
    prefetch_hits: float = 0.0
    prefetch_issued: float = 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def add(self, other: "LevelCounts") -> None:
        """Accumulate another stream's counts into this one."""
        self.accesses += other.accesses
        self.hits += other.hits
        self.misses += other.misses
        self.writebacks += other.writebacks
        self.writethroughs += other.writethroughs
        self.prefetch_hits += other.prefetch_hits
        self.prefetch_issued += other.prefetch_issued


@dataclass
class LoopMemoryResult:
    """Full-hierarchy expected behaviour of one loop execution."""

    l1: LevelCounts = field(default_factory=LevelCounts)
    l2: LevelCounts = field(default_factory=LevelCounts)
    l3: LevelCounts = field(default_factory=LevelCounts)
    ddr_reads: float = 0.0
    ddr_writes: float = 0.0
    stall_cycles: float = 0.0
    #: L3 misses from non-sequential (random/strided) streams — the
    #: accesses that genuinely thrash a shared cache.  Sequential
    #: streams' lines have one-touch lifetimes and age out without
    #: displacing co-runners' hot data for long.
    l3_nonseq_misses: float = 0.0

    def add(self, other: "LoopMemoryResult") -> None:
        """Accumulate another loop's counts."""
        self.l1.add(other.l1)
        self.l2.add(other.l2)
        self.l3.add(other.l3)
        self.ddr_reads += other.ddr_reads
        self.ddr_writes += other.ddr_writes
        self.stall_cycles += other.stall_cycles
        self.l3_nonseq_misses += other.l3_nonseq_misses

    @property
    def ddr_line_transfers(self) -> float:
        """Total L3<->DDR line movements (the paper's traffic metric)."""
        return self.ddr_reads + self.ddr_writes


@dataclass(frozen=True)
class HierarchyConfig:
    """Geometry + latency of the per-core view of the hierarchy.

    ``l3_capacity_bytes`` is this *process's effective share* of the
    shared L3 — the node model computes it from the real L3 size, the
    number of active cores, and inter-process interference.
    """

    l1: CacheConfig = CacheConfig(size_bytes=32 * 1024, line_bytes=32,
                                  associativity=16, hit_latency=4)
    l2: CacheConfig = CacheConfig(size_bytes=2 * 1024, line_bytes=128,
                                  associativity=16, hit_latency=12)
    l3_capacity_bytes: int = 8 * 1024 * 1024
    l3_line_bytes: int = 128
    l3_hit_latency: int = 50
    ddr_latency: int = 104
    prefetcher: PrefetcherConfig = PrefetcherConfig()
    #: fraction of miss latency hidden by overlap (in-order core: low)
    overlap: float = 0.3
    #: stall weight of pure-WRITE streams (1.0 = stores stall like loads)
    write_stall_factor: float = WRITE_STALL_FACTOR
    #: capacity sharing between a loop's streams: "greedy" (LRU keeps
    #: the densest-reuse streams resident) or "proportional" (naive
    #: footprint-proportional split) — an ablation knob
    capacity_sharing: str = "greedy"

    def __post_init__(self):
        if self.capacity_sharing not in ("greedy", "proportional"):
            raise ValueError(
                f"unknown capacity_sharing {self.capacity_sharing!r}")
        if not 0.0 <= self.write_stall_factor <= 1.0:
            raise ValueError("write_stall_factor must be in [0, 1]")


# ---------------------------------------------------------------------------
# single-level expectation
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _LevelStream:
    """A stream as seen by one cache level.

    ``traversals`` is per stream: a stream retained by the level above
    generates traffic here only while the upper level is cold, so its
    *effective* traversal count at this level shrinks (down to 1).
    """

    accesses_per_traversal: float
    distinct_lines: float
    footprint_lines: float  # total region in this level's lines
    pattern: AccessPattern
    stride_bytes: int
    traversals: float = 1.0


def _level_behaviour(s: _LevelStream, capacity_share: float,
                     line_bytes: int,
                     cache_exists: bool = True) -> tuple:
    """Expected (hits, misses) of one stream at one level, all traversals.

    ``cache_exists=False`` models a configured-out level (the paper's
    0 MB L3 point): every access misses.  A zero *share* in an existing
    cache is different — the stream still enjoys current-line (MRU)
    residency, so spatial locality within a line survives.
    """
    a = s.accesses_per_traversal
    u = s.distinct_lines
    traversals = s.traversals
    total_accesses = a * traversals
    if not cache_exists:
        return 0.0, total_accesses
    if s.pattern is AccessPattern.RANDOM:
        f = max(s.footprint_lines, 1.0)
        resident = min(1.0, max(capacity_share, 0.0) / (f * line_bytes))
        # steady-state: a uniformly random access hits iff its line is
        # among the resident fraction of the region
        steady_misses = total_accesses * (1.0 - resident)
        # cold-start floor: first touches always miss; expected distinct
        # lines touched is the coupon-collector expectation
        distinct_total = -f * math.expm1(
            total_accesses * math.log1p(-1.0 / f)) if f > 1 else 1.0
        misses = min(max(steady_misses, distinct_total), total_accesses)
        return total_accesses - misses, misses
    fits = u * line_bytes <= capacity_share
    if fits:
        misses = u  # compulsory only; all later traversals hit
    else:
        # cyclic LRU reuse retains nothing across traversals, but
        # spatial locality within the current line survives at any
        # capacity (the line being filled serves the next accesses)
        misses = u * traversals
    misses = min(misses, total_accesses)
    return total_accesses - misses, misses


def _capacity_shares(streams: Sequence[_LevelStream], capacity: float,
                     line_bytes: int,
                     policy: str = "greedy") -> List[float]:
    """Split a level's capacity between concurrently-live streams.

    Greedy by reuse density (accesses per byte, densest first; smaller
    footprint breaks ties): under LRU, the lines with the shortest
    reuse distances stay resident, so a small frequently-swept array
    survives next to a large streaming array — the mechanism behind the
    staircase in the paper's L3-size sweep (Figure 11).  Each stream
    gets ``min(footprint, remaining usable capacity)``; a partial share
    still helps RANDOM streams (partial residency) but not cyclic
    sweeps (LRU retains nothing below full residency).
    """
    footprints = [s.distinct_lines * line_bytes for s in streams]
    accesses = [s.accesses_per_traversal for s in streams]
    return _shares_from_values(accesses, footprints, capacity, policy)


def _shares_from_values(accesses: Sequence[float],
                        footprints: Sequence[float], capacity: float,
                        policy: str) -> List[float]:
    """:func:`_capacity_shares` on plain values (shared with the batch
    engine, so both paths run literally the same allocation code).

    Zero-footprint streams (a degenerate descriptor touching no lines)
    are assigned a 0.0 share upfront by *both* policies and excluded
    from the greedy ordering and the proportional total, so the two
    policies agree on them by construction.
    """
    usable = capacity * EFFECTIVE_FRACTION
    shares = [0.0] * len(footprints)
    live = [i for i, fp in enumerate(footprints) if fp > 0]
    if sum(footprints[i] for i in live) <= usable:
        for i in live:
            shares[i] = footprints[i]
        return shares
    if policy == "proportional":
        total = sum(footprints[i] for i in live) or 1.0
        for i in live:
            shares[i] = usable * footprints[i] / total
        return shares
    density = {i: accesses[i] / footprints[i] for i in live}
    order = sorted(live, key=lambda i: (-density[i], footprints[i], i))
    remaining = usable
    # pass 1: streams that can be *fully* resident claim their
    # footprint, densest first — a partial share is worthless to a
    # cyclic sweep, so an oversized stream must not starve a fitting one
    deferred: List[int] = []
    for i in order:
        if footprints[i] <= remaining:
            shares[i] = footprints[i]
            remaining -= footprints[i]
        else:
            deferred.append(i)
    # pass 2: leftovers go to the rest (partial residency still helps
    # RANDOM streams)
    for i in deferred:
        shares[i] = min(footprints[i], remaining)
        remaining -= shares[i]
    return shares


def _effective_traversals(total_accesses: float, lines_per_traversal: float,
                          max_traversals: float) -> float:
    """How many times a filtered stream effectively re-arrives here.

    The level above forwards ``total_accesses`` in bursts of roughly
    ``lines_per_traversal``; the count of bursts is capped by the
    loop's real traversal count and floored at one.
    """
    if lines_per_traversal <= 0:
        return 1.0
    return min(max(total_accesses / lines_per_traversal, 1.0),
               max(max_traversals, 1.0))


# ---------------------------------------------------------------------------
# the full-loop analysis
# ---------------------------------------------------------------------------
def analyze_loop(streams: Sequence[StreamAccess], traversals: int,
                 config: HierarchyConfig) -> LoopMemoryResult:
    """Expected hierarchy behaviour of ``traversals`` executions of a loop.

    Every stream is walked down L1 -> L2(+prefetcher) -> L3 -> DDR; the
    miss stream of each level becomes the access stream of the next
    (re-expressed in the lower level's line size).
    """
    if traversals < 0:
        raise ValueError("traversals must be >= 0")
    result = LoopMemoryResult()
    if traversals == 0 or not streams:
        return result
    _LOOP_EVALS.inc()
    _STREAM_EVALS.inc(len(streams))

    # ---- L1 ----------------------------------------------------------
    # wrapping large-stride sweeps (transpose-order walks) have reuse
    # distance ~ their whole footprint: model them as RANDOM coverage
    patterns = [AccessPattern.RANDOM if s.wraps else s.pattern
                for s in streams]
    l1_streams = [
        _LevelStream(
            accesses_per_traversal=s.accesses_per_traversal,
            distinct_lines=s.distinct_lines(config.l1.line_bytes),
            footprint_lines=max(1.0, s.footprint_bytes
                                / config.l1.line_bytes),
            pattern=pattern,
            stride_bytes=s.stride_bytes,
            traversals=float(traversals),
        )
        for s, pattern in zip(streams, patterns)
    ]
    l1_shares = _capacity_shares(l1_streams, config.l1.size_bytes,
                                 config.l1.line_bytes,
                                 config.capacity_sharing)
    per_stream_l1_misses: List[float] = []
    for s, ls, share in zip(streams, l1_streams, l1_shares):
        hits, misses = _level_behaviour(ls, share, config.l1.line_bytes)
        result.l1.accesses += ls.accesses_per_traversal * traversals
        result.l1.hits += hits
        result.l1.misses += misses
        if s.kind.writes:
            # write-through L1: every store is forwarded toward L2/L3
            result.l1.writethroughs += (s.accesses_per_traversal
                                        * traversals)
        per_stream_l1_misses.append(misses)

    # ---- L2 (+ stream prefetcher) -------------------------------------
    l2_streams = []
    for s, ls, l1_misses in zip(streams, l1_streams, per_stream_l1_misses):
        ratio = config.l2.line_bytes / config.l1.line_bytes
        # a stream the L1 retained reaches the L2 only while the L1 was
        # cold: its effective traversal count here shrinks accordingly
        eff = _effective_traversals(l1_misses, ls.distinct_lines,
                                    traversals)
        l2_streams.append(_LevelStream(
            accesses_per_traversal=l1_misses / eff,
            distinct_lines=max(1.0, ls.distinct_lines / ratio)
            if ls.pattern is not AccessPattern.RANDOM
            else min(ls.distinct_lines,
                     max(1.0, ls.footprint_lines / ratio)),
            footprint_lines=max(1.0, ls.footprint_lines / ratio),
            pattern=ls.pattern,
            stride_bytes=max(s.stride_bytes, config.l1.line_bytes),
            traversals=eff,
        ))
    l2_shares = _capacity_shares(l2_streams, config.l2.size_bytes,
                                 config.l2.line_bytes,
                                 config.capacity_sharing)
    per_stream_l3_accesses: List[float] = []
    per_stream_demand_misses: List[float] = []
    for s, ls, share in zip(streams, l2_streams, l2_shares):
        hits, misses = _level_behaviour(ls, share, config.l2.line_bytes)
        coverage = analytical_coverage(ls.pattern, ls.stride_bytes,
                                       config.prefetcher)
        pf_hits = misses * coverage
        demand = misses - pf_hits
        issued = pf_hits * (1.0 + PREFETCH_WASTE)
        result.l2.accesses += ls.accesses_per_traversal * ls.traversals
        result.l2.hits += hits + pf_hits
        result.l2.misses += demand
        result.l2.prefetch_hits += pf_hits
        result.l2.prefetch_issued += issued
        # the L3 sees demand misses plus everything prefetched
        per_stream_l3_accesses.append(demand + issued)
        per_stream_demand_misses.append(demand)

    # ---- L3 (this process's effective share) ---------------------------
    l3_streams = []
    for s, ls, l3_acc in zip(streams, l2_streams, per_stream_l3_accesses):
        ratio = config.l3_line_bytes / config.l2.line_bytes
        eff = _effective_traversals(l3_acc, ls.distinct_lines / ratio,
                                    ls.traversals)
        l3_streams.append(_LevelStream(
            accesses_per_traversal=l3_acc / eff,
            distinct_lines=max(1.0, ls.distinct_lines / ratio),
            footprint_lines=max(1.0, ls.footprint_lines / ratio),
            pattern=ls.pattern,
            stride_bytes=max(s.stride_bytes, config.l2.line_bytes),
            traversals=eff,
        ))
    l3_shares = _capacity_shares(l3_streams, config.l3_capacity_bytes,
                                 config.l3_line_bytes,
                                 config.capacity_sharing)
    per_stream_l3_misses: List[float] = []
    l3_exists = config.l3_capacity_bytes > 0
    for s, ls, share in zip(streams, l3_streams, l3_shares):
        hits, misses = _level_behaviour(ls, share, config.l3_line_bytes,
                                        cache_exists=l3_exists)
        result.l3.accesses += ls.accesses_per_traversal * ls.traversals
        result.l3.hits += hits
        result.l3.misses += misses
        if ls.pattern is not AccessPattern.SEQUENTIAL:
            result.l3_nonseq_misses += misses
        per_stream_l3_misses.append(misses)

    # ---- DDR -----------------------------------------------------------
    result.ddr_reads = _seq_sum(per_stream_l3_misses)
    for s, ls, share in zip(streams, l3_streams, l3_shares):
        if not s.kind.writes:
            continue
        u = ls.distinct_lines
        thrash = u * config.l3_line_bytes > share
        # dirty lines leave the L3 once per traversal while thrashing,
        # or once in total when the working set is retained
        result.ddr_writes += u * (traversals if thrash else 1)
        result.l3.writebacks += u * (traversals if thrash else 1)

    # ---- stall cycles ---------------------------------------------------
    # per-stream: read misses expose their latency; store misses drain
    # through the store buffers and only cost WRITE_STALL_FACTOR; lines
    # the prefetcher brought in arrive ahead of the demand access, so
    # only the *demand* share of L3 misses exposes the DDR latency
    raw = 0.0
    for s, l1_m, demand, l3_acc, l3_m in zip(
            streams, per_stream_l1_misses, per_stream_demand_misses,
            per_stream_l3_accesses, per_stream_l3_misses):
        weight = 1.0 if s.kind.reads else config.write_stall_factor
        demand_share = demand / l3_acc if l3_acc > 0 else 1.0
        raw += weight * (l1_m * config.l2.hit_latency
                         + demand * config.l3_hit_latency
                         + l3_m * demand_share * config.ddr_latency)
    result.stall_cycles = raw * (1.0 - config.overlap)
    return result


def analyze_loops(loops: Sequence[tuple], config: HierarchyConfig,
                  engine: str = "vector") -> LoopMemoryResult:
    """Aggregate :func:`analyze_loop` over ``(streams, traversals)`` pairs.

    ``engine`` is ``"vector"`` (:func:`analyze_loops_batch`, the
    default) or ``"scalar"`` (the per-stream loop the reference oracle
    runs).  Both engines are byte-identical (see
    ``tests/test_machine_vec.py``).
    """
    if engine not in ("scalar", "vector"):
        raise ValueError(f"unknown analysis engine {engine!r}")
    if engine == "vector":
        return analyze_loops_batch([(loops, config)])[0]
    total = LoopMemoryResult()
    for streams, traversals in loops:
        total.add(analyze_loop(streams, traversals, config))
    return total


# ---------------------------------------------------------------------------
# the batched (vectorized) engine
# ---------------------------------------------------------------------------
# Every (stream, loop, analysis) triple of a batch becomes one row of a
# flat array; the per-stream formulas of analyze_loop then run as
# elementwise array passes over all rows at once.  Byte-identity with
# the scalar oracle rests on three facts, each enforced by the
# randomized identity suite in tests/test_machine_vec.py:
#
# * elementwise float64 NumPy ops round identically to the equivalent
#   Python-float expressions (same libm, same evaluation order — the
#   array expressions below mirror the scalar source term by term);
# * the few order-sensitive reductions (the per-loop `+=` accumulations
#   of the scalar path, and its DDR-read total, which calls `_seq_sum`
#   itself) are replayed with the sequential left-to-right `_seq_sum`,
#   never with NumPy's pairwise `ndarray.sum` nor with `sum()` (which
#   is compensated from Python 3.12);
# * adding a 0.0 term is exact, so rows the scalar loop *skips* (e.g.
#   non-write streams in the writeback pass) can contribute masked
#   zeros instead of being filtered out.
#
# The deliberately non-vectorized formulas are the RANDOM-stream
# coupon-collector expressions: `(1 - 1/L) ** A` in distinct_lines
# (np.power fast-paths small exponents, e.g. `x ** 2 -> x * x`, while
# CPython defers to libm pow) and `-f * expm1(A * log1p(-1/f))` in
# _level_behaviour (numpy ships its own npy_expm1, which can round
# differently from libm's expm1 in the last ulp) — those (rare) rows
# are computed with the scalar formulas instead.

#: AccessPattern -> row code (np.where-friendly).
_PAT_CODE = {AccessPattern.SEQUENTIAL: 0, AccessPattern.STRIDED: 1,
             AccessPattern.RANDOM: 2}
_PAT_RANDOM = _PAT_CODE[AccessPattern.RANDOM]
_PAT_SEQ = _PAT_CODE[AccessPattern.SEQUENTIAL]

#: A batch item: one ``analyze_loops`` call worth of work.
AnalysisTask = Tuple[Sequence[tuple], HierarchyConfig]


def _seq_sum(values) -> float:
    """Left-to-right sum ``((0.0 + v0) + v1) + ...``: a ``+=`` loop.

    Both engines reduce through this one helper (the scalar engine's
    per-stream ``+=`` accumulations are the same loop spelled inline),
    so they agree on every Python version.  It is deliberately not
    ``sum()``: from Python 3.12 that is a compensated sum, which rounds
    differently from a ``+=`` loop (``[0.1] * 10`` gives 1.0, not
    0.9999999999999999).
    """
    if isinstance(values, np.ndarray):
        values = values.tolist()
    total = 0.0
    for value in values:
        total += value
    return total


def _distinct_lines_arrays(a: np.ndarray, fp: np.ndarray,
                           stride: np.ndarray, pat: np.ndarray,
                           wraps: np.ndarray,
                           line: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`StreamAccess.distinct_lines` over rows."""
    wrap_d = np.maximum(1, np.minimum(a, -(-fp // line)))
    span = np.minimum(fp, a * stride)
    divisor = np.maximum(line, stride)
    sweep_d = np.maximum(1, np.ceil(span / divisor).astype(np.int64))
    out = np.where(wraps, wrap_d, sweep_d)
    # RANDOM rows: scalar pow (see the module-level exactness note)
    for i in np.nonzero(pat == _PAT_RANDOM)[0].tolist():
        lines = max(1, int(fp[i]) // int(line[i]))
        out[i] = int(round(lines * (1.0 - (1.0 - 1.0 / lines)
                                    ** int(a[i]))))
    return out


def _level_behaviour_arrays(a, u, f, pat, trav, share, line, exists):
    """Vectorized :func:`_level_behaviour`: (hits, misses) row arrays."""
    total = a * trav
    # RANDOM branch (term-by-term mirror of the scalar source)
    fr = np.maximum(f, 1.0)
    resident = np.minimum(1.0, np.maximum(share, 0.0) / (fr * line))
    steady = total * (1.0 - resident)
    # the coupon-collector expectation must go through libm: numpy's
    # own npy_expm1 can differ from math.expm1 in the last ulp, so the
    # (rare) RANDOM rows use the scalar formula verbatim
    distinct_total = np.ones_like(total)
    for i in np.nonzero((pat == _PAT_RANDOM) & (fr > 1.0))[0].tolist():
        distinct_total[i] = -fr[i] * math.expm1(
            float(total[i]) * math.log1p(-1.0 / float(fr[i])))
    random_misses = np.minimum(np.maximum(steady, distinct_total), total)
    # fits / thrash branch
    fits = u * line <= share
    cyclic_misses = np.minimum(np.where(fits, u, u * trav), total)
    misses = np.where(pat == _PAT_RANDOM, random_misses, cyclic_misses)
    misses = np.where(exists, misses, total)
    hits = np.where(exists, total - misses, 0.0)
    return hits, misses


def _effective_traversals_arrays(total: np.ndarray, lines: np.ndarray,
                                 max_trav: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_effective_traversals` over rows."""
    safe = np.where(lines > 0, lines, 1.0)
    eff = np.minimum(np.maximum(total / safe, 1.0),
                     np.maximum(max_trav, 1.0))
    return np.where(lines > 0, eff, 1.0)


def _coverage_arrays(pat: np.ndarray, stride: np.ndarray,
                     depth: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Vectorized :func:`~repro.mem.prefetch.analytical_coverage`."""
    cov = np.where(
        pat == _PAT_RANDOM, 0.0,
        np.where(pat == _PAT_SEQ, 0.85,
                 np.where(stride <= line, 0.85,
                          np.where(stride <= line * (depth + 1),
                                   0.5, 0.0))))
    return np.where(depth == 0, 0.0, cov)


def analyze_loops_batch(tasks: Sequence[AnalysisTask]
                        ) -> List[LoopMemoryResult]:
    """Run many :func:`analyze_loops` calls as one flat array pass.

    ``tasks`` is a sequence of ``(loops, config)`` pairs; the return
    value is byte-identical to
    ``[analyze_loops(loops, cfg, engine="scalar") for loops, cfg in
    tasks]``.  Configs may differ between tasks (the node model batches
    every process's fair-share, unbounded and final analyses together).
    """
    results = [LoopMemoryResult() for _ in tasks]
    # ---- flatten: one row per (stream, loop, task) --------------------
    loop_task: List[int] = []
    loop_cfg: List[HierarchyConfig] = []
    loop_trav: List[int] = []
    bounds: List[int] = [0]
    a_l: List[int] = []
    fp_l: List[int] = []
    stride_l: List[int] = []
    pat_l: List[int] = []
    wraps_l: List[bool] = []
    reads_l: List[bool] = []
    writes_l: List[bool] = []
    for t_idx, (loops, cfg) in enumerate(tasks):
        for streams, traversals in loops:
            if traversals < 0:
                raise ValueError("traversals must be >= 0")
            if traversals == 0 or not streams:
                continue
            loop_task.append(t_idx)
            loop_cfg.append(cfg)
            loop_trav.append(traversals)
            bounds.append(bounds[-1] + len(streams))
            for s in streams:
                a_l.append(s.accesses_per_traversal)
                fp_l.append(s.footprint_bytes)
                stride_l.append(s.stride_bytes)
                pat_l.append(_PAT_CODE[s.pattern])
                wraps_l.append(s.wraps)
                reads_l.append(s.kind.reads)
                writes_l.append(s.kind.writes)
    if not loop_task:
        return results
    _LOOP_EVALS.inc(len(loop_task))
    _STREAM_EVALS.inc(bounds[-1])

    counts = np.diff(np.asarray(bounds, dtype=np.int64))

    def per_loop(values) -> np.ndarray:
        return np.repeat(np.asarray(values), counts)

    a = np.asarray(a_l, dtype=np.int64)
    fp = np.asarray(fp_l, dtype=np.int64)
    stride = np.asarray(stride_l, dtype=np.int64)
    pat = np.asarray(pat_l, dtype=np.int64)
    wraps = np.asarray(wraps_l, dtype=bool)
    reads = np.asarray(reads_l, dtype=bool)
    writes = np.asarray(writes_l, dtype=bool)
    trav = per_loop(np.asarray(loop_trav, dtype=np.float64))
    l1_line = per_loop([c.l1.line_bytes for c in loop_cfg])
    l2_line = per_loop([c.l2.line_bytes for c in loop_cfg])
    l3_line = per_loop([c.l3_line_bytes for c in loop_cfg])
    l3_cap = per_loop([c.l3_capacity_bytes for c in loop_cfg])
    l2_lat = per_loop([c.l2.hit_latency for c in loop_cfg])
    l3_lat = per_loop([c.l3_hit_latency for c in loop_cfg])
    ddr_lat = per_loop([c.ddr_latency for c in loop_cfg])
    pf_depth = per_loop([c.prefetcher.depth for c in loop_cfg])
    pf_line = per_loop([c.prefetcher.line_bytes for c in loop_cfg])
    wsf = per_loop([c.write_stall_factor for c in loop_cfg])

    def shares_per_loop(accesses: np.ndarray, footprints: np.ndarray,
                        capacities: List[float]) -> np.ndarray:
        out = np.empty(len(footprints), dtype=np.float64)
        acc_list = accesses.tolist()
        fp_list = footprints.tolist()
        for k, cfg in enumerate(loop_cfg):
            lo, hi = bounds[k], bounds[k + 1]
            out[lo:hi] = _shares_from_values(
                acc_list[lo:hi], fp_list[lo:hi], capacities[k],
                cfg.capacity_sharing)
        return out

    # ---- L1 -----------------------------------------------------------
    pat_eff = np.where(wraps, _PAT_RANDOM, pat)
    d1 = _distinct_lines_arrays(a, fp, stride, pat, wraps, l1_line)
    fp1 = np.maximum(1.0, fp / l1_line)
    share1 = shares_per_loop(a, d1 * l1_line,
                             [c.l1.size_bytes for c in loop_cfg])
    h1, m1 = _level_behaviour_arrays(a, d1, fp1, pat_eff, trav, share1,
                                     l1_line, True)
    acc1 = a * trav
    wt = np.where(writes, a * trav, 0.0)

    # ---- L2 (+ stream prefetcher) -------------------------------------
    ratio12 = l2_line / l1_line
    d1f = d1.astype(np.float64)
    eff2 = _effective_traversals_arrays(m1, d1f, trav)
    a2 = m1 / eff2
    d2 = np.where(pat_eff == _PAT_RANDOM,
                  np.minimum(d1f, np.maximum(1.0, fp1 / ratio12)),
                  np.maximum(1.0, d1f / ratio12))
    fp2 = np.maximum(1.0, fp1 / ratio12)
    stride2 = np.maximum(stride, l1_line)
    share2 = shares_per_loop(a2, d2 * l2_line,
                             [c.l2.size_bytes for c in loop_cfg])
    h2, m2 = _level_behaviour_arrays(a2, d2, fp2, pat_eff, eff2, share2,
                                     l2_line, True)
    cov = _coverage_arrays(pat_eff, stride2, pf_depth, pf_line)
    pf_hits = m2 * cov
    demand = m2 - pf_hits
    issued = pf_hits * (1.0 + PREFETCH_WASTE)
    l3_acc = demand + issued
    acc2 = a2 * eff2

    # ---- L3 (per-process share) ---------------------------------------
    ratio23 = l3_line / l2_line
    eff3 = _effective_traversals_arrays(l3_acc, d2 / ratio23, eff2)
    a3 = l3_acc / eff3
    d3 = np.maximum(1.0, d2 / ratio23)
    fp3 = np.maximum(1.0, fp2 / ratio23)
    share3 = shares_per_loop(a3, d3 * l3_line,
                             [c.l3_capacity_bytes for c in loop_cfg])
    h3, m3 = _level_behaviour_arrays(a3, d3, fp3, pat_eff, eff3, share3,
                                     l3_line, l3_cap > 0)
    acc3 = a3 * eff3
    nonseq = np.where(pat_eff != _PAT_SEQ, m3, 0.0)

    # ---- DDR + stalls --------------------------------------------------
    thrash = d3 * l3_line > share3
    ddr_w = np.where(writes, d3 * np.where(thrash, trav, 1.0), 0.0)
    weight = np.where(reads, 1.0, wsf)
    acc_pos = l3_acc > 0
    demand_share = np.where(acc_pos,
                            demand / np.where(acc_pos, l3_acc, 1.0), 1.0)
    stall = weight * (m1 * l2_lat + demand * l3_lat
                      + m3 * demand_share * ddr_lat)

    # ---- per-loop subtotals, folded in scalar order --------------------
    for k, t_idx in enumerate(loop_task):
        lo, hi = bounds[k], bounds[k + 1]
        sub = LoopMemoryResult()
        sub.l1.accesses = _seq_sum(acc1[lo:hi])
        sub.l1.hits = _seq_sum(h1[lo:hi])
        sub.l1.misses = _seq_sum(m1[lo:hi])
        sub.l1.writethroughs = _seq_sum(wt[lo:hi])
        sub.l2.accesses = _seq_sum(acc2[lo:hi])
        sub.l2.hits = _seq_sum((h2 + pf_hits)[lo:hi])
        sub.l2.misses = _seq_sum(demand[lo:hi])
        sub.l2.prefetch_hits = _seq_sum(pf_hits[lo:hi])
        sub.l2.prefetch_issued = _seq_sum(issued[lo:hi])
        sub.l3.accesses = _seq_sum(acc3[lo:hi])
        sub.l3.hits = _seq_sum(h3[lo:hi])
        sub.l3.misses = _seq_sum(m3[lo:hi])
        sub.l3.writebacks = _seq_sum(ddr_w[lo:hi])
        sub.l3_nonseq_misses = _seq_sum(nonseq[lo:hi])
        sub.ddr_reads = _seq_sum(m3[lo:hi])
        sub.ddr_writes = _seq_sum(ddr_w[lo:hi])
        sub.stall_cycles = (_seq_sum(stall[lo:hi])
                            * (1.0 - loop_cfg[k].overlap))
        results[t_idx].add(sub)
    return results


def counts_to_events(result: LoopMemoryResult, core: int
                     ) -> Dict[str, int]:
    """Translate a loop's memory counts into UPC event pulses.

    Per-core events (L1/L2) are attributed to ``core``; shared events
    (L3/DDR) are returned unprefixed — the node model splits them across
    the two DDR controllers and L3 banks.
    """
    def r(x: float) -> int:
        return int(round(x))

    return {
        f"BGP_PU{core}_L1D_READ_HIT": r(result.l1.hits),
        f"BGP_PU{core}_L1D_READ_MISS": r(result.l1.misses),
        f"BGP_PU{core}_L2_READ": r(result.l2.accesses),
        f"BGP_PU{core}_L2_HIT": r(result.l2.hits),
        f"BGP_PU{core}_L2_MISS": r(result.l2.misses),
        f"BGP_PU{core}_L2_PREFETCH_HIT": r(result.l2.prefetch_hits),
        f"BGP_PU{core}_L2_PREFETCH_ISSUED": r(result.l2.prefetch_issued),
        f"BGP_PU{core}_L2_WRITETHROUGH": r(result.l1.writethroughs),
        "L3_READ": r(result.l3.accesses),
        "L3_HIT": r(result.l3.hits),
        "L3_MISS": r(result.l3.misses),
        "L3_WRITEBACK": r(result.l3.writebacks),
        "DDR_READ": r(result.ddr_reads),
        "DDR_WRITE": r(result.ddr_writes),
    }
