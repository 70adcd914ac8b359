"""Unit tests for the analytical hierarchy model."""

import pytest

from repro.mem import (
    AccessKind,
    AccessPattern,
    HierarchyConfig,
    StreamAccess,
    analyze_loop,
    analyze_loops,
    counts_to_events,
)

CFG = HierarchyConfig(l3_capacity_bytes=2 * 1024 * 1024)

KB = 1024
MB = 1024 * 1024


def seq_stream(footprint, **kw):
    return StreamAccess("a", footprint_bytes=footprint, stride_bytes=8, **kw)


# ---------------------------------------------------------------------------
# single-level sanity
# ---------------------------------------------------------------------------
def test_tiny_stream_only_compulsory_misses():
    """A 4KB stream fits L1: repeated traversals only miss on first touch."""
    r = analyze_loop([seq_stream(4 * KB)], traversals=10, config=CFG)
    assert r.l1.accesses == 4 * KB // 8 * 10
    assert r.l1.misses == 4 * KB // 32  # compulsory lines only
    assert r.l1.hits == r.l1.accesses - r.l1.misses


def test_l1_thrashing_stream_remisses_every_traversal():
    """A 1MB stream cannot live in a 32KB L1: every traversal re-misses."""
    r = analyze_loop([seq_stream(MB)], traversals=5, config=CFG)
    assert r.l1.misses == pytest.approx(5 * MB / 32)


def test_l3_capacity_cliff():
    """The figure-11 mechanism: DDR reads collapse once the stream fits L3."""
    small_l3 = HierarchyConfig(l3_capacity_bytes=1 * MB)
    big_l3 = HierarchyConfig(l3_capacity_bytes=8 * MB)
    stream = [seq_stream(3 * MB)]
    r_small = analyze_loop(stream, traversals=10, config=small_l3)
    r_big = analyze_loop(stream, traversals=10, config=big_l3)
    assert r_small.ddr_reads > 5 * r_big.ddr_reads
    # fitting case: compulsory misses only
    assert r_big.ddr_reads == pytest.approx(3 * MB / 128, rel=0.3)


def test_zero_l3_everything_goes_to_ddr():
    no_l3 = HierarchyConfig(l3_capacity_bytes=0)
    r = analyze_loop([seq_stream(MB)], traversals=2, config=no_l3)
    assert r.l3.hits == 0
    assert r.ddr_reads == pytest.approx(r.l3.accesses)


def test_random_stream_hit_probability_scales_with_capacity():
    stream = [StreamAccess("t", footprint_bytes=8 * MB, accesses=100_000,
                           pattern=AccessPattern.RANDOM)]
    half = analyze_loop(stream, traversals=1, config=HierarchyConfig(
        l3_capacity_bytes=4 * MB))
    full = analyze_loop(stream, traversals=1, config=HierarchyConfig(
        l3_capacity_bytes=8 * MB))
    assert full.ddr_reads < half.ddr_reads
    assert half.ddr_reads > 0


def test_write_stream_generates_ddr_writes():
    r = analyze_loop([seq_stream(4 * MB, kind=AccessKind.WRITE)],
                     traversals=2, config=CFG)
    assert r.ddr_writes > 0
    assert r.l1.writethroughs == r.l1.accesses  # write-through L1


def test_read_stream_generates_no_ddr_writes():
    r = analyze_loop([seq_stream(4 * MB)], traversals=2, config=CFG)
    assert r.ddr_writes == 0


def test_prefetcher_hides_misses_but_not_traffic():
    """Prefetch hits reduce demand misses, not L3 traffic (key invariant)."""
    cfg = CFG
    r = analyze_loop([seq_stream(4 * MB)], traversals=1, config=cfg)
    assert r.l2.prefetch_hits > 0
    # L3 sees demand misses + prefetched lines >= total lines fetched
    total_line_fetches = r.l2.misses + r.l2.prefetch_hits
    assert r.l3.accesses >= total_line_fetches


def test_stall_cycles_increase_with_ddr_traffic():
    fits = analyze_loop([seq_stream(64 * KB)], traversals=10, config=CFG)
    thrash = analyze_loop([seq_stream(16 * MB)], traversals=10, config=CFG)
    assert thrash.stall_cycles > fits.stall_cycles


# ---------------------------------------------------------------------------
# bookkeeping invariants
# ---------------------------------------------------------------------------
def test_hits_plus_misses_equals_accesses_at_every_level():
    r = analyze_loop(
        [seq_stream(2 * MB),
         StreamAccess("g", footprint_bytes=MB, accesses=5000,
                      pattern=AccessPattern.RANDOM)],
        traversals=3, config=CFG)
    assert r.l1.hits + r.l1.misses == pytest.approx(r.l1.accesses)
    # L2 hits include prefetch hits
    assert r.l2.hits + r.l2.misses == pytest.approx(r.l2.accesses)
    assert r.l3.hits + r.l3.misses == pytest.approx(r.l3.accesses)


def test_zero_traversals_is_empty_result():
    r = analyze_loop([seq_stream(MB)], traversals=0, config=CFG)
    assert r.l1.accesses == 0
    assert r.ddr_reads == 0


def test_negative_traversals_rejected():
    with pytest.raises(ValueError):
        analyze_loop([seq_stream(MB)], traversals=-1, config=CFG)


def test_no_streams_is_empty_result():
    r = analyze_loop([], traversals=5, config=CFG)
    assert r.l1.accesses == 0


def test_analyze_loops_accumulates():
    loops = [([seq_stream(64 * KB)], 2), ([seq_stream(128 * KB)], 3)]
    total = analyze_loops(loops, CFG)
    parts = [analyze_loop(s, t, CFG) for s, t in loops]
    assert total.l1.accesses == pytest.approx(
        sum(p.l1.accesses for p in parts))
    assert total.ddr_reads == pytest.approx(
        sum(p.ddr_reads for p in parts))


def test_capacity_shared_between_streams():
    """Two 1.5MB streams can't both live in a 2MB L3 share."""
    one = analyze_loop([seq_stream(int(1.5 * MB))], traversals=5,
                       config=CFG)
    two = analyze_loop(
        [StreamAccess("a", footprint_bytes=int(1.5 * MB)),
         StreamAccess("b", footprint_bytes=int(1.5 * MB))],
        traversals=5, config=CFG)
    # alone: fits (compulsory only); together: thrashing
    assert one.ddr_reads == pytest.approx(1.5 * MB / 128, rel=0.1)
    assert two.ddr_reads > 4 * one.ddr_reads


# ---------------------------------------------------------------------------
# event translation
# ---------------------------------------------------------------------------
def test_counts_to_events_attributes_core():
    r = analyze_loop([seq_stream(MB)], traversals=1, config=CFG)
    ev = counts_to_events(r, core=2)
    assert "BGP_PU2_L1D_READ_MISS" in ev
    assert ev["BGP_PU2_L1D_READ_MISS"] == int(round(r.l1.misses))
    assert ev["L3_MISS"] == int(round(r.l3.misses))
    assert all(isinstance(v, int) for v in ev.values())


# ---------------------------------------------------------------------------
# capacity allocation edge cases
# ---------------------------------------------------------------------------
def test_capacity_shares_zero_footprint_streams():
    """Degenerate zero-footprint streams get a 0.0 share in BOTH policies.

    Regression: the greedy policy used to divide by the footprint when
    ranking streams by reuse density, while the proportional policy
    folded the zeros into its total — the two disagreed on degenerate
    mixes.  Now both assign 0.0 upfront and allocate the rest as if the
    degenerate streams were absent.
    """
    from repro.mem.analytical import _shares_from_values

    accesses = [100.0, 0.0, 50.0]
    footprints = [1024.0, 0.0, 0.0]
    for policy in ("greedy", "proportional"):
        shares = _shares_from_values(accesses, footprints, 512.0, policy)
        assert shares[1] == 0.0 and shares[2] == 0.0
        solo = _shares_from_values([100.0], [1024.0], 512.0, policy)
        assert shares[0] == solo[0]


def test_capacity_shares_empty_mix():
    from repro.mem.analytical import _shares_from_values

    for policy in ("greedy", "proportional"):
        assert _shares_from_values([], [], 4096.0, policy) == []
        assert _shares_from_values([0.0], [0.0], 4096.0, policy) == [0.0]


def test_capacity_shares_all_zero_footprints_over_capacity_zero():
    """fp==0 streams with zero capacity: no division by zero, all 0.0."""
    from repro.mem.analytical import _shares_from_values

    for policy in ("greedy", "proportional"):
        shares = _shares_from_values([5.0, 7.0], [0.0, 0.0], 0.0, policy)
        assert shares == [0.0, 0.0]


# ---------------------------------------------------------------------------
# order-sensitive reductions: one left-to-right helper for both engines
# ---------------------------------------------------------------------------
def test_seq_sum_is_a_left_to_right_loop_not_builtin_sum():
    """``sum()`` is compensated from Python 3.12; ``_seq_sum`` must stay
    the plain ``+=`` loop the scalar engine runs, on every version."""
    import numpy as np

    from repro.mem.analytical import _seq_sum

    assert _seq_sum([0.1] * 10) == 0.9999999999999999
    assert _seq_sum(np.full(10, 0.1)) == 0.9999999999999999
    assert _seq_sum([1e16, 1.0, -1e16]) == 0.0
    assert _seq_sum(np.array([])) == 0.0
    total = 0.0
    for value in [0.3, 1e-17, 2.7, -0.6]:
        total += value
    assert _seq_sum([0.3, 1e-17, 2.7, -0.6]) == total


def test_ddr_reads_fold_like_l3_misses_in_both_engines():
    """A case where a compensated sum of the per-stream L3 misses rounds
    differently from the ``+=`` fold: the DDR-read total must equal the
    L3-miss total bit for bit, and the vector engine must agree."""
    streams = [StreamAccess(f"r{i}", footprint_bytes=fp, stride_bytes=8,
                            pattern=AccessPattern.RANDOM, accesses=acc)
               for i, (fp, acc) in enumerate([(3184203, 292945),
                                              (2080089, 716887),
                                              (1341780, 159252)])]
    scalar = analyze_loops([(streams, 1)], CFG, engine="scalar")
    vector = analyze_loops([(streams, 1)], CFG, engine="vector")
    assert scalar.ddr_reads == scalar.l3.misses == 824298.5057710533
    assert vector.ddr_reads == scalar.ddr_reads
    assert vector.l3.misses == scalar.l3.misses
