"""Randomized identity suites: vectorized engines vs scalar oracles.

Every batched NumPy path keeps a scalar twin and must return
*byte-identical* results under randomized inputs.  These suites apply
that to the whole-machine matrix pass — the analytical memory
hierarchy, torus phase accounting, and pipeline timing — plus the
node- and job-level compositions, where the scalar side is
:mod:`repro.reference`, including the degenerate edges (empty phases,
single-node tori, zero-traversal loops, empty mixes).
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import reference
from repro.cpu.pipeline import PipelineModel
from repro.isa import NUM_OP_CLASSES, InstructionMix
from repro.mem.address import AccessKind, AccessPattern, StreamAccess
from repro.mem.analytical import (
    HierarchyConfig,
    LoopMemoryResult,
    analyze_loops,
    analyze_loops_batch,
)
from repro.mem.hierarchy import NodeMemoryModel
from repro.net.topology import TorusTopology
from repro.net.torus import Message, TorusNetwork
from repro.node.modes import OperatingMode
from repro.node.soc import ComputeNode, LoopWork, ProcessWork


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
dims_st = st.tuples(st.integers(1, 6), st.integers(1, 6),
                    st.integers(1, 6))


@st.composite
def phases(draw):
    dims = draw(dims_st)
    topo = TorusTopology(dims)
    n = draw(st.integers(0, 40))
    node = st.integers(0, topo.num_nodes - 1)
    # sizes deliberately straddle the packet size (sub-packet messages
    # exercise the header-padding accounting) and include self-sends
    # and zero-byte messages
    msgs = draw(st.lists(
        st.builds(Message, src=node, dst=node,
                  size_bytes=st.integers(0, 2000)),
        min_size=n, max_size=n))
    return topo, msgs


@st.composite
def streams(draw):
    pattern = draw(st.sampled_from(list(AccessPattern)))
    accesses = draw(st.one_of(st.none(), st.integers(0, 200_000)))
    if pattern is AccessPattern.RANDOM and accesses is None:
        accesses = draw(st.integers(0, 200_000))
    return StreamAccess(
        array=f"a{draw(st.integers(0, 9))}",
        footprint_bytes=draw(st.integers(1, 1 << 22)),
        stride_bytes=draw(st.sampled_from([4, 8, 32, 128, 384, 4096,
                                           1 << 16])),
        kind=draw(st.sampled_from(list(AccessKind))),
        pattern=pattern,
        accesses=accesses,
    )


loops_st = st.lists(
    st.tuples(st.lists(streams(), max_size=4), st.integers(0, 25)),
    max_size=5)

configs_st = st.builds(
    HierarchyConfig,
    l3_capacity_bytes=st.sampled_from([0, 4096, 1 << 20, 8 << 20,
                                       1 << 40]),
    capacity_sharing=st.sampled_from(["greedy", "proportional"]),
    overlap=st.sampled_from([0.0, 0.3, 0.9]),
)


def assert_results_equal(a: LoopMemoryResult, b: LoopMemoryResult):
    for level in ("l1", "l2", "l3"):
        assert getattr(a, level).__dict__ == getattr(b, level).__dict__
    assert a.ddr_reads == b.ddr_reads
    assert a.ddr_writes == b.ddr_writes
    assert a.stall_cycles == b.stall_cycles
    assert a.l3_nonseq_misses == b.l3_nonseq_misses


# ---------------------------------------------------------------------------
# torus phase engine
# ---------------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(phase=phases(), balanced=st.booleans())
def test_torus_phase_vector_identity(phase, balanced):
    topo, msgs = phase
    net = TorusNetwork(topo)
    a = net.run_phase_scalar(msgs, balanced)
    b = net.run_phase_vector(msgs, balanced)
    assert a.cycles == b.cycles
    assert a.max_link_bytes == b.max_link_bytes
    assert a.total_packets == b.total_packets
    assert a.hop_cycles == b.hop_cycles
    # dict contents AND insertion order (counter dumps iterate them)
    assert a.sent == b.sent and list(a.sent) == list(b.sent)
    for node in a.sent:
        assert list(a.sent[node]) == list(b.sent[node])
    assert a.received == b.received
    assert list(a.received) == list(b.received)
    assert net.phase_events(a) == net.phase_events(b)


def test_torus_phase_edges():
    for dims in [(1, 1, 1), (1, 2, 1), (2, 2, 1)]:
        net = TorusNetwork(TorusTopology(dims))
        # empty phase
        for engine in ("scalar", "vector"):
            r = net.run_phase([], engine=engine)
            assert r.cycles == 0.0 and r.total_packets == 0
        # phase of only self-sends and zero-byte messages
        msgs = [Message(0, 0, 4096), Message(0, dims[0] * dims[1]
                                             * dims[2] - 1, 0)]
        a = net.run_phase_scalar(msgs)
        b = net.run_phase_vector(msgs)
        assert a.__dict__ == b.__dict__


def test_torus_engine_dispatch_validates():
    net = TorusNetwork(TorusTopology((2, 2, 2)))
    with pytest.raises(ValueError):
        net.run_phase([], engine="quantum")


def test_torus_route_arrays_matches_route():
    rng = random.Random(3)
    for dims in [(1, 1, 1), (2, 1, 1), (4, 4, 2), (3, 5, 7)]:
        topo = TorusTopology(dims)
        pairs = [(rng.randrange(topo.num_nodes),
                  rng.randrange(topo.num_nodes)) for _ in range(50)]
        src = np.array([p[0] for p in pairs])
        dst = np.array([p[1] for p in pairs])
        routes = topo.route_arrays(src, dst)
        cursor = 0
        for i, (s, d) in enumerate(pairs):
            scalar_route = topo.route(s, d)
            hops = int(routes["hops"][i])
            assert hops == len(scalar_route)
            for j, (frm, to) in enumerate(scalar_route):
                assert int(routes["link_node"][cursor + j]) == frm
                assert int(routes["link_msg"][cursor + j]) == i
                name = topo.link_direction(frm, to)
                from repro.net.topology import DIRECTION_NAMES
                assert DIRECTION_NAMES[
                    int(routes["link_dir"][cursor + j])] == name
            if scalar_route:
                first = topo.link_direction(*scalar_route[0])
                from repro.net.topology import DIRECTION_NAMES
                assert DIRECTION_NAMES[int(routes["first_dir"][i])] == first
            cursor += hops


# ---------------------------------------------------------------------------
# analytical memory hierarchy
# ---------------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(loops=loops_st, config=configs_st)
def test_analytical_batch_identity(loops, config):
    scalar = analyze_loops(loops, config, engine="scalar")
    vector = analyze_loops_batch([(loops, config)])[0]
    assert_results_equal(scalar, vector)


@settings(max_examples=40, deadline=None)
@given(tasks=st.lists(st.tuples(loops_st, configs_st), max_size=4))
def test_analytical_batch_identity_across_configs(tasks):
    """One flat pass over heterogeneous configs == per-task scalar."""
    batch = analyze_loops_batch(tasks)
    for (loops, config), vector in zip(tasks, batch):
        assert_results_equal(analyze_loops(loops, config,
                                           engine="scalar"), vector)


def test_analyze_loops_engine_dispatch():
    loops = [([StreamAccess("x", 1 << 16)], 3)]
    cfg = HierarchyConfig()
    assert_results_equal(analyze_loops(loops, cfg, engine="scalar"),
                         analyze_loops(loops, cfg, engine="vector"))
    with pytest.raises(ValueError):
        analyze_loops(loops, cfg, engine="nope")


def test_analytical_batch_rejects_negative_traversals():
    with pytest.raises(ValueError):
        analyze_loops_batch([([([StreamAccess("x", 64)], -1)],
                              HierarchyConfig())])


@settings(max_examples=30, deadline=None)
@given(loops=loops_st)
def test_node_memory_model_vector_identity(loops):
    """NodeMemoryModel.analyze: batched passes == scalar per process."""
    processes = [loops if loops else [((), 0)]] * 2 + [[((), 0)]]
    model = NodeMemoryModel()
    scalar = reference.analyze_memory(model, processes)
    vector = model.analyze(processes)
    assert scalar.shares == vector.shares
    assert scalar.inflations == vector.inflations
    for a, b in zip(scalar.per_process, vector.per_process):
        assert_results_equal(a, b)


# ---------------------------------------------------------------------------
# pipeline timing
# ---------------------------------------------------------------------------
mix_vectors = st.lists(
    st.floats(0.0, 1e8, allow_nan=False, allow_infinity=False),
    min_size=NUM_OP_CLASSES, max_size=NUM_OP_CLASSES)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(mix_vectors, st.floats(0.0, 1.0)),
                     min_size=1, max_size=8))
def test_pipeline_batch_identity(rows):
    model = PipelineModel()
    mixes = [InstructionMix.from_vector(np.array(v)) for v, _ in rows]
    sfs = [sf for _, sf in rows]
    scalar = [model.compute_cycles(m, sf).total
              for m, sf in zip(mixes, sfs)]
    batch = model.compute_cycles_batch(
        np.stack([m.as_vector() for m in mixes]), sfs)
    assert scalar == [float(t) for t in batch.tolist()]


def test_pipeline_batch_validates():
    model = PipelineModel()
    with pytest.raises(ValueError):
        model.compute_cycles_batch(np.zeros((2, NUM_OP_CLASSES)), [0.5])
    with pytest.raises(ValueError):
        model.compute_cycles_batch(np.zeros((1, NUM_OP_CLASSES)), [1.5])


# ---------------------------------------------------------------------------
# UPC batched event delivery
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_pulse_many_identity(data):
    from repro.core.counters import UPCUnit
    from repro.core.events import EVENTS_BY_NAME

    names = sorted(n for n, e in EVENTS_BY_NAME.items() if e.mode == 0)
    picked = data.draw(st.lists(st.sampled_from(names), max_size=10,
                                unique=True))
    counts = {n: data.draw(st.integers(0, 1 << 48)) for n in picked}
    scalar, batch = UPCUnit(), UPCUnit()
    # park one touched counter near the 2**64 wrap in both units
    if picked:
        near = EVENTS_BY_NAME[picked[0]].counter
        scalar.registers.set_counter(near, (1 << 64) - 3)
        batch.registers.set_counter(near, (1 << 64) - 3)
    for name, count in counts.items():
        if count > 0:
            scalar.pulse(name, count)
    batch.pulse_many(counts)
    assert (scalar.snapshot() == batch.snapshot()).all()


def test_pulse_many_interrupts_and_gating():
    from repro.core.config import SignalMode
    from repro.core.counters import UPCUnit
    from repro.core.events import EVENTS_BY_NAME

    names = sorted(n for n, e in EVENTS_BY_NAME.items() if e.mode == 0)
    scalar, batch = UPCUnit(), UPCUnit()
    for unit in (scalar, batch):
        unit.configure(EVENTS_BY_NAME[names[0]].counter,
                       interrupt_enable=True, threshold=50)
        unit.configure(EVENTS_BY_NAME[names[1]].counter,
                       signal_mode=SignalMode.LEVEL_LOW)
        unit.configure(EVENTS_BY_NAME[names[2]].counter, enabled=False)
    events = {names[0]: 80, names[1]: 7, names[2]: 9, names[3]: 3}
    for name, count in events.items():
        scalar.pulse(name, count)
    batch.pulse_many(events)
    assert (scalar.snapshot() == batch.snapshot()).all()
    assert [i.counter for i in scalar.interrupt_log] == \
        [i.counter for i in batch.interrupt_log]
    # a disabled unit swallows everything, in both paths
    scalar.enabled = batch.enabled = False
    scalar.pulse(names[3], 5)
    batch.pulse_many({names[3]: 5})
    assert (scalar.snapshot() == batch.snapshot()).all()


# ---------------------------------------------------------------------------
# node and job composition
# ---------------------------------------------------------------------------
def _sample_work(seed: int) -> ProcessWork:
    rng = random.Random(seed)
    loops = []
    for _ in range(rng.randrange(1, 4)):
        v = np.array([rng.random() * 1e6 if rng.random() < 0.7 else 0.0
                      for _ in range(NUM_OP_CLASSES)])
        strms = [
            StreamAccess(f"a{i}", rng.randrange(1, 1 << 21),
                         rng.choice([8, 128, 4096]),
                         rng.choice(list(AccessKind)),
                         rng.choice([AccessPattern.SEQUENTIAL,
                                     AccessPattern.STRIDED]))
            for i in range(rng.randrange(0, 3))
        ]
        loops.append(LoopWork(mix=InstructionMix.from_vector(v),
                              streams=strms,
                              traversals=rng.randrange(1, 10),
                              serial_fraction=rng.random()))
    return ProcessWork(loops=loops)


@pytest.mark.parametrize("mode", [OperatingMode.SMP1, OperatingMode.DUAL,
                                  OperatingMode.VNM])
def test_compute_node_vector_identity(mode):
    for seed in range(3):
        work = [_sample_work(seed + 10 * i)
                for i in range(mode.processes_per_node)]
        scalar_node = ComputeNode(mode=mode)
        vector_node = ComputeNode(mode=mode)
        scalar = reference.run_node(scalar_node, work)
        vector = vector_node.run(work)
        assert scalar.events == vector.events
        assert scalar.process_cycles == vector.process_cycles
        assert scalar.node_cycles == vector.node_cycles
        assert (scalar_node.upc.snapshot()
                == vector_node.upc.snapshot()).all()


def test_job_vector_identity_end_to_end():
    """Reference oracle vs the production job engine, full job."""
    from repro.npb import build_benchmark
    from repro.runtime.machine import Job, Machine, clear_comm_cache

    prog = build_benchmark("cg", 32, "S")
    clear_comm_cache()
    scalar = reference.run_job(Machine(8, mode=OperatingMode.VNM), prog, 32)
    vector = Job(Machine(8, mode=OperatingMode.VNM), prog, 32).run()
    clear_comm_cache()
    assert (json.dumps(scalar.to_dict(), sort_keys=True)
            == json.dumps(vector.to_dict(), sort_keys=True))


# ---------------------------------------------------------------------------
# MPI lowering: scalar triples vs batched arrays
# ---------------------------------------------------------------------------
def _comm_result_fingerprint(res):
    """Everything CommResult carries, including dict key orders."""
    return (
        res.cycles_per_rank,
        res.torus_events,
        [(node, list(events)) for node, events in res.torus_events.items()],
        res.collective_events,
        res.ddr_lines_per_node,
        list(res.ddr_lines_per_node),
        res.intra_node_bytes,
        res.inter_node_bytes,
    )


@st.composite
def comm_ops(draw):
    from repro.compiler.ir import CommKind, CommOp

    kind = draw(st.sampled_from([CommKind.ALLTOALL, CommKind.HALO,
                                 CommKind.PAIRWISE]))
    op_kwargs = {
        "bytes_per_rank": draw(st.integers(0, 1 << 20)),
        "repeats": draw(st.integers(1, 3)),
    }
    if kind is CommKind.HALO:
        op_kwargs["neighbors"] = draw(st.integers(1, 6))
    if kind is CommKind.PAIRWISE:
        op_kwargs["partner_stride"] = draw(
            st.sampled_from([1, 2, 4, 8, 16]))
    return CommOp(kind, **op_kwargs)


@settings(deadline=None, max_examples=30)
@given(op=comm_ops(),
       num_ranks=st.integers(1, 32),
       mode=st.sampled_from(list(OperatingMode)))
def test_mpi_comm_result_identity(op, num_ranks, mode):
    """The batched triple lowering matches the scalar loop byte-for-byte."""
    from repro.runtime.machine import Machine
    from repro.runtime.mpi import SimMPI
    from repro.runtime.process import place_ranks

    placement = place_ranks(num_ranks, mode)
    machine = Machine(max(placement.num_nodes, 2), mode=mode)

    def run(engine):
        mpi = engine(placement, machine.topology, machine.torus,
                     machine.collective, machine.barrier)
        return mpi.run(op)

    scalar = run(reference.ReferenceMPI)
    vector = run(SimMPI)
    assert _comm_result_fingerprint(scalar) == \
        _comm_result_fingerprint(vector)


def test_mpi_alltoall_flows_match_triples():
    """_message_arrays merges _messages_for into node-pair flows.

    Each flow counts exactly the inter-node triples of its node pair,
    flows come in the pairs' first-message order, and the intra-node
    list is the co-resident triples' senders in message order.
    """
    from repro.compiler.ir import CommKind, CommOp
    from repro.runtime.machine import Machine
    from repro.runtime.mpi import SimMPI
    from repro.runtime.process import place_ranks

    placement = place_ranks(14, OperatingMode.VNM)
    machine = Machine(4, mode=OperatingMode.VNM)
    mpi = SimMPI(placement, machine.topology, machine.torus,
                 machine.collective, machine.barrier)
    for n_bytes in (0, 7, 13, 4096):
        op = CommOp(CommKind.ALLTOALL, bytes_per_rank=n_bytes)
        flows = mpi._message_arrays(op)
        pairs = {}
        intra = []
        for src, dst, size in mpi._messages_for(op):
            if size == 0:
                continue
            a, b = placement.node_of(src), placement.node_of(dst)
            if a == b:
                intra.append((src, size))
            else:
                pairs[(a, b, size)] = pairs.get((a, b, size), 0) + 1
        assert list(zip(flows.intra_rank.tolist(),
                        flows.intra_size.tolist())) == intra
        assert list(zip(flows.src.tolist(), flows.dst.tolist(),
                        flows.size.tolist(), flows.count.tolist())) == [
            key + (count,) for key, count in pairs.items()]


# ---------------------------------------------------------------------------
# Aggregation: batched per-mode statistics vs the per-value loop
# ---------------------------------------------------------------------------
@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32 - 1),
       n_dumps=st.integers(1, 8),
       with_huge=st.booleans())
def test_aggregation_vector_identity(seed, n_dumps, with_huge):
    """Batched stats match the scalar loop, including the >=2**53 means."""
    from repro.core.dump import NodeDump
    from repro.core.postprocess import Aggregation

    rng = np.random.RandomState(seed)
    dumps = []
    for node_id in range(n_dumps):
        values = rng.randint(0, 1 << 31, size=256).astype(np.uint64)
        if with_huge:
            # push some columns' exact totals past 2**53 so the batched
            # engine exercises its np.mean fallback
            cols = rng.randint(0, 256, size=4)
            values[cols] = np.uint64(1) << np.uint64(
                rng.randint(53, 63, size=4))
        dumps.append(NodeDump(node_id=node_id,
                              mode=int(rng.randint(0, 4)),
                              clock_hz=850_000_000,
                              sets={0: values}))

    scalar = reference.aggregate(dumps, set_id=0)
    vector = Aggregation(dumps, set_id=0)
    assert list(scalar.stats) == list(vector.stats)
    assert scalar.nodes_by_mode == vector.nodes_by_mode
    for name, expect in scalar.stats.items():
        assert vector.stats[name] == expect
