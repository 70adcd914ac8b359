"""Weighted-flow identity suite: node-pair flows vs the per-message oracle.

The array engine costs an all-to-all as one weighted flow per ordered
node pair (``count = residents(src) * residents(dst)``) and routes the
flows in blocks of ``repro.net.torus.ROUTE_BLOCK``.  Every test here
compares it against the scalar per-message oracle byte for byte —
``CommResult.to_dict()`` serialised *without* sorting, so dict
insertion order counts — across placements, rank counts, zero-slice
sizes, thin torus shapes, block boundaries and the float fallback of
``hop_cycles``.  The last test pins the memory bound at the largest
scale the service accepts.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.ir import CommKind, CommOp
from repro.net import (
    BarrierNetwork,
    CollectiveNetwork,
    TorusNetwork,
    TorusTopology,
)
from repro.net import torus as torus_mod
from repro.net.torus import Message, TorusConfig
from repro.node.modes import OperatingMode
from repro.reference import ReferenceMPI
from repro.runtime.mpi import SimMPI
from repro.runtime.process import place_ranks

#: Hop latencies: the default, non-integer ones, and an integer one so
#: large that any multi-packet term leaves the exact float range.
LATENCIES = (55.0, 7.0, 55.3, 0.1, float(2**52 + 1))


@pytest.fixture(autouse=True)
def _restore_route_block():
    block = torus_mod.ROUTE_BLOCK
    yield
    torus_mod.ROUTE_BLOCK = block


@st.composite
def layouts(draw):
    """A placement plus a torus holding it, standard or thin."""
    mode = draw(st.sampled_from([OperatingMode.VNM, OperatingMode.DUAL,
                                 OperatingMode.SMP1]))
    num_ranks = draw(st.one_of(st.sampled_from([1, 2, 13, 121]),
                               st.integers(1, 70)))
    placement = place_ranks(num_ranks, mode)
    nodes = placement.num_nodes + draw(st.integers(0, 3))
    if draw(st.booleans()):
        topology = TorusTopology.for_nodes(nodes)
    else:
        # size-1 and size-2 axes: ties between the two ways round a
        # ring of two, where routing must go forward
        thin = [draw(st.sampled_from([1, 2])) for _ in range(2)]
        long_axis = -(-nodes // (thin[0] * thin[1]))
        dims = thin + [long_axis]
        order = draw(st.permutations([0, 1, 2]))
        topology = TorusTopology(tuple(dims[i] for i in order))
    return placement, topology


def _comm_ops(kind):
    sizes = st.one_of(st.integers(0, 150), st.integers(0, 1 << 20))
    if kind is CommKind.HALO:
        return st.builds(CommOp, st.just(kind), sizes,
                         neighbors=st.integers(1, 6),
                         repeats=st.integers(1, 3))
    if kind is CommKind.PAIRWISE:
        return st.builds(CommOp, st.just(kind), sizes,
                         repeats=st.integers(1, 3),
                         partner_stride=st.sampled_from([1, 2, 4, 8]))
    return st.builds(CommOp, st.just(kind), sizes,
                     repeats=st.integers(1, 3))


# all-to-all (the node-pair path) is drawn half the time; HALO and
# PAIRWISE cover the unweighted path through the same torus engine
ops = st.one_of(_comm_ops(CommKind.ALLTOALL), _comm_ops(CommKind.ALLTOALL),
                _comm_ops(CommKind.HALO), _comm_ops(CommKind.PAIRWISE))


def _cost(placement, topology, config, op, engine=SimMPI) -> str:
    nodes = topology.num_nodes
    mpi = engine(placement, topology, TorusNetwork(topology, config),
                 CollectiveNetwork(nodes), BarrierNetwork(nodes))
    return json.dumps(mpi.run(op).to_dict())


@settings(deadline=None, max_examples=60)
@given(layout=layouts(), op=ops, block=st.integers(1, 40),
       latency=st.sampled_from(LATENCIES))
def test_simmpi_flows_match_oracle(layout, op, block, latency):
    """SimMPI.run on the flow engine == the per-message oracle, bytes
    and dict order, with route blocks that split the flow list."""
    placement, topology = layout
    config = TorusConfig(hop_latency_cycles=latency)
    torus_mod.ROUTE_BLOCK = block
    assert (_cost(placement, topology, config, op)
            == _cost(placement, topology, config, op, ReferenceMPI))


def test_alltoall_lowers_to_node_pairs_only_when_exact():
    """Default latency: node-pair flows.  A latency whose hop sum could
    round differently in another order keeps the per-message oracle."""
    placement = place_ranks(48, OperatingMode.VNM)
    topology = TorusTopology.for_nodes(placement.num_nodes)
    op = CommOp(CommKind.ALLTOALL, bytes_per_rank=1 << 16)

    def lowered(latency):
        torus = TorusNetwork(topology, TorusConfig(hop_latency_cycles=latency))
        mpi = SimMPI(placement, topology, torus,
                     CollectiveNetwork(topology.num_nodes),
                     BarrierNetwork(topology.num_nodes))
        return mpi._message_arrays(op)

    flows = lowered(55.0)
    assert len(flows.src) == 12 * 11
    assert flows.count.tolist() == [16] * (12 * 11)
    assert lowered(55.3) is None
    assert lowered(float(2**52 + 1)) is None


@st.composite
def weighted_phases(draw):
    dims = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 5]),
                               min_size=3, max_size=3)))
    topology = TorusTopology(dims)
    node = st.integers(0, topology.num_nodes - 1)
    flows = draw(st.lists(
        st.tuples(node, node, st.sampled_from([0, 1, 255, 256, 257, 4096]),
                  st.integers(0, 6)), max_size=30))
    return topology, flows


@settings(deadline=None, max_examples=60)
@given(phase=weighted_phases(), block=st.integers(1, 8),
       latency=st.sampled_from(LATENCIES), balanced=st.booleans())
def test_weighted_phase_matches_expanded_messages(phase, block, latency,
                                                  balanced):
    """run_phase_arrays(count=...) == run_phase over the expansion."""
    topology, flows = phase
    net = TorusNetwork(topology, TorusConfig(hop_latency_cycles=latency))
    torus_mod.ROUTE_BLOCK = block
    src, dst, size, count = (np.array([f[i] for f in flows], dtype=np.int64)
                             for i in range(4))
    weighted = net.run_phase_arrays(src, dst, size, balanced=balanced,
                                    count=count)
    expanded = [Message(s, d, b) for s, d, b, c in flows for _ in range(c)]
    oracle = net.run_phase_scalar(expanded, balanced=balanced)

    def fingerprint(result):
        return repr((result.cycles, result.max_link_bytes,
                     result.total_packets, result.hop_cycles,
                     [(n, list(d.items())) for n, d in result.sent.items()],
                     list(result.received.items())))

    assert fingerprint(weighted) == fingerprint(oracle)


def test_hop_cycles_exact_bounds():
    net = TorusNetwork(TorusTopology((2, 2, 2)))
    assert net.hop_cycles_exact(0)
    assert net.hop_cycles_exact((2**53 - 1) // 55)
    assert not net.hop_cycles_exact(2**53 // 55 + 1)
    fractional = TorusNetwork(TorusTopology((2, 2, 2)),
                              TorusConfig(hop_latency_cycles=55.5))
    assert not fractional.hop_cycles_exact(1)


def test_run_phase_arrays_rejects_bad_counts():
    net = TorusNetwork(TorusTopology((2, 2, 2)))
    one = np.array([0]), np.array([1]), np.array([64])
    with pytest.raises(ValueError):
        net.run_phase_arrays(*one, count=np.array([-1]))
    with pytest.raises(ValueError):
        net.run_phase_arrays(*one, count=np.array([1, 1]))


def test_alltoall_4096_ranks_memory_bounded():
    """One FT class-C all-to-all at 4096 ranks (VNM, 1024 nodes) peaks
    far below the ~GBs the per-rank-message lowering needed."""
    from repro.compiler import O5, compile_program
    from repro.npb import build_benchmark

    program = compile_program(
        build_benchmark("FT", num_ranks=4096, problem_class="C"), O5())
    op = next(op for op in program.comms() if op.kind is CommKind.ALLTOALL)
    placement = place_ranks(4096, OperatingMode.VNM)
    assert placement.num_nodes == 1024
    topology = TorusTopology.for_nodes(placement.num_nodes)
    mpi = SimMPI(placement, topology, TorusNetwork(topology),
                 CollectiveNetwork(1024), BarrierNetwork(1024))
    tracemalloc.start()
    try:
        result = mpi.run(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20
    slice_bytes = op.bytes_per_rank // 4095
    assert result.inter_node_bytes == (
        slice_bytes * op.repeats * 4096 * (4095 - 3))
    assert result.intra_node_bytes == slice_bytes * op.repeats * 4096 * 3
    assert len(result.torus_events) == 1024
    assert math.isfinite(result.cycles_per_rank)
