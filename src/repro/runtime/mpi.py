"""Simulated MPI: communication phases costed on the machine's networks.

The runtime executes communication the way the NAS benchmarks drive it:
bulk-synchronous phases where every rank participates.  Each
:class:`~repro.compiler.ir.CommOp` is lowered to concrete messages
using the job's rank placement:

* **HALO** — each rank exchanges with its neighbours in a 3D rank-grid
  decomposition; co-resident partners (Virtual Node Mode!) communicate
  through the shared L3 instead of the torus;
* **ALLTOALL** — personalised all-to-all (FT's transpose): every rank
  sends an equal slice to every other rank; the array engine costs it
  as one weighted flow per node pair, never per rank pair;
* **PAIRWISE** — fixed-partner exchange (IS's ranking step);
* **ALLREDUCE / BROADCAST** — the collective tree network;
* **BARRIER** — the global barrier network.

Inter-node transfers also cost *memory traffic*: the torus DMA engines
stream message payloads through the L3, and a fraction spills to DDR.
Intra-node transfers stay in the shared L3 — one of the reasons the
paper measures a DDR-traffic ratio *below* 4x for neighbour-local
benchmarks in VNM (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ..compiler.ir import CommKind, CommOp
from ..net import (
    BarrierNetwork,
    CollectiveNetwork,
    Message,
    TorusNetwork,
    TorusTopology,
)
from ..net.topology import partition_shape
from ..net.torus import first_occurrence
from .process import JobPlacement

#: Cycles of software overhead for an intra-node (shared-memory) message.
SHM_OVERHEAD_CYCLES = 300.0
#: Shared-L3 copy bandwidth, bytes per cycle.
SHM_BYTES_PER_CYCLE = 4.0
#: Fraction of inter-node message bytes that cross the DDR interface
#: (payloads staged through L3; the rest is consumed before eviction).
COMM_DDR_FRACTION = 0.5
#: L3 line size for converting comm bytes to DDR line transfers.
_LINE = 128
#: Below this many messages the vectorized lowering isn't worth its
#: array setup (mirrors the torus phase-engine threshold).
_VECTOR_MIN_TRIPLES = 16


class Flows(NamedTuple):
    """One repeat of a point-to-point op, lowered for the array engine.

    Intra-node messages stay per message (their shared-memory cycles
    are a per-rank float replay); inter-node traffic is a list of torus
    flows, row ``i`` standing for ``count[i]`` identical messages
    (``count`` None: one each).
    """

    intra_rank: np.ndarray  #: sending rank of each intra-node message
    intra_size: np.ndarray  #: its bytes, in scalar message order
    src: np.ndarray         #: flow source node
    dst: np.ndarray         #: flow destination node
    size: np.ndarray        #: bytes per message of the flow
    count: Optional[np.ndarray]


@dataclass
class CommResult:
    """Cost and events of one communication phase (all repeats)."""

    cycles_per_rank: float = 0.0
    torus_events: Dict[int, Dict[str, int]] = field(default_factory=dict)
    collective_events: Dict[str, int] = field(default_factory=dict)
    #: extra DDR line transfers per node caused by message staging
    ddr_lines_per_node: Dict[int, int] = field(default_factory=dict)
    intra_node_bytes: int = 0
    inter_node_bytes: int = 0

    # ------------------------------------------------------------------
    # JSON round trip (the shared cache tier persists costed phases)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serialisable form; exact (floats survive json)."""
        return {
            "cycles_per_rank": self.cycles_per_rank,
            "torus_events": {str(node): dict(events) for node, events
                             in self.torus_events.items()},
            "collective_events": dict(self.collective_events),
            "ddr_lines_per_node": {str(node): lines for node, lines
                                   in self.ddr_lines_per_node.items()},
            "intra_node_bytes": self.intra_node_bytes,
            "inter_node_bytes": self.inter_node_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CommResult":
        """Rebuild a phase saved by :meth:`to_dict` (node ids re-int'd
        after JSON stringified the dict keys)."""
        return cls(
            cycles_per_rank=data["cycles_per_rank"],
            torus_events={int(node): dict(events) for node, events
                          in data["torus_events"].items()},
            collective_events=dict(data["collective_events"]),
            ddr_lines_per_node={int(node): lines for node, lines
                                in data["ddr_lines_per_node"].items()},
            intra_node_bytes=data["intra_node_bytes"],
            inter_node_bytes=data["inter_node_bytes"],
        )


class SimMPI:
    """Lower CommOps to messages and cost them on the networks."""

    #: torus phase engine of the per-message path (None: by phase size)
    _phase_engine: Optional[str] = None

    def __init__(self, placement: JobPlacement, topology: TorusTopology,
                 torus: TorusNetwork, collective: CollectiveNetwork,
                 barrier: BarrierNetwork):
        self.placement = placement
        self.topology = topology
        self.torus = torus
        self.collective = collective
        self.barrier = barrier
        self._rank_grid = partition_shape(placement.num_ranks)
        self._node_by_rank: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # rank-grid neighbours for halo exchanges
    # ------------------------------------------------------------------
    def _rank_coords(self, rank: int) -> Tuple[int, int, int]:
        x_dim, y_dim, _ = self._rank_grid
        return (rank % x_dim, (rank // x_dim) % y_dim,
                rank // (x_dim * y_dim))

    def _rank_at(self, coord: Tuple[int, int, int]) -> int:
        x_dim, y_dim, _ = self._rank_grid
        x, y, z = coord
        return x + y * x_dim + z * x_dim * y_dim

    def halo_partners(self, rank: int, wanted: int) -> List[int]:
        """Up to ``wanted`` distinct neighbour ranks in the 3D rank grid."""
        coords = self._rank_coords(rank)
        partners: List[int] = []
        for axis in range(3):
            for step in (+1, -1):
                if len(partners) >= wanted:
                    return partners
                size = self._rank_grid[axis]
                if size == 1:
                    continue
                n = list(coords)
                n[axis] = (n[axis] + step) % size
                partner = self._rank_at(tuple(n))
                if partner != rank and partner not in partners:
                    partners.append(partner)
        return partners

    # ------------------------------------------------------------------
    # lowering
    # ------------------------------------------------------------------
    def _messages_for(self, op: CommOp) -> List[Tuple[int, int, int]]:
        """(src_rank, dst_rank, bytes) triples for one repeat of ``op``."""
        p = self.placement
        if op.kind is CommKind.HALO:
            out = []
            for rank in range(p.num_ranks):
                partners = self.halo_partners(rank, op.neighbors)
                if not partners:
                    continue
                per_partner = op.bytes_per_rank // len(partners)
                out.extend((rank, q, per_partner) for q in partners)
            return out
        if op.kind is CommKind.ALLTOALL:
            n = p.num_ranks
            if n == 1:
                return []
            slice_bytes = op.bytes_per_rank // (n - 1)
            return [(r, q, slice_bytes)
                    for r in range(n) for q in range(n) if q != r]
        if op.kind is CommKind.PAIRWISE:
            out = []
            for rank in range(p.num_ranks):
                partner = rank ^ op.partner_stride
                if partner < p.num_ranks and partner != rank:
                    out.append((rank, partner, op.bytes_per_rank))
            return out
        raise ValueError(f"{op.kind} is not a point-to-point pattern")

    def _message_arrays(self, op: CommOp) -> Optional[Flows]:
        """One repeat of ``op`` lowered to :class:`Flows`, or None.

        None sends the op to the per-message oracle: phases too small
        to amortise the array setup, and all-to-alls whose node-pair
        merge could change the float ``hop_cycles`` sum (see
        :meth:`_alltoall_flows`).  HALO and PAIRWISE keep one flow per
        inter-node message, in the scalar message order.
        """
        if op.kind is CommKind.ALLTOALL:
            return self._alltoall_flows(op)
        triples = self._messages_for(op)
        if len(triples) < _VECTOR_MIN_TRIPLES:
            return None
        src_r, dst_r, size = np.asarray(
            triples, dtype=np.int64).reshape(-1, 3).T
        live = size > 0
        src_r, dst_r, size = src_r[live], dst_r[live], size[live]
        node_of = self._rank_to_node()
        src_node, dst_node = node_of[src_r], node_of[dst_r]
        intra = src_node == dst_node
        inter = ~intra
        return Flows(intra_rank=src_r[intra], intra_size=size[intra],
                     src=src_node[inter], dst=dst_node[inter],
                     size=size[inter], count=None)

    def _alltoall_flows(self, op: CommOp) -> Optional[Flows]:
        """Personalised all-to-all as weighted node-pair flows.

        Every rank sends one equal slice to every other rank, so the
        ``n * (n - 1)`` rank messages collapse to one flow per ordered
        pair of distinct nodes with ``count = residents(src) *
        residents(dst)``.  Nodes are ordered by their lowest rank, so
        the pairs come out in the order of their first message — the
        order every first-occurrence dict of the oracle is keyed in.
        Co-resident pairs become the intra-node list: each rank's
        ``residents - 1`` shared-memory sends, rank by rank.
        """
        n = self.placement.num_ranks
        if n * (n - 1) < _VECTOR_MIN_TRIPLES:
            return None
        slice_bytes = op.bytes_per_rank // (n - 1)
        if slice_bytes == 0:
            empty = np.zeros(0, dtype=np.int64)
            return Flows(empty, empty, empty, empty, empty, empty)
        # merging reorders the oracle's float hop_cycles accumulation;
        # bound its packet-hops by diameter x packets and keep the
        # per-message oracle when that bound is not provably exact
        packets = self.torus.packets(slice_bytes)
        if not self.torus.hop_cycles_exact(
                self.topology.diameter * packets * n * (n - 1)):
            return None
        node_of = self._rank_to_node()
        nodes, first_rank, residents = np.unique(
            node_of, return_index=True, return_counts=True)
        order = np.argsort(first_rank, kind="stable")
        nodes, residents = nodes[order], residents[order]
        k = len(nodes)
        src = np.repeat(nodes, k)
        dst = np.tile(nodes, k)
        count = np.outer(residents, residents).ravel()
        inter = src != dst
        src, dst, count = src[inter], dst[inter], count[inter]
        home = np.zeros(int(nodes.max()) + 1, dtype=np.int64)
        home[nodes] = residents
        intra_rank = np.repeat(np.arange(n, dtype=np.int64),
                               home[node_of] - 1)
        return Flows(intra_rank=intra_rank,
                     intra_size=np.full(intra_rank.shape, slice_bytes,
                                        dtype=np.int64),
                     src=src, dst=dst,
                     size=np.full(src.shape, slice_bytes, dtype=np.int64),
                     count=count)

    def _rank_to_node(self) -> np.ndarray:
        """Per-rank home node, cached (placement is fixed per job)."""
        if self._node_by_rank is None:
            p = self.placement
            self._node_by_rank = np.fromiter(
                (p.node_of(r) for r in range(p.num_ranks)),
                dtype=np.int64, count=p.num_ranks)
        return self._node_by_rank

    def _cost_triples(self, triples: List[Tuple[int, int, int]],
                      balanced: bool, result: CommResult):
        """Per-message reference lowering (the oracle engine)."""
        torus_messages: List[Message] = []
        intra_cycles_per_rank: Dict[int, float] = {}
        for src, dst, size in triples:
            if size == 0:
                continue
            src_node = self.placement.node_of(src)
            dst_node = self.placement.node_of(dst)
            if src_node == dst_node:
                # shared-memory path: L3 copy, no torus, no DDR
                result.intra_node_bytes += size
                intra_cycles_per_rank[src] = (
                    intra_cycles_per_rank.get(src, 0.0)
                    + SHM_OVERHEAD_CYCLES + size / SHM_BYTES_PER_CYCLE)
            else:
                result.inter_node_bytes += size
                torus_messages.append(Message(src_node, dst_node, size))
                lines = int(size * COMM_DDR_FRACTION) // _LINE
                for node in (src_node, dst_node):
                    result.ddr_lines_per_node[node] = (
                        result.ddr_lines_per_node.get(node, 0) + lines)
        phase = self.torus.run_phase(torus_messages, balanced=balanced,
                                     engine=self._phase_engine)
        intra_max = max(intra_cycles_per_rank.values(), default=0.0)
        return phase, intra_max

    def _cost_arrays(self, flows: Flows, balanced: bool,
                     result: CommResult):
        """Batched lowering; byte-identical to :meth:`_cost_triples`.

        Integer accounting (bytes, DDR lines) is count-weighted and
        commutes exactly; the only float accumulation — per-rank
        shared-memory cycles — is replayed as a loop over just the
        intra-node messages, in the scalar message order, so every
        intermediate rounding matches.
        """
        intra_cycles_per_rank: Dict[int, float] = {}
        for src, sz in zip(flows.intra_rank.tolist(),
                           flows.intra_size.tolist()):
            intra_cycles_per_rank[src] = (
                intra_cycles_per_rank.get(src, 0.0)
                + SHM_OVERHEAD_CYCLES + sz / SHM_BYTES_PER_CYCLE)
        result.intra_node_bytes += int(flows.intra_size.sum())

        src, dst, size, count = flows.src, flows.dst, flows.size, flows.count
        weighted = size if count is None else size * count
        result.inter_node_bytes += int(weighted.sum())
        # DDR staging lines, charged to both endpoints.  int(size *
        # fraction) truncates toward zero; astype(int64) of the same
        # float64 product truncates identically for non-negative sizes.
        lines = (size * COMM_DDR_FRACTION).astype(np.int64) // _LINE
        if count is not None:
            lines *= count
        ids = np.empty(2 * src.size, dtype=np.int64)
        ids[0::2] = src
        ids[1::2] = dst
        if ids.size:
            num_ids = int(ids.max()) + 1
            acc = np.zeros(num_ids, dtype=np.int64)
            np.add.at(acc, ids, np.repeat(lines, 2))
            for node in first_occurrence(ids, num_ids).tolist():
                result.ddr_lines_per_node[node] = (
                    result.ddr_lines_per_node.get(node, 0)
                    + int(acc[node]))
        phase = self.torus.run_phase_arrays(src, dst, size,
                                            balanced=balanced, count=count)
        intra_max = max(intra_cycles_per_rank.values(), default=0.0)
        return phase, intra_max

    def run(self, op: CommOp) -> CommResult:
        """Cost one CommOp (including its ``repeats``)."""
        result = CommResult()
        if op.kind in (CommKind.ALLREDUCE, CommKind.BROADCAST):
            coll = (self.collective.allreduce(op.bytes_per_rank)
                    if op.kind is CommKind.ALLREDUCE
                    else self.collective.broadcast(op.bytes_per_rank))
            result.cycles_per_rank = coll.cycles * op.repeats
            result.collective_events = {
                name: count * op.repeats
                for name, count in self.collective.events(coll).items()}
            return result
        if op.kind is CommKind.BARRIER:
            # symmetric BSP ranks arrive together: pure hardware latency
            result.cycles_per_rank = (self.barrier.hardware_latency
                                      * op.repeats)
            return result

        balanced = op.kind is CommKind.ALLTOALL
        flows = self._message_arrays(op)
        if flows is not None:
            phase, intra_max = self._cost_arrays(flows, balanced, result)
        else:
            phase, intra_max = self._cost_triples(
                self._messages_for(op), balanced, result)
        result.cycles_per_rank = (max(phase.cycles, intra_max)
                                  * op.repeats)
        result.torus_events = {
            node: {name: count * op.repeats
                   for name, count in events.items()}
            for node, events in self.torus.phase_events(phase).items()}
        result.ddr_lines_per_node = {
            node: lines * op.repeats
            for node, lines in result.ddr_lines_per_node.items()}
        result.intra_node_bytes *= op.repeats
        result.inter_node_bytes *= op.repeats
        return result
