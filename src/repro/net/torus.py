"""The 3D torus data network: latency, bandwidth, link contention.

The torus is BG/P's main data network: 6 bidirectional links per node,
dimension-ordered routing, highest throughput to nearest neighbours.
The cost model for a communication *phase* (a set of messages injected
together, which is how BSP applications drive the network):

* every message pays per-hop latency along its route;
* every directed link serialises the bytes of all messages routed over
  it; the phase completes when the most-loaded link drains;
* per-node packet counts per direction feed the mode-3 UPC events.

Bytes on the wire are *packetised*: a message occupies its links for
``packets * packet_bytes`` (header-padded) bytes, not for its raw
payload size — sub-packet messages still burn a whole packet slot.

Two phase engines are provided.  :meth:`TorusNetwork.run_phase_scalar`
is the per-message Python loop — the oracle.  The vectorized engine
takes the phase as *flows* — ``(src, dst, size, count)`` rows, each
standing for ``count`` identical messages — routes every flow once
(``repro.net.topology.TorusTopology.route_arrays``, fed in blocks of
:data:`ROUTE_BLOCK` flows so peak memory is bounded by the block, not
by the message count) and accumulates link/packet/hop counts with
``np.add.at`` scatters weighted by ``count``.  It is byte-identical to
the oracle run over the flows' expansion (every accumulated quantity
is an exact integer; the one float sum, ``hop_cycles``, is an exact
integer product whenever :meth:`TorusNetwork.hop_cycles_exact` holds
and an ordered per-message replay otherwise), enforced by the
randomized identity suites in ``tests/test_machine_vec.py`` and
``tests/test_comm_flows.py``.  :meth:`TorusNetwork.run_phase` picks
between them by phase size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import metrics as _metrics
from ..obs.tracer import span as _span
from .topology import DIRECTION_NAMES, TorusTopology

_PHASES = _metrics.counter("net.torus_phases")
_PACKETS = _metrics.counter("net.torus_packets")
_PHASE_CYCLES = _metrics.histogram("net.torus_phase_cycles")

#: Below this many messages the scalar loop beats the array passes'
#: fixed setup cost; identity between the engines makes the threshold a
#: pure performance knob.
_VECTOR_MIN_MESSAGES = 16

#: Flows routed per :meth:`TorusTopology.route_arrays` call.  Every
#: routed quantity is an integer scatter into fixed-size accumulators,
#: so splitting the flow list is exact; the block bounds the expanded
#: per-hop rows held at once (block x partition diameter).
ROUTE_BLOCK = 1 << 14

#: Largest integer magnitude below which float64 sums are exact.
_EXACT_FLOAT_INT = 1 << 53


def first_occurrence(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """The distinct ``keys`` (ints in ``[0, num_keys)``) in the order
    they first appear — the insertion order of a dict filled key by
    key in a Python loop over ``keys``."""
    first = np.full(num_keys, len(keys), dtype=np.int64)
    np.minimum.at(first, keys, np.arange(len(keys), dtype=np.int64))
    present = np.flatnonzero(first < len(keys))
    return present[np.argsort(first[present], kind="stable")]


@dataclass(frozen=True)
class Message:
    """One point-to-point transfer in a communication phase."""

    src: int
    dst: int
    size_bytes: int

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("message size must be >= 0")


@dataclass(frozen=True)
class TorusConfig:
    """Torus link parameters, in core-clock cycles and bytes.

    BG/P torus links run at 425 MB/s per direction; at 850 MHz that is
    0.5 bytes per core cycle.  Hop latency is ~64 ns hardware + routing,
    ~55 core cycles.
    """

    bytes_per_cycle: float = 0.5
    hop_latency_cycles: float = 55.0
    packet_bytes: int = 256
    #: software (MPI) overhead per message, cycles
    software_overhead_cycles: float = 900.0

    def __post_init__(self):
        if self.bytes_per_cycle <= 0 or self.packet_bytes <= 0:
            raise ValueError("invalid torus configuration")


@dataclass
class PhaseResult:
    """Outcome of one communication phase on the torus."""

    cycles: float = 0.0
    max_link_bytes: int = 0
    total_packets: int = 0
    #: per-node, per-direction packet counts: node -> {"XP": n, ...}
    sent: Dict[int, Dict[str, int]] = field(default_factory=dict)
    #: packets received per node
    received: Dict[int, int] = field(default_factory=dict)
    #: cumulative packet-hops (feeds BGP_TORUS_HOP_CYCLES)
    hop_cycles: float = 0.0


class TorusNetwork:
    """Cost + event model of the torus for phase-structured traffic."""

    def __init__(self, topology: TorusTopology,
                 config: TorusConfig = TorusConfig()):
        self.topology = topology
        self.config = config

    def packets(self, size_bytes: int) -> int:
        """Packets needed for a message (minimum one for the header)."""
        if size_bytes == 0:
            return 0
        return -(-size_bytes // self.config.packet_bytes)

    def message_cost(self, msg: Message) -> float:
        """Cycles for one message on an otherwise idle network."""
        if msg.src == msg.dst:
            return 0.0  # intra-node: handled by shared memory, not torus
        hops = self.topology.hop_distance(msg.src, msg.dst)
        # packetised wire time: the link serialises whole (header-padded)
        # packets, consistent with packets() and the link-bytes charge
        wire = (self.packets(msg.size_bytes) * self.config.packet_bytes
                / self.config.bytes_per_cycle)
        return (self.config.software_overhead_cycles
                + hops * self.config.hop_latency_cycles + wire)

    def run_phase(self, messages: Sequence[Message],
                  balanced: bool = False,
                  engine: Optional[str] = None) -> PhaseResult:
        """Cost and events of a set of messages injected together.

        ``balanced=True`` models BG/P's optimised dense collectives
        (e.g. MPI_Alltoall), which spread traffic over all six links of
        every node instead of following deterministic dimension-order
        routes: the phase then drains at node-aggregate bandwidth, with
        per-link hotspots averaged away.

        ``engine`` forces ``"scalar"`` or ``"vector"``; the default
        picks the vectorized engine for phases large enough to amortise
        its setup.  Both engines return byte-identical results.
        """
        if engine is None:
            engine = ("vector" if len(messages) >= _VECTOR_MIN_MESSAGES
                      else "scalar")
        if engine not in ("scalar", "vector"):
            raise ValueError(f"unknown phase engine {engine!r}")
        _PHASES.inc()
        charge_span = _span("net.torus.phase", messages=len(messages),
                            balanced=balanced, engine=engine)
        if engine == "vector":
            result = self._phase_vector(messages, balanced)
        else:
            result = self._phase_scalar(messages, balanced)
        _PACKETS.inc(result.total_packets)
        _PHASE_CYCLES.observe(result.cycles)
        charge_span.set("cycles", result.cycles)
        charge_span.set("packets", result.total_packets)
        charge_span.end()
        return result

    def run_phase_scalar(self, messages: Sequence[Message],
                         balanced: bool = False) -> PhaseResult:
        """The per-message reference engine (the oracle)."""
        return self.run_phase(messages, balanced, engine="scalar")

    def run_phase_vector(self, messages: Sequence[Message],
                         balanced: bool = False) -> PhaseResult:
        """The batched engine; byte-identical to the oracle."""
        return self.run_phase(messages, balanced, engine="vector")

    def run_phase_arrays(self, src: np.ndarray, dst: np.ndarray,
                         size: np.ndarray, balanced: bool = False,
                         count: Optional[np.ndarray] = None
                         ) -> PhaseResult:
        """The batched engine fed (src, dst, size_bytes) flow arrays.

        Row ``i`` stands for ``count[i]`` identical messages (one when
        ``count`` is None), so the result equals ``run_phase`` over the
        flows expanded in row order, without materialising a Message —
        or even a row — per message.  Sizes and counts must be >= 0
        (Message enforces the size check for the object path).
        """
        size = np.asarray(size, dtype=np.int64)
        if size.size and int(size.min()) < 0:
            raise ValueError("message size must be >= 0")
        if count is not None:
            count = np.asarray(count, dtype=np.int64)
            if count.shape != size.shape:
                raise ValueError("count must have one entry per flow")
            if count.size and int(count.min()) < 0:
                raise ValueError("message count must be >= 0")
        _PHASES.inc()
        messages = size.size if count is None else count.sum()
        charge_span = _span("net.torus.phase", messages=int(messages),
                            flows=int(size.size), balanced=balanced,
                            engine="vector")
        result = self._phase_vector_arrays(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64), size, balanced, count)
        _PACKETS.inc(result.total_packets)
        _PHASE_CYCLES.observe(result.cycles)
        charge_span.set("cycles", result.cycles)
        charge_span.set("packets", result.total_packets)
        charge_span.end()
        return result

    def hop_cycles_exact(self, packet_hops: int) -> bool:
        """Whether ``hop_cycles`` over ``packet_hops`` is order-free.

        With an integer-valued hop latency ``L`` and ``|L| *
        packet_hops`` below 2**53, every per-message term and every
        partial sum of the oracle's float accumulation is an exactly
        representable integer, so the sum equals ``float(L *
        packet_hops)`` whatever the message order.
        """
        latency = self.config.hop_latency_cycles
        return (float(latency).is_integer()
                and abs(int(latency)) * packet_hops < _EXACT_FLOAT_INT)

    # ------------------------------------------------------------------
    def _phase_scalar(self, messages: Sequence[Message],
                      balanced: bool) -> PhaseResult:
        result = PhaseResult()
        link_bytes: Dict[Tuple[int, int], int] = {}
        worst_message = 0.0
        for msg in messages:
            if msg.src == msg.dst or msg.size_bytes == 0:
                continue
            route = self.topology.route(msg.src, msg.dst)
            pkts = self.packets(msg.size_bytes)
            result.total_packets += pkts
            result.received[msg.dst] = result.received.get(msg.dst, 0) + pkts
            result.hop_cycles += (len(route) * pkts
                                  * self.config.hop_latency_cycles)
            worst_message = max(worst_message, self.message_cost(msg))
            # links serialise whole packets: header padding occupies the
            # wire exactly like payload (sub-packet messages burn a full
            # packet slot per link)
            wire_bytes = pkts * self.config.packet_bytes
            for link in route:
                link_bytes[link] = link_bytes.get(link, 0) + wire_bytes
            # the injecting node's directional counter
            first = route[0]
            direction = self.topology.link_direction(*first)
            node_sent = result.sent.setdefault(msg.src, {})
            node_sent[direction] = node_sent.get(direction, 0) + pkts
        max_link = max(link_bytes.values()) if link_bytes else 0
        total_link = sum(link_bytes.values())
        self._finish_phase(result, max_link, total_link, worst_message,
                           balanced)
        return result

    def _phase_vector(self, messages: Sequence[Message],
                      balanced: bool) -> PhaseResult:
        n = len(messages)
        src = np.fromiter((m.src for m in messages), dtype=np.int64,
                          count=n)
        dst = np.fromiter((m.dst for m in messages), dtype=np.int64,
                          count=n)
        size = np.fromiter((m.size_bytes for m in messages),
                           dtype=np.int64, count=n)
        return self._phase_vector_arrays(src, dst, size, balanced)

    def _phase_vector_arrays(self, src: np.ndarray, dst: np.ndarray,
                             size: np.ndarray, balanced: bool,
                             count: Optional[np.ndarray] = None
                             ) -> PhaseResult:
        result = PhaseResult()
        live = (src != dst) & (size > 0)
        if count is not None:
            live &= count > 0
        if not live.all():
            src, dst, size = src[live], dst[live], size[live]
            if count is not None:
                count = count[live]
        if len(src) == 0:
            self._finish_phase(result, 0, 0, 0.0, balanced)
            return result

        cfg = self.config
        pkts = -(-size // cfg.packet_bytes)
        # packets per flow: every count-weighted sum below is an exact
        # integer, so it equals the oracle's per-message accumulation
        weight = pkts if count is None else pkts * count
        wire_bytes = weight * cfg.packet_bytes

        # route in blocks, scattering each block's per-directed-link
        # serialised bytes into one (node, direction) accumulator
        n = len(src)
        hops = np.empty(n, dtype=np.int64)
        first_dir = np.empty(n, dtype=np.int64)
        link_acc = np.zeros(self.topology.num_nodes * 6, dtype=np.int64)
        for start in range(0, n, ROUTE_BLOCK):
            block = slice(start, start + ROUTE_BLOCK)
            routes = self.topology.route_arrays(src[block], dst[block])
            hops[block] = routes["hops"]
            first_dir[block] = routes["first_dir"]
            np.add.at(link_acc,
                      routes["link_node"] * 6 + routes["link_dir"],
                      wire_bytes[block][routes["link_msg"]])
            del routes  # free this block's hop rows before the next
        max_link = int(link_acc.max(initial=0))
        total_link = int(link_acc.sum())

        result.total_packets = int(weight.sum())
        packet_hops = int((hops * weight).sum())
        if self.hop_cycles_exact(packet_hops):
            result.hop_cycles = float(int(cfg.hop_latency_cycles)
                                      * packet_hops)
        else:
            # the oracle's ordered per-message accumulation over the
            # flow expansion; each term is bit-identical to the scalar
            # loop's (int * int, one float rounding)
            terms = ((hops * pkts) * cfg.hop_latency_cycles).tolist()
            repeats = [1] * n if count is None else count.tolist()
            total = 0.0
            for term, times in zip(terms, repeats):
                for _ in range(times):
                    total += term
            result.hop_cycles = total
        # message_cost, elementwise in the scalar evaluation order; all
        # messages of a flow cost the same, so the max is over flows
        wire = (pkts * cfg.packet_bytes) / cfg.bytes_per_cycle
        costs = (cfg.software_overhead_cycles
                 + hops * cfg.hop_latency_cycles + wire)
        worst_message = float(costs.max(initial=0.0))

        # received/sent dicts, rebuilt in the scalar loop's insertion
        # order (first occurrence in flow order — a key's first message
        # is the first message of its flow)
        num_nodes = self.topology.num_nodes
        recv_acc = np.zeros(num_nodes, dtype=np.int64)
        np.add.at(recv_acc, dst, weight)
        for node in first_occurrence(dst, num_nodes).tolist():
            result.received[node] = int(recv_acc[node])

        sent_key = src * 6 + first_dir
        sent_acc = np.zeros(num_nodes * 6, dtype=np.int64)
        np.add.at(sent_acc, sent_key, weight)
        for key in first_occurrence(sent_key, num_nodes * 6).tolist():
            node, direction = key // 6, key % 6
            node_sent = result.sent.setdefault(node, {})
            node_sent[DIRECTION_NAMES[direction]] = int(sent_acc[key])

        self._finish_phase(result, max_link, total_link, worst_message,
                           balanced)
        return result

    def _finish_phase(self, result: PhaseResult, max_link_bytes: int,
                      total_link_bytes: int, worst_message: float,
                      balanced: bool) -> None:
        """Common tail: serialisation + phase cycles from link loads."""
        result.max_link_bytes = max_link_bytes
        if balanced and max_link_bytes:
            # node-aggregate drain: total link traffic spread over every
            # directed link actually available
            links = 6 * self.topology.num_nodes
            serialization = (total_link_bytes / links
                             / self.config.bytes_per_cycle)
            # hotspots never average out perfectly
            serialization = max(serialization,
                                0.25 * result.max_link_bytes
                                / self.config.bytes_per_cycle)
        else:
            serialization = (result.max_link_bytes
                             / self.config.bytes_per_cycle)
        result.cycles = max(worst_message, serialization)

    # ------------------------------------------------------------------
    def phase_events(self, result: PhaseResult) -> Dict[int, Dict[str, int]]:
        """Mode-3 UPC event pulses per node for a finished phase."""
        events: Dict[int, Dict[str, int]] = {}
        for node, directions in result.sent.items():
            node_ev = events.setdefault(node, {})
            for direction, pkts in directions.items():
                node_ev[f"BGP_TORUS_{direction}_PACKETS"] = (
                    node_ev.get(f"BGP_TORUS_{direction}_PACKETS", 0) + pkts)
        for node, pkts in result.received.items():
            node_ev = events.setdefault(node, {})
            node_ev["BGP_TORUS_RECV_PACKETS"] = (
                node_ev.get("BGP_TORUS_RECV_PACKETS", 0) + pkts)
        return events
