"""3D torus topology: node coordinates, routing distances, partitions.

Blue Gene/P partitions are 3D tori (mesh with wraparound links).  The
topology maps linear node ids to ``(x, y, z)`` coordinates, computes
wraparound hop distances, and enumerates dimension-ordered routes —
the deterministic X-then-Y-then-Z routing BG/P uses for deadlock
freedom, which the torus cost model needs for link-contention counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

import numpy as np

Coord = Tuple[int, int, int]

#: Direction-index -> UPC event suffix (axis * 2 + (step < 0)).
DIRECTION_NAMES = ("XP", "XM", "YP", "YM", "ZP", "ZM")


def partition_shape(num_nodes: int) -> Tuple[int, int, int]:
    """A balanced 3D shape for a partition of ``num_nodes`` nodes.

    Mirrors the standard BG/P partition shapes (32 nodes = 4x4x2,
    128 nodes = 8x4x4, ...), falling back to the most-cubic
    factorisation for other sizes.
    """
    known = {
        1: (1, 1, 1), 2: (2, 1, 1), 4: (2, 2, 1), 8: (2, 2, 2),
        16: (4, 2, 2), 32: (4, 4, 2), 64: (4, 4, 4), 128: (8, 4, 4),
        256: (8, 8, 4), 512: (8, 8, 8), 1024: (16, 8, 8),
    }
    if num_nodes in known:
        return known[num_nodes]
    if num_nodes <= 0:
        raise ValueError(f"partition must have >= 1 node, got {num_nodes}")
    best = (num_nodes, 1, 1)
    best_score = num_nodes  # lower = more cubic
    for x in range(1, num_nodes + 1):
        if num_nodes % x:
            continue
        rest = num_nodes // x
        for y in range(1, rest + 1):
            if rest % y:
                continue
            z = rest // y
            score = max(x, y, z) - min(x, y, z)
            if score < best_score:
                best, best_score = (x, y, z), score
    return best


@dataclass(frozen=True)
class TorusTopology:
    """A ``dims``-shaped 3D torus of compute nodes."""

    dims: Coord

    def __post_init__(self):
        if any(d <= 0 for d in self.dims):
            raise ValueError(f"invalid torus dims {self.dims}")

    @classmethod
    def for_nodes(cls, num_nodes: int) -> "TorusTopology":
        """A torus of the standard partition shape for ``num_nodes``."""
        return cls(partition_shape(num_nodes))

    @property
    def num_nodes(self) -> int:
        x, y, z = self.dims
        return x * y * z

    @property
    def diameter(self) -> int:
        """Most hops any dimension-ordered route takes."""
        return sum(d // 2 for d in self.dims)

    # ------------------------------------------------------------------
    def coords(self, node: int) -> Coord:
        """Linear node id -> (x, y, z)."""
        self._check(node)
        x_dim, y_dim, _ = self.dims
        return (node % x_dim, (node // x_dim) % y_dim,
                node // (x_dim * y_dim))

    def node(self, coord: Coord) -> int:
        """(x, y, z) -> linear node id."""
        x, y, z = coord
        x_dim, y_dim, z_dim = self.dims
        if not (0 <= x < x_dim and 0 <= y < y_dim and 0 <= z < z_dim):
            raise ValueError(f"coordinate {coord} outside torus {self.dims}")
        return x + y * x_dim + z * x_dim * y_dim

    def _check(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(
                f"node {node} outside torus of {self.num_nodes} nodes")

    # ------------------------------------------------------------------
    def _axis_step(self, src: int, dst: int, size: int) -> int:
        """Signed unit step along one wraparound axis (shortest way)."""
        if src == dst:
            return 0
        forward = (dst - src) % size
        backward = (src - dst) % size
        return 1 if forward <= backward else -1

    def hop_distance(self, a: int, b: int) -> int:
        """Shortest wraparound hop count between two nodes."""
        ca, cb = self.coords(a), self.coords(b)
        total = 0
        for axis in range(3):
            size = self.dims[axis]
            d = abs(ca[axis] - cb[axis])
            total += min(d, size - d)
        return total

    def neighbors(self, node: int) -> List[int]:
        """The (up to) six torus neighbours, deduplicated on small dims."""
        c = list(self.coords(node))
        out = []
        for axis in range(3):
            for step in (+1, -1):
                n = c.copy()
                n[axis] = (n[axis] + step) % self.dims[axis]
                nid = self.node(tuple(n))
                if nid != node and nid not in out:
                    out.append(nid)
        return out

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """Dimension-ordered (X, Y, Z) route as a list of directed links.

        Each link is a ``(from_node, to_node)`` pair of adjacent nodes.
        Deterministic routing is what makes link contention computable.
        """
        links: List[Tuple[int, int]] = []
        cur = list(self.coords(src))
        target = self.coords(dst)
        here = self.node(tuple(cur))
        for axis in range(3):
            size = self.dims[axis]
            step = self._axis_step(cur[axis], target[axis], size)
            while cur[axis] != target[axis]:
                cur[axis] = (cur[axis] + step) % size
                nxt = self.node(tuple(cur))
                links.append((here, nxt))
                here = nxt
        return links

    def all_nodes(self) -> Iterator[int]:
        return iter(range(self.num_nodes))

    # ------------------------------------------------------------------
    # batched (vectorized) forms of the routing queries above
    # ------------------------------------------------------------------
    def coords_arrays(self, nodes: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized :meth:`coords`: linear ids -> (x, y, z) arrays."""
        x_dim, y_dim, _ = self.dims
        nodes = np.asarray(nodes, dtype=np.int64)
        return (nodes % x_dim, (nodes // x_dim) % y_dim,
                nodes // (x_dim * y_dim))

    def hop_distance_arrays(self, src: np.ndarray,
                            dst: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`hop_distance` over message batches."""
        total = np.zeros(len(np.asarray(src)), dtype=np.int64)
        cs = self.coords_arrays(src)
        cd = self.coords_arrays(dst)
        for axis in range(3):
            d = np.abs(cs[axis] - cd[axis])
            total += np.minimum(d, self.dims[axis] - d)
        return total

    def route_arrays(self, src: np.ndarray, dst: np.ndarray) -> dict:
        """All dimension-ordered routes of a message batch, expanded.

        Returns a dict of arrays describing every directed link of every
        route, exactly as :meth:`route` + :meth:`link_direction` would
        enumerate them message by message:

        ``hops``
            per-message total hop count ``(n,)``;
        ``first_dir``
            per-message direction index of the *first* link
            (``axis * 2 + (step < 0)``, see :data:`DIRECTION_NAMES`);
            undefined (0) for zero-hop messages;
        ``link_node`` / ``link_dir`` / ``link_msg``
            per-hop arrays ``(total_hops,)``: the from-node, direction
            index and owning message index of each directed link, in
            message order with each route in hop order.  A directed
            link is uniquely ``link_node * 6 + link_dir``.
        """
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        n = len(src)
        x_dim, y_dim, _ = self.dims
        cs = self.coords_arrays(src)
        cd = self.coords_arrays(dst)
        per_axis_hops = []
        per_axis_step = []
        for axis in range(3):
            size = self.dims[axis]
            forward = (cd[axis] - cs[axis]) % size
            backward = (cs[axis] - cd[axis]) % size
            per_axis_hops.append(np.minimum(forward, backward))
            # shortest way, forward on ties — matches _axis_step
            per_axis_step.append(np.where(forward <= backward, 1, -1)
                                 .astype(np.int64))
        hx, hy, hz = per_axis_hops
        hops = hx + hy + hz
        first_axis = np.where(hx > 0, 0, np.where(hy > 0, 1, 2))
        first_step = np.choose(first_axis, per_axis_step)
        first_dir = first_axis * 2 + (first_step < 0)

        total = int(hops.sum())
        if total == 0:
            empty = np.zeros(0, dtype=np.int64)
            return {"hops": hops, "first_dir": first_dir,
                    "link_node": empty, "link_dir": empty,
                    "link_msg": empty}
        link_msg = np.repeat(np.arange(n, dtype=np.int64), hops)
        starts = np.zeros(n, dtype=np.int64)
        np.cumsum(hops[:-1], out=starts[1:])
        within = np.arange(total, dtype=np.int64) - starts[link_msg]
        # dimension order: hop j walks X for j < hx, then Y, then Z
        axis = np.where(within < hx[link_msg], 0,
                        np.where(within < (hx + hy)[link_msg], 1, 2))
        step = np.choose(axis, [a[link_msg] for a in per_axis_step])
        j = within - np.choose(
            axis, [np.zeros(total, dtype=np.int64), hx[link_msg],
                   (hx + hy)[link_msg]])
        # from-coordinates: axes already routed sit at the destination,
        # axes not yet routed still at the source, the active axis at
        # its j-th intermediate position
        fx = np.where(axis == 0,
                      (cs[0][link_msg] + j * per_axis_step[0][link_msg])
                      % self.dims[0], cd[0][link_msg])
        fy = np.where(axis < 1, cs[1][link_msg],
                      np.where(axis == 1,
                               (cs[1][link_msg]
                                + j * per_axis_step[1][link_msg])
                               % self.dims[1], cd[1][link_msg]))
        fz = np.where(axis < 2, cs[2][link_msg],
                      (cs[2][link_msg] + j * per_axis_step[2][link_msg])
                      % self.dims[2])
        link_node = fx + fy * x_dim + fz * x_dim * y_dim
        link_dir = axis * 2 + (step < 0)
        return {"hops": hops, "first_dir": first_dir,
                "link_node": link_node, "link_dir": link_dir,
                "link_msg": link_msg}

    def link_direction(self, src: int, dst: int) -> str:
        """UPC event suffix of the directed link src->dst (e.g. "XP")."""
        cs, cd = self.coords(src), self.coords(dst)
        for axis, name in enumerate("XYZ"):
            if cs[axis] != cd[axis]:
                size = self.dims[axis]
                if (cs[axis] + 1) % size == cd[axis]:
                    return f"{name}P"
                if (cs[axis] - 1) % size == cd[axis]:
                    return f"{name}M"
                raise ValueError(f"{src}->{dst} is not a single hop")
        raise ValueError(f"{src}->{dst} is a self-link")
