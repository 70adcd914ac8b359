"""Post-processing tools: data mining the per-node counter dumps.

Implements the paper's Section IV pipeline: read all files dumped by
each node, validate them (record counts, record lengths, value ranges),
compute the minimum / maximum / arithmetic mean of each of the **512**
logical counters (stitching the even-node-card event set and the
odd-node-card event set back together), evaluate user-defined metrics,
and print records into ``.csv`` files usable from any spreadsheet.
"""

from __future__ import annotations

import csv
import glob
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .dump import DumpFormatError, NodeDump, read_dump
from .events import COUNTERS_PER_MODE, EVENTS_BY_ID, EVENTS_BY_NAME, Event


@dataclass(frozen=True)
class CounterStats:
    """Cross-node statistics of one logical counter."""

    event: Event
    minimum: int
    maximum: int
    mean: float
    total: int
    node_count: int


class ValidationError(ValueError):
    """Raised when the set of dumps is internally inconsistent."""


def load_dumps(source: str | Iterable[str]) -> List[NodeDump]:
    """Load dumps from a directory or an iterable of file paths.

    Files that fail format validation abort the load — a truncated dump
    silently dropped would bias every statistic computed afterwards.
    """
    if isinstance(source, str):
        paths = sorted(glob.glob(os.path.join(source, "bgp_counters_*.bin")))
        if not paths:
            raise FileNotFoundError(f"no counter dumps under {source!r}")
    else:
        paths = list(source)
    return [read_dump(p) for p in paths]


def validate_dumps(dumps: Sequence[NodeDump]) -> None:
    """Cross-file sanity checks (paper: counts, lengths, value ranges).

    * every node must report the same set ids,
    * node ids must be unique,
    * counter values suspiciously close to 2**64 (within 2**10 of wrap)
      are rejected as likely wrap artefacts.
    """
    if not dumps:
        raise ValidationError("no dumps to validate")
    ids = [d.node_id for d in dumps]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValidationError(f"duplicate node ids in dumps: {dupes}")
    reference = dumps[0].set_ids()
    for d in dumps:
        if d.set_ids() != reference:
            raise ValidationError(
                f"node {d.node_id} has sets {d.set_ids()}, "
                f"expected {reference}")
    ceiling = np.uint64((1 << 64) - (1 << 10))
    offenders: List[str] = []
    for d in dumps:
        for set_id, arr in d.sets.items():
            for bad in np.flatnonzero(arr > ceiling):
                offenders.append(
                    f"node {d.node_id} set {set_id} counter {int(bad)}: "
                    f"value {int(arr[bad])}")
    if offenders:
        raise ValidationError(
            "counter values within 2**10 of wrap — likely counter wrap "
            "artefacts:\n  " + "\n  ".join(offenders))


class Aggregation:
    """Cross-node aggregation of one monitoring set.

    Stitches per-mode dumps into the 512-logical-event view: nodes that
    ran in different counter modes (the even/odd node-card policy)
    contribute statistics for *different* events, and the aggregation
    exposes them side by side, keyed by event name.
    """

    def __init__(self, dumps: Sequence[NodeDump], set_id: int = 0,
                 validate: bool = True):
        if validate:
            validate_dumps(dumps)
        self.set_id = set_id
        self.nodes_by_mode: Dict[int, List[int]] = {}
        by_mode: Dict[int, List[NodeDump]] = {}
        for d in dumps:
            self.nodes_by_mode.setdefault(d.mode, []).append(d.node_id)
            by_mode.setdefault(d.mode, []).append(d)
        self.stats: Dict[str, CounterStats] = {}
        # first-seen mode order, counters ascending: the same stats
        # insertion order the per-value loop of the reference produces
        for mode, group in by_mode.items():
            self._stats_for_mode_vector(mode, group, set_id)

    #: exact-integer ceiling for float64: column means can be computed
    #: as total / n only while the exact total is below this
    _MEAN_EXACT_LIMIT = 1 << 53

    def _stats_for_mode_vector(self, mode: int, group: Sequence[NodeDump],
                               set_id: int) -> None:
        """Batched per-mode statistics; byte-identical to the per-value
        loop of :func:`repro.reference.aggregate`.

        Mins/maxes/totals are integer-exact axis reductions (totals via
        a 32-bit split so uint64 column sums cannot wrap).  A column
        mean equals ``total / n`` in float64 whenever the exact total is
        below 2**53 — every addend and partial sum is then an exactly
        representable integer, so any summation order (including
        np.mean's pairwise one) yields the same value.  Columns at or
        above that limit fall back to np.mean over the same value list
        the per-value loop builds.
        """
        matrix = np.stack([d.deltas(set_id) for d in group])
        n = matrix.shape[0]
        mins = matrix.min(axis=0)
        maxs = matrix.max(axis=0)
        lo = (matrix & np.uint64(0xFFFFFFFF)).astype(np.int64)
        hi = (matrix >> np.uint64(32)).astype(np.int64)
        lo_sum = lo.sum(axis=0, dtype=np.int64)
        hi_sum = hi.sum(axis=0, dtype=np.int64)
        base = mode * COUNTERS_PER_MODE
        for counter in range(COUNTERS_PER_MODE):
            total = (int(hi_sum[counter]) << 32) + int(lo_sum[counter])
            if total < self._MEAN_EXACT_LIMIT:
                mean = float(total) / n
            else:
                mean = float(np.mean(matrix[:, counter].tolist()))
            ev = EVENTS_BY_ID[base + counter]
            self.stats[ev.name] = CounterStats(
                event=ev,
                minimum=int(mins[counter]),
                maximum=int(maxs[counter]),
                mean=mean,
                total=total,
                node_count=n,
            )

    @classmethod
    def from_stats(cls, set_id: int,
                   nodes_by_mode: Mapping[int | str, Sequence[int]],
                   stats: Mapping[str, Sequence]) -> "Aggregation":
        """Rebuild an aggregation from serialised statistics.

        Inverse of the checkpoint layer's encoding: ``stats`` maps each
        event name to its ``[min, max, mean, total, node_count]`` row
        (JSON turns ``nodes_by_mode`` keys into strings; both forms are
        accepted).  Validation already ran when the original dumps were
        aggregated, so none is repeated here.
        """
        agg = cls.__new__(cls)
        agg.set_id = set_id
        agg.nodes_by_mode = {int(mode): [int(n) for n in nodes]
                             for mode, nodes in nodes_by_mode.items()}
        agg.stats = {}
        for name, row in stats.items():
            minimum, maximum, mean, total, node_count = row
            agg.stats[name] = CounterStats(
                event=EVENTS_BY_NAME[name],
                minimum=int(minimum),
                maximum=int(maximum),
                mean=float(mean),
                total=int(total),
                node_count=int(node_count),
            )
        return agg

    # ------------------------------------------------------------------
    def __contains__(self, event_name: str) -> bool:
        return event_name in self.stats

    def __getitem__(self, event_name: str) -> CounterStats:
        try:
            return self.stats[event_name]
        except KeyError:
            raise KeyError(
                f"event {event_name!r} was not monitored in this run "
                f"(modes present: {sorted(self.nodes_by_mode)})") from None

    def totals(self, group: Optional[str] = None) -> Dict[str, int]:
        """Whole-machine totals keyed by event name.

        ``group`` filters to one event group (e.g. ``"fpu"``).
        """
        return {name: s.total for name, s in self.stats.items()
                if group is None or s.event.group == group}

    def means(self) -> Dict[str, float]:
        """Per-node means keyed by event name."""
        return {name: s.mean for name, s in self.stats.items()}

    def metric(self, fn: Callable[[Mapping[str, int]], float]) -> float:
        """Evaluate a user-defined metric over the whole-machine totals."""
        return fn(self.totals())


def aggregate(dumps: Sequence[NodeDump], set_id: int = 0) -> Aggregation:
    """Convenience constructor for :class:`Aggregation`."""
    return Aggregation(dumps, set_id=set_id)


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------
def write_stats_csv(agg: Aggregation, path: str,
                    include_reserved: bool = False) -> int:
    """Write per-event statistics as CSV; returns the row count.

    One row per monitored event: name, group, mode, counter, min, max,
    mean, total, nodes — the "statistics of all the 512 counters" output
    the paper's tools produce for spreadsheet work.
    """
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["event", "group", "mode", "counter",
                         "min", "max", "mean", "total", "nodes"])
        for name in sorted(agg.stats):
            s = agg.stats[name]
            if not include_reserved and s.event.group == "reserved":
                continue
            writer.writerow([name, s.event.group, s.event.mode,
                             s.event.counter, s.minimum, s.maximum,
                             f"{s.mean:.3f}", s.total, s.node_count])
            rows += 1
    return rows


def write_metrics_csv(records: Sequence[Mapping[str, object]],
                      path: str) -> int:
    """Write one metrics record per application run, as the paper does.

    ``records`` is a list of dicts sharing the same keys ("The relevant
    metrics selected by the user are printed as a record for each
    application into .csv files").
    """
    if not records:
        raise ValueError("no records to write")
    keys = list(records[0].keys())
    for rec in records[1:]:
        if list(rec.keys()) != keys:
            raise ValueError(
                f"inconsistent record keys: {list(rec.keys())} vs {keys}")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(records)
    return len(records)


def write_raw_csv(dumps: Sequence[NodeDump], path: str,
                  set_id: int = 0) -> int:
    """Dump every counter value read in every node into one massive CSV.

    This mirrors the paper's "print every counter value read in every
    node into one massive .csv file" option; returns the row count.
    """
    rows = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "mode", "event", "counter", "value"])
        for d in sorted(dumps, key=lambda d: d.node_id):
            arr = d.deltas(set_id)
            base = d.mode * COUNTERS_PER_MODE
            for counter in range(COUNTERS_PER_MODE):
                ev = EVENTS_BY_ID[base + counter]
                writer.writerow([d.node_id, d.mode, ev.name, counter,
                                 int(arr[counter])])
                rows += 1
    return rows
