"""The Universal Performance Counter (UPC) unit.

One :class:`UPCUnit` exists per node.  It owns 256 64-bit counters, a
4-bit configuration per counter, a unit-wide counter *mode* (0..3)
selecting which 256-event set is observed, and per-counter threshold
registers that can raise interrupts ("thresholding", paper Section I).

Event delivery
--------------
Simulated hardware blocks deliver events by name:

* :meth:`pulse` — a number of discrete occurrences (e.g. "this loop
  completed 1.2M FMA instructions").  Counted by counters configured
  edge-sensitive (``EDGE_RISE``/``EDGE_FALL``); a counter configured
  level-sensitive sees each pulse as a single-cycle-high signal, so
  ``LEVEL_HIGH`` also accumulates the pulse count while ``LEVEL_LOW``
  accumulates nothing.
* :meth:`level` — a signal that was *high* for some cycles out of an
  observation window (e.g. "the DDR port was busy 3400 of 10000
  cycles").  ``LEVEL_HIGH`` accumulates the high time, ``LEVEL_LOW``
  the low time, and the edge modes count the number of excursions
  (``bursts``).

Both honour the unit mode: an event belonging to mode 2 is simply not
countable while the unit runs in mode 0 — exactly the constraint the
interface library's even/odd node-card trick works around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .config import COUNTER_MASK, CounterConfig, SignalMode
from .events import (
    COUNTERS_PER_MODE,
    EVENTS_BY_NAME,
    Event,
    event_by_name,
)
from .registers import GATE_DROP, GATE_PLAIN, GATE_SCALAR, UPCRegisterFile


@dataclass(frozen=True)
class ThresholdInterrupt:
    """Record of one thresholding interrupt."""

    counter: int
    event_name: str
    value: int
    threshold: int


class CompiledEvents:
    """A named pulse dict resolved to counter rows, once per counter mode.

    The job engine replicates one node class's event dict to every
    member node; compiling it once turns each member's delivery into a
    single vectorised add (:meth:`UPCUnit.pulse_compiled`) instead of a
    per-event Python loop.  ``events`` keeps the positive counts of the
    source dict in their order — the exact dict ``ComputeNode.
    pulse_events`` hands to :meth:`UPCUnit.pulse_many` — so any unit
    whose target counters are not all plain adds replays it unchanged.
    """

    __slots__ = ("events", "_by_mode")

    def __init__(self, events: Dict[str, int]):
        self.events = {name: count for name, count in events.items()
                       if count > 0}
        self._by_mode: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def for_mode(self, mode: int) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct counter indices (int64) and their summed counts
        modulo 2**64 (uint64) for the events of counter ``mode``;
        unknown names and other modes' events drop out."""
        resolved = self._by_mode.get(mode)
        if resolved is None:
            acc: Dict[int, int] = {}
            for name, count in self.events.items():
                ev = EVENTS_BY_NAME.get(name)
                if ev is not None and ev.mode == mode:
                    acc[ev.counter] = acc.get(ev.counter, 0) + count
            resolved = (np.fromiter(acc.keys(), dtype=np.int64,
                                    count=len(acc)),
                        np.array([total & COUNTER_MASK
                                  for total in acc.values()],
                                 dtype=np.uint64))
            self._by_mode[mode] = resolved
        return resolved

    def row(self, mode: int) -> np.ndarray:
        """The 256-counter uint64 row these events add in ``mode``."""
        idx, amt = self.for_mode(mode)
        row = np.zeros(COUNTERS_PER_MODE, dtype=np.uint64)
        row[idx] = amt
        return row


@dataclass
class UPCUnit:
    """Software model of the per-node UPC unit.

    Parameters
    ----------
    node_id:
        Id of the owning node (recorded in dumps and interrupts).
    """

    node_id: int = 0
    registers: UPCRegisterFile = field(default_factory=UPCRegisterFile)
    interrupt_log: List[ThresholdInterrupt] = field(default_factory=list)
    _handlers: List[Callable[[ThresholdInterrupt], None]] = field(
        default_factory=list)

    def __post_init__(self) -> None:
        self.reset()

    # ------------------------------------------------------------------
    # unit control
    # ------------------------------------------------------------------
    def reset(self, mode: Optional[int] = None) -> None:
        """Zero counters, restore default configs, optionally set mode."""
        self.registers.reset_counters()
        self.registers.reset_configs(CounterConfig())
        self.registers.reset_thresholds()
        if mode is not None:
            self.registers.mode = mode
        self.registers.global_enable = True
        self.interrupt_log.clear()

    @property
    def mode(self) -> int:
        """The current counter mode (0..3)."""
        return self.registers.mode

    @mode.setter
    def mode(self, mode: int) -> None:
        self.registers.mode = mode

    @property
    def enabled(self) -> bool:
        """Unit-wide count enable."""
        return self.registers.global_enable

    @enabled.setter
    def enabled(self, on: bool) -> None:
        self.registers.global_enable = on

    def configure(self, counter: int,
                  signal_mode: SignalMode = SignalMode.EDGE_RISE,
                  interrupt_enable: bool = False,
                  threshold: int = 0,
                  enabled: bool = True) -> None:
        """Program one counter's config nibble and threshold register."""
        self.registers.set_config(counter, CounterConfig(
            signal_mode=signal_mode,
            interrupt_enable=interrupt_enable,
            enabled=enabled,
        ))
        self.registers.set_threshold(counter, threshold)

    def on_interrupt(self,
                     handler: Callable[[ThresholdInterrupt], None]) -> None:
        """Register a thresholding-interrupt handler.

        This is the hook the paper describes for feeding counter state
        back into system optimization tasks (data placement, thread
        assignment) without polling.
        """
        self._handlers.append(handler)

    # ------------------------------------------------------------------
    # event delivery
    # ------------------------------------------------------------------
    def _resolve(self, event: Union[str, Event]) -> Event:
        return event if isinstance(event, Event) else event_by_name(event)

    def _countable(self, ev: Event) -> Optional[CounterConfig]:
        """Config of the counter observing ``ev``, or None if gated off."""
        if not self.registers.global_enable:
            return None
        if ev.mode != self.registers.mode:
            return None
        cfg = self.registers.config(ev.counter)
        return cfg if cfg.enabled else None

    def pulse(self, event: Union[str, Event], count: int = 1) -> None:
        """Deliver ``count`` discrete occurrences of ``event``."""
        if count < 0:
            raise ValueError(f"negative pulse count: {count}")
        if count == 0:
            return
        ev = self._resolve(event)
        cfg = self._countable(ev)
        if cfg is None:
            return
        # Every signal-mode except LEVEL_LOW observes a pulse train as
        # `count` countable occurrences (a pulse is one rise, one fall,
        # and one high cycle).
        if cfg.signal_mode is SignalMode.LEVEL_LOW:
            return
        self._increment(ev, count, cfg)

    def pulse_many(self, events: Dict[str, int]) -> None:
        """Deliver many named pulse trains in one batched register pass.

        Leaves the unit in exactly the state a :meth:`pulse` per entry
        would (counter increments are integer adds modulo 2**64, so
        they commute).  Unknown event names are ignored — this is the
        bulk port the node model drives with its already-filtered event
        dict.  Counters with interrupts enabled take the scalar path so
        thresholding observes each event's own increment.
        """
        regs = self.registers
        if not regs.global_enable:
            return
        mode = regs.mode
        codes = regs.delivery_gate().codes
        acc: Dict[int, int] = {}
        for name, count in events.items():
            if count < 0:
                raise ValueError(f"negative pulse count: {count}")
            if count == 0:
                continue
            ev = EVENTS_BY_NAME.get(name)
            if ev is None or ev.mode != mode:
                continue
            code = codes[ev.counter]
            if code == GATE_DROP:
                continue
            if code == GATE_SCALAR:
                self._increment(ev, count, regs.config(ev.counter))
            else:
                acc[ev.counter] = acc.get(ev.counter, 0) + count
        if acc:
            regs.add_to_counters(list(acc.keys()), list(acc.values()))

    def pulse_compiled(self, compiled: CompiledEvents) -> None:
        """Deliver precompiled pulses; same end state as
        ``pulse_many(compiled.events)``.

        When every target counter is a plain add the whole delivery is
        one vectorised add of the precomputed row (modular adds
        commute, so the order of the events cannot matter).  Otherwise
        the event dict goes through :meth:`pulse_many`, so thresholding
        and interrupts see exactly the per-event increments they did.
        """
        regs = self.registers
        if not regs.global_enable:
            return
        idx, amt = compiled.for_mode(regs.mode)
        if not idx.size:
            return
        if (regs.delivery_gate().array[idx] == GATE_PLAIN).all():
            regs.add_resolved(idx, amt)
        else:
            self.pulse_many(compiled.events)

    def level(self, event: Union[str, Event], high_cycles: int,
              total_cycles: int, bursts: Optional[int] = None) -> None:
        """Deliver a level signal observed over ``total_cycles``.

        ``bursts`` is the number of distinct high periods; it defaults to
        1 when any high time was seen (a single excursion).
        """
        if high_cycles < 0 or total_cycles < high_cycles:
            raise ValueError(
                f"invalid level signal: high={high_cycles}, "
                f"total={total_cycles}")
        ev = self._resolve(event)
        cfg = self._countable(ev)
        if cfg is None:
            return
        if bursts is None:
            bursts = 1 if high_cycles > 0 else 0
        if cfg.signal_mode is SignalMode.LEVEL_HIGH:
            amount = high_cycles
        elif cfg.signal_mode is SignalMode.LEVEL_LOW:
            amount = total_cycles - high_cycles
        else:  # edge modes count excursions
            amount = bursts
        if amount:
            self._increment(ev, amount, cfg)

    def _increment(self, ev: Event, amount: int,
                   cfg: CounterConfig) -> None:
        old = self.registers.counter(ev.counter)
        new = (old + int(amount)) & COUNTER_MASK
        self.registers.set_counter(ev.counter, new)
        if cfg.interrupt_enable:
            threshold = self.registers.threshold(ev.counter)
            crossed = threshold > 0 and (
                (old < threshold <= new)
                or (new < old and new >= 0 and threshold > old)  # wrapped
            )
            if crossed:
                irq = ThresholdInterrupt(ev.counter, ev.name, new, threshold)
                self.interrupt_log.append(irq)
                for handler in self._handlers:
                    handler(irq)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def read(self, event_or_counter: Union[str, Event, int]) -> int:
        """Read a counter by event name, Event, or raw counter index.

        Reading by event name checks the unit is in the event's mode,
        because in any other mode that counter holds a *different*
        event's count — a classic counter-library bug this guard turns
        into an explicit error.
        """
        if isinstance(event_or_counter, int):
            return self.registers.counter(event_or_counter)
        ev = self._resolve(event_or_counter)
        if ev.mode != self.registers.mode:
            raise ValueError(
                f"event {ev.name} belongs to mode {ev.mode} but the unit "
                f"is in mode {self.registers.mode}")
        return self.registers.counter(ev.counter)

    def snapshot(self) -> np.ndarray:
        """All 256 counters as a uint64 vector (copy)."""
        return self.registers.counters_snapshot()

    def named_snapshot(self) -> Dict[str, int]:
        """Counter values keyed by the current mode's event names."""
        values = self.snapshot()
        out: Dict[str, int] = {}
        for name, ev in EVENTS_BY_NAME.items():
            if ev.mode == self.registers.mode:
                out[name] = int(values[ev.counter])
        return out
