"""Memory-mapped register file of the UPC unit.

On the real chip "all counters and all configuration registers in the
UPC module are mapped into the memory address space providing
memory-mapped access" (paper, Section III-A).  We model that address
space literally: a word-addressable region holding

====================  ===========================  ======================
region                offset (bytes)               contents
====================  ===========================  ======================
counters              ``0x0000 .. 0x07ff``         256 x 64-bit counters
                                                   (two 32-bit words each,
                                                   big-endian word order:
                                                   high word first, as on
                                                   PowerPC)
config registers      ``0x0800 .. 0x087f``         32 x 32-bit words, each
                                                   packing eight 4-bit
                                                   counter config nibbles
threshold registers   ``0x1000 .. 0x17ff``         256 x 64-bit thresholds
unit control          ``0x1800``                   mode (bits 1:0), global
                                                   enable (bit 2)
====================  ===========================  ======================

The higher-level :class:`~repro.core.counters.UPCUnit` drives this file;
tests drive it directly through 32-bit word reads/writes to check the
memory map is self-consistent (e.g. a counter written through the map
reads back through the API).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .config import COUNTER_MASK, CounterConfig, SignalMode
from .events import COUNTERS_PER_MODE

#: Region base offsets (bytes).
COUNTER_BASE = 0x0000
CONFIG_BASE = 0x0800
THRESHOLD_BASE = 0x1000
CONTROL_OFFSET = 0x1800
#: Total mapped size in bytes.
MAP_SIZE = 0x1810

_WORD = 4  # bytes per mapped word
_U32 = (1 << 32) - 1
#: Word-index span of the config region (32 words of eight nibbles).
_CONFIG_START = CONFIG_BASE // _WORD
_CONFIG_END = _CONFIG_START + COUNTERS_PER_MODE // 8

#: Per-counter delivery gate codes: how a pulse reaches the counter.
GATE_DROP = 0    # disabled, or LEVEL_LOW (a pulse train is never low)
GATE_PLAIN = 1   # a plain modular add; commutes with every other add
GATE_SCALAR = 2  # interrupt-enabled: thresholding needs each increment


class DeliveryGate(NamedTuple):
    """Delivery codes of all 256 counters, decoded from the config words.

    ``codes`` is a tuple for per-event lookups, ``array`` the same codes
    as a vector for whole-row checks.
    """

    codes: tuple
    array: np.ndarray


#: Gates memoised on the config words' bytes; a sweep sees a handful of
#: distinct configurations, so the bound only guards pathological use.
_GATE_CACHE: "dict[bytes, DeliveryGate]" = {}
_GATE_CACHE_MAX = 64


def _decode_gate(words: np.ndarray) -> DeliveryGate:
    """Gate of the 32 config words, in ``UPCUnit.pulse_many``'s order
    of checks: disabled or LEVEL_LOW drops before interrupts count."""
    codes = []
    for word in words.tolist():
        for shift in range(0, 32, 4):
            cfg = CounterConfig.decode((word >> shift) & 0xF)
            if not cfg.enabled or cfg.signal_mode is SignalMode.LEVEL_LOW:
                codes.append(GATE_DROP)
            elif cfg.interrupt_enable:
                codes.append(GATE_SCALAR)
            else:
                codes.append(GATE_PLAIN)
    array = np.array(codes, dtype=np.uint8)
    array.setflags(write=False)
    return DeliveryGate(tuple(codes), array)


class UPCRegisterFile:
    """Word-addressable backing store for counters/config/thresholds.

    All state of the UPC unit lives here; the :class:`UPCUnit` API is a
    veneer over these words, which is exactly the property that lets a
    single monitoring thread on the real chip read any counter.
    """

    def __init__(self) -> None:
        # one linear array of 32-bit words covering the whole map
        self._words = np.zeros(MAP_SIZE // _WORD, dtype=np.uint64)
        # decoded delivery gate; None until read after a config write
        self._gate = None

    # ------------------------------------------------------------------
    # raw word access (the "memory bus")
    # ------------------------------------------------------------------
    def read_word(self, offset: int) -> int:
        """Read the 32-bit word at byte ``offset``."""
        self._check(offset)
        return int(self._words[offset // _WORD]) & _U32

    def write_word(self, offset: int, value: int) -> None:
        """Write the 32-bit word at byte ``offset``."""
        self._check(offset)
        index = offset // _WORD
        self._words[index] = np.uint64(value & _U32)
        if _CONFIG_START <= index < _CONFIG_END:
            self._gate = None

    def _check(self, offset: int) -> None:
        if offset % _WORD:
            raise ValueError(f"unaligned UPC register access: {offset:#x}")
        if not 0 <= offset < MAP_SIZE:
            raise ValueError(f"UPC register offset out of range: {offset:#x}")

    # ------------------------------------------------------------------
    # 64-bit helpers (counters / thresholds): high word at lower address
    # ------------------------------------------------------------------
    def _read64(self, base: int, index: int) -> int:
        off = base + index * 8
        hi = self.read_word(off)
        lo = self.read_word(off + 4)
        return ((hi << 32) | lo) & COUNTER_MASK

    def _write64(self, base: int, index: int, value: int) -> None:
        value &= COUNTER_MASK
        off = base + index * 8
        self.write_word(off, value >> 32)
        self.write_word(off + 4, value & _U32)

    # ------------------------------------------------------------------
    # typed views
    # ------------------------------------------------------------------
    def counter(self, index: int) -> int:
        """Current 64-bit value of counter ``index``."""
        self._check_counter(index)
        return self._read64(COUNTER_BASE, index)

    def set_counter(self, index: int, value: int) -> None:
        """Set counter ``index`` (wraps modulo 2**64)."""
        self._check_counter(index)
        self._write64(COUNTER_BASE, index, value)

    def add_to_counter(self, index: int, delta: int) -> int:
        """Increment counter ``index``; returns the wrapped new value."""
        new = (self.counter(index) + int(delta)) & COUNTER_MASK
        self.set_counter(index, new)
        return new

    def add_to_counters(self, indices, deltas) -> None:
        """Batched :meth:`add_to_counter` over *distinct* counter indices.

        One vectorized read-modify-write over the backing words — the
        counters end up exactly where a loop of scalar adds would leave
        them (integer adds modulo 2**64).  Indices must be distinct
        within one call: duplicates would read stale values.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size == 0:
            return
        if int(idx.min()) < 0 or int(idx.max()) >= COUNTERS_PER_MODE:
            raise IndexError(
                f"counter index must be 0..{COUNTERS_PER_MODE - 1}")
        amt = np.array([int(d) & COUNTER_MASK for d in deltas],
                       dtype=np.uint64)
        self.add_resolved(idx, amt)

    def add_resolved(self, idx: np.ndarray, amt: np.ndarray) -> None:
        """:meth:`add_to_counters` over pre-validated vectors: ``idx``
        distinct in-range int64 counter indices, ``amt`` uint64 deltas
        already reduced modulo 2**64 (a precompiled event delivery)."""
        hi_off = COUNTER_BASE // _WORD + idx * 2
        hi = self._words[hi_off]
        lo = self._words[hi_off + 1]
        new = ((hi << np.uint64(32)) | lo) + amt  # wraps modulo 2**64
        self._words[hi_off] = new >> np.uint64(32)
        self._words[hi_off + 1] = new & np.uint64(_U32)

    def threshold(self, index: int) -> int:
        """Threshold register of counter ``index``."""
        self._check_counter(index)
        return self._read64(THRESHOLD_BASE, index)

    def set_threshold(self, index: int, value: int) -> None:
        """Program the threshold register of counter ``index``."""
        self._check_counter(index)
        self._write64(THRESHOLD_BASE, index, value)

    def config(self, index: int) -> CounterConfig:
        """Decoded 4-bit configuration of counter ``index``."""
        self._check_counter(index)
        word = self.read_word(CONFIG_BASE + (index // 8) * 4)
        nibble = (word >> ((index % 8) * 4)) & 0xF
        return CounterConfig.decode(nibble)

    def set_config(self, index: int, cfg: CounterConfig) -> None:
        """Store the 4-bit configuration of counter ``index``."""
        self._check_counter(index)
        off = CONFIG_BASE + (index // 8) * 4
        shift = (index % 8) * 4
        word = self.read_word(off)
        word &= ~(0xF << shift) & _U32
        word |= cfg.encode() << shift
        self.write_word(off, word)

    def delivery_gate(self) -> DeliveryGate:
        """The per-counter delivery codes of the current config words.

        Decoded once per distinct configuration and cached until the
        next config write (``write_word`` into the config region,
        ``set_config`` or ``reset_configs``), so batched delivery reads
        one tuple entry per event instead of decoding a nibble.
        """
        gate = self._gate
        if gate is None:
            words = self._words[_CONFIG_START:_CONFIG_END]
            key = words.tobytes()
            gate = _GATE_CACHE.get(key)
            if gate is None:
                gate = _decode_gate(words)
                if len(_GATE_CACHE) >= _GATE_CACHE_MAX:
                    _GATE_CACHE.clear()
                _GATE_CACHE[key] = gate
            self._gate = gate
        return gate

    @property
    def mode(self) -> int:
        """The unit-wide counter mode (0..3)."""
        return self.read_word(CONTROL_OFFSET) & 0b11

    @mode.setter
    def mode(self, mode: int) -> None:
        if not 0 <= mode <= 3:
            raise ValueError(f"counter mode must be 0..3, got {mode}")
        word = self.read_word(CONTROL_OFFSET)
        self.write_word(CONTROL_OFFSET, (word & ~0b11) | mode)

    @property
    def global_enable(self) -> bool:
        """Unit-wide count enable."""
        return bool(self.read_word(CONTROL_OFFSET) & 0b100)

    @global_enable.setter
    def global_enable(self, on: bool) -> None:
        word = self.read_word(CONTROL_OFFSET)
        word = (word | 0b100) if on else (word & ~0b100)
        self.write_word(CONTROL_OFFSET, word)

    def counters_snapshot(self) -> np.ndarray:
        """All 256 counters as a ``uint64`` vector (copy)."""
        start = COUNTER_BASE // _WORD
        words = self._words[start:start + COUNTERS_PER_MODE * 2]
        hi = words[0::2]
        lo = words[1::2]
        return (hi << np.uint64(32)) | lo

    def reset_counters(self) -> None:
        """Zero all counters (configs and thresholds are preserved)."""
        start = COUNTER_BASE // _WORD
        self._words[start:start + COUNTERS_PER_MODE * 2] = 0

    def reset_configs(self, cfg: CounterConfig) -> None:
        """Set every counter's config nibble to ``cfg`` in one store.

        Equivalent to 256 ``set_config`` calls; vectorized because the
        job engine resets every node's unit at session start.
        """
        nibble = cfg.encode()
        word = 0
        for shift in range(0, 32, 4):
            word |= nibble << shift
        self._words[_CONFIG_START:_CONFIG_END] = np.uint64(word)
        self._gate = None

    def reset_thresholds(self) -> None:
        """Zero every counter's threshold register in one store."""
        start = THRESHOLD_BASE // _WORD
        self._words[start:start + COUNTERS_PER_MODE * 2] = 0

    @staticmethod
    def _check_counter(index: int) -> None:
        if not 0 <= index < COUNTERS_PER_MODE:
            raise IndexError(
                f"counter index must be 0..{COUNTERS_PER_MODE - 1}, "
                f"got {index}"
            )
