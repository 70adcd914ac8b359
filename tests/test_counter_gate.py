"""Delivery gate and compiled delivery against the scalar ``pulse`` oracle.

``UPCRegisterFile.delivery_gate`` caches the per-counter delivery codes
decoded from the config words, and ``UPCUnit.pulse_compiled`` adds a
whole precompiled event row at once.  Both are only correct if every
config write invalidates the cache and if any counter that is not a
plain add falls back to per-event delivery.  The suite below
interleaves random config writes of every kind with batched and
compiled pulses and compares three units — scalar, ``pulse_many``,
``pulse_compiled`` — counter for counter, threshold for threshold and
interrupt for interrupt.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CompiledEvents, CounterConfig, SignalMode, UPCUnit
from repro.core.events import EVENTS_BY_NAME
from repro.core.registers import (
    CONFIG_BASE,
    GATE_DROP,
    GATE_PLAIN,
    GATE_SCALAR,
    _decode_gate,
)

U64 = (1 << 64) - 1

#: a small pool of names spanning two modes, so config writes and mode
#: switches hit delivered counters often
POOL = (sorted(n for n, e in EVENTS_BY_NAME.items() if e.mode == 0)[:10]
        + sorted(n for n, e in EVENTS_BY_NAME.items() if e.mode == 2)[:4])
POOL_COUNTERS = sorted({EVENTS_BY_NAME[n].counter for n in POOL})

configs = st.builds(CounterConfig,
                    signal_mode=st.sampled_from(list(SignalMode)),
                    interrupt_enable=st.booleans(),
                    enabled=st.booleans())
counters = st.one_of(st.sampled_from(POOL_COUNTERS), st.integers(0, 255))
counts = st.one_of(st.integers(0, 200), st.integers(0, 1 << 66),
                   st.just(U64))
event_dicts = st.dictionaries(st.sampled_from(POOL), counts, max_size=8)

ops = st.one_of(
    st.tuples(st.just("configure"), counters, configs,
              st.one_of(st.integers(0, 400), st.integers(0, U64))),
    st.tuples(st.just("set_config"), counters, configs),
    st.tuples(st.just("write_word"), st.integers(0, 31),
              st.integers(0, (1 << 32) - 1)),
    st.tuples(st.just("reset_configs"), configs),
    st.tuples(st.just("near_wrap"), counters, st.integers(1, 1000)),
    st.tuples(st.just("mode"), st.sampled_from([0, 2])),
    st.tuples(st.just("enable"), st.booleans()),
    st.tuples(st.just("pulse"), event_dicts),
    st.tuples(st.just("pulse"), event_dicts),
    st.tuples(st.just("pulse"), event_dicts),
)


def _apply(unit, op):
    kind, *args = op
    regs = unit.registers
    if kind == "configure":
        counter, cfg, threshold = args
        unit.configure(counter, signal_mode=cfg.signal_mode,
                       interrupt_enable=cfg.interrupt_enable,
                       threshold=threshold, enabled=cfg.enabled)
    elif kind == "set_config":
        regs.set_config(*args)
    elif kind == "write_word":
        word, value = args
        regs.write_word(CONFIG_BASE + 4 * word, value)
    elif kind == "reset_configs":
        regs.reset_configs(*args)
    elif kind == "near_wrap":
        counter, margin = args
        regs.set_counter(counter, (1 << 64) - margin)
    elif kind == "mode":
        unit.mode = args[0]
    elif kind == "enable":
        unit.enabled = args[0]
    else:
        raise AssertionError(kind)


def _state(unit):
    regs = unit.registers
    return (unit.snapshot().tolist(),
            [regs.threshold(i) for i in range(256)],
            [regs.config(i) for i in range(256)],
            list(unit.interrupt_log))


@settings(max_examples=200, deadline=None)
@given(script=st.lists(ops, max_size=30), start_mode=st.sampled_from([0, 2]))
def test_gate_and_compiled_delivery_match_scalar_pulses(script, start_mode):
    scalar, batch, compiled = (UPCUnit(node_id=3) for _ in range(3))
    seen = {name: [] for name in ("scalar", "batch", "compiled")}
    for name, unit in (("scalar", scalar), ("batch", batch),
                       ("compiled", compiled)):
        unit.reset(mode=start_mode)
        unit.on_interrupt(seen[name].append)
    for op in script:
        if op[0] != "pulse":
            for unit in (scalar, batch, compiled):
                _apply(unit, op)
        else:
            events = op[1]
            for name, count in events.items():
                if count > 0:
                    scalar.pulse(name, count)
            batch.pulse_many(events)
            compiled.pulse_compiled(CompiledEvents(events))
        # the cached gate always equals a fresh decode of the words
        for unit in (batch, compiled):
            regs = unit.registers
            words = regs._words[CONFIG_BASE // 4:CONFIG_BASE // 4 + 32]
            assert regs.delivery_gate().codes == _decode_gate(words).codes
        assert _state(batch) == _state(scalar)
        assert _state(compiled) == _state(scalar)
    assert seen["batch"] == seen["scalar"] == seen["compiled"]


def test_gate_codes_follow_each_config_bit():
    unit = UPCUnit()
    regs = unit.registers
    assert set(regs.delivery_gate().codes) == {GATE_PLAIN}
    unit.configure(5, interrupt_enable=True, threshold=10)
    unit.configure(6, signal_mode=SignalMode.LEVEL_LOW)
    unit.configure(7, enabled=False)
    unit.configure(8, signal_mode=SignalMode.LEVEL_LOW,
                   interrupt_enable=True)
    unit.configure(9, signal_mode=SignalMode.LEVEL_HIGH)
    gate = regs.delivery_gate()
    assert gate.codes[5:10] == (GATE_SCALAR, GATE_DROP, GATE_DROP,
                                GATE_DROP, GATE_PLAIN)
    assert list(gate.array) == list(gate.codes)
    regs.reset_configs(CounterConfig())
    assert set(regs.delivery_gate().codes) == {GATE_PLAIN}


def test_gate_is_shared_across_units_with_equal_configs():
    a, b = UPCUnit(), UPCUnit()
    assert a.registers.delivery_gate() is b.registers.delivery_gate()
    a.configure(3, enabled=False)
    assert a.registers.delivery_gate() is not b.registers.delivery_gate()
    b.registers.write_word(CONFIG_BASE, a.registers.read_word(CONFIG_BASE))
    assert a.registers.delivery_gate() is b.registers.delivery_gate()


def test_compiled_events_resolve_once_per_mode():
    names = [n for n in POOL if EVENTS_BY_NAME[n].mode == 0][:3]
    other = [n for n in POOL if EVENTS_BY_NAME[n].mode == 2][0]
    events = {names[0]: 5, names[1]: 0, names[2]: (1 << 64) + 7,
              other: 9, "NOT_AN_EVENT": 4, names[0] + "_NOPE": -1}
    compiled = CompiledEvents(events)
    assert list(compiled.events) == [names[0], names[2], other,
                                     "NOT_AN_EVENT"]
    idx, amt = compiled.for_mode(0)
    assert compiled.for_mode(0)[0] is idx  # memoised
    assert dict(zip(idx.tolist(), amt.tolist())) == {
        EVENTS_BY_NAME[names[0]].counter: 5,
        EVENTS_BY_NAME[names[2]].counter: 7}
    row = compiled.row(2)
    assert row.dtype == np.uint64 and int(row.sum()) == 9
    assert compiled.for_mode(1)[0].size == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_compiled_delivery_on_disabled_unit_and_empty_mode(enabled):
    unit = UPCUnit()
    unit.enabled = enabled
    name = POOL[0]
    unit.pulse_compiled(CompiledEvents({name: 11}))
    unit.mode = 2
    unit.pulse_compiled(CompiledEvents({name: 13}))
    unit.mode = 0
    assert unit.read(name) == (11 if enabled else 0)
