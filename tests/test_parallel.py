"""Unit tests for the parallel + memoized execution engine."""

import os
import time

import pytest

from repro import parallel
from repro.parallel import (
    MemoizedFunction,
    Resilience,
    TaskTimeoutError,
    get_jobs,
    memoized,
    parallel_map,
    set_jobs,
    warm,
)


@pytest.fixture(autouse=True)
def serial_jobs():
    """Every test starts (and ends) with the deterministic default."""
    before = get_jobs()
    set_jobs(1)
    yield
    set_jobs(before)


def _double(x):
    return 2 * x


def _add(a, b=10):
    return a + b


# ---------------------------------------------------------------------------
# worker-count knob
# ---------------------------------------------------------------------------
def test_set_jobs_roundtrip():
    set_jobs(4)
    assert get_jobs() == 4
    set_jobs(1)
    assert get_jobs() == 1


def test_set_jobs_rejects_nonpositive():
    with pytest.raises(ValueError, match="jobs"):
        set_jobs(0)


# ---------------------------------------------------------------------------
# parallel_map
# ---------------------------------------------------------------------------
def test_parallel_map_serial_path():
    out = parallel_map(_double, [(i,) for i in range(5)])
    assert out == [0, 2, 4, 6, 8]


def test_parallel_map_pool_matches_serial_and_order():
    args = [(i,) for i in range(8)]
    serial = parallel_map(_double, args, jobs=1)
    pooled = parallel_map(_double, args, jobs=2)
    assert pooled == serial == [2 * i for i in range(8)]


def test_parallel_map_single_task_stays_serial():
    # one task never pays pool startup, whatever the worker count
    assert parallel_map(_double, [(21,)], jobs=8) == [42]


def test_parallel_map_empty():
    assert parallel_map(_double, [], jobs=4) == []


# ---------------------------------------------------------------------------
# memoization
# ---------------------------------------------------------------------------
def test_memoized_caches_by_normalized_key():
    calls = []

    @memoized
    def probe(a, b=10):
        calls.append((a, b))
        return a + b

    assert probe(1) == 11
    assert probe(1, b=10) == 11  # default applied: same cache entry
    assert probe(1, 10) == 11
    assert calls == [(1, 10)]
    assert probe(1, b=11) == 12
    assert len(calls) == 2


def test_memoized_exposes_wrapper_metadata():
    @memoized
    def probe(a):
        """Docstring survives."""
        return a

    assert isinstance(probe, MemoizedFunction)
    assert probe.__name__ == "probe"
    assert probe.__doc__ == "Docstring survives."


def test_memoized_seed_and_clear():
    @memoized
    def probe(a):
        raise AssertionError("must not be called")

    probe.seed(probe.key(5), 50)
    assert probe(5) == 50
    probe.cache_clear()
    with pytest.raises(AssertionError):
        probe(5)


# ---------------------------------------------------------------------------
# cache warming
# ---------------------------------------------------------------------------
_warm_probe_calls = []


@memoized
def _warm_probe(x):
    _warm_probe_calls.append(x)
    return x * x


def test_warm_is_noop_at_one_worker():
    _warm_probe.cache_clear()
    assert warm(_warm_probe, [(2,), (3,)], jobs=1) == 0
    assert _warm_probe.cache == {}


def test_warm_fills_cache_from_pool():
    _warm_probe.cache_clear()
    warmed = warm(_warm_probe, [(2,), (3,), (2,)], jobs=2)
    assert warmed == 2  # duplicate call collapsed
    # consumers now hit the cache without running the function here
    del _warm_probe_calls[:]
    assert _warm_probe(2) == 4
    assert _warm_probe(3) == 9
    assert _warm_probe_calls == []


def test_warm_skips_already_cached_keys():
    _warm_probe.cache_clear()
    _warm_probe(4)
    assert warm(_warm_probe, [(4,)], jobs=2) == 0


def test_module_default_from_env():
    # the module initialises from REPRO_JOBS; whatever it was, the
    # runtime knob must stay a positive int
    assert parallel.get_jobs() >= 1


# ---------------------------------------------------------------------------
# worker-side observability ships back with the results
# ---------------------------------------------------------------------------
def _observed_square(x):
    from repro.obs import metrics
    from repro.obs.tracer import span

    metrics.counter("test.pool_work").inc()
    metrics.histogram("test.pool_values").observe(float(x))
    with span("test.work", x=x):
        return x * x


def test_pool_workers_metrics_merge_into_parent():
    from repro.obs import metrics

    metrics.reset()
    out = parallel_map(_observed_square, [(i,) for i in range(6)],
                       jobs=2)
    assert out == [i * i for i in range(6)]
    snap = metrics.snapshot()
    # all six increments happened in workers, yet the parent sees them
    assert snap["counters"]["test.pool_work"] == 6
    hist = snap["histograms"]["test.pool_values"]
    assert hist["count"] == 6
    assert hist["min"] == 0.0 and hist["max"] == 5.0
    metrics.reset()


def test_pool_worker_state_is_a_delta_not_a_double_count():
    """Fork inherits the parent registry; workers must reset it so the
    shipped state holds only this task's increments."""
    from repro.obs import metrics

    metrics.reset()
    metrics.counter("test.pool_work").inc(1000)  # parent-side history
    parallel_map(_observed_square, [(1,), (2,)], jobs=2)
    assert metrics.snapshot()["counters"]["test.pool_work"] == 1002
    metrics.reset()


def test_pool_worker_spans_absorbed_under_map_span():
    from repro.obs import tracer

    with tracer.recording() as recording:
        parallel_map(_observed_square, [(i,) for i in range(4)],
                     jobs=2)
    names = [s.name for s in recording.spans]
    assert names.count("test.work") == 4
    map_span = next(s for s in recording.spans
                    if s.name == "parallel.map")
    workers = [s for s in recording.spans if s.name == "test.work"]
    assert all(s.parent_id == map_span.span_id for s in workers)
    assert all(s.attrs.get("worker") for s in workers)
    # shipped spans are closed and land inside the recorded window
    assert all(s.dur_us is not None for s in workers)


def test_serial_path_needs_no_shipping():
    """At jobs=1 the obs state is written in-process directly."""
    from repro.obs import metrics

    metrics.reset()
    parallel_map(_observed_square, [(3,)], jobs=1)
    assert metrics.snapshot()["counters"]["test.pool_work"] == 1
    metrics.reset()


# ---------------------------------------------------------------------------
# satellite: hardened REPRO_JOBS parsing
# ---------------------------------------------------------------------------
def test_bad_jobs_env_falls_back_to_serial(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "abc")
    assert parallel._jobs_from_env() == 1
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert parallel._jobs_from_env() == 3
    monkeypatch.setenv("REPRO_JOBS", "-2")
    assert parallel._jobs_from_env() == 1
    monkeypatch.delenv("REPRO_JOBS")
    assert parallel._jobs_from_env() == 1


def test_bad_jobs_env_does_not_break_import():
    """REPRO_JOBS=abc must not make `import repro.parallel` raise."""
    import subprocess
    import sys

    env = dict(os.environ, REPRO_JOBS="abc")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import repro.parallel as p; print(p.get_jobs())"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1"


# ---------------------------------------------------------------------------
# satellite: workers must not nest process pools
# ---------------------------------------------------------------------------
def _report_worker_jobs(x):
    return get_jobs()


def test_pool_workers_are_pinned_serial():
    """Forked workers inherit _jobs > 1; _timed_call must pin them to 1
    or a task that itself calls parallel_map nests process pools."""
    set_jobs(4)
    try:
        out = parallel_map(_report_worker_jobs, [(i,) for i in range(4)],
                           jobs=2)
    finally:
        set_jobs(1)
    assert out == [1, 1, 1, 1]
    assert get_jobs() == 1  # the parent's knob is untouched by workers


# ---------------------------------------------------------------------------
# resilience policy plumbing
# ---------------------------------------------------------------------------
def test_resilience_roundtrip_and_validation():
    before = parallel.get_resilience()
    try:
        policy = Resilience(retries=5, backoff_seconds=0.0,
                            timeout_seconds=2.0)
        parallel.set_resilience(policy)
        assert parallel.get_resilience() == policy
    finally:
        parallel.set_resilience(before)
    with pytest.raises(ValueError, match="retries"):
        parallel.set_resilience(Resilience(retries=-1))
    with pytest.raises(ValueError, match="timeout"):
        parallel.set_resilience(Resilience(timeout_seconds=0))


def _counter_delta(before, after, name):
    return (after["counters"].get(name, 0)
            - before["counters"].get(name, 0))


# ---------------------------------------------------------------------------
# retry with backoff
# ---------------------------------------------------------------------------
def _fail_twice_then_succeed(dirpath, x):
    path = os.path.join(dirpath, f"{x}.attempts")
    attempts = int(open(path).read()) if os.path.exists(path) else 0
    attempts += 1
    with open(path, "w") as fh:
        fh.write(str(attempts))
    if attempts <= 2:
        raise RuntimeError(f"transient failure {x} (attempt {attempts})")
    return 10 * x


def test_retry_with_backoff_recovers_transient_failures(tmp_path):
    from repro.obs import metrics

    before = metrics.snapshot()
    out = parallel_map(_fail_twice_then_succeed,
                       [(str(tmp_path), i) for i in range(3)],
                       jobs=2,
                       resilience=Resilience(retries=2,
                                             backoff_seconds=0.01))
    after = metrics.snapshot()
    assert out == [0, 10, 20]
    # every task failed exactly twice before succeeding
    assert _counter_delta(before, after, "parallel.retries") == 6
    for i in range(3):
        assert (tmp_path / f"{i}.attempts").read_text() == "3"


def test_retry_budget_exhaustion_reraises(tmp_path):
    from repro.obs import metrics

    before = metrics.snapshot()
    with pytest.raises(RuntimeError, match="transient failure"):
        parallel_map(_fail_twice_then_succeed,
                     [(str(tmp_path), i) for i in range(3)],
                     jobs=2,
                     resilience=Resilience(retries=1,
                                           backoff_seconds=0.0))
    after = metrics.snapshot()
    assert _counter_delta(before, after, "parallel.task_failures") >= 1


# ---------------------------------------------------------------------------
# worker crash (BrokenProcessPool) recovery
# ---------------------------------------------------------------------------
def _crash_once(sentinel, x):
    if x == 2 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)  # hard kill: poisons the whole executor
    return 10 * x


def test_worker_crash_respawns_pool_and_reruns_lost_tasks(tmp_path):
    from repro.obs import metrics

    sentinel = str(tmp_path / "crashed")
    before = metrics.snapshot()
    out = parallel_map(_crash_once, [(sentinel, i) for i in range(6)],
                       jobs=2,
                       resilience=Resilience(retries=2,
                                             backoff_seconds=0.0))
    after = metrics.snapshot()
    assert out == [10 * i for i in range(6)]
    assert os.path.exists(sentinel)
    assert _counter_delta(before, after, "parallel.pool_respawns") >= 1


def _always_crash(x):
    os._exit(1)


def test_worker_crash_beyond_retry_budget_raises():
    from concurrent.futures.process import BrokenProcessPool

    with pytest.raises(BrokenProcessPool):
        parallel_map(_always_crash, [(i,) for i in range(2)], jobs=2,
                     resilience=Resilience(retries=1,
                                           backoff_seconds=0.0))


# ---------------------------------------------------------------------------
# per-task timeouts
# ---------------------------------------------------------------------------
def _sleep_forever(x):
    time.sleep(600)
    return x


def _slow_once(sentinel, x):
    if not os.path.exists(f"{sentinel}.{x}"):
        open(f"{sentinel}.{x}", "w").close()
        time.sleep(600)
    return 10 * x


def test_timeout_expiry_raises_after_budget():
    from repro.obs import metrics

    before = metrics.snapshot()
    start = time.monotonic()
    with pytest.raises(TaskTimeoutError, match="exceeded"):
        parallel_map(_sleep_forever, [(i,) for i in range(2)], jobs=2,
                     resilience=Resilience(retries=0,
                                           timeout_seconds=0.3))
    assert time.monotonic() - start < 30  # never waits out the sleep
    after = metrics.snapshot()
    assert _counter_delta(before, after, "parallel.timeouts") >= 1


def test_timeout_then_retry_succeeds(tmp_path):
    sentinel = str(tmp_path / "slow")
    out = parallel_map(_slow_once, [(sentinel, i) for i in range(2)],
                       jobs=2,
                       resilience=Resilience(retries=1,
                                             backoff_seconds=0.0,
                                             timeout_seconds=0.5))
    assert out == [0, 10]


# ---------------------------------------------------------------------------
# satellite: a failing task must not drop siblings' obs state or hang
# ---------------------------------------------------------------------------
def _observed_or_slow_fail(x):
    from repro.obs import metrics

    if x < 0:
        time.sleep(0.3)  # let the successful siblings land first
        raise RuntimeError("poisoned task")
    metrics.counter("test.survivors").inc()
    return x


def test_task_failure_keeps_completed_siblings_obs():
    from repro.obs import metrics

    metrics.reset()
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="poisoned"):
        parallel_map(_observed_or_slow_fail,
                     [(0,), (1,), (2,), (3,), (-1,)], jobs=2,
                     resilience=Resilience(retries=0,
                                           backoff_seconds=0.0))
    elapsed = time.monotonic() - start
    # the completed siblings' metrics were merged before the re-raise
    assert metrics.snapshot()["counters"].get("test.survivors", 0) >= 1
    assert elapsed < 30  # pending futures were cancelled, not awaited
    metrics.reset()


def _raise_keyboard_interrupt(x):
    raise KeyboardInterrupt


def test_worker_interrupt_propagates_without_hanging():
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel_map(_raise_keyboard_interrupt,
                     [(i,) for i in range(4)], jobs=2)
    assert time.monotonic() - start < 30


# ---------------------------------------------------------------------------
# satellite: memo keys for variadic / unhashable arguments
# ---------------------------------------------------------------------------
def test_memoized_normalises_variadic_arguments():
    calls = []

    @memoized
    def probe(a, *extra, **options):
        calls.append(a)
        return (a, extra, tuple(sorted(options.items())))

    first = probe(1, 2, 3, beta=4, alpha=5)
    again = probe(1, 2, 3, alpha=5, beta=4)  # kwarg order is irrelevant
    assert first == again
    assert calls == [1]
    hash(probe.key(1, 2, 3, beta=4, alpha=5))  # plain-hashable key


def test_memoized_rejects_unhashable_with_clear_error():
    @memoized
    def probe(a, b=0):
        return a

    with pytest.raises(TypeError, match=r"unhashable: a \(list\)"):
        probe([1, 2])
    with pytest.raises(TypeError, match=r"b \(dict\)"):
        probe(1, b={"x": 1})


# ---------------------------------------------------------------------------
# context-qualified persisted keys (the stale-hit regression)
# ---------------------------------------------------------------------------
def test_cache_context_reflects_group_and_schema():
    from repro import groups
    from repro.checkpoint import CACHE_SCHEMA_VERSION
    from repro.parallel import cache_context

    base = cache_context()
    assert dict(base) == {"schema": CACHE_SCHEMA_VERSION,
                          "group": "BGP_BASE"}

    groups.set_active_group("BGP_MEM")
    try:
        assert dict(cache_context())["group"] == "BGP_MEM"
        assert cache_context() != base
    finally:
        groups.set_active_group("BGP_BASE")
    assert cache_context() == base


def _attach_probe(store):
    calls = []

    @memoized
    def probe(a):
        calls.append(a)
        return {"value": a * 2}

    probe.attach_store(store, encode=dict, decode=dict)
    return probe, calls


def test_disk_record_invisible_after_vectorize_toggle(tmp_path):
    """Records persisted while the engine toggle was part of the key
    context — under either setting, at the old or the current schema —
    must be *misses* now that the toggle is retired."""
    from repro.checkpoint import CACHE_SCHEMA_VERSION, CheckpointStore
    from repro.parallel import cache_context

    store = CheckpointStore(tmp_path)
    probe, calls = _attach_probe(store)
    category = probe._category()
    try:
        for schema in (2, CACHE_SCHEMA_VERSION):
            for engine in (False, True):
                stale = (("schema", schema), ("group", "BGP_BASE"),
                         ("vectorize", engine))
                store.save(category, (stale, (3,)), {"value": -1})
        assert store.count(category) == 4
        assert probe(3) == {"value": 6}
        assert calls == [3]  # no toggle-keyed record is served

        probe.cache.clear()  # "new process", same disk
        assert probe(3) == {"value": 6}
        assert calls == [3]  # the current-context record is a disk hit
        assert store.load(category, (cache_context(), (3,))) == {"value": 6}
    finally:
        probe.detach_store()


def test_disk_record_invisible_under_other_group(tmp_path):
    """A payload persisted under one performance group must be a *miss*
    under another, and a hit again once the group is switched back."""
    from repro import groups
    from repro.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path)
    probe, calls = _attach_probe(store)
    try:
        assert probe(5) == {"value": 10}
        probe.cache.clear()  # "new process", same disk
        assert probe(5) == {"value": 10}
        assert calls == [5]  # disk hit, not recomputed

        groups.set_active_group("BGP_MEM")
        probe.cache.clear()
        assert probe(5) == {"value": 10}
        assert calls == [5, 5]  # BGP_MEM never sees the BGP_BASE record

        groups.set_active_group("BGP_BASE")
        probe.cache.clear()
        assert probe(5) == {"value": 10}
        assert calls == [5, 5]  # the original record is found again
    finally:
        groups.set_active_group("BGP_BASE")
        probe.detach_store()
