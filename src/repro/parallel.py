"""Parallel + memoized execution engine for the simulator.

The paper's evaluation sweeps class-C NPB kernels across node counts,
L3 sizes and node modes; every sweep point is an independent simulation
and most of them repeat work (SPMD placement gives most nodes
byte-identical compute).  This module supplies the two mechanisms the
rest of the codebase composes to exploit that:

* a **process-pool fan-out** (:func:`parallel_map`) used by the
  harness across independent sweep points, gated by a process-wide
  worker count
  (:func:`set_jobs` / the ``--jobs N`` CLI flag, default 1 so every
  result stays deterministic and byte-identical to the serial path);
* a **memoization layer** (:func:`memoized` + :func:`warm`) that caches
  whole simulation results by argument tuple, can pre-fill its cache
  from the pool, and can be backed by an on-disk
  :class:`~repro.checkpoint.CheckpointStore` so an interrupted sweep
  resumes from the points that already finished.

Both are wired into ``repro.obs``: the pool records per-task wall
times, worker utilization and task counts; memo caches record hits and
misses — the raw material for the speedup numbers in
``BENCH_parallel.json``.  Worker-side observability is not lost to the
process boundary: each pool task ships its metric deltas and finished
spans back with its result, and the parent merges them into its own
registry/tracer **as each task completes** (see the "one registry per
process" note in ``repro.obs``).

Fault tolerance
---------------
Blue Gene/P's RAS design assumes components fail; so does the pool
path.  Its per-task policy (:class:`Resilience` / :func:`set_resilience`)
gives every task a bounded number of retries with exponential backoff
and an optional wall-clock timeout.  A worker that dies mid-task (a
crash, an ``os._exit``, the OOM killer) breaks the whole
``ProcessPoolExecutor``; the engine salvages every task that already
finished, respawns the pool, and re-runs only the lost tasks.  A task
that keeps failing re-raises its error — after the completed siblings'
metrics and spans have been merged and all pending work has been
cancelled, so a single bad sweep point never discards or deadlocks the
rest of the figure.  ``KeyboardInterrupt`` tears the pool down the same
way instead of blocking on unfinished futures.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait as _futures_wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .obs import metrics as _metrics
from .obs import tracer as _tracer
from .obs.logging import get_logger, kv
from .obs.tracer import span as _span

_log = get_logger("parallel")

_POOL_MAPS = _metrics.counter("parallel.maps")
_POOL_TASKS = _metrics.counter("parallel.pool_tasks")
_SERIAL_TASKS = _metrics.counter("parallel.serial_tasks")
_TASK_SECONDS = _metrics.histogram("parallel.task_seconds")
_UTILIZATION = _metrics.gauge("parallel.worker_utilization")
_RETRIES = _metrics.counter("parallel.retries")
_TIMEOUTS = _metrics.counter("parallel.timeouts")
_RESPAWNS = _metrics.counter("parallel.pool_respawns")
_FAILURES = _metrics.counter("parallel.task_failures")


def _jobs_from_env() -> int:
    """The ``REPRO_JOBS`` default, hardened against garbage values.

    A mis-set environment variable (``REPRO_JOBS=abc``) must not make
    ``import repro.parallel`` raise; it falls back to the serial default
    with a logged warning instead.
    """
    raw = os.environ.get("REPRO_JOBS", "")
    if not raw:
        return 1
    try:
        return max(1, int(raw))
    except ValueError:
        _log.warning(kv("parallel.bad_jobs_env", REPRO_JOBS=raw,
                        fallback=1))
        return 1


#: Process-wide worker count; 1 means "never spawn a pool".
_jobs = _jobs_from_env()


def set_jobs(n: int) -> None:
    """Set the process-wide worker count (the ``--jobs N`` knob)."""
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {n}")
    global _jobs
    _jobs = int(n)


def get_jobs() -> int:
    """The current process-wide worker count."""
    return _jobs


def _batch_sweep_from_env() -> bool:
    """The ``REPRO_BATCH_SWEEP`` default (off unless explicitly on)."""
    raw = os.environ.get("REPRO_BATCH_SWEEP", "").strip().lower()
    return raw in ("1", "true", "on", "yes")


#: Process-wide sweep-engine switch: True routes memo warm-ups through
#: the cross-point batched sweep engine (``repro.harness.batch``), which
#: dedupes node classes *across* sweep points and advances every point
#: through each model stage in one stacked matrix pass; False keeps the
#: per-point path (the identity oracle).  Results are byte-identical by
#: construction — ``tests/test_harness_batch.py`` enforces it.
_batch_sweep = _batch_sweep_from_env()


def set_batch_sweep(on: bool) -> None:
    """Select the sweep engine: cross-point batched (True) or per-point."""
    global _batch_sweep
    _batch_sweep = bool(on)


def get_batch_sweep() -> bool:
    """Whether the cross-point batched sweep engine is active."""
    return _batch_sweep


def cache_context() -> Tuple:
    """Fingerprint of the process state that shapes simulation output.

    Folded into every key persisted to a checkpoint store or the
    shared cache tier, so a record written under one configuration can
    never be served under another: the cache-record schema version
    (bumped when payload semantics change), the active performance
    group (``--group`` changes what a sampled run produces).
    In-memory memo dicts stay keyed by plain argument tuples — they
    die with the process, where the context cannot silently change
    between writer and reader.
    """
    from .checkpoint import CACHE_SCHEMA_VERSION
    from .groups import get_active_group_name
    return (("schema", CACHE_SCHEMA_VERSION),
            ("group", get_active_group_name()))


# ---------------------------------------------------------------------------
# resilience policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Resilience:
    """Per-task fault-handling policy of the pool path.

    ``retries`` is the number of *additional* attempts a failed task
    gets (so a task runs at most ``retries + 1`` times); retry ``k``
    sleeps ``backoff_seconds * 2**(k-1)`` first.  ``timeout_seconds``
    bounds one attempt's wall time — a stuck worker cannot be cancelled,
    so expiry kills and respawns the pool, charging only the overdue
    task an attempt (in-flight siblings are re-run for free).
    """

    retries: int = 2
    backoff_seconds: float = 0.05
    timeout_seconds: Optional[float] = None


_resilience = Resilience()


def set_resilience(policy: Resilience) -> None:
    """Set the process-wide pool fault-handling policy."""
    if policy.retries < 0:
        raise ValueError(f"retries must be >= 0, got {policy.retries}")
    if policy.backoff_seconds < 0:
        raise ValueError("backoff_seconds must be >= 0, "
                         f"got {policy.backoff_seconds}")
    if policy.timeout_seconds is not None and policy.timeout_seconds <= 0:
        raise ValueError("timeout_seconds must be positive or None, "
                         f"got {policy.timeout_seconds}")
    global _resilience
    _resilience = policy


def get_resilience() -> Resilience:
    """The current process-wide pool fault-handling policy."""
    return _resilience


class TaskTimeoutError(TimeoutError):
    """A pool task exceeded its per-attempt timeout on every attempt."""


def _pool_worker_init(batch_sweep: bool, group: str) -> None:
    """Pool initializer: install the parent's mutable module state.

    Spawned (or long-lived, possibly stale) workers do not share it, so
    the sweep-engine switch and the active performance group travel in
    the initializer arguments — once per worker, not once per task.
    """
    set_jobs(1)
    set_batch_sweep(batch_sweep)
    try:
        from .groups import set_active_group
        set_active_group(group)
    except Exception:
        # a user group loaded from a file path may not resolve by name
        # here; forked workers already inherited it with the fork
        pass


def _timed_call(fn: Callable, args: Tuple,
                trace: bool = False) -> Tuple[Any, float, Dict, List]:
    """Pool target: run one task; ship its result *and* its obs state.

    Observability is process-global (see ``repro.obs``), so metrics a
    worker increments and spans it opens would die with the worker.
    Instead each task starts from a zeroed worker registry (fork
    inherits the parent's counts — without the reset they would be
    double-counted on merge), optionally records its own tracer, and
    returns ``(result, seconds, metrics_state, span_dicts)`` for the
    parent to merge.
    """
    # forked workers inherit the parent's _jobs > 1; a task that itself
    # calls parallel_map must stay serial or it nests process pools and
    # oversubscribes the machine
    set_jobs(1)
    _metrics.REGISTRY.reset()
    worker_tracer = _tracer.install() if trace else None
    start = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        if worker_tracer is not None:
            worker_tracer.close_open_spans()
            _tracer.uninstall()
    seconds = time.perf_counter() - start
    span_dicts = ([s.to_dict() for s in
                   sorted(worker_tracer.spans, key=lambda s: s.start_us)]
                  if worker_tracer is not None else [])
    return result, seconds, _metrics.dump_state(), span_dicts


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting, killing its workers outright.

    The worker list must be snapshotted *before* ``shutdown()`` —
    CPython drops ``_processes`` there — and the workers terminated
    *after* it: a running task cannot be cancelled, and a worker left
    sleeping would keep the executor's management thread (and thus
    interpreter exit) blocked until the task finished on its own.
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    finally:
        for process in processes:
            try:
                process.terminate()
            except Exception:
                pass


class _PoolRun:
    """One resilient pool execution of a batch of tasks.

    Owns the executor, the in-flight future bookkeeping, the per-task
    attempt counters and the incremental obs merging; :meth:`run`
    returns the ordered results plus the summed busy seconds.
    """

    def __init__(self, fn: Callable, argtuples: Sequence[Tuple],
                 workers: int, trace: bool, label: str,
                 policy: Resilience):
        self.fn = fn
        self.argtuples = argtuples
        self.workers = workers
        self.trace = trace
        self.label = label
        self.policy = policy
        self.results: Dict[int, Any] = {}
        self.attempts = [0] * len(argtuples)
        self.busy = 0.0
        self.pool: Optional[ProcessPoolExecutor] = None
        self.futures: Dict[Future, int] = {}
        self.deadlines: Dict[Future, float] = {}

    def _spawn_pool(self) -> ProcessPoolExecutor:
        # every worker — first spawn and post-crash respawns alike —
        # inherits the invariant batch context exactly once
        from .groups import get_active_group_name
        return ProcessPoolExecutor(
            max_workers=self.workers, initializer=_pool_worker_init,
            initargs=(_batch_sweep, get_active_group_name()))

    # ------------------------------------------------------------------
    def run(self) -> Tuple[List[Any], float]:
        self.pool = self._spawn_pool()
        try:
            for index in range(len(self.argtuples)):
                self._submit(index)
            while self.futures:
                self._step()
            self.pool.shutdown()
            return ([self.results[i] for i in range(len(self.argtuples))],
                    self.busy)
        except BaseException:
            # task failure, timeout, crash beyond retries, or an
            # interrupt: completed siblings' results and obs state were
            # already merged as they finished; drop everything pending
            # and leave — never block on unfinished futures
            self._abort()
            raise

    def _abort(self) -> None:
        # salvage tasks that finished cleanly before the failure: their
        # results were not merged yet if the fatal future was processed
        # first in a done-set iteration, and dropping them would lose
        # shipped metric deltas (the shared-tier hit counters among
        # them) that interrupted-run reports rely on
        for future, index in list(self.futures.items()):
            if (future.done() and not future.cancelled()
                    and future.exception() is None
                    and index not in self.results):
                try:
                    self._absorb(index, future.result())
                except Exception:  # pragma: no cover - salvage is best
                    pass  # effort; never mask the original error
        for future in self.futures:
            future.cancel()
        _kill_pool(self.pool)

    # ------------------------------------------------------------------
    def _submit(self, index: int) -> None:
        self.attempts[index] += 1
        future = self.pool.submit(_timed_call, self.fn,
                                  self.argtuples[index], self.trace)
        self.futures[future] = index
        if self.policy.timeout_seconds is not None:
            self.deadlines[future] = (time.monotonic()
                                      + self.policy.timeout_seconds)

    def _step(self) -> None:
        timeout = None
        if self.deadlines:
            timeout = max(0.0,
                          min(self.deadlines.values()) - time.monotonic())
        done, _ = _futures_wait(set(self.futures), timeout=timeout,
                                return_when=FIRST_COMPLETED)
        if not done:
            self._handle_timeouts()
            return
        for future in done:
            if future not in self.futures:
                continue  # bookkeeping was rebuilt by a pool respawn
            self._finish_one(future)

    def _finish_one(self, future: Future) -> None:
        index = self.futures.pop(future)
        self.deadlines.pop(future, None)
        try:
            payload = future.result()
        except BrokenProcessPool as exc:
            self.futures[future] = index  # it is lost work too
            self._recover_crash(exc)
        except Exception as exc:
            self._retry_or_raise(index, exc)
        else:
            self._absorb(index, payload)

    def _absorb(self, index: int, payload: Tuple) -> None:
        """Merge one completed task's result and obs state immediately."""
        result, seconds, worker_state, span_dicts = payload
        _TASK_SECONDS.observe(seconds)
        self.busy += seconds
        # graft the worker's observability into this process: its
        # metric deltas add into the parent registry, its spans land
        # under this parallel.<label> span
        _metrics.merge_state(worker_state)
        recorder = _tracer.get()
        if recorder is not None and span_dicts:
            recorder.absorb(span_dicts, worker=f"{self.label}[{index}]")
        self.results[index] = result

    def _retry_or_raise(self, index: int, exc: Exception) -> None:
        if self.attempts[index] > self.policy.retries:
            _FAILURES.inc()
            raise exc
        _RETRIES.inc()
        delay = (self.policy.backoff_seconds
                 * (2 ** (self.attempts[index] - 1)))
        _log.warning(kv("parallel.task_retry", label=self.label,
                        task=index, attempt=self.attempts[index],
                        error=type(exc).__name__, backoff=delay))
        if delay > 0:
            time.sleep(delay)
        self._submit(index)

    # ------------------------------------------------------------------
    def _salvage_and_clear(self) -> List[int]:
        """Harvest finished results; return the indices of lost tasks."""
        lost: List[int] = []
        for future, index in self.futures.items():
            if (future.done() and not future.cancelled()
                    and future.exception() is None):
                self._absorb(index, future.result())
            else:
                lost.append(index)
        self.futures.clear()
        self.deadlines.clear()
        return lost

    def _respawn(self, lost: Sequence[int]) -> None:
        _RESPAWNS.inc()
        _kill_pool(self.pool)
        self.pool = self._spawn_pool()
        for index in sorted(lost):
            self._submit(index)

    def _recover_crash(self, exc: BrokenProcessPool) -> None:
        """A worker died mid-task: the whole executor is poisoned.

        Every in-flight future fails with ``BrokenProcessPool`` even
        though only one worker crashed; salvage the tasks that did
        finish, then respawn the pool and re-run only the lost ones.
        The culprit is unknowable, so every lost task is charged an
        attempt.
        """
        lost = self._salvage_and_clear()
        over = [i for i in sorted(lost)
                if self.attempts[i] > self.policy.retries]
        if over:
            _FAILURES.inc(len(over))
            raise exc
        _log.warning(kv("parallel.worker_crash", label=self.label,
                        rerun=len(lost)))
        self._respawn(lost)

    def _handle_timeouts(self) -> None:
        now = time.monotonic()
        expired = [future for future, deadline in self.deadlines.items()
                   if deadline <= now and not future.done()]
        if not expired:
            return
        culprits = {self.futures[future] for future in expired}
        _TIMEOUTS.inc(len(culprits))
        # a running task cannot be cancelled: kill the pool and re-run
        # everything still in flight; innocent bystanders get their
        # attempt refunded so collateral damage never exhausts a budget
        lost = self._salvage_and_clear()
        for index in lost:
            if index not in culprits:
                self.attempts[index] -= 1
        over = [i for i in sorted(culprits)
                if self.attempts[i] > self.policy.retries]
        if over:
            _FAILURES.inc(len(over))
            raise TaskTimeoutError(
                f"parallel.{self.label} task(s) {over} exceeded "
                f"{self.policy.timeout_seconds}s on every attempt "
                f"({self.policy.retries} retries)")
        _log.warning(kv("parallel.task_timeout", label=self.label,
                        tasks=len(culprits), rerun=len(lost)))
        self._respawn(lost)


def parallel_map(fn: Callable, argtuples: Sequence[Tuple],
                 jobs: Optional[int] = None,
                 label: str = "map",
                 resilience: Optional[Resilience] = None) -> List[Any]:
    """Ordered map of ``fn`` over argument tuples, pooled when allowed.

    With ``jobs`` (default: the process-wide setting) at 1, or fewer
    than two tasks, this is a plain in-process loop — bit-identical to
    writing the loop by hand, which is what keeps ``--jobs 1`` runs
    reproducible.  Otherwise the tasks fan out over a
    ``ProcessPoolExecutor`` under the fault-handling policy
    (``resilience``, default: the process-wide :func:`set_resilience`
    setting): failed tasks retry with backoff, crashed workers trigger
    a pool respawn that re-runs only the lost tasks, and a task that
    stays failed re-raises after the completed siblings' results and
    obs state were merged and pending work was cancelled.  ``fn`` must
    be a module-level function and every argument and result must
    pickle.
    """
    argtuples = list(argtuples)
    jobs = _jobs if jobs is None else jobs
    if jobs <= 1 or len(argtuples) <= 1:
        _SERIAL_TASKS.inc(len(argtuples))
        return [fn(*args) for args in argtuples]
    policy = _resilience if resilience is None else resilience
    workers = min(jobs, len(argtuples))
    _POOL_MAPS.inc()
    _POOL_TASKS.inc(len(argtuples))
    with _span(f"parallel.{label}", tasks=len(argtuples),
               workers=workers) as map_span:
        start = time.perf_counter()
        runner = _PoolRun(fn, argtuples, workers, _tracer.enabled(),
                          label, policy)
        results, busy = runner.run()
        wall = time.perf_counter() - start
        utilization = busy / (wall * workers) if wall > 0 else 0.0
        _UTILIZATION.set(utilization)
        map_span.set("wall_seconds", wall)
        map_span.set("utilization", utilization)
    return results


class MemoizedFunction:
    """A memoizing wrapper whose cache can be pre-filled from a pool.

    Unlike ``functools.lru_cache`` the cache is a plain dict keyed by
    the *normalised* positional argument tuple (defaults applied), so
    ``f(x)`` and ``f(x, l3_mb=8)`` share an entry and :func:`warm` can
    seed results computed in worker processes.  :meth:`attach_store`
    additionally backs the cache with an on-disk checkpoint store, so
    completed entries survive the process (``--resume DIR``).
    """

    def __init__(self, fn: Callable):
        self.fn = fn
        self.cache: Dict[Tuple, Any] = {}
        self._signature = inspect.signature(fn)
        self._store = None
        self._encode: Optional[Callable[[Any], Any]] = None
        self._decode: Optional[Callable[[Any], Any]] = None
        self.batch_handler: Optional[Callable] = None
        functools.update_wrapper(self, fn)
        name = fn.__name__
        self.hits = _metrics.counter(f"memo.{name}.hits")
        self.misses = _metrics.counter(f"memo.{name}.misses")
        self.disk_hits = _metrics.counter(f"memo.{name}.disk_hits")

    def key(self, *args: Any, **kwargs: Any) -> Tuple:
        """The cache key of one call: all arguments, defaults applied.

        Variadic parameters are normalised into hashable shapes —
        ``*args`` to a tuple, ``**kwargs`` to a name-sorted item tuple —
        and any remaining unhashable argument raises a ``TypeError``
        naming the offenders instead of a bare ``unhashable type``.
        """
        bound = self._signature.bind(*args, **kwargs)
        bound.apply_defaults()
        parts: List[Any] = []
        for name, value in bound.arguments.items():
            kind = self._signature.parameters[name].kind
            if kind is inspect.Parameter.VAR_KEYWORD:
                value = tuple(sorted(value.items()))
            elif kind is inspect.Parameter.VAR_POSITIONAL:
                value = tuple(value)
            parts.append(value)
        key = tuple(parts)
        try:
            hash(key)
        except TypeError:
            bad = []
            for name, part in zip(bound.arguments, parts):
                try:
                    hash(part)
                except TypeError:
                    bad.append(f"{name} ({type(part).__name__})")
            raise TypeError(
                f"memoized function {self.__name__!r} requires hashable "
                f"arguments for its cache key; unhashable: "
                f"{', '.join(bad)} — pass tuples instead of "
                f"lists/dicts/sets") from None
        return key

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        key = self.key(*args, **kwargs)
        if key in self.cache:
            self.hits.inc()
            return self.cache[key]
        if self._store is not None and self.load_cached(key):
            return self.cache[key]
        self.misses.inc()
        result = self.cache[key] = self.fn(*args, **kwargs)
        self._persist(key, result)
        return result

    def seed(self, key: Tuple, value: Any) -> None:
        """Insert one precomputed result (used by :func:`warm`)."""
        self.cache[key] = value
        self._persist(key, value)

    def cache_clear(self) -> None:
        self.cache.clear()

    # ------------------------------------------------------------------
    # disk-seedable cache (the --resume layer)
    # ------------------------------------------------------------------
    def attach_store(self, store, encode: Optional[Callable] = None,
                     decode: Optional[Callable] = None) -> None:
        """Back the cache with an on-disk checkpoint store.

        Every computed (or :meth:`seed`-ed) result is persisted
        atomically as it lands, and misses consult the store before
        simulating — so a sweep interrupted by SIGINT or a dead worker
        resumes from the points that already finished.  ``encode`` maps
        a result to a JSON-serialisable payload and ``decode`` inverts
        it; both default to identity.
        """
        self._store = store
        self._encode = encode or (lambda value: value)
        self._decode = decode or (lambda payload: payload)

    def detach_store(self) -> None:
        self._store = None
        self._encode = None
        self._decode = None

    def attach_batch(self, handler: Callable) -> None:
        """Register a cross-point batch evaluator for :func:`warm`.

        ``handler(keys)`` receives the list of missing cache keys and
        either returns one result per key (computed by the batched
        sweep engine in a single stacked pass) or ``None`` to decline —
        e.g. when fault injection or timeline sampling is active — in
        which case :func:`warm` falls back to the per-point pool path.
        """
        self.batch_handler = handler

    @property
    def store(self):
        return self._store

    def _category(self) -> str:
        return f"memo.{self.__name__}"

    def _store_key(self, key: Tuple) -> Tuple:
        """The on-disk record key: context-qualified.

        The persisted key folds in :func:`cache_context` — the active
        performance group and the cache schema version — so a
        disk-seeded cache can never serve a record written under
        ``--group BGP_MEM`` or an older payload schema to a run that
        would produce something else.
        """
        return (cache_context(), key)

    def load_cached(self, key: Tuple) -> bool:
        """True when ``key`` is resident (pulled from disk if needed)."""
        if key in self.cache:
            return True
        if self._store is None:
            return False
        # an LRU tier exposes get/put (hit counters + recency touch);
        # a plain checkpoint store only load/save
        loader = getattr(self._store, "get", self._store.load)
        payload = loader(self._category(), self._store_key(key))
        if payload is None:
            return False
        self.disk_hits.inc()
        self.cache[key] = self._decode(payload)
        return True

    def _persist(self, key: Tuple, value: Any) -> None:
        if self._store is not None:
            writer = getattr(self._store, "put", self._store.save)
            writer(self._category(), self._store_key(key),
                   self._encode(value))


def memoized(fn: Callable) -> MemoizedFunction:
    """Decorator form of :class:`MemoizedFunction`."""
    return MemoizedFunction(fn)


def _call_undecorated(module: str, qualname: str, args: Tuple) -> Any:
    """Pool target for :func:`warm`: run a memoized function's inner fn.

    The decorated name in its module resolves to the
    :class:`MemoizedFunction` wrapper, so the inner function cannot be
    pickled by reference; workers re-resolve it from the wrapper
    instead.
    """
    import importlib

    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj.fn(*args)


def warm(memo: MemoizedFunction, calls: Iterable[Tuple],
         jobs: Optional[int] = None) -> int:
    """Pre-fill a memoized function's cache, fanning out over the pool.

    ``calls`` is an iterable of positional-argument tuples.  With one
    worker this is a no-op — the serial consumer computes lazily through
    the exact same code path as before, keeping ``--jobs 1`` results
    untouched.  With more, the missing keys are computed concurrently
    (each worker runs the *undecorated* function) and seeded into the
    cache; returns the number of entries warmed.  Keys already resident
    on an attached checkpoint store are pulled from disk, not re-run.

    When the cross-point batched sweep engine is active
    (:func:`set_batch_sweep`) and the memo has a registered batch
    handler (:meth:`MemoizedFunction.attach_batch`), the missing keys
    are instead evaluated in one stacked pass — even at ``--jobs 1``,
    since the batched engine is itself byte-identical to the per-point
    path.  A handler that declines (returns ``None``) falls back to the
    pool fan-out.
    """
    jobs = _jobs if jobs is None else jobs
    use_batch = memo.batch_handler is not None and _batch_sweep
    if jobs <= 1 and not use_batch:
        return 0
    missing: List[Tuple] = []
    seen = set(memo.cache)
    for args in calls:
        key = memo.key(*args)
        if key in seen:
            continue
        seen.add(key)
        if memo.load_cached(key):
            continue
        missing.append(key)
    if not missing:
        return 0
    if use_batch:
        results = memo.batch_handler(missing)
        if results is not None:
            for key, result in zip(missing, results):
                memo.seed(key, result)
                memo.misses.inc()
            return len(missing)
        if jobs <= 1:
            return 0
    results = parallel_map(
        _call_undecorated,
        [(memo.__module__, memo.__qualname__, key) for key in missing],
        jobs=jobs, label=f"warm.{memo.__name__}")
    for key, result in zip(missing, results):
        memo.seed(key, result)
        memo.misses.inc()
    return len(missing)
