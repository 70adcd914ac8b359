"""Span recording around the simulator's public calls, from outside it.

A traced child process imports the program, then :func:`install` wraps
every call named in :data:`LAYERS` (and every paper-figure runner).
Class methods are patched on their class.  A module function is
replaced at *every* binding the program holds -- each ``from x import
f`` copy and each dict value such as the experiment catalog -- so no
caller keeps the unwrapped original.

Each call records one span: name, span id, parent span id, trace id,
start, end and an optional amount (bytes, messages).  The parent is the
innermost open span of the caller's context; the trace id is that of
the outermost one, so the spans of one run, or of one service request,
share an identifier.  Spans stay in memory until the child writes them
out when its run ends.  :func:`layer_totals` turns them into per-layer
self times: a span's duration minus the part of it its children cover.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (span id, trace id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

#: One recorded span: (name, id, parent id or 0, trace id, start, end,
#: amount).  Times are ``time.perf_counter`` seconds.
Span = Tuple[str, int, int, int, float, float, int]

#: Spans that only group others (a run, a service request); their self
#: time counts as unattributed, not as a layer's.
GROUPING = ("run", "serve.request")


def _messages(args, result) -> int:
    return len(args[1])


def _written_file(args, result) -> int:
    return os.path.getsize(args[1])


def _saved_file(args, result) -> int:
    return os.path.getsize(result)


#: (span name, "module:qualname", amount function, workloads on which
#: the layer does most of its work and so must fire).  Twins that the
#: engine picks between at run time share a span name.
LAYERS = (
    ("compiler.compile", "repro.compiler.xlc:compile_program", None,
     ("scale-out", "serve-mix")),
    ("npb.build", "repro.npb.suite:build_benchmark", None,
     ("scale-out", "serve-mix")),
    ("runtime.machine", "repro.runtime.machine:Machine.__init__", None,
     ("figures-cold",)),
    ("runtime.job", "repro.runtime.machine:Job.run", None,
     ("figures-cold", "scale-out")),
    ("runtime.comm", "repro.runtime.mpi:SimMPI.run", None, ("scale-out",)),
    ("node.run", "repro.node.soc:ComputeNode.run", None, ("figures-cold",)),
    ("node.pulse", "repro.node.soc:ComputeNode.pulse_events", None,
     ("figures-cold",)),
    ("core.finalize", "repro.core.mpi_hooks:CounterSession.mpi_finalize",
     None, ("figures-cold",)),
    ("core.dump_write", "repro.core.dump:DumpWriter.write", _written_file,
     ("figures-cold",)),
    ("core.dump_read", "repro.core.dump:read_dump", None, ("figures-cold",)),
    ("core.aggregate", "repro.core.postprocess:Aggregation.__init__", None,
     ("figures-cold", "scale-out")),
    ("mem.analyze", "repro.mem.hierarchy:NodeMemoryModel.analyze", None,
     ("figures-cold", "serve-mix")),
    ("mem.analyze", "repro.mem.hierarchy:analyze_nodes_batch", None,
     ("figures-cold", "serve-mix")),
    ("cpu.pipeline", "repro.cpu.pipeline:PipelineModel.compute_cycles", None,
     ("figures-cold",)),
    ("cpu.pipeline", "repro.cpu.pipeline:PipelineModel.compute_cycles_batch",
     None, ("figures-cold",)),
    ("net.phase", "repro.net.torus:TorusNetwork.run_phase", _messages,
     ("scale-out",)),
    ("net.phase", "repro.net.torus:TorusNetwork.run_phase_arrays", _messages,
     ("scale-out",)),
    ("net.route", "repro.net.topology:TorusTopology.route_arrays", None,
     ("scale-out",)),
    ("harness.render", "repro.harness.report:ExperimentResult.render", None,
     ("figures-cold",)),
    ("checkpoint.load", "repro.checkpoint:CheckpointStore.load", None,
     ("serve-mix",)),
    ("checkpoint.save", "repro.checkpoint:CheckpointStore.save", _saved_file,
     ("serve-mix",)),
    ("serve.validate", "repro.serve.protocol:SweepRequest.from_dict", None,
     ("serve-mix",)),
    ("serve.request", "repro.serve.server:SimulationService._run_cached",
     None, ("serve-mix",)),
)

#: The paper figures ``python -m repro`` runs by default; each runner
#: becomes a ``harness.exp.<id>`` span that must fire on figures-cold.
FIGURE_IDS = ("fig03", "fig06", "fig07", "fig08", "fig09", "fig10",
              "fig11", "fig12", "fig13", "fig14", "overhead")


def must_fire(workload: str) -> List[str]:
    """Span names that a traced run of ``workload`` must record."""
    names = [name for name, _, _, where in LAYERS if workload in where]
    if workload == "figures-cold":
        names += [f"harness.exp.{fid}" for fid in FIGURE_IDS]
    return sorted(set(names))


class Recorder:
    """In-memory span store; safe to use from several threads."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def _open(self) -> Tuple[int, int, int, contextvars.Token]:
        parent = _CURRENT.get()
        span_id = next(self._ids)
        trace = parent[1] if parent else span_id
        token = _CURRENT.set((span_id, trace))
        return span_id, (parent[0] if parent else 0), trace, token

    def add(self, name: str, start: float, end: float) -> None:
        """Record a finished root span timed by the caller."""
        span_id = next(self._ids)
        self.spans.append((name, span_id, 0, span_id, start, end, 0))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id, parent, trace, token = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, span_id, parent, trace, start,
                               time.perf_counter(), 0))
            _CURRENT.reset(token)

    def wrap(self, name: str, fn: Callable,
             amount: Optional[Callable] = None) -> Callable:
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id, parent, trace, token = self._open()
                start = time.perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.spans.append((name, span_id, parent, trace, start,
                                       time.perf_counter(), 0))
                    _CURRENT.reset(token)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id, parent, trace, token = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.spans.append((name, span_id, parent, trace, start,
                                   time.perf_counter(), 0))
                raise
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
            size = amount(args, result) if amount is not None else 0
            self.spans.append((name, span_id, parent, trace, start, end,
                               size))
            return result
        return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind ``original`` to ``replacement`` in every program module.

    Covers module attributes and the values of module-level dicts (the
    experiment catalog holds runner functions).
    """
    targets = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                targets.append((vars(module), key))
            elif type(value) is dict:
                targets.extend((value, k) for k, v in value.items()
                               if v is original)
    for namespace, key in targets:
        namespace[key] = replacement


def _patch(recorder: Recorder, name: str, target: str,
           amount: Optional[Callable]) -> None:
    module_name, _, qualname = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        original = getattr(module, attr)
        _replace_everywhere(original, recorder.wrap(name, original, amount))
        return
    owner = getattr(module, owner_name)
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr,
                classmethod(recorder.wrap(name, raw.__func__, amount)))
    else:
        setattr(owner, attr, recorder.wrap(name, raw, amount))


def _propagate_context_to_executors() -> None:
    """Run executor jobs in a copy of the submitting task's context.

    The service hands each request's cache reads, simulation and cache
    writes to a thread pool; copying the context there keeps those
    spans under the request's span and trace id.
    """
    loop_class = asyncio.base_events.BaseEventLoop
    original = loop_class.run_in_executor

    def run_in_executor(self, executor, func, *args):
        return original(self, executor, contextvars.copy_context().run,
                        func, *args)
    loop_class.run_in_executor = run_in_executor


def install(recorder: Recorder) -> None:
    """Wrap every layer call of the already-imported program.

    Targets in modules the run has not imported (the service modules
    on a figure run) are skipped.
    """
    for name, target, amount, _ in LAYERS:
        if target.partition(":")[0] in sys.modules:
            _patch(recorder, name, target, amount)
    experiments = sys.modules.get("repro.harness.experiments")
    if experiments is not None:
        for fid in FIGURE_IDS:
            original = experiments.ALL_EXPERIMENTS[fid]
            _replace_everywhere(
                original, recorder.wrap(f"harness.exp.{fid}", original))
    if "repro.serve.server" in sys.modules:
        _propagate_context_to_executors()


# ---------------------------------------------------------------------------
# analysis (runs in the parent, on spans a child wrote out)
# ---------------------------------------------------------------------------
def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, _, parent, _, start, end, _ in spans:
        if parent:
            children[parent].append((start, end))
    result = {}
    for _, span_id, _, _, start, end, _ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        result[span_id] = (end - start) - covered
    return result


def layer_totals(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds, inclusive seconds, amount."""
    own = self_times(spans)
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "amount": 0})
    for name, span_id, _, _, start, end, amount in spans:
        entry = totals[name]
        entry["calls"] += 1
        entry["self_s"] += own[span_id]
        entry["incl_s"] += end - start
        entry["amount"] += amount
    return dict(totals)


def attributed_seconds(totals: Dict[str, Dict[str, float]]) -> float:
    """Self time of every layer span (grouping spans excluded)."""
    return sum(entry["self_s"] for name, entry in totals.items()
               if name not in GROUPING)

