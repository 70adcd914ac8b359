"""Cross-point batched sweep engine vs the per-point path and the oracle.

Every batched path must match its scalar twin *byte-identically*; here
that is applied one level up.  ``repro.harness.batch`` evaluates a
whole sweep (many points, many L3 geometries, mixed kernels and modes)
as one stacked pass.  The randomized suite compares it and the
per-point ``Job.run`` engine against :func:`repro.reference.run_job`;
the other tests compare it against the per-point path it replaces,
down to the JSON bytes, the CSV bytes, the shared-tier record files and
the telemetry counters.
"""

import dataclasses
import functools
import json
import os
import random
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import faults as faults_mod
from repro import markers as _markers
from repro import reference
from repro.checkpoint import (
    SharedCacheTier,
    install_shared_tier,
    uninstall_shared_tier,
)
from repro.compiler import O3, O5, compile_program, compiler_sweep
from repro.groups import set_active_group
from repro.harness import (
    PointSpec,
    attach_runner_store,
    clear_caches,
    detach_resume,
    pin_figure_working_set,
    run_points,
)
from repro.harness.batch import available, figure_working_set
from repro.harness.experiments import fig11_l3_sweep
from repro.harness.sweep import run_scaled_vnm, run_smp1, run_vnm
from repro.mem import NodeMemoryConfig
from repro.node import OperatingMode
from repro.npb import build_benchmark
from repro.obs import metrics as _metrics
from repro.obs import timeline as obs_timeline
from repro.parallel import set_batch_sweep, set_jobs, warm
from repro.runtime import Job, Machine

KERNELS = ("cg", "mg", "ft", "lu", "sp", "is", "ep", "bt")


@pytest.fixture(autouse=True)
def _isolate():
    """Every test leaves the process-wide switches as it found them."""
    clear_caches()
    yield
    set_batch_sweep(False)
    set_jobs(1)
    detach_resume()
    set_active_group("BGP_BASE")
    _markers.clear()
    clear_caches()


def _fingerprint(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def _run_calls(calls):
    """Warm + collect one mixed batch of memo calls, in request order.

    ``calls`` is a list of ``(runner, args)``; warming first is what
    routes the whole set through the batched engine when it is on.
    """
    by_runner = {}
    for runner, args in calls:
        by_runner.setdefault(runner, []).append(args)
    for runner, argsets in by_runner.items():
        warm(runner, argsets)
    return [_fingerprint(runner(*args)) for runner, args in calls]


def _sample_calls(rng: random.Random):
    """A randomized mixed sweep: kernels x L3 geometries x run kinds."""
    calls = []
    for code in rng.sample(KERNELS, 3):
        for l3_mb in rng.sample((0, 2, 4, 6, 8), 2):
            calls.append((run_vnm, (code, O5(), l3_mb, "A")))
    calls.append((run_smp1, (rng.choice(KERNELS), O5(), 2, "A")))
    # odd rank counts force mixed-residents node classes (e.g. 4+2);
    # sp/bt insist on square process counts, so scale the others
    for _ in range(2):
        calls.append((run_scaled_vnm,
                      (rng.choice(("cg", "mg", "ft", "lu", "is", "ep")),
                       rng.choice((O3(), O5())),
                       rng.randrange(2, 26), rng.choice((0, 4, 8)), "S")))
    calls.append((run_scaled_vnm,
                  ("sp", O5(), rng.choice((9, 25)), 4, "S")))
    return calls


# ---------------------------------------------------------------------------
# identity: Job.run and run_points vs the reference oracle
# ---------------------------------------------------------------------------
FLAG_SETS = compiler_sweep()
MB = 1024 * 1024


@functools.lru_cache(maxsize=None)
def _program(code: str, ranks: int, flags_index: int):
    return compile_program(build_benchmark(code, ranks, "S"),
                           FLAG_SETS[flags_index])


def _point(code, ranks, flags_index, mode, extra_nodes, l3_mb, line_bytes,
           banks, counter_modes) -> PointSpec:
    base = NodeMemoryConfig()
    l3 = dataclasses.replace(base.l3, size_bytes=l3_mb * MB,
                             line_bytes=line_bytes, banks=banks)
    needed = -(-ranks // mode.processes_per_node)
    return PointSpec(program=_program(code, ranks, flags_index), mode=mode,
                     num_ranks=ranks, num_nodes=needed + extra_nodes,
                     mem_config=dataclasses.replace(base, l3=l3),
                     counter_modes=counter_modes)


@st.composite
def point_specs(draw) -> PointSpec:
    """One job: kernel, rank shape, partition, flags, L3 geometry and
    counter modes, all drawn independently."""
    code = draw(st.sampled_from(KERNELS))
    # sp/bt insist on square process counts
    ranks = draw(st.sampled_from((1, 4, 9)) if code in ("sp", "bt")
                 else st.integers(1, 12))
    return _point(code, ranks,
                  draw(st.integers(0, len(FLAG_SETS) - 1)),
                  draw(st.sampled_from(list(OperatingMode))),
                  draw(st.integers(0, 2)),
                  draw(st.sampled_from((0, 1, 2, 4, 8))),
                  draw(st.sampled_from((64, 128, 256))),
                  draw(st.sampled_from((1, 2, 4))),
                  draw(st.tuples(st.integers(0, 3), st.integers(0, 3))))


def _dump_files(directory):
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            files[name] = fh.read()
    return files


def _series(timeline):
    if timeline is None:
        return None
    return json.dumps({node_id: [node.mode, node.samples,
                                 [a.to_dict() for a in node.alerts],
                                 node.phases]
                       for node_id, node in timeline.nodes.items()},
                      sort_keys=True)


def _run_one(run, spec, dump_dir, sample_every):
    machine = Machine(spec.num_nodes, mode=spec.mode,
                      mem_config=spec.mem_config)
    return run(machine, spec.program, spec.num_ranks,
               counter_modes=spec.counter_modes, dump_dir=dump_dir,
               sample_every=sample_every)


def _job_run(machine, program, num_ranks, counter_modes, dump_dir,
             sample_every):
    return Job(machine, program, num_ranks,
               sample_every=sample_every).run(counter_modes, dump_dir)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs=st.lists(point_specs(), min_size=1, max_size=3),
       keep_dumps=st.booleans(),
       sample_every=st.sampled_from((None, 2_000_000)))
@example(specs=[_point("mg", 7, 4, OperatingMode.DUAL, 1, 8, 128, 2,
                       (0, 2)),
                _point("mg", 7, 4, OperatingMode.DUAL, 1, 0, 128, 2,
                       (0, 2))],
         keep_dumps=True, sample_every=2_000_000)
@example(specs=[_point("ft", 1, 0, OperatingMode.SMP4, 0, 2, 64, 1,
                       (3, 3))],
         keep_dumps=False, sample_every=None)
def test_randomized_point_identity_vs_reference(specs, keep_dumps,
                                                sample_every):
    """Job.run per point and run_points over the whole batch both equal
    the reference oracle: result JSON, dump bytes, sampled series."""
    clear_caches()
    oracle = []
    with tempfile.TemporaryDirectory() as tmp:
        for index, spec in enumerate(specs):
            dirs = [None, None]
            if keep_dumps:
                dirs = [os.path.join(tmp, f"{index}{tag}")
                        for tag in ("ref", "job")]
                for directory in dirs:
                    os.mkdir(directory)
            ref = _run_one(reference.run_job, spec, dirs[0], sample_every)
            job = _run_one(_job_run, spec, dirs[1], sample_every)
            assert _fingerprint(job) == _fingerprint(ref)
            assert _series(job.timeline) == _series(ref.timeline)
            if keep_dumps:
                assert _dump_files(dirs[1]) == _dump_files(dirs[0])
                assert len(ref.dump_paths) == len(job.dump_paths) > 0
            oracle.append(_fingerprint(ref))
    clear_caches()
    assert [_fingerprint(r) for r in run_points(specs)] == oracle


_SPEC_OF = {run_vnm: PointSpec.for_vnm, run_smp1: PointSpec.for_smp1,
            run_scaled_vnm: PointSpec.for_scaled}


@pytest.mark.parametrize("seed", [0xB6, 0xB7])
def test_randomized_cross_point_identity(seed):
    """Batched cross-point pass over a mixed paper sweep == the
    reference oracle on the same points, byte-wise."""
    calls = _sample_calls(random.Random(seed))
    set_batch_sweep(True)
    batched = _run_calls(calls)

    clear_caches()
    oracle = [_fingerprint(_run_one(reference.run_job,
                                    _SPEC_OF[runner](*args), None, None))
              for runner, args in calls]
    assert batched == oracle


def test_group_context_identity():
    """Under --group BGP_MEM the engines still agree byte-for-byte."""
    set_active_group("BGP_MEM")
    calls = [(run_vnm, ("cg", O5(), l3, "A")) for l3 in (0, 8)]
    calls.append((run_smp1, ("cg", O5(), 2, "A")))
    set_batch_sweep(True)
    batched = _run_calls(calls)
    clear_caches()
    set_batch_sweep(False)
    oracle = _run_calls(calls)
    assert batched == oracle


def test_run_points_pool_fanout_identity():
    """run_points gives the same results under --jobs 3 as serially."""
    points = []
    for code in ("cg", "ft"):
        for l3_mb in (0, 8):
            points.append(PointSpec.for_vnm(code, O5(), l3_mb, "A"))
    points.append(PointSpec.for_scaled("sp", O5(), 9, 4, "S"))
    serial = [_fingerprint(r) for r in run_points(points)]
    set_jobs(3)
    fanned = [_fingerprint(r) for r in run_points(points)]
    assert serial == fanned


def test_experiment_csv_and_report_byte_identity(tmp_path):
    """A whole paper figure: rendered table, JSON and CSV bytes agree."""
    from repro.__main__ import _write_csv

    def run(batch: bool):
        clear_caches()
        set_batch_sweep(batch)
        result = fig11_l3_sweep()
        directory = tmp_path / ("batch" if batch else "oracle")
        path = _write_csv(result, str(directory))
        with open(path, "rb") as fh:
            csv_bytes = fh.read()
        return result.render(), result.to_json(), csv_bytes

    assert run(True) == run(False)


def test_counter_parity_with_per_point_path():
    """report.md telemetry lines agree: the batched engine mirrors the
    per-point path's runtime counters (jobs, phases, class/comm hits)."""
    parity = ("runtime.jobs", "runtime.bsp_phases",
              "runtime.node_classes", "runtime.node_class_hits",
              "runtime.comm_cache_hits", "runtime.comm_cache_misses",
              "node.runs")
    calls = _sample_calls(random.Random(7))

    def deltas(batch: bool):
        clear_caches()
        set_batch_sweep(batch)
        before = {n: _metrics.counter(n).value for n in parity}
        _run_calls(calls)
        return {n: _metrics.counter(n).value - before[n] for n in parity}

    assert deltas(True) == deltas(False)


# ---------------------------------------------------------------------------
# store/tier integration: identical cache keys either engine
# ---------------------------------------------------------------------------
def _tier_records(directory):
    records = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            if not name.endswith(".json"):
                continue
            path = os.path.join(root, name)
            with open(path) as fh:
                records[os.path.relpath(path, directory)] = fh.read()
    return records


def test_shared_tier_record_set_identical(tmp_path):
    """Both engines persist the same record files with the same bytes —
    a tier warmed by one run resumes the other, fault-free."""
    calls = [(run_vnm, ("cg", O5(), l3, "A")) for l3 in (0, 8)]
    calls.append((run_smp1, ("mg", O5(), 2, "A")))

    def populate(directory, batch: bool):
        clear_caches()
        set_batch_sweep(batch)
        tier = install_shared_tier(str(directory))
        attach_runner_store(tier)
        try:
            results = _run_calls(calls)
        finally:
            detach_resume()
            uninstall_shared_tier()
        return results, _tier_records(directory)

    batched_results, batched = populate(tmp_path / "batched", True)
    oracle_results, oracle = populate(tmp_path / "oracle", False)
    assert batched_results == oracle_results
    assert sorted(batched) == sorted(oracle)
    assert batched == oracle

    # a tier written by the per-point path serves the batched engine:
    # rerunning over the oracle's directory simulates no node classes
    clear_caches()
    set_batch_sweep(True)
    tier = install_shared_tier(str(tmp_path / "oracle"))
    attach_runner_store(tier)
    try:
        runs_before = _metrics.counter("node.runs").value
        rerun = _run_calls(calls)
    finally:
        detach_resume()
        uninstall_shared_tier()
    assert _metrics.counter("node.runs").value == runs_before
    assert rerun == oracle_results
    assert _tier_records(tmp_path / "oracle") == oracle


# ---------------------------------------------------------------------------
# node-class keys: one program name, different per-rank work
# ---------------------------------------------------------------------------
_FRESH_SCRIPT = """
import json, sys
from repro.compiler import O5
from repro.harness.sweep import run_scaled_vnm
code, ranks, l3, cls = sys.argv[1:]
result = run_scaled_vnm(code, O5(), int(ranks), int(l3), cls)
print(json.dumps(result.to_dict(), sort_keys=True))
"""


def _fresh_process_fingerprint(*args) -> str:
    """``run_scaled_vnm(*args)`` in a new interpreter with no tier."""
    import subprocess
    import sys
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT] + [str(a) for a in args],
        env=env, check=True, capture_output=True, text=True)
    return out.stdout.strip()


def test_batched_warm_across_rank_counts_matches_per_point():
    """SP at 16 and 64 ranks share a name and a resident count but not
    their per-rank work; one batch must not hand one the other's node
    class."""
    calls = [("SP", O5(), 16), ("SP", O5(), 64)]
    set_batch_sweep(True)
    warm(run_scaled_vnm, calls)
    batched = [_fingerprint(run_scaled_vnm(*args)) for args in calls]
    clear_caches()
    set_batch_sweep(False)
    per_point = [_fingerprint(run_scaled_vnm(*args)) for args in calls]
    assert batched == per_point


@pytest.mark.parametrize("batch", [False, True])
def test_tier_scaled_point_after_paper_point_matches_fresh_process(
        tmp_path, batch):
    """The shared tier must not serve SP-121's node classes to SP-16."""
    set_batch_sweep(batch)
    tier = install_shared_tier(str(tmp_path))
    attach_runner_store(tier)
    try:
        warm(run_vnm, [("SP", O5())])
        run_vnm("SP", O5())
        warm(run_scaled_vnm, [("SP", O5(), 16)])
        served = _fingerprint(run_scaled_vnm("SP", O5(), 16))
    finally:
        detach_resume()
        uninstall_shared_tier()
    assert served == _fresh_process_fingerprint("SP", 16, 8, "C")


def test_tier_problem_classes_do_not_share_node_classes(tmp_path):
    """Class A and class C of one benchmark at one scale differ only in
    per-rank work; a tier warmed with A must not answer C."""
    tier = install_shared_tier(str(tmp_path))
    try:
        run_scaled_vnm("SP", O5(), 16, 8, "A")
        served = _fingerprint(run_scaled_vnm("SP", O5(), 16, 8, "C"))
    finally:
        uninstall_shared_tier()
    clear_caches()
    assert served == _fingerprint(run_scaled_vnm("SP", O5(), 16, 8, "C"))


# ---------------------------------------------------------------------------
# pin policy: the figure working set survives LRU pressure
# ---------------------------------------------------------------------------
def test_pinned_records_survive_byte_cap_stress(tmp_path):
    tier = SharedCacheTier(str(tmp_path), max_records=4, max_bytes=2048,
                           sweep_every=1)
    tier.put("memo.run_vnm", ("cg", "O5", 8), {"figure": "11"})
    tier.pin("memo.run_vnm", ("cg", "O5", 8))
    # flood far past both bounds; every put triggers an eviction sweep
    for i in range(60):
        tier.put("memo.run_vnm", ("flood", i), {"i": i, "pad": "x" * 64})
    assert tier.get("memo.run_vnm", ("cg", "O5", 8)) == {"figure": "11"}
    usage = tier.usage()
    assert usage["records"] <= tier.max_records
    # the pin is persisted: a fresh tier over the same directory still
    # refuses to evict the record
    fresh = SharedCacheTier(str(tmp_path), max_records=1, max_bytes=256,
                            sweep_every=1)
    for i in range(10):
        fresh.put("memo.run_vnm", ("flood2", i), {"i": i})
    assert fresh.get("memo.run_vnm", ("cg", "O5", 8)) == {"figure": "11"}


def test_pin_figure_working_set_counts_and_binds(tmp_path):
    tier = SharedCacheTier(str(tmp_path))
    pinned = pin_figure_working_set(tier)
    assert pinned == len(figure_working_set())
    # idempotent: a second pin adds nothing
    assert pin_figure_working_set(tier) == 0
    assert len(tier.pinned()) == pinned


# ---------------------------------------------------------------------------
# gating: anything that observes runs point-by-point disables batching
# ---------------------------------------------------------------------------
def test_available_gating():
    assert not available()          # off by default
    set_batch_sweep(True)
    assert available()
    injector = faults_mod.install(
        faults_mod.FaultConfig.parse("seed=3,link_stall_rate=0.5"))
    try:
        assert injector is not None
        assert not available()
    finally:
        faults_mod.uninstall()
    assert available()
    obs_timeline.install_sampling(50_000)
    try:
        assert not available()
    finally:
        obs_timeline.uninstall_sampling()
    assert available()
    with _markers.region("phase"):
        assert not available()
    assert available()


def test_warm_falls_back_when_engine_unavailable():
    """A declined batch at one worker is a no-op warm; the per-point
    path then computes the exact same result."""
    set_batch_sweep(True)
    obs_timeline.install_sampling(50_000)
    try:
        assert warm(run_scaled_vnm, [("cg", O5(), 6, 8, "S")]) == 0
    finally:
        obs_timeline.uninstall_sampling()
    sampled = run_scaled_vnm("cg", O5(), 6, 8, "S")
    assert sampled.elapsed_cycles > 0
