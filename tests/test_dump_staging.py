"""Dump staging: jobs without a ``dump_dir`` reuse per-node files in place.

Every node of every job is still dumped to a real file and read back;
these tests pin down where those files live, that they are reused and
never leaked, and that concurrency (threads, forked pool workers) can
neither share a directory nor change a result.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import O5, compile_program
from repro.core import DumpWriter, read_dump
from repro.core.dump import STAGING, StagingPool, dump_file_size
from repro.node import OperatingMode
from repro.npb import build_benchmark
from repro.parallel import get_jobs, parallel_map, set_jobs
from repro.runtime import Job, Machine

SRC = Path(__file__).resolve().parents[1] / "src"

#: (benchmark, ranks, nodes, mode): small jobs with distinct node classes
JOBS = [("MG", 16, 4, OperatingMode.VNM),
        ("CG", 14, 4, OperatingMode.VNM),
        ("MG", 4, 4, OperatingMode.SMP1),
        ("IS", 8, 4, OperatingMode.DUAL)]


@pytest.fixture(autouse=True)
def serial_jobs():
    before = get_jobs()
    set_jobs(1)
    yield
    set_jobs(before)


def _program(code, ranks):
    return compile_program(build_benchmark(code, num_ranks=ranks,
                                           problem_class="A"), O5())


def _run(spec, dump_dir=None):
    code, ranks, nodes, mode = spec
    machine = Machine(nodes, mode=mode)
    return Job(machine, _program(code, ranks), ranks).run(dump_dir=dump_dir)


def _canonical(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _staged_job(index):
    """Pool task: one staged job, plus where this process staged it."""
    result = _run(JOBS[index])
    return _canonical(result), os.getpid(), list(STAGING._made)


# ---------------------------------------------------------------------------
# in-place dump writes
# ---------------------------------------------------------------------------
def test_write_over_longer_file_trims_it_in_place(tmp_path):
    path = tmp_path / "node.bin"
    path.write_bytes(b"\xff" * (3 * dump_file_size(4)))
    inode = os.stat(path).st_ino
    writer = DumpWriter(node_id=7, mode=2)
    deltas = np.arange(256, dtype=np.uint64) * 3
    writer.add_set(0, deltas)
    writer.write(str(path))
    assert os.path.getsize(path) == dump_file_size(1)
    assert os.stat(path).st_ino == inode
    dump = read_dump(str(path))
    assert dump.node_id == 7 and dump.mode == 2
    assert np.array_equal(dump.deltas(0), deltas)


def test_write_over_shorter_file_and_new_file(tmp_path):
    short = tmp_path / "short.bin"
    short.write_bytes(b"BGPC")
    fresh = tmp_path / "fresh.bin"
    writer = DumpWriter(node_id=1, mode=0)
    writer.add_set(0, np.ones(256, dtype=np.uint64))
    writer.add_set(3, np.full(256, 2**64 - 1, dtype=np.uint64))
    for path in (short, fresh):
        writer.write(str(path))
        assert path.read_bytes() == writer.to_bytes()
        assert read_dump(str(path)).set_ids() == [0, 3]


# ---------------------------------------------------------------------------
# the staging pool
# ---------------------------------------------------------------------------
def test_pool_hands_each_holder_its_own_directory(tmp_path, monkeypatch):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    pool = StagingPool()
    first, second = pool.checkout(), pool.checkout()
    assert first != second
    for path in (first, second):
        assert os.path.basename(path).startswith(
            f"bgp_stage_{os.getpid()}_")
        assert os.path.dirname(path) == str(tmp_path)
    pool.checkin(first)
    assert pool.checkout() == first   # reused, not recreated
    pool.checkin("/not/from/this/pool")
    assert pool.checkout() not in ("/not/from/this/pool", first, second)
    pool._remove_all(os.getpid() + 1)  # another pid's hook: no-op
    assert os.path.isdir(first)
    pool._remove_all(os.getpid())
    assert os.listdir(tmp_path) == []


def test_pool_never_hands_one_directory_to_two_holders(tmp_path,
                                                      monkeypatch):
    monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
    pool = StagingPool()
    held = set()
    guard = threading.Lock()
    clashes = []

    def churn():
        for _ in range(300):
            path = pool.checkout()
            with guard:
                if path in held:
                    clashes.append(path)
                held.add(path)
            with open(os.path.join(path, "probe"), "w") as fh:
                fh.write(path)  # hold the directory across real I/O
            with guard:
                held.discard(path)
            pool.checkin(path)

    threads = [threading.Thread(target=churn) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not clashes
    assert 1 <= len(pool._made) <= 8
    assert sorted(pool._free) == sorted(pool._made)
    pool._remove_all(os.getpid())


def test_staged_job_reuses_files_and_returns_no_paths():
    result = _run(JOBS[0])
    assert result.dump_paths == []
    assert result.aggregation.nodes_by_mode  # the dumps were read back
    staged = set(STAGING._free)
    inodes = {d: {f: os.stat(os.path.join(d, f)).st_ino
                  for f in os.listdir(d)} for d in staged}
    again = _run(JOBS[0])
    assert _canonical(again) == _canonical(result)
    assert set(STAGING._free) == staged
    for d, files in inodes.items():
        assert {f: os.stat(os.path.join(d, f)).st_ino
                for f in os.listdir(d)} == files


def test_explicit_dump_dir_keeps_files_and_paths(tmp_path):
    staged = _run(JOBS[1])
    kept = _run(JOBS[1], dump_dir=str(tmp_path))
    assert _canonical(kept) == _canonical(staged)
    assert sorted(os.path.basename(p) for p in kept.dump_paths) == \
        sorted(os.listdir(tmp_path))
    assert len(kept.dump_paths) == 4
    for path in kept.dump_paths:
        assert read_dump(path).set_ids() == [0]
    assert not any(os.path.dirname(p) in STAGING._made
                   for p in kept.dump_paths)


def test_threads_get_byte_identical_results():
    serial = [_canonical(_run(spec)) for spec in JOBS]
    outputs = {}
    errors = []
    barrier = threading.Barrier(len(JOBS))

    def work(index):
        try:
            barrier.wait()
            for _ in range(2):
                outputs.setdefault(index, []).append(
                    _canonical(_run(JOBS[index])))
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(i,))
               for i in range(len(JOBS))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for index, expected in enumerate(serial):
        assert outputs[index] == [expected, expected]
    # every directory is back in the pool once the jobs are done
    assert sorted(STAGING._free) == sorted(STAGING._made)


def test_forked_pool_workers_stage_per_pid():
    serial = [_canonical(_run(spec)) for spec in JOBS]
    parent_dirs = set(STAGING._made)
    pooled = parallel_map(_staged_job, [(i,) for i in range(len(JOBS))],
                          jobs=2)
    assert [out for out, _, _ in pooled] == serial
    worker_dirs = set()
    for _, pid, made in pooled:
        assert pid != os.getpid()
        assert made and not set(made) & parent_dirs
        for path in made:
            assert os.path.basename(path).startswith(f"bgp_stage_{pid}_")
        worker_dirs.update(made)
    # workers remove their own directories when they exit
    assert not any(os.path.exists(path) for path in worker_dirs)
    assert all(os.path.isdir(path) for path in parent_dirs)


_SWEEP = """
import os, sys
from repro.compiler import O5, compile_program
from repro.core.dump import STAGING
from repro.node import OperatingMode
from repro.npb import build_benchmark
from repro.parallel import set_jobs
from repro.runtime import Job, Machine
set_jobs(int(sys.argv[1]))
for ranks in (4, 8, 16):
    program = compile_program(build_benchmark("MG", num_ranks=ranks,
                                              problem_class="A"), O5())
    Job(Machine(4, mode=OperatingMode.VNM), program, ranks).run()
assert STAGING._made and all(os.path.isdir(d) for d in STAGING._made)
print(len(os.listdir(os.environ["TMPDIR"])))
"""


@pytest.mark.parametrize("jobs", [1, 2])
def test_subprocess_sweep_leaves_tmpdir_empty(tmp_path, jobs):
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    env = dict(os.environ, TMPDIR=str(tmpdir),
               PYTHONPATH=os.pathsep.join(
                   [str(SRC)] + ([os.environ["PYTHONPATH"]]
                                 if os.environ.get("PYTHONPATH") else [])))
    proc = subprocess.run([sys.executable, "-c", _SWEEP, str(jobs)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.strip()) >= 1  # staged while running
    assert os.listdir(tmpdir) == []
