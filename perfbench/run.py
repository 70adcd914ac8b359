"""The repository benchmark: three workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all        # the three in turn
    python3 perfbench/run.py --self-test           # tiny inputs, checks itself
    python3 perfbench/run.py --record-golden       # rewrite golden.json

Run it from the repository root.  Every pass starts the program in a
fresh process with empty caches and the shipped default engine.  With
``--trace 0`` the end-to-end metrics are medians over the passes that
fit in ``--seconds``.  With ``--trace 1`` a shorter untraced baseline is
followed by one traced pass whose spans give the per-layer metrics.
Outputs are checked against ``golden.json``: a mismatch, a non-zero
exit or a non-2xx response is a failed output.  The last line of
standard output is one JSON object; see NOTES.md for what each workload
and metric means.

``BENCHMARK.json`` lists figures-cold and scale-out only: serve-mix
reports wrong results on this program (the shared tier's node-class
key, NOTES.md), so it runs on demand until that defect is fixed.
"""

from __future__ import annotations

import argparse
import copy
import http.client
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import common
import tracing

PY = sys.executable
CHILD = [PY, str(common.BENCH_DIR / "child.py")]
CLI = [PY, "-m", "repro"]
RUN_ROOT = common.ROOT / ".perfbench-run"
WORKLOADS = ("figures-cold", "scale-out", "serve-mix")

#: Hard limit on any one child process.
CHILD_TIMEOUT = 150.0
#: Passes per run however short ``--seconds`` is.
MIN_PASSES = 3
#: Requests in one serve-mix stream: a third are fresh, so every point
#: of the 96-point universe is simulated once per pass.
SERVE_REQUESTS = 288
SERVE_CLASSES = ("repeat", "recombine", "fresh")
#: Figures and stream length of the self-test's quick mode.
FIGURES_QUICK = ("fig03", "fig06")
SERVE_REQUESTS_QUICK = 12

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong program output)."""


@dataclass
class Child:
    code: int
    out: bytes
    wall_s: float
    rss_mb: float


@dataclass
class Outcome:
    """Samples and output checks of one workload run."""

    setup_s: List[float] = field(default_factory=list)
    wall_s: List[float] = field(default_factory=list)
    peak_rss_mb: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: extra named samples for the report (latencies, per-point times)
    extra: Dict[str, List[float]] = field(default_factory=dict)

    def check(self, bad: int, total: int) -> None:
        self.attempted += total
        self.failed += bad


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------
class Bench:
    """Scratch directory, environment and children of one invocation.

    Everything, the program's own temporary files included (TMPDIR),
    stays under ``.perfbench-run/`` in the checkout.
    """

    def __init__(self, quick: bool):
        RUN_ROOT.mkdir(exist_ok=True)
        self.quick = quick
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=RUN_ROOT))
        (self.dir / "tmp").mkdir()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(common.SRC)] + ([self.env["PYTHONPATH"]]
                                 if self.env.get("PYTHONPATH") else []))
        self.env["TMPDIR"] = str(self.dir / "tmp")
        # the shipped defaults only: no engine switches from outside
        for name in ("REPRO_VECTORIZE", "REPRO_BATCH_SWEEP"):
            self.env.pop(name, None)
        self._serial = 0

    def path(self, stem: str) -> Path:
        self._serial += 1
        return self.dir / f"{stem}{self._serial}"

    def run(self, argv: List[str]) -> Child:
        """Run a child to completion; wall time and its own peak RSS."""
        start = time.perf_counter()
        with open(self.path("stderr"), "wb") as log:
            proc = subprocess.Popen(argv, cwd=common.ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=log)
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            reap(proc, CHILD_TIMEOUT)
            raise
        code, rss_mb = reap(proc, CHILD_TIMEOUT)
        return Child(code, out, time.perf_counter() - start, rss_mb)

    def clean(self) -> None:
        """Delete the files of the last pass and flush the disk.

        Called between passes, outside the timed part.  Deleting
        thousands of small dump files slows file creation for a minute
        or more on some hosts; cleaning after every pass puts every
        pass, the first of a run included, in that same state.
        """
        shutil.rmtree(self.dir)
        (self.dir / "tmp").mkdir(parents=True)
        os.sync()

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def reap(proc: subprocess.Popen, timeout: float) -> Tuple[int, float]:
    """Wait for ``proc`` (killing it after ``timeout``); exit code and
    peak RSS in MB from its own resource usage."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode, usage.ru_maxrss / 1024.0


def passes(seconds: float, minimum: int) -> Iterator[int]:
    """Pass numbers until ``seconds`` have gone by and ``minimum`` ran."""
    start = time.perf_counter()
    index = 0
    while index < minimum or time.perf_counter() - start < seconds:
        yield index
        index += 1


def last_json_line(out: bytes) -> Dict[str, Any]:
    return json.loads(out.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# figures-cold: python -m repro --csv DIR
# ---------------------------------------------------------------------------
def figures_args(bench: Bench) -> List[str]:
    return list(FIGURES_QUICK) if bench.quick else []


def figures_golden(bench: Bench, golden: Dict) -> Dict:
    return golden["figures_quick" if bench.quick else "figures"]


def check_figures(child: Child, csv_dir: Path, ref: Dict) -> Tuple[int, int]:
    """(failed, attempted) over stdout and every expected CSV."""
    total = len(ref["csv"]) + 1
    if child.code != 0:
        return total, total
    bad = int(common.sha256(child.out) != ref["stdout"])
    for name, digest in ref["csv"].items():
        path = csv_dir / name
        bad += int(not path.is_file()
                   or common.sha256(path.read_bytes()) != digest)
    return bad, total


def figures_cold(bench: Bench, golden: Dict, seed: int, seconds: float,
                 minimum: int = MIN_PASSES) -> Outcome:
    result = Outcome()
    ref = figures_golden(bench, golden)
    for _ in passes(seconds, minimum):
        # setup samples interleave with the passes, so that both see
        # the same spells of host contention
        child = bench.run(CLI + ["--list"])
        result.check(int(child.code != 0), 1)
        result.setup_s.append(child.wall_s)
        csv_dir = bench.path("csv")
        child = bench.run(CLI + ["--csv", str(csv_dir)] + figures_args(bench))
        result.check(*check_figures(child, csv_dir, ref))
        bench.clean()
        if child.code == 0:
            result.wall_s.append(child.wall_s)
            result.peak_rss_mb.append(child.rss_mb)
    return result


def figures_traced(bench: Bench, golden: Dict, seed: int,
                   trace_path: Path) -> Tuple[Outcome, Dict]:
    result = Outcome()
    csv_dir = bench.path("csv")
    child = bench.run(CHILD + ["cli", "--trace", str(trace_path), "--",
                               "--csv", str(csv_dir)] + figures_args(bench))
    result.check(*check_figures(child, csv_dir,
                                figures_golden(bench, golden)))
    result.wall_s.append(child.wall_s)
    doc = read_trace(trace_path, child.code)
    doc["covered_s"] = doc["wall_s"]
    return result, doc


# ---------------------------------------------------------------------------
# scale-out: run_scaled_vnm over 32 class-C points, 121..1024 ranks
# ---------------------------------------------------------------------------
def scale_out_argv(bench: Bench, trace_path: Optional[Path] = None
                   ) -> List[str]:
    argv = CHILD + ["scale-out"] + (["--quick"] if bench.quick else [])
    return argv + (["--trace", str(trace_path)] if trace_path else [])


def check_scale_out(child: Child, bench: Bench, golden: Dict
                    ) -> Tuple[int, int, Optional[Dict]]:
    keys = [common.point_key(p) for p in common.scale_out_points(bench.quick)]
    if child.code != 0:
        return len(keys), len(keys), None
    doc = last_json_line(child.out)
    bad = sum(doc["digests"].get(key) != golden["points"][key]
              for key in keys)
    return bad, len(keys), doc


def scale_out(bench: Bench, golden: Dict, seed: int, seconds: float,
              minimum: int = MIN_PASSES) -> Outcome:
    result = Outcome()
    point_ms: List[float] = []
    for _ in passes(seconds, minimum):
        child = bench.run(scale_out_argv(bench))
        bad, total, doc = check_scale_out(child, bench, golden)
        result.check(bad, total)
        bench.clean()
        if doc is None:
            continue
        result.setup_s.append(doc["import_s"])
        result.wall_s.append(doc["sweep_s"])
        result.peak_rss_mb.append(child.rss_mb)
        point_ms += [s * 1e3 for s in doc["point_s"]]
    result.extra["point_ms"] = point_ms
    return result


def scale_out_traced(bench: Bench, golden: Dict, seed: int,
                     trace_path: Path) -> Tuple[Outcome, Dict]:
    result = Outcome()
    child = bench.run(scale_out_argv(bench, trace_path))
    bad, total, out = check_scale_out(child, bench, golden)
    result.check(bad, total)
    doc = read_trace(trace_path, child.code)
    result.wall_s.append(out["sweep_s"])
    doc["covered_s"] = doc["wall_s"]
    return result, doc


# ---------------------------------------------------------------------------
# serve-mix: python -m repro serve, one closed-loop client
# ---------------------------------------------------------------------------
def make_stream(seed: int, rep: int, quick: bool
                ) -> List[Tuple[str, List[Dict]]]:
    """The request stream of serve-mix pass ``rep``, drawn from ``seed``.

    Equal shares of ``repeat`` (an earlier request again), ``recombine``
    (earlier points in a new combination) and ``fresh`` (one point never
    asked before, plus up to three earlier ones); 1-4 points each.  A
    recombination that finds no new combination (early in the stream)
    becomes a repeat.
    """
    rng = random.Random(seed * 1000 + rep)
    count = SERVE_REQUESTS_QUICK if quick else SERVE_REQUESTS
    # new points arrive in one fixed order: the server's peak memory
    # depends on that order, and it should not move with the seed
    unused = common.serve_universe(quick)[::-1]
    classes = list(SERVE_CLASSES) * (count // len(SERVE_CLASSES))
    rng.shuffle(classes)
    classes.remove("fresh")
    classes.insert(0, "fresh")
    seen: List[Dict] = []
    stream: List[Tuple[str, List[Dict]]] = []
    asked = set()
    for kind in classes:
        points = None
        if kind == "recombine":
            for _ in range(20):
                pick = rng.sample(seen, rng.randint(1, min(4, len(seen))))
                if request_key(pick) not in asked:
                    points = pick
                    break
            else:
                kind = "repeat"
        if kind == "repeat":
            points = rng.choice(stream)[1]
        elif kind == "fresh":
            new = unused.pop()
            points = rng.sample(seen, rng.randint(0, min(3, len(seen))))
            points.insert(rng.randint(0, len(points)), new)
            seen.append(new)
        asked.add(request_key(points))
        stream.append((kind, points))
    return stream


def request_key(points: List[Dict]) -> str:
    return "|".join(common.point_key(p) for p in points)


def http_call(port: int, method: str, path: str,
              body: Optional[bytes] = None) -> Tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        headers = {"Content-Type": "application/json"} if body else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``python -m repro serve`` process on a fresh cache directory."""

    def __init__(self, bench: Bench, prefix: List[str],
                 extra: List[str] = ()):
        start = time.perf_counter()
        self.cache = bench.path("cache")
        self.log = bench.path("serve-log")
        argv = prefix + ["serve", "--port", "0", "--cache", str(self.cache)]
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                argv + list(extra), cwd=common.ROOT, env=bench.env,
                stdout=subprocess.DEVNULL, stderr=log)
        try:
            self.port = self._wait_listening()
            self._wait_healthy()
        except BaseException:
            self.proc.kill()
            reap(self.proc, CHILD_TIMEOUT)
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_listening(self) -> int:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            match = re.search(rb"serve\.listening\b.*?\bport=(\d+)",
                              self.log.read_bytes())
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise BenchError(f"server exited with {self.proc.returncode}"
                                 f": {self.log.read_bytes()[-400:]!r}")
            time.sleep(0.002)
        raise BenchError("server did not start listening within 60 s")

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                if http_call(self.port, "GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("server never answered /healthz")

    def stats(self) -> Dict[str, Any]:
        return json.loads(http_call(self.port, "GET", "/stats")[1])

    def stop(self) -> Tuple[int, float]:
        try:
            http_call(self.port, "POST", "/v1/shutdown")
        except OSError:
            self.proc.kill()
        return reap(self.proc, 60.0)


def check_response(status: int, body: bytes, points: List[Dict],
                   golden: Dict) -> bool:
    if status != 200:
        return False
    try:
        served = json.loads(body)["points"]
    except (ValueError, KeyError, TypeError):
        return False
    return (len(served) == len(points)
            and all(item["point"] == point
                    and common.result_digest(item["result"])
                    == golden["points"][common.point_key(point)]
                    for item, point in zip(served, points)))


def serve_stream(server: Server, stream, golden: Dict, result: Outcome
                 ) -> Tuple[float, List[float]]:
    """Send ``stream`` closed-loop; check replies after the timed part.

    Returns the stream seconds and each request's latency in seconds.
    """
    replies = []
    start = time.perf_counter()
    for _, points in stream:
        body = json.dumps({"points": points}).encode()
        t0 = time.perf_counter()
        try:
            status, reply = http_call(server.port, "POST", "/v1/sweep", body)
        except (OSError, http.client.HTTPException):
            status, reply = 0, b""
        replies.append((time.perf_counter() - t0, status, reply))
    stream_s = time.perf_counter() - start
    bad = sum(not check_response(status, reply, points, golden)
              for (_, status, reply), (_, points) in zip(replies, stream))
    result.check(bad, len(stream))
    for (latency, _, _), (kind, _) in zip(replies, stream):
        result.extra.setdefault(f"{kind}_ms", []).append(latency * 1e3)
    return stream_s, [latency for latency, _, _ in replies]


def serve_mix(bench: Bench, golden: Dict, seed: int, seconds: float,
              minimum: int = MIN_PASSES) -> Outcome:
    result = Outcome()
    for rep in passes(seconds, 1 if bench.quick else minimum):
        # a start-and-stop probe doubles the setup samples
        probe = Server(bench, CLI)
        result.check(int(probe.stop()[0] != 0), 1)
        result.setup_s.append(probe.setup_s)
        server = Server(bench, CLI)
        try:
            stream_s, _ = serve_stream(
                server, make_stream(seed, rep, bench.quick), golden, result)
            stats = server.stats()
        finally:
            code, rss_mb = server.stop()
        bench.clean()
        result.check(int(code != 0), 1)
        result.setup_s.append(server.setup_s)
        result.wall_s.append(stream_s)
        result.peak_rss_mb.append(rss_mb)
        result.extra.setdefault("tier_records", []).append(
            stats["tier"]["records"])
        result.extra.setdefault("tier_evictions", []).append(
            stats["tier"]["evictions"])
    return result


def serve_traced(bench: Bench, golden: Dict, seed: int,
                 trace_path: Path) -> Tuple[Outcome, Dict]:
    result = Outcome()
    telemetry = bench.path("telemetry")
    server = Server(bench, CHILD + ["cli", "--trace", str(trace_path), "--"],
                    ["--telemetry", str(telemetry)])
    try:
        stream_s, latencies = serve_stream(
            server, make_stream(seed, 0, bench.quick), golden, result)
    finally:
        code, _ = server.stop()
    result.check(int(code != 0), 1)
    result.wall_s.append(stream_s)
    doc = read_trace(trace_path, code)
    with open(telemetry / "requests.jsonl") as fh:
        served = [json.loads(line) for line in fh]
    server_s = [r["seconds"] for r in served if r["path"] == "/v1/sweep"]
    imported = next(s for s in doc["spans"] if s[0] == "import.repro")
    doc["covered_s"] = sum(server_s) + imported[5] - imported[4]
    doc["server_ms"] = [s * 1e3 for s in server_s]
    doc["transport_ms"] = [(c - s) * 1e3
                           for c, s in zip(latencies, server_s)]
    return result, doc


# ---------------------------------------------------------------------------
# the traced pass: per-layer metrics
# ---------------------------------------------------------------------------
MEASURE = {"figures-cold": figures_cold, "scale-out": scale_out,
           "serve-mix": serve_mix}
TRACED = {"figures-cold": figures_traced, "scale-out": scale_out_traced,
          "serve-mix": serve_traced}


def read_trace(path: Path, code: int) -> Dict[str, Any]:
    if code != 0 or not path.is_file():
        raise BenchError(f"traced child exited with {code} and "
                         f"{'a' if path.is_file() else 'no'} trace file")
    with open(path) as fh:
        doc = json.load(fh)
    doc["spans"] = [tuple(span) for span in doc["spans"]]
    return doc


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values: List[float], pct: int) -> float:
    """The ``pct``-th percentile (nearest rank, no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


def layer_metrics(workload: str, doc: Dict[str, Any], untraced_wall: float,
                  traced_wall: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of ``workload``, as (value, unit)."""
    totals = tracing.layer_totals(doc["spans"])
    counters = doc["counters"]

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    def count(name):
        return counters.get(name, 0)

    def hits(prefix):
        h = sum(v for k, v in counters.items()
                if k.startswith(prefix) and k.endswith(".hits"))
        m = sum(v for k, v in counters.items()
                if k.startswith(prefix) and k.endswith(".misses"))
        return ratio(h, h + m)

    metrics: Dict[str, Tuple[float, str]] = {}

    def add(name, value, unit):
        metrics[name] = (value, unit)

    def layer(prefix, span, calls=True):
        if calls:
            add(f"{prefix}_calls", get(span, "calls"), "count")
        add(f"{prefix}_s", get(span, "self_s"), "s")

    add("import.repro_s", get("import.repro", "self_s"), "s")
    layer("compiler.compile", "compiler.compile")
    add("npb.build_s", get("npb.build", "self_s"), "s")
    add("runtime.machine_s", get("runtime.machine", "self_s"), "s")
    add("runtime.job_calls", get("runtime.job", "calls"), "count")
    add("runtime.job_s", get("runtime.job", "incl_s"), "s")
    add("runtime.comm_s", get("runtime.comm", "self_s"), "s")
    classes, shared = (count("runtime.node_classes"),
                       count("runtime.node_class_hits"))
    add("runtime.class_ratio", ratio(shared, classes + shared), "ratio")
    comm_hits, comm_misses = (count("runtime.comm_cache_hits"),
                              count("runtime.comm_cache_misses"))
    add("runtime.comm_hit_ratio",
        ratio(comm_hits, comm_hits + comm_misses), "ratio")
    layer("node.run", "node.run")
    layer("node.pulse", "node.pulse")
    add("core.finalize_s", get("core.finalize", "self_s"), "s")
    add("core.dump_calls", get("core.dump_write", "calls"), "count")
    add("core.dump_bytes", get("core.dump_write", "amount"), "bytes")
    add("core.dump_write_s", get("core.dump_write", "self_s"), "s")
    add("core.dump_read_s", get("core.dump_read", "self_s"), "s")
    layer("core.aggregate", "core.aggregate")
    layer("mem.analyze", "mem.analyze")
    add("mem.loop_evals", count("mem.loop_evals"), "count")
    layer("cpu.pipeline", "cpu.pipeline")
    add("net.phase_calls", get("net.phase", "calls"), "count")
    add("net.messages", get("net.phase", "amount"), "count")
    add("net.phase_s", get("net.phase", "self_s"), "s")
    add("net.route_s", get("net.route", "self_s"), "s")
    add("net.torus_packets", count("net.torus_packets"), "count")
    for fid in tracing.FIGURE_IDS:
        add(f"harness.exp.{fid}_s", get(f"harness.exp.{fid}", "self_s"), "s")
    add("harness.render_s", get("harness.render", "self_s"), "s")
    add("parallel.memo_hit_ratio", hits("memo."), "ratio")
    if workload == "serve-mix":
        # the tier and the service run on serve-mix only, which is not
        # in BENCHMARK.json (see NOTES.md, known defects)
        layer("checkpoint.load", "checkpoint.load")
        layer("checkpoint.save", "checkpoint.save")
        add("checkpoint.bytes_written", get("checkpoint.save", "amount"),
            "bytes")
        add("checkpoint.tier_hit_ratio", hits("checkpoint.tier."), "ratio")
        add("checkpoint.evictions", count("checkpoint.tier.evictions"),
            "count")
        add("checkpoint.lock_waits", count("checkpoint.lock_waits"), "count")
        add("serve.validate_s", get("serve.validate", "self_s"), "s")
        add("serve.server_p50_ms", median(doc.get("server_ms", [])), "ms")
        add("serve.transport_p50_ms", median(doc.get("transport_ms", [])),
            "ms")
        served_hits, served_misses = (count("serve.cache_hits"),
                                      count("serve.cache_misses"))
        add("serve.response_hit_ratio",
            ratio(served_hits, served_hits + served_misses), "ratio")
    add("trace.spans", len(doc["spans"]), "count")
    add("trace.unattributed_s",
        doc["covered_s"] - tracing.attributed_seconds(totals), "s")
    add("trace.overhead_s", traced_wall - untraced_wall, "s")
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def end_to_end(outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """Median of each end-to-end metric's samples, with its unit."""
    if not all(getattr(outcome, name) for name, _ in END_TO_END):
        raise BenchError("no pass produced a complete measurement "
                         f"({outcome.failed} of {outcome.attempted} "
                         "outputs failed)")
    return {name: (median(getattr(outcome, name)), unit)
            for name, unit in END_TO_END}


def report_lines(workload: str, outcome: Outcome) -> List[str]:
    """The human-readable table: every named metric with its unit."""
    rows = [(name, value, unit, len(getattr(outcome, name)))
            for name, (value, unit) in end_to_end(outcome).items()]
    extra = outcome.extra
    if workload == "serve-mix":
        every = [v for kind in SERVE_CLASSES for v in extra.get(f"{kind}_ms",
                                                                [])]
        rows += [("req_p50_ms", median(every), "ms", len(every)),
                 ("req_p95_ms", percentile(every, 95), "ms", len(every))]
        for kind in SERVE_CLASSES:
            samples = extra.get(f"{kind}_ms", [])
            rows.append((f"{kind}_p50_ms", median(samples), "ms",
                         len(samples)))
        rows.append(("req_per_s", len(every) / sum(outcome.wall_s), "1/s",
                     len(outcome.wall_s)))
        rows.append(("tier_records_max", max(extra["tier_records"]),
                     "count", len(extra["tier_records"])))
        rows.append(("tier_evictions", sum(extra["tier_evictions"]),
                     "count", len(extra["tier_evictions"])))
    if workload == "scale-out":
        samples = extra.get("point_ms", [])
        rows += [("point_p50_ms", median(samples), "ms", len(samples)),
                 ("point_p90_ms", percentile(samples, 90), "ms",
                  len(samples))]
    rows.append(("fail_frac", outcome.failed / max(1, outcome.attempted),
                 "ratio", outcome.attempted))
    return [f"  {name:<20s} {value:>14.6g} {unit:<6s} n={n}"
            for name, value, unit, n in rows]


def result_json(outcome: Outcome,
                metrics: Dict[str, Tuple[float, str]]) -> str:
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}})


def measure(workload: str, seed: int, seconds: float, trace: bool,
            quick: bool = False, golden: Optional[Dict] = None
            ) -> Tuple[Outcome, Dict[str, Tuple[float, str]], List[str]]:
    """One benchmark run: (outcome, printed metrics, report lines)."""
    golden = golden if golden is not None else common.load_golden()
    bench = Bench(quick)
    try:
        # the build step: byte-compile the program once per checkout so
        # that no pass pays for it
        bench.run([PY, "-m", "compileall", "-q", str(common.SRC)])
        if not trace:
            outcome = MEASURE[workload](bench, golden, seed, seconds)
            return outcome, end_to_end(outcome), report_lines(workload,
                                                              outcome)
        baseline = MEASURE[workload](bench, golden, seed, seconds / 2,
                                     minimum=1)
        trace_path = bench.path("trace").with_suffix(".json")
        traced, doc = TRACED[workload](bench, golden, seed, trace_path)
        metrics = layer_metrics(workload, doc, median(baseline.wall_s),
                                traced.wall_s[0])
        outcome = Outcome(attempted=baseline.attempted + traced.attempted,
                          failed=baseline.failed + traced.failed)
        lines = layer_lines(doc, metrics)
        fired = {span[0] for span in doc["spans"]}
        missing = [name for name in tracing.must_fire(workload)
                   if name not in fired]
        outcome.check(len(missing), len(tracing.must_fire(workload)))
        lines += [f"  wrapper never fired: {name}" for name in missing]
        keep = RUN_ROOT / f"spans-{workload}.jsonl"
        with open(keep, "w") as fh:
            for span in doc["spans"]:
                fh.write(json.dumps(span) + "\n")
        lines.append(f"  spans written to {keep.relative_to(common.ROOT)}")
        return outcome, metrics, lines
    finally:
        bench.close()


def layer_lines(doc: Dict, metrics: Dict[str, Tuple[float, str]]
                ) -> List[str]:
    totals = tracing.layer_totals(doc["spans"])
    lines = ["  layer                    calls     self_s     incl_s"]
    for name, entry in sorted(totals.items(),
                              key=lambda kv: -kv[1]["self_s"]):
        lines.append(f"  {name:<22s} {entry['calls']:>7d} "
                     f"{entry['self_s']:>10.4f} {entry['incl_s']:>10.4f}")
    lines += [f"  {name:<32s} {value:>14.6g} {unit}"
              for name, (value, unit) in metrics.items()]
    return lines


# ---------------------------------------------------------------------------
# self-test and golden recording
# ---------------------------------------------------------------------------
def corrupt(golden: Dict, workload: str, seed: int) -> Dict:
    """``golden`` with one digest the quick run of ``workload`` checks
    flipped."""
    bad = copy.deepcopy(golden)
    if workload == "figures-cold":
        table, key = bad["figures_quick"]["csv"], "fig06.csv"
    else:
        points = (common.scale_out_points(quick=True)
                  if workload == "scale-out"
                  else make_stream(seed, 0, quick=True)[0][1])
        table, key = bad["points"], common.point_key(points[0])
    table[key] = table[key][::-1]
    return bad


def self_test() -> int:
    golden = common.load_golden()
    problems = []
    for workload in WORKLOADS:
        outcome, metrics, lines = measure(workload, 1, 0.0, False,
                                          quick=True, golden=golden)
        print(f"{workload} (quick)")
        print("\n".join(lines))
        for name, unit in END_TO_END:
            if metrics.get(name, (0, ""))[1] != unit or not any(
                    line.split()[:1] == [name] and unit in line.split()
                    for line in lines):
                problems.append(f"{workload}: {name} [{unit}] not printed")
        corrupted, _, _ = measure(workload, 1, 0.0, False, quick=True,
                                  golden=corrupt(golden, workload, 1))
        print(f"  corrupted golden: {corrupted.failed} of "
              f"{corrupted.attempted} outputs failed")
        if corrupted.failed <= outcome.failed:
            problems.append(f"{workload}: a corrupted golden digest did "
                            "not raise fail_frac")
    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record_golden() -> int:
    bench = Bench(quick=False)
    try:
        golden: Dict[str, Any] = {}
        for key, args in (("figures", []), ("figures_quick",
                                            list(FIGURES_QUICK))):
            digests = []
            for _ in range(2):  # the figures must be deterministic
                csv_dir = bench.path("csv")
                child = bench.run(CLI + ["--csv", str(csv_dir)] + args)
                if child.code != 0:
                    raise BenchError(f"python -m repro exited {child.code}")
                digests.append({
                    "stdout": common.sha256(child.out),
                    "csv": {p.name: common.sha256(p.read_bytes())
                            for p in sorted(csv_dir.iterdir())}})
            if digests[0] != digests[1]:
                raise BenchError(f"{key}: two runs differ")
            golden[key] = digests[0]
        points = {common.point_key(p): p for p in
                  common.scale_out_points() + common.scale_out_points(True)
                  + common.serve_universe() + common.serve_universe(True)}
        points_file = bench.path("points")
        points_file.write_text(json.dumps(list(points.values())))
        child = bench.run(CHILD + ["offline", str(points_file)])
        if child.code != 0:
            raise BenchError(f"offline child exited {child.code}")
        golden["points"] = dict(sorted(last_json_line(child.out).items()))
        with open(common.GOLDEN, "w") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {common.GOLDEN.relative_to(common.ROOT)}: "
              f"{len(golden['points'])} points")
        return 0
    finally:
        bench.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        help="'all' runs the three in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args()
    if not (common.SRC / "repro" / "__main__.py").is_file():
        print(f"perfbench: no program at {common.SRC / 'repro'}; run from "
              "the root of a repository checkout", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.record_golden:
            return record_golden()
        if args.workload is None:
            parser.error("--workload is required")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        for workload in workloads:
            outcome, metrics, lines = measure(workload, args.seed,
                                              args.seconds, bool(args.trace))
            print(f"{workload} seed={args.seed} seconds={args.seconds:g} "
                  f"trace={args.trace}")
            print("\n".join(lines))
            print(result_json(outcome, metrics), flush=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0

if __name__ == "__main__":
    sys.exit(main())
