"""Child-process entry points of the benchmark (run with ``src`` on PYTHONPATH).

    python child.py scale-out [--quick] [--trace FILE]
        Sweep ``run_scaled_vnm`` over the scale-out points in a fresh
        process; print one JSON line with the import and sweep seconds,
        per-point seconds and per-point result digests.
    python child.py cli --trace FILE -- ARGS...
        ``python -m repro ARGS...`` with every layer call traced.
    python child.py offline POINTS.json
        Digest each sweep point's offline harness result (golden data).

With ``--trace FILE`` the spans, the program's own metric counters and
the traced wall time are written to FILE as JSON when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

import common
import tracing


def _write_trace(path, recorder, wall_s) -> None:
    from repro.obs import metrics

    with open(path, "w") as fh:
        json.dump({"wall_s": wall_s,
                   "counters": metrics.snapshot()["counters"],
                   "spans": recorder.spans}, fh)


def scale_out(quick: bool, trace_path) -> int:
    start = time.perf_counter()
    from repro.compiler import O5
    from repro.harness.sweep import run_scaled_vnm
    imported = time.perf_counter()
    recorder = tracing.Recorder() if trace_path else None
    if recorder is not None:
        recorder.add("import.repro", start, imported)
        tracing.install(recorder)
    flags = O5()
    points = common.scale_out_points(quick)
    seconds, results = [], []
    with recorder.span("run") if recorder else contextlib.nullcontext():
        sweep_start = time.perf_counter()
        for point in points:
            t0 = time.perf_counter()
            results.append(run_scaled_vnm(point["code"], flags,
                                          point["num_ranks"]))
            seconds.append(time.perf_counter() - t0)
        sweep_s = time.perf_counter() - sweep_start
    if recorder is not None:
        _write_trace(trace_path, recorder, time.perf_counter() - start)
    print(json.dumps({
        "import_s": imported - start, "sweep_s": sweep_s,
        "point_s": seconds,
        "digests": {common.point_key(p): common.result_digest(r.to_dict())
                    for p, r in zip(points, results)}}))
    return 0


def cli(argv, trace_path) -> int:
    start = time.perf_counter()
    import repro.__main__ as entry
    if argv[:1] == ["serve"]:
        import repro.serve  # noqa: F401  (the CLI imports it lazily)
    imported = time.perf_counter()
    recorder = tracing.Recorder()
    recorder.add("import.repro", start, imported)
    tracing.install(recorder)
    try:
        if argv[:1] == ["serve"]:
            # service requests are their own trace roots
            code = entry.main(argv)
        else:
            with recorder.span("run"):
                code = entry.main(argv)
        sys.stdout.flush()
    finally:
        _write_trace(trace_path, recorder, time.perf_counter() - start)
    return code


def offline(points_path) -> int:
    from repro.harness.sweep import run_scaled_vnm, run_smp1, run_vnm
    from repro.serve.protocol import FLAG_SETS

    with open(points_path) as fh:
        points = json.load(fh)
    digests = {}
    for p in points:
        flags = FLAG_SETS[p["flags"]]
        if p["kind"] == "vnm":
            job = run_vnm(p["code"], flags, p["l3_mb"], p["problem_class"])
        elif p["kind"] == "smp1":
            job = run_smp1(p["code"], flags, p["l3_mb"], p["problem_class"])
        else:
            job = run_scaled_vnm(p["code"], flags, p["num_ranks"],
                                 p["l3_mb"], p["problem_class"])
        digests[common.point_key(p)] = common.result_digest(job.to_dict())
    print(json.dumps(digests))
    return 0


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    argv, rest = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("scale-out", "cli", "offline"))
    parser.add_argument("points", nargs="?")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)
    if args.mode == "scale-out":
        return scale_out(args.quick, args.trace)
    if args.mode == "cli":
        return cli(rest, args.trace)
    return offline(args.points)


if __name__ == "__main__":
    sys.exit(main())
