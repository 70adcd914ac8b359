"""Inputs and digests shared by the benchmark runner and its child processes.

Nothing here imports the simulator: the runner stays a pure client, and
the children import this module next to the program they measure.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"

#: The NPB codes in the program's own order (repro.npb.BENCHMARK_ORDER).
CODES = ("MG", "FT", "EP", "CG", "IS", "LU", "SP", "BT")

#: scale-out: class C, O5, VNM.  BT and SP need square rank counts.
SCALE_OUT_RANKS = {code: ((121, 256, 484, 1024) if code in ("BT", "SP")
                          else (128, 256, 512, 1024)) for code in CODES}
#: The --quick (self-test) subset: two tiny points.
SCALE_OUT_QUICK = {"EP": (16,), "MG": (16,)}


def scaled_point(code: str, ranks: int) -> Dict[str, Any]:
    """A ``scaled`` sweep point in the service's wire vocabulary."""
    return {"kind": "scaled", "code": code, "flags": "O5", "l3_mb": 8,
            "problem_class": "C", "num_ranks": ranks}


def scale_out_points(quick: bool = False) -> List[Dict[str, Any]]:
    table = SCALE_OUT_QUICK if quick else SCALE_OUT_RANKS
    return [scaled_point(code, ranks) for code, all_ranks in table.items()
            for ranks in all_ranks]


def serve_universe(quick: bool = False) -> List[Dict[str, Any]]:
    """Every point a serve-mix request may name, in a fixed order.

    96 points: vnm at three flag sets and two L3 sizes, smp1 at three
    flag sets, and scaled VNM at 16, 64 and 256 ranks.  The quick
    universe keeps only the cheap 16-rank scaled points.
    """
    if quick:
        return [scaled_point(code, 16) for code in CODES]
    points: List[Dict[str, Any]] = []
    for code in CODES:
        for flags in ("O3", "O4", "O5"):
            for l3_mb in (4, 8):
                points.append({"kind": "vnm", "code": code, "flags": flags,
                               "l3_mb": l3_mb, "problem_class": "C"})
            points.append({"kind": "smp1", "code": code, "flags": flags,
                           "l3_mb": 2, "problem_class": "C"})
        for ranks in (16, 64, 256):
            points.append(scaled_point(code, ranks))
    return points


def point_key(point: Dict[str, Any]) -> str:
    return json.dumps(point, sort_keys=True, separators=(",", ":"))


def result_digest(result: Any) -> str:
    """Digest of one ``JobResult.to_dict()``, however it was transported.

    The dict is first round-tripped through JSON so that an in-process
    result and one decoded from an HTTP body digest identically.
    """
    canonical = json.loads(json.dumps(result, sort_keys=True))
    return sha256(json.dumps(canonical, sort_keys=True,
                             separators=(",", ":")).encode())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(path: Optional[Path] = None) -> Dict[str, Any]:
    with open(path or GOLDEN) as fh:
        return json.load(fh)
