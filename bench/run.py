"""Benchmark entry point.

    python3 bench/run.py --workload tm_eval --seed 1 --seconds 20 --trace 0

Runs each workload in a fresh Python process (``child.py``) with
``PYTHONHASHSEED`` derived from the seed, prints every metric by name
with its unit and the op count, and prints one JSON object as its last
line.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones.  ``--workload all`` runs the four workloads in turn.
Exits non-zero, without a result line, when the library source is
missing or a workload process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
NAMES = ("tm_eval", "graph_eq", "laws", "walks")
SETUP_SAMPLES = 5  # fresh processes timed per run; setup_s is their median
CHILD_TIMEOUT_S = 160


def hash_seed(seed: int) -> int:
    """The PYTHONHASHSEED of every process started for ``seed``."""
    return seed % 2**32


def _child(workload: str, seed: int, seconds: float, trace: int, setup_only: bool) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed(seed)))
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(OUT),
           "--spawned-at", str(time.monotonic_ns())]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"{workload}: workload process exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"{workload}: workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    setups = []
    if not trace:
        setups = [_child(workload, seed, seconds, trace, True) for _ in range(SETUP_SAMPLES - 1)]
    result = _child(workload, seed, seconds, trace, False)
    if not trace:
        setups.append({"setup_s": result["metrics"]["setup_s"]["value"],
                       "setup_wall_s": result["notes"].pop("setup_wall_s")})
        result["metrics"]["setup_s"]["value"] = statistics.median(s["setup_s"] for s in setups)
        result["notes"]["setup_samples_s"] = [s["setup_s"] for s in setups]
        result["notes"]["setup_wall_samples_s"] = [s["setup_wall_s"] for s in setups]
    return result


def report(seed: int, result: dict):
    n, failed = result["attempted"], result["failed"]
    print(f"workload {result['workload']}  seed {seed}  PYTHONHASHSEED {hash_seed(seed)}  "
          f"inputs sha256 {result['inputs_sha256'][:16]}  ops {n}  failed {failed} "
          f"(failed_ratio {failed / n:.4f})")
    for name, m in result["metrics"].items():
        print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
    for key, value in result["notes"].items():
        print(f"  # {key}: {value}")
    for text, k in result["problems"].items():
        print(f"  ! {text}" + (f" (x{k})" if k > 1 else ""), file=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "ima" / "__init__.py").is_file():
        raise SystemExit(f"library source not found under {ROOT / 'src'}")

    names = NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    for result in results:
        report(args.seed, result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
