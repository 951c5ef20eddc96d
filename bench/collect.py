"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --workloads tm_eval,walks --seeds 1-10 --trace 0
    python3 bench/collect.py --seeds 1-10 --trace 0 --trace 1 --record "label" --commit abc1234

For every workload and mode it prints each metric's median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, the distance between
the quartiles as a share of the median.  ``--record`` appends the summary
to ``results.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
NAMES = ("tm_eval", "graph_eq", "laws", "walks")


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3, "unit": first["unit"],
                     "spread": (q3 - q1) / median if median else 0.0, "values": values}
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(NAMES))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, action="append", choices=(0, 1))
    p.add_argument("--record", metavar="LABEL")
    p.add_argument("--commit", default="unknown", help="library commit the numbers belong to")
    args = p.parse_args()
    seeds = _seeds(args.seeds)
    modes = args.trace or [0]

    summary: dict = {}
    for workload in args.workloads.split(","):
        for trace in modes:
            results = []
            for seed in seeds:
                started = time.monotonic()
                results.append(run_once(workload, seed, args.seconds, trace))
                print(f"{workload} trace={trace} seed={seed}: {time.monotonic() - started:.1f} s "
                      f"correct={results[-1]['correct']}", file=sys.stderr)
            stats = summarise(results)
            summary.setdefault(workload, {})["traced" if trace else "untraced"] = {
                "correct": all(r["correct"] for r in results),
                "attempted": [r["attempted"] for r in results],
                "failed": [r["failed"] for r in results],
                "metrics": stats,
            }
            print(f"\n{workload} ({'traced' if trace else 'untraced'}), seeds {args.seeds}")
            for name, s in stats.items():
                print(f"  {name:42s} median {s['median']:>12.6g} {s['unit']:6s} "
                      f"q1 {s['q1']:>12.6g}  q3 {s['q3']:>12.6g}  spread {s['spread']:.4f}")
                print("      " + " ".join(f"{v:.6g}" for v in s["values"]))

    if args.record:
        path = BENCH / "results.json"
        entries = json.loads(path.read_text()) if path.exists() else []
        entries.append({
            "label": args.record,
            "commit": args.commit,
            "date": time.strftime("%Y-%m-%d"),
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
            "seconds": args.seconds,
            "seeds": seeds,
            "workloads": summary,
        })
        path.write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()
