"""One workload in one fresh process; started by ``run.py``.

The process imports the library from the checkout's ``src``, builds the
workload's inputs from the seed (that is its set-up), then either stops
there (``--setup-only``), runs the timed closed loop (``--trace 0``), or
runs a fixed number of passes both untraced and traced (``--trace 1``).
It prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_OPS = 100  # so the 90th percentile has at least ten samples beyond it
CALIBRATE_EVERY_NS = 20_000_000  # op time between two speed samples
CALIBRATION_SIDE = 8  # calibration samples on each side of an op that scale it


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=int, required=True, help="time.monotonic_ns() of the parent at spawn")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--out-dir", type=Path, required=True)
    return p.parse_args()


def _import_library():
    sys.path.insert(0, str(SRC))
    import ima

    where = Path(ima.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"imported ima from {where}, not from {SRC}")


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
        h.update(b"\0")
    return h.hexdigest()


def _code_digest() -> str:
    files = sorted(SRC.glob("ima/*.py")) + sorted(BENCH.glob("*.py"))
    return _digest(f"{f.relative_to(ROOT)}\n{f.read_text()}" for f in files)


class Record:
    __slots__ = ("key", "fingerprint", "error", "ns")

    def __init__(self, key, fingerprint, error, ns):
        self.key, self.fingerprint, self.error, self.ns = key, fingerprint, error, ns


def run_ops(w, ops, call, calibration=None, done=0):
    """Run ``ops`` one at a time through ``call(key, op)``; returns the
    records and the loop's wall time without the fingerprinting of outputs
    between ops.  With a ``calibration`` list, a :func:`speed.sample` is
    appended to it as (ops run before it, counting ``done`` earlier ones,
    its ns) before the first op and whenever ``CALIBRATE_EVERY_NS`` of op
    time has passed since the last one; its time is not loop time."""
    records = []
    clock = time.perf_counter_ns
    side = 0
    since = CALIBRATE_EVERY_NS
    start = clock()
    for op in ops:
        if calibration is not None and since >= CALIBRATE_EVERY_NS:
            t0 = clock()
            calibration.append((done + len(records), speed.sample()))
            since = 0
            side += clock() - t0
        key = w.key(op)
        t0 = clock()
        try:
            out = call(key, op)
            error = None
        except Exception as e:  # the op failed; counted, reported, not fatal
            out, error = None, f"{type(e).__name__}: {str(e)[:200]}"
        t1 = clock()
        fingerprint = None if error else w.fingerprint(op, out)
        del out
        records.append(Record(key, fingerprint, error, t1 - t0))
        since += t1 - t0
        side += clock() - t1
    return records, clock() - start - side


def timed_loop(w, seconds: float):
    """Whole passes until at least ``seconds`` of loop time and MIN_OPS ops,
    with calibration samples between ops and one after the last."""
    records, loop_ns, calibration = [], 0, []
    for ops in w.schedule():
        got, took = run_ops(w, ops, lambda key, op: w.run(op), calibration, len(records))
        records += got
        loop_ns += took
        if loop_ns >= seconds * 1e9 and len(records) >= MIN_OPS:
            calibration.append((len(records), speed.sample()))
            return records, loop_ns, calibration


def normalised_latencies(records, calibration) -> list[float]:
    """Each op's latency in ns at the reference speed: its wall time scaled
    by the median of the ``2 * CALIBRATION_SIDE`` calibration samples
    nearest it, half taken before it and half after (fewer on one side at
    the ends of the run).  One sample varies by a third from the next, so a
    single pair of neighbours would add noise of its own; the median of
    sixteen follows the machine's phases, which last seconds."""
    samples = [ns for _, ns in calibration]
    width = min(2 * CALIBRATION_SIDE, len(samples))
    out = []
    k = 0
    for i, r in enumerate(records):
        while calibration[k + 1][0] <= i:
            k += 1
        lo = max(0, min(k + 1 - CALIBRATION_SIDE, len(samples) - width))
        out.append(speed.normalise(r.ns, statistics.median(samples[lo:lo + width])))
    return out


def verify(w, records):
    """Check every record against the workload's reference; returns
    (failed ops, problems that make the run incorrect)."""
    refs: dict = {}
    failed = 0
    problems: dict[str, int] = {}

    def note(text):
        problems[text] = problems.get(text, 0) + 1

    for r in records:
        if r.error:
            failed += 1
            if not w.may_raise(r.key):
                note(f"op {r.key} raised {r.error}")
            continue
        if r.key not in refs:
            try:
                refs[r.key] = w.reference(r.key)
            except Exception as e:  # a reference that fails cannot vouch for the op
                refs[r.key] = (None, [f"reference raised {type(e).__name__}: {e}"])
        expected, ref_problems = refs[r.key]
        for text in ref_problems:
            note(f"op {r.key}: {text}")
        if ref_problems or not w.check(r.key, r.fingerprint, expected):
            failed += 1
            note(f"op {r.key} output does not match its reference")
    return failed, problems


def percentile(records, latencies, q: float):
    """Nearest-rank percentile of ``latencies`` in ms, and the op that sits
    there; a failed op is slower than every successful one and reads as
    the sum of all latencies."""
    ranked = sorted(zip(records, latencies), key=lambda p: math.inf if p[0].error else p[1])
    at, ns = ranked[max(1, math.ceil(q * len(ranked))) - 1]
    return (sum(latencies) if at.error else ns) / 1e6, at.key


def end_to_end(w, seconds: float, setup_s: float):
    records, loop_ns, calibration = timed_loop(w, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, problems = verify(w, records)
    latencies = normalised_latencies(records, calibration)
    n = len(records)
    raised = sum(1 for r in records if r.error)
    p50, p50_op = percentile(records, latencies, 0.5)
    p90, p90_op = percentile(records, latencies, 0.9)
    raw = [r.ns for r in records]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / (sum(latencies) / 1e9), "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    cal_ms = sorted(ns / 1e6 for _, ns in calibration)
    notes = {"failed_ratio": failed / n, "raised": raised, "loop_s": loop_ns / 1e9,
             "wall_ops_per_s": n / (loop_ns / 1e9),
             "wall_op_p50_ms": percentile(records, raw, 0.5)[0],
             "wall_op_p90_ms": percentile(records, raw, 0.9)[0],
             "calibration_ms_min_median_max": [cal_ms[0], statistics.median(cal_ms), cal_ms[-1]],
             "calibration_samples": len(calibration),
             "ops_per_pass": _pass_size(w), "p50_op": w.describe(p50_op),
             "p90_op": w.describe(p90_op)}
    return n, failed, problems, metrics, notes


def _pass_size(w) -> int:
    return len(next(iter(w.schedule())))


def _first_passes(w, count: int) -> list:
    out = []
    for _, ops in zip(range(count), w.schedule()):
        out += ops
    return out


def per_layer(w, seed: int, out_dir: Path):
    """One untraced warm-up pass, then each of the first ``w.trace_passes``
    passes once untraced and once traced, in the order U T, T U, U T, ...
    so that a drift in machine speed favours neither; tracing_overhead is
    the ratio of the two loop times, each at reference speed by the median
    of the calibration samples taken between its ops."""
    import tracing

    tracer = tracing.Tracer(BENCH)
    tracer.install()
    untraced = lambda key, op: w.run(op)  # noqa: E731
    traced_call = lambda key, op: tracer.run_op(key, w.run, op)  # noqa: E731
    run_ops(w, _first_passes(w, 1), untraced)
    plain, traced, loop_ns = [], [], {untraced: 0, traced_call: 0}
    calibration: dict = {untraced: [], traced_call: []}
    for i, plain_ops, traced_ops in zip(range(w.trace_passes), w.schedule(), w.schedule()):
        legs = [(plain, plain_ops, untraced), (traced, traced_ops, traced_call)]
        for records, ops, call in legs if i % 2 == 0 else legs[::-1]:
            got, took = run_ops(w, ops, call, calibration[call], len(records))
            records += got
            loop_ns[call] += took
    tracer.write(out_dir / f"spans-{w.name}.tsv")

    failed, problems = verify(w, traced)
    if [(r.fingerprint, r.error is None) for r in plain] != [(r.fingerprint, r.error is None) for r in traced]:
        problems["traced outputs differ from untraced outputs"] = 1

    calls = tracer.calls
    compose_calls = tracer.counts["automata.Rel.compose.calls"]
    for name in sorted(w.fires):
        if calls[name] == 0:
            problems[f"layer {name} never fired on {w.name}"] = 1
    for name in sorted(w.silent):
        if calls[name]:
            problems[f"layer {name} fired {calls[name]} times on {w.name}"] = 1
    if "automata.trace_automaton" in w.silent and compose_calls:
        problems[f"Rel.compose fired {compose_calls} times on {w.name}"] = 1
    if "automata.trace_automaton" in w.fires and not compose_calls:
        problems[f"Rel.compose never fired on {w.name}"] = 1

    counts = tracer.exact_counts()
    counts_file = out_dir / f"counts-{w.name}-{seed}-{_code_digest()[:16]}.json"
    if counts_file.exists():
        before = json.loads(counts_file.read_text())
        changed = sorted(k for k in counts if before.get(k) != counts[k])
        if changed:
            problems[f"counts differ from an earlier traced run on seed {seed}: {changed}"] = 1
    else:
        counts_file.write_text(json.dumps(counts, indent=1, sort_keys=True) + "\n")

    speeds = {call: statistics.median(ns for _, ns in samples) for call, samples in calibration.items()}
    metrics = tracer.metrics(speeds[traced_call])
    at_reference = {call: speed.normalise(loop_ns[call], speeds[call]) for call in speeds}
    metrics["tracing_overhead"] = (at_reference[traced_call] / at_reference[untraced], "ratio")
    shared = {name: sites for name, sites in tracer.bindings.items() if len(sites) > 1}
    notes = {"traced_passes": w.trace_passes, "spans": len(tracer.spans),
             "bindings_shared": shared}
    return len(traced), failed, problems, metrics, notes


def main():
    args = _args()
    _import_library()
    import workloads

    w = workloads.WORKLOADS[args.workload](args.seed)
    setup_wall_s = (time.monotonic_ns() - args.spawned_at) / 1e9
    setup_s = speed.normalise(setup_wall_s, speed.current())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return
    digest = _digest(w.digest_items())
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        n, failed, problems, metrics, notes = per_layer(w, args.seed, args.out_dir)
    else:
        n, failed, problems, metrics, notes = end_to_end(w, args.seconds, setup_s)
        notes["setup_wall_s"] = setup_wall_s
    print(json.dumps({
        "workload": args.workload,
        "inputs_sha256": digest,
        "attempted": n,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }))


if __name__ == "__main__":
    main()
