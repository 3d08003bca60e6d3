"""saddleloop benchmark: end-to-end metrics, or per-layer metrics from a
traced run, for one workload.

    python3 perfbench/run.py --workload census_scan [--seed N]
        [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  Every repetition runs in a fresh, single-
threaded interpreter (``perfbench/rep.py``); repetitions follow each
other until the next one would end after ``--seconds``, and at least one
(a traced run: one untraced and one traced) always runs.

Workloads (all single-process, closed loop, one repetition at a time):

* ``census_scan``: criterion 10's traffic.  Seeded random quadratic
  one-forms on the normal form (a=1, eps=1e-3), a 100-lane census each
  with T_max=60.  Many short independent lanes; bracket refinement is
  nearly absent.  Without --seed it replays criterion 10's own draws and
  checks each count against perfbench/census_reference.json.
* ``witness_census``: criterion 9, the committed two-cycle witness
  (160 lanes near the loop, T_max=80), with saddle traces, separatrix
  shifts, a serial refinement chain and a little quadrature.  It is a
  fixed point: it ignores --seed.
* ``first_order``: the first-order stack with no flow simulation, one
  seeded a in (0.1, 1.9) per item.  Quadrature-bound.

End-to-end metrics (--trace 0): setup_s, wall_s and cpu_s are medians
over repetitions, item_p95_s is pooled over all items of the run,
peak_rss_mb is the median peak resident memory and pass_frac the share
of output checks passed.  Times are host seconds rescaled to a reference
CPU speed sampled during the run (perfbench/hostspeed.py); the unscaled
medians are printed alongside.  Per-layer metrics (--trace 1) come from
traced repetitions of chunk 0 of the seed, alternated with untraced
ones; their work counts must repeat exactly.  Timers and counters are
process-local: the virtual machine the baseline was measured on exposes
no hardware counters and no system-wide tracing.

The last line of stdout is one JSON object: correct, attempted and
failed (output checks) and metrics.  The exit code is 1 if an output
check failed, 2 if the checkout holds no program to run.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("census_scan", "witness_census", "first_order")
DEADLINE_S = 170.0      # every run must end within 180 s

COUNT_NAMES = (
    "flowsim.integrate.calls", "flowsim.integrate.steps",
    "flowsim.integrate.segments", "flowsim.integrate.failed",
    "flowsim.FlowSpec.rhs.calls", "flowsim.return_map.calls",
    "flowsim.return_map.outcome.ok", "flowsim.return_map.outcome.escape",
    "flowsim.return_map.outcome.left_annulus",
    "flowsim.return_map.outcome.timeout", "flowsim.return_map.outcome.failed",
    "flowsim.census.calls", "flowsim.census.refine_maps",
    "abelian.jk_on_slice.calls", "abelian.triple.calls",
    "abelian.triple.unconverged", "abelian.appendix_oval_integral.calls",
    "ovals.slice_oval.calls", "melnikov.value.calls",
    "centroid.sample_curve.calls", "centroid.line_intersections.calls",
    "picard_fuchs.fundamental.calls",
)


def spawn(workload, seed, chunk, trace, started):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(os.getcwd(), "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.join(HERE, "rep.py"), workload,
            str(seed), str(chunk), repr(time.time()), str(int(trace))]
    left = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(left, 1.0))
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} repetition ran past the "
                 f"{DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        sys.exit(f"perfbench: {workload} repetition exited with "
                 f"{proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def p95(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def run_reps(workload, seed, seconds, trace):
    """Repetitions until the next would end after ``seconds``.  Untraced
    runs walk the seed's stream chunk by chunk; traced runs alternate an
    untraced and a traced repetition of chunk 0."""
    started = time.monotonic()
    reps, lengths = [], []
    while True:
        n = len(reps)
        t0 = time.monotonic()
        if trace:
            reps.append(spawn(workload, seed, 0, n % 2 == 1, started))
        else:
            reps.append(spawn(workload, seed, n, False, started))
        lengths.append(time.monotonic() - t0)
        if trace and len(reps) % 2 == 1:
            continue
        elapsed = time.monotonic() - started
        need = sum(lengths[-2:]) if trace else statistics.median(lengths)
        if elapsed + need > seconds:
            return reps


def end_to_end(reps):
    items = [t for r in reps for t in r["items_s"]]
    checks = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    stats = {
        "setup_s": ("s", [r["setup_s"] for r in reps]),
        "wall_s": ("s", [r["wall_s"] for r in reps]),
        "cpu_s": ("s", [r["cpu_s"] for r in reps]),
        "peak_rss_mb": ("MB", [r["peak_rss_mb"] for r in reps]),
    }
    metrics, notes = {}, []
    for name, (unit, values) in stats.items():
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": unit}
        notes.append(f"{name} median {med:.4f} {unit} "
                     f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}): "
                     + " ".join(f"{v:.4f}" for v in values))
    metrics["item_p95_s"] = {"value": p95(items), "unit": "s"}
    notes.append(f"item_p95_s {p95(items):.4f} s (n={len(items)} items, "
                 f"median {statistics.median(items):.4f} s): "
                 + " ".join(f"{v:.4f}" for v in items))
    raw = {k: statistics.median(r["raw"][k] for r in reps)
           for k in ("setup_s", "wall_s", "cpu_s")}
    notes.append("unscaled host seconds, medians: " + ", ".join(
        f"{k} {v:.4f}" for k, v in raw.items()) + "; item_p95_s "
        f"{p95([t for r in reps for t in r['raw']['items_s']]):.4f}")
    metrics["pass_frac"] = {"value": (checks - failed) / checks,
                            "unit": "frac"}
    notes.append(f"pass_frac {(checks - failed) / checks:.4f} frac "
                 f"({checks - failed} of {checks} output checks)")
    return metrics, notes


def per_layer(reps):
    """Counts from the first traced repetition; times are medians over
    traced repetitions, rescaled to reference speed by each repetition's
    own factor (scaled over raw wall time)."""
    plain = [r for r in reps if "trace" not in r]
    traced = [r for r in reps if "trace" in r]
    counts = traced[0]["trace"]["counts"]
    repeat = all(r["trace"]["counts"] == counts for r in traced)

    def scaled(key, name):
        return statistics.median(
            r["trace"][key].get(name, 0.0) * r["wall_s"] / r["raw"]["wall_s"]
            for r in traced)

    metrics = {}
    for name in COUNT_NAMES:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    for name in (f"{m}.{f}" for m, f in SPANS):
        metrics[name + ".self_s"] = {"value": scaled("self_s", name),
                                     "unit": "s"}
    lanes = counts.get("flowsim.census.grid_lanes", 0)
    metrics["flowsim.census.useful_ratio"] = {
        "value": counts.get("flowsim.census.grid_ok", 0) / lanes if lanes else 0.0,
        "unit": "frac"}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    metrics["trace.overhead_s"] = {
        "value": traced_wall - statistics.median(r["wall_s"] for r in plain),
        "unit": "s"}
    metrics["trace.top_span_share"] = {"value": statistics.median(
        r["trace"]["top_s"] / r["raw"]["wall_s"] for r in traced),
        "unit": "frac"}

    notes = [f"traced repetitions {len(traced)}, untraced {len(plain)}; "
             f"work counts repeat exactly: {repeat}"]
    maps = counts.get("flowsim.return_map.calls", 0)
    for name, per in (("flowsim.return_map", "return map"),
                      ("flowsim.census", "census"),
                      ("abelian.triple", "triple"),
                      ("centroid.sample_curve", "200-point curve"),
                      ("acceptance.criterion_9", "criterion 9")):
        calls = counts.get(name + ".calls", 0)
        if calls:
            notes.append(f"unit cost: {scaled('total_s', name) / calls:.6f} s "
                         f"per {per} ({calls} calls, inclusive)")
    if maps:
        notes.append(f"refinement share: {metrics['flowsim.census.refine_maps']['value']}"
                     f" of {maps} return maps")
    if counts.get("abelian.triple.calls"):
        notes.append(f"refinement share: {counts.get('melnikov.value.calls', 0)}"
                     f" Melnikov evaluations of {counts['abelian.triple.calls']} triples")
    bindings = traced[0]["trace"]["bindings"]
    notes += [f"{k} wrapped at {', '.join(v)}" for k, v in bindings.items()]
    return metrics, notes, repeat


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=-1,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "saddleloop", "__init__.py")):
        print("perfbench: run from the root of a saddleloop checkout "
              "(src/saddleloop not found)", file=sys.stderr)
        return 2

    reps = run_reps(args.workload, args.seed, args.seconds, args.trace)
    failures = [f for r in reps for f in r["failures"]]
    attempted = sum(r["attempted"] for r in reps)
    correct = not failures
    if args.trace:
        metrics, notes, repeat = per_layer(reps)
        attempted += 1
        if not repeat:
            failures.append("work counts differ between traced repetitions")
            correct = False
    else:
        metrics, notes = end_to_end(reps)
    v = reps[0]["versions"]
    print(f"# {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reps)} repetitions; python {v['python']}, numpy "
          f"{v['numpy']}, scipy {v['scipy']}, nproc {os.cpu_count()}; "
          "process-local timers and counters (no hardware counters, "
          "no system-wide tracing)")
    for line in notes:
        print("# " + line)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for f in failures:
        print("FAILED CHECK: " + f, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
