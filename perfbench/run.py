"""Time-to-verdict benchmark for padicref.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; padicref is imported from its ``src``.
Every repetition runs in a fresh interpreter (``worker.py``), one at a
time, so each pays interpreter start and import like a user does and no
cache survives from one repetition to the next.

``--trace 0`` repeats the workload until ``--seconds`` would be exceeded
(at least twice), spawns a few extra set-up-only interpreters, and reports
the medians of ``verdict_s``, ``setup_s`` and ``peak_rss_mb``.
``--trace 1`` runs the workload once untraced and twice traced and reports
the per-layer metrics; it checks that the traced verdicts equal the
untraced ones, that exact counts repeat between the two traced runs, and
that every traced function predicted to move on this workload was called.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed or
raising known-answer check counts in ``failed``; so does a report body
that differs between repetitions.  When padicref cannot be run at all,
the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import MUST_CALL, MUST_NOT_CALL, SUITES, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

MIN_REPS = 2
SETUP_ONLY_SPAWNS = 5
WORKER_TIMEOUT_S = 150

CALLS_AND_SELF = ("padiclin.bruhat_cell_valuations", "princhecke.ps_evaluate_rows",
                  "shalikazeta.ag_intertwine_value",
                  "padiclin.iwahori_bruhat_decompose",
                  "padiclin.open_cell_factorize", "padiclin.lu_unit_lower",
                  "princhecke.hecke_apply", "branchfam.v_lambda_j",
                  "branchfam.kappa_family")
CALLS_ONLY = ("symring.SymElem.mul", "symring.SymElem.add",
              "symring.SymElem.rational", "symring.CycNum.mul",
              "famring.FamSeries.mul")
RATIOS = (("princhecke.ps_evaluate_rows", "nonzero_ratio"),
          ("padiclin.open_cell_factorize", "hit_ratio"))
INCLUSIVE = ("shalikazeta.zeta_iwahori_oracle", "shalikazeta.zeta_parahoric_oracle") \
    + tuple(f"cli.suite.{s}" for s in SUITES)


class BenchError(Exception):
    pass


def spawn(workload, seed, *extra):
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           *extra]
    start = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result["setup_end_wall"] - start
    result["wall_s"] = time.time() - start
    return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _tally(runs):
    """(attempted, failed) over the runs' checks, counting as one more check
    per run after the first that its result fingerprint equals the first's."""
    first = runs[0]["fingerprint"]
    mismatched = sum(1 for r in runs[1:] if r["fingerprint"] != first)
    if mismatched:
        sys.stderr.write("results differ between repetitions\n")
    return (len(runs) - 1 + sum(r["attempted"] for r in runs),
            mismatched + sum(r["failed"] for r in runs))


def measure(workload, seed, seconds, extra):
    start = time.monotonic()
    reps = []
    while True:
        reps.append(spawn(workload, seed, *extra))
        elapsed = time.monotonic() - start
        next_rep = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + next_rep > seconds:
            break
    setups = [r["setup_s"] for r in reps]
    setups += [spawn(workload, seed, "--setup-only")["setup_s"]
               for _ in range(SETUP_ONLY_SPAWNS)]
    attempted, failed = _tally(reps)
    metrics = {
        "verdict_s": _metric(statistics.median(r["verdict_s"] for r in reps), "s"),
        "setup_s": _metric(statistics.median(setups), "s"),
        "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in reps),
                               "MiB"),
    }
    print(f"{workload} seed={seed}: verdict_s per repetition "
          + " ".join(f"{r['verdict_s']:.3f}" for r in reps)
          + "; set-up_s " + " ".join(f"{s:.3f}" for s in setups))
    return attempted, failed, metrics


def _layer_metrics(traced, untraced):
    """Per-layer metrics: counts from the first traced run, times as medians."""
    counts = traced[0]["trace"]

    def seconds(name, key):
        return statistics.median(t["trace"][name][key] for t in traced)

    metrics = {}
    for name in CALLS_AND_SELF:
        metrics[f"{name}.calls"] = _metric(counts[name]["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(seconds(name, "self_s"), "s")
    for name, label in RATIOS:
        calls = counts[name]["calls"]
        ratio = counts[name]["positive"] / calls if calls else 0.0
        metrics[f"{name}.{label}"] = _metric(ratio, "ratio")
    for name in CALLS_ONLY:
        metrics[f"{name}.calls"] = _metric(counts[name]["calls"], "count")
    metrics["symring.self_s"] = _metric(statistics.median(
        sum(row["self_s"] for name, row in t["trace"].items()
            if name.startswith("symring.")) for t in traced), "s")
    for name in INCLUSIVE:
        metrics[f"{name}.s"] = _metric(seconds(name, "total_s"), "s")
    metrics["cli.cases"] = _metric(traced[0]["cases"], "count")
    metrics["trace.overhead_s"] = _metric(
        statistics.median(t["verdict_s"] for t in traced) - untraced["verdict_s"], "s")
    return metrics


def trace(workload, seed, extra):
    untraced = spawn(workload, seed, *extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    traced = [spawn(workload, seed, *extra, "--trace",
                    os.path.join(OUT_DIR, f"spans-{workload}-{k}.tsv"))
              for k in (1, 2)]
    attempted, failed = _tally([untraced] + traced)

    # exact counts repeat between the two traced runs
    first, second = traced[0]["trace"], traced[1]["trace"]
    attempted += 1
    exact = {name: (row["calls"], row["positive"]) for name, row in first.items()}
    if exact != {name: (row["calls"], row["positive"]) for name, row in second.items()} \
            or traced[0]["cases"] != traced[1]["cases"]:
        failed += 1
        sys.stderr.write("exact counts differ between traced runs\n")

    for name in MUST_CALL[workload]:
        attempted += 1
        if first[name]["calls"] == 0:
            failed += 1
            sys.stderr.write(f"{name} recorded no call on {workload}\n")
    for name in MUST_NOT_CALL[workload]:
        attempted += 1
        if first[name]["calls"] != 0:
            failed += 1
            sys.stderr.write(f"{name} was called on {workload}\n")
    print(f"{workload} seed={seed}: verdict_s untraced {untraced['verdict_s']:.3f}, "
          "traced " + " ".join(f"{t['verdict_s']:.3f}" for t in traced)
          + f"; spans in {OUT_DIR}")
    return attempted, failed, _layer_metrics(traced, untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--wrong-expected", action="store_true",
                        help="compare one result per repetition against a "
                             "deliberately wrong expected value")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    extra = ["--wrong-expected"] if args.wrong_expected else []
    try:
        if args.trace:
            attempted, failed, metrics = trace(args.workload, args.seed, extra)
        else:
            attempted, failed, metrics = measure(args.workload, args.seed,
                                                 args.seconds, extra)
    except BenchError as exc:
        sys.stderr.write(f"benchmark aborted: {exc}\n")
        return 1
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    print(f"  fail_ratio = {failed / attempted} ratio ({failed} of {attempted} checks)")
    sys.stdout.write(json.dumps({"correct": failed == 0, "attempted": attempted,
                                 "failed": failed, "metrics": metrics}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
