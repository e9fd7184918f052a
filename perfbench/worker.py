"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N
        [--setup-only] [--trace SPANS_PATH] [--wrong-expected]

Imports padicref from the checkout's ``src``, generates the inputs from
the seed, then runs the verdict under the clock.  Prints one JSON line:
the wall-clock time at which set-up ended (the parent subtracts its own
spawn time), the verdict time, the check counts, a fingerprint of the
results, peak resident memory and, when traced, the per-name span
summary.  Exits 2 when padicref cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_PATH")
    parser.add_argument("--wrong-expected", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    try:
        import padicref.cli  # imports every layer
    except ImportError as exc:
        sys.stderr.write(f"cannot import padicref from {SRC}: {exc}\n")
        return 2
    if not os.path.abspath(padicref.cli.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"padicref was imported from outside {SRC}\n")
        return 2

    from workloads import WORKLOADS
    generate, verdict = WORKLOADS[args.workload]
    inputs = generate(args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    setup_end_wall = time.time()
    result = {"setup_end_wall": setup_end_wall}
    if not args.setup_only:
        start = time.perf_counter()
        out = verdict(inputs, args.wrong_expected)
        result["verdict_s"] = time.perf_counter() - start
        result.update(attempted=out.attempted, failed=out.failed,
                      fingerprint=out.fingerprint, cases=out.cases)
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.write(args.trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
