"""One benchmark round in a fresh interpreter: set up, run every op, check.

    python3 perfbench/worker.py WORKLOAD SEED TRACE LIMIT CHECK

Started by run.py, one at a time.  It imports kappahopf from the checkout's
src/ directory, builds the workload's presets, and notes the monotonic clock
when set-up is done (run.py measures set-up time from its own launch stamp).
Then it generates the inputs, sends them one after the other (closed loop,
one client), and checks every output against the recorded digests, and with
CHECK=1 against the workload's own invariant too, outside the timed region.
Calibration units (calibrate.py) run between the ops, outside the timed
region; each op's time is reported together with its local unit time.
The last line on stdout is one JSON object with the round's measurements.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

CAL_EDGE = 10  # calibration units before the first op and after the last
CAL_SLOTS = 100  # about this many units between the ops
CAL_WINDOW = 5  # units whose median is an op's local unit time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("trace", type=int, choices=(0, 1))
    parser.add_argument("limit", type=int, help="ops per round; 0 sends the whole corpus")
    parser.add_argument("check", type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (SRC / "kappahopf" / "__init__.py").is_file():
        print(f"kappahopf sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kappahopf

    if Path(kappahopf.__file__).resolve().parent != SRC / "kappahopf":
        print(f"imported kappahopf from {kappahopf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    from calibrate import unit_ms
    from workloads import WORKLOADS, digest, load_reference, order

    workload = WORKLOADS[args.workload]()
    workload.setup()
    ready_at = time.monotonic()

    corpus = workload.corpus()
    indices = order(len(corpus), args.seed)[: args.limit or None]
    reference = load_reference(workload.name, HERE / "reference")
    inputs = [corpus[i] for i in indices]

    run = workload.run
    clock = time.perf_counter
    # calibration units: a block after set-up, one before every `step`-th op
    # and a block after the last op; they are not part of the timed region
    units = [unit_ms() for _ in range(CAL_EDGE)]
    step = max(1, len(inputs) // CAL_SLOTS)
    results, latencies = [], []
    for k, item in enumerate(inputs):
        if k % step == 0:
            units.append(unit_ms())
        t = clock()
        try:
            result = run(item)
        except Exception as exc:  # an op that raises counts as failed
            result = exc
        latencies.append(clock() - t)
        results.append(result)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units += [unit_ms() for _ in range(CAL_EDGE)]
    # each op's local unit time: the median of the CAL_WINDOW units around
    # the one sent just before it
    half = CAL_WINDOW // 2
    op_unit_ms = []
    for k in range(len(inputs)):
        j = CAL_EDGE + k // step
        op_unit_ms.append(statistics.median(units[j - half : j + half + 1]))
    layers = tracer.stats() if tracer else {}

    failed = 0
    for i, item, result in zip(indices, inputs, results):
        if isinstance(result, Exception):
            problem = "".join(traceback.format_exception_only(result)).strip()
        elif digest(workload.render(result)) != reference[i]:
            problem = "output differs from the reference digest"
        else:
            problem = workload.check(item, result) if args.check else None
        if problem:
            failed += 1
            if failed <= 5:
                print(f"{workload.name} corpus item {i}: {problem}", file=sys.stderr)
    if args.check:
        layers.update(workload.observations())

    print(
        json.dumps(
            {
                "ready_at": ready_at,
                "wall_s": sum(latencies),
                "latencies_ms": [x * 1e3 for x in latencies],
                "op_unit_ms": op_unit_ms,
                "setup_unit_ms": statistics.median(units[:CAL_EDGE]),
                "round_unit_ms": statistics.median(units),
                "rss_mb": rss_mb,
                "ops": len(inputs),
                "failed": failed,
                "layers": layers,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
