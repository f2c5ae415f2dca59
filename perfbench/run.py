"""kappahopf benchmark: one workload, one seed, for a given number of seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is one closed-loop client: each
round is a fresh interpreter (worker.py) that sets up, sends the workload's
ops one after the other and checks every output.  Every round of a run sends
the same ops in the same order; rounds follow each other for about S
seconds, and only one worker runs at a time.

Every time is reported at reference speed (calibrate.py): the measured time
times REF_UNIT_MS over the time of a fixed calibration unit run next to it.
On a shared host the machine's speed drifts by up to 2x, in phases from a
tenth of a second to minutes; the calibration units slow down with it, so
the ratio stays put.  An op's time is the median over the run's rounds of
its scaled time, and set-up time is the median over rounds, scaled by the
units run right after set-up.

--trace 0 reports the end-to-end metrics, from untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics of
the traced ones (medians per round) plus the tracing overhead.  Before the
result, the run prints one "meta" JSON line (machine facts and run facts)
and one line per metric; the last line is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REF_UNIT_MS  # noqa: E402  (neither imports kappahopf)
from tracer import metric_names  # noqa: E402

WORKLOADS = ("certificate", "rewrite-stream", "phasespace-stream", "numeric-sweep")
MIN_ROUNDS = 3
RUN_LIMIT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple(metric_names()) + (
    ("kinematics.rows_beyond_8b_tol.count", "count"),
    ("trace.overhead_pct", "%"),
)


class RoundError(Exception):
    pass


def run_round(
    workload: str, seed: int, trace: bool, limit: int, check: bool, timeout: float
) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    argv += [str(int(trace)), str(limit), str(int(check))]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise RoundError(f"worker did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready_at"] - launched
    return out


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def scaled_ms(r: dict) -> list[float]:
    """A round's op times at reference speed."""
    return [t * REF_UNIT_MS / u for t, u in zip(r["latencies_ms"], r["op_unit_ms"])]


def op_latencies_ms(rounds: list[dict]) -> list[float]:
    """Each op's median scaled time over the rounds (all send the same ops)."""
    return [statistics.median(x) for x in zip(*(scaled_ms(r) for r in rounds))]


def end_to_end(rounds: list[dict]) -> dict[str, float]:
    latencies = sorted(op_latencies_ms(rounds))
    wall = sum(latencies) / 1e3
    return {
        "setup_s": statistics.median(
            r["setup_s"] * REF_UNIT_MS / r["setup_unit_ms"] for r in rounds
        ),
        "wall_s": wall,
        "ops_per_s": len(latencies) / wall,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": nearest_rank(latencies, 99),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    out = {}
    for name, unit in PER_LAYER:
        values = [
            r["layers"][name] * (REF_UNIT_MS / r["round_unit_ms"] if unit == "s" else 1)
            for r in plain + traced
            if name in r["layers"]
        ]
        out[name] = statistics.median(values) if values else 0
    plain_s, traced_s = (sum(op_latencies_ms(rs)) for rs in (plain, traced))
    out["trace.overhead_pct"] = 100.0 * (traced_s / plain_s - 1.0)
    return out


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kappahopf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--limit", type=int, default=0, help="ops per round (smoke tests); 0 = all"
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kappahopf" / "__init__.py").is_file():
        print(f"error: no kappahopf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    started = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            use_trace = bool(args.trace) and len(plain) > len(traced)
            # the first round of each kind also checks the output invariants
            first = not (traced if use_trace else plain)
            timeout = RUN_LIMIT_S - (time.monotonic() - started)
            r = run_round(args.workload, args.seed, use_trace, args.limit, first, timeout)
            (traced if use_trace else plain).append(r)
            elapsed = time.monotonic() - started
            next_end = elapsed * (len(plain) + len(traced) + 1) / (len(plain) + len(traced))
            enough = len(plain) >= MIN_ROUNDS and (len(traced) >= MIN_ROUNDS or not args.trace)
            if next_end > RUN_LIMIT_S or (enough and next_end > args.seconds):
                break
    except RoundError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    if args.trace:
        metrics, units = per_layer(plain, traced), dict(PER_LAYER)
    else:
        metrics, units = end_to_end(plain), dict(END_TO_END)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 worker process at a time",
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "ops_per_round": rounds[0]["ops"],
        "round_wall_s": [round(r["wall_s"], 4) for r in plain],
        "round_setup_s": [round(r["setup_s"], 4) for r in plain],
        "round_unit_ms": [round(r["round_unit_ms"], 4) for r in plain],
        "ref_unit_ms": REF_UNIT_MS,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }
    print(json.dumps({"meta": meta}))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
