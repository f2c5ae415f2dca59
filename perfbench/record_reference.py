"""Record the reference digests the benchmark checks every output against.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Runs every corpus item of each workload once, in corpus order, and writes the
digest of each rendered output to reference/<workload>.json.  Run it only at
a commit whose outputs are known good: the benchmark then fails any later
commit whose output for some input is not byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import CORPUS_SEED, WORKLOADS, digest  # noqa: E402


def record(name: str) -> Path:
    workload = WORKLOADS[name]()
    workload.setup()
    digests = []
    for item in workload.corpus():
        result = workload.run(item)
        problem = workload.check(item, result)
        if problem:
            sys.exit(f"{name}: invariant fails, not recording: {problem}")
        digests.append(digest(workload.render(result)))
    path = HERE / "reference" / f"{name}.json"
    payload = {"workload": name, "corpus_seed": CORPUS_SEED, "digests": digests}
    path.write_text(json.dumps(payload, indent=0) + "\n", encoding="utf-8")
    return path


if __name__ == "__main__":
    for name in sys.argv[1:] or WORKLOADS:
        print(record(name))
