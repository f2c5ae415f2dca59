"""Print what the rewrite memos hold, from the repository root:

    python3 scripts/memo_census.py

Builds the four shared presets, then runs one pass of the rewrite-stream
corpus (imported from perfbench/workloads.py, which it does not change) on
their cold memos, then one pass of the phasespace-stream corpus (from the same
module), then `kappahopf suite all --format json` in the same process, then
the product of 4000 factors `P1`.  Engine calls are counted through wrappers
that only this script installs, around one pass each, and taken off after it.
It prints:
- the bytes `tracemalloc` sees held after the rewrite-stream pass, and its
  peak;
- the growth of GC-tracked objects over the pass, by type;
- the `_nf_word` calls (recursive ones included) and `_q_past_word` calls of
  that pass: a change that keeps the rewriting keeps the first count, and the
  second shows how often q-transport is asked for;
- the engine products of the phasespace-stream pass: the cross product calls
  `_product_into` only for a left operand term with a position letter;
- after each stage, the entry count of each memo of each preset, the young
  and old normal-form generations counted apart, the letters of the words both
  generations hold, and how many normal-form coefficients have exactly one
  addend; after the phasespace-stream pass, that includes the coproduct and
  product memo entries of the two phase-space presets, where sorted
  boost-free words take the closed-form coproduct and need no product.

It prints and gates nothing.
"""

import contextlib
import functools
import gc
import io
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from kappahopf import cli, grammar, presets  # noqa: E402
from workloads import ALL_PRESETS, PhasespaceStream, RewriteStream  # noqa: E402

MEMOS = {"nf young": "_nf_young", "nf old": "_nf_old", "qpast": "_qpast_cache",
         "product": "_product_cache", "coproduct": "_coproduct_cache",
         "pair": "_pair_cache", "action": "_action_cache"}
MIB = 1024 * 1024


@contextlib.contextmanager
def counting_calls(*names):
    """A Counter of the calls to each named AlgebraPreset method while the
    block runs, through wrappers taken off at its end."""
    calls = Counter()
    originals = {name: getattr(presets.AlgebraPreset, name) for name in names}

    def counted(name, method):
        @functools.wraps(method)
        def wrapper(*args):
            calls[name] += 1
            return method(*args)
        return wrapper

    for name, method in originals.items():
        setattr(presets.AlgebraPreset, name, counted(name, method))
    try:
        yield calls
    finally:
        for name, method in originals.items():
            setattr(presets.AlgebraPreset, name, method)


def tracked_types() -> Counter:
    gc.collect()
    return Counter(type(o).__name__ for o in gc.get_objects())


def print_memos(stage: str):
    print(f"memo entries after {stage}")
    header = "".join(f"{m:>10}" for m in MEMOS)
    print(f"  {'preset':18}{header}{'nf letters':>12}")
    single = total = 0
    for basis, sector in ALL_PRESETS:
        preset = presets.get_preset(basis, sector)
        counts = "".join(f"{len(getattr(preset, m)):>10}" for m in MEMOS.values())
        memo = {**preset._nf_old, **preset._nf_young}
        letters = sum(map(len, preset._nf_young)) + sum(map(len, preset._nf_old))
        print(f"  {basis.value + '/' + sector.value:18}{counts}{letters:>12}")
        for nf in memo.values():
            total += len(nf)
            single += sum(len(s) == 1 for s in nf.values())
    print(f"  normal-form coefficients with one addend: {single} of {total}")


def main():
    workload = RewriteStream()
    workload.setup()
    corpus = workload.corpus()
    before = tracked_types()
    tracemalloc.start()
    with counting_calls("_nf_word", "_q_past_word") as calls:
        for item in corpus:
            workload.run(item)
    held, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    growth = tracked_types() - before
    print(f"rewrite-stream pass: {len(corpus)} ops on cold memos")
    print(f"  engine calls: {calls['_nf_word']} _nf_word, {calls['_q_past_word']} _q_past_word")
    print(f"  tracemalloc: {held / MIB:.2f} MiB held after the pass, peak {peak / MIB:.2f} MiB")
    print(f"  GC-tracked objects: +{sum(growth.values())}")
    for name, n in growth.most_common(4):
        print(f"    {name:10} +{n}")
    print_memos("the rewrite-stream pass")
    workload = PhasespaceStream()
    corpus = workload.corpus()
    with counting_calls("_product_into") as calls:
        for item in corpus:
            workload.run(item)
    print(f"phasespace-stream pass: {len(corpus)} ops, {calls['_product_into']} _product_into calls")
    print_memos("the phasespace-stream pass")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["suite", "all", "--format", "json"])
    print(f"suite all exited {code}")
    print_memos("suite all")
    chain = grammar.eval_text(" ".join(["P1"] * 4000)).render()
    print(f"4000-factor P1 chain gave {chain}")
    print_memos("the 4000-factor P1 chain")


if __name__ == "__main__":
    main()
