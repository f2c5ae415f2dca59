"""The four benchmark workloads: their inputs, the op each input drives, and
the checks on each op's output.

Inputs come from a fixed corpus per workload, built by a generator seeded
with CORPUS_SEED, so that every input has a reference digest of its rendered
output, recorded in reference/<workload>.json by record_reference.py.  The run
seed sets the order in which the corpus is sent.  Every seed therefore does
the same total work, and the order decides which op fills each rewrite-cache
entry and so pays for it; that keeps run-to-run spread down to timing noise.

Functions are looked up on their kappahopf module at call time, so that the
tracer's wrappers are the ones called in a traced run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random

from kappahopf import cli, crossproduct, grammar, kinematics, presets
from kappahopf.elements import MOMENTA, POSITIONS, Gen, Monomial, Element
from kappahopf.presets import Basis, Sector
from kappahopf.scalars import Scalar

CORPUS_SEED = 1998

ALL_PRESETS = tuple((b, s) for b in Basis for s in Sector)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def order(n: int, seed: int) -> list[int]:
    """The corpus indices in the order a run with this seed sends them."""
    idx = list(range(n))
    random.Random(seed).shuffle(idx)
    return idx


class Workload:
    name = ""
    presets: tuple = ()

    def setup(self):
        for basis, sector in self.presets:
            presets.get_preset(basis, sector)

    def corpus(self) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def render(self, result) -> str:
        return result.render()

    def check(self, item, result) -> str | None:
        """An independent invariant of the output; a problem text, or None."""
        return None

    def observations(self) -> dict[str, float]:
        """Per-layer counts gathered by `check`, reported in traced runs."""
        return {}


# -- certificate ----------------------------------------------------------------


class Certificate(Workload):
    """`kappahopf suite all --format json`, once per fresh interpreter."""

    name = "certificate"
    presets = ALL_PRESETS
    argv = ("suite", "all", "--format", "json")

    def corpus(self):
        return [self.argv]

    def run(self, item):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(list(item))
        return rc, out.getvalue()

    def render(self, result):
        return result[1]

    def check(self, item, result):
        rc, text = result
        if rc != 0:
            return f"exit code {rc}"
        if json.loads(text).get("pass") is not True:
            return '"pass" is not true'
        return None


# -- rewrite-stream -------------------------------------------------------------

_POINCARE_GENS = ("M1", "M2", "M3", "N1", "N2", "N3", "P0", "P1", "P2", "P3")
_PHASE_GENS = ("x0", "x1", "x2", "x3", "P0", "P1", "P2", "P3")


def _anti_word(rng: random.Random, gens, lo: int, hi: int, max_lorentz: int) -> str:
    """A word sorted against the normal order, with a random q power in front."""
    n = rng.randint(lo, hi)
    letters: list[str] = []
    while len(letters) < n:
        g = rng.choice(gens)
        if g[0] in "MN" and sum(x[0] in "MN" for x in letters) >= max_lorentz:
            continue
        letters.append(g)
    letters.sort(key=gens.index, reverse=True)
    qn = rng.choice((-2, -1, 0, 0, 1, 2))
    return " ".join(([f"q^{qn}"] if qn else []) + letters)


class RewriteStream(Workload):
    """grammar.eval_text on anti-normal-ordered words and their commutators."""

    name = "rewrite-stream"
    presets = ALL_PRESETS
    size = 1000
    reparse_every = 10

    def __init__(self):
        self.reparsed = 0

    def corpus(self):
        rng = random.Random(CORPUS_SEED)
        items = []
        for _ in range(self.size):
            basis, sector = rng.choice(ALL_PRESETS)
            gens = _POINCARE_GENS if sector is Sector.POINCARE else _PHASE_GENS
            # at most two Lorentz letters per expression: each boost or
            # rotation multiplies the rewriting work, and with three or more
            # single expressions take seconds, so a few ops would be the run
            if rng.random() < 0.7:
                text = _anti_word(rng, gens, 3, 9, 2)
            else:
                a, b = (_anti_word(rng, gens, 1, 4, 1) for _ in range(2))
                text = f"[{a}, {b}]"
            items.append((text, basis, sector))
        return items

    def run(self, item):
        text, basis, sector = item
        return grammar.eval_text(text, basis, sector)

    def check(self, item, result):
        _, basis, sector = item
        element = result.as_element()
        if not all(m.is_sorted for m in element.monomials()):
            return "result has a monomial out of normal order"
        # re-parsing costs as much as the op, so only a share of ops (a
        # different share per seed) gets it
        self.reparsed += 1
        if self.reparsed % self.reparse_every == 0:
            again = grammar.eval_text(result.render(), basis, sector).as_element()
            if again != element:
                return "rendering does not re-parse to the same element"
        return None


# -- phasespace-stream -----------------------------------------------------------

_XS = (Gen.X0, Gen.X1, Gen.X2, Gen.X3)
_PS = (Gen.P0, Gen.P1, Gen.P2, Gen.P3)


def _x_before_p(rng: random.Random, degree: int, min_x: int = 0):
    """Position word, momentum word and q power of an x-before-P monomial."""
    nx = rng.randint(min_x, degree)
    xw = tuple(sorted(rng.choice(_XS) for _ in range(nx)))
    pw = tuple(sorted(rng.choice(_PS) for _ in range(degree - nx)))
    return xw, pw, rng.choice((-2, -1, 0, 1, 2))


def _term(word, qexp, coeff) -> Element:
    return Element.term(Monomial(word, qexp), coeff)


class PhasespaceStream(Workload):
    """cross_multiply, pair and left_action on x-before-P monomials of degree <= 4."""

    name = "phasespace-stream"
    presets = tuple((b, Sector.PHASESPACE) for b in Basis)
    size = 1000

    def corpus(self):
        rng = random.Random(CORPUS_SEED)
        items = []
        for _ in range(self.size):
            ctx = crossproduct.PairingContext(rng.choice(tuple(Basis)))
            coeff = Scalar.rational(rng.randint(-3, 3) or 1, rng.randint(1, 4))
            r = rng.random()
            if r < 1 / 3:
                xa, pa, qa = _x_before_p(rng, rng.randint(1, 4))
                xb, pb, qb = _x_before_p(rng, rng.randint(1, 4))
                items.append(
                    ("cross_multiply", _term(xa + pa, qa, coeff), _term(xb + pb, qb, Scalar.one()), ctx)
                )
            else:
                # one monomial of degree <= 4, split into its momentum and
                # position parts: <p | x> or p |> x
                xw, pw, qn = _x_before_p(rng, rng.randint(1, 4), min_x=1)
                op = "pair" if r < 2 / 3 else "left_action"
                items.append((op, _term(pw, qn, coeff), _term(xw, 0, Scalar.one()), ctx))
        return items

    def run(self, item):
        op, a, b, ctx = item
        return getattr(crossproduct, op)(a, b, ctx)

    def check(self, item, result):
        if isinstance(result, Scalar):
            return None
        for mono in result.monomials():
            seen_p = False
            for g in mono.word:
                if g in MOMENTA:
                    seen_p = True
                elif g in POSITIONS and seen_p:
                    return f"monomial {mono.render()} is not in x-before-P order"
        return None


# -- numeric-sweep -----------------------------------------------------------------

_COLUMNS = ("kappa", "c", "hbar", "M", "P", "value", "residual")
_EPS = 2.0**-52


class NumericSweep(Workload):
    """sweep_rows over kappa in [1, 1e12], both quantities, seeded M and P.

    Inputs stay inside the README's documented range: M and P log-uniform in
    [1e-3, 1e3], kappa swept within [1, 1e12].  The extreme inputs that
    overflow today (`--kappa 1e-200 --M 1e200` and the others listed in
    ROADMAP aim 3) are left out; they belong to a fuzz test, not to a timing.
    """

    name = "numeric-sweep"
    size = 1000

    def __init__(self):
        self.rows_beyond_8b = 0

    def corpus(self):
        rng = random.Random(CORPUS_SEED)
        items = []
        for _ in range(self.size):
            base = kinematics.KinematicParams(
                kappa=1.0, M=10 ** rng.uniform(-3, 3), Pvec=10 ** rng.uniform(-3, 3)
            )
            lo, hi = 10 ** rng.uniform(0, 4), 10 ** rng.uniform(8, 12)
            quantity = rng.choice(("mass-shell", "bound"))
            items.append(("kappa", lo, hi, rng.randint(16, 192), base, quantity))
        return items

    def run(self, item):
        return kinematics.sweep_rows(*item)

    def render(self, result):
        return "\n".join(",".join(cli.fmt(row[c]) for c in _COLUMNS) for row in result)

    def check(self, item, result):
        quantity = item[5]
        for row in result:
            value, residual = row["value"], row["residual"]
            if not (math.isfinite(value) and math.isfinite(residual)):
                return "non-finite value or residual"
            m2, p2 = row["M"] ** 2, (row["P"] / row["c"]) ** 2
            if quantity == "bound":
                if value < 0.5 * row["hbar"] or residual < 0:
                    return f"bound {value} below hbar/2"
                continue
            if value < 1.0:
                return f"on-shell q = {value} < 1"
            # q = s + sqrt(1 + s^2) solves q - 1/q = 2s exactly; a few ulp of q
            s = math.sqrt(m2 + p2) / (2 * row["kappa"])
            if abs(value - 1.0 / value - 2.0 * s) > 8 * _EPS * value:
                return f"q = {value} does not solve q - 1/q = 2s"
            # criterion 8b's momentum-scaled tolerance; its residual loses all
            # digits to cancellation when q is within ~1e-8 of 1 (large kappa),
            # a known defect, so it is counted and not failed
            if abs(residual) >= 1e-12 * max(1.0, m2, p2):
                self.rows_beyond_8b += 1
        return None

    def observations(self):
        return {"kinematics.rows_beyond_8b_tol.count": self.rows_beyond_8b}


WORKLOADS = {
    w.name: w for w in (Certificate, RewriteStream, PhasespaceStream, NumericSweep)
}


def load_reference(name: str, ref_dir) -> list[str]:
    with open(ref_dir / f"{name}.json", encoding="utf-8") as fh:
        data = json.load(fh)
    if data["corpus_seed"] != CORPUS_SEED:
        raise ValueError(f"reference for {name} was recorded from another corpus")
    return data["digests"]
