"""Relation tables and the normal-ordering engine for the four algebra presets.

Each preset pairs a basis of the momentum sector (bicrossproduct or standard)
with a sector (Poincare: rotations, boosts, momenta; phase space: positions,
momenta).  A preset's table maps every out-of-order adjacent generator pair
(hi, lo) to the correction E in  hi*lo = lo*hi + E.  All hyperbolic functions
of P0 are pre-expanded in the group-like q = exp(P0 / 2 kappa c):

    sinh(P0/kc)  = (q^2 - q^-2)/2
    cosh(P0/kc)  = (q^2 + q^-2)/2
    sinh(P0/2kc) = (q - q^-1)/2

q itself commutes with everything except x0 and the boosts:

    q^a x0  = x0 q^a + a*(i hbar / 2 kappa c) q^a
    q^a N_i = N_i q^a - a*(i / 2 kappa c) P_i q^a

Rewriting picks the leftmost out-of-order adjacent pair (hi, lo) and repeats
to a fixpoint.  Two kinds of step each stand for several leftmost-first steps:

- *Run transport.*  The momenta P0..P3 commute with each other, and so do
  x1..x3; each bracket of such a letter r with a lower letter lo (a position
  or a Lorentz generator below the momenta, x0 below x1..x3) is a polynomial
  in the class and q.  So lo acts as a derivation on a run of the class:
  when hi lies in a class C and lo below it, lo moves past the whole sorted
  run m of C-letters that ends at hi in one step,

      m lo = lo m + sum_r alpha_r (m - r) [r, lo],

  where alpha_r counts the letter r in m and (m - r) drops one r.  Each
  correction word is merged into m - r in sorted order, and its q power moves
  past the rest of the word by q-transport.  A preset decides from its own
  tables which (C, lo) pairs qualify: every pair of C-letters has a zero
  rule, no C-letter has a q-rule, and every correction word of (r, lo), for
  r in C, has C-letters only.  On such tables the step equals leftmost-first.
  The prefix up to hi is sorted and C is an interval of the letter order, so
  every letter left of m sorts below C.  Leftmost-first swaps lo past r_k,
  then r_k-1, ..., r_1 of m = r_1 ... r_k, and the step past r_t leaves the
  correction r_1 ... r_t-1 cword q^c r_t+1 ... r_k right.  q^c passes the
  C-letters unchanged, and the next leftmost inversions of that word are the
  zero-rule swaps that sort its C-block, which keep its normal form: that of
  left (m - r_t) cword, sorted, then q^c right.  Equal r_t give equal words,
  which alpha_r adds up exactly.  A copy whose tables fail the check keeps
  single swaps for the pairs it affects.
- *Commuting swaps.*  When (hi, lo) commutes (its rule is zero) and no run
  transport applies, lo moves left past the whole run of greater letters it
  commutes with in one step: those are the swaps leftmost-first would take
  next.

Normal forms are memoized per word, as the normal form of word * q^0: q^a
already sits at the right end, so word * q^a has the same normal form with a
added to every q-exponent, which callers add as they accumulate.

The normal-form memo has two generations, young and old (the 2Q policy of
T. Johnson and D. Shasha, VLDB 1994).  A lookup reads young, then old, and
copies an old hit into young; a result is stored in young once complete, and
a running count adds the letters of each word stored there.  Only at the
start of `_product_into`, the one way in from outside the rewrite recursion
(`normal_form` and `multiply` go through it), a young generation holding more
than NF_MEMO_LETTERS letters becomes old, a fresh young one starts and the
previous old one is dropped.  So the words recent requests read stay, the
words nobody reads again go, and each generation holds at most the budget
plus the words of one request.  A turnover never happens inside one
recursion: a rewrite reads the words it has just stored again (each
correction splices into the same left and right factors), so turning over
there would recompute them; between requests, a power's next factor still
finds the previous product's words in old.

Termination is proven by weight descent, checked when a preset is built: a
boost weighs 2, every other letter 1 and q nothing; every correction and
q-transport extra weighs less than what it replaces, and a swap removes one
inversion, so each rewrite lowers (weight, inversions); a run transport is a
sum of such rewrites.  Confluence is still certified by the Jacobi suite,
until `suite confluence` lands.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .elements import (
    BOOSTS,
    MOMENTA,
    Gen,
    Monomial,
    ROTATIONS,
    SPATIAL_P,
    SPATIAL_X,
    Element,
    accumulate,
)
from .errors import NonTerminationError, SectorError
from .scalars import Scalar

HALF = Fraction(1, 2)
# letters a young normal-form generation may hold before the next request from
# outside the rewrite recursion turns it over (see the module docstring)
NF_MEMO_LETTERS = 8192


class Basis(str, Enum):
    BICROSS = "bicross"
    STANDARD = "standard"


class Sector(str, Enum):
    POINCARE = "poincare"
    PHASESPACE = "phasespace"


def _eps(i: int, j: int, k: int) -> int:
    """Levi-Civita symbol on indices 1..3."""
    return (i - j) * (j - k) * (k - i) // 2


def _eps_sum(i: int, j: int, family, coeff: Scalar) -> Element:
    """coeff * eps_{i j k} family[k], summed over k."""
    return Element(
        {
            Monomial((family[k - 1],)): coeff if _eps(i, j, k) > 0 else -coeff
            for k in (1, 2, 3)
            if _eps(i, j, k)
        }
    )


# -- relation tables ---------------------------------------------------------


def _lorentz_rules(basis: Basis) -> dict:
    """Rotation and boost sector: classical except [N,N] in the standard basis."""
    i_ = Scalar.i()
    rules = {}
    # [M_b, M_a] = i eps_{b a k} M_k
    for b in (2, 3):
        for a in range(1, b):
            rules[(ROTATIONS[b - 1], ROTATIONS[a - 1])] = _eps_sum(b, a, ROTATIONS, i_)
    # [N_j, M_i] = i eps_{j i k} N_k   (from [M_i, N_j] = i eps_{i j k} N_k)
    for j in (1, 2, 3):
        for i in (1, 2, 3):
            rules[(BOOSTS[j - 1], ROTATIONS[i - 1])] = _eps_sum(j, i, BOOSTS, i_)
    # boosts among themselves
    for b in (2, 3):
        for a in range(1, b):
            if basis is Basis.BICROSS:
                # classical Lorentz: [N_b, N_a] = -i eps_{b a k} M_k
                rules[(BOOSTS[b - 1], BOOSTS[a - 1])] = _eps_sum(b, a, ROTATIONS, -i_)
            else:
                # [N_b, N_a] = -i eps_{b a k} (M_k cosh(P0/kc)
                #                              - P_k P_l M_l / 4(kappa c)^2)
                terms = []
                for k in (1, 2, 3):
                    e = _eps(b, a, k)
                    if not e:
                        continue
                    rot = ROTATIONS[k - 1]
                    cosh_c = Scalar.term(0, -Fraction(e, 2))
                    terms += [(Monomial((rot,), 2), cosh_c), (Monomial((rot,), -2), cosh_c)]
                    ppm_c = Scalar.term(0, Fraction(e, 4), kappa=-2, c=-2)
                    # words kept in written order: the engine normalizes them
                    terms += [
                        (Monomial((SPATIAL_P[k - 1], p, m)), ppm_c)
                        for p, m in zip(SPATIAL_P, ROTATIONS)
                    ]
                rules[(BOOSTS[b - 1], BOOSTS[a - 1])] = Element._wrap(accumulate({}, terms))
    return rules


def _momentum_lorentz_rules(basis: Basis) -> dict:
    i_ = Scalar.i()
    rules = {}
    # [P0, M_i] = 0 ; [P_j, M_i] = -i eps_{i j k} P_k
    for i in (1, 2, 3):
        rules[(Gen.P0, ROTATIONS[i - 1])] = Element.zero()
        for j in (1, 2, 3):
            rules[(SPATIAL_P[j - 1], ROTATIONS[i - 1])] = _eps_sum(
                i, j, SPATIAL_P, -i_
            )
    # [P0, N_i] = -i P_i
    for i in (1, 2, 3):
        rules[(Gen.P0, BOOSTS[i - 1])] = Element.term(
            Monomial((SPATIAL_P[i - 1],)), -i_
        )
    # [P_j, N_i] = -[N_i, P_j]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            terms = []
            if i == j:
                half_kc = Scalar.term(0, -HALF, kappa=1, c=1)
                if basis is Basis.BICROSS:
                    # [N_i, P_i] = i [ kc sinh(P0/kc) e^{-P0/kc} + P^2 / 2kc ]
                    #            = i [ kc (1 - q^-4)/2 + P^2 / 2kc ]
                    terms += [(Monomial(), half_kc), (Monomial((), -4), -half_kc)]
                    inv_2kc = Scalar.term(0, -HALF, kappa=-1, c=-1)
                    terms += [(Monomial((p, p)), inv_2kc) for p in SPATIAL_P]
                else:
                    # [N_i, P_i] = i kc sinh(P0/kc) = i kc (q^2 - q^-2)/2
                    terms += [(Monomial((), 2), half_kc), (Monomial((), -2), -half_kc)]
            if basis is Basis.BICROSS:
                # -(-i/kc) P_i P_j from the bicross boost-momentum relation
                word = tuple(sorted((SPATIAL_P[i - 1], SPATIAL_P[j - 1])))
                terms.append((Monomial(word), Scalar.term(0, 1, kappa=-1, c=-1)))
            rules[(SPATIAL_P[j - 1], BOOSTS[i - 1])] = Element._wrap(accumulate({}, terms))
    return rules


def _momentum_rules() -> dict:
    rules = {}
    ps = (Gen.P0, Gen.P1, Gen.P2, Gen.P3)
    for b in range(1, 4):
        for a in range(b):
            rules[(ps[b], ps[a])] = Element.zero()
    return rules


def _position_rules() -> dict:
    """kappa-Minkowski space: [x0, x_k] = -(i hbar / kappa c) x_k."""
    rules = {}
    for k in (1, 2, 3):
        rules[(SPATIAL_X[k - 1], Gen.X0)] = Element.term(
            Monomial((SPATIAL_X[k - 1],)), Scalar.term(0, 1, hbar=1, kappa=-1, c=-1)
        )
    for b in (2, 3):
        for a in range(1, b):
            rules[(SPATIAL_X[b - 1], SPATIAL_X[a - 1])] = Element.zero()
    return rules


def _phase_rules(basis: Basis) -> dict:
    """Cross relations between positions and momenta, per basis."""
    ih = Scalar.term(0, 1, hbar=1)
    rules = {}
    # [P0, x0] = i hbar ; [P0, x_k] = 0
    rules[(Gen.P0, Gen.X0)] = Element.from_scalar(ih)
    for k in (1, 2, 3):
        rules[(Gen.P0, SPATIAL_X[k - 1])] = Element.zero()
    for k in (1, 2, 3):
        # [P_k, x0] = -[x0, p_k]
        denom = 1 if basis is Basis.BICROSS else 2
        rules[(SPATIAL_P[k - 1], Gen.X0)] = Element.term(
            Monomial((SPATIAL_P[k - 1],)),
            Scalar.term(0, -Fraction(1, denom), hbar=1, kappa=-1, c=-1),
        )
        for l in (1, 2, 3):
            if k != l:
                rules[(SPATIAL_P[k - 1], SPATIAL_X[l - 1])] = Element.zero()
            elif basis is Basis.BICROSS:
                # [x_k, p_k] = i hbar
                rules[(SPATIAL_P[k - 1], SPATIAL_X[l - 1])] = Element.from_scalar(-ih)
            else:
                # [x_k, p_k] = i hbar q
                rules[(SPATIAL_P[k - 1], SPATIAL_X[l - 1])] = Element.term(
                    Monomial((), 1), -ih
                )
    return rules


def _q_rules(sector: Sector) -> dict[Gen, tuple[Scalar, tuple[Gen, ...]]]:
    """Per-generator data (lam, extra) with q^a g = g q^a + a*lam*extra*q^a."""
    if sector is Sector.POINCARE:
        return {
            BOOSTS[i - 1]: (
                Scalar.term(0, -HALF, kappa=-1, c=-1),
                (SPATIAL_P[i - 1],),
            )
            for i in (1, 2, 3)
        }
    return {Gen.X0: (Scalar.term(0, HALF, hbar=1, kappa=-1, c=-1), ())}


# -- preset ------------------------------------------------------------------


def _weight(word: tuple[Gen, ...]) -> int:
    """The termination weight: a boost weighs 2, every other letter 1."""
    return len(word) + sum(g in BOOSTS for g in word)


class AlgebraPreset:
    """One basis/sector choice with its rewrite table and memoized engine.

    The public products check that their operands are admissible; `_product`,
    `_product_into` and `_multiply_monomials` are for callers that already
    know it.  The normal-form memo holds plain term dicts, which nothing may
    change, in two generations: `_nf_young` takes every store and
    `_nf_letters` counts the letters of its keys; `_nf_old` is the generation
    before, read on a young miss.  They turn over only at the start of
    `_product_into`, so a value read within one request stays in young.
    """

    def __init__(self, basis: Basis, sector: Sector, rules, qrules):
        # the enum members themselves: the structure maps test them by identity
        self.basis = Basis(basis)
        self.sector = sector = Sector(sector)
        self.rules = rules
        self.qrules = qrules
        if sector is Sector.POINCARE:
            self.generators = ROTATIONS + BOOSTS + (Gen.P0,) + SPATIAL_P
        else:
            self.generators = (Gen.X0,) + SPATIAL_X + (Gen.P0,) + SPATIAL_P
        self.allowed = frozenset(self.generators)
        self._check_terminates()
        # the pairs whose rule is zero; built from this instance's own rules,
        # so a `with_rule_override` copy gets its own set
        self._commuting = frozenset(p for p, rule in rules.items() if rule.is_zero)
        # (hi, lo) -> the class of hi, for the pairs that qualify for run
        # transport (module docstring), checked on this instance's own tables
        self._transport = {}
        for cls in (MOMENTA, frozenset(SPATIAL_X)):
            if self.allowed >= cls and cls.isdisjoint(qrules) and all(
                (b, a) in self._commuting for b in cls for a in cls if b > a
            ):
                for lo in self.generators:
                    if lo < min(cls) and all(
                        cls.issuperset(w) for r in cls for w, _ in rules[r, lo].monomials()
                    ):
                        self._transport.update(((r, lo), cls) for r in cls)
        # word -> normal form of word * q^0 as a plain term dict, read in
        # place and never mutated; a commuting run's words share one dict
        self._nf_young: dict[tuple[Gen, ...], dict[Monomial, Scalar]] = {}
        self._nf_old: dict[tuple[Gen, ...], dict[Monomial, Scalar]] = {}
        self._nf_letters = 0
        self._qpast_cache: dict = {}
        # structure-map memos: monomial products (`_multiply_monomials`),
        # coproducts (`hopf.coproduct`), and, on a phase-space preset, the
        # duality pairing and the left action per (convention, p, x) monomial
        # pair (`crossproduct`); per instance, so a `with_rule_override` copy
        # and a fresh `get_preset` start cold
        self._product_cache: dict[tuple[Monomial, Monomial], Element] = {}
        self._coproduct_cache: dict = {}
        self._pair_cache: dict = {}
        self._action_cache: dict = {}

    def __repr__(self) -> str:
        return f"AlgebraPreset({self.basis.value}, {self.sector.value})"

    def with_rule_override(self, pair, element: Element) -> "AlgebraPreset":
        """Copy with one table entry replaced (fresh caches); for diagnostics."""
        if pair not in self.rules:
            raise KeyError(f"no rule for pair {pair}")
        rules = dict(self.rules)
        rules[pair] = element
        return AlgebraPreset(self.basis, self.sector, rules, self.qrules)

    def _check_terminates(self):
        """Raise unless every out-of-order pair of generators has a rule and
        every correction and q-rule extra weighs less than what it replaces."""
        for hi in self.generators:
            for lo in self.generators:
                if hi > lo and (hi, lo) not in self.rules:
                    raise SectorError(f"no rule for {hi.render()} {lo.render()} in {self!r}")
        for (hi, lo), rule in self.rules.items():
            self.check_admissible(rule)
            for mono in rule.monomials():
                if _weight(mono.word) >= _weight((hi, lo)):
                    raise NonTerminationError(mono, f"{hi.render()} {lo.render()}")
        for g, (_, extra) in self.qrules.items():
            if _weight(extra) >= _weight((g,)):
                raise NonTerminationError(Monomial(extra), f"q {g.render()}")

    # -- admissibility -------------------------------------------------------

    def check_admissible(self, *values):
        """SectorError at the first generator of elements or tensors (any slot) not admitted."""
        for v in values:
            for word, _ in v._terms if isinstance(v, Element) else chain.from_iterable(v._terms):
                if not self.allowed.issuperset(word):
                    g = next(g for g in word if g not in self.allowed)
                    raise SectorError(
                        f"generator {g.render()} is not admissible in the "
                        f"{self.sector.value} sector"
                    )

    # -- q transport ---------------------------------------------------------

    def _q_past_word(self, a: int, word: tuple[Gen, ...]):
        """Rewrite q^a * word as a sum of coeff * word' * q^a, like words merged.

        A word with no q-rule letter passes unchanged with no memo entry, and
        `_product_into` makes the same test before it calls.  Otherwise q^a
        moves right one letter at a time: each term w stays w g and, when g has
        a q-rule, adds a*lam*extra in place of g.  Words are merged per letter,
        so q x0^n keeps n + 1 terms, and the result is memoized per (a, word).
        """
        if a == 0 or self.qrules.keys().isdisjoint(word):
            return ((word, _ONE),)
        key = (a, word)
        terms = self._qpast_cache.get(key)
        if terms is None:
            terms = {(): _ONE}
            for g in word:
                qrule = self.qrules.get(g)
                grown = {w + (g,): s for w, s in terms.items()}
                if qrule is not None:
                    lam, extra = qrule
                    shifted = ((w + extra, s) for w, s in terms.items())
                    accumulate(grown, shifted, lam * Scalar.rational(a))
                terms = grown
            terms = self._qpast_cache[key] = tuple(terms.items())
        return terms

    # -- rewriting -----------------------------------------------------------

    def _nf_word(self, word: tuple[Gen, ...]) -> dict[Monomial, Scalar]:
        """Terms of the normal form of word * q^0, memoized per word; the dict
        is the memo's own, so callers read it and add their q-exponent with
        `_shifted_accumulate`, and copy it before changing it.  Only
        `_product_into` calls it from outside the recursion, after the memo's
        turnover check."""
        cached = self._nf_young.get(word)
        if cached is not None:
            return cached
        cached = self._nf_old.get(word)
        if cached is not None:
            self._nf_young[word] = cached
            self._nf_letters += len(word)
            return cached
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                break
        else:
            result = self._nf_young[word] = {_tuple_new(Monomial, (word, 0)): _ONE}
            self._nf_letters += len(word)
            return result
        hi, lo = word[i], word[i + 1]
        cls = self._transport.get((hi, lo))
        if cls is None and (hi, lo) in self._commuting:
            # word[:i + 1] is sorted, so the leftmost-first order would go
            # on swapping lo left past every greater letter it commutes with
            j = i
            while j and word[j - 1] > lo and (word[j - 1], lo) in self._commuting:
                j -= 1
            result = self._nf_word(word[:j] + (lo,) + word[j : i + 1] + word[i + 2 :])
        else:
            # lo moves left past the run m = word[j:i + 1]: the sorted run of
            # class letters that ends at hi, or hi alone outside a class;
            # m lo = lo m + sum_r alpha_r (m - r) [r, lo]
            j = i
            while cls and j and word[j - 1] in cls:
                j -= 1
            left, run, right = word[:j], word[j : i + 1], word[i + 2 :]
            result = dict(self._nf_word(left + (lo,) + run + right))
            for k, r in enumerate(run):
                terms = self.rules[r, lo].items()
                if not terms or k and run[k - 1] == r:
                    continue
                rest = run[:k] + run[k + 1 :]
                alpha = run.count(r)
                for (cword, cqexp), ccoeff in terms:
                    # splice: left * (m - r) * cword * q^cqexp * right
                    merged = left + (tuple(sorted(rest + cword)) if cls else cword)
                    if alpha > 1:
                        ccoeff = ccoeff * _count(alpha)
                    for rword, rcoeff in self._q_past_word(cqexp, right):
                        _shifted_accumulate(
                            result, self._nf_word(merged + rword), cqexp, ccoeff * rcoeff
                        )
        # cached only once complete, so an error above leaves no entry
        self._nf_young[word] = result
        self._nf_letters += len(word)
        return result

    def normal_form(self, e: Element) -> Element:
        self.check_admissible(e)
        return self._product(_UNIT, e)

    def multiply(self, a: Element, b: Element) -> Element:
        self.check_admissible(a, b)
        return self._product(a, b)

    def _product(self, a: Element, b: Element) -> Element:
        """Normal form of a * b for operands already checked admissible,
        accumulated in place into a fresh dict by `_product_into`."""
        return Element._wrap(self._product_into({}, a, b))

    def _product_into(self, acc: dict, a: Element, b: Element) -> dict:
        """acc += a * b in normal form, in place.

        A commutator or a longer sum of products fills one dict: a term to be
        subtracted is added with one operand negated.
        """
        # the one request from outside the rewrite recursion: the memo's turnover
        if self._nf_letters > NF_MEMO_LETTERS:
            self._nf_old = self._nf_young
            self._nf_young = {}
            self._nf_letters = 0
        for (w1, q1), c1 in a._terms.items():
            for (w2, q2), c2 in b._terms.items():
                c12 = c1 if c2 is _ONE else c1 * c2
                if q1 and not self.qrules.keys().isdisjoint(w2):
                    for word2, qc in self._q_past_word(q1, w2):
                        _shifted_accumulate(acc, self._nf_word(w1 + word2), q1 + q2, c12 * qc)
                else:
                    _shifted_accumulate(acc, self._nf_word(w1 + w2), q1 + q2, c12)
        return acc

    def _multiply_monomials(self, m1: Monomial, m2: Monomial) -> Element:
        """Normal form of m1 * m2 for admissible monomials, memoized per pair.

        For the tensor maps of `hopf`, which multiply the same few monomials
        over and over and check their operands on entry; `multiply` stays
        unmemoized, since arbitrary products rarely repeat and the memo would
        only grow.
        """
        key = (m1, m2)
        cached = self._product_cache.get(key)
        if cached is None:
            cached = self._product_cache[key] = self._product(
                Element._wrap({m1: _ONE}), Element._wrap({m2: _ONE})
            )
        return cached

    def commutator(self, a: Element, b: Element) -> Element:
        """[a, b] = ab - ba, both products accumulated in place into one dict,
        the second as b * (-a)."""
        self.check_admissible(a, b)
        return self._commutator(a, b)

    def _commutator(self, a: Element, b: Element) -> Element:
        """[a, b] for operands already checked admissible."""
        acc = self._product_into({}, a, b)
        return Element._wrap(self._product_into(acc, b, -a))


def _shifted_accumulate(acc: dict, nf: dict, shift: int, factor: Scalar) -> dict:
    """accumulate factor * nf * q^shift into acc, factor nonzero; nf holds the
    terms of the normal form of some word * q^0, and the shift keeps them
    distinct.  It keeps its own copy of `accumulate`'s loop because feeding
    `accumulate` a generator of shifted items made rewrite-stream's wall time
    5-6% slower (2 vCPU, Python 3.11)."""
    for mono, coeff in nf.items():
        if shift:
            mono = _tuple_new(Monomial, (mono[0], mono[1] + shift))
        if factor is not _ONE:
            coeff = coeff * factor
        prev = acc.get(mono)
        if prev is None:
            acc[mono] = coeff
        else:
            total = prev + coeff
            if total._store:
                acc[mono] = total
            else:
                del acc[mono]
    return acc


_ONE = Scalar.one()
_UNIT = Element.one()
# alpha_r of a run transport as a Scalar; counts past the cache are rebuilt
_count = lru_cache(maxsize=64)(Scalar.rational)
# unchecked Monomial constructor, only for words spliced from admissible pieces
_tuple_new = tuple.__new__


@lru_cache(maxsize=None)
def get_preset(basis: Basis, sector: Sector) -> AlgebraPreset:
    """Shared preset instances (warm rewrite caches across callers)."""
    basis = Basis(basis)
    sector = Sector(sector)
    if sector is Sector.POINCARE:
        rules = {**_lorentz_rules(basis), **_momentum_lorentz_rules(basis), **_momentum_rules()}
    else:
        rules = {**_position_rules(), **_phase_rules(basis), **_momentum_rules()}
    return AlgebraPreset(basis, sector, rules, _q_rules(sector))


def classical_limit(e: Element) -> Element:
    """Model kappa -> infinity: send q^n -> 1, then drop kappa^-1 terms."""
    acc: dict[Monomial, Scalar] = {}
    for mono, coeff in e.items():
        kept = Scalar(
            {triple: g for triple, g in coeff.items() if triple[1] >= 0}
        )
        if not kept.is_zero:
            accumulate(acc, [(Monomial(mono.word, 0), kept)])
    return Element._wrap(acc)
