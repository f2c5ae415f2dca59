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

Rewriting picks the leftmost out-of-order adjacent pair and repeats to a
fixpoint.  When that pair commutes (its rule is zero), the smaller letter
moves left past the whole run of greater letters it commutes with in one
step: those are the swaps the leftmost-first order would take next.  Normal
forms are memoized per word, as the normal form of word * q^0: q^a already
sits at the right end, so word * q^a has the same normal form with a added
to every q-exponent, which callers add as they accumulate.  The tables are
PBW-like; termination and confluence are certified empirically by the Jacobi
and associativity suites rather than proven.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache

from .elements import (
    BOOSTS,
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

DEFAULT_STEP_CAP = 10**6


class AlgebraPreset:
    """One basis/sector choice with its rewrite table and memoized engine."""

    def __init__(self, basis: Basis, sector: Sector, rules, qrules, step_cap=DEFAULT_STEP_CAP):
        self.basis = basis
        self.sector = sector
        self.rules = rules
        self.qrules = qrules
        self.step_cap = step_cap
        if sector is Sector.POINCARE:
            self.generators = ROTATIONS + BOOSTS + (Gen.P0,) + SPATIAL_P
        else:
            self.generators = (Gen.X0,) + SPATIAL_X + (Gen.P0,) + SPATIAL_P
        self.allowed = frozenset(self.generators)
        # the pairs whose rule is zero; built from this instance's own rules,
        # so a `with_rule_override` copy gets its own set
        self._commuting = frozenset(p for p, rule in rules.items() if rule.is_zero)
        self._nf_cache: dict[tuple[Gen, ...], Element] = {}
        self._qpast_cache: dict = {}
        # structure-map memos: monomial products (`multiply_monomials`),
        # coproducts (`hopf.coproduct`), and, on a phase-space preset, the
        # duality pairing and the left action per (convention, p, x) monomial
        # pair (`crossproduct`); per instance, so a `with_rule_override` copy
        # and a fresh `get_preset` start cold
        self._product_cache: dict[tuple[Monomial, Monomial], Element] = {}
        self._coproduct_cache: dict = {}
        self._pair_cache: dict = {}
        self._action_cache: dict = {}
        self._steps = 0

    def __repr__(self) -> str:
        return f"AlgebraPreset({self.basis.value}, {self.sector.value})"

    def with_rule_override(self, pair, element: Element) -> "AlgebraPreset":
        """Copy with one table entry replaced (fresh caches); for diagnostics."""
        if pair not in self.rules:
            raise KeyError(f"no rule for pair {pair}")
        rules = dict(self.rules)
        rules[pair] = element
        return AlgebraPreset(self.basis, self.sector, rules, self.qrules, self.step_cap)

    # -- admissibility -------------------------------------------------------

    def check_admissible(self, e: Element):
        for mono in e.monomials():
            for g in mono.word:
                if g not in self.allowed:
                    raise SectorError(
                        f"generator {g.render()} is not admissible in the "
                        f"{self.sector.value} sector"
                    )

    # -- q transport ---------------------------------------------------------

    def _q_past_word(self, a: int, word: tuple[Gen, ...]):
        """Rewrite q^a * word as sum of coeff * word' * q^a."""
        if a == 0 or not word:
            return ((word, Scalar.one()),)
        key = (a, word)
        cached = self._qpast_cache.get(key)
        if cached is not None:
            return cached
        g, rest = word[0], word[1:]
        tail = self._q_past_word(a, rest)
        out = [((g,) + w, s) for w, s in tail]
        qrule = self.qrules.get(g)
        if qrule is not None:
            lam, extra = qrule
            factor = lam * Scalar.rational(a)
            out.extend((extra + w, s * factor) for w, s in tail)
        result = tuple(out)
        self._qpast_cache[key] = result
        return result

    # -- rewriting -----------------------------------------------------------

    def _nf_word(self, word: tuple[Gen, ...]) -> Element:
        """Normal form of word * q^0, memoized per word; callers add their
        q-exponent with `_shifted_accumulate`."""
        cached = self._nf_cache.get(word)
        if cached is not None:
            if cached is _IN_PROGRESS:
                raise NonTerminationError(Monomial(word), self._steps)
            return cached
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                break
        else:
            result = Element._wrap({_tuple_new(Monomial, (word, 0)): _ONE})
            self._nf_cache[word] = result
            return result
        self._nf_cache[word] = _IN_PROGRESS
        try:
            self._steps += 1
            if self._steps > self.step_cap:
                raise NonTerminationError(Monomial(word), self._steps)
            hi, lo = word[i], word[i + 1]
            if (hi, lo) in self._commuting:
                # word[:i + 1] is sorted, so the leftmost-first order would go
                # on swapping lo left past every greater letter it commutes with
                j = i
                while j and word[j - 1] > lo and (word[j - 1], lo) in self._commuting:
                    j -= 1
                result = self._nf_word(word[:j] + (lo,) + word[j : i + 1] + word[i + 2 :])
            else:
                left, right = word[:i], word[i + 2 :]
                rule = self.rules.get((hi, lo))
                if rule is None:
                    raise SectorError(
                        f"no rewrite rule for pair ({hi.render()}, {lo.render()}) in "
                        f"the {self.sector.value} sector"
                    )
                acc = dict(self._nf_word(left + (lo, hi) + right)._terms)
                for (cword, cqexp), ccoeff in rule.items():
                    # splice: left * cword * q^cqexp * right
                    for rword, rcoeff in self._q_past_word(cqexp, right):
                        _shifted_accumulate(
                            acc, self._nf_word(left + cword + rword), cqexp, ccoeff * rcoeff
                        )
                result = Element._wrap(acc)
        except Exception:
            self._nf_cache.pop(word, None)
            raise
        self._nf_cache[word] = result
        return result

    def normal_form(self, e: Element) -> Element:
        self.check_admissible(e)
        self._steps = 0
        acc: dict[Monomial, Scalar] = {}
        for (word, qexp), coeff in e.items():
            _shifted_accumulate(acc, self._nf_word(word), qexp, coeff)
        return Element._wrap(acc)

    def multiply(self, a: Element, b: Element) -> Element:
        self.check_admissible(a)
        self.check_admissible(b)
        return self._product(a, b)

    def _product(self, a: Element, b: Element) -> Element:
        """Normal form of a * b for operands already checked admissible,
        accumulated in place into a fresh dict by `_product_into`."""
        return Element._wrap(self._product_into({}, a, b, 1))

    def _product_into(self, acc: dict, a: Element, b: Element, sign: int) -> dict:
        """acc += sign * a * b in normal form, in place; sign is +1 or -1.

        The sign is folded into the coefficient c1 * c2 once per operand-term
        pair, so a commutator or a longer signed sum of products fills one
        dict with no intermediate value negated or copied.
        """
        self._steps = 0
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                c12 = c1 * c2 if sign > 0 else -(c1 * c2)
                for word2, qc in self._q_past_word(m1.qexp, m2.word):
                    nf = self._nf_word(m1.word + word2)
                    _shifted_accumulate(acc, nf, m1.qexp + m2.qexp, c12 * qc)
        return acc

    def multiply_monomials(self, m1: Monomial, m2: Monomial) -> Element:
        """Normal form of m1 * m2, memoized per monomial pair.

        For the structure maps, which multiply the same few monomials over and
        over; `multiply` stays unmemoized, since arbitrary products rarely
        repeat and the memo would only grow.  A miss goes through the checked
        `multiply`, since a hand-built tensor may carry a generator from
        outside the sector.
        """
        key = (m1, m2)
        cached = self._product_cache.get(key)
        if cached is None:
            cached = self.multiply(
                Element.term(m1, Scalar.one()), Element.term(m2, Scalar.one())
            )
            self._product_cache[key] = cached
        return cached

    def commutator(self, a: Element, b: Element) -> Element:
        """[a, b] = ab - ba, both products accumulated in place into one dict,
        the second with sign -1."""
        self.check_admissible(a)
        self.check_admissible(b)
        acc = self._product_into({}, a, b, 1)
        return Element._wrap(self._product_into(acc, b, a, -1))


def _shifted_accumulate(acc: dict, nf: Element, shift: int, factor: Scalar) -> dict:
    """accumulate factor * nf * q^shift into acc; nf is a normal form of some
    word * q^0, and shifting every q-exponent keeps its terms distinct."""
    if shift == 0:
        return accumulate(acc, nf.items(), factor)
    shifted = ((_tuple_new(Monomial, (w, q + shift)), c) for (w, q), c in nf.items())
    return accumulate(acc, shifted, factor)


# marks a word whose normal form is being computed, to catch rewrite cycles
_IN_PROGRESS = object()
_ONE = Scalar.one()
# unchecked Monomial constructor, only for words spliced from admissible pieces
_tuple_new = tuple.__new__


@lru_cache(maxsize=None)
def get_preset(basis: Basis, sector: Sector) -> AlgebraPreset:
    """Shared preset instances (warm rewrite caches across callers)."""
    basis = Basis(basis)
    sector = Sector(sector)
    if sector is Sector.POINCARE:
        rules = {}
        rules.update(_lorentz_rules(basis))
        rules.update(_momentum_lorentz_rules(basis))
        rules.update(_momentum_rules())
    else:
        rules = {}
        rules.update(_position_rules())
        rules.update(_phase_rules(basis))
        rules.update(_momentum_rules())
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
