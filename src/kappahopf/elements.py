"""Free-algebra layer: generators, normal-ordered monomials and elements.

A monomial is the tuple (word, qexp): a word in the fourteen generators
together with an integer exponent of the invertible group-like element
q = exp(P0 / 2 kappa c).  The q-power is kept in its own slot rather than as a
letter because q commutes with everything except x0 and the boosts, and those
commutators only rescale q; see `presets` for the corresponding rewrite rules.

Positions never mix with Lorentz generators inside one monomial: the algebra
has no defined commutator between them, so `Monomial(word, qexp)` rejects such
words.  Only the rewrite engine, on words spliced from admissible pieces,
skips the check with `tuple.__new__(Monomial, (word, qexp))`.

Every sum the engine builds, of monomials here and of tensor terms in `hopf`,
is a `LinearCombination`, and every layer adds terms into a dict with the one
in-place `accumulate`, which keeps the canonical form as it goes.  The one
exception is the rewrite engine's `_shifted_accumulate` in `presets`, whose
docstring says why it keeps its own loop.
"""

from __future__ import annotations

from enum import IntEnum
from operator import itemgetter

from .errors import SectorError
from .scalars import Scalar


class Gen(IntEnum):
    """Generators in normal-order position: x < M < N < P."""

    X0 = 0
    X1 = 1
    X2 = 2
    X3 = 3
    M1 = 4
    M2 = 5
    M3 = 6
    N1 = 7
    N2 = 8
    N3 = 9
    P0 = 10
    P1 = 11
    P2 = 12
    P3 = 13

    def render(self) -> str:
        name = self.name
        return name.lower() if name.startswith("X") else name


POSITIONS = frozenset({Gen.X0, Gen.X1, Gen.X2, Gen.X3})
ROTATIONS = (Gen.M1, Gen.M2, Gen.M3)
BOOSTS = (Gen.N1, Gen.N2, Gen.N3)
LORENTZ = frozenset(ROTATIONS) | frozenset(BOOSTS)
MOMENTA = frozenset({Gen.P0, Gen.P1, Gen.P2, Gen.P3})
SPATIAL_X = (Gen.X1, Gen.X2, Gen.X3)
SPATIAL_P = (Gen.P1, Gen.P2, Gen.P3)

GEN_BY_NAME = {g.render(): g for g in Gen}


class Monomial(tuple):
    """Word in the generators times q^qexp, stored as the pair (word, qexp).

    Monomials key every dict of the engine, so hashing and equality are the
    tuple's own: hash(m) == hash((m.word, m.qexp)).
    """

    __slots__ = ()

    def __new__(cls, word=(), qexp=0):
        word = tuple(word)
        if not (POSITIONS.isdisjoint(word) or LORENTZ.isdisjoint(word)):
            raise SectorError(
                "monomial mixes position and Lorentz generators: "
                + " ".join(g.render() for g in word)
            )
        return tuple.__new__(cls, (word, qexp))

    word = property(itemgetter(0))
    qexp = property(itemgetter(1))

    def __getnewargs__(self):
        # for copy and pickle; tuple's own hook would pass the pair as the word
        return (self[0], self[1])

    @property
    def is_sorted(self) -> bool:
        return all(a <= b for a, b in zip(self.word, self.word[1:]))

    @property
    def is_unit(self) -> bool:
        return not self.word and self.qexp == 0

    def render(self) -> str:
        parts = []
        i = 0
        w = self.word
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            run = j - i
            parts.append(w[i].render() if run == 1 else f"{w[i].render()}^{run}")
            i = j
        if self.qexp == 1:
            parts.append("q")
        elif self.qexp != 0:
            parts.append(f"q^{self.qexp}")
        return " ".join(parts) if parts else "1"

    def __repr__(self) -> str:
        return f"Monomial({self.render()})"


UNIT_MONOMIAL = Monomial()
_ONE = Scalar.one()


def accumulate(acc: dict, items, factor: Scalar | None = None) -> dict:
    """acc[key] += coeff (times factor) for each (key, coeff) of items, in place.

    items is read once, so it may be a generator, and must not be a view of
    acc.  Every coeff must be nonzero.  A key whose sum cancels is removed, so acc
    never holds a zero coefficient and can be wrapped as it is.
    """
    if factor is _ONE:
        factor = None
    elif factor is not None and not factor._store:
        return acc
    for key, coeff in items:
        if factor is not None:
            coeff = coeff * factor
        prev = acc.get(key)
        if prev is None:
            acc[key] = coeff
        else:
            total = prev + coeff
            if total._store:
                acc[key] = total
            else:
                del acc[key]
    return acc


class LinearCombination:
    """Finite Scalar-weighted sum of keys in canonical form: like keys are
    added and no zero coefficient is stored.  Values are immutable.

    `Scalar` is not one of these: its store is int triples with one gcd per
    addend, which shares no code with a store of Scalar coefficients.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        """Copy of terms from outside the engine, with zero coefficients dropped."""
        canonical = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero:
                    canonical[key] = coeff
        self._terms = canonical

    @classmethod
    def _wrap(cls, terms: dict):
        """Instance over a dict that is already canonical."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    def _like(self, terms: dict):
        """Value of the same kind as self over a canonical dict."""
        return self._wrap(terms)

    def _shape(self):
        """What, besides the terms, two values must share to be added or equal."""
        return None

    def __add__(self, other):
        if self._shape() != other._shape():
            raise ValueError("cannot add values of different rank")
        if not other._terms:
            return self
        if not self._terms:
            return other
        return self._like(accumulate(dict(self._terms), other._terms.items()))

    def __sub__(self, other):
        """One accumulate pass of other's negated terms into a copy of self."""
        if self._shape() != other._shape():
            raise ValueError("cannot subtract values of different rank")
        if not other._terms:
            return self
        negated = ((k, -c) for k, c in other._terms.items())
        return self._like(accumulate(dict(self._terms), negated))

    def __neg__(self):
        return self._like({k: -c for k, c in self._terms.items()})

    def scaled(self, s: Scalar):
        # the coefficient ring has no zero divisors: nonzero products stay nonzero
        if s.is_zero:
            return self._like({})
        return self._like({k: c * s for k, c in self._terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self._shape() == other._shape()
            and self._terms == other._terms
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.render()})"


class Element(LinearCombination):
    """Finite Scalar-weighted sum of monomials, kept in canonical form."""

    __slots__ = ()

    # perfbench/tracer.py counts additions per class from the class's own
    # __dict__, so each class names its __add__
    __add__ = LinearCombination.__add__

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Element":
        return Element()

    @staticmethod
    def one() -> "Element":
        return Element({UNIT_MONOMIAL: Scalar.one()})

    @staticmethod
    def generator(g: Gen) -> "Element":
        return Element({Monomial((g,)): Scalar.one()})

    @staticmethod
    def q_power(n: int) -> "Element":
        return Element({Monomial((), n): Scalar.one()})

    @staticmethod
    def from_scalar(s: Scalar) -> "Element":
        return Element({UNIT_MONOMIAL: s})

    @staticmethod
    def term(mono: Monomial, coeff: Scalar) -> "Element":
        return Element({mono: coeff})

    # -- queries -------------------------------------------------------------

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, Scalar.zero())

    def monomials(self):
        return self._terms.keys()

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form: terms ordered by word, then q-exponent."""
        if not self._terms:
            return "0"
        monos = sorted(self._terms)
        if len(monos) == 1 and monos[0].is_unit:
            return self._terms[monos[0]].render()
        parts = []
        for mono in monos:
            coeff = self._terms[mono]
            if mono.is_unit:
                parts.append(coeff.render_single())
            elif coeff.is_one:
                parts.append(mono.render())
            else:
                parts.append(f"{coeff.render_single()} {mono.render()}")
        return " + ".join(parts)
