"""Free-algebra layer: generators, normal-ordered monomials and elements.

A monomial is a word in the fourteen generators together with an integer
exponent of the invertible group-like element q = exp(P0 / 2 kappa c).  The
q-power is kept in its own slot rather than as a letter because q commutes
with everything except x0 and the boosts, and those commutators only rescale
q; see `presets` for the corresponding rewrite rules.

Positions never mix with Lorentz generators inside one monomial: the algebra
has no defined commutator between them, so such words are rejected at
construction rather than silently reordered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

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


@dataclass(frozen=True, slots=True)
class Monomial:
    """Word in the generators times q^qexp.

    Monomials key every dict of the engine, so the hash is computed once at
    construction rather than from the whole word on every lookup.
    """

    word: tuple[Gen, ...] = ()
    qexp: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(g in POSITIONS for g in self.word) and any(
            g in LORENTZ for g in self.word
        ):
            raise SectorError(
                "monomial mixes position and Lorentz generators: "
                + " ".join(g.render() for g in self.word)
            )
        object.__setattr__(self, "_hash", hash((self.word, self.qexp)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_sorted(self) -> bool:
        return all(a <= b for a, b in zip(self.word, self.word[1:]))

    @property
    def is_unit(self) -> bool:
        return not self.word and self.qexp == 0

    def sort_key(self):
        return (tuple(int(g) for g in self.word), self.qexp)

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


class Element:
    """Finite Scalar-weighted sum of monomials, kept in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Monomial, Scalar] | None = None):
        canonical: dict[Monomial, Scalar] = {}
        if terms:
            for mono, coeff in terms.items():
                if not coeff.is_zero:
                    canonical[mono] = coeff
        self._terms = canonical

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

    # -- linear structure ----------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        terms = dict(self._terms)
        for mono, coeff in other._terms.items():
            acc = terms.get(mono)
            terms[mono] = coeff if acc is None else acc + coeff
        return Element(terms)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element({m: -c for m, c in self._terms.items()})

    def scaled(self, s: Scalar) -> "Element":
        if s.is_zero:
            return Element()
        return Element({m: c * s for m, c in self._terms.items()})

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        return self._terms.items()

    def coefficient(self, mono: Monomial) -> Scalar:
        return self._terms.get(mono, Scalar.zero())

    def monomials(self):
        return self._terms.keys()

    def generators_used(self) -> frozenset[Gen]:
        return frozenset(g for m in self._terms for g in m.word)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Element) and self._terms == other._terms

    def __repr__(self) -> str:
        return f"Element({self.render()})"

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form: terms ordered by word, then q-exponent."""
        if not self._terms:
            return "0"
        monos = sorted(self._terms, key=Monomial.sort_key)
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
