"""Exact coefficient ring: Gaussian rationals times signed powers of hbar, kappa, c.

Every coefficient appearing in the deformed commutation relations lies in
Q(i) * hbar^a kappa^b c^d, so the ring is kept exact.  A `Scalar` stores each
addend as its exponent triple (e_hbar, e_kappa, e_c) mapped to a plain int
triple (re_num, im_num, den) meaning (re_num + im_num*i) / den, with den > 0
and gcd(re_num, im_num, den) == 1, so equal values have equal stores.  Ring
operations are integer cross-multiplication plus one gcd per addend.

`GaussianRational` (two `fractions.Fraction` parts) is the public view of one
coefficient: the constructors accept it and `Scalar.items()` yields it.  No
floating point enters until `Scalar.to_complex` bridges into the numeric
module.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .errors import DivisionByZeroError, ParameterError, ResourceLimitError
from .reports import FrozenRecord


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class GaussianRational(FrozenRecord):
    """Element of Q(i): re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self._init(re, im)

    @staticmethod
    def of(re=0, im=0) -> "GaussianRational":
        return GaussianRational(_frac(re), _frac(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def inverse(self) -> "GaussianRational":
        norm = self.re * self.re + self.im * self.im
        if norm == 0:
            raise DivisionByZeroError("division by zero (inverse of 0 in Q(i))")
        return GaussianRational(self.re / norm, -self.im / norm)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))


# exponent triple: (e_hbar, e_kappa, e_c)
Triple = tuple[int, int, int]
# one coefficient: (re_num, im_num, den) = (re_num + im_num*i) / den
Coeff = tuple[int, int, int]

_UNIT: Triple = (0, 0, 0)
_C_ONE: Coeff = (1, 0, 1)
_C_I: Coeff = (0, 1, 1)


def _coeff(re, im) -> Coeff | None:
    """Canonical int triple of re + im*i (ints or Fractions); None for zero."""
    re, im = _frac(re), _frac(im)
    if not re and not im:
        return None
    rd, id_ = re.denominator, im.denominator
    den = rd * id_ // gcd(rd, id_)
    # both parts are reduced, so over their lcm the three ints are coprime
    return (re.numerator * (den // rd), im.numerator * (den // id_), den)


def _reduce(a: int, b: int, d: int) -> Coeff | None:
    """Canonical form of (a + b*i) / d with d > 0; None for zero."""
    if not a and not b:
        return None
    if d == 1:
        return (a, b, 1)
    g = gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def _mul_coeff(x: Coeff, y: Coeff) -> Coeff:
    """Product of two nonzero coefficients; Q(i) is a field, so it is nonzero."""
    p, q, d = x
    r, s, e = y
    re, im, den = p * r - q * s, p * s + q * r, d * e
    if den != 1:
        g = gcd(re, im, den)
        if g != 1:
            return (re // g, im // g, den // g)
    return (re, im, den)


def _accumulate(terms: dict[Triple, Coeff], triple: Triple, y: Coeff) -> None:
    """terms[triple] += y in place, dropping the addend if it cancels."""
    x = terms.get(triple)
    if x is None:
        terms[triple] = y
        return
    a1, b1, d1 = x
    a2, b2, d2 = y
    if d1 == d2:
        total = _reduce(a1 + a2, b1 + b2, d1)
    else:
        total = _reduce(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)
    if total is None:
        del terms[triple]
    else:
        terms[triple] = total


def _wrap(terms: dict[Triple, Coeff]) -> "Scalar":
    """Scalar over an already canonical store, skipping re-canonicalisation."""
    s = object.__new__(Scalar)
    s._terms = terms
    return s


class Scalar:
    """Finite sum of Gaussian-rational multiples of hbar^a kappa^b c^d.

    Canonical form: at most one addend per exponent triple, no zero addends,
    every coefficient a reduced int triple (see the module docstring).
    Values are immutable; all operations return fresh instances or operands.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[Triple, GaussianRational] | None = None):
        canonical: dict[Triple, Coeff] = {}
        if terms:
            for triple, g in terms.items():
                coeff = _coeff(g.re, g.im)
                if coeff is not None:
                    canonical[triple] = coeff
        self._terms = canonical

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return _S_ZERO

    @staticmethod
    def one() -> "Scalar":
        return _S_ONE

    @staticmethod
    def i() -> "Scalar":
        return _S_I

    @staticmethod
    def rational(num, den=1) -> "Scalar":
        return Scalar.term(Fraction(num, den))

    @staticmethod
    def gaussian(re=0, im=0) -> "Scalar":
        return Scalar.term(re, im)

    @staticmethod
    def term(re=0, im=0, *, hbar=0, kappa=0, c=0) -> "Scalar":
        """Single addend (re + im*i) * hbar^hbar kappa^kappa c^c."""
        coeff = _coeff(re, im)
        return _wrap({} if coeff is None else {(hbar, kappa, c): coeff})

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for triple, coeff in other._terms.items():
            _accumulate(terms, triple, coeff)
        return _wrap(terms)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return _wrap({t: (-a, -b, d) for t, (a, b, d) in self._terms.items()})

    def __mul__(self, other: "Scalar") -> "Scalar":
        # most products in the rewrite engine have the shared one() as a factor
        if other is _S_ONE:
            return self
        if self is _S_ONE:
            return other
        lhs, rhs = self._terms, other._terms
        if len(lhs) == 1 and len(rhs) == 1:
            ((a1, b1, c1), x), = lhs.items()
            ((a2, b2, c2), y), = rhs.items()
            return _wrap({(a1 + a2, b1 + b2, c1 + c2): _mul_coeff(x, y)})
        terms: dict[Triple, Coeff] = {}
        for (a1, b1, c1), x in lhs.items():
            for (a2, b2, c2), y in rhs.items():
                _accumulate(terms, (a1 + a2, b1 + b2, c1 + c2), _mul_coeff(x, y))
        return _wrap(terms)

    def inverse(self) -> "Scalar":
        """Inverse of a single-addend scalar; zero and sums are not invertible."""
        if not self._terms:
            raise DivisionByZeroError("division by zero")
        if len(self._terms) != 1:
            raise DivisionByZeroError(
                "only single-term scalars are invertible (got "
                f"{len(self._terms)} terms)"
            )
        ((eh, ek, ec), (a, b, d)), = self._terms.items()
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return _wrap({(-eh, -ek, -ec): _reduce(d * a, -d * b, a * a + b * b)})

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self) -> list[tuple[Triple, GaussianRational]]:
        """(triple, coefficient) pairs, each coefficient as a GaussianRational."""
        return [
            (t, GaussianRational(Fraction(a, d), Fraction(b, d)))
            for t, (a, b, d) in self._terms.items()
        ]

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"

    # -- numeric bridge ----------------------------------------------------

    def to_complex(self, hbar: float, kappa: float, c: float) -> complex:
        """Substitute positive real values for the constants.

        The exact rational parts are converted to float last, after the
        power product, to keep rounding to a single step per addend.  Int
        true division is correctly rounded, so `a / d` is the float of the
        reduced fraction without reducing it first.
        """
        for name, value in (("hbar", hbar), ("kappa", kappa), ("c", c)):
            if not value > 0:
                raise ParameterError(f"{name} must be strictly positive, got {value}")
        total = 0j
        for triple in sorted(self._terms):
            eh, ek, ec = triple
            a, b, d = self._terms[triple]
            mag = hbar**eh * kappa**ek * c**ec
            total += complex(a / d * mag, b / d * mag)
        return total

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, parseable by the expression grammar."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for triple in sorted(self._terms):
            a, b, d = self._terms[triple]
            powers = _powers_str(triple)
            if a:
                parts.append(_product_str(a, d, False, powers))
            if b:
                parts.append(_product_str(b, d, True, powers))
        out = parts[0]
        for piece in parts[1:]:
            if piece.startswith("-"):
                out += " - " + piece[1:]
            else:
                out += " + " + piece
        return out

    def render_single(self) -> str:
        """Render wrapped for use as a coefficient in front of a monomial."""
        body = self.render()
        return f"({body})"

    @property
    def is_one(self) -> bool:
        return self._terms == {_UNIT: _C_ONE}


# shared constants: scalars are immutable, so one instance of each suffices
_S_ZERO = _wrap({})
_S_ONE = _wrap({_UNIT: _C_ONE})
_S_I = _wrap({_UNIT: _C_I})


def _powers_str(triple: Triple) -> str:
    names = ("hbar", "kappa", "c")
    parts = []
    for name, e in zip(names, triple):
        if e == 1:
            parts.append(name)
        elif e != 0:
            parts.append(f"{name}^{e}")
    return " ".join(parts)


def _product_str(num: int, den: int, imaginary: bool, powers: str) -> str:
    """One real or imaginary part num/den, reduced on its own, as a product."""
    g = gcd(num, den)
    num, den = num // g, den // g
    sign = "-" if num < 0 else ""
    num = abs(num)
    factors = []
    if num != 1 or den != 1 or (not imaginary and not powers):
        try:
            factors.append(str(num) if den == 1 else f"{num}/{den}")
        except ValueError:  # past the interpreter's int-to-str digit limit
            raise ResourceLimitError(
                f"coefficient has more than {sys.get_int_max_str_digits()} "
                "digits and cannot be rendered"
            ) from None
    if imaginary:
        factors.append("i")
    if powers:
        factors.append(powers)
    return sign + " ".join(factors)
