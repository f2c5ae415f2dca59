"""Exact coefficient ring: Gaussian rationals times signed powers of hbar, kappa, c.

Every coefficient appearing in the deformed commutation relations lies in
Q(i) * hbar^a kappa^b c^d, so the ring is kept exact.  A `Scalar` holds one
flat int tuple, six ints per addend: the exponent triple (e_hbar, e_kappa, e_c)
and (re_num, im_num, den) meaning (re_num + im_num*i) / den, with den > 0 and
gcd(re_num, im_num, den) == 1; addends in increasing triple order, none zero.
Equal values have equal tuples, so `==` and `hash` are the tuple's.  Nearly
every coefficient has one addend, so the ring operations take inline paths for
single addends.  They are integer cross-multiplication plus one gcd per addend.

`GaussianRational` (two `fractions.Fraction` parts) is the public view of one
coefficient: the constructors accept it and `Scalar.items()` yields it.  No
floating point enters until `Scalar.to_complex` bridges into the numeric
module.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from fractions import Fraction
from math import gcd

from .errors import DivisionByZeroError, ResourceLimitError, check_finite, finite_result
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
Store = tuple[int, ...]


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


def _add_coeff(a1: int, b1: int, d1: int, a2: int, b2: int, d2: int) -> Coeff | None:
    """(a1 + b1 i)/d1 + (a2 + b2 i)/d2; None for zero."""
    if d1 == d2:
        return _reduce(a1 + a2, b1 + b2, d1)
    return _reduce(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _accumulate(terms: dict[Triple, Coeff], triple: Triple, y: Coeff) -> None:
    """terms[triple] += y in place, dropping the addend if it cancels."""
    x = terms.get(triple)
    total = y if x is None else _add_coeff(*x, *y)
    if total is None:
        del terms[triple]
    else:
        terms[triple] = total


def _insert(store: Store, addend: Store) -> Store:
    """store plus one addend, by a binary search and one splice copied in C."""
    triple = addend[:3]
    i = 6 * bisect_left(range(0, len(store), 6), triple, key=lambda k: store[k : k + 3])
    if store[i : i + 3] != triple:
        return store[:i] + addend + store[i:]
    total = _add_coeff(*store[i + 3 : i + 6], *addend[3:])
    return store[: i + 3] + total + store[i + 6 :] if total else store[:i] + store[i + 6 :]


def _addends(store: Store):
    """The addends of a store as six-int tuples, in order."""
    return zip(*(store[j::6] for j in range(6)))


def _wrap(store: Store) -> "Scalar":
    """Scalar over an already canonical store, skipping re-canonicalisation."""
    s = object.__new__(Scalar)
    s._store = store
    return s


class Scalar:
    """Finite sum of Gaussian-rational multiples of hbar^a kappa^b c^d, in the
    canonical form of the module docstring.  Values are immutable; all
    operations return fresh instances or operands."""

    __slots__ = ("_store",)

    def __init__(self, terms: dict[Triple, GaussianRational] | None = None):
        total = _S_ZERO
        for (h, k, c), g in (terms or {}).items():
            total = total + Scalar.term(g.re, g.im, hbar=h, kappa=k, c=c)
        self._store = total._store

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
    def term(re=0, im=0, *, hbar=0, kappa=0, c=0) -> "Scalar":
        """Single addend (re + im*i) * hbar^hbar kappa^kappa c^c."""
        coeff = _coeff(re, im)
        return _S_ZERO if coeff is None else _wrap((hbar, kappa, c, *coeff))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        y = other._store
        if not y:
            return self
        x = self._store
        if not x:
            return other
        if len(x) == 6 and len(y) == 6:
            h1, k1, c1, a1, b1, d1 = x
            h2, k2, c2, a2, b2, d2 = y
            if h1 != h2 or k1 != k2 or c1 != c2:
                # the triples differ, so whole-store order is triple order
                return _wrap(x + y if x < y else y + x)
            total = _add_coeff(a1, b1, d1, a2, b2, d2)
            return _S_ZERO if total is None else _wrap((h1, k1, c1, *total))
        if len(x) < len(y):
            x, y = y, x
        for i in range(0, len(y), 6):
            x = _insert(x, y[i : i + 6])
        return _wrap(x)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        x = self._store
        if len(x) == 6:
            h, k, c, a, b, d = x
            return _wrap((h, k, c, -a, -b, d))
        return self * Scalar.rational(-1)

    def __mul__(self, other: "Scalar") -> "Scalar":
        # most products in the rewrite engine have the shared one() as a factor
        if other is _S_ONE:
            return self
        if self is _S_ONE:
            return other
        x, y = self._store, other._store
        if len(x) == 6 and len(y) == 6:
            h1, k1, c1, p, q, d = x
            h2, k2, c2, r, s, e = y
            re, im, den = p * r - q * s, p * s + q * r, d * e
            if den != 1:
                g = gcd(re, im, den)
                if g != 1:
                    re, im, den = re // g, im // g, den // g
            return _wrap((h1 + h2, k1 + k2, c1 + c2, re, im, den))
        if not x or not y:
            return _S_ZERO
        terms: dict[Triple, Coeff] = {}
        for h1, k1, c1, p, q, d in _addends(x):
            for h2, k2, c2, r, s, e in _addends(y):
                re, im, den = p * r - q * s, p * s + q * r, d * e
                g = gcd(re, im, den)
                _accumulate(terms, (h1 + h2, k1 + k2, c1 + c2), (re // g, im // g, den // g))
        store: list[int] = []
        for triple in sorted(terms):
            store += triple
            store += terms[triple]
        return _wrap(tuple(store))

    def inverse(self) -> "Scalar":
        """Inverse of a single-addend scalar; zero and sums are not invertible."""
        x = self._store
        if not x:
            raise DivisionByZeroError("division by zero")
        if len(x) != 6:
            n = len(x) // 6
            raise DivisionByZeroError(f"only single-term scalars are invertible (got {n} terms)")
        h, k, c, a, b, d = x
        # d / (a + b i) = d (a - b i) / (a^2 + b^2)
        return _wrap((-h, -k, -c, *_reduce(d * a, -d * b, a * a + b * b)))

    # -- queries -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._store

    def items(self) -> list[tuple[Triple, GaussianRational]]:
        """(triple, coefficient) pairs in triple order, each coefficient as a
        GaussianRational."""
        return [
            ((h, k, c), GaussianRational(Fraction(a, d), Fraction(b, d)))
            for h, k, c, a, b, d in _addends(self._store)
        ]

    def __len__(self) -> int:
        return len(self._store) // 6

    def __eq__(self, other) -> bool:
        return isinstance(other, Scalar) and self._store == other._store

    def __hash__(self) -> int:
        return hash(self._store)

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"

    # -- numeric bridge ----------------------------------------------------

    def to_complex(self, hbar: float, kappa: float, c: float) -> complex:
        """Substitute positive finite real values for the constants; a value
        past double precision is a ParameterError.

        The exact rational parts are converted to float last, after the
        power product, to keep rounding to a single step per addend.  Int
        true division is correctly rounded, so `a / d` is the float of the
        reduced fraction without reducing it first.
        """
        check_finite("positive", hbar=hbar, kappa=kappa, c=c)

        def value() -> complex:
            total = 0j
            for eh, ek, ec, a, b, d in _addends(self._store):
                mag = hbar**eh * kappa**ek * c**ec
                total += complex(a / d * mag, b / d * mag)
            return total

        return finite_result("value of the scalar", value)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, parseable by the expression grammar."""
        if not self._store:
            return "0"
        parts: list[str] = []
        for h, k, c, a, b, d in _addends(self._store):
            powers = _powers_str((h, k, c))
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
        return f"({self.render()})"

    @property
    def is_one(self) -> bool:
        return self._store == _S_ONE._store


# shared constants: scalars are immutable, so one instance of each suffices
_S_ZERO = _wrap(())
_S_ONE = _wrap((0, 0, 0, 1, 0, 1))
_S_I = _wrap((0, 0, 0, 0, 1, 1))


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
