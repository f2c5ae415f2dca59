"""Expression grammar for algebra queries.

    expr    := action
    action  := sum ('|>' action)?                     left operand acts on right
    sum     := product (('+' | '-') product)*
    product := '-'? power (('*' | '/')? power)*       juxtaposition multiplies
    power   := atom ('^' '-'? INT)?
    atom    := INT
             | 'i' | 'hbar' | 'kappa' | 'c'
             | generator (x0..x3, M1..M3, N1..N3, P0..P3, q)
             | 'D' '(' expr ')' | 'S' '(' expr ')' | 'eps' '(' expr ')'
             | '[' expr ',' expr ']'                  commutator
             | '<' expr '|' expr '>'                  duality pairing
             | '(' expr ')'

INT is a run of ASCII digits 0-9; a literal past the interpreter's
str-to-int digit limit raises ResourceLimitError.  Division is defined for
invertible right factors only: rationals, single-term scalars, and scalar
multiples of q powers.  A power of a value with generators in it, or of a sum
of coefficient addends, takes an exponent of at most MAX_POWER, a power of one
addend grows its parts to at most MAX_POWER_BITS bits, and a product takes at most
MAX_POWER factors, its scalar factors at most MAX_POWER_BITS summed `_bits`; more
raises ResourceLimitError before the product that would pass the limit.
`parse(render(e))` evaluates back to `e` for every normal-form element the
engine produces.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .crossproduct import PairingContext, left_action, pair
from .elements import GEN_BY_NAME, LORENTZ, POSITIONS, Monomial, Element
from .errors import ParseError, ResourceLimitError, SectorError
from .hopf import TensorElement, antipode, coproduct, counit, tensor_multiply
from .presets import AlgebraPreset, Basis, Sector, get_preset
from .scalars import Scalar

# -- lexer ---------------------------------------------------------------------

_KEYWORDS = {"i", "hbar", "kappa", "c", "q", "D", "S", "eps"} | set(GEN_BY_NAME)
_ATOM_STARTS = {"NUMBER", "IDENT", "(", "[", "<"}
_POSITION_NAMES = frozenset(g.render() for g in POSITIONS)
_LORENTZ_NAMES = frozenset(g.render() for g in LORENTZ)
# largest exponent of a power with generators in it or of a coefficient sum
MAX_POWER = 4096
# most bits a power of one coefficient addend may grow its numerators or
# denominator to, estimated as the exponent times their largest bit length
MAX_POWER_BITS = 1 << 18
# the coefficient addends 1, -1, i and -i, as (re_num, im_num, den): their powers never grow
_UNITS = {(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)}

# whitespace (\s is str.isspace), then one token: a run of ASCII digits, a run
# of word characters (\w is str.isalnum or "_"), a symbol, or any other
# character, which is an error.  ASCII digits only: str.isdigit also accepts
# digits that int() rejects (superscripts) or reads silently (other scripts).
# A word run must start on str.isalpha or "_", which no class of `re` spells,
# so `tokenize` checks its first character.
_TOKEN = re.compile(r"\s*(?:([0-9]+)|(\w+)|(\|>|[-+*/^()\[\],<>|])|(\S))")


def tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) per token, then EOF; kind is NUMBER, IDENT or the
    symbol itself, and offset indexes source."""
    tokens = []
    # lex only up to the last non-space: past it `\s*` could only fail, and
    # each retry of the search would rescan the trailing run (quadratic)
    for m in _TOKEN.finditer(source, 0, len(source.rstrip())):
        group = m.lastindex
        text, offset = m[group], m.start(group)
        if group == 1:
            tokens.append(("NUMBER", text, offset))
        elif group == 3:
            tokens.append((text, text, offset))
        elif group == 2 and (text[0].isalpha() or text[0] == "_"):
            tokens.append(("IDENT", text, offset))
        else:
            line, column = _position(source, offset)
            raise ParseError("unexpected character", line, column, found=text[0])
    tokens.append(("EOF", "", len(source)))
    return tokens


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of source[offset]; only a newline starts a line."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


# -- parse tree ------------------------------------------------------------------

# nodes: ('num', Fraction) ('sym', name) ('neg', a) ('pow', a, int) ('comm', a, b)
#        ('cop', a) ('anti', a) ('counit', a) ('pair', a, b) ('action', a, b)
#        ('sum', a, (('+' or '-', b), ...)) ('product', a, (('*' or '/', b), ...))


class _Parser:
    def __init__(self, source: str, names: set[str]):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.names = names  # every symbol accepted, for sector inference

    def error(self, message: str, tok, **detail) -> ParseError:
        return ParseError(message, *_position(self.source, tok[2]), **detail)

    def expect(self, kind: str):
        tok = self.tokens[self.pos]
        self.pos += 1
        if tok[0] != kind:
            raise self.error("syntax error", tok, expected={kind}, found=tok[1])
        return tok

    def int_literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:
            # past the interpreter's limit on str-to-int conversion
            line, column = _position(self.source, tok[2])
            raise ResourceLimitError(f"integer literal of {len(tok[1])} digits at line {line}, "
                                     f"column {column} is too long") from None

    def parse(self):
        node = self.action()
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            raise self.error("trailing input", tok, expected={"EOF"}, found=tok[1])
        return node

    def action(self):
        node = self.sum()
        if self.tokens[self.pos][0] == "|>":
            self.pos += 1
            return ("action", node, self.action())
        return node

    def operands(self, *delimiters) -> tuple:
        """An action before each of delimiters, read in turn."""
        args = []
        for delimiter in delimiters:
            args.append(self.action())
            self.expect(delimiter)
        return tuple(args)

    def sum(self):
        node = self.product()
        terms = []
        while (op := self.tokens[self.pos][0]) == "+" or op == "-":
            self.pos += 1
            terms.append((op, self.product()))
        return ("sum", node, tuple(terms)) if terms else node

    def product(self):
        negate = self.tokens[self.pos][0] == "-"
        if negate:
            self.pos += 1
        node = self.power()
        factors = []
        while (op := self.tokens[self.pos][0]) in ("*", "/") or op in _ATOM_STARTS:
            if op == "*" or op == "/":
                self.pos += 1
            factors.append(("/" if op == "/" else "*", self.power()))
        if factors:
            node = ("product", node, tuple(factors))
        return ("neg", node) if negate else node

    def power(self):
        node = self.atom()
        if self.tokens[self.pos][0] == "^":
            self.pos += 1
            sign = 1
            if self.tokens[self.pos][0] == "-":
                self.pos += 1
                sign = -1
            node = ("pow", node, sign * self.int_literal(self.expect("NUMBER")))
        return node

    def atom(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        kind = tok[0]
        if kind == "IDENT":
            name = tok[1]
            if name in ("D", "S", "eps"):
                self.expect("(")
                return ({"D": "cop", "S": "anti", "eps": "counit"}[name], *self.operands(")"))
            if name in _KEYWORDS:
                self.names.add(name)
                return ("sym", name)
            raise self.error("unknown symbol", tok, expected=sorted(_KEYWORDS), found=name)
        if kind == "NUMBER":
            return ("num", Fraction(self.int_literal(tok)))
        if kind == "(":
            return self.operands(")")[0]
        if kind == "[":
            return ("comm", *self.operands(",", "]"))
        if kind == "<":
            return ("pair", *self.operands("|", ">"))
        raise self.error("syntax error", tok, expected=sorted(_ATOM_STARTS),
                         found=tok[1] or "end of input")


def parse(source: str, names: set[str] | None = None):
    """Parse an expression; raises ParseError with line/column on bad input.

    If a set is given as names, every symbol the parse tree holds is added to
    it: the set `evaluate` takes to infer the sector without walking the tree.
    """
    return _Parser(source, set() if names is None else names).parse()


# -- evaluation --------------------------------------------------------------------


def _sector_of(names, explicit: Sector | None) -> Sector:
    """The sector that admits every symbol named, or SectorError.  With the
    leaf check in `_eval` it is the admissibility gate of evaluation, so
    products skip their own checks."""
    has_x = not _POSITION_NAMES.isdisjoint(names)
    has_lorentz = not _LORENTZ_NAMES.isdisjoint(names)
    if explicit is not None:
        sector = Sector(explicit)
        if sector is Sector.POINCARE and has_x:
            raise SectorError("position generators are not admissible in the poincare sector")
        if sector is Sector.PHASESPACE and has_lorentz:
            raise SectorError("Lorentz generators are not admissible in the phasespace sector")
        return sector
    if has_x and has_lorentz:
        raise SectorError("expression mixes position and Lorentz generators; no sector admits it")
    return Sector.PHASESPACE if has_x else Sector.POINCARE


class Value:
    """Evaluation result: a Scalar, Element or TensorElement and its kind."""

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data):
        self.kind = kind  # "scalar" | "element" | "tensor"
        self.data = data

    def as_element(self) -> Element:
        return _element(self.data)

    def render(self, tensor_sep: str = " ⊗ ") -> str:
        if self.kind == "tensor":
            return self.data.render(tensor_sep)
        return self.data.render()


_KINDS = {Scalar: "scalar", Element: "element", TensorElement: "tensor"}


def evaluate(node, names: set[str], basis: Basis, sector: Sector | None) -> Value:
    """Evaluate a parse tree to a normal-form value in basis.

    names should be the set `parse` filled for node: it picks the sector, or
    is checked against the given one.  Each generator leaf is checked against
    that sector as well, so names that disagree with node raise SectorError
    before any product runs unchecked.
    """
    data = _eval(node, get_preset(basis, _sector_of(names, sector)))
    return Value(_KINDS[type(data)], data)


def _eval(node, preset: AlgebraPreset):
    """The Scalar, Element or TensorElement that node evaluates to."""
    kind = node[0]
    if kind == "sym":
        g = GEN_BY_NAME.get(node[1])
        if g is not None and g not in preset.allowed:
            raise SectorError(
                f"generator {node[1]} is not admissible in the {preset.sector.value} sector"
            )
        return _SYMBOL_VALUES[node[1]]
    if kind == "num":
        return Scalar.term(node[1])
    if kind == "neg":
        return -_eval(node[1], preset)
    if kind == "sum":
        # one loop over the chain, so the depth is independent of its length
        a = _eval(node[1], preset)
        for op, rhs in node[2]:
            b = _eval(rhs, preset)
            if (type(a) is TensorElement) != (type(b) is TensorElement):
                raise SectorError("cannot add a tensor to a non-tensor value")
            if type(a) is not type(b):  # a scalar and an element
                a, b = _element(a), _element(b)
            a = a + b if op == "+" else a - b
        return a
    if kind == "product":
        # a loop as well, its factors and their scalars' bits bounded like a power's
        if len(node[2]) >= MAX_POWER:
            raise ResourceLimitError(f"a product has more than {MAX_POWER} factors")
        a = _eval(node[1], preset)
        bits = _bits(a) if type(a) is Scalar else 0
        for op, rhs in node[2]:
            b = _eval(rhs, preset) if op == "*" else _invert(_eval(rhs, preset))
            if type(b) is Scalar:
                bits += _bits(b)
                if bits > MAX_POWER_BITS:
                    raise ResourceLimitError(f"the scalar factors of a product have more "
                                             f"than {MAX_POWER_BITS} bits")
            a = _mul(a, b, preset)
        return a
    if kind == "pow":
        return _pow(_eval(node[1], preset), node[2], preset)
    # every other node takes one or two element operands, checked in order
    args = [_element(_eval(arg, preset)) for arg in node[1:]]
    if kind == "comm":
        return preset._commutator(*args)
    if kind == "cop":
        return coproduct(*args, preset)
    if kind == "anti":
        return antipode(*args, preset)
    if kind == "counit":
        return counit(*args, preset)
    if kind == "pair":
        return pair(*args, PairingContext(preset.basis))
    if kind == "action":
        return left_action(*args, PairingContext(preset.basis))
    raise AssertionError(f"unhandled node kind {kind!r}")


# one shared value per symbol: values are never mutated
_SYMBOL_VALUES = {
    "i": Scalar.i(),
    **{name: Scalar.term(1, **{name: 1}) for name in ("hbar", "kappa", "c")},
    "q": Element.q_power(1),
    **{name: Element.generator(g) for name, g in GEN_BY_NAME.items()},
}


def _element(v) -> Element:
    """v as an element: a scalar is a multiple of the unit, a tensor an error."""
    if type(v) is Scalar:
        return Element.from_scalar(v)
    if type(v) is TensorElement:
        raise SectorError("tensor value used where an element is required")
    return v


def _mul(a, b, preset: AlgebraPreset):
    if type(a) is Element and type(b) is Element:
        return preset._product(a, b)
    if type(a) is Scalar:
        return a * b if type(b) is Scalar else b.scaled(a)
    if type(b) is Scalar:
        return a.scaled(b)
    if type(a) is not type(b):
        raise SectorError("cannot multiply a tensor by a non-scalar element")
    return tensor_multiply(a, b, preset)


def _q_term(v):
    """(q^k, c) if v is the one-term element c q^k, else None."""
    if type(v) is Element and len(v) == 1:
        [(mono, coeff)] = v.items()
        if not mono.word:
            return mono, coeff
    return None


def _invert(v):
    if type(v) is Scalar:
        return v.inverse()
    term = _q_term(v)
    if term is None:
        raise SectorError("division is only defined by invertible scalar or q-power factors")
    return Element.term(Monomial((), -term[0].qexp), term[1].inverse())


def _pow(v, n: int, preset: AlgebraPreset):
    if n < 0:
        v = _invert(v)
        n = -n
    if type(v) is Scalar:
        return _scalar_power(v, n)
    term = _q_term(v)
    if term is not None:
        # (c q^k)^n = c^n q^(k n): q-powers multiply by adding exponents
        return Element.term(Monomial((), term[0].qexp * n), _scalar_power(term[1], n))
    _check_exponent(n, MAX_POWER, "powers with generators in them")
    if type(v) is Element and len(v) == 1:
        # one term: O(log n) products, so O(log n) memoized words
        return _power(v, n, Element.one(), preset._product)
    # several terms or a tensor: squaring multiplies ever longer sums by themselves
    out = TensorElement.unit(v.rank) if type(v) is TensorElement else Element.one()
    for _ in range(n):
        out = _mul(out, v, preset)
    return out


def _check_exponent(n: int, limit: int, what: str):
    if n > limit:
        raise ResourceLimitError(f"exponent {n} is above the limit of {limit} for {what}")


def _scalar_power(s: Scalar, n: int) -> Scalar:
    """s^n for n >= 0, refused past the limits of the module docstring."""
    if len(s) > 1:
        _check_exponent(n, MAX_POWER, "powers of sums of coefficients")
    elif len(s) and s._store[3:] not in _UNITS:
        bits = max(map(abs, s._store[3:])).bit_length()
        _check_exponent(n, MAX_POWER_BITS // bits, f"powers of a coefficient of {bits} bits")
    return _power(s, n)


def _bits(s: Scalar) -> int:
    """Largest part bit length less one: a product outgrows the sum by at most a bit per factor."""
    return max(map(int.bit_length, s._store[3::6] + s._store[4::6] + s._store[5::6]), default=1) - 1


def _power(base, n: int, one=Scalar.one(), mul=Scalar.__mul__):
    """base^n for n >= 0 by repeated squaring under the associative mul."""
    out = one
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return out


def eval_text(source: str, basis: Basis = Basis.BICROSS, sector: Sector | None = None) -> Value:
    """Parse and evaluate in one step.

    The symbols the parser accepts pick the sector (or are checked against the
    given one); every value built from them lies in that sector, so products,
    powers and commutators run unchecked.  The parser, the evaluator and the
    rewrite engine all recurse, so deep nesting and long words are bounded by
    the interpreter's recursion limit; reaching it raises ResourceLimitError,
    as `M2^1200 M1` does, whose M1 moves left one swap at a time.  A letter below a run of momenta, or x0
    below a run of x1..x3, moves past the whole run in one step, so
    `P1^1500 x0` evaluates.  Sums and products are parsed and evaluated in a
    loop, so the number of terms or factors is not bounded by it.
    """
    try:
        names: set[str] = set()
        node = parse(source, names)
        return evaluate(node, names, basis, sector)
    except RecursionError:
        raise ResourceLimitError(
            "expression is too deeply nested or too long to evaluate "
            f"within the recursion limit ({sys.getrecursionlimit()})"
        ) from None
