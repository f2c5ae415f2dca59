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
multiples of q powers.  A power of an element or tensor with generators in it
takes an exponent of at most MAX_POWER, and a product at most MAX_POWER
factors; more raises ResourceLimitError before any product is formed.
`parse(render(e))` evaluates back to `e` for every normal-form element the
engine produces.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

from .crossproduct import PairingContext, left_action, pair
from .elements import GEN_BY_NAME, Monomial, Element
from .errors import ParseError, ResourceLimitError, SectorError
from .hopf import TensorElement, antipode, coproduct, counit, tensor_multiply
from .presets import AlgebraPreset, Basis, Sector, get_preset
from .scalars import Scalar

# -- lexer ---------------------------------------------------------------------

_KEYWORDS = {"i", "hbar", "kappa", "c", "q", "D", "S", "eps"} | set(GEN_BY_NAME)
# largest exponent of an element or tensor power with generators in it
MAX_POWER = 4096

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

# nodes: ('num', Fraction) ('sym', name) ('neg', a) ('add', a, b) ('sub', a, b)
#        ('mul', a, b) ('div', a, b) ('pow', a, int) ('comm', a, b)
#        ('cop', a) ('anti', a) ('counit', a) ('pair', a, b) ('action', a, b)


class _Parser:
    def __init__(self, source: str, names: set[str]):
        self.source = source
        self.tokens = tokenize(source)
        self.pos = 0
        self.names = names  # every symbol accepted, for sector inference

    def error(self, message: str, tok, **detail) -> ParseError:
        return ParseError(message, *_position(self.source, tok[2]), **detail)

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.advance()
        if tok[0] != kind:
            raise self.error("syntax error", tok, expected={kind}, found=tok[1])
        return tok

    def int_literal(self, tok) -> int:
        try:
            return int(tok[1])
        except ValueError:
            # past the interpreter's limit on str-to-int conversion
            line, column = _position(self.source, tok[2])
            raise ResourceLimitError(
                f"integer literal of {len(tok[1])} digits at line {line}, "
                f"column {column} is too long"
            ) from None

    def parse(self):
        node = self.action()
        tok = self.tokens[self.pos]
        if tok[0] != "EOF":
            raise self.error("trailing input", tok, expected={"EOF"}, found=tok[1])
        return node

    def action(self):
        node = self.sum()
        if self.peek() == "|>":
            self.advance()
            return ("action", node, self.action())
        return node

    def sum(self):
        node = self.product()
        while self.peek() in ("+", "-"):
            op = self.advance()[0]
            rhs = self.product()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    _ATOM_STARTS = {"NUMBER", "IDENT", "(", "[", "<"}

    def product(self):
        negate = False
        if self.peek() == "-":
            self.advance()
            negate = True
        node = self.power()
        while True:
            kind = self.peek()
            if kind in ("*", "/"):
                self.advance()
                node = ("mul" if kind == "*" else "div", node, self.power())
            elif kind in self._ATOM_STARTS:
                node = ("mul", node, self.power())
            else:
                break
        return ("neg", node) if negate else node

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.advance()
            sign = 1
            if self.peek() == "-":
                self.advance()
                sign = -1
            node = ("pow", node, sign * self.int_literal(self.expect("NUMBER")))
        return node

    def atom(self):
        tok = self.advance()
        kind = tok[0]
        if kind == "NUMBER":
            return ("num", Fraction(self.int_literal(tok)))
        if kind == "(":
            node = self.action()
            self.expect(")")
            return node
        if kind == "[":
            a = self.action()
            self.expect(",")
            b = self.action()
            self.expect("]")
            return ("comm", a, b)
        if kind == "<":
            a = self.action()
            self.expect("|")
            b = self.action()
            self.expect(">")
            return ("pair", a, b)
        if kind == "IDENT":
            name = tok[1]
            if name in ("D", "S", "eps"):
                self.expect("(")
                inner = self.action()
                self.expect(")")
                return {"D": "cop", "S": "anti", "eps": "counit"}[name], inner
            if name in _KEYWORDS:
                self.names.add(name)
                return ("sym", name)
            raise self.error("unknown symbol", tok, expected=sorted(_KEYWORDS), found=name)
        raise self.error(
            "syntax error",
            tok,
            expected=sorted(self._ATOM_STARTS),
            found=tok[1] or "end of input",
        )


def parse(source: str, names: set[str] | None = None):
    """Parse an expression; raises ParseError with line/column on bad input.

    If a set is given as names, every symbol the parse tree holds is added to
    it: the set `evaluate` takes to infer the sector without walking the tree.
    """
    return _Parser(source, set() if names is None else names).parse()


# -- evaluation --------------------------------------------------------------------


def _sector_of(names, explicit: Sector | None) -> Sector:
    """The sector that admits every symbol named, or SectorError: the one
    admissibility gate of evaluation, so products skip their own checks."""
    has_x = any(n.startswith("x") for n in names)
    has_lorentz = any(n[0] in "MN" for n in names if n in GEN_BY_NAME)
    if explicit is not None:
        sector = Sector(explicit)
        if sector is Sector.POINCARE and has_x:
            raise SectorError("position generators are not admissible in the poincare sector")
        if sector is Sector.PHASESPACE and has_lorentz:
            raise SectorError("Lorentz generators are not admissible in the phasespace sector")
        return sector
    if has_x and has_lorentz:
        raise SectorError(
            "expression mixes position and Lorentz generators; no sector admits it"
        )
    return Sector.PHASESPACE if has_x else Sector.POINCARE


class Value:
    """Tagged evaluation result: Scalar, Element, or TensorElement."""

    __slots__ = ("kind", "data")

    def __init__(self, kind: str, data):
        self.kind = kind  # "scalar" | "element" | "tensor"
        self.data = data

    def as_element(self) -> Element:
        if self.kind == "element":
            return self.data
        if self.kind == "scalar":
            return Element.from_scalar(self.data)
        raise SectorError("tensor value used where an element is required")

    def render(self, tensor_sep: str = " ⊗ ") -> str:
        if self.kind == "tensor":
            return self.data.render(tensor_sep)
        return self.data.render()


def evaluate(node, names: set[str], basis: Basis, sector: Sector | None) -> Value:
    """Evaluate a parse tree to a normal-form value in basis.

    names must be the set `parse` filled for node: it picks the sector, or is
    checked against the given one, the one admissibility check before
    products run unchecked.
    """
    basis = Basis(basis)
    return _eval(node, PairingContext(basis), get_preset(basis, _sector_of(names, sector)))


def _eval(node, ctx: PairingContext, preset: AlgebraPreset) -> Value:
    kind = node[0]
    if kind == "num":
        return Value("scalar", Scalar.gaussian(node[1]))
    if kind == "sym":
        return _SYMBOL_VALUES[node[1]]
    if kind == "neg":
        v = _eval(node[1], ctx, preset)
        return Value(v.kind, -v.data)
    if kind in ("add", "sub"):
        # a sum parses as a left-deep chain; walking its spine in a loop keeps
        # the depth independent of the number of terms
        spine = []
        while node[0] in ("add", "sub"):
            spine.append(node)
            node = node[1]
        a = _eval(node, ctx, preset)
        for op, _, rhs in reversed(spine):
            b = _eval(rhs, ctx, preset)
            if (a.kind == "tensor") != (b.kind == "tensor"):
                raise SectorError("cannot add a tensor to a non-tensor value")
            if a.kind != b.kind:  # a scalar and an element
                a, b = Value("element", a.as_element()), Value("element", b.as_element())
            a = Value(a.kind, a.data + b.data if op == "add" else a.data - b.data)
        return a
    if kind in ("mul", "div"):
        # a left-deep chain as well, its factors bounded like a power's exponent
        spine = []
        while node[0] in ("mul", "div"):
            spine.append(node)
            node = node[1]
        if len(spine) >= MAX_POWER:
            raise ResourceLimitError(f"a product has more than {MAX_POWER} factors")
        a = _eval(node, ctx, preset)
        for op, _, rhs in reversed(spine):
            b = _eval(rhs, ctx, preset)
            a = _mul(a, b if op == "mul" else _invert(b), preset)
        return a
    if kind == "pow":
        return _pow(_eval(node[1], ctx, preset), node[2], preset)
    if kind == "comm":
        a = _eval(node[1], ctx, preset).as_element()
        b = _eval(node[2], ctx, preset).as_element()
        return Value("element", preset._commutator(a, b))
    if kind == "cop":
        e = _eval(node[1], ctx, preset).as_element()
        return Value("tensor", coproduct(e, preset))
    if kind == "anti":
        e = _eval(node[1], ctx, preset).as_element()
        return Value("element", antipode(e, preset))
    if kind == "counit":
        e = _eval(node[1], ctx, preset).as_element()
        return Value("scalar", counit(e, preset))
    if kind == "pair":
        p = _eval(node[1], ctx, preset).as_element()
        x = _eval(node[2], ctx, preset).as_element()
        return Value("scalar", pair(p, x, ctx))
    if kind == "action":
        p = _eval(node[1], ctx, preset).as_element()
        x = _eval(node[2], ctx, preset).as_element()
        return Value("element", left_action(p, x, ctx))
    raise AssertionError(f"unhandled node kind {kind!r}")


# one shared value per symbol: values and their data are never mutated
_SYMBOL_VALUES = {
    "i": Value("scalar", Scalar.i()),
    **{name: Value("scalar", Scalar.term(1, **{name: 1})) for name in ("hbar", "kappa", "c")},
    "q": Value("element", Element.q_power(1)),
    **{name: Value("element", Element.generator(g)) for name, g in GEN_BY_NAME.items()},
}


def _mul(a: Value, b: Value, preset: AlgebraPreset) -> Value:
    if a.kind == "tensor" or b.kind == "tensor":
        if a.kind == "scalar":
            return Value("tensor", b.data.scaled(a.data))
        if b.kind == "scalar":
            return Value("tensor", a.data.scaled(b.data))
        if a.kind == "tensor" and b.kind == "tensor":
            return Value("tensor", tensor_multiply(a.data, b.data, preset))
        raise SectorError("cannot multiply a tensor by a non-scalar element")
    if a.kind == "scalar" and b.kind == "scalar":
        return Value("scalar", a.data * b.data)
    if a.kind == "scalar":
        return Value("element", b.data.scaled(a.data))
    if b.kind == "scalar":
        return Value("element", a.data.scaled(b.data))
    return Value("element", preset._product(a.data, b.data))


def _invert(v: Value) -> Value:
    if v.kind == "scalar":
        return Value("scalar", v.data.inverse())
    if v.kind == "element":
        terms = list(v.data.items())
        if len(terms) == 1 and not terms[0][0].word:
            mono, coeff = terms[0]
            return Value(
                "element",
                Element.term(Monomial((), -mono.qexp), coeff.inverse()),
            )
    raise SectorError("division is only defined by invertible scalar or q-power factors")


def _pow(v: Value, n: int, preset: AlgebraPreset) -> Value:
    if n < 0:
        v = _invert(v)
        n = -n
    if v.kind == "scalar":
        return Value("scalar", _power(v.data, n))
    if v.kind == "element":
        terms = list(v.data.items())
        if len(terms) == 1 and not terms[0][0].word:
            # (c q^k)^n = c^n q^(k n): q-powers multiply by adding exponents
            mono, coeff = terms[0]
            return Value(
                "element",
                Element.term(Monomial((), mono.qexp * n), _power(coeff, n)),
            )
    if n > MAX_POWER:
        raise ResourceLimitError(
            f"exponent {n} is above the limit of {MAX_POWER} for powers with "
            "generators in them"
        )
    if v.kind == "element":
        if len(terms) == 1:
            # one term: O(log n) products, so O(log n) memoized words
            return Value("element", _power(v.data, n, Element.one(), preset._product))
        # several terms: squaring multiplies ever longer sums by themselves
        out = Element.one()
        for _ in range(n):
            out = preset._product(out, v.data)
        return Value("element", out)
    out_t = v.data
    if n == 0:
        return Value("tensor", TensorElement.unit(v.data.rank))
    for _ in range(n - 1):
        out_t = tensor_multiply(out_t, v.data, preset)
    return Value("tensor", out_t)


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
    given one); that is the only admissibility check, since every value built
    from them lies in that sector, so products, powers and commutators run
    unchecked.  The parser, the evaluator and the rewrite engine all recurse, so deep
    nesting and long words are bounded by the interpreter's recursion limit;
    reaching it raises ResourceLimitError, as `M2^1200 M1` does, whose M1
    moves left one swap at a time.  A letter below a run of momenta, or x0
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
