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

Division is defined for invertible right factors only: rationals, single-term
scalars, and scalar multiples of q powers.  `parse(render(e))` evaluates back
to `e` for every normal-form element the engine produces.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

from .crossproduct import Convention, PairingContext, left_action, pair
from .elements import GEN_BY_NAME, Monomial, Element
from .errors import ParseError, ResourceLimitError, SectorError
from .hopf import TensorElement, antipode, coproduct, counit, tensor_multiply
from .presets import AlgebraPreset, Basis, Sector, get_preset
from .scalars import Scalar

# -- lexer ---------------------------------------------------------------------

_SYMBOLS = ("|>", "+", "-", "*", "/", "^", "(", ")", "[", "]", ",", "<", ">", "|")
_KEYWORDS = {"i", "hbar", "kappa", "c", "q", "D", "S", "eps"} | set(GEN_BY_NAME)


@dataclass(frozen=True)
class Token:
    kind: str  # NUMBER | IDENT | one of _SYMBOLS | EOF
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("NUMBER", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if source.startswith("|>", i):
            tokens.append(Token("|>", "|>", line, col))
            i += 2
            col += 2
            continue
        if ch in "+-*/^()[],<>|":
            tokens.append(Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character", line, col, found=ch)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# -- parse tree ------------------------------------------------------------------

# nodes: ('num', Fraction) ('sym', name) ('neg', a) ('add', a, b) ('sub', a, b)
#        ('mul', a, b) ('div', a, b) ('pow', a, int) ('comm', a, b)
#        ('cop', a) ('anti', a) ('counit', a) ('pair', a, b) ('action', a, b)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                "syntax error", tok.line, tok.column, expected={kind}, found=tok.text
            )
        return self.advance()

    def parse(self):
        node = self.action()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(
                "trailing input", tok.line, tok.column, expected={"EOF"}, found=tok.text
            )
        return node

    def action(self):
        node = self.sum()
        if self.peek().kind == "|>":
            self.advance()
            return ("action", node, self.action())
        return node

    def sum(self):
        node = self.product()
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.product()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    _ATOM_STARTS = {"NUMBER", "IDENT", "(", "[", "<"}

    def product(self):
        negate = False
        if self.peek().kind == "-":
            self.advance()
            negate = True
        node = self.power()
        while True:
            kind = self.peek().kind
            if kind in ("*", "/"):
                op = self.advance().kind
                rhs = self.power()
                node = ("mul" if op == "*" else "div", node, rhs)
            elif kind in self._ATOM_STARTS:
                node = ("mul", node, self.power())
            else:
                break
        return ("neg", node) if negate else node

    def power(self):
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            sign = 1
            if self.peek().kind == "-":
                self.advance()
                sign = -1
            tok = self.expect("NUMBER")
            node = ("pow", node, sign * int(tok.text))
        return node

    def atom(self):
        tok = self.peek()
        if tok.kind == "NUMBER":
            self.advance()
            return ("num", Fraction(int(tok.text)))
        if tok.kind == "(":
            self.advance()
            node = self.action()
            self.expect(")")
            return node
        if tok.kind == "[":
            self.advance()
            a = self.action()
            self.expect(",")
            b = self.action()
            self.expect("]")
            return ("comm", a, b)
        if tok.kind == "<":
            self.advance()
            a = self.action()
            self.expect("|")
            b = self.action()
            self.expect(">")
            return ("pair", a, b)
        if tok.kind == "IDENT":
            self.advance()
            name = tok.text
            if name in ("D", "S", "eps"):
                self.expect("(")
                inner = self.action()
                self.expect(")")
                return {"D": "cop", "S": "anti", "eps": "counit"}[name], inner
            if name in _KEYWORDS or name in GEN_BY_NAME:
                return ("sym", name)
            raise ParseError(
                "unknown symbol",
                tok.line,
                tok.column,
                expected=sorted(_KEYWORDS),
                found=name,
            )
        raise ParseError(
            "syntax error",
            tok.line,
            tok.column,
            expected=sorted(self._ATOM_STARTS),
            found=tok.text or "end of input",
        )


def parse(source: str):
    """Parse an expression; raises ParseError with line/column on bad input."""
    return _Parser(tokenize(source)).parse()


# -- evaluation --------------------------------------------------------------------


def symbols_used(node) -> set[str]:
    if not isinstance(node, tuple):
        return set()
    if node[0] == "sym":
        return {node[1]}
    out: set[str] = set()
    for child in node[1:]:
        if isinstance(child, tuple):
            out |= symbols_used(child)
    return out


def infer_sector(node, explicit: Sector | None = None) -> Sector:
    names = symbols_used(node)
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


@dataclass
class EvalContext:
    basis: Basis = Basis.BICROSS
    sector: Sector | None = None
    convention: Convention = Convention.LEFT

    def preset_for(self, node) -> AlgebraPreset:
        return get_preset(self.basis, infer_sector(node, self.sector))

    @property
    def pairing(self) -> PairingContext:
        return PairingContext(self.basis, self.convention)


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


def evaluate(node, ctx: EvalContext, preset: AlgebraPreset | None = None) -> Value:
    """Evaluate a parse tree to a normal-form value."""
    if preset is None:
        preset = ctx.preset_for(node)
    return _eval(node, ctx, preset)


def _eval(node, ctx: EvalContext, preset: AlgebraPreset) -> Value:
    kind = node[0]
    if kind == "num":
        return Value("scalar", Scalar.gaussian(node[1]))
    if kind == "sym":
        return _eval_symbol(node[1])
    if kind == "neg":
        v = _eval(node[1], ctx, preset)
        return Value(v.kind, -v.data)
    if kind in ("add", "sub"):
        a = _eval(node[1], ctx, preset)
        b = _eval(node[2], ctx, preset)
        if a.kind == "tensor" or b.kind == "tensor":
            if a.kind != "tensor" or b.kind != "tensor":
                raise SectorError("cannot add a tensor to a non-tensor value")
            return Value("tensor", a.data + b.data if kind == "add" else a.data - b.data)
        if a.kind == "scalar" and b.kind == "scalar":
            return Value("scalar", a.data + b.data if kind == "add" else a.data - b.data)
        ea, eb = a.as_element(), b.as_element()
        return Value("element", ea + eb if kind == "add" else ea - eb)
    if kind == "mul":
        return _mul(_eval(node[1], ctx, preset), _eval(node[2], ctx, preset), preset)
    if kind == "div":
        a = _eval(node[1], ctx, preset)
        b = _eval(node[2], ctx, preset)
        return _mul(a, _invert(b), preset)
    if kind == "pow":
        return _pow(_eval(node[1], ctx, preset), node[2], preset)
    if kind == "comm":
        a = _eval(node[1], ctx, preset).as_element()
        b = _eval(node[2], ctx, preset).as_element()
        return Value("element", preset.commutator(a, b))
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
        return Value("scalar", pair(p, x, ctx.pairing))
    if kind == "action":
        p = _eval(node[1], ctx, preset).as_element()
        x = _eval(node[2], ctx, preset).as_element()
        return Value("element", left_action(p, x, ctx.pairing))
    raise AssertionError(f"unhandled node kind {kind!r}")


def _eval_symbol(name: str) -> Value:
    if name == "i":
        return Value("scalar", Scalar.i())
    if name == "hbar":
        return Value("scalar", Scalar.term(1, 0, hbar=1))
    if name == "kappa":
        return Value("scalar", Scalar.term(1, 0, kappa=1))
    if name == "c":
        return Value("scalar", Scalar.term(1, 0, c=1))
    if name == "q":
        return Value("element", Element.q_power(1))
    return Value("element", Element.generator(GEN_BY_NAME[name]))


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
    return Value("element", preset.multiply(a.data, b.data))


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
        return Value("scalar", _scalar_pow(v.data, n))
    if v.kind == "element":
        terms = list(v.data.items())
        if len(terms) == 1 and not terms[0][0].word:
            # (c q^k)^n = c^n q^(k n): q-powers multiply by adding exponents
            mono, coeff = terms[0]
            return Value(
                "element",
                Element.term(Monomial((), mono.qexp * n), _scalar_pow(coeff, n)),
            )
        out = Element.one()
        for _ in range(n):
            out = preset.multiply(out, v.data)
        return Value("element", out)
    out_t = v.data
    if n == 0:
        return Value("tensor", TensorElement.unit(v.data.rank))
    for _ in range(n - 1):
        out_t = tensor_multiply(out_t, v.data, preset)
    return Value("tensor", out_t)


def _scalar_pow(s: Scalar, n: int) -> Scalar:
    """s^n for n >= 0 by repeated squaring."""
    out = Scalar.one()
    while n:
        if n & 1:
            out = out * s
        n >>= 1
        if n:
            s = s * s
    return out


def eval_text(
    source: str,
    basis: Basis = Basis.BICROSS,
    sector: Sector | None = None,
    convention: Convention = Convention.LEFT,
) -> Value:
    """Parse and evaluate in one step.

    The parser, the evaluator and the rewrite engine all recurse, so deep
    nesting, long sums and long words are bounded by the interpreter's
    recursion limit; reaching it raises ResourceLimitError.
    """
    try:
        node = parse(source)
        ctx = EvalContext(Basis(basis), sector, convention)
        return evaluate(node, ctx)
    except RecursionError:
        raise ResourceLimitError(
            "expression is too deeply nested or too long to evaluate "
            f"within the recursion limit ({sys.getrecursionlimit()})"
        ) from None
