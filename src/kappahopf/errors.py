"""Exception types shared across the engine, and the numeric layer's input and
result checks, here because `scalars` cannot import `kinematics`."""

import math


class KappaHopfError(Exception):
    """Base class for all engine errors."""


class ParameterError(KappaHopfError, ValueError):
    """Invalid numeric parameter (e.g. non-positive value of hbar, kappa or c)."""


def _is_finite(value: complex) -> bool:
    return abs(value.real) < math.inf and abs(value.imag) < math.inf


# each kind's test and error words; every comparison is false for nan
_KINDS = {
    "positive": (lambda v: 0 < v < math.inf, "strictly positive and finite"),
    "nonnegative": (lambda v: 0 <= v < math.inf, "nonnegative and finite"),
    "finite": (_is_finite, "finite"),
}


def check_finite(kind: str, **values: float) -> None:
    """ParameterError "<name> must be <words>, got <v>" for the first value,
    in argument order, that fails kind: "positive", "nonnegative" or "finite"."""
    test, words = _KINDS[kind]
    for name, value in values.items():
        if not test(value):
            raise ParameterError(f"{name} must be {words}, got {value}")


def finite_result(name: str, compute):
    """compute(), or ParameterError "<name> overflows double precision, got
    <v>": finite inputs can still give inf, nan as inf times zero, or an
    OverflowError from a float power or the modulus of a complex."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not _is_finite(value):
        raise ParameterError(f"{name} overflows double precision, got {value}")
    return value


class DivisionByZeroError(KappaHopfError, ZeroDivisionError):
    """Division by a scalar with no inverse in the ring: zero, or a sum of addends."""


class ResourceLimitError(KappaHopfError, ValueError):
    """A result is too large to handle, e.g. a coefficient past the interpreter's
    limit on int-to-str conversion."""


class SectorError(KappaHopfError, ValueError):
    """Monomial uses generators that are not admissible in the requested sector."""


class NonTerminationError(KappaHopfError, RuntimeError):
    """A rewrite rule whose correction does not weigh less than the word it
    replaces, so termination is not proven; raised when a preset is built and
    carries the offending correction monomial."""

    def __init__(self, monomial, replaced):
        self.monomial = monomial
        super().__init__(
            f"rewriting may not terminate: correction {monomial!r} of the rule "
            f"for {replaced} does not weigh less than {replaced}"
        )


class PairingError(KappaHopfError, ValueError):
    """Duality pairing applied to an element from the wrong sector."""


class IncompleteStateError(KappaHopfError, KeyError):
    """Expectation assignment is missing monomials needed by a bound."""

    def __init__(self, missing):
        self.missing = list(missing)
        super().__init__(
            "missing expectation values for: " + ", ".join(self.missing)
        )


class ParseError(KappaHopfError, ValueError):
    """Syntax error with position and the set of expected tokens."""

    def __init__(self, message, line, column, expected=(), found=None):
        self.line = line
        self.column = column
        self.expected = sorted(expected)
        self.found = found
        detail = f"{message} at line {line}, column {column}"
        if found is not None:
            detail += f" (found {found!r})"
        if self.expected:
            detail += " — expected one of: " + ", ".join(self.expected)
        super().__init__(detail)
