"""Exception types shared across the engine."""


class KappaHopfError(Exception):
    """Base class for all engine errors."""


class ParameterError(KappaHopfError, ValueError):
    """Invalid numeric parameter (e.g. non-positive value of hbar, kappa or c)."""


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
