"""Plain record base classes and the serializable result records for the
verification suites."""

from __future__ import annotations


class Record:
    """Record whose fields are its `__slots__`: repr and `==` by field value,
    unhashable since a field may change."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    """Immutable `Record` hashed by value: assigning or deleting a field
    raises `AttributeError`."""

    __slots__ = ()

    def _init(self, *values):
        # each field is set once, here, past the blocked __setattr__
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle and copy rebuild through __init__, not the blocked setattr
        return type(self), self._values()


class _SuiteReport(Record):
    """Report of one check over a preset: its first two fields name it, and
    `entries` holds one entry per subject, each with its own `passed` and
    `failure_text()`."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list:
        return [e for e in self.entries if not e.passed]

    def to_dict(self):
        return {name: getattr(self, name) for name in self.__slots__[:2]} | {
            "pass": self.passed,
            "entries": [e.to_dict() for e in self.entries],
        }

    def text_lines(self) -> list[str]:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{self.title}: {status} ({len(self.entries)} checks)"]
        return lines + [f"  FAIL {e.failure_text()}" for e in self.failures()]


class CheckEntry(Record):
    __slots__ = ("subject", "passed", "residual")

    def __init__(self, subject: str, passed: bool, residual: str = "0"):
        self.subject, self.passed, self.residual = subject, passed, residual

    def failure_text(self) -> str:
        return f"{self.subject}: {self.residual}"

    def to_dict(self):
        return {
            "subject": self.subject,
            "pass": self.passed,
            "residual_rendering": self.residual,
        }


class CheckReport(_SuiteReport):
    __slots__ = ("preset", "axiom", "entries")

    def __init__(self, preset: str, axiom: str, entries: list[CheckEntry] | None = None):
        self.preset, self.axiom = preset, axiom
        self.entries = [] if entries is None else entries

    @property
    def title(self) -> str:
        return f"{self.preset} {self.axiom}"


class DerivationEntry(Record):
    __slots__ = ("pair", "derived", "table", "match")

    def __init__(self, pair: str, derived: str, table: str, match: bool):
        self.pair, self.derived, self.table, self.match = pair, derived, table, match

    @property
    def passed(self) -> bool:
        return self.match

    def failure_text(self) -> str:
        return f"{self.pair}: derived {self.derived} != table {self.table}"

    def to_dict(self):
        return {
            "pair": self.pair,
            "derived_rendering": self.derived,
            "table_rendering": self.table,
            "match": self.match,
        }


class DerivationReport(_SuiteReport):
    __slots__ = ("basis", "convention", "entries")

    def __init__(self, basis: str, convention: str, entries: list[DerivationEntry] | None = None):
        self.basis, self.convention = basis, convention
        self.entries = [] if entries is None else entries

    @property
    def title(self) -> str:
        return f"{self.basis} phase-space derivation"


class BasisMapCandidate(Record):
    __slots__ = ("direction", "sign", "intertwines", "intertwines_flipped",
                 "counit_compatible", "residuals")

    def __init__(self, direction: str, sign: int, intertwines: bool, intertwines_flipped: bool,
                 counit_compatible: bool, residuals: dict | None = None):
        self.direction, self.sign, self.intertwines = direction, sign, intertwines
        self.intertwines_flipped, self.counit_compatible = intertwines_flipped, counit_compatible
        self.residuals = {} if residuals is None else residuals

    def to_dict(self):
        return dict(zip(self.__slots__, self._values()))


class BasisMapReport(Record):
    __slots__ = ("candidates",)

    def __init__(self, candidates: list[BasisMapCandidate]):
        self.candidates = candidates

    @property
    def passing(self) -> list[BasisMapCandidate]:
        return [c for c in self.candidates if c.intertwines]

    @property
    def transformations(self) -> list[BasisMapCandidate]:
        """Passing candidates with mutually inverse directions deduplicated.

        A coalgebra isomorphism and its inverse always pass together, so the
        passing list is collapsed to one representative per bijection, keeping
        the standard->bicross orientation.
        """
        passing = {(c.direction, c.sign) for c in self.passing}
        return [
            c for c in self.passing
            if c.direction == "standard->bicross" or _inverse_key(c) not in passing
        ]

    @property
    def named(self) -> str | None:
        t = self.transformations
        if len(t) != 1:
            return None
        c = t[0]
        arrow = "P_i -> P_i q" if c.sign == 1 else "P_i -> P_i q^-1"
        return f"{c.direction} with {arrow}"

    @property
    def passed(self) -> bool:
        """Exactly one transformation (up to inversion) intertwines the two
        momentum coproducts, and the report names it."""
        return self.named is not None

    def text_lines(self) -> list[str]:
        n, status = len(self.transformations), "PASS" if self.passed else "FAIL"
        lines = [f"basis-map: {status} ({n} intertwining transformation(s))"]
        if self.passed:
            lines.append(f"  named: {self.named}")
        for c in self.candidates:
            verdict = "intertwines" if c.intertwines else "fails"
            lines.append(f"  candidate {c.direction} sign {c.sign:+d}: {verdict}")
        return lines

    def to_dict(self):
        return {
            "candidates": [c.to_dict() for c in self.candidates],
            "transformations": [c.to_dict() for c in self.transformations],
            "named": self.named,
        }


def _inverse_key(c: BasisMapCandidate):
    a, b = c.direction.split("->")
    return (f"{b}->{a}", -c.sign)
