"""Floating-point evaluation of the deformed mass shell and uncertainty bounds.

All formulas are closed forms in the deformation parameter kappa, the speed
of light c, Planck's constant hbar, the rest mass M and the spatial momentum
magnitude P.  The mass-shell condition

    (2 kappa sinh(P0 / 2 kappa c))^2 - P^2/c^2 = M^2

is solved for the exponential q = exp(P0 / 2 kappa c) as q = s + sqrt(1+s^2)
with s^2 = (P^2/c^2 + M^2) / 4 kappa^2.  Note the dimensionally consistent
s^2: the variant (P^2 + M^2) / 4 kappa^2 c^2 found in some writeups does not
satisfy the mass-shell condition unless c = 1.

The closed forms for q and the mass-shell residual are written once, in the
row loop `_shell_rows`.  `sweep_rows` runs it over a log grid and
`mass_shell_exp` and `check_mass_shell` on one point, so a sweep row equals
the per-point values float for float.

Everything runs in double precision; no arbitrary-precision floats.  Inputs
are checked by `errors.check_finite`, results that can overflow by
`errors.finite_result`, each error naming its parameter or result; the sweep's
row loop and `log_grid` keep their own checks.
"""

from __future__ import annotations

import math
import warnings
from array import array
from collections.abc import Sequence
from contextlib import suppress

from .elements import Element
from .errors import (IncompleteStateError, ParameterError, ResourceLimitError, check_finite,
                     finite_result)
from .presets import AlgebraPreset
from .reports import FrozenRecord


class KinematicParams(FrozenRecord):
    __slots__ = ("kappa", "c", "hbar", "M", "Pvec")

    def __init__(self, kappa: float, c: float = 1.0, hbar: float = 1.0, M: float = 0.0,
                 Pvec: float = 0.0):
        check_finite("positive", kappa=kappa, c=c, hbar=hbar)
        check_finite("nonnegative", M=M, Pvec=Pvec)
        self._init(kappa, c, hbar, M, Pvec)


def mass_shell_exp(params: KinematicParams) -> float:
    """On-shell value of q = exp(P0 / 2 kappa c); always >= 1."""
    return _shell_rows("kappa", [params.kappa], params, "q")[0][0]


def check_mass_shell(params: KinematicParams) -> float:
    """Residual of the mass-shell condition at the closed-form q."""
    return _shell_rows("kappa", [params.kappa], params, "mass-shell")[1][0]


class ExpectationAssignment:
    """State expectations keyed by normal-form monomial renderings.

    <1> is fixed to one and every value must be finite.  Values may be complex
    and no bound checks that they are real: `robertson_bound` takes the
    modulus of <[a, b]>, and `require_real` is there for a caller that does.
    """

    def __init__(self, values: dict[str, complex] | None = None):
        self._values: dict[str, complex] = {"1": 1.0 + 0.0j}
        for key, val in (values or {}).items():
            val = complex(val)
            if key == "1" and val != 1:
                raise ParameterError("<1> must equal 1")
            check_finite("finite", **{f"<{key}>": val})
            self._values[key] = val

    def get(self, rendering: str) -> complex | None:
        return self._values.get(rendering)

    def expectation(self, e: Element, hbar: float, kappa: float, c: float) -> complex:
        """<e> with Scalar coefficients numerized; raises if monomials are
        missing, or if the sum overflows double precision."""
        total = 0.0 + 0.0j
        missing = []
        for mono, coeff in e.items():
            val = self._values.get(mono.render())
            if val is None:
                missing.append(mono.render())
                continue
            total += coeff.to_complex(hbar, kappa, c) * val
        if missing:
            raise IncompleteStateError(sorted(missing))
        return finite_result("expectation value", lambda: total)

    def require_real(self, rendering: str):
        val = self._values.get(rendering)
        if val is not None and abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
            raise ParameterError(
                f"expectation of hermitian combination {rendering!r} must be real"
            )


def robertson_bound(
    a: Element,
    b: Element,
    preset: AlgebraPreset,
    state: ExpectationAssignment,
    hbar: float,
    kappa: float,
    c: float,
) -> float:
    """Robertson lower bound (1/2)|<[a, b]>| for the product of dispersions;
    the constants are checked even where the commutator is zero."""
    check_finite("positive", hbar=hbar, kappa=kappa, c=c)
    return finite_result("Robertson bound", lambda: 0.5 * abs(
        state.expectation(preset.commutator(a, b), hbar, kappa, c)))


class BoundSet(FrozenRecord):
    """Lower bounds for the four uncertainty products (x0 = c t, E = c p0)."""

    __slots__ = ("time_position", "momentum_position", "energy_time", "momentum_time")
    # the as_dict key of each field, in field order
    KEYS = ("dt_dx", "dp_dx", "dE_dt", "dp_dt")

    def __init__(self, time_position: float, momentum_position: float, energy_time: float,
                 momentum_time: float):
        self._init(time_position, momentum_position, energy_time, momentum_time)

    def as_dict(self):
        return dict(zip(self.KEYS, self._values()))


def _bounds(hbar: float, kappa: float, c: float, exp_x: float, exp_p: float, exp_q: float,
            dp_dt_factor: int) -> BoundSet:
    """The four bounds of either basis, written once; the momentum-time
    denominator is dp_dt_factor kappa c^2, which is nonzero whenever
    2 kappa c^2 is."""
    check_finite("nonnegative", hbar=hbar, kappa=kappa, c=c)
    denom = 2 * kappa * c * c
    if denom == 0.0:
        raise ParameterError(f"2 kappa c^2 underflows double precision at kappa={kappa}, c={c}")
    values = (hbar / denom * abs(exp_x), 0.5 * hbar * abs(exp_q), 0.5 * hbar,
              hbar / (dp_dt_factor * kappa * c * c) * abs(exp_p))
    return BoundSet(*(finite_result(f"bound {key}", lambda: v)
                      for key, v in zip(BoundSet.KEYS, values)))


def bounds_bicross(
    hbar: float, kappa: float, c: float, exp_x: float = 0.0, exp_p: float = 0.0
) -> BoundSet:
    """Bicrossproduct-basis bounds.

    dt dx_k >= (hbar / 2 kappa c^2) |<x_k>|      dp_k dx_k >= hbar/2
    dE dt   >= hbar/2                            dp_k dt   >= (hbar / 2 kappa c^2) |<p_k>|

    These are the standard-basis formulas at <q> = 1 with the momentum-time
    denominator 2 kappa c^2.
    """
    return _bounds(hbar, kappa, c, exp_x, exp_p, 1.0, 2)


def bounds_standard(
    hbar: float,
    kappa: float,
    c: float,
    exp_x: float = 0.0,
    exp_p: float = 0.0,
    exp_q: float = 1.0,
) -> BoundSet:
    """Standard-basis bounds; the momentum-position product scales with
    |<exp(P0 / 2 kappa c)>| and the momentum-time coefficient is halved
    relative to the bicrossproduct basis (it tracks [x0, p_k] = i hbar p_k / 2 kappa c).
    """
    if exp_q < 1.0:
        warnings.warn(f"on-shell values of <exp(P0/2 kappa c)> are >= 1; got {exp_q}", stacklevel=2)
    return _bounds(hbar, kappa, c, exp_x, exp_p, exp_q, 4)


def nonrel_bound(M: float, kappa: float, hbar: float = 1.0) -> float:
    """Nonrelativistic (c -> infinity) momentum-position bound:

    dp dx > (hbar/4) [1 + (1 + M/2 kappa)^2] > (hbar/2)(1 + M/2 kappa)
    """
    return nonrel_chain(M, kappa, hbar)[0]


def nonrel_chain(M: float, kappa: float, hbar: float = 1.0) -> tuple[float, float]:
    """(middle, right) of the nonrelativistic inequality chain."""
    check_finite("nonnegative", M=M)
    check_finite("positive", kappa=kappa, hbar=hbar)
    v = 1.0 + M / (2.0 * kappa)
    return (finite_result("bound dp_dx", lambda: 0.25 * hbar * (1.0 + v * v)),
            finite_result("bound dp_dx estimate", lambda: 0.5 * hbar * v))


def _check_kappa_c(kappa: float, c: float) -> None:
    """kappa^2 c^2, which the estimates divide by, must neither underflow nor overflow."""
    with suppress(OverflowError):
        if kappa**2 * c**2 > 0:
            return
    raise ParameterError(f"kappa^2 c^2 must be a positive double, got kappa={kappa}, c={c}")


def modified_bound(delta_p: float, kappa: float, c: float, hbar: float = 1.0) -> float:
    """String-motivated modified bound dp dx > (hbar/2)(1 + dp^2 / 8 kappa^2 c^2).

    Valid in the regime <P>^2 + M^2 c^2 << kappa^2 c^2 with dp <= kappa c;
    outside it a warning is issued and the value still computed.
    """
    check_finite("nonnegative", delta_p=delta_p)
    check_finite("positive", hbar=hbar, kappa=kappa, c=c)
    _check_kappa_c(kappa, c)
    if delta_p > kappa * c:
        warnings.warn(
            f"delta_p = {delta_p} exceeds kappa*c = {kappa * c}; "
            "outside the validity regime of the quadratic estimate",
            stacklevel=2,
        )
    return finite_result(
        "bound dp_dx", lambda: 0.5 * hbar * (1.0 + delta_p**2 / (8.0 * kappa**2 * c**2))
    )


def sqrt_bound_estimate(
    delta_p: float,
    kappa: float,
    c: float,
    hbar: float = 1.0,
    exp_P: float = 0.0,
    M: float = 0.0,
) -> float:
    """Square-root form of the momentum-position estimate,
    (hbar/2) sqrt(1 + (<P>^2 + dp^2 + M^2 c^2) / 4 kappa^2 c^2),
    of which `modified_bound` is the quadratic (upper) approximation.
    """
    check_finite("nonnegative", delta_p=delta_p, M=M)
    check_finite("positive", hbar=hbar, kappa=kappa, c=c)
    check_finite("finite", exp_P=exp_P)
    _check_kappa_c(kappa, c)
    return finite_result("bound dp_dx", lambda: 0.5 * hbar * math.sqrt(
        1.0 + (exp_P**2 + delta_p**2 + (M * c) ** 2) / (4.0 * kappa**2 * c**2)))


# -- sweeps (CLI backend) --------------------------------------------------------


# the most points a sweep takes: its grid and columns are built in full
MAX_POINTS = 10**5
SWEEP_VARS = ("kappa", "M", "P")
SWEEP_QUANTITIES = ("mass-shell", "bound")


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    if not (lo > 0 and hi > 0):
        raise ParameterError("log grid bounds must be positive")
    if n < 2:
        raise ParameterError(f"a log grid needs at least 2 points, got {n}")
    if n > MAX_POINTS:
        raise ResourceLimitError(f"a log grid takes at most {MAX_POINTS} points, got {n}")
    span = hi / lo
    if span < math.inf:
        ratio = span ** (1.0 / (n - 1))
        with suppress(OverflowError):
            grid = [lo * ratio**i for i in range(n)]
            if grid[-1] < math.inf:
                return grid
    # hi / lo or a power of the ratio overflows: step in log space as
    # lo^(1-t) hi^t, both factors between 1 and an end point, which is exact
    last = n - 1
    return [lo ** ((last - i) / last) * hi ** (i / last) for i in range(n)]


def _shell_rows(
    var: str, grid: list[float], base: KinematicParams, quantity: str
) -> tuple[list[float], list[float | None]]:
    """The value and residual columns of `sweep_rows` over grid, or with
    quantity "q" the values and residuals that are None and not computed.
    Row i is checked and evaluated before row i+1 is touched, and the row
    body calls no Python function."""
    # base was validated when it was built; only the swept value needs a check
    kappa, c, hbar, M, P = base.kappa, base.c, base.hbar, base.M, base.Pvec
    field = "Pvec" if var == "P" else var
    sweep_kappa, sweep_m = var == "kappa", var == "M"
    residual, bound = quantity == "mass-shell", quantity == "bound"
    sqrt, inf = math.sqrt, math.inf
    half = 0.5 * hbar
    root = None
    q = val = 0.0
    values: list[float] = []
    residuals: list[float | None] = []
    add_value, add_residual = values.append, residuals.append
    for value in grid:
        if not 0 < value < inf:
            # grid points are never negative; KinematicParams raises the
            # usual error for inf, nan or a zero kappa and accepts M = P = 0
            KinematicParams(**{"kappa": base.kappa, "c": c, "hbar": hbar,
                               "M": base.M, "Pvec": base.Pvec, field: value})
        if sweep_kappa:
            kappa = value
        elif sweep_m:
            M = value
            root = None
        else:
            P = value
            root = None
        try:
            if root is None:
                # independent of kappa: a kappa sweep computes it at its first row
                p2 = (P / c) ** 2
                m2 = M**2
                root = sqrt(p2 + m2)
            s = root / (2 * kappa)
            q = val = s + sqrt(1.0 + s * s)
            res = None
            if residual:
                res = (kappa * (q - 1.0 / q)) ** 2 - p2 - m2
            elif bound:
                # bounds_standard(hbar, kappa, c, exp_q=q).momentum_position,
                # with no abs since q >= 1
                val = half * q
                res = val - half
            # val is q, or the bound: inf if q is, or nan if hbar / 2 underflows too
            if not val < inf:
                raise OverflowError
        except OverflowError:
            at = f"kappa={kappa}, c={c}, M={M}, P={P}"
            # only the bound is inf at a finite q (val, q are the last row's if raised before)
            if val == inf and q < inf:
                at = f"hbar={hbar}, {at}"
                raise ParameterError(f"bound dp_dx overflows double precision at {at}") from None
            raise ParameterError(f"mass shell overflows double precision at {at}") from None
        add_value(val)
        add_residual(res)
    return values, residuals


class SweepRows(Sequence):
    """The rows of a sweep, stored by column: the base parameters and the
    grid, value and residual columns as packed doubles (`array("d")`, 8
    bytes each), so a row costs 24 bytes against 96 with lists of floats.
    Reading a row builds a fresh dict of Python floats with the keys kappa,
    c, hbar, M, P, value, residual in that order, so changing it leaves the
    sweep as it was.  A sweep compares equal to the list of its rows as
    dicts; a slice is a SweepRows over slices of the columns."""

    __slots__ = ("_field", "_grid", "_base", "_values", "_residuals")

    def __init__(self, var: str, grid: array, base: KinematicParams,
                 values: array, residuals: array):
        self._field = var
        self._grid = grid
        self._base = base
        self._values = values
        self._residuals = residuals

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, i: int | slice) -> dict | SweepRows:
        if isinstance(i, slice):
            return SweepRows(self._field, self._grid[i], self._base, self._values[i],
                             self._residuals[i])
        base = self._base
        row = {"kappa": base.kappa, "c": base.c, "hbar": base.hbar, "M": base.M,
               "P": base.Pvec, "value": self._values[i], "residual": self._residuals[i]}
        row[self._field] = self._grid[i]
        return row

    def __eq__(self, other) -> bool:
        if isinstance(other, SweepRows):
            other = list(other)
        return list(self) == other if isinstance(other, list) else NotImplemented

    def __repr__(self) -> str:
        return f"SweepRows({list(self)!r})"


def sweep_rows(
    var: str,
    lo: float,
    hi: float,
    n: int,
    base: KinematicParams,
    quantity: str = "mass-shell",
) -> SweepRows:
    """Rows of (kappa, c, hbar, M, P, value, residual) varying one parameter.

    quantity "mass-shell": value is the on-shell q, residual the mass-shell
    defect.  quantity "bound": value is the standard-basis momentum-position
    bound at the on-shell q, residual its deviation from hbar/2.
    """
    if var not in SWEEP_VARS:
        raise ParameterError(f"sweep variable must be kappa, M or P, got {var!r}")
    grid = log_grid(lo, hi, n)
    if quantity not in SWEEP_QUANTITIES:
        raise ParameterError(f"unknown sweep quantity {quantity!r}")
    values, residuals = _shell_rows(var, grid, base, quantity)
    # one conversion per column after the row loop, which is faster than
    # appending to the arrays inside it
    return SweepRows(var, array("d", grid), base, array("d", values), array("d", residuals))
