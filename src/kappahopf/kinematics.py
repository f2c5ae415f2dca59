"""Floating-point evaluation of the deformed mass shell and uncertainty bounds.

All formulas are closed forms in the deformation parameter kappa, the speed
of light c, Planck's constant hbar, the rest mass M and the spatial momentum
magnitude P.  The mass-shell condition

    (2 kappa sinh(P0 / 2 kappa c))^2 - P^2/c^2 = M^2

is solved for the exponential q = exp(P0 / 2 kappa c) as q = s + sqrt(1+s^2)
with s^2 = (P^2/c^2 + M^2) / 4 kappa^2.  Note the dimensionally consistent
s^2: the variant (P^2 + M^2) / 4 kappa^2 c^2 found in some writeups does not
satisfy the mass-shell condition unless c = 1.

Everything runs in double precision; no arbitrary-precision floats.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .elements import Element
from .errors import IncompleteStateError, ParameterError
from .presets import AlgebraPreset


@dataclass(frozen=True)
class KinematicParams:
    kappa: float
    c: float = 1.0
    hbar: float = 1.0
    M: float = 0.0
    Pvec: float = 0.0

    def __post_init__(self):
        # every chained comparison is false for nan as well as for inf; one
        # expression on the fields is the cheapest test for the per-row
        # construction in sweeps, and the loops below only name the culprit
        if (
            0 < self.kappa < math.inf
            and 0 < self.c < math.inf
            and 0 < self.hbar < math.inf
            and 0 <= self.M < math.inf
            and 0 <= self.Pvec < math.inf
        ):
            return
        for name in ("kappa", "c", "hbar"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ParameterError(
                    f"{name} must be strictly positive and finite, got {value}"
                )
        for name in ("M", "Pvec"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ParameterError(
                    f"{name} must be nonnegative and finite, got {value}"
                )


def _overflow(params: KinematicParams) -> ParameterError:
    return ParameterError(
        f"mass shell overflows double precision at kappa={params.kappa}, "
        f"c={params.c}, M={params.M}, P={params.Pvec}"
    )


def mass_shell_exp(params: KinematicParams) -> float:
    """On-shell value of q = exp(P0 / 2 kappa c); always >= 1."""
    try:
        s = math.sqrt((params.Pvec / params.c) ** 2 + params.M**2) / (2 * params.kappa)
    except OverflowError:
        raise _overflow(params) from None
    q = s + math.sqrt(1.0 + s * s)
    if q == math.inf:
        raise _overflow(params)
    return q


def check_mass_shell(params: KinematicParams) -> float:
    """Residual of the mass-shell condition at the closed-form q."""
    q = mass_shell_exp(params)
    try:
        lhs = (params.kappa * (q - 1.0 / q)) ** 2 - (params.Pvec / params.c) ** 2
    except OverflowError:
        raise _overflow(params) from None
    return lhs - params.M**2


class ExpectationAssignment:
    """State expectations keyed by normal-form monomial renderings.

    <1> is fixed to one.  Values may be complex; bounds that consume a
    hermitian combination validate that its expectation is real.
    """

    def __init__(self, values: dict[str, complex] | None = None):
        self._values: dict[str, complex] = {"1": 1.0 + 0.0j}
        if values:
            for key, val in values.items():
                if key == "1" and complex(val) != 1:
                    raise ParameterError("<1> must equal 1")
                self._values[key] = complex(val)

    def get(self, rendering: str) -> complex | None:
        return self._values.get(rendering)

    def expectation(self, e: Element, hbar: float, kappa: float, c: float) -> complex:
        """<e> with Scalar coefficients numerized; raises if monomials are missing."""
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
        return total

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
    """Robertson lower bound (1/2)|<[a, b]>| for the product of dispersions."""
    comm = preset.commutator(a, b)
    return 0.5 * abs(state.expectation(comm, hbar, kappa, c))


@dataclass(frozen=True)
class BoundSet:
    """Lower bounds for the four uncertainty products (x0 = c t, E = c p0)."""

    time_position: float
    momentum_position: float
    energy_time: float
    momentum_time: float

    def as_dict(self):
        return {
            "dt_dx": self.time_position,
            "dp_dx": self.momentum_position,
            "dE_dt": self.energy_time,
            "dp_dt": self.momentum_time,
        }


def bounds_bicross(
    hbar: float, kappa: float, c: float, exp_x: float = 0.0, exp_p: float = 0.0
) -> BoundSet:
    """Bicrossproduct-basis bounds.

    dt dx_k >= (hbar / 2 kappa c^2) |<x_k>|      dp_k dx_k >= hbar/2
    dE dt   >= hbar/2                            dp_k dt   >= (hbar / 2 kappa c^2) |<p_k>|
    """
    front = hbar / (2 * kappa * c * c)
    return BoundSet(
        time_position=front * abs(exp_x),
        momentum_position=0.5 * hbar,
        energy_time=0.5 * hbar,
        momentum_time=front * abs(exp_p),
    )


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
        warnings.warn(
            "on-shell values of <exp(P0/2 kappa c)> are >= 1; "
            f"got {exp_q}",
            stacklevel=2,
        )
    return BoundSet(
        time_position=hbar / (2 * kappa * c * c) * abs(exp_x),
        momentum_position=0.5 * hbar * abs(exp_q),
        energy_time=0.5 * hbar,
        momentum_time=hbar / (4 * kappa * c * c) * abs(exp_p),
    )


def nonrel_bound(M: float, kappa: float, hbar: float = 1.0) -> float:
    """Nonrelativistic (c -> infinity) momentum-position bound:

    dp dx > (hbar/4) [1 + (1 + M/2 kappa)^2] > (hbar/2)(1 + M/2 kappa)
    """
    if M < 0:
        raise ParameterError(f"M must be nonnegative, got {M}")
    if not kappa > 0:
        raise ParameterError(f"kappa must be strictly positive, got {kappa}")
    v = 1.0 + M / (2.0 * kappa)
    return 0.25 * hbar * (1.0 + v * v)


def nonrel_chain(M: float, kappa: float, hbar: float = 1.0) -> tuple[float, float]:
    """(middle, right) of the nonrelativistic inequality chain."""
    v = 1.0 + M / (2.0 * kappa)
    return 0.25 * hbar * (1.0 + v * v), 0.5 * hbar * v


def modified_bound(delta_p: float, kappa: float, c: float, hbar: float = 1.0) -> float:
    """String-motivated modified bound dp dx > (hbar/2)(1 + dp^2 / 8 kappa^2 c^2).

    Valid in the regime <P>^2 + M^2 c^2 << kappa^2 c^2 with dp <= kappa c;
    outside it a warning is issued and the value still computed.
    """
    if delta_p < 0:
        raise ParameterError(f"delta_p must be nonnegative, got {delta_p}")
    if delta_p > kappa * c:
        warnings.warn(
            f"delta_p = {delta_p} exceeds kappa*c = {kappa * c}; "
            "outside the validity regime of the quadratic estimate",
            stacklevel=2,
        )
    return 0.5 * hbar * (1.0 + delta_p**2 / (8.0 * kappa**2 * c**2))


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
    u = (exp_P**2 + delta_p**2 + (M * c) ** 2) / (4.0 * kappa**2 * c**2)
    return 0.5 * hbar * math.sqrt(1.0 + u)


# -- sweeps (CLI backend) --------------------------------------------------------


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    if not (lo > 0 and hi > 0):
        raise ParameterError("log grid bounds must be positive")
    if n < 2:
        raise ParameterError(f"a log grid needs at least 2 points, got {n}")
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]


def sweep_rows(
    var: str,
    lo: float,
    hi: float,
    n: int,
    base: KinematicParams,
    quantity: str = "mass-shell",
) -> list[dict]:
    """Rows of (kappa, c, hbar, M, P, value, residual) varying one parameter.

    quantity "mass-shell": value is the on-shell q, residual the mass-shell
    defect.  quantity "bound": value is the standard-basis momentum-position
    bound at the on-shell q, residual its deviation from hbar/2.
    """
    if var not in ("kappa", "M", "P"):
        raise ParameterError(f"sweep variable must be kappa, M or P, got {var!r}")
    rows = []
    for value in log_grid(lo, hi, n):
        kw = {
            "kappa": base.kappa,
            "c": base.c,
            "hbar": base.hbar,
            "M": base.M,
            "Pvec": base.Pvec,
        }
        kw["kappa" if var == "kappa" else ("M" if var == "M" else "Pvec")] = value
        params = KinematicParams(**kw)
        q = mass_shell_exp(params)
        if quantity == "mass-shell":
            val, res = q, check_mass_shell(params)
        elif quantity == "bound":
            val = bounds_standard(
                params.hbar, params.kappa, params.c, exp_q=q
            ).momentum_position
            res = val - 0.5 * params.hbar
        else:
            raise ParameterError(f"unknown sweep quantity {quantity!r}")
        rows.append(
            {
                "kappa": params.kappa,
                "c": params.c,
                "hbar": params.hbar,
                "M": params.M,
                "P": params.Pvec,
                "value": val,
                "residual": res,
            }
        )
    return rows
