"""Command-line interface: expression evaluation, verification suites, numerics.

Exit codes: 0 all checks passed / evaluation ok, 1 at least one check failed,
2 invalid parameters or internal error.  Output is deterministic: fixed term
order and floats at 12 significant digits.  The default output format can be
overridden with the KAPPA_HOPF_FORMAT environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .crossproduct import (
    Convention,
    basis_map_check,
    derive_phase_space_relations,
)
from .elements import GEN_BY_NAME
from .errors import KappaHopfError
from .grammar import eval_text
from .hopf import (
    check_antipode_axiom,
    check_centrality,
    check_coassociativity,
    check_coproduct_homomorphism,
    check_counit_axiom,
    check_jacobi,
)
from .kinematics import (
    KinematicParams,
    bounds_bicross,
    bounds_standard,
    check_mass_shell,
    mass_shell_exp,
    sweep_rows,
)
from .presets import Basis, Sector, get_preset
from .scalars import Scalar
from .elements import Element


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _resolve_format(args, default="text", allowed=("text", "json")) -> str:
    fmt_choice = getattr(args, "format", None) or os.environ.get("KAPPA_HOPF_FORMAT")
    if fmt_choice is None:
        fmt_choice = default
    if fmt_choice not in allowed:
        raise KappaHopfError(
            f"format {fmt_choice!r} not supported here (allowed: {', '.join(allowed)})"
        )
    return fmt_choice


def _emit(text: str, args):
    out_path = getattr(args, "out", None)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# -- eval -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    out_format = _resolve_format(args)
    sector = Sector(args.sector) if args.sector else None
    value = eval_text(args.expression, Basis(args.basis), sector)
    if out_format == "json":
        payload = {
            "expression": args.expression,
            "basis": args.basis,
            "kind": value.kind,
            "result": value.render(" (x) "),
        }
        _emit(json.dumps(payload, ensure_ascii=False), args)
    else:
        _emit(value.render(), args)
    return 0


# -- suites -----------------------------------------------------------------------


_BOTH = (Sector.POINCARE, Sector.PHASESPACE)
# the preset sectors each suite checks; basis-map builds its own presets
_SUITE_SECTORS = {
    "axioms": _BOTH,
    "jacobi": _BOTH,
    "casimir": (Sector.POINCARE,),
    "phasespace": (Sector.PHASESPACE,),
    "basis-map": (),
    "all": _BOTH,
}


def _selected_bases(args):
    return [Basis(args.basis)] if args.basis else [Basis.BICROSS, Basis.STANDARD]


def _corrupt_pair(args):
    """The (hi, lo) pair named by --corrupt-rule, or None without the flag.

    A pair with no relation-table entry in any preset the suite selects would
    corrupt nothing and let the suite pass, so it is an error.
    """
    text = args.corrupt_rule
    if text is None:
        return None
    names = [s.strip() for s in text.split(",")]
    if len(names) != 2:
        raise KappaHopfError(f"--corrupt-rule expects HI,LO, got {text!r}")
    try:
        pair = GEN_BY_NAME[names[0]], GEN_BY_NAME[names[1]]
    except KeyError as exc:
        raise KappaHopfError(f"unknown generator in --corrupt-rule: {exc}") from exc
    selected = [
        get_preset(basis, sector)
        for basis in _selected_bases(args)
        for sector in _SUITE_SECTORS[args.suite]
    ]
    if not any(pair in preset.rules for preset in selected):
        raise KappaHopfError(
            f"--corrupt-rule {names[0]},{names[1]} names no relation-table entry "
            f"in the presets that suite {args.suite} checks"
        )
    return pair


def _corrupted(preset, pair):
    """Replace one relation-table entry, adding i*hbar to its correction; a
    preset without that entry is returned unchanged."""
    if pair not in preset.rules:
        return preset
    bad = preset.rules[pair] + Element.from_scalar(Scalar.term(0, 1, hbar=1))
    return preset.with_rule_override(pair, bad)


def _suite_presets(args, pair, *sectors):
    """(basis, preset) for each selected basis and sector; with a corrupt
    pair, each preset is corrupted once and all checks of the suite share
    that copy."""
    for basis in _selected_bases(args):
        for sector in sectors:
            preset = get_preset(basis, sector)
            yield basis, _corrupted(preset, pair) if pair else preset


def cmd_suite(args) -> int:
    out_format = _resolve_format(args)
    pair = _corrupt_pair(args)
    reports = []
    if args.suite in ("axioms", "all"):
        for _, p in _suite_presets(args, pair, *_BOTH):
            reports += [
                check_coassociativity(p),
                check_counit_axiom(p),
                check_antipode_axiom(p),
                check_coproduct_homomorphism(p),
            ]
    if args.suite in ("jacobi", "all"):
        reports += [check_jacobi(p) for _, p in _suite_presets(args, pair, *_BOTH)]
    if args.suite in ("casimir", "all"):
        reports += [
            check_centrality(b, p)
            for b, p in _suite_presets(args, pair, Sector.POINCARE)
        ]
    if args.suite in ("phasespace", "all"):
        reports += [
            derive_phase_space_relations(b, Convention.LEFT, p)
            for b, p in _suite_presets(args, pair, Sector.PHASESPACE)
        ]
    basis_map = None
    if args.suite in ("basis-map", "all"):
        basis_map = basis_map_check()

    ok = all(r.passed for r in reports)
    if basis_map is not None:
        # the check passes when exactly one transformation (up to inversion)
        # intertwines the two momentum coproducts, and the report names it
        ok = ok and len(basis_map.transformations) == 1 and basis_map.named is not None

    if out_format == "json":
        payload = {
            "suite": args.suite,
            "pass": ok,
            "reports": [r.to_dict() for r in reports],
        }
        if basis_map is not None:
            payload["basis_map"] = basis_map.to_dict()
        _emit(json.dumps(payload, ensure_ascii=False), args)
    else:
        lines = []
        for r in reports:
            kind = getattr(r, "axiom", "phase-space derivation")
            tag = getattr(r, "preset", None) or getattr(r, "basis", "")
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{tag} {kind}: {status} ({len(r.entries)} checks)")
            for f in r.failures():
                subject = getattr(f, "subject", None) or getattr(f, "pair", "?")
                residual = getattr(f, "residual", None)
                if residual is None:
                    residual = f"derived {f.derived} != table {f.table}"
                lines.append(f"  FAIL {subject}: {residual}")
        if basis_map is not None:
            n = len(basis_map.transformations)
            status = "PASS" if (n == 1 and basis_map.named) else "FAIL"
            lines.append(f"basis-map: {status} ({n} intertwining transformation(s))")
            if basis_map.named:
                lines.append(f"  named: {basis_map.named}")
            for c in basis_map.candidates:
                lines.append(
                    f"  candidate {c.direction} sign {c.sign:+d}: "
                    f"{'intertwines' if c.intertwines else 'fails'}"
                )
        lines.append("RESULT: " + ("PASS" if ok else "FAIL"))
        _emit("\n".join(lines), args)
    return 0 if ok else 1


# -- numerics -----------------------------------------------------------------------


def _params_from(args) -> KinematicParams:
    return KinematicParams(
        kappa=args.kappa, c=args.c, hbar=args.hbar, M=args.M, Pvec=args.P
    )


def cmd_mass_shell(args) -> int:
    out_format = _resolve_format(args, allowed=("text", "json"))
    params = _params_from(args)
    q = mass_shell_exp(params)
    residual = check_mass_shell(params)
    if out_format == "json":
        _emit(
            json.dumps(
                {
                    "kappa": params.kappa,
                    "c": params.c,
                    "hbar": params.hbar,
                    "M": params.M,
                    "P": params.Pvec,
                    "exp_P0_over_2kc": float(fmt(q)),
                    "residual": float(fmt(residual)),
                }
            ),
            args,
        )
    else:
        _emit(
            f"exp(P0/2 kappa c) = {fmt(q)}\nmass-shell residual = {fmt(residual)}",
            args,
        )
    return 0


def cmd_bounds(args) -> int:
    out_format = _resolve_format(args, allowed=("text", "json"))
    basis = Basis(args.basis)
    if basis is Basis.BICROSS:
        bounds = bounds_bicross(args.hbar, args.kappa, args.c, args.exp_x, args.exp_p)
    else:
        exp_q = args.exp_q
        if exp_q is None:
            params = _params_from(args)
            exp_q = mass_shell_exp(params)
        bounds = bounds_standard(
            args.hbar, args.kappa, args.c, args.exp_x, args.exp_p, exp_q
        )
    table = bounds.as_dict()
    if out_format == "json":
        _emit(
            json.dumps(
                {"basis": basis.value}
                | {k: float(fmt(v)) for k, v in table.items()}
            ),
            args,
        )
    else:
        names = {
            "dt_dx": "dt dx_k  >=",
            "dp_dx": "dp_k dx_k >=",
            "dE_dt": "dE dt    >=",
            "dp_dt": "dp_k dt  >=",
        }
        _emit("\n".join(f"{names[k]} {fmt(v)}" for k, v in table.items()), args)
    return 0


def cmd_sweep(args) -> int:
    out_format = _resolve_format(args, default="csv", allowed=("text", "json", "csv"))
    base = _params_from(args)
    rows = sweep_rows(args.var, args.start, args.stop, args.points, base, args.quantity)
    cols = ["kappa", "c", "hbar", "M", "P", "value", "residual"]
    if out_format == "csv":
        lines = [",".join(cols)]
        lines += [",".join(fmt(row[c]) for c in cols) for row in rows]
        _emit("\n".join(lines), args)
    elif out_format == "json":
        _emit(
            json.dumps([{c: float(fmt(row[c])) for c in cols} for row in rows]),
            args,
        )
    else:
        lines = ["  ".join(c.rjust(14) for c in cols)]
        lines += ["  ".join(fmt(row[c]).rjust(14) for c in cols) for row in rows]
        _emit("\n".join(lines), args)
    return 0


# -- argument parsing -----------------------------------------------------------------


def _add_numeric_flags(p, with_hbar=True):
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    if with_hbar:
        p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--M", type=float, default=0.0)
    p.add_argument("--P", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kappahopf",
        description="kappa-deformed Poincare algebra: symbolic checks and numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate an algebra expression")
    p_eval.add_argument("expression")
    p_eval.add_argument("--basis", choices=["bicross", "standard"], default="bicross")
    p_eval.add_argument("--sector", choices=["poincare", "phasespace"], default=None)
    p_eval.add_argument("--format", choices=["text", "json"], default=None)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_suite = sub.add_parser("suite", help="run a verification suite")
    p_suite.add_argument(
        "suite",
        choices=["axioms", "jacobi", "phasespace", "casimir", "basis-map", "all"],
    )
    p_suite.add_argument("--basis", choices=["bicross", "standard"], default=None)
    p_suite.add_argument("--format", choices=["text", "json"], default=None)
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument(
        "--corrupt-rule",
        default=None,
        metavar="HI,LO",
        help=(
            "negative-control fixture: perturb one relation-table entry; a pair "
            "with no entry in the presets the suite checks exits 2"
        ),
    )
    p_suite.set_defaults(func=cmd_suite)

    p_num = sub.add_parser("numeric", help="numeric kinematics")
    num_sub = p_num.add_subparsers(dest="numeric_command", required=True)

    p_ms = num_sub.add_parser("mass-shell", help="on-shell exp(P0/2kc) and residual")
    _add_numeric_flags(p_ms)
    p_ms.add_argument("--format", choices=["text", "json"], default=None)
    p_ms.add_argument("--out", default=None)
    p_ms.set_defaults(func=cmd_mass_shell)

    p_b = num_sub.add_parser("bounds", help="deformed uncertainty bounds")
    p_b.add_argument("--basis", choices=["bicross", "standard"], default="bicross")
    _add_numeric_flags(p_b)
    p_b.add_argument("--exp-x", type=float, default=0.0, dest="exp_x")
    p_b.add_argument("--exp-p", type=float, default=0.0, dest="exp_p")
    p_b.add_argument(
        "--exp-q",
        type=float,
        default=None,
        dest="exp_q",
        help="<exp(P0/2kc)>; defaults to the on-shell value from --M/--P",
    )
    p_b.add_argument("--format", choices=["text", "json"], default=None)
    p_b.add_argument("--out", default=None)
    p_b.set_defaults(func=cmd_bounds)

    p_s = num_sub.add_parser("sweep", help="log sweep of one parameter")
    p_s.add_argument("--var", choices=["kappa", "M", "P"], required=True)
    p_s.add_argument("--from", type=float, required=True, dest="start")
    p_s.add_argument("--to", type=float, required=True, dest="stop")
    p_s.add_argument("--points", type=int, default=10)
    p_s.add_argument(
        "--quantity", choices=["mass-shell", "bound"], default="mass-shell"
    )
    _add_numeric_flags(p_s)
    p_s.add_argument("--format", choices=["text", "json", "csv"], default=None)
    p_s.add_argument("--out", default=None)
    p_s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KappaHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
