"""Command-line interface: expression evaluation, verification suites, numerics.

Exit codes: 0 all checks passed / evaluation ok, 1 at least one check failed,
2 invalid parameters or internal error.  Output is deterministic: fixed term
order and floats at 12 significant digits.  Output is text by default, csv
for `numeric sweep`; `--format` picks another.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

from .crossproduct import basis_map_check, derive_phase_space_relations
from .elements import GEN_BY_NAME, Element
from .errors import KappaHopfError, check_finite
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
    MAX_POINTS,
    KinematicParams,
    bounds_bicross,
    bounds_standard,
    check_mass_shell,
    mass_shell_exp,
    sweep_rows,
)
from .presets import Basis, Sector, get_preset
from .scalars import Scalar


def fmt(x: float) -> str:
    return f"{x:.12g}"


def _emit(text: str, args):
    text = text if text.endswith("\n") else text + "\n"
    out_path = getattr(args, "out", None)
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise KappaHopfError(f"cannot write --out {out_path}: {exc.strerror}") from exc


# -- eval -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    sector = Sector(args.sector) if args.sector else None
    value = eval_text(args.expression, Basis(args.basis), sector)
    if args.format == "json":
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
# each per-preset suite: the preset sectors it checks and the reports it makes
# for one preset; `all` runs them in this order, then basis-map, which builds
# its own presets.  The entries are lambdas, not the check functions
# themselves, so each call looks its check up in this module's globals and
# sees a wrapper that perfbench/tracer.py or a test binds there.
_SUITES = {
    "axioms": (_BOTH, lambda p: [
        check_coassociativity(p),
        check_counit_axiom(p),
        check_antipode_axiom(p),
        check_coproduct_homomorphism(p),
    ]),
    "jacobi": (_BOTH, lambda p: [check_jacobi(p)]),
    "casimir": ((Sector.POINCARE,), lambda p: [check_centrality(p)]),
    "phasespace": ((Sector.PHASESPACE,), lambda p: [derive_phase_space_relations(p)]),
}


def _corrupt_pair(args):
    """The (hi, lo) pair named by --corrupt-rule, or None without the flag."""
    text = args.corrupt_rule
    if text is None:
        return None
    names = [s.strip() for s in text.split(",")]
    if len(names) != 2:
        raise KappaHopfError(f"--corrupt-rule expects HI,LO, got {text!r}")
    try:
        return GEN_BY_NAME[names[0]], GEN_BY_NAME[names[1]]
    except KeyError as exc:
        raise KappaHopfError(f"unknown generator in --corrupt-rule: {exc}") from exc


def _corrupted(preset, pair):
    """Replace one relation-table entry, adding i*hbar to its correction; a
    preset without that entry is returned unchanged."""
    if pair not in preset.rules:
        return preset
    bad = preset.rules[pair] + Element.from_scalar(Scalar.term(0, 1, hbar=1))
    return preset.with_rule_override(pair, bad)


def cmd_suite(args) -> int:
    pair = _corrupt_pair(args)
    bases = [Basis(args.basis)] if args.basis else [Basis.BICROSS, Basis.STANDARD]
    # the (check, basis, sector) runs of the selected suites, in table order
    runs = [
        (make, basis, sector)
        for name, (sectors, make) in _SUITES.items()
        if args.suite in (name, "all")
        for basis in bases
        for sector in sectors
    ]
    presets = {(basis, sector): get_preset(basis, sector) for _, basis, sector in runs}
    if pair is not None:
        # a pair with no entry in any selected preset would corrupt nothing
        # and let the suite pass
        if not any(pair in preset.rules for preset in presets.values()):
            raise KappaHopfError(
                f"--corrupt-rule {pair[0].render()},{pair[1].render()} names no "
                f"relation-table entry in the presets that suite {args.suite} checks"
            )
        presets = {key: _corrupted(preset, pair) for key, preset in presets.items()}
    reports = [r for make, basis, sector in runs for r in make(presets[basis, sector])]
    basis_map = basis_map_check() if args.suite in ("basis-map", "all") else None
    checked = reports + ([basis_map] if basis_map is not None else [])
    ok = all(r.passed for r in checked)
    if args.format == "json":
        payload = {"suite": args.suite, "pass": ok, "reports": [r.to_dict() for r in reports]}
        if basis_map is not None:
            payload["basis_map"] = basis_map.to_dict()
        _emit(json.dumps(payload, ensure_ascii=False), args)
    else:
        lines = [line for r in checked for line in r.text_lines()]
        _emit("\n".join(lines + ["RESULT: " + ("PASS" if ok else "FAIL")]), args)
    return 0 if ok else 1


# -- numerics -----------------------------------------------------------------------


def _params_from(args) -> KinematicParams:
    return KinematicParams(
        kappa=args.kappa, c=args.c, hbar=args.hbar, M=args.M, Pvec=args.P
    )


def _emit_values(args, head: dict, values: list[tuple[str, str, float]]) -> None:
    """Print (json key, text label, value) triples as one JSON object, head's
    fields then each value at fmt's precision, or as one `label value` line each."""
    if args.format == "json":
        _emit(json.dumps(head | {key: float(fmt(v)) for key, _, v in values}), args)
    else:
        _emit("\n".join(f"{label} {fmt(v)}" for _, label, v in values), args)


def cmd_mass_shell(args) -> int:
    params = _params_from(args)
    head = {"kappa": params.kappa, "c": params.c, "hbar": params.hbar, "M": params.M,
            "P": params.Pvec}
    _emit_values(args, head, [
        ("exp_P0_over_2kc", "exp(P0/2 kappa c) =", mass_shell_exp(params)),
        ("residual", "mass-shell residual =", check_mass_shell(params)),
    ])
    return 0


def cmd_bounds(args) -> int:
    basis = Basis(args.basis)
    params = _params_from(args)
    exps = {"--exp-x": args.exp_x, "--exp-p": args.exp_p, "--exp-q": args.exp_q}
    check_finite("finite", **{flag: v for flag, v in exps.items() if v is not None})
    if basis is Basis.BICROSS:
        bounds = bounds_bicross(params.hbar, params.kappa, params.c, args.exp_x, args.exp_p)
    else:
        exp_q = mass_shell_exp(params) if args.exp_q is None else args.exp_q
        bounds = bounds_standard(
            params.hbar, params.kappa, params.c, args.exp_x, args.exp_p, exp_q
        )
    labels = ["dt dx_k  >=", "dp_k dx_k >=", "dE dt    >=", "dp_k dt  >="]
    table = zip(bounds.as_dict().items(), labels)
    _emit_values(args, {"basis": basis.value}, [(key, label, v) for (key, v), label in table])
    return 0


def cmd_sweep(args) -> int:
    base = _params_from(args)
    rows = sweep_rows(args.var, args.start, args.stop, args.points, base, args.quantity)
    cols = ["kappa", "c", "hbar", "M", "P", "value", "residual"]
    # every column but these holds the same value in each row: format it once
    varying = [args.var, "value", "residual"]
    fixed = {c: fmt(x) for c, x in rows[0].items() if c not in varying}
    if args.format == "json":
        template = {c: float(fixed[c]) if c in fixed else None for c in cols}
        _emit(
            json.dumps([template | {c: float(fmt(row[c])) for c in varying} for row in rows]),
            args,
        )
        return 0
    # a row is its line's template with the varying columns filled in by name,
    # in fmt's format
    if args.format == "csv":
        header = ",".join(cols)
        line = ",".join(fixed.get(c, f"{{{c}:.12g}}") for c in cols)
    else:
        header = "  ".join(c.rjust(14) for c in cols)
        line = "  ".join(fixed[c].rjust(14) if c in fixed else f"{{{c}:>14.12g}}" for c in cols)
    _emit("\n".join([header] + [line.format_map(row) for row in rows]), args)
    return 0


# -- argument parsing -----------------------------------------------------------------


def _add_numeric_flags(p):
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
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
    p_eval.add_argument(
        "expression",
        help="expression to evaluate; put -- before one that starts with -, as in `eval -- -x0`",
    )
    p_eval.add_argument("--basis", choices=["bicross", "standard"], default="bicross")
    p_eval.add_argument("--sector", choices=["poincare", "phasespace"], default=None)
    p_eval.add_argument("--format", choices=["text", "json"], default="text")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_suite = sub.add_parser("suite", help="run a verification suite")
    p_suite.add_argument("suite", choices=[*_SUITES, "basis-map", "all"])
    p_suite.add_argument("--basis", choices=["bicross", "standard"], default=None)
    p_suite.add_argument("--format", choices=["text", "json"], default="text")
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
    p_ms.add_argument("--format", choices=["text", "json"], default="text")
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
    p_b.add_argument("--format", choices=["text", "json"], default="text")
    p_b.add_argument("--out", default=None)
    p_b.set_defaults(func=cmd_bounds)

    p_s = num_sub.add_parser("sweep", help="log sweep of one parameter")
    p_s.add_argument("--var", choices=["kappa", "M", "P"], required=True)
    p_s.add_argument("--from", type=float, required=True, dest="start")
    p_s.add_argument("--to", type=float, required=True, dest="stop")
    p_s.add_argument("--points", type=int, default=10, help=f"2 to {MAX_POINTS}")
    p_s.add_argument(
        "--quantity", choices=["mass-shell", "bound"], default="mass-shell"
    )
    _add_numeric_flags(p_s)
    p_s.add_argument("--format", choices=["text", "json", "csv"], default="csv")
    p_s.add_argument("--out", default=None)
    p_s.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():
        # one line per warning, with no source path or line of this package
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
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
