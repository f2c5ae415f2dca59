#!/usr/bin/env bash
# Checks of the console entry point, from the repository root:
#
#   scripts/console_checks.sh                                   # installed `kappahopf`
#   KAPPAHOPF="python3 -m kappahopf.cli" PYTHONPATH=src scripts/console_checks.sh
#
# KAPPAHOPF is the command to run, split on whitespace; temporary files go to
# RUNNER_TEMP, or to a fresh `mktemp -d` directory when it is unset.
#
# The tests call cli.main directly; this runs the command under two hash seeds
# that must give the same certificate digest, so output that depends on set or
# dict order fails here every time; then the two csv sweeps at
# kinematics.MAX_POINTS, of the mass shell and of the bound, must match their
# pinned sha256 prefixes byte for byte; then the whole stdout of `numeric
# mass-shell --M 1 --P 2 --format json` and of `numeric bounds --basis
# standard --M 1 --exp-x 2 --exp-p 3`, the JSON and the text form of the one
# value printer (`cli._emit_values`); then four negative controls whose exit
# codes must be exact: a corrupted zero rule and a corrupted boost rule each
# fail the certificate (1), a pair with no relation-table entry is rejected (2)
# instead of corrupting nothing, and a sweep past kinematics.MAX_POINTS is
# refused (2) before its grid is allocated; then inputs that must give a typed
# error (2, no `internal error`, no nan or inf on stdout): an --out path in a
# missing directory, a nan hbar for `numeric bounds --format json`, and finite
# inputs whose uncertainty bounds overflow double precision, three for `numeric
# bounds` and one for `numeric sweep --quantity bound`, whose error must name
# the bound and hbar, not the mass shell; then two lexer errors
# whose positions must be exact, a bad character on a second line and a
# superscript digit, which `re` and `str` must classify alike on every
# supported Python;
# last, exact values of pairings and actions on both sides of the letter-count
# rule in `crossproduct`: q absorbs extra x0s, P1 |> x1 x0 keeps an x0 (in both
# bases), and a P_k or P0 with no matching position letter gives 0; and exact
# sums of several coefficient addends: a product, a difference of quotients,
# and a cancellation that leaves one addend; `-x0` given after `--`, since
# argparse would read it as an option; the antipodes solved from the
# coproduct table, of a boost in each basis and of a position; the coproducts
# of three sorted boost-free words, which `hopf.coproduct_monomial` writes in
# closed form letter by letter, one of them a run P1^5 longer than any the
# suite reads, a pairing that reads them, and the coproducts of two boost
# words, which take the fold, the longer one N1 N2 P1 pinned by its sha256
# prefix; the product of 4000 factors P1, which must exit 0 and
# print P1^4000 (the normal-form memo drops the partial products nobody reads
# again); `P1^1500 x0`, which must exit 0 with its exact value (x0 moves past
# the whole run P1^1500 in one run transport), and `M2^1200 M1`, which still
# recurses once per letter and must exit 2 with a typed error; the scalar
# powers `(2/3)^2650000` and `(1 + hbar)^8000`, which must exit 2 with the
# error lines of the bit budget of one coefficient addend and of the exponent
# limit of a sum of addends, before any product, and a product of 16 factors
# `(2/3)^100000`, each inside that budget, which must exit 2 with the error
# line of the bit budget of a product's scalar factors, while the
# unit-coefficient power `q^100000000` must still print itself; the sha256
# prefix of `(x0 x1 x2 x3 P0 P1 P2 P3)^4` in the standard basis, a long-word
# exactness gate recorded before run transport; in both bases, `N1^1500 M1`,
# which must print `M1 N1^1500` (M1 commutes with N1 outside every
# run-transport class and passes the whole run in one step), `q P1^1500`,
# which must print `P1^1500 q` (q passes a word with no q-rule letter in one
# step), and the sha256 prefix of `q x0^22`, recorded from its oracle
# `(x0 + 1/2 i hbar kappa^-1 c^-1)^22 q` (q-transport merges like words, so
# the 2^22 paths of q past x0^22 add up to 23 terms); and, with
# KAPPA_HOPF_FORMAT=json exported, the default formats of the entry point: a
# sweep prints its csv header and `eval P1` prints the text `P1`, since no
# environment variable picks the format.
set -e -o pipefail

read -r -a kappahopf <<< "${KAPPAHOPF:-kappahopf}"
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp=$RUNNER_TEMP
else
  tmp=$(mktemp -d)
  trap 'rm -rf "$tmp"' EXIT
fi

for hashseed in 0 1; do
  digest=$(PYTHONHASHSEED=$hashseed "${kappahopf[@]}" suite all --format json | sha256sum | cut -c1-16)
  test "$digest" = 41d86e8ecf37aaea || { echo "suite all under PYTHONHASHSEED=$hashseed gave digest $digest"; exit 1; }
done
"${kappahopf[@]}" numeric sweep --var kappa --from 1 --to 1e12 --points 13 --M 1 --format json \
  | python3 -c 'import json, sys; rows = json.load(sys.stdin); sys.exit(0 if len(rows) == 13 else f"sweep gave {len(rows)} rows, expected 13")'
for pin in mass-shell:c972bd1c7e5fa651 bound:c5ba07fd3f6fbfd8; do
  digest=$("${kappahopf[@]}" numeric sweep --var kappa --from 1 --to 1e12 --points 100000 --M 1 \
    --quantity "${pin%%:*}" | sha256sum | cut -c1-16)
  test "$digest" = "${pin#*:}" || { echo "sweep --points 100000 --quantity ${pin%%:*} gave digest $digest"; exit 1; }
done
out=$("${kappahopf[@]}" numeric mass-shell --M 1 --P 2 --format json)
expected='{"kappa": 1.0, "c": 1.0, "hbar": 1.0, "M": 1.0, "P": 2.0, "exp_P0_over_2kc": 2.61803398875, "residual": 8.881784197e-16}'
test "$out" = "$expected" || { echo "numeric mass-shell --M 1 --P 2 --format json printed '$out'"; exit 1; }
out=$("${kappahopf[@]}" numeric bounds --basis standard --M 1 --exp-x 2 --exp-p 3)
expected=$'dt dx_k  >= 1\ndp_k dx_k >= 0.809016994375\ndE dt    >= 0.5\ndp_k dt  >= 0.75'
test "$out" = "$expected" || { echo "numeric bounds --basis standard --M 1 --exp-x 2 --exp-p 3 printed '$out'"; exit 1; }
set +e
"${kappahopf[@]}" suite all --corrupt-rule P1,x2 --format json > /dev/null
code=$?
test "$code" -eq 1 || { echo "--corrupt-rule P1,x2 exited $code, expected 1"; exit 1; }
"${kappahopf[@]}" suite all --corrupt-rule N2,N1 --basis standard --format json > /dev/null
code=$?
test "$code" -eq 1 || { echo "--corrupt-rule N2,N1 --basis standard exited $code, expected 1"; exit 1; }
"${kappahopf[@]}" suite all --corrupt-rule N1,P1 --format json > /dev/null
code=$?
test "$code" -eq 2 || { echo "--corrupt-rule N1,P1 exited $code, expected 2"; exit 1; }
"${kappahopf[@]}" numeric sweep --var kappa --from 1 --to 10 --points 1000000000000 > /dev/null
code=$?
test "$code" -eq 2 || { echo "sweep --points 1000000000000 exited $code, expected 2"; exit 1; }
typed_error() {
  "${kappahopf[@]}" "$@" > "$tmp/out.txt" 2> "$tmp/err.txt"
  code=$?
  test "$code" -eq 2 || { echo "$* exited $code, expected 2"; exit 1; }
  if grep -q "internal error" "$tmp/err.txt"; then echo "$* gave $(cat "$tmp/err.txt")"; exit 1; fi
  if grep -Eqi "nan|inf" "$tmp/out.txt"; then echo "$* printed $(cat "$tmp/out.txt")"; exit 1; fi
}
typed_error eval P1 --out "$tmp/missing/x.txt"
typed_error numeric bounds --hbar nan --format json
typed_error numeric bounds --kappa 1e-300 --c 1e-10
typed_error numeric bounds --hbar 1e308 --exp-x 1e308 --format json
typed_error numeric bounds --basis standard --exp-q 1e308 --hbar 1e308
typed_error numeric sweep --var kappa --quantity bound --hbar 1e308 --M 1e3 --from 1e-3 --to 1 --points 3
grep -q "bound dp_dx .*hbar=" "$tmp/err.txt" || { echo "bound sweep overflow gave $(cat "$tmp/err.txt")"; exit 1; }
"${kappahopf[@]}" eval $'P1 +\n  x0 $' 2> "$tmp/lex.txt"
code=$?
test "$code" -eq 2 || { echo "eval of a bad character on line 2 exited $code, expected 2"; exit 1; }
grep -q "line 2, column 6" "$tmp/lex.txt" || { echo "wrong position: $(cat "$tmp/lex.txt")"; exit 1; }
"${kappahopf[@]}" eval 'P1^²' 2> "$tmp/lex.txt"
code=$?
test "$code" -eq 2 || { echo "eval 'P1^²' exited $code, expected 2"; exit 1; }
grep -q "unexpected character at line 1, column 4" "$tmp/lex.txt" || { echo "wrong error: $(cat "$tmp/lex.txt")"; exit 1; }
expect() {
  out=$("${kappahopf[@]}" eval "${@:2}")
  test "$out" = "$1" || { echo "eval ${*:2} printed '$out', expected '$1'"; exit 1; }
}
expect '-1/4 hbar^2 kappa^-2 c^-2' '<q | x0 x0>'
expect '(-i hbar) x0' 'P1 |> x1 x0'
expect '(1/2 hbar^2 kappa^-1 c^-1) + (-i hbar) x0' --basis standard 'P1 |> x1 x0'
expect 0 '<P1 P2 | x1>'
expect 0 'P0 |> x1'
expect 'kappa^2 + hbar^2' '(kappa + i hbar) (kappa - i hbar)'
expect '1/2 kappa^-1 - 1/3 hbar' '1/(2 kappa) - hbar/3'
expect '(kappa) P1' '(kappa + i hbar) P1 - i hbar P1'
expect '(-1) x0' -- '-x0'
expect '(-kappa^-1 c^-1) M2 P3 q^2 + (kappa^-1 c^-1) M3 P2 q^2 + (-1) N1 q^2 + (3 i kappa^-1 c^-1) P1 q^2' --basis bicross 'S(N1)'
expect '(-1) N1 + (3/2 i kappa^-1 c^-1) P1' --basis standard 'S(N1)'
expect '(-1) x0' 'S(x0)'
expect '(2) P1 q^-3 ⊗ P1 q^-1 + P1^2 q^-1 ⊗ q^-1 + q^-5 ⊗ P1^2 q^-1' 'D(q^-1 P1 P1)'
expect 'M1 q^-1 ⊗ P2 + M1 P2 ⊗ q + P2 ⊗ M1 q + q^-1 ⊗ M1 P2' --basis standard 'D(M1 P2)'
expect '-3 i hbar^3 kappa^-1 c^-1' --basis standard '<P1 P1 q | x1 x1 x0>'
expect 'N1 q^-2 ⊗ P1 + N1 P1 ⊗ 1 + P1 q^-2 ⊗ N1 + (kappa^-1 c^-1) P1 P2 ⊗ M3 + (-kappa^-1 c^-1) P1 P3 ⊗ M2 + (kappa^-1 c^-1) P2 q^-2 ⊗ M3 P1 + (-kappa^-1 c^-1) P3 q^-2 ⊗ M2 P1 + q^-4 ⊗ N1 P1' 'D(N1 P1)'
expect '(5) P1 q^-3 ⊗ P1^4 q^2 + (10) P1^2 q^-2 ⊗ P1^3 q^3 + (10) P1^3 q^-1 ⊗ P1^2 q^4 + (5) P1^4 ⊗ P1 q^5 + P1^5 q ⊗ q^6 + q^-4 ⊗ P1^5 q' --basis standard 'D(P1^5 q)'
digest=$("${kappahopf[@]}" eval 'D(N1 N2 P1)' | sha256sum | cut -c1-16)
test "$digest" = 3ad919fd6771739e || { echo "eval 'D(N1 N2 P1)' gave digest $digest"; exit 1; }
out=$("${kappahopf[@]}" eval "$(printf 'P1 %.0s' {1..4000})")
code=$?
test "$code" -eq 0 || { echo "eval of 4000 factors P1 exited $code, expected 0"; exit 1; }
test "$out" = 'P1^4000' || { echo "eval of 4000 factors P1 printed '$out', expected 'P1^4000'"; exit 1; }
out=$("${kappahopf[@]}" eval 'P1^1500 x0')
code=$?
test "$code" -eq 0 || { echo "eval 'P1^1500 x0' exited $code, expected 0"; exit 1; }
expected='x0 P1^1500 + (-1500 i hbar kappa^-1 c^-1) P1^1500'
test "$out" = "$expected" || { echo "eval 'P1^1500 x0' printed '$out', expected '$expected'"; exit 1; }
typed_error eval 'M2^1200 M1'
grep -q "too deeply nested or too long" "$tmp/err.txt" || { echo "eval 'M2^1200 M1' gave $(cat "$tmp/err.txt")"; exit 1; }
typed_error eval '(2/3)^2650000'
expected='error: exponent 2650000 is above the limit of 131072 for powers of a coefficient of 2 bits'
test "$(cat "$tmp/err.txt")" = "$expected" || { echo "eval '(2/3)^2650000' gave $(cat "$tmp/err.txt")"; exit 1; }
typed_error eval '(1 + hbar)^8000'
expected='error: exponent 8000 is above the limit of 4096 for powers of sums of coefficients'
test "$(cat "$tmp/err.txt")" = "$expected" || { echo "eval '(1 + hbar)^8000' gave $(cat "$tmp/err.txt")"; exit 1; }
typed_error eval "$(printf '(2/3)^100000 %.0s' {1..16})"
expected='error: the scalar factors of a product have more than 262144 bits'
test "$(cat "$tmp/err.txt")" = "$expected" || { echo "eval of 16 factors (2/3)^100000 gave $(cat "$tmp/err.txt")"; exit 1; }
expect 'q^100000000' 'q^100000000'
digest=$("${kappahopf[@]}" eval '(x0 x1 x2 x3 P0 P1 P2 P3)^4' --basis standard | sha256sum | cut -c1-16)
test "$digest" = 656d7c5e5cc91629 || { echo "eval '(x0 x1 x2 x3 P0 P1 P2 P3)^4' --basis standard gave digest $digest"; exit 1; }
for basis in bicross standard; do
  expect 'M1 N1^1500' --basis "$basis" 'N1^1500 M1'
  expect 'P1^1500 q' --basis "$basis" 'q P1^1500'
  digest=$("${kappahopf[@]}" eval 'q x0^22' --basis "$basis" | sha256sum | cut -c1-16)
  test "$digest" = 3179334648661eb6 || { echo "eval 'q x0^22' --basis $basis gave digest $digest"; exit 1; }
done
header=$(KAPPA_HOPF_FORMAT=json "${kappahopf[@]}" numeric sweep --var kappa --from 1 --to 10 --points 2 | head -n 1)
test "$header" = kappa,c,hbar,M,P,value,residual || { echo "sweep with KAPPA_HOPF_FORMAT=json printed '$header' first"; exit 1; }
out=$(KAPPA_HOPF_FORMAT=json "${kappahopf[@]}" eval P1)
test "$out" = P1 || { echo "eval P1 with KAPPA_HOPF_FORMAT=json printed '$out', expected 'P1'"; exit 1; }
