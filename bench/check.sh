#!/usr/bin/env sh
# sh bench/check.sh — local / CI gates: the format check (only when
# ocamlformat is installed), the build, the tier-1 tests, then every row
# of the gate table in bench/main.ml once, with --quick (docs/ci.md
# lists the rows).  A failed format check or build stops the script;
# every later gate runs even when an earlier one fails.  The script
# ends with one PASS/FAIL line per gate and exits non-zero iff any
# gate failed.
set -u

cd "$(dirname "$0")/.."

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt || exit 1
else
  echo "== skipping format check (ocamlformat not installed)"
fi

echo "== dune build"
dune build || exit 1

failed=0
verdicts=""
for gate in runtest cache obs campaign fault isolate trace serve chaos \
  durability; do
  echo "== $gate"
  verdict=PASS
  if [ "$gate" = runtest ]; then
    dune runtest || verdict=FAIL
  else
    dune exec bench/main.exe -- --quick "--$gate-only" || verdict=FAIL
  fi
  [ "$verdict" = PASS ] || failed=1
  verdicts="$verdicts$verdict  $gate
"
done

echo "== gate verdicts"
printf '%s' "$verdicts"
exit "$failed"
