#!/usr/bin/env bash
# Writes, for each fixture pair in cases.txt (name, old policies, new
# policies, schema, under fixtures/), what `analyze equivalence` prints (text
# and --json, with the exit status), the script it emits for each environment
# (--emit-smt), and what the standalone bundled solver answers for each
# script with (get-model) appended (stdout and stderr).  The directory
# fixture_pairs/ next to this file holds the expected output.  From the
# repository root:
#
#   PYTHONPATH=src tests/golden/run_cases.sh OUT && diff -r tests/golden/fixture_pairs OUT
set -u
out=${1:?usage: run_cases.sh OUTDIR}
py=${PYTHON:-python3}
while read -r name old new schema; do
  dir=$out/$name
  mkdir -p "$dir/smt" "$dir/solver"
  args=(analyze equivalence --old "fixtures/$old" --new "fixtures/$new" --schema "fixtures/$schema")
  "$py" -m cedar_engine "${args[@]}" --emit-smt "$dir/smt" >"$dir/cli.txt"
  echo $? >"$dir/cli.status"
  "$py" -m cedar_engine "${args[@]}" --json >"$dir/cli.json"
  for script in "$dir"/smt/*.smt2; do
    [ -e "$script" ] || continue
    base=$(basename "$script" .smt2)
    { cat "$script"; echo "(get-model)"; } | "$py" -m cedar_engine.minisolver \
      >"$dir/solver/$base.out" 2>"$dir/solver/$base.err"
  done
  # Environments decided without a solver emit no script; git keeps no empty
  # directory.
  rmdir "$dir/smt" "$dir/solver" 2>/dev/null
done <"$(dirname "$0")/cases.txt"
exit 0
