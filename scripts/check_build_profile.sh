#!/usr/bin/env bash
# Build-profile guard, blocking in CI.  The root dune-workspace makes
# every plain `dune build` use a profile that compiles without
# -opaque (so small accessors inline across modules) while keeping
# dev's warnings-as-errors.  This fails when either half slips:
#
#   - the default profile's flags differ from dev's, which would
#     loosen (or silently change) the lint gate;
#   - the solver's or the simplifier's compile command carries -opaque
#     (inlining lost) or -unsafe (Ivec's bounds check is part of its
#     contract);
#   - the simplifier's object code calls the polymorphic compare
#     (caml_compare) instead of comparing literals as ints, or
#     objdump, which that check needs, is missing.
#
#   scripts/check_build_profile.sh
#
# The dune calls run one after another: two at once contend for
# _build/.lock and the second fails.

set -euo pipefail
cd "$(dirname "$0")/.."

status=0

default_flags=$(dune printenv --field flags .)
dev_flags=$(dune printenv --profile dev --field flags .)
if [ "$default_flags" != "$dev_flags" ]; then
  echo "check_build_profile: default profile flags differ from dev's" \
    "(< dev, > default):"
  diff <(printf '%s\n' "$dev_flags") <(printf '%s\n' "$default_flags") \
    | grep '^[<>]' || true
  status=1
fi

for cmx in \
  _build/default/lib/core/.berkmin.objs/native/berkmin__Solver.cmx \
  _build/default/lib/simplify/.berkmin_simplify.objs/native/berkmin_simplify__Engine.cmx
do
  if ! rules=$(dune rules "$cmx"); then
    echo "check_build_profile: dune rules failed for $cmx"
    exit 1
  fi
  bad=$(printf '%s\n' "$rules" \
    | grep -nE -- '^[[:space:]]*-(opaque|unsafe)([[:space:])]|$)' || true)
  if [ -n "$bad" ]; then
    echo "check_build_profile: $cmx compiles with:"
    printf '%s\n' "$bad" | sed 's/^/  /'
    status=1
  fi
done

engine_o=_build/default/lib/simplify/.berkmin_simplify.objs/native/berkmin_simplify__Engine.o
if ! command -v objdump >/dev/null 2>&1; then
  echo "check_build_profile: objdump not found; cannot check $engine_o"
  exit 1
fi
dune build "${engine_o#_build/default/}"
if ! disassembly=$(objdump -dr "$engine_o"); then
  echo "check_build_profile: objdump failed on $engine_o"
  exit 1
fi
compares=$(printf '%s\n' "$disassembly" \
  | grep -cE 'caml_compare([^[:alnum:]_]|$)' || true)
if [ "$compares" -ne 0 ]; then
  echo "check_build_profile: $engine_o references caml_compare" \
    "$compares time(s); compare literals as ints"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_build_profile: OK (dev's flags, no -opaque, no -unsafe," \
    "no polymorphic compare in the simplifier)"
fi
exit "$status"
