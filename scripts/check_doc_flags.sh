#!/usr/bin/env bash
# Doc drift audit, blocking in CI, two directions:
#
#   docs -> help: every long flag (--foo-bar) mentioned in README.md
#   or docs/*.md must be accepted by at least one of the project's
#   executables, per its --help.  Catches docs that keep describing
#   flags after a rename or removal.
#
#   help -> docs: every flag any of the executables advertises in its
#   own --help must appear somewhere in the docs, so a new or renamed
#   flag cannot ship undocumented.
#
#   scripts/check_doc_flags.sh
#
# Flags that are legitimately documented but not ours (e.g. flags of
# external tools quoted in prose) go in the ALLOW list below.

set -euo pipefail
cd "$(dirname "$0")/.."

EXES=(bin/berkmin_cli.exe bin/fuzz.exe bin/genbench.exe bin/ec.exe
      bin/serverd.exe bin/serverctl.exe bench/main.exe)

# Flags documented on purpose that no executable owns: generic
# placeholders used in prose, plus external tools' flags quoted in
# commands (dune's --auto-promote in the formatting recipe).
ALLOW='^--(flag|help|version|auto-promote)$'

dune build "${EXES[@]}" 2>/dev/null

# The long flags one executable's --help mentions.
flags_of() {
  dune exec "$1" -- --help=plain 2>/dev/null \
    | grep -oE '(^|[^-[:alnum:]])--[a-z][a-z0-9-]+' \
    | grep -oE -- '--[a-z][a-z0-9-]+' | sort -u || true
}

declare -A exe_flags
for exe in "${EXES[@]}"; do
  exe_flags[$exe]=$(flags_of "$exe")
done
help_flags=$(printf '%s\n' "${exe_flags[@]}" | sort -u)

doc_flags=$(
  grep -hoE -- '--[a-z][a-z0-9-]+' README.md docs/*.md | sort -u
)

missing=0
while IFS= read -r flag; do
  [[ "$flag" =~ $ALLOW ]] && continue
  if ! grep -qxF -- "$flag" <<<"$help_flags"; then
    echo "documented but unknown to every --help: $flag" >&2
    echo "  mentioned in:" >&2
    grep -lF -- "$flag" README.md docs/*.md | sed 's/^/    /' >&2
    missing=1
  fi
done <<<"$doc_flags"

# Reverse direction: every executable's advertised flags must be
# documented.
undocumented=0
for exe in "${EXES[@]}"; do
  while IFS= read -r flag; do
    [[ -z "$flag" || "$flag" =~ $ALLOW ]] && continue
    if ! grep -qxF -- "$flag" <<<"$doc_flags"; then
      echo "$exe --help advertises $flag but no doc mentions it" >&2
      undocumented=1
    fi
  done <<<"${exe_flags[$exe]}"
done

if [[ $missing -eq 0 && $undocumented -eq 0 ]]; then
  count=$(wc -l <<<"$doc_flags")
  help_count=$(wc -l <<<"$help_flags")
  echo "doc flag audit: all $count documented flags resolve against --help;" \
       "all $help_count advertised flags of ${#EXES[@]} executables documented"
else
  exit 1
fi
