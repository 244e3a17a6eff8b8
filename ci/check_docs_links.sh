#!/usr/bin/env bash
# Docs link check: fail on relative markdown links that point at files
# which do not exist. Scans README.md and docs/*.md, ignoring fenced code
# blocks (``` ... ```) and inline code spans. External links
# (http/https/mailto) are out of scope — CI must not depend on the network.
# Then fail on any `*.md` name cited in the code trees (comments, printed
# banners) that exists neither at the repo root nor in docs/, and on any
# qualified name quoted as inline code in those docs (`a::b`, `A::b()`)
# whose last component no longer occurs as a word in the code trees.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

for md in README.md docs/*.md; do
  [ -e "$md" ] || continue
  dir="$(dirname "$md")"
  # Strip fenced code blocks and inline code spans, then pull out inline
  # link targets: [text](target).
  targets=$(awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$md" |
            sed 's/`[^`]*`//g' |
            grep -oE '\]\([^)]+\)' | sed -e 's/^](//' -e 's/)$//' || true)
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
      *" "*) continue ;;    # not a path (prose caught by the regex)
    esac
    path="${target%%#*}"    # strip an anchor, keep the file part
    [ -z "$path" ] && continue  # pure in-page anchor: nothing to stat
    if [ ! -e "$dir/$path" ]; then
      echo "dead link in $md: ($target) -> missing $dir/$path" >&2
      fail=1
    fi
  done <<< "$targets"
done

code_dirs=(src bench tests tools examples)
cited=$(grep -rhoE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' "${code_dirs[@]}" |
        sort -u || true)
while IFS= read -r name; do
  [ -z "$name" ] && continue
  base="$(basename "$name")"
  if [ ! -e "$base" ] && [ ! -e "docs/$base" ]; then
    where=$(grep -rlF "$name" "${code_dirs[@]}" | tr '\n' ' ')
    echo "dead doc citation: $name (in: $where)" >&2
    fail=1
  fi
done <<< "$cited"

# Stale names: a doc that quotes `core::Foo` or `Foo::bar()` outside a
# fenced block must name something the code still has, so a deleted or
# renamed type, function or member fails here instead of lingering in
# prose.
name_dirs=("${code_dirs[@]}" perfbench)
quoted=$(for md in README.md docs/*.md; do
           [ -e "$md" ] || continue
           awk '/^[[:space:]]*```/ { fence = !fence; next } !fence' "$md" |
             grep -oE '`[^`]+`' |
             grep -oE '[A-Za-z_][A-Za-z0-9_]*(::~?[A-Za-z_][A-Za-z0-9_]*)+' ||
             true
         done | sort -u)
while IFS= read -r name; do
  [ -z "$name" ] && continue
  last="${name##*::}"
  last="${last#\~}"
  if ! grep -rqw -- "$last" "${name_dirs[@]}"; then
    where=$(grep -lF -- "$name" README.md docs/*.md | tr '\n' ' ')
    echo "stale name in docs: $name (in: $where)" >&2
    fail=1
  fi
done <<< "$quoted"

if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED" >&2
  exit 1
fi
echo "docs link check OK"
