#!/usr/bin/env bash
# Docs link check: fail on relative markdown links that point at files
# which do not exist. Scans README.md and docs/*.md, ignoring fenced code
# blocks (``` ... ```) and inline code spans. External links
# (http/https/mailto) are out of scope — CI must not depend on the network.
# Then fail on any `*.md` name cited in the code trees (comments, printed
# banners) that exists neither at the repo root nor in docs/.
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

if [ "$fail" -ne 0 ]; then
  echo "docs link check FAILED" >&2
  exit 1
fi
echo "docs link check OK"
