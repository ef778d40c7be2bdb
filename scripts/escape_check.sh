#!/usr/bin/env bash
# Escape gate for the hot-path packages: ask the compiler itself
# (`go build -gcflags=-m`) which local variables it moved to the heap,
# and fail on any that scripts/escape_allow.txt does not list. A value
# the code documents as "stays on the stack" can be pushed off it by a
# callee's signature (a pointer through an interface method, a local
# array through io.ReadFull); the noalloc analyzer is intraprocedural
# and trusts callees, so only the compiler's escape analysis sees it.
#
# Allow-list entries are `file.go: variable` (no line numbers, so edits
# elsewhere in the file do not churn the list); an entry the compiler no
# longer reports fails too, so the list cannot outlive its reasons.
#
# Usage: scripts/escape_check.sh  (from the module root)
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" ]] || ! grep -q '^module optiql$' "$root/go.mod"; then
	echo "escape_check: run from the optiql module root" >&2
	exit 1
fi

pkgs=(./internal/core ./internal/locks ./internal/art ./internal/btree ./internal/simd ./internal/server/wire)
allow="$root/scripts/escape_allow.txt"

# -m prints one diagnostic per decision; a cached build replays them.
out=$(go build -gcflags=-m "${pkgs[@]}" 2>&1) || {
	echo "$out" >&2
	exit 1
}
moved=$(grep 'moved to heap: ' <<<"$out" || true)
seen=$(sed -E 's|^.*/([^/:]+\.go):[0-9]+:[0-9]+: moved to heap: (.*)$|\1: \2|' <<<"$moved" | sed '/^$/d' | sort -u)
allowed=$(grep -vE '^[[:space:]]*(#|$)' "$allow" | sort -u)

unlisted=$(comm -23 <(echo "$seen") <(echo "$allowed"))
stale=$(comm -13 <(echo "$seen") <(echo "$allowed"))
if [[ -n "$unlisted" ]]; then
	echo "escape_check: the compiler moved these to the heap and scripts/escape_allow.txt does not list them:" >&2
	while IFS= read -r entry; do
		grep -F "/${entry%%: *}:" <<<"$moved" | grep -F "moved to heap: ${entry#*: }" >&2
	done <<<"$unlisted"
	exit 1
fi
if [[ -n "$stale" ]]; then
	echo "escape_check: scripts/escape_allow.txt lists entries the compiler no longer reports; remove them:" >&2
	echo "$stale" >&2
	exit 1
fi
echo "escape_check: ${#pkgs[@]} packages, $(grep -c . <<<"$seen" || true) allow-listed heap moves, none unlisted"
