#!/usr/bin/env bash
# Compiler gate for the hot-path packages. One `go build -gcflags=-m=2`
# answers two questions, each checked against a list in scripts/:
#
# 1. Escapes: which local variables did the compiler move to the heap?
#    Fail on any that scripts/escape_allow.txt does not list. A value
#    the code documents as "stays on the stack" can be pushed off it by
#    a callee's signature (a pointer through an interface method, a
#    local array through io.ReadFull); the noalloc analyzer is
#    intraprocedural and trusts callees, so only the compiler's escape
#    analysis sees it.
# 2. Inlining: does every helper scripts/inline_keep.txt lists still
#    inline? Fail when one does not. A read-path helper that loses its
#    inline adds a call at every descent level, and nothing else would
#    notice.
#
# Entries are `dir/file.go: name`, the file's last two path parts (no
# line numbers, so edits elsewhere in the file do not churn the lists;
# the directory keeps internal/wal/wal.go apart from
# internal/server/wal.go). An entry the compiler no longer reports
# fails too, so neither list can outlive its reasons.
#
# Usage: scripts/escape_check.sh  (from the module root)
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" ]] || ! grep -q '^module optiql$' "$root/go.mod"; then
	echo "escape_check: run from the optiql module root" >&2
	exit 1
fi

pkgs=(./internal/core ./internal/locks ./internal/art ./internal/btree ./internal/simd
	./internal/server/wire ./internal/server ./internal/wal ./internal/obs/trace)
allow="$root/scripts/escape_allow.txt"
keep="$root/scripts/inline_keep.txt"

# -m=2 prints one diagnostic per decision, with the reason a function
# cannot inline; a cached build replays them.
out=$(go build -gcflags=-m=2 "${pkgs[@]}" 2>&1) || {
	echo "$out" >&2
	exit 1
}
# entries lists a list file's `dir/file.go: name` lines.
entries() { grep -vE '^[[:space:]]*(#|$)' "$1" | sort -u; }
fail=0

# Report 1: heap moves.
moved=$(grep 'moved to heap: ' <<<"$out" || true)
seen=$(sed -E 's|^(.*/)?([^/:]+/[^/:]+\.go):[0-9]+:[0-9]+: moved to heap: (.*)$|\2: \3|' <<<"$moved" | sed '/^$/d' | sort -u)
allowed=$(entries "$allow")
unlisted=$(comm -23 <(echo "$seen") <(echo "$allowed"))
stale=$(comm -13 <(echo "$seen") <(echo "$allowed"))
if [[ -n "$unlisted" ]]; then
	echo "escape_check: the compiler moved these to the heap and scripts/escape_allow.txt does not list them:" >&2
	while IFS= read -r entry; do
		grep -F "/${entry%%: *}:" <<<"$moved" | grep -F "moved to heap: ${entry#*: }" >&2
	done <<<"$unlisted"
	fail=1
fi
if [[ -n "$stale" ]]; then
	echo "escape_check: scripts/escape_allow.txt lists entries the compiler no longer reports; remove them:" >&2
	echo "$stale" >&2
	fail=1
fi

# Report 2: inlining.
can=$(sed -nE 's|^(.*/)?([^/:]+/[^/:]+\.go):[0-9]+:[0-9]+: can inline ([^ ]+).*$|\2: \3|p' <<<"$out" | sort -u)
cannot=$(grep -E ': cannot inline ' <<<"$out" || true)
kept=$(entries "$keep")
lost=$(comm -13 <(echo "$can") <(echo "$kept"))
while IFS= read -r entry; do
	[[ -z "$entry" ]] && continue
	fail=1
	why=$(grep -F "/${entry%%: *}:" <<<"$cannot" | grep -F ": cannot inline ${entry#*: }: " || true)
	if [[ -n "$why" ]]; then
		echo "escape_check: scripts/inline_keep.txt lists a function that no longer inlines:" >&2
		echo "$why" >&2
	else
		echo "escape_check: scripts/inline_keep.txt lists a function the compiler does not report; remove it: $entry" >&2
	fi
done <<<"$lost"

if ((fail)); then
	exit 1
fi
echo "escape_check: ${#pkgs[@]} packages, $(grep -c . <<<"$seen" || true) allow-listed heap moves, none unlisted; $(grep -c . <<<"$kept" || true) listed helpers inline"
