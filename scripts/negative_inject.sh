#!/usr/bin/env bash
# Negative injection for the analyzers: plant one torn-read hazard, two
# WAL-ordering hazards, two upgrade-protocol hazards and an exclusive
# token leaked through a loop break into scratch copies of the module
# and assert that tornread, walorder, shcheck and expair each catch
# their plant end-to-end through the optiqlvet binary.
# A gate that cannot fail is not a gate; this proves the wired-up
# binary still detects the exact hazard classes it exists for (mirrors
# PR 5's verification).
#
# Usage: scripts/negative_inject.sh  (from the module root)
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" ]] || ! grep -q '^module optiql$' "$root/go.mod"; then
	echo "negative_inject: run from the optiql module root" >&2
	exit 1
fi

echo "== building optiqlvet"
go build -o bin/optiqlvet ./cmd/optiqlvet
optiqlvet="$root/bin/optiqlvet"

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

copy_module() {
	local dst=$1
	mkdir -p "$dst"
	# The module is self-contained; .git and bin are dead weight.
	(cd "$root" && tar --exclude=.git --exclude=bin -cf - .) | (cd "$dst" && tar -xf -)
}

# plant applies an in-place substitution and fails loudly if the
# anchor text has drifted — a silently missing plant would turn this
# gate into a no-op.
plant() {
	local file=$1 from=$2 to=$3
	if ! grep -qF "$from" "$file"; then
		echo "negative_inject: anchor not found in $file:" >&2
		echo "  $from" >&2
		echo "update the plant to match the current source" >&2
		exit 1
	fi
	python3 - "$file" "$from" "$to" <<'EOF'
import sys
path, frm, to = sys.argv[1], sys.argv[2], sys.argv[3]
src = open(path).read()
open(path, "w").write(src.replace(frm, to, 1))
EOF
}

expect_catch() {
	local dir=$1 pkg=$2 analyzer=$3
	local out
	if out=$(cd "$dir" && "$optiqlvet" "$pkg" 2>&1); then
		echo "negative_inject: $analyzer plant was NOT caught (optiqlvet exited 0)" >&2
		exit 1
	fi
	if ! grep -q "\[$analyzer\]" <<<"$out"; then
		echo "negative_inject: optiqlvet failed but not with a $analyzer finding:" >&2
		echo "$out" >&2
		exit 1
	fi
	echo "$out" | grep "\[$analyzer\]" | head -3
}

echo "== plant 1: unclamped racy loop bound (tornread)"
copy_module "$scratch/torn"
# Strip the maxPrefix clamp from checkPrefix: the loop bound becomes a
# raw optimistic read again, and every optimistic caller must flag.
plant "$scratch/torn/internal/art/art.go" \
	'for ; i < n.prefixLen && i < maxPrefix; i++ {' \
	'for ; i < n.prefixLen; i++ {'
expect_catch "$scratch/torn" ./internal/art/ tornread
echo "   caught"

echo "== plant 2: index apply before wal.Append (walorder)"
copy_module "$scratch/wal"
# Apply a write to the index before its record is in the log: a crash
# between the two loses acknowledged writes.
plant "$scratch/wal/internal/server/wal.go" \
	'	seq, err := s.wal.Append(ops)' \
	'	c.applyWrite(ctx, p, ws[0].req, ws[0].slot)
	seq, err := s.wal.Append(ops)'
expect_catch "$scratch/wal" ./internal/server/ walorder
echo "   caught"

echo "== plant 3: write acked right after wal.Append (walorder)"
copy_module "$scratch/ack"
# Complete a write as soon as its record is appended, before the commit
# policy has made it durable: under the interval and always policies
# the client hears OK for a write a crash can still lose.
plant "$scratch/ack/internal/server/wal.go" \
	'	ok := true
	for _, w := range ws {' \
	'	p.opDone()
	ok := true
	for _, w := range ws {'
expect_catch "$scratch/ack" ./internal/server/ walorder
echo "   caught"

echo "== plant 4: unchecked upgrade, and an upgraded token never released (shcheck, expair)"
copy_module "$scratch/upg"
# Throw Upgrade's flag away in Update: the value write proceeds whether
# or not the lock was taken.
plant "$scratch/upg/internal/art/write.go" \
	'if tok, ok = n.lock.Upgrade(c, tok); ok {' \
	'if tok, _ = n.lock.Upgrade(c, tok); true {'
# Drop the release of the child compressPath upgraded: the node goes to
# the recycler still locked.
plant "$scratch/upg/internal/art/shrink.go" \
	'	child.lock.ReleaseEx(c, ctok)
' \
	''
expect_catch "$scratch/upg" ./internal/art/ shcheck
expect_catch "$scratch/upg" ./internal/art/ expair
echo "   caught"

echo "== plant 5: exclusive token leaked through a loop break (expair)"
copy_module "$scratch/brk"
# Leave insertPessimistic's descent before the child's token is pushed
# onto the held stack: ctok is never released, and every writer queued
# behind that lock waits for ever.
plant "$scratch/brk/internal/btree/write.go" \
	'		stack = append(stack, held{child, ctok})' \
	'		if child.leaf && k == 0 {
			break
		}
		stack = append(stack, held{child, ctok})'
expect_catch "$scratch/brk" ./internal/btree/ expair
echo "   caught"

echo "negative injection: all plants caught"
