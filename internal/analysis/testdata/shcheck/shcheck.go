// Package shtest holds the shcheck golden cases: the optimistic-read
// validation idioms the repo uses (non-flagging) next to the protocol
// violations the analyzer must catch.
package shtest

import "vettest/locks"

func read() int { return 1 }

func cond() bool { return false }

// goodLookup is the canonical optimistic read: admission flag
// branched, validation result gating the return.
func goodLookup(l *locks.OptLock, c *locks.Ctx) int {
	for {
		tok, ok := l.AcquireSh(c)
		if !ok {
			continue
		}
		v := read()
		if l.ReleaseSh(c, tok) {
			return v
		}
	}
}

// goodRestartDiscard discards the validation result on a pure restart
// path — nothing read under the token escapes, control jumps back.
func goodRestartDiscard(l *locks.OptLock, c *locks.Ctx) int {
	for {
		tok, ok := l.AcquireSh(c)
		if !ok {
			continue
		}
		if cond() {
			l.ReleaseSh(c, tok)
			continue
		}
		v := read()
		if l.ReleaseSh(c, tok) {
			return v
		}
	}
}

// goodAssignedFlag branches on a named validation result.
func goodAssignedFlag(l *locks.OptLock, c *locks.Ctx) int {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return -1
	}
	v := read()
	valid := l.ReleaseSh(c, tok)
	if !valid {
		return -1
	}
	return v
}

// goodReturnedFlag hands the validation result to the caller.
func goodReturnedFlag(l *locks.OptLock, c *locks.Ctx, tok locks.Token) bool {
	return l.ReleaseSh(c, tok)
}

// goodUpgrade branches on the upgrade result.
func goodUpgrade(l *locks.OptLock, c *locks.Ctx) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	if tok, ok = l.Upgrade(c, tok); ok {
		l.ReleaseEx(c, tok)
	}
}

// goodReturnedUpgrade hands both results to the caller.
func goodReturnedUpgrade(l *locks.OptLock, c *locks.Ctx, tok locks.Token) (locks.Token, bool) {
	return l.Upgrade(c, tok)
}

func badBareAcquire(l *locks.OptLock, c *locks.Ctx) {
	l.AcquireSh(c) // want "AcquireSh must be consumed as"
}

func badBlankFlag(l *locks.OptLock, c *locks.Ctx) locks.Token {
	tok, _ := l.AcquireSh(c) // want "admission flag is discarded"
	return tok
}

func badUnbranchedFlag(l *locks.OptLock, c *locks.Ctx) int {
	tok, ok := l.AcquireSh(c) // want "admission flag \"ok\" is never branched on"
	_ = ok
	v := read()
	if l.ReleaseSh(c, tok) {
		return v
	}
	return -1
}

// badDiscardThenReturn lets a value read under the token escape past
// a discarded validation.
func badDiscardThenReturn(l *locks.OptLock, c *locks.Ctx) int {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return -1
	}
	v := read()
	l.ReleaseSh(c, tok) // want "validation result discarded outside a restart path"
	return v
}

func badDeferredRelease(l *locks.OptLock, c *locks.Ctx) int {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return -1
	}
	defer l.ReleaseSh(c, tok) // want "deferred ReleaseSh discards the validation result"
	return read()
}

func badBlankReleaseFlag(l *locks.OptLock, c *locks.Ctx) int {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return -1
	}
	v := read()
	_ = l.ReleaseSh(c, tok) // want "validation result assigned to blank"
	return v
}

func badUnbranchedReleaseFlag(l *locks.OptLock, c *locks.Ctx) int {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return -1
	}
	v := read()
	valid := l.ReleaseSh(c, tok) // want "validation result \"valid\" is never branched on"
	_ = valid
	return v
}

func badUncheckedUpgrade(l *locks.OptLock, c *locks.Ctx) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	l.Upgrade(c, tok) // want "Upgrade result must be branched on"
	l.ReleaseEx(c, tok)
}

func badBlankUpgradeFlag(l *locks.OptLock, c *locks.Ctx) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	tok, _ = l.Upgrade(c, tok) // want "Upgrade result must be branched on"
	l.ReleaseEx(c, tok)
}

// badStaleUpgradeFlag reuses AcquireSh's flag variable: it was branched
// on once, but not after the upgrade wrote it.
func badStaleUpgradeFlag(l *locks.OptLock, c *locks.Ctx) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	tok, ok = l.Upgrade(c, tok) // want "Upgrade result must be branched on"
	l.ReleaseEx(c, tok)
}

// badDiscardThenBreak leaves the loop by break after a discarded
// validation and returns the unvalidated read: break is not a restart.
func badDiscardThenBreak(l *locks.OptLock, c *locks.Ctx) int {
	v := -1
	for {
		tok, ok := l.AcquireSh(c)
		if !ok {
			continue
		}
		v = read()
		l.ReleaseSh(c, tok) // want "validation result discarded outside a restart path"
		break
	}
	return v
}

// badDiscardAtEnd publishes a read made under the token, then discards
// the validation and falls off the end: an implicit return is no
// restart.
func badDiscardAtEnd(l *locks.OptLock, c *locks.Ctx, out *int) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	*out = read()
	l.ReleaseSh(c, tok) // want "validation result discarded outside a restart path"
}

// goodConditionalCleanup releases the second lock only where it was
// taken, on the way to the restart: both arms still reach the back
// edge.
func goodConditionalCleanup(l, p *locks.OptLock, c *locks.Ctx, locked bool) int {
	for {
		tok, ok := l.AcquireSh(c)
		if !ok {
			continue
		}
		var ptok locks.Token
		if locked {
			ptok = p.AcquireEx(c)
		}
		if cond() {
			l.ReleaseSh(c, tok)
			if locked {
				p.ReleaseEx(c, ptok)
			}
			continue
		}
		v := read()
		if locked {
			p.ReleaseEx(c, ptok)
		}
		if l.ReleaseSh(c, tok) {
			return v
		}
	}
}
