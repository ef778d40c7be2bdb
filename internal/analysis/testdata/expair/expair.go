// Package expairtest holds the expair golden cases: exclusive tokens
// released on every path (non-flagging), custody transfers, and the
// leak shapes the analyzer must catch.
package expairtest

import "vettest/locks"

func cond() bool { return false }

func work() {}

// goodPair is the straight-line acquire/release pair.
func goodPair(l *locks.OptLock, c *locks.Ctx) {
	tok := l.AcquireEx(c)
	work()
	l.ReleaseEx(c, tok)
}

// goodDeferred releases on every path via defer.
func goodDeferred(l *locks.OptLock, c *locks.Ctx) {
	tok := l.AcquireEx(c)
	defer l.ReleaseEx(c, tok)
	if cond() {
		return
	}
	work()
}

// goodBothBranches releases in each arm.
func goodBothBranches(l *locks.OptLock, c *locks.Ctx) {
	tok := l.AcquireEx(c)
	if cond() {
		l.ReleaseEx(c, tok)
		return
	}
	work()
	l.ReleaseEx(c, tok)
}

// held mirrors the B+-tree SMO stack entry: storing the token in a
// composite literal transfers custody to the stack's unwinder.
type held struct {
	l   *locks.OptLock
	tok locks.Token
}

// goodCustodyTransfer pushes tokens onto a stack released elsewhere —
// the insertPessimistic idiom.
func goodCustodyTransfer(l *locks.OptLock, c *locks.Ctx, stack []held) []held {
	tok := l.AcquireEx(c)
	stack = append(stack, held{l: l, tok: tok})
	return stack
}

// goodFieldCustody stores a fresh token straight into a stack entry's
// field: custody belongs to whoever unwinds the stack (the btree
// delete re-acquire idiom).
func goodFieldCustody(l *locks.OptLock, c *locks.Ctx, h *held) {
	h.tok = l.AcquireEx(c)
}

// goodInfiniteDescent models the ART pessimistic descent: an
// unconditional loop whose every exit path releases; the code after
// the loop is unreachable and must not be reported (regression).
func goodInfiniteDescent(l, l2 *locks.OptLock, c *locks.Ctx) bool {
	tok := l.AcquireEx(c)
	for {
		if cond() {
			l.ReleaseEx(c, tok)
			return true
		}
		ctok := l2.AcquireEx(c)
		l, tok = l2, ctok
	}
}

// goodUpgradeRelease releases only where the upgrade succeeded.
func goodUpgradeRelease(l *locks.OptLock, c *locks.Ctx) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	if tok, ok = l.Upgrade(c, tok); ok {
		work()
		l.ReleaseEx(c, tok)
	}
}

// goodUpgradeNegated is the ART write path's shape: the failed upgrade
// leaves, the fallthrough side holds the token.
func goodUpgradeNegated(l *locks.OptLock, c *locks.Ctx) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	if tok, ok = l.Upgrade(c, tok); !ok {
		return
	}
	work()
	l.ReleaseEx(c, tok)
}

// goodExhaustiveSwitch releases in every arm of an exhaustive
// switch; the function end is unreachable and must not be reported
// against the pre-branch state (regression: art updateDirect shape).
func goodExhaustiveSwitch(l *locks.OptLock, c *locks.Ctx, k int) bool {
	tok := l.AcquireEx(c)
	switch {
	case k == 0:
		l.CloseWindow(tok)
		l.ReleaseEx(c, tok)
		return true
	case k > 0:
		l.ReleaseEx(c, tok)
		return false
	default:
		l.ReleaseEx(c, tok)
		return false
	}
}

func badBareAcquire(l *locks.OptLock, c *locks.Ctx) {
	l.AcquireEx(c) // want "AcquireEx token discarded"
}

func badBlankAcquire(l *locks.OptLock, c *locks.Ctx) {
	_ = l.AcquireEx(c) // want "AcquireEx token assigned to blank"
}

// badEarlyReturn leaks the token on the early-out path.
func badEarlyReturn(l *locks.OptLock, c *locks.Ctx) {
	tok := l.AcquireEx(c)
	if cond() {
		return // want "exclusive token \"tok\" .* is not released on this path \\(return\\)"
	}
	l.ReleaseEx(c, tok)
}

// badGotoLeak jumps back to re-acquire while still holding the token
// — the queue lock behind it deadlocks.
func badGotoLeak(l *locks.OptLock, c *locks.Ctx) {
retry:
	tok := l.AcquireEx(c)
	if cond() {
		goto retry // want "is not released on this path \\(goto retry\\)"
	}
	l.ReleaseEx(c, tok)
}

// badPanicLeak panics while holding the token.
func badPanicLeak(l *locks.OptLock, c *locks.Ctx) {
	tok := l.AcquireEx(c)
	if cond() {
		panic("invariant") // want "is not released on this path \\(panic\\)"
	}
	l.ReleaseEx(c, tok)
}

// badUpgradeLeak returns out of the successful-upgrade branch without
// releasing the now-exclusive token.
func badUpgradeLeak(l *locks.OptLock, c *locks.Ctx) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	if tok, ok = l.Upgrade(c, tok); ok {
		work()
		return // want "is not released on this path \\(return\\)"
	}
}

// badUpgradeFallthroughLeak holds the token on the fallthrough side of
// a negated check and falls off the function end with it.
func badUpgradeFallthroughLeak(l *locks.OptLock, c *locks.Ctx) {
	tok, ok := l.AcquireSh(c)
	if !ok {
		return
	}
	if tok, ok = l.Upgrade(c, tok); !ok {
		return
	}
	work()
} // want "is not released on this path \\(function end\\)"

// badLoopLeak acquires per iteration and never releases.
func badLoopLeak(l *locks.OptLock, c *locks.Ctx) {
	for i := 0; i < 3; i++ {
		tok := l.AcquireEx(c) // want "still held at the loop's back edge"
		l.CloseWindow(tok)
	}
}

// badFuncEnd falls off the function end while holding.
func badFuncEnd(l *locks.OptLock, c *locks.Ctx) {
	tok := l.AcquireEx(c)
	l.CloseWindow(tok)
} // want "is not released on this path \\(function end\\)"

// badBreakLeak leaves the loop by break still holding the token it
// acquired there, and falls off the function end with it.
func badBreakLeak(l *locks.OptLock, c *locks.Ctx) {
	for {
		tok := l.AcquireEx(c)
		if cond() {
			break
		}
		l.ReleaseEx(c, tok)
	}
} // want "exclusive token \"tok\" .* is not released on this path \\(function end\\)"

// badContinueLeak skips the release on the continue path.
func badContinueLeak(l *locks.OptLock, c *locks.Ctx) {
	for i := 0; i < 3; i++ {
		tok := l.AcquireEx(c) // want "\"tok\" acquired inside the loop is still held at the loop's back edge"
		if cond() {
			continue
		}
		l.ReleaseEx(c, tok)
	}
}

// badLabeledContinueLeak re-enters the outer loop from the inner one
// while holding the inner loop's token.
func badLabeledContinueLeak(l *locks.OptLock, c *locks.Ctx) {
outer:
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			tok := l.AcquireEx(c) // want "\"tok\" acquired inside the loop is still held at the loop's back edge"
			if cond() {
				continue outer
			}
			l.ReleaseEx(c, tok)
		}
	}
}

// goodReleaseThenBreak releases a token taken before the loop on the
// one path that leaves it (regression: a false function-end leak).
func goodReleaseThenBreak(l *locks.OptLock, c *locks.Ctx) {
	tok := l.AcquireEx(c)
	for {
		if cond() {
			l.ReleaseEx(c, tok)
			break
		}
		work()
	}
}

// badPanicBranchLeak panics holding a token taken in the panicking
// branch: reported at the panic, and not again at the function end.
func badPanicBranchLeak(l *locks.OptLock, c *locks.Ctx) {
	if cond() {
		tok := l.AcquireEx(c)
		l.CloseWindow(tok)
		panic("invariant") // want "exclusive token \"tok\" .* is not released on this path \\(panic\\)"
	}
	work()
}

// badVarLeak binds the token with a var declaration and returns
// without releasing it.
func badVarLeak(l *locks.OptLock, c *locks.Ctx) {
	var tok = l.AcquireEx(c)
	if cond() {
		return // want "exclusive token \"tok\" .* is not released on this path \\(return\\)"
	}
	l.ReleaseEx(c, tok)
}
