// Package locks is a stub of the real internal/locks surface with the
// same package name and method signatures. The analyzers match
// primitives by package *name*, so calls against this stub take the
// identical code path as calls against the production package.
package locks

// Ctx mirrors the per-worker context.
type Ctx struct{ _ int }

// Token mirrors the opaque lock token.
type Token struct{ v uint64 }

// OptLock mirrors the optimistic lock word.
type OptLock struct{ w uint64 }

func (l *OptLock) AcquireSh(c *Ctx) (Token, bool)        { return Token{v: l.w}, true }
func (l *OptLock) ReleaseSh(c *Ctx, t Token) bool        { return t.v == l.w }
func (l *OptLock) AcquireEx(c *Ctx) Token                { return Token{v: l.w} }
func (l *OptLock) ReleaseEx(c *Ctx, t Token)             { _ = t }
func (l *OptLock) Upgrade(c *Ctx, t Token) (Token, bool) { return t, t.v == l.w }
func (l *OptLock) CloseWindow(t Token)                   { _ = t }
func (l *OptLock) BumpVersion()                          { l.w++ }

// Recycler mirrors the type-stable node recycler.
type Recycler struct{ slot any }

func (r *Recycler) Get(c *Ctx) any    { return r.slot }
func (r *Recycler) Put(c *Ctx, x any) { r.slot = x }

// BumpOnReuse mirrors the version-bump helper.
func BumpOnReuse(l any) {
	if b, ok := l.(interface{ BumpVersion() }); ok {
		b.BumpVersion()
	}
}
