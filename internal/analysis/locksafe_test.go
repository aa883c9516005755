package analysis

import "testing"

const locksafeFixture = `package fx

import "sync"

type Cache struct {
	mu    sync.RWMutex // guards items, hits
	items map[int]int
	hits  int
	name  string
}

func (c *Cache) Good(k int) (int, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.items[k]
	return v, ok
}

func (c *Cache) GoodWrite(k, v int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.items[k] = v
	c.hits++
}

func (c *Cache) BadRead() int { return c.hits }

func (c *Cache) BadWriteUnderRLock(k, v int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	c.items[k] = v
}

func (c *Cache) bumpLocked() { c.hits++ }

func (c *Cache) Name() string { return c.name }

type Reg struct {
	lk sync.Mutex
	n  int // guarded by lk
}

func (r *Reg) BadPeek() int { return r.n }

func (r *Reg) Good() int {
	r.lk.Lock()
	defer r.lk.Unlock()
	return r.n
}
`

func TestLocksafe(t *testing.T) {
	got := checkFixture(t, "repro/internal/fx", locksafeFixture, Locksafe())
	wantFindings(t, got,
		"read of c.hits without c.mu.Lock",       // BadRead
		"write of c.items without c.mu.Lock",     // RLock does not license writes
		"read of r.n without r.lk.Lock or RLock", // guarded-by form
	)
}

func TestLocksafeUnknownFieldInAnnotation(t *testing.T) {
	src := `package fx

import "sync"

type S struct {
	mu sync.Mutex // guards bogus
	n  int
}
`
	got := checkFixture(t, "repro/internal/fx", src, Locksafe())
	wantFindings(t, got, "bogus")
}

// The guard must be held on every path to the access, through the
// receiver: a Lock earlier in the source is not enough.
const locksafeFlowFixture = `package fx

import "sync"

type Cache struct {
	mu    sync.Mutex // guards items, hits, keys
	items map[int]int
	hits  int
	keys  []int
}

func (c *Cache) AfterUnlock(k int) int {
	c.mu.Lock()
	c.hits++
	c.mu.Unlock()
	return c.items[k]
}

func (c *Cache) OneBranch(fast bool) int {
	if !fast {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.hits
}

func (c *Cache) MoveTo(o *Cache) {
	c.mu.Lock()
	n := c.hits
	c.mu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	c.hits = n
}

func (c *Cache) BothBranches(fast bool) int {
	if fast {
		c.mu.Lock()
	} else {
		c.mu.Lock()
	}
	defer c.mu.Unlock()
	return c.hits
}

func (c *Cache) Grow(k int) {
	c.keys = append(c.keys, k)
}

func (c *Cache) Each(fn func(int)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	func() {
		for k := range c.items {
			fn(k)
		}
	}()
}
`

func TestLocksafeHeldOnEveryPath(t *testing.T) {
	got := checkFixture(t, "repro/internal/fx", locksafeFlowFixture, Locksafe())
	wantFindings(t, got,
		"read of c.items without c.mu.Lock or RLock", // AfterUnlock
		"read of c.hits without c.mu.Lock or RLock",  // OneBranch
		"write of c.hits without c.mu.Lock",          // MoveTo: o.mu is held
		"write of c.keys without c.mu.Lock",          // Grow: one finding for target and operand
	)
}
