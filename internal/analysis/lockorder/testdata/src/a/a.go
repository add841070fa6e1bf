// Package a exercises lockorder: direct AB/BA cycles, cycles hidden one
// call deep, same-class self-edges (two instances), declared-order
// inversions via //diwarp:lockafter on both fields and package vars, and
// the clean idioms that must stay silent.
package a

import "sync"

// --- direct two-lock cycle ---

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func abForward(p *pair) {
	p.a.Lock()
	p.b.Lock() // want `pair.b acquired while holding pair.a completes a lock-order cycle: pair.a → pair.b → pair.a`
	p.b.Unlock()
	p.a.Unlock()
}

func abBackward(p *pair) {
	p.b.Lock()
	p.a.Lock() // want `pair.a acquired while holding pair.b completes a lock-order cycle: pair.b → pair.a → pair.b`
	p.a.Unlock()
	p.b.Unlock()
}

// --- cycle hidden one call deep: the helper relocks ---

type cd struct {
	c sync.Mutex
	d sync.Mutex
}

func (x *cd) lockD() {
	x.d.Lock()
	x.d.Unlock()
}

func cdForward(x *cd) {
	x.c.Lock()
	x.lockD() // want `cd.d acquired \(via call to lockD\) while holding cd.c completes a lock-order cycle`
	x.c.Unlock()
}

func cdBackward(x *cd) {
	x.d.Lock()
	x.c.Lock() // want `cd.c acquired while holding cd.d completes a lock-order cycle`
	x.c.Unlock()
	x.d.Unlock()
}

// --- self-edge: two instances of one lock class, modeled on sharded
// workers (work stealing locks a victim shard while holding the thief's) ---

type placeShard struct {
	mu      sync.Mutex
	claimed int
}

func steal(thief, victim *placeShard) {
	thief.mu.Lock()
	victim.mu.Lock() // want `placeShard.mu acquired while another placeShard.mu \(thief.mu\) is held`
	victim.claimed--
	thief.claimed++
	victim.mu.Unlock()
	thief.mu.Unlock()
}

// qshard is a separate class so its suppression is exercised independently
// of the placeShard diagnostic above (class pairs are reported once).
type qshard struct {
	mu sync.Mutex
}

func stealSuppressed(thief, victim *qshard) {
	thief.mu.Lock()
	//diwarp:ignore lockorder: shards are always locked in ascending index order by the caller
	victim.mu.Lock()
	victim.mu.Unlock()
	thief.mu.Unlock()
}

// --- declared order on package-level vars: regMu is acquired after netMu ---

//diwarp:lockafter netMu
var regMu sync.Mutex

var netMu sync.Mutex

func declaredOK() {
	netMu.Lock()
	regMu.Lock() // matches the declared order: silent
	regMu.Unlock()
	netMu.Unlock()
}

func declaredInverted() {
	regMu.Lock()
	netMu.Lock() // want `netMu acquired while holding regMu inverts the declared lock order`
	netMu.Unlock()
	regMu.Unlock()
}

// --- declared order on struct fields ---

type tbl struct {
	top sync.Mutex
	// inner is taken under top on the claim path.
	//diwarp:lockafter tbl.top
	inner sync.Mutex
}

func claim(t *tbl) {
	t.top.Lock()
	t.inner.Lock() // declared: silent
	t.inner.Unlock()
	t.top.Unlock()
}

func claimInverted(t *tbl) {
	t.inner.Lock()
	t.top.Lock() // want `tbl.top acquired while holding tbl.inner inverts the declared lock order`
	t.top.Unlock()
	t.inner.Unlock()
}

// --- RWMutex: read locks order against write locks all the same ---

type rw struct {
	m   sync.RWMutex
	aux sync.Mutex
}

func rwForward(x *rw) {
	x.m.RLock()
	x.aux.Lock() // want `rw.aux acquired while holding rw.m completes a lock-order cycle`
	x.aux.Unlock()
	x.m.RUnlock()
}

func rwBackward(x *rw) {
	x.aux.Lock()
	x.m.Lock() // want `rw.m acquired while holding rw.aux completes a lock-order cycle`
	x.m.Unlock()
	x.aux.Unlock()
}

// --- clean idioms that must stay silent ---

type clean struct {
	first  sync.Mutex
	second sync.Mutex
}

// sequential: release before the next acquisition, no edge at all.
func sequential(c *clean) {
	c.first.Lock()
	c.first.Unlock()
	c.second.Lock()
	c.second.Unlock()
}

// nested in one consistent direction everywhere: an edge, but no cycle.
func nestedConsistent(c *clean) {
	c.first.Lock()
	defer c.first.Unlock()
	c.second.Lock()
	defer c.second.Unlock()
}

// a closure's acquisitions are its own: building it under a lock is not an
// acquisition-while-held (it runs later, on its own goroutine).
func closureIsSeparate(c *clean) func() {
	c.first.Lock()
	defer c.first.Unlock()
	return func() {
		c.second.Lock()
		c.second.Unlock()
	}
}

// re-entry through the same expression is unlockcheck's double-lock, not a
// lock-order self-edge.
func sameExpr(c *clean) {
	c.first.Lock()
	c.first.Unlock()
	c.first.Lock()
	c.first.Unlock()
}
