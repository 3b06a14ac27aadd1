// Package oracle is the single definition of the time service's promise to
// its clients: every served reading's interval [G−B, G+B] covers the group
// clock, and no replica's readings go backwards (DESIGN §7).
//
// Without a global clock the promise is checked with happened-before
// ordering only. The true group clock only advances, so the highest G−B of
// any reading that completed is a floor every later reading's G+B must
// reach (staleness), and the highest G a (group, node) served is a floor
// its later readings must reach (regression). "Later" means the floor was
// recorded before the reading's request was sent: a caller takes a
// Snapshot before sending (or at the start of a simulated sample pass) and
// checks the answer against it. Comparing readings by receipt order would
// flag valid concurrent answers, since receipt order is not generation
// order.
//
// Live load generators and simulated monitors use the same API. An Oracle
// is safe for concurrent use; a Snapshot belongs to one goroutine.
package oracle

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Kind is the set of promises one reading broke; zero means none.
type Kind uint8

const (
	// Stale: G+B is below the highest G−B recorded before the snapshot.
	Stale Kind = 1 << iota
	// Regressed: G is below the highest G the same (group, node) served
	// before the snapshot.
	Regressed
)

// Key is the dense index of one (group, node) pair, resolved once by
// Oracle.Key. Node ids are unique only within a replica group, so a node
// is never keyed alone.
type Key int32

// Violation describes one reading that broke the promise; the zero value
// means it kept it. Floor is the floor that was broken and Deficit how far
// below it the reading fell: the staleness floor (Deficit = Floor−(G+B))
// when Kind has Stale, otherwise the served floor (Deficit = Floor−G).
type Violation struct {
	Kind    Kind
	Key     Key
	G, B    time.Duration
	Floor   time.Duration
	Deficit time.Duration
}

// unset is the value of a floor nothing has raised yet; it binds nothing.
const unset = math.MinInt64

// Oracle holds the floors and counts the violations.
type Oracle struct {
	lower atomic.Int64 // highest G−B folded so far
	// tab is replaced, never mutated, when a key is added, so Key and
	// Check read it without locking; mu serializes the replacements.
	tab atomic.Pointer[table]
	mu  sync.Mutex

	stale, regressed atomic.Uint64
}

// table maps (group, node) pairs to dense keys and holds each key's served
// floor (the highest G folded for it). served only grows; its entries are
// shared between successive tables.
type table struct {
	index  map[uint64]Key
	served []*atomic.Int64
}

// New returns an oracle with no floors.
func New() *Oracle {
	o := &Oracle{}
	o.lower.Store(unset)
	o.tab.Store(&table{index: map[uint64]Key{}})
	return o
}

// Key resolves (group, node) to its dense key, adding it on first use.
func (o *Oracle) Key(group, node uint32) Key {
	id := uint64(group)<<32 | uint64(node)
	if k, ok := o.tab.Load().index[id]; ok {
		return k
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	old := o.tab.Load()
	if k, ok := old.index[id]; ok {
		return k
	}
	n := len(old.served)
	next := &table{
		index:  make(map[uint64]Key, n+1),
		served: append(old.served[:n:n], new(atomic.Int64)),
	}
	for i, k := range old.index {
		next.index[i] = k
	}
	next.index[id] = Key(n)
	next.served[n].Store(unset)
	o.tab.Store(next)
	return Key(n)
}

// Snapshot holds the floors as they stood at one instant. Its buffer is
// reused across Oracle.Snapshot calls.
type Snapshot struct {
	lower  time.Duration
	served []time.Duration // by Key; keys added later are not bound
}

// Snapshot records the current floors into s.
func (o *Oracle) Snapshot(s *Snapshot) {
	s.lower = time.Duration(o.lower.Load())
	tab := o.tab.Load()
	s.served = s.served[:0]
	for _, f := range tab.served {
		s.served = append(s.served, time.Duration(f.Load()))
	}
}

// Check tests the reading (G, B) that k served against the floors in s,
// which must have been taken before the reading's request was sent, then
// folds the reading into the floors. It does not allocate.
//
//cts:allocfree
func (o *Oracle) Check(k Key, g, b time.Duration, s *Snapshot) Violation {
	var v Violation
	if int(k) < len(s.served) && g < s.served[k] {
		v = Violation{Kind: Regressed, Key: k, G: g, B: b, Floor: s.served[k], Deficit: s.served[k] - g}
		o.regressed.Add(1)
	}
	if g+b < s.lower {
		v = Violation{Kind: v.Kind | Stale, Key: k, G: g, B: b, Floor: s.lower, Deficit: s.lower - (g + b)}
		o.stale.Add(1)
	}
	raise(o.tab.Load().served[k], g)
	raise(&o.lower, g-b)
	return v
}

// Counts reports how many checked readings were stale and how many
// regressed; a reading that broke both counts in each.
func (o *Oracle) Counts() (stale, regressed uint64) {
	return o.stale.Load(), o.regressed.Load()
}

// raise lifts f to at least v.
func raise(f *atomic.Int64, v time.Duration) {
	for {
		prev := f.Load()
		if int64(v) <= prev || f.CompareAndSwap(prev, int64(v)) {
			return
		}
	}
}
