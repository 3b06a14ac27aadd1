package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// maxWitnesses caps the distinct violations an oracle keeps for the report.
const maxWitnesses = 8

// witness is one reading that broke a promise, with the floor it broke.
type witness struct {
	Check   string `json:"check"`
	Node    uint32 `json:"node"`
	Epoch   uint64 `json:"epoch"`
	G       int64  `json:"g_ns"`
	B       int64  `json:"b_ns"`
	Floor   int64  `json:"floor_ns"`
	Deficit int64  `json:"deficit_ns"`
	// Ordinal names the consistent read (zero for leased readings).
	Ordinal uint64 `json:"ordinal,omitempty"`
}

func (w witness) String() string {
	return fmt.Sprintf("%s: node=%d epoch=%d ordinal=%d G=%d B=%d floor=%d deficit=%dns",
		w.Check, w.Node, w.Epoch, w.Ordinal, w.G, w.B, w.Floor, w.Deficit)
}

// witnessLog counts violations and keeps the first distinct witnesses. Safe
// for concurrent use.
type witnessLog struct {
	count atomic.Uint64
	mu    sync.Mutex
	seen  map[string]bool
	list  []witness
}

func (l *witnessLog) add(w witness) {
	l.count.Add(1)
	// Distinct by check, node and epoch: a broken lease usually yields
	// thousands of readings with the same cause.
	key := fmt.Sprintf("%s/%d/%d", w.Check, w.Node, w.Epoch)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = make(map[string]bool)
	}
	if l.seen[key] || len(l.list) >= maxWitnesses {
		return
	}
	l.seen[key] = true
	l.list = append(l.list, w)
}

func (l *witnessLog) witnesses() []witness {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]witness(nil), l.list...)
}

// maxReplicas bounds the node ids the lease oracle tracks (ids 0..maxReplicas-1).
const maxReplicas = 8

// leaseOracle checks leased readings using only happened-before order: a
// floor constrains a reading only when it was recorded before that reading's
// request was sent.
//
//   - Staleness: the true group clock never runs backwards, so the highest
//     lower bound G−B of any completed reading is a floor that every later
//     reading's upper bound G+B must reach.
//   - Regression: a replica's served group clock never runs backwards, so
//     every later reading from the same (group, node) must reach the highest
//     G it served before. The benchmark loads one group, so node alone keys it.
type leaseOracle struct {
	lower atomic.Int64
	node  [maxReplicas]atomic.Int64
	log   witnessLog
}

// leaseFloors is the pre-send view of the oracle's floors.
type leaseFloors struct {
	lower int64
	node  [maxReplicas]int64
}

func newLeaseOracle() *leaseOracle {
	o := &leaseOracle{}
	o.lower.Store(minFloor)
	for i := range o.node {
		o.node[i].Store(minFloor)
	}
	return o
}

// minFloor is the floor before any reading completed.
const minFloor = -1 << 62

// snapshot records the floors a request sent now must respect.
func (o *leaseOracle) snapshot(f *leaseFloors) {
	f.lower = o.lower.Load()
	for i := range o.node {
		f.node[i] = o.node[i].Load()
	}
}

// check validates one reading against the pre-send floors and reports
// whether it passed. Failing readings still tighten nothing.
func (o *leaseOracle) check(pre *leaseFloors, node uint32, epoch uint64, g, b time.Duration) bool {
	ok := true
	if int64(node) >= maxReplicas {
		o.log.add(witness{Check: "unknown-node", Node: node, Epoch: epoch, G: int64(g), B: int64(b)})
		return false
	}
	if up := int64(g + b); up < pre.lower {
		o.log.add(witness{Check: "staleness", Node: node, Epoch: epoch, G: int64(g), B: int64(b),
			Floor: pre.lower, Deficit: pre.lower - up})
		ok = false
	}
	if nf := pre.node[node]; int64(g) < nf {
		o.log.add(witness{Check: "regression", Node: node, Epoch: epoch, G: int64(g), B: int64(b),
			Floor: nf, Deficit: nf - int64(g)})
		ok = false
	}
	return ok
}

// complete folds a reading that passed into the floors.
func (o *leaseOracle) complete(node uint32, g, b time.Duration) {
	raise(&o.node[node], int64(g))
	raise(&o.lower, int64(g-b))
}

func raise(a *atomic.Int64, v int64) {
	for {
		prev := a.Load()
		if v <= prev || a.CompareAndSwap(prev, v) {
			return
		}
	}
}

// ccsOracle checks consistent reads: each is strictly greater than the
// caller's previous reading, every replica that executed an ordinal computed
// the same value, and no read ends in an error.
type ccsOracle struct {
	prev int64 // caller's previous reading; one closed-loop caller owns it
	log  witnessLog
}

func newCCSOracle() *ccsOracle { return &ccsOracle{prev: minFloor} }

// read checks the caller's reading of ordinal from replica node.
func (o *ccsOracle) read(ordinal uint64, node uint32, v time.Duration, err error) bool {
	if err != nil {
		o.log.add(witness{Check: "error:" + err.Error(), Node: node, Ordinal: ordinal})
		return false
	}
	if int64(v) <= o.prev {
		o.log.add(witness{Check: "not-increasing", Node: node, Ordinal: ordinal, G: int64(v),
			Floor: o.prev, Deficit: o.prev - int64(v)})
		o.prev = max(o.prev, int64(v))
		return false
	}
	o.prev = int64(v)
	return true
}

// agree checks node's value v for ordinal against ref, the value refNode
// logged for it first (node 0 is the caller on P0).
func (o *ccsOracle) agree(ordinal uint64, refNode int, ref int64, node int, v int64) bool {
	if v == ref {
		return true
	}
	o.log.add(witness{Check: fmt.Sprintf("replica-disagree(ref node %d)", refNode),
		Node: uint32(node), Ordinal: ordinal, G: v, Floor: ref, Deficit: ref - v})
	return false
}
