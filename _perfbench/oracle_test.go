package main

import (
	"errors"
	"testing"
	"time"
)

// The oracle must flag every fabricated lie: a stale interval, a replica
// regressing, a repeated or lower consistent read, a replica disagreeing,
// and an error.

func TestLeaseOracleFlagsStaleReading(t *testing.T) {
	o := newLeaseOracle()
	var pre leaseFloors
	o.snapshot(&pre)
	if !o.check(&pre, 1, 1, 1000*time.Microsecond, 10*time.Microsecond) {
		t.Fatal("first reading flagged")
	}
	o.complete(1, 1000*time.Microsecond, 10*time.Microsecond) // floor 990µs
	o.snapshot(&pre)
	// Node 2 claims [900, 980]µs: its upper bound misses the floor by 10µs.
	if o.check(&pre, 2, 7, 940*time.Microsecond, 40*time.Microsecond) {
		t.Fatal("stale reading passed")
	}
	w := o.log.witnesses()
	if len(w) != 1 || w[0].Check != "staleness" || w[0].Node != 2 || w[0].Epoch != 7 ||
		w[0].Deficit != int64(10*time.Microsecond) || w[0].Floor != int64(990*time.Microsecond) {
		t.Fatalf("witness = %+v", w)
	}
}

func TestLeaseOracleFlagsRegression(t *testing.T) {
	o := newLeaseOracle()
	var pre leaseFloors
	o.snapshot(&pre)
	o.check(&pre, 3, 1, 5*time.Millisecond, time.Millisecond)
	o.complete(3, 5*time.Millisecond, time.Millisecond)
	o.snapshot(&pre)
	// Wide bound, so only the regression check can catch it.
	if o.check(&pre, 3, 1, 4*time.Millisecond, 5*time.Millisecond) {
		t.Fatal("regressing reading passed")
	}
	if w := o.log.witnesses(); len(w) != 1 || w[0].Check != "regression" || w[0].Deficit != int64(time.Millisecond) {
		t.Fatalf("witness = %+v", w)
	}
	// The same node at a higher clock, and another node lower, both pass.
	if !o.check(&pre, 3, 1, 6*time.Millisecond, time.Millisecond) || !o.check(&pre, 1, 1, 4*time.Millisecond, 5*time.Millisecond) {
		t.Fatal("honest reading flagged")
	}
}

func TestLeaseOracleUsesOnlyHappenedBefore(t *testing.T) {
	o := newLeaseOracle()
	var pre leaseFloors
	o.snapshot(&pre) // taken before the reading below completes
	o.complete(1, 10*time.Millisecond, 0)
	// Sent before that reading completed: not bound by it.
	if !o.check(&pre, 2, 1, time.Millisecond, 0) {
		t.Fatal("reading checked against a floor recorded after it was sent")
	}
}

func TestCCSOracleFlagsRepeatedLowerAndErrors(t *testing.T) {
	o := newCCSOracle()
	if !o.read(1, 1, 100*time.Microsecond, nil) {
		t.Fatal("first read flagged")
	}
	if o.read(2, 2, 100*time.Microsecond, nil) {
		t.Fatal("repeated reading passed")
	}
	if o.read(3, 1, 90*time.Microsecond, nil) {
		t.Fatal("lower reading passed")
	}
	if o.read(4, 1, 0, errors.New("rpc: invocation timed out")) {
		t.Fatal("error passed")
	}
	if !o.read(5, 1, 101*time.Microsecond, nil) {
		t.Fatal("increasing read flagged")
	}
	if got := o.log.count.Load(); got != 3 {
		t.Fatalf("violations = %d, want 3", got)
	}
}

func TestCCSOracleFlagsDisagreeingReplicas(t *testing.T) {
	o := newCCSOracle()
	l := &readLog{or: o}
	// Ordinal 1: replicas 1 and 3 and the caller agree; replica 2 never
	// executes it.
	l.put(1, 1, execRecord{value: 5})
	l.put(3, 1, execRecord{value: 5})
	if e, ok := l.reading(3, 1, 5); !ok || e.value != 5 {
		t.Fatalf("agreeing replicas flagged (one did not execute): %v %+v", ok, e)
	}
	// Ordinal 2: replica 2 computed another value than replica 1 and the
	// caller.
	l.put(1, 2, execRecord{value: 5})
	if _, ok := l.reading(1, 2, 5); !ok {
		t.Fatal("caller's agreeing reading flagged")
	}
	l.put(2, 2, execRecord{value: 6})
	if w := o.log.witnesses(); len(w) != 1 || w[0].Node != 2 || w[0].Ordinal != 2 || w[0].Deficit != -1 {
		t.Fatalf("witness = %+v", w)
	}
	// Ordinal 3: the caller received a value no replica logged.
	l.put(1, 3, execRecord{value: 7})
	if _, ok := l.reading(1, 3, 8); ok {
		t.Fatal("disagreeing reading passed")
	}
	// An execution arriving after its slot was reused is counted, not
	// checked against the newer ordinal.
	l.put(1, 3+logSlots, execRecord{value: 9})
	l.put(2, 3, execRecord{value: 1})
	if l.late != 1 || o.log.count.Load() != 2 {
		t.Fatalf("late %d, violations %d", l.late, o.log.count.Load())
	}
}

func TestWitnessLogKeepsDistinctWitnesses(t *testing.T) {
	var l witnessLog
	for i := 0; i < 100; i++ {
		l.add(witness{Check: "staleness", Node: 1, Epoch: 4})
	}
	l.add(witness{Check: "staleness", Node: 1, Epoch: 5})
	if l.count.Load() != 101 || len(l.witnesses()) != 2 {
		t.Fatalf("count %d, witnesses %d", l.count.Load(), len(l.witnesses()))
	}
}
