package main

import (
	"testing"
	"time"
)

// TestSimCellChecksAgreement runs a short ccs-sim cell, which must pass,
// then makes one replica's reading of one read differ from what the caller
// received and requires the agreement check to flag it.
func TestSimCellChecksAgreement(t *testing.T) {
	c, err := newSimCluster(1, false)
	if err != nil {
		t.Fatal(err)
	}
	or := newCCSOracle()
	done, cpu := runSimCell(c, 1, 20, or)
	if done != 20 || cpu <= 0 || or.log.count.Load() != 0 {
		t.Fatalf("done %d cpu %d violations %d %v", done, cpu, or.log.count.Load(), or.log.witnesses())
	}
	var got []time.Duration
	for _, v := range c.Apps[1].Readings {
		got = append(got, v.Truncate(time.Microsecond))
	}
	c.Apps[2].Readings[7] += time.Microsecond
	simAgreement(c, got, or)
	if w := or.log.witnesses(); len(w) != 1 || w[0].Node != 2 || w[0].Ordinal != 7 {
		t.Fatalf("witnesses = %+v", w)
	}
}
