package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

// TestSelfTimesOverlappingChildren checks the self-time arithmetic on a
// hand-built tree: a root [0,100) with children [10,40), [30,60) (overlapping
// the first) and [90,120) (sticking out of the root), and a grandchild
// [35,45) under the second child.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []traceSpan{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 1, Name: "a", Parent: "root", Start: 10, End: 40},
		{ID: 1, Name: "b", Parent: "root", Start: 30, End: 60},
		{ID: 1, Name: "c", Parent: "root", Start: 90, End: 120},
		{ID: 1, Name: "b.x", Parent: "b", Start: 35, End: 45},
		// Same names under another operation must not count.
		{ID: 2, Name: "a", Parent: "root", Start: 0, End: 100},
	}
	got := selfTimes(spans)
	// root: 100 − |[10,60) ∪ [90,100)| = 100 − 60 = 40.
	want := []int64{40, 30, 20, 30, 10, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s self = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// TestReadSpansAddUp checks that a consistent read's mean self times add up
// to its mean duration: the children tile the root except for the
// application's own time, which is the root's self time.
func TestReadSpansAddUp(t *testing.T) {
	m := newMeanSelf()
	m.add(readSpans(1, readRec{start: 0, end: 300}, execRecord{enter: 120, gtodEnd: 200, exit: 210}))
	m.add(readSpans(2, readRec{start: 1000, end: 1200}, execRecord{enter: 1050, gtodEnd: 1100, exit: 1101}))
	sum := m.meanUS("rpc.request") + m.meanUS("core.gettimeofday") + m.meanUS("rpc.reply") + m.meanUS("ccs.invoke")
	if d := m.meanDurUS("ccs.invoke"); math.Abs(sum-d) > 1e-12 || d != 0.25 {
		t.Fatalf("self times sum to %v µs, root mean %v µs", sum, d)
	}
	if got := m.meanUS("ccs.invoke"); math.Abs(got-0.0055) > 1e-12 {
		t.Fatalf("unattributed = %v µs, want 0.0055", got)
	}
}

// TestCPUSharesInnermostRepoFrame feeds a hand-encoded profile: one sample
// whose leaf is a syscall under udptransport, one inlined timeserve frame
// under the benchmark, and one with no repository frame.
func TestCPUSharesInnermostRepoFrame(t *testing.T) {
	var p []byte
	str := []string{"", "syscall.Syscall6", "cts/internal/udptransport.(*Transport).writeTo",
		"cts/internal/timeserve.ParseResponse", "main.openLoop.func2", "runtime.gcBgMarkWorker"}
	for _, s := range str {
		p = field(p, 6, []byte(s))
	}
	for id := 1; id <= 5; id++ {
		p = field(p, 5, append(varint(nil, 1<<3, uint64(id)), varint(nil, 2<<3, uint64(id))...))
	}
	loc := func(id uint64, fns ...uint64) {
		b := varint(nil, 1<<3, id)
		for _, f := range fns {
			b = field(b, 4, varint(nil, 1<<3, f))
		}
		p = field(p, 4, b)
	}
	loc(1, 1)    // syscall.Syscall6
	loc(2, 2)    // udptransport writeTo
	loc(3, 3, 4) // ParseResponse inlined into the benchmark
	loc(4, 5)    // GC worker
	smp := func(value uint64, locs ...uint64) {
		var b []byte
		for _, l := range locs {
			b = varint(b, 1<<3, l)
		}
		b = varint(b, 2<<3, 1)
		b = varint(b, 2<<3, value)
		p = field(p, 2, b)
	}
	smp(50, 1, 2)
	smp(30, 3)
	smp(20, 4)
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	w.Write(p)
	w.Close()
	shares, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if shares["udptransport"] != 0.5 || shares["timeserve"] != 0.3 || shares["runtime"] != 0.2 || shares["bench"] != 0 {
		t.Fatalf("shares = %v", shares)
	}
}

func varint(b []byte, key, v uint64) []byte {
	b = binary.AppendUvarint(b, key)
	return binary.AppendUvarint(b, v)
}

func field(b []byte, num uint64, payload []byte) []byte {
	b = binary.AppendUvarint(b, num<<3|2)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	return append(b, payload...)
}
