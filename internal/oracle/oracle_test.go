package oracle

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"cts/internal/testutil"
)

// reading is one check in a sequential scenario, taken in its own sample
// pass; want and wantFloor are the expected violation.
type reading struct {
	group, node uint32
	g, b        time.Duration
	want        Kind
	wantFloor   time.Duration
}

func TestCheckSequential(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reads []reading
	}{
		{"stale reading flagged", []reading{
			{0, 1, 100, 10, 0, 0},
			{0, 2, 80, 5, Stale, 90}, // 85 < floor 100−10
		}},
		{"G+B equal to the floor is kept", []reading{
			{0, 1, 100, 10, 0, 0},
			{0, 2, 80, 10, 0, 0}, // 90 == floor 90
		}},
		{"regression below the highest G", []reading{
			{0, 1, 10, 100, 0, 0},
			{0, 1, 5, 100, Regressed, 10},
			{0, 1, 7, 100, Regressed, 10}, // below 10 still, though above 5
			{0, 1, 10, 100, 0, 0},
		}},
		{"stale and regressed at once", []reading{
			{0, 1, 100, 10, 0, 0},
			{0, 1, 50, 10, Stale | Regressed, 90},
		}},
		{"same node id in two groups does not collide", []reading{
			{1, 1, 100, 200, 0, 0},
			{2, 1, 50, 200, 0, 0},
			{1, 1, 99, 200, Regressed, 100},
			{2, 1, 49, 200, Regressed, 50},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := New()
			var s Snapshot
			var want [2]uint64
			for i, r := range tc.reads {
				o.Snapshot(&s)
				k := o.Key(r.group, r.node)
				v := o.Check(k, r.g, r.b, &s)
				if v.Kind != r.want {
					t.Fatalf("read %d (%d,%d) G=%v B=%v: kind %v, want %v", i, r.group, r.node, r.g, r.b, v.Kind, r.want)
				}
				if r.want == 0 {
					if v != (Violation{}) {
						t.Fatalf("read %d: kept reading returned %+v, want the zero value", i, v)
					}
					continue
				}
				deficit := r.wantFloor - r.g
				if r.want&Stale != 0 {
					deficit -= r.b
					want[0]++
				}
				if r.want&Regressed != 0 {
					want[1]++
				}
				if v.Key != k || v.G != r.g || v.B != r.b || v.Floor != r.wantFloor || v.Deficit != deficit {
					t.Fatalf("read %d: got %+v, want key %d floor %v deficit %v", i, v, k, r.wantFloor, deficit)
				}
			}
			if st, rg := o.Counts(); st != want[0] || rg != want[1] {
				t.Fatalf("Counts() = %d stale, %d regressed, want %d, %d", st, rg, want[0], want[1])
			}
		})
	}
}

// TestFloorAfterSnapshotDoesNotBind: a reading completed after the
// snapshot may have been generated after ours, so neither its G−B nor its
// G may bind a reading checked against that snapshot.
func TestFloorAfterSnapshotDoesNotBind(t *testing.T) {
	o := New()
	a, b := o.Key(0, 1), o.Key(0, 2)
	var early, late Snapshot
	o.Snapshot(&early)
	o.Snapshot(&late)
	if v := o.Check(a, 1000, 10, &late); v.Kind != 0 {
		t.Fatalf("first reading flagged: %+v", v)
	}
	if v := o.Check(a, 500, 10, &early); v.Kind != 0 {
		t.Fatalf("own floor recorded after the snapshot bound the reading: %+v", v)
	}
	if v := o.Check(b, 500, 10, &early); v.Kind != 0 {
		t.Fatalf("lower floor recorded after the snapshot bound the reading: %+v", v)
	}
	// A key first seen after the snapshot is not bound by it either.
	c := o.Key(0, 3)
	if v := o.Check(c, 1, 0, &early); v.Kind != 0 {
		t.Fatalf("key added after the snapshot was checked: %+v", v)
	}
	o.Snapshot(&late)
	if v := o.Check(b, 500, 10, &late); v.Kind != Stale {
		t.Fatalf("fresh snapshot: kind %v, want Stale", v.Kind)
	}
}

// TestCheckConcurrent runs GOMAXPROCS workers, each owning one key in its
// own group, against one shared staleness floor, and checks the exact
// violation counts. Run it under -race.
func TestCheckConcurrent(t *testing.T) {
	const (
		iters = 2000
		floor = 1000 // the only G−B above zero any reading folds
	)
	o := New()
	var s, none Snapshot
	o.Snapshot(&none) // taken before any floor: binds nothing
	if v := o.Check(o.Key(0, 0), floor, 0, &none); v.Kind != 0 {
		t.Fatalf("setup reading flagged: %+v", v)
	}
	shared := o.Key(0, 1)
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := o.Key(uint32(w+1), 1)
			var s Snapshot
			for i := 0; i < iters; i++ {
				g := time.Duration(floor + i)
				o.Snapshot(&s)
				if v := o.Check(k, g, g, &s); v.Kind != 0 {
					t.Errorf("worker %d read %d: honest reading flagged %+v", w, i, v)
					return
				}
				o.Check(shared, g+time.Duration(w), g, &none)
				if i%10 != 9 {
					continue
				}
				o.Snapshot(&s)
				if v := o.Check(k, g-5, g-5, &s); v.Kind != Regressed {
					t.Errorf("worker %d read %d: dip kind %v, want Regressed", w, i, v.Kind)
				}
				o.Snapshot(&s)
				if v := o.Check(k, 100, 100, &s); v.Kind != Stale|Regressed {
					t.Errorf("worker %d read %d: stale read kind %v, want Stale|Regressed", w, i, v.Kind)
				}
			}
		}(w)
	}
	wg.Wait()
	dips := uint64(workers * iters / 10)
	if st, rg := o.Counts(); st != dips || rg != 2*dips {
		t.Fatalf("Counts() = %d stale, %d regressed, want %d, %d", st, rg, dips, 2*dips)
	}
	top := time.Duration(floor + iters - 1 + workers - 1)
	o.Snapshot(&s)
	if v := o.Check(shared, top-1, top, &s); v.Kind != Regressed || v.Floor != top {
		t.Fatalf("shared key floor: %+v, want Regressed against %v", v, top)
	}
}

func TestCheckAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocs/op is perturbed by race-detector instrumentation")
	}
	o := New()
	k := o.Key(7, 3)
	var s Snapshot
	o.Snapshot(&s)
	g := time.Duration(0)
	allocs := testing.AllocsPerRun(1000, func() {
		g += time.Microsecond
		o.Snapshot(&s)
		o.Check(k, g, time.Microsecond, &s)
	})
	if allocs != 0 {
		t.Fatalf("Snapshot+Check allocate %.1f allocs/op, want 0", allocs)
	}
}
