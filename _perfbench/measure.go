package main

import (
	"bufio"
	"math"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cpuNow is the process's user plus system CPU time in nanoseconds.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostTicks reads the aggregate CPU line of /proc/stat: total and steal
// ticks. Zeros where the file is unreadable.
func hostTicks() (total, steal uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, s := range fields[1:] {
		v, _ := strconv.ParseUint(s, 10, 64)
		if i < 8 { // user..steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// span brackets one measured interval: wall and process CPU time, Go
// allocations, GC CPU and pauses, the largest heap a collection found live
// while it ran, and the peak memory the runtime held from the OS.
type span struct {
	wall0, cpu0 int64
	wall, cpu   int64
	allocs      uint64
	gcCPU       float64 // share of the process CPU the GC used
	pauseP99    float64 // µs
	peakLive    uint64  // largest live heap at the end of a collection
	peakHeld    uint64

	// cpuAt samples the process CPU time every 50 ms: (clock ns, CPU ns).
	cpuAt [][2]int64

	m0   []metrics.Sample
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
}

var spanMetrics = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
	"/memory/classes/total:bytes",
	"/memory/classes/heap/released:bytes",
	"/gc/heap/live:bytes",
}

func readMetrics() []metrics.Sample {
	s := make([]metrics.Sample, len(spanMetrics))
	for i, n := range spanMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

// heldBytes is the memory the runtime holds from the OS: everything it
// mapped minus what it returned.
func heldBytes(s []metrics.Sample) uint64 {
	return s[4].Value.Uint64() - s[5].Value.Uint64()
}

// beginSpan starts measuring; a sampler goroutine tracks peak memory.
func beginSpan() *span {
	// Start every span from the same heap state, with the memory earlier
	// work freed returned to the OS, so the peak is the span's own.
	debug.FreeOSMemory()
	sp := &span{stop: make(chan struct{})}
	sp.m0 = readMetrics()
	sp.notePeak(sp.m0)
	sp.wall0, sp.cpu0 = now(), cpuNow()
	sp.cpuAt = append(sp.cpuAt, [2]int64{sp.wall0, sp.cpu0})
	sp.wg.Add(1)
	go func() {
		defer sp.wg.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-sp.stop:
				return
			case <-t.C:
				sp.notePeak(readMetrics())
				sp.noteCPU(now(), cpuNow())
			}
		}
	}()
	return sp
}

func (sp *span) noteCPU(t, cpu int64) {
	sp.mu.Lock()
	sp.cpuAt = append(sp.cpuAt, [2]int64{t, cpu})
	sp.mu.Unlock()
}

// cpuBetween is the process CPU time spent in [from, to), interpolated
// linearly between the 50 ms samples.
func (sp *span) cpuBetween(from, to int64) int64 { return sp.cpuAtTime(to) - sp.cpuAtTime(from) }

func (sp *span) cpuAtTime(t int64) int64 {
	s := sp.cpuAt
	i := sort.Search(len(s), func(i int) bool { return s[i][0] >= t })
	switch {
	case i == 0:
		return s[0][1]
	case i == len(s):
		return s[len(s)-1][1]
	}
	a, b := s[i-1], s[i]
	return a[1] + (b[1]-a[1])*(t-a[0])/max(b[0]-a[0], 1)
}

func (sp *span) notePeak(s []metrics.Sample) {
	sp.mu.Lock()
	sp.peakHeld = max(sp.peakHeld, heldBytes(s))
	sp.peakLive = max(sp.peakLive, s[6].Value.Uint64())
	sp.mu.Unlock()
}

// memMB sets the memory metrics: the largest live heap and the most memory
// held from the OS during the span.
func (sp *span) memMB(out *outcome) {
	out.values["mem.peak_live_mb"] = float64(sp.peakLive) / (1 << 20)
	out.values["mem.peak_held_mb"] = float64(sp.peakHeld) / (1 << 20)
}

// end closes the span and fills its results.
func (sp *span) end() *span {
	t1, c1 := now(), cpuNow()
	sp.wall, sp.cpu = t1-sp.wall0, c1-sp.cpu0
	m1 := readMetrics()
	close(sp.stop)
	sp.wg.Wait()
	sp.cpuAt = append(sp.cpuAt, [2]int64{t1, c1})
	sp.notePeak(m1)
	sp.allocs = m1[0].Value.Uint64() - sp.m0[0].Value.Uint64()
	if tot := m1[2].Value.Float64() - sp.m0[2].Value.Float64(); tot > 0 {
		sp.gcCPU = (m1[1].Value.Float64() - sp.m0[1].Value.Float64()) / tot
	}
	sp.pauseP99 = histDeltaQuantile(sp.m0[3].Value.Float64Histogram(), m1[3].Value.Float64Histogram(), 0.99) * 1e6
	return sp
}

// histDeltaQuantile is the q-quantile of the observations h1 gained over h0
// (the upper edge of the bucket holding it; 0 with no observations).
func histDeltaQuantile(h0, h1 *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	d := make([]uint64, len(h1.Counts))
	for i := range h1.Counts {
		d[i] = h1.Counts[i] - h0.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i, c := range d {
		acc += c
		if acc >= rank {
			if up := h1.Buckets[i+1]; !math.IsInf(up, 1) {
				return up
			}
			return h1.Buckets[i]
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by the nearest-rank method; xs is
// sorted in place.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// quantileF is quantile for floats; xs is sorted in place.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(rank, 0), len(xs)-1)]
}

// median of a float slice (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// windowed splits latencies into nwin equal windows of [from, to) by their
// start times and returns the median over windows of each window's
// q-quantile, in µs. Windows with fewer than minPerWindow samples are
// skipped; if every window is skipped the whole set is used.
func windowed(starts, lats []int64, from, to int64, nwin int, q float64) float64 {
	const minPerWindow = 20
	wins := make([][]int64, nwin)
	width := float64(to-from) / float64(nwin)
	for i, s := range starts {
		w := int(float64(s-from) / width)
		if w < 0 || w >= nwin {
			continue
		}
		wins[w] = append(wins[w], lats[i])
	}
	var per []float64
	for _, w := range wins {
		if len(w) >= minPerWindow {
			per = append(per, float64(quantile(w, q))/1e3)
		}
	}
	if len(per) == 0 {
		all := append([]int64(nil), lats...)
		return float64(quantile(all, q)) / 1e3
	}
	return median(per)
}
