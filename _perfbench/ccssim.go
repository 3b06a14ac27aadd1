package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"time"

	"cts/internal/campaign"
	"cts/internal/experiment"
	"cts/internal/obs"
	"cts/internal/replication"
	"cts/internal/rpc"
)

const (
	// simReads is how many consistent reads one ccs-sim cell makes.
	simReads = 500
	// simSetups is how many cells set-up time is the median of.
	simSetups = 15
)

// simClocks are the paper testbed's slightly disagreeing hardware clocks,
// as the Figure 5 experiment declares them.
var simClocks = []campaign.ClockSpec{
	{Offset: 0, DriftPPM: 12},
	{Offset: 3 * time.Millisecond, DriftPPM: -9},
	{Offset: -2 * time.Millisecond, DriftPPM: 21},
}

// simCell is one measured ccs-sim cell.
type simCell struct {
	cpu     int64 // process CPU ns of the cell's reads, set-up excluded
	reads   int
	samples map[string]uint64 // traced cells only
}

// newSimCluster builds Figure 5's deployment: three active replicas and the
// client on the simulated LAN under Totem, with the ring settled.
func newSimCluster(seed int64, observe bool) (*experiment.Cluster, error) {
	return experiment.NewCluster(experiment.ClusterConfig{
		Seed:     seed,
		Topology: campaign.Explicit(simClocks...),
		Style:    replication.Active,
		Mode:     experiment.ModeCTS,
		Observe:  observe,
	})
}

// runSimCell makes n closed-loop CurrentTime reads on c in virtual time,
// with Figure 5's seeded think time of up to 1ms between them, and checks
// every reading: strictly increasing for the caller, equal to what every
// replica computed for it, and no error. It returns the reads completed and
// the process CPU they took.
func runSimCell(c *experiment.Cluster, seed int64, n int, or *ccsOracle) (done int, cpu int64) {
	think := rand.New(rand.NewSource(seed + 77))
	got := make([]time.Duration, 0, n)
	var invoke func()
	invoke = func() {
		ord := uint64(len(got))
		c.Client.Invoke(experiment.MethodCurrentTime, nil, func(rep rpc.Reply) {
			v, err := simValue(rep)
			if !or.read(ord, rep.Replica, v, err) {
				v = -1
			}
			got = append(got, v)
			if len(got) < n {
				c.K.After(time.Duration(think.Intn(1000))*time.Microsecond, invoke)
			}
		})
	}
	c0 := cpuNow()
	invoke()
	c.RunUntil(time.Duration(n)*10*time.Millisecond+time.Second, func() bool { return len(got) >= n })
	cpu = cpuNow() - c0
	simAgreement(c, got, or)
	return len(got), cpu
}

// simValue decodes a CurrentTime reply.
func simValue(rep rpc.Reply) (time.Duration, error) {
	if rep.Err != nil {
		return 0, rep.Err
	}
	return experiment.DecodeTimeval(rep.Body)
}

// simAgreement checks that every replica computed, for each read, the value
// the caller received: replicas execute the reads in order, so a replica's
// i-th reading is read i. The caller receives microseconds.
func simAgreement(c *experiment.Cluster, got []time.Duration, or *ccsOracle) {
	for id, app := range c.Apps {
		for i, v := range app.Readings {
			if i < len(got) && got[i] >= 0 {
				or.agree(uint64(i), 0, int64(got[i]), int(id), int64(v.Truncate(time.Microsecond)))
			}
		}
	}
}

// runCCSSim runs ccs-sim cells, each a fresh deployment seeded from the run
// seed, timing each cell's reads in process CPU time.
func runCCSSim(o options) (*outcome, error) {
	out := &outcome{values: map[string]float64{}, detail: map[string]any{}}
	seeds := o.seed * 1000
	// Setup: build the deployment and complete its first consistent read.
	var setups []float64
	for i := 0; i < simSetups; i++ {
		t0 := now()
		c, err := newSimCluster(seeds, false)
		if err != nil {
			return nil, err
		}
		cellOr := newCCSOracle()
		if done, _ := runSimCell(c, seeds, 1, cellOr); done != 1 {
			return nil, fmt.Errorf("ccs-sim: the first read of cell %d did not complete", seeds)
		}
		setups = append(setups, float64(now()-t0)/1e9)
		noteOracle(cellOr, out)
		seeds++
	}
	out.detail["setups_s"] = setups
	out.values["setup_s"] = median(append([]float64(nil), setups...))

	cells := func(d time.Duration, observe bool) ([]simCell, *span, error) {
		var runs []simCell
		sp := beginSpan()
		end := now() + int64(d)
		for len(runs) == 0 || now() < end {
			c, err := newSimCluster(seeds, observe)
			if err != nil {
				sp.end()
				return nil, nil, err
			}
			var before []obs.Sample
			if observe {
				before = c.Obs.Samples()
			}
			cellOr := newCCSOracle()
			done, cpu := runSimCell(c, seeds, simReads, cellOr)
			if done < simReads {
				cellOr.log.add(witness{Check: fmt.Sprintf("ccs-sim cell %d: %d of %d reads completed", seeds, done, simReads)})
			}
			out.attempted += simReads
			out.failed += min(simReads, uint64(simReads-done)+cellOr.log.count.Load())
			noteOracle(cellOr, out)
			cell := simCell{cpu: cpu, reads: done}
			if observe {
				cell.samples = sampleDelta(before, c.Obs.Samples())
			}
			runs = append(runs, cell)
			seeds++
		}
		return runs, sp.end(), nil
	}
	total := time.Duration(o.seconds) * time.Second
	if !o.trace {
		runs, sp, err := cells(total, false)
		if err != nil {
			return nil, err
		}
		simEndToEnd(runs, sp, out)
		return out, nil
	}
	plain, _, err := cells(total/3, false)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	runs, sp, err := cells(total-total/3, true)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	simEndToEnd(runs, sp, out)
	simPerLayer(plain, runs, sp, prof.Bytes(), out)
	return out, nil
}

// noteOracle folds one cell's oracle findings into the outcome.
func noteOracle(or *ccsOracle, out *outcome) {
	out.violations += or.log.count.Load()
	for _, w := range or.log.witnesses() {
		if len(out.witnesses) < maxWitnesses {
			out.witnesses = append(out.witnesses, w)
		}
	}
}

// sampleDelta is after − before by counter name.
func sampleDelta(before, after []obs.Sample) map[string]uint64 {
	b := obs.SampleMap(before)
	d := make(map[string]uint64)
	for name, v := range obs.SampleMap(after) {
		d[name] = v - b[name]
	}
	return d
}

// simPerRead is each cell's process CPU µs per read.
func simPerRead(runs []simCell) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = float64(r.cpu) / 1e3 / float64(max(r.reads, 1))
	}
	return xs
}

func simEndToEnd(runs []simCell, sp *span, out *outcome) {
	var reads, cpu float64
	for _, r := range runs {
		reads += float64(r.reads)
		cpu += float64(r.cpu) / 1e9
	}
	per := simPerRead(runs)
	out.values["ops_per_s"] = reads / cpu
	out.values["p50_us"] = quantileF(per, 0.5)
	out.values["p90_us"] = quantileF(per, 0.9)
	out.values["cpu_us_per_op"] = float64(sp.cpu) / 1e3 / reads
	out.detail["cells"] = len(runs)
	out.detail["reads"] = reads
}

func simPerLayer(plain, runs []simCell, sp *span, prof []byte, out *outcome) {
	v := out.values
	for _, d := range perLayer {
		v[d.Name] = 0 // the socket layers and the campaign do not run here
	}
	sp.memMB(out)
	sum := map[string]uint64{}
	var reads float64
	for _, r := range runs {
		for name, x := range r.samples {
			sum[name] += x
		}
		reads += float64(r.reads)
	}
	perRead := func(name string) float64 { return float64(sum[name]) / reads }
	v["core.ccs_sent_per_read"] = perRead("core.ccs_sent")
	v["core.monotonicity_fixes"] = float64(sum["core.monotonicity_fixes"])
	v["gcs.multicasts_per_read"] = perRead("gcs.multicasts")
	v["rpc.retries"] = float64(sum["rpc.retries"])
	v["rpc.timeouts"] = float64(sum["rpc.timeouts"])
	v["go.allocs_per_op"] = float64(sp.allocs) / reads
	v["go.gc_cpu_fraction"] = sp.gcCPU
	v["go.gc_pause_p99_us"] = sp.pauseP99
	v["p99_us"] = quantileF(simPerRead(runs), 0.99)
	v["trace.overhead_p50_us"] = quantileF(simPerRead(runs), 0.5) - quantileF(simPerRead(plain), 0.5)
	fillShares(prof, v)
}
