package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"time"

	"cts/internal/campaign"
)

const (
	// campaignNodes is the cell size of the campaign-300 workload.
	campaignNodes = 300
	// campaignSetups is how many primed cells set-up time is the median of.
	campaignSetups = 9
)

// cellRun is one measured campaign cell.
type cellRun struct {
	cpu     int64 // process CPU ns the cell took
	virtual float64
	res     campaign.Result
}

// runCampaign runs churn-storm cells at 300 nodes, each seeded from the run
// seed, timing each in process CPU time; every cell must pass its gates.
func runCampaign(o options) (*outcome, error) {
	var sc campaign.Scenario
	for _, s := range campaign.Builtin() {
		if s.Name == "churn-storm" {
			sc = s
		}
	}
	if sc.Name == "" {
		return nil, fmt.Errorf("no churn-storm scenario")
	}
	out := &outcome{values: map[string]float64{}, detail: map[string]any{}}
	// Setup: build and prime a fault-free cell and run it for two refresh
	// intervals, the shortest cell whose gates can pass: the first sample
	// pass sets the floors, the second checks against them.
	prime := sc
	prime.Name = "churn-storm-prime"
	prime.Faults = nil
	prime.Duration = 4 * time.Millisecond
	var setups []float64
	for i := 0; i < campaignSetups; i++ {
		t0 := now()
		res, err := campaign.Run(prime, campaignNodes, o.seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
		gateCell(res, out)
	}
	out.detail["setups_s"] = setups
	out.values["setup_s"] = median(append([]float64(nil), setups...))

	seeds := o.seed * 1000
	cells := func(d time.Duration) ([]cellRun, *span, error) {
		var runs []cellRun
		sp := beginSpan()
		end := now() + int64(d)
		for len(runs) == 0 || now() < end {
			c0 := cpuNow()
			res, err := campaign.Run(sc, campaignNodes, seeds)
			seeds++
			if err != nil {
				sp.end()
				return nil, nil, err
			}
			runs = append(runs, cellRun{cpu: cpuNow() - c0, virtual: sc.Duration.Seconds() * campaignNodes, res: res})
			gateCell(res, out)
		}
		return runs, sp.end(), nil
	}
	total := time.Duration(o.seconds) * time.Second
	if !o.trace {
		runs, sp, err := cells(total)
		if err != nil {
			return nil, err
		}
		campaignEndToEnd(runs, sp, out)
		return out, nil
	}
	plain, _, err := cells(total / 3)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	runs, sp, err := cells(total - total/3)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	campaignEndToEnd(runs, sp, out)
	campaignPerLayer(plain, runs, sp, prof.Bytes(), out)
	return out, nil
}

// gateCell records a cell's gate failures as violations.
func gateCell(res campaign.Result, out *outcome) {
	out.attempted++
	if res.Pass {
		return
	}
	out.failed++
	out.violations++
	for _, f := range res.Failures {
		if len(out.witnesses) < maxWitnesses {
			out.witnesses = append(out.witnesses, witness{Check: fmt.Sprintf("campaign %s/%d seed %d: %s", res.Scenario, res.Nodes, res.Seed, f)})
		}
	}
}

func cellCPUs(runs []cellRun) []int64 {
	xs := make([]int64, len(runs))
	for i, r := range runs {
		xs[i] = r.cpu
	}
	return xs
}

func campaignEndToEnd(runs []cellRun, sp *span, out *outcome) {
	var virtual, cpu float64
	for _, r := range runs {
		virtual += r.virtual
		cpu += float64(r.cpu) / 1e9
	}
	out.values["ops_per_s"] = virtual / cpu
	out.values["p50_us"] = float64(quantile(cellCPUs(runs), 0.5)) / 1e3
	out.values["p90_us"] = float64(quantile(cellCPUs(runs), 0.9)) / 1e3
	out.values["cpu_us_per_op"] = float64(sp.cpu) / 1e3 / float64(len(runs))
	out.detail["cells"] = len(runs)
}

func campaignPerLayer(plain, runs []cellRun, sp *span, prof []byte, out *outcome) {
	v := out.values
	for _, d := range perLayer {
		v[d.Name] = 0 // the socket layers do not run here
	}
	sp.memMB(out)
	var rounds, samples, fixes uint64
	var cpu float64
	for _, r := range runs {
		rounds += r.res.Metrics.Rounds
		samples += r.res.Metrics.Samples
		fixes += r.res.Metrics.MonotonicityFixes
		cpu += float64(r.cpu) / 1e9
	}
	v["campaign.rounds_per_cpu_s"] = float64(rounds) / cpu
	v["campaign.samples_per_cpu_s"] = float64(samples) / cpu
	v["core.monotonicity_fixes"] = float64(fixes)
	v["go.allocs_per_op"] = float64(sp.allocs) / float64(len(runs))
	v["go.gc_cpu_fraction"] = sp.gcCPU
	v["go.gc_pause_p99_us"] = sp.pauseP99
	v["p99_us"] = float64(quantile(cellCPUs(runs), 0.99)) / 1e3
	v["trace.overhead_p50_us"] = float64(quantile(cellCPUs(runs), 0.5)-quantile(cellCPUs(plain), 0.5)) / 1e3
	fillShares(prof, v)
}
