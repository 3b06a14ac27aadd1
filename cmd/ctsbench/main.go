// Command ctsbench regenerates every table and figure of the paper's
// evaluation (§4) on the simulated testbed, plus the extension experiments
// indexed in DESIGN.md. Experiments run in virtual time, so even the
// paper-scale runs (-full, 10,000 invocations) finish quickly.
//
// Usage:
//
//	ctsbench -exp all            # every experiment, scaled-down sizes
//	ctsbench -exp fig5 -full     # Figure 5 at the paper's 10,000 invocations
//	ctsbench -exp fig6 -seed 7   # Figure 6 with a different seed
//
// Experiments: fig1, fig5, fig5concurrent (-readers N), fig6 (6a/6b/6c),
// msgcounts, rollback, recovery, drift, token, scale, ablation, all.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"cts"
	"cts/internal/campaign"
	"cts/internal/experiment"
	"cts/internal/stats"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment to run (fig1|fig5|fig5concurrent|fig6|msgcounts|rollback|recovery|drift|token|scale|ablation|federation|all)")
		seed    = flag.Int64("seed", 2003, "simulation seed")
		full    = flag.Bool("full", false, "run at the paper's full sizes (10,000 invocations)")
		trace   = flag.String("trace", "fig5.trace.jsonl", "write the fig5 CCS round trace to this file as JSON lines (empty disables)")
		jsonOut = flag.String("json", "BENCH_fig5.json", "write the fig5 latency summary to this file as JSON (empty disables)")
		readers = flag.Int("readers", 8, "concurrent reader threads per replica for the concurrent experiment")
		jsonCon = flag.String("jsonConcurrent", "BENCH_fig5_concurrent.json", "write the concurrent-reader summary to this file as JSON (empty disables)")
		jsonFed = flag.String("jsonFederation", "BENCH_federation.json", "write the federation sweep to this file as JSON (empty disables)")
	)
	flag.Parse()

	if err := run(*exp, *seed, *full, *trace, *jsonOut, *readers, *jsonCon, *jsonFed); err != nil {
		fmt.Fprintln(os.Stderr, "ctsbench:", err)
		os.Exit(1)
	}
}

// latencySummary is one JSON latency record of the fig5 benchmark file.
type latencySummary struct {
	N      int     `json:"n"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P99US  float64 `json:"p99_us"`
	P999US float64 `json:"p999_us"`
}

func summarize(d *stats.Durations) latencySummary {
	us := func(v time.Duration) float64 { return float64(v) / float64(time.Microsecond) }
	return latencySummary{
		N:      d.N(),
		MeanUS: us(d.Mean()),
		P50US:  us(d.Percentile(50)),
		P99US:  us(d.Percentile(99)),
		P999US: us(d.Percentile(99.9)),
	}
}

// writeFig5JSON exports the Figure 5 latency distributions for CI tracking.
func writeFig5JSON(path string, seed int64, invocations int, res *experiment.Figure5Result) error {
	out := struct {
		Experiment  string         `json:"experiment"`
		Seed        int64          `json:"seed"`
		Invocations int            `json:"invocations"`
		With        latencySummary `json:"with_cts"`
		Without     latencySummary `json:"without_cts"`
		OverheadUS  float64        `json:"overhead_us"`
	}{
		Experiment:  "fig5",
		Seed:        seed,
		Invocations: invocations,
		With:        summarize(&res.With),
		Without:     summarize(&res.Without),
		OverheadUS:  float64(res.Overhead()) / float64(time.Microsecond),
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// concurrentRun pairs the multi-reader measurement with its single-reader
// baseline for rendering, JSON export and the CI amortization gate.
type concurrentRun struct {
	multi, single *experiment.Figure5ConcurrentResult
}

// ratio is the amortization ratio: concurrent per-read overhead over the
// single-reader per-read overhead (lower is better; 1/readers is ideal).
func (c *concurrentRun) ratio() float64 {
	base := c.single.PerReadOverhead()
	if base <= 0 {
		return 1
	}
	return float64(c.multi.PerReadOverhead()) / float64(base)
}

func (c *concurrentRun) Render() string {
	var b strings.Builder
	b.WriteString(c.multi.Render())
	b.WriteString(c.single.Render())
	fmt.Fprintf(&b, "  amortization ratio (concurrent/single per-read overhead): %.3f\n", c.ratio())
	return b.String()
}

// gate enforces the CI smoke thresholds: concurrent reads must actually
// coalesce, and the amortized per-read overhead must be at most half the
// single-reader overhead.
func (c *concurrentRun) gate() error {
	if c.multi.RoundsCoalesced == 0 || c.multi.BatchesSent == 0 {
		return fmt.Errorf("no round coalescing under %d concurrent readers (coalesced=%d batches=%d)",
			c.multi.Readers, c.multi.RoundsCoalesced, c.multi.BatchesSent)
	}
	if c.multi.Readers >= 2 && c.ratio() > 0.5 {
		return fmt.Errorf("per-read overhead %v with %d readers is more than half the single-reader overhead %v",
			c.multi.PerReadOverhead(), c.multi.Readers, c.single.PerReadOverhead())
	}
	return nil
}

// writeConcurrentJSON exports the concurrent-reader measurement for CI
// tracking.
func writeConcurrentJSON(path string, seed int64, c *concurrentRun) error {
	us := func(v time.Duration) float64 { return float64(v) / float64(time.Microsecond) }
	type side struct {
		Readers           int     `json:"readers"`
		OpsPerReader      int     `json:"ops_per_reader"`
		WallWithUS        float64 `json:"wall_with_cts_us"`
		WallWithoutUS     float64 `json:"wall_without_cts_us"`
		PerReadOverheadUS float64 `json:"per_read_overhead_us"`
	}
	mk := func(r *experiment.Figure5ConcurrentResult) side {
		return side{
			Readers:           r.Readers,
			OpsPerReader:      r.OpsPerReader,
			WallWithUS:        us(r.WallWith),
			WallWithoutUS:     us(r.WallWithout),
			PerReadOverheadUS: us(r.PerReadOverhead()),
		}
	}
	out := struct {
		Experiment        string  `json:"experiment"`
		Seed              int64   `json:"seed"`
		Concurrent        side    `json:"concurrent"`
		Single            side    `json:"single_reader"`
		AmortizationRatio float64 `json:"amortization_ratio"`
		RoundsCoalesced   uint64  `json:"rounds_coalesced"`
		BatchesSent       uint64  `json:"batches_sent"`
		BatchEntries      uint64  `json:"batch_entries"`
		CCSSent           uint64  `json:"ccs_sent"`
	}{
		Experiment:        "fig5_concurrent",
		Seed:              seed,
		Concurrent:        mk(c.multi),
		Single:            mk(c.single),
		AmortizationRatio: c.ratio(),
		RoundsCoalesced:   c.multi.RoundsCoalesced,
		BatchesSent:       c.multi.BatchesSent,
		BatchEntries:      c.multi.BatchEntries,
		CCSSent:           c.multi.CCSSent,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// withSummary appends an observability summary to an experiment's rendering.
type withSummary struct {
	inner interface{ Render() string }
	extra string
}

func (w withSummary) Render() string { return w.inner.Render() + w.extra }

// metricsSummary renders the gathered stack-wide counters, aggregated across
// nodes, sorted by name.
func metricsSummary(samples []cts.Sample) string {
	m := cts.SampleMap(samples)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("\nstack metrics (summed across nodes):\n")
	for _, name := range names {
		fmt.Fprintf(&b, "  %-28s %d\n", name, m[name])
	}
	return b.String()
}

// runFig5Traced runs Figure 5 with the observability layer on, exporting the
// round trace as JSON lines and appending a metrics summary to the result.
func runFig5Traced(seed int64, invocations int, traceFile string) (interface{ Render() string }, error) {
	f, err := os.Create(traceFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sink, err := cts.NewJSONLinesSink(f)
	if err != nil {
		return nil, err
	}
	res, err := experiment.RunFigure5Traced(seed, invocations, sink)
	if err != nil {
		return nil, err
	}
	if err := sink.Flush(); err != nil {
		return nil, fmt.Errorf("flush trace: %w", err)
	}
	extra := metricsSummary(res.Metrics) +
		fmt.Sprintf("trace: %d events -> %s\n", sink.Count(), traceFile)
	return withSummary{inner: res, extra: extra}, nil
}

// writeFederationJSON exports the federation sweep for CI tracking. Every
// cell carries its own pass/fail verdict and failure list, so the file is
// self-gating: a regression shows up as pass=false, never as silently
// missing coverage.
func writeFederationJSON(path string, fed *experiment.FederationSweepResult) error {
	out := struct {
		Experiment string               `json:"experiment"`
		Seed       int64                `json:"seed"`
		Cells      []campaign.FedResult `json:"cells"`
	}{Experiment: "federation", Seed: fed.Seed, Cells: fed.Cells}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func run(exp string, seed int64, full bool, trace, jsonOut string, readers int, jsonCon, jsonFed string) error {
	invocations := 1000
	ops := 1000
	readsPer := 25
	if full {
		invocations = 10000
		ops = 10000
		readsPer = 100
	}
	var fig5 *experiment.Figure5Result
	var conc *concurrentRun
	var fed *experiment.FederationSweepResult

	type runner struct {
		name string
		fn   func() (interface{ Render() string }, error)
	}
	runners := []runner{
		{"fig1", func() (interface{ Render() string }, error) {
			return experiment.RunFigure1(seed, min(ops, 2000))
		}},
		{"fig5", func() (interface{ Render() string }, error) {
			if trace == "" {
				res, err := experiment.RunFigure5(seed, invocations)
				fig5 = res
				return res, err
			}
			res, err := runFig5Traced(seed, invocations, trace)
			if w, ok := res.(withSummary); ok {
				fig5 = w.inner.(*experiment.Figure5Result)
			}
			return res, err
		}},
		{"fig5concurrent", func() (interface{ Render() string }, error) {
			multi, err := experiment.RunFigure5Concurrent(seed, readers, readsPer)
			if err != nil {
				return nil, err
			}
			single, err := experiment.RunFigure5Concurrent(seed, 1, readsPer)
			if err != nil {
				return nil, err
			}
			conc = &concurrentRun{multi: multi, single: single}
			return conc, nil
		}},
		{"fig6", func() (interface{ Render() string }, error) {
			return experiment.RunFigure6(seed, ops, 20)
		}},
		{"msgcounts", func() (interface{ Render() string }, error) {
			return experiment.RunMessageCounts(seed, ops)
		}},
		{"rollback", func() (interface{ Render() string }, error) {
			return experiment.RunRollback(seed, -5*time.Second)
		}},
		{"recovery", func() (interface{ Render() string }, error) {
			return experiment.RunRecovery(seed, 200*time.Second)
		}},
		{"drift", func() (interface{ Render() string }, error) {
			return experiment.RunDrift(seed, min(ops, 2000))
		}},
		{"token", func() (interface{ Render() string }, error) {
			return experiment.RunTokenTiming(seed, min(invocations, 5000))
		}},
		{"scale", func() (interface{ Render() string }, error) {
			return experiment.RunScaling(seed, []int{2, 4, 8, 12, 16}, 200)
		}},
		{"ablation", func() (interface{ Render() string }, error) {
			return experiment.RunCCSAblation(seed, min(invocations, 2000))
		}},
		{"federation", func() (interface{ Render() string }, error) {
			res, err := experiment.RunFederationSweep(seed)
			fed = res
			return res, err
		}},
	}

	aliases := map[string]string{"fig6a": "fig6", "fig6b": "fig6", "fig6c": "fig6"}
	if canonical, ok := aliases[exp]; ok {
		exp = canonical
	}

	matched := false
	for _, r := range runners {
		if exp != "all" && exp != r.name {
			continue
		}
		matched = true
		start := time.Now()
		res, err := r.fn()
		if err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
		fmt.Printf("=== %s (seed %d, %v wall) ===\n%s\n", r.name, seed,
			time.Since(start).Round(time.Millisecond), res.Render())
	}
	if !matched {
		names := make([]string, 0, len(runners)+len(aliases)+1)
		for _, r := range runners {
			names = append(names, r.name)
		}
		for alias := range aliases {
			names = append(names, alias)
		}
		sort.Strings(names)
		names = append(names, "all")
		if exp == "" {
			return fmt.Errorf("no experiment given; available: %s", strings.Join(names, ", "))
		}
		return fmt.Errorf("unknown experiment %q; available: %s", exp, strings.Join(names, ", "))
	}
	if fig5 != nil && jsonOut != "" {
		if err := writeFig5JSON(jsonOut, seed, invocations, fig5); err != nil {
			return fmt.Errorf("write %s: %w", jsonOut, err)
		}
		fmt.Printf("fig5 latency summary -> %s\n", jsonOut)
	}
	if conc != nil {
		if jsonCon != "" {
			if err := writeConcurrentJSON(jsonCon, seed, conc); err != nil {
				return fmt.Errorf("write %s: %w", jsonCon, err)
			}
			fmt.Printf("fig5 concurrent summary -> %s\n", jsonCon)
		}
		if err := conc.gate(); err != nil {
			return fmt.Errorf("fig5concurrent gate: %w", err)
		}
	}
	if fed != nil {
		if jsonFed != "" {
			if err := writeFederationJSON(jsonFed, fed); err != nil {
				return fmt.Errorf("write %s: %w", jsonFed, err)
			}
			fmt.Printf("federation sweep -> %s\n", jsonFed)
		}
		if err := fed.Gate(); err != nil {
			return fmt.Errorf("federation gate: %w", err)
		}
	}
	return nil
}
