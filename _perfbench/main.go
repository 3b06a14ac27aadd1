// Command perfbench is the repository benchmark: it runs one named workload
// against the shipped code, checks every reading it receives, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the last
// line of its output. See README.md for the workloads and metrics.
//
//	perfbench -workload ccs-read -seed 1 -seconds 10 -trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the parsed flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string // directory for spans and run records
	commit   string
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (see README.md)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for arrival times and campaign cells")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints per-layer metrics")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "perfbench"), "directory for spans and run records")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision recorded with the run")
	flag.Parse()
	o.trace = trace == 1
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run hands back: the counts, the metric values
// by name, the oracle's witnesses and details for the run record.
type outcome struct {
	attempted, failed uint64
	values            map[string]float64
	witnesses         []witness
	violations        uint64
	detail            map[string]any
}

func run(o options) error {
	if o.seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	host0, steal0 := hostTicks()
	var out *outcome
	var err error
	switch o.workload {
	case "ccs-read", "lease-open", "mixed":
		out, err = runSocket(o)
	case "ccs-sim":
		out, err = runCCSSim(o)
	case "campaign-300":
		out, err = runCampaign(o)
	default:
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if err != nil {
		return err
	}
	host1, steal1 := hostTicks()
	env := environment(o)
	if host1 > host0 {
		env["steal_fraction"] = float64(steal1-steal0) / float64(host1-host0)
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := result{
		Correct:   out.violations == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			return fmt.Errorf("workload %s produced no %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for _, w := range out.witnesses {
		fmt.Fprintln(os.Stderr, "perfbench: VIOLATION", w)
	}
	rec := map[string]any{
		"workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": o.trace,
		"env": env, "violations": out.violations, "witnesses": out.witnesses,
		"detail": out.detail, "result": res,
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fmt.Printf("run %s\n", line)
	if err := writeRecord(o, line); err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// environment records the machine and build the run measured.
func environment(o options) map[string]any {
	return map[string]any{
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     o.commit,
		"seed":       o.seed,
		"orderer":    "totem",
		"time":       time.Now().UTC().Format(time.RFC3339),
	}
}

func writeRecord(o options, line []byte) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("run-%s-%d-trace%v.json", o.workload, o.seed, o.trace)
	return os.WriteFile(filepath.Join(o.out, name), append(line, '\n'), 0o644)
}
