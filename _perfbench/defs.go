package main

// workloadDef names one workload and why it is in the benchmark.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDef declares one metric the benchmark prints. Bound is set only for
// end-to-end metrics: the share of the parent's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// workloads are the benchmark's workloads, the ones BENCHMARK.json lists.
var workloads = []workloadDef{
	{"ccs-sim", "Figure 5's closed-loop CurrentTime reads through rpc, replication, the CCS round, gcs and Totem on the simulated LAN, in virtual time, timed in process CPU"},
	{"campaign-300", "campaign.Run on the churn-storm scenario at 300 nodes in virtual time: sim kernel, simnet, instant orderer, gcs delivery and the campaign oracle, no sockets"},
}

// heldBack are the socket workloads: the program runs them, but they stay
// out of BENCHMARK.json until ten-run sets of them are correct and steady
// (see README.md). On a 2-vCPU machine the shipped code loses the Totem
// token about once a second under their load, and the re-formations bring
// out its known defects.
var heldBack = []workloadDef{
	{"ccs-read", "one closed-loop caller of CurrentTime over UDP: Figure 5 on real sockets; rpc, replication, the CCS round, gcs, totem and udptransport work, timeserve idles"},
	{"lease-open", "open-loop leased bursts (8x8 queries) at 200k queries/s with Poisson arrivals: timeserve, LeaseRead and batched kernel I/O work, CCS only refreshes"},
	{"mixed", "lease-open's leased load plus ccs-read's caller, reporting the consistent read: shows lease publication on adoption and CCS competing with serving"},
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"ops_per_s", "1/s", "higher", bound(0.25)},
	{"p50_us", "us", "lower", bound(0.25)},
	{"p90_us", "us", "lower", bound(0.25)},
	{"cpu_us_per_op", "us", "lower", bound(0.25)},
}

// perLayer lists the traced run's metrics. Every traced run prints all of
// them; a layer the workload does not run reads 0.
var perLayer = append([]metricDef{
	{"timeserve.syscalls_per_query", "count", "lower", nil},
	{"timeserve.queries_per_drain", "count", "higher", nil},
	{"timeserve.stale_rejected_ratio", "ratio", "lower", nil},
	{"timeserve.drops", "count", "lower", nil},
	{"core.lease_read_ns", "ns", "lower", nil},
	{"core.lease_read_par_ns", "ns", "lower", nil},
	{"core.lease_published_per_s", "1/s", "higher", nil},
	{"core.gettimeofday_us", "us", "lower", nil},
	{"core.gettimeofday_us_p50", "us", "lower", nil},
	{"core.gettimeofday_us_p99", "us", "lower", nil},
	{"core.ccs_sent_per_read", "count", "lower", nil},
	{"core.monotonicity_fixes", "count", "lower", nil},
	{"ccs.invoke_us", "us", "lower", nil},
	{"rpc.request_us", "us", "lower", nil},
	{"rpc.reply_us", "us", "lower", nil},
	{"ccs.unattributed_us", "us", "lower", nil},
	{"rpc.retries", "count", "lower", nil},
	{"rpc.timeouts", "count", "lower", nil},
	{"totem.tokens_per_s", "1/s", "lower", nil},
	{"ring.idle_cores", "cores", "lower", nil},
	{"totem.token_losses_per_min", "1/min", "lower", nil},
	{"totem.memberships_per_min", "1/min", "lower", nil},
	{"gcs.multicasts_per_read", "count", "lower", nil},
	{"udptransport.sends_per_read", "count", "lower", nil},
	{"udptransport.bytes_per_read", "bytes", "lower", nil},
	{"udptransport.send_ns", "ns", "lower", nil},
	{"sim.loop_lag_us_p50", "us", "lower", nil},
	{"sim.loop_lag_us_p99", "us", "lower", nil},
	{"campaign.rounds_per_cpu_s", "1/s", "higher", nil},
	{"campaign.samples_per_cpu_s", "1/s", "higher", nil},
	{"lease.p50_us", "us", "lower", nil},
	{"lease.p99_us", "us", "lower", nil},
	{"gen.late_p99_us", "us", "lower", nil},
	{"go.allocs_per_op", "count", "lower", nil},
	{"go.gc_cpu_fraction", "ratio", "lower", nil},
	{"go.gc_pause_p99_us", "us", "lower", nil},
	{"mem.peak_live_mb", "MiB", "lower", nil},
	{"mem.peak_held_mb", "MiB", "lower", nil},
	{"p99_us", "us", "lower", nil},
	{"trace.overhead_p50_us", "us", "lower", nil},
}, shareDefs()...)

func shareDefs() []metricDef {
	var out []metricDef
	for _, m := range shareModules {
		out = append(out, metricDef{"cpu_share." + m, "ratio", "lower", nil})
	}
	return out
}
