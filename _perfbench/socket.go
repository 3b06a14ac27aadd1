package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

const (
	// leaseRate is the offered leased load in queries per second: about a
	// fifth of what the group serves closed-loop, so the replicas are not
	// driven into overload.
	leaseRate = 200_000
	// setupRounds is how many times a run builds the group; setup_s is the
	// median.
	setupRounds = 32
	// warmup runs the load unmeasured before the measured span.
	warmup = time.Second
	// windows splits the measured span for the p50/p90 medians.
	windows = 10
	// drain is how long the generator waits for replies after its last send.
	drain = 200 * time.Millisecond
	// maxReadRate sizes the consistent-read record buffers: reads past
	// maxReadRate per second of a phase are checked and counted but leave no
	// latency record. The buffers are allocated once, before any measured
	// span, so the benchmark's own records do not grow inside it.
	maxReadRate = 40_000
)

// socketRun is one socket workload in progress.
type socketRun struct {
	o       options
	ccs     bool
	lease   bool
	c       *cluster
	nextOrd uint64
	phases  int // generator phases run, for their seeds
	// Record buffers every phase reuses; see maxReadRate.
	reads  []readRec
	execs  []execRecord // traced runs only
	bursts []burst
	// setupLogs are the oracles' logs of the groups built for the setup
	// figure only; the groups themselves are dropped once stopped.
	setupLogs []*witnessLog
}

// phaseOut is one measured phase's load. Its records alias the run's
// buffers and are valid until the next phase starts.
type phaseOut struct {
	from, to int64
	first    uint64    // ordinal of reads[0]
	reads    []readRec // the recorded consistent reads
	execs    []execRecord
	// Consistent reads issued, passed and failed, recorded or not.
	readsN, readsOK, readsFailed uint64
	gen                          *genResult
	sp                           *span
	err                          error // the generator failed
}

func runSocket(o options) (*outcome, error) {
	r := &socketRun{o: o, nextOrd: 1,
		ccs:   o.workload != "lease-open",
		lease: o.workload != "ccs-read"}
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		runtime.GC() // the last group's garbage is not this one's set-up
		t0 := now()
		c, err := startCluster(o.trace)
		if err != nil {
			return nil, err
		}
		if err := c.waitReady(r.lease, 30*time.Second); err != nil {
			c.stop()
			return nil, err
		}
		setups = append(setups, float64(now()-t0)/1e9)
		if i < setupRounds-1 {
			c.stop()
			r.setupLogs = append(r.setupLogs, &c.ccs.log, &c.lease.log)
			continue
		}
		r.c = c
	}
	defer r.c.stop()
	total := time.Duration(o.seconds) * time.Second
	if r.ccs {
		r.reads = make([]readRec, 0, maxReadRate*o.seconds+1000)
		if o.trace {
			r.execs = make([]execRecord, 0, cap(r.reads))
		}
	}
	if r.lease {
		r.bursts = make([]burst, burstCapacity(total, leaseRate))
	}

	var idleCores float64
	if o.trace {
		sp := beginSpan()
		time.Sleep(time.Second)
		sp.end()
		idleCores = float64(sp.cpu) / float64(sp.wall)
	}
	if p := r.phase(warmup, false); p.err != nil {
		return nil, p.err
	}

	out := &outcome{values: map[string]float64{}, detail: map[string]any{"setups_s": setups}}
	out.values["setup_s"] = median(append([]float64(nil), setups...))
	if !o.trace {
		before := r.c.samples()
		p := r.phase(total, true)
		if p.err != nil {
			return nil, p.err
		}
		r.endToEnd(p, out)
		after := r.c.samples()
		for _, name := range []string{"totem.token_losses", "totem.memberships", "core.monotonicity_fixes", "rpc.retries"} {
			out.detail[name] = after[name] - before[name]
		}
	} else {
		plain := r.phase(total/3, true)
		if plain.err != nil {
			return nil, plain.err
		}
		_, plainLats := r.opLatencies(plain)
		plainP50 := quantile(plainLats, 0.5)
		traced, tv, err := r.tracedPhase(total - total/3)
		if err != nil {
			return nil, err
		}
		r.perLayer(plainP50, traced, tv, out)
		out.values["ring.idle_cores"] = idleCores
		r.endToEnd(traced, out)
	}
	time.Sleep(50 * time.Millisecond) // let every replica log its last execution
	r.verdict(out)
	return out, nil
}

// phase runs the workload's load for d. The caller runs on the client loop
// while the generator (if any) blocks this goroutine.
func (r *socketRun) phase(d time.Duration, measured bool) phaseOut {
	clear(r.bursts)
	var sp *span
	if measured {
		sp = beginSpan()
	}
	p := phaseOut{from: now(), first: r.nextOrd}
	p.to = p.from + int64(d)
	var k *ccsCaller
	if r.ccs {
		k = startCaller(r.c, r.nextOrd, r.reads, r.execs)
	}
	if r.lease {
		r.phases++
		p.gen, p.err = openLoop(genConfig{targets: r.c.ts, rate: leaseRate, seed: r.o.seed*7919 + int64(r.phases),
			start: p.from, end: p.to, drain: drain, bursts: r.bursts}, r.c.lease)
	} else {
		time.Sleep(time.Duration(p.to - now()))
	}
	if k != nil {
		k.finish()
		p.reads, p.execs = k.reads, k.execs
		p.readsN, p.readsOK, p.readsFailed = k.n, k.ok, k.failed
		r.nextOrd = k.next
	}
	if sp != nil {
		p.sp = sp.end()
	}
	return p
}

// traceVals are what the traced phase measured besides its load.
type traceVals struct {
	before, after map[string]uint64
	profile       []byte
	lags          []int64
	spans         *meanSelf
	gtod          []int64
	leaseNs       float64
	leaseParNs    float64
}

// tracedPhase runs the load for d with every probe on: counters before and
// after, the transport wrappers, a CPU profile, the loop-lag probe and
// spans; then the LeaseRead probe.
func (r *socketRun) tracedPhase(d time.Duration) (phaseOut, *traceVals, error) {
	tv := &traceVals{spans: newMeanSelf()}
	tv.before = r.c.samples()
	for _, ct := range r.c.counted {
		ct.on.Store(true)
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return phaseOut{}, nil, err
	}
	stopLag := make(chan struct{})
	var lagWG sync.WaitGroup
	var lagMu sync.Mutex
	lagWG.Add(1)
	go func() {
		defer lagWG.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-t.C:
				for _, l := range r.c.loops {
					posted := now()
					l.Post(func() {
						lag := now() - posted
						lagMu.Lock()
						tv.lags = append(tv.lags, lag)
						lagMu.Unlock()
					})
				}
			}
		}
	}()
	p := r.phase(d, true)
	close(stopLag)
	lagWG.Wait()
	pprof.StopCPUProfile()
	if p.err != nil {
		return p, nil, p.err
	}
	for _, ct := range r.c.counted {
		ct.on.Store(false)
	}
	// Every loop runs the probe posts queued before the samples below, so
	// tv.lags is complete once samples returns.
	tv.after = r.c.samples()
	tv.profile = prof.Bytes()

	var spans []traceSpan
	for i, rd := range p.reads {
		e := p.execs[i]
		if !rd.ok || e.value < 0 {
			continue
		}
		s := readSpans(p.first+uint64(i), rd, e)
		tv.spans.add(s)
		tv.gtod = append(tv.gtod, e.gtodEnd-e.enter)
		spans = append(spans, s...)
	}
	if p.gen != nil {
		for i := range p.gen.bursts {
			b := &p.gen.bursts[i]
			if b.left == 0 {
				spans = append(spans, traceSpan{ID: uint64(i), Name: "lease.exchange", Start: b.due, End: b.last})
			}
		}
	}
	if err := r.writeSpans(spans); err != nil {
		return p, nil, err
	}
	tv.leaseNs, tv.leaseParNs = r.leaseProbe()
	return p, tv, nil
}

func (r *socketRun) writeSpans(spans []traceSpan) error {
	if err := os.MkdirAll(r.o.out, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(r.o.out, fmt.Sprintf("spans-%s-%d.jsonl", r.o.workload, r.o.seed)))
	if err != nil {
		return err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// leaseProbe times Service.LeaseRead on one replica from one goroutine and
// from GOMAXPROCS goroutines; the second figure is wall time per read over
// all goroutines' reads.
func (r *socketRun) leaseProbe() (serial, parallel float64) {
	const n = 200_000
	svc := r.c.svcs[0]
	t0 := now()
	for i := 0; i < n; i++ {
		svc.LeaseRead()
	}
	serial = float64(now()-t0) / n
	procs := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	t0 = now()
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/procs; i++ {
				svc.LeaseRead()
			}
		}()
	}
	wg.Wait()
	parallel = float64(now()-t0) / float64(n/procs*procs)
	return serial, parallel
}

// opLatencies returns the reported operation's start times and latencies:
// consistent reads where the workload has a caller, else leased bursts.
func (r *socketRun) opLatencies(p phaseOut) (starts, lats []int64) {
	if r.ccs {
		for _, rd := range p.reads {
			if rd.ok {
				starts = append(starts, rd.start)
				lats = append(lats, rd.end-rd.start)
			}
		}
		return starts, lats
	}
	return p.gen.latencies()
}

// ops counts a phase's operations: consistent reads and leased queries that
// passed, and everything attempted and failed.
func (p phaseOut) ops() (readsOK, queriesOK, attempted, failed uint64) {
	readsOK, attempted, failed = p.readsOK, p.readsN, p.readsFailed
	if g := p.gen; g != nil {
		attempted += uint64(g.sent) * burstSize
		queriesOK = g.queries
		failed += g.refused + g.bad + g.lost
	}
	return
}

// endToEnd fills the end-to-end metrics from one measured phase.
func (r *socketRun) endToEnd(p phaseOut, out *outcome) {
	readsOK, queriesOK, attempted, failed := p.ops()
	out.attempted, out.failed = attempted, failed
	starts, lats := r.opLatencies(p)
	out.values["p50_us"] = windowed(starts, lats, p.from, p.to, windows, 0.5)
	out.values["p90_us"] = windowed(starts, lats, p.from, p.to, windows, 0.9)
	reported := queriesOK
	if r.ccs {
		reported = readsOK
	}
	out.values["ops_per_s"] = float64(reported) / (float64(p.to-p.from) / 1e9)
	cpuPerOp := r.windowedCPU(p)
	out.values["cpu_us_per_op"] = median(append([]float64(nil), cpuPerOp...))
	out.detail["window_cpu_us_per_op"] = cpuPerOp
	p.sp.memMB(out)
	out.detail["reads"] = readsOK
	out.detail["queries"] = queriesOK
	out.detail["cpu_cores"] = float64(p.sp.cpu) / float64(p.sp.wall)
	if g := p.gen; g != nil {
		out.detail["generator"] = map[string]any{
			"bursts": g.sent, "refused": g.refused, "bad": g.bad, "lost": g.lost,
			"strays": g.strays, "max_in_flight": g.maxQueue,
			"late_p50_us": float64(quantile(g.lateness(), 0.5)) / 1e3,
			"late_p99_us": float64(quantile(g.lateness(), 0.99)) / 1e3,
		}
	}
}

// windowedCPU cuts the phase into the latency windows and returns, for each
// window that completed operations, the process CPU µs per operation
// (consistent reads plus leased queries that passed), each operation counted
// in the window it completed in.
func (r *socketRun) windowedCPU(p phaseOut) []float64 {
	width := (p.to - p.from) / windows
	ops := make([]float64, windows)
	at := func(t int64, n float64) {
		if w := (t - p.from) / width; w >= 0 && w < windows {
			ops[w] += n
		}
	}
	for _, rd := range p.reads {
		if rd.ok {
			at(rd.end, 1)
		}
	}
	if g := p.gen; g != nil {
		for i := range g.bursts {
			if b := &g.bursts[i]; b.left == 0 {
				at(b.last, float64(burstSize-b.failed))
			}
		}
	}
	var out []float64
	for w, n := range ops {
		if n > 0 {
			from := p.from + int64(w)*width
			out = append(out, float64(p.sp.cpuBetween(from, from+width))/1e3/n)
		}
	}
	return out
}

// perLayer fills the per-layer metrics from the traced phase.
func (r *socketRun) perLayer(plainP50 int64, p phaseOut, tv *traceVals, out *outcome) {
	v := out.values
	delta := func(name string) float64 { return float64(tv.after[name] - tv.before[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	secs := float64(p.to-p.from) / 1e9
	readsOK, queriesOK, _, _ := p.ops()
	reads := float64(readsOK)

	v["timeserve.syscalls_per_query"] = ratio(delta("timeserve.syscalls"), delta("timeserve.queries"))
	v["timeserve.queries_per_drain"] = ratio(delta("timeserve.queries"), delta("timeserve.mmsg_drains"))
	v["timeserve.stale_rejected_ratio"] = ratio(delta("timeserve.stale_rejected"), delta("timeserve.queries"))
	v["timeserve.drops"] = delta("timeserve.drops")
	v["core.lease_read_ns"] = tv.leaseNs
	v["core.lease_read_par_ns"] = tv.leaseParNs
	v["core.lease_published_per_s"] = delta("core.lease_published") / secs
	v["core.gettimeofday_us"] = tv.spans.meanUS("core.gettimeofday")
	v["core.gettimeofday_us_p50"] = float64(quantile(tv.gtod, 0.5)) / 1e3
	v["core.gettimeofday_us_p99"] = float64(quantile(tv.gtod, 0.99)) / 1e3
	v["core.ccs_sent_per_read"] = ratio(delta("core.ccs_sent"), reads)
	v["core.monotonicity_fixes"] = delta("core.monotonicity_fixes")
	v["ccs.invoke_us"] = tv.spans.meanDurUS("ccs.invoke")
	v["rpc.request_us"] = tv.spans.meanUS("rpc.request")
	v["rpc.reply_us"] = tv.spans.meanUS("rpc.reply")
	v["ccs.unattributed_us"] = tv.spans.meanUS("ccs.invoke")
	v["rpc.retries"] = delta("rpc.retries")
	v["rpc.timeouts"] = delta("rpc.timeouts")
	v["totem.tokens_per_s"] = delta("totem.tokens_handled") / secs
	v["totem.token_losses_per_min"] = delta("totem.token_losses") / secs * 60
	v["totem.memberships_per_min"] = delta("totem.memberships") / secs * 60
	v["gcs.multicasts_per_read"] = ratio(delta("gcs.multicasts"), reads)
	var sends, bytesSent, calls, callNs float64
	for _, ct := range r.c.counted {
		sends += float64(ct.sends.Load())
		bytesSent += float64(ct.bytes.Load())
		calls += float64(ct.calls.Load())
		callNs += float64(ct.callsNs.Load())
	}
	v["udptransport.sends_per_read"] = ratio(sends, reads)
	v["udptransport.bytes_per_read"] = ratio(bytesSent, reads)
	v["udptransport.send_ns"] = ratio(callNs, calls)
	v["sim.loop_lag_us_p50"] = float64(quantile(tv.lags, 0.5)) / 1e3
	v["sim.loop_lag_us_p99"] = float64(quantile(tv.lags, 0.99)) / 1e3
	v["campaign.rounds_per_cpu_s"] = 0
	v["campaign.samples_per_cpu_s"] = 0
	v["lease.p50_us"], v["lease.p99_us"], v["gen.late_p99_us"] = 0, 0, 0
	if g := p.gen; g != nil {
		_, lat := g.latencies()
		v["lease.p50_us"] = float64(quantile(lat, 0.5)) / 1e3
		v["lease.p99_us"] = float64(quantile(lat, 0.99)) / 1e3
		v["gen.late_p99_us"] = float64(quantile(g.lateness(), 0.99)) / 1e3
	}
	v["go.allocs_per_op"] = ratio(float64(p.sp.allocs), float64(readsOK+queriesOK))
	v["go.gc_cpu_fraction"] = p.sp.gcCPU
	v["go.gc_pause_p99_us"] = p.sp.pauseP99
	_, lats := r.opLatencies(p)
	v["p99_us"] = float64(quantile(lats, 0.99)) / 1e3
	v["trace.overhead_p50_us"] = float64(quantile(lats, 0.5)-plainP50) / 1e3
	fillShares(tv.profile, v)
}

// verdict gathers the oracles' findings, setup clusters included.
func (r *socketRun) verdict(out *outcome) {
	for _, l := range append(r.setupLogs, &r.c.ccs.log, &r.c.lease.log) {
		out.violations += l.count.Load()
		out.witnesses = append(out.witnesses, l.witnesses()...)
	}
	r.c.log.mu.Lock()
	out.detail["unchecked_late_executions"] = r.c.log.late
	r.c.log.mu.Unlock()
}
