// Package cts is the public facade of the consistent time service — the
// supported API for embedding the paper's CCS algorithm (Design and
// Implementation of a Consistent Time Service for Fault-Tolerant Distributed
// Systems, DSN 2003) in an application.
//
// A Service bundles a replication manager and a consistent time service on
// top of a group-communication stack. The caller supplies an event loop and
// either a ready gcs stack (WithStack) or a transport plus membership
// (WithTransport, WithMembers) from which the facade builds one; WithOrderer
// selects the total-order protocol underneath (Totem single ring by
// default, or the leader sequencer for low-latency LAN groups):
//
//	svc, err := cts.New(
//		cts.WithRuntime(loop),
//		cts.WithTransport(tr),
//		cts.WithMembers(members),
//		cts.WithOrderer(cts.OrdererOptions{Kind: cts.OrdererSeq}),
//	)
//	...
//	err = svc.Start()
//
// Clock readings go through Service.Clock (or Gettimeofday/Time/Ftime)
// bound to a logical thread Ctx inside the replicated application.
// Observability — the CCS round trace and the stack-wide metrics registry —
// hangs off Service.Observability.
package cts

import (
	"errors"
	"io"
	"sync/atomic"
	"time"

	"cts/internal/core"
	"cts/internal/federation"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/replication"
	"cts/internal/sim"
	"cts/internal/timeserve"
	"cts/internal/transport"
	"cts/internal/wire"
)

// DefaultGroup is the server group identifier used when WithGroup is not
// given (the experiment deployments' ServerGroup).
const DefaultGroup wire.GroupID = 100

// Re-exported types, so applications embed the service without importing
// internal packages.
type (
	// Ctx is a logical thread context inside the replicated application.
	Ctx = replication.Ctx
	// Application is the replicated state machine interface.
	Application = replication.Application
	// Style selects the replication style.
	Style = replication.Style
	// Status mirrors the replica's role.
	Status = replication.Status
	// RoundReport describes one completed CCS round.
	RoundReport = core.RoundReport
	// Compensation selects the drift-compensation strategy (§3.3).
	Compensation = core.Compensation
	// Clock is the interposition facade bound to a logical thread.
	Clock = core.Clock
	// HardwareClock is a physical clock source.
	HardwareClock = hwclock.Clock
	// GroupID identifies a process group.
	GroupID = wire.GroupID
	// NodeID identifies a processor of the component.
	NodeID = transport.NodeID
	// Runtime is the event loop abstraction the stack runs on.
	Runtime = sim.Runtime

	// OrdererOptions selects and tunes the total-order protocol (see
	// WithOrderer): the kind, the primary-component quorum and the
	// per-orderer tuning structs.
	OrdererOptions = order.Options
	// OrdererKind names a total-order protocol implementation.
	OrdererKind = order.Kind
	// TotemTuning tunes the Totem single-ring orderer.
	TotemTuning = order.TotemTuning
	// SeqTuning tunes the leader-sequencer orderer.
	SeqTuning = order.SeqTuning
	// ViewID identifies one membership configuration of the ordering layer.
	ViewID = order.ViewID

	// Recorder is the observability handle: round traces, counters,
	// histograms. A nil *Recorder is valid and fully disabled.
	Recorder = obs.Recorder
	// TraceSink consumes trace events.
	TraceSink = obs.TraceSink
	// Event is one structured trace event.
	Event = obs.Event
	// Sample is one gathered metric value.
	Sample = obs.Sample
	// Logger writes structured key=value lines.
	Logger = obs.Logger
	// JSONLinesSink exports trace events as JSON lines.
	JSONLinesSink = obs.JSONLinesSink
	// MemorySink retains trace events in memory.
	MemorySink = obs.MemorySink
	// KV is one structured logging field.
	KV = obs.KV

	// LeaseConfig configures the core lease plane backing timeserve.
	LeaseConfig = core.LeaseConfig
	// LeaseReading is one leased group-clock read.
	LeaseReading = core.LeaseReading
	// TimeServeServer is the external UDP time-serving frontend.
	TimeServeServer = timeserve.Server
	// TimeServeClient queries the replica group's timeserve frontends with
	// cached leases and retry-across-replicas.
	TimeServeClient = timeserve.Client
	// TimeServeClientConfig configures a TimeServeClient.
	TimeServeClientConfig = timeserve.ClientConfig
	// TimeServeReading is one reading returned to an external client.
	TimeServeReading = timeserve.Reading

	// FederationLink transmits inter-group summary frames (see
	// WithFederation); federation.NewUDPLink is the deployment
	// implementation.
	FederationLink = federation.Link
	// FederationAgent is one group member's inter-group exchange endpoint.
	FederationAgent = federation.Agent
	// FederationTopology is the parsed federation topology document
	// (groups, edges, exchange tuning) consumed by ctsnode -topology.
	FederationTopology = federation.Topology
)

// NewFederationUDPLink binds the federation exchange socket on bindAddr and
// starts its receive loop. Wire received frames to the service's agent with
// SetAgent(svc.Federation()) after Start.
func NewFederationUDPLink(bindAddr string) (*federation.UDPLink, error) {
	return federation.NewUDPLink(bindAddr)
}

// ParseFederationTopology decodes and validates a federation topology
// document.
func ParseFederationTopology(b []byte) (*FederationTopology, error) {
	return federation.ParseTopology(b)
}

// NewTimeServeClient creates a client over the given replica timeserve
// addresses.
func NewTimeServeClient(cfg TimeServeClientConfig) (*TimeServeClient, error) {
	return timeserve.NewClient(cfg)
}

// F builds a structured logging field.
func F(k string, v any) KV { return obs.F(k, v) }

// MultiSink fans trace events out to every given sink.
func MultiSink(sinks ...TraceSink) TraceSink { return obs.MultiSink(sinks...) }

// SampleMap aggregates gathered samples by metric name, summing across nodes.
func SampleMap(samples []Sample) map[string]uint64 { return obs.SampleMap(samples) }

// Replication styles.
const (
	Active     = replication.Active
	Passive    = replication.Passive
	SemiActive = replication.SemiActive
)

// Drift-compensation strategies.
const (
	CompNone      = core.CompNone
	CompMeanDelay = core.CompMeanDelay
	CompExternal  = core.CompExternal
)

// Orderer kinds accepted by WithOrderer.
const (
	// OrdererTotem runs the Totem single ring (the paper's protocol).
	OrdererTotem = order.KindTotem
	// OrdererSeq runs the leader sequencer (lowest view member sequences;
	// elections on leader timeout).
	OrdererSeq = order.KindSeq
	// OrdererInstant runs the sim-instant orderer (simulation only).
	OrdererInstant = order.KindInstant
)

// ParseOrdererKind parses a user-supplied orderer name ("totem", "seq",
// "instant"; empty selects totem), as used by the ctsnode -orderer flag.
func ParseOrdererKind(s string) (OrdererKind, error) { return order.ParseKind(s) }

// NewRecorder creates an observability recorder stamping events with the
// given node identity. sink may be nil for metrics without tracing.
func NewRecorder(node uint32, sink TraceSink) (*Recorder, error) {
	return obs.New(obs.Config{Node: node, Sink: sink})
}

// NewLogger creates a structured key=value logger writing to w.
func NewLogger(w io.Writer) (*Logger, error) { return obs.NewLogger(w) }

// NewJSONLinesSink creates a trace sink writing one JSON event per line.
func NewJSONLinesSink(w io.Writer) (*JSONLinesSink, error) { return obs.NewJSONLinesSink(w) }

// NewMemorySink creates a trace sink retaining events in memory; limit <= 0
// retains everything.
func NewMemorySink(limit int) *MemorySink { return obs.NewMemorySink(limit) }

// DecodeJSONLines parses a JSON-lines trace back into events.
func DecodeJSONLines(r io.Reader) ([]Event, error) { return obs.DecodeJSONLines(r) }

// options collects the configuration assembled by the functional options.
type options struct {
	runtime    sim.Runtime
	stack      *gcs.Stack
	transport  transport.Transport
	ring       []transport.NodeID
	group      wire.GroupID
	style      replication.Style
	app        replication.Application
	clock      hwclock.Clock
	recovering bool
	ckptEvery  int
	onStatus   func(Status)

	compensation core.Compensation
	meanDelay    time.Duration
	external     hwclock.Clock
	externalGain float64
	agreedCCS    bool
	onRound      func(RoundReport)

	timeserve *TimeServeConfig
	fed       *FederationConfig

	order    order.Options
	orderSet bool

	obs *obs.Recorder
}

// Option configures New.
type Option func(*options)

// WithRuntime sets the event loop the service runs on (sim.NewLoop for real
// deployments, a simulation kernel for tests). Required.
func WithRuntime(rt Runtime) Option { return func(o *options) { o.runtime = rt } }

// WithStack uses an existing group-communication stack. The caller keeps
// ownership: Start/Stop of the stack stay with the caller.
func WithStack(s *gcs.Stack) Option { return func(o *options) { o.stack = s } }

// WithTransport sets the datagram transport from which the facade builds its
// own stack (ignored when WithStack is given). The built stack is started
// and stopped by the Service.
func WithTransport(tr transport.Transport) Option { return func(o *options) { o.transport = tr } }

// WithMembers sets the initial component membership for a facade-built
// stack.
func WithMembers(members []NodeID) Option {
	return func(o *options) { o.ring = append([]NodeID(nil), members...) }
}

// WithOrderer selects and tunes the total-order protocol underneath a
// facade-built stack (see OrdererOptions). Conflicts with WithStack, whose
// stack already owns an orderer.
func WithOrderer(opts OrdererOptions) Option {
	return func(o *options) { o.order = opts; o.orderSet = true }
}

// WithGroup sets the server group identifier. Default DefaultGroup.
func WithGroup(g GroupID) Option { return func(o *options) { o.group = g } }

// WithStyle sets the replication style. Default Active.
func WithStyle(s Style) Option { return func(o *options) { o.style = s } }

// WithApplication sets the replicated state machine. Default: a built-in
// application answering "CurrentTime" with the group clock as a big-endian
// uint64 nanosecond count.
func WithApplication(app Application) Option { return func(o *options) { o.app = app } }

// WithClock sets the physical hardware clock. Default the system clock.
func WithClock(c HardwareClock) Option { return func(o *options) { o.clock = c } }

// WithRecovering marks a replica that joins an existing group via state
// transfer. A facade-built stack bootstraps the initial membership unless
// the replica is recovering.
func WithRecovering(r bool) Option { return func(o *options) { o.recovering = r } }

// WithCheckpointEvery sets the passive primary's checkpoint interval.
func WithCheckpointEvery(n int) Option { return func(o *options) { o.ckptEvery = n } }

// WithOnStatus observes replica role changes. Called on the loop.
func WithOnStatus(fn func(Status)) Option { return func(o *options) { o.onStatus = fn } }

// WithCompensation selects the drift-compensation strategy (§3.3).
func WithCompensation(c Compensation) Option { return func(o *options) { o.compensation = c } }

// WithMeanDelay declares the fabric's mean CCS delivery delay. Under
// CompMeanDelay it is the per-round offset bias; under CompNone it widens
// every lease's base staleness margin, so a fabric with non-trivial delivery
// delay (a sequencer hop, WAN links) must declare it.
func WithMeanDelay(d time.Duration) Option { return func(o *options) { o.meanDelay = d } }

// WithExternalReference sets the reference clock and gain for CompExternal.
// gain 0 takes the default (0.1).
func WithExternalReference(ref HardwareClock, gain float64) Option {
	return func(o *options) { o.external = ref; o.externalGain = gain }
}

// WithAgreedCCS trades the safe-delivery guarantee for lower round latency
// (ablation of §4.3).
func WithAgreedCCS(a bool) Option { return func(o *options) { o.agreedCCS = a } }

// WithOnRound observes every completed CCS round. Called on the loop.
func WithOnRound(fn func(RoundReport)) Option { return func(o *options) { o.onRound = fn } }

// WithObservability plumbs the recorder through every layer of the service's
// stack: round traces go to its sink, and each layer registers its counters
// with its registry. Without this option the Service still creates a
// sink-less recorder, so Observability() and metrics always work.
func WithObservability(r *Recorder) Option { return func(o *options) { o.obs = r } }

// TimeServeConfig configures the external time-serving frontend enabled by
// WithTimeServe.
type TimeServeConfig struct {
	// Addr is the UDP address the frontend listens on (e.g. ":4460",
	// "127.0.0.1:0"). Required.
	Addr string
	// Shards is the number of listener shards (SO_REUSEPORT sockets on
	// Linux). Default 1.
	Shards int
	// LeaseWindow is how long after a CCS adoption external reads may be
	// answered from the lease. Default 1s.
	LeaseWindow time.Duration
	// DriftPPM widens the advertised staleness bound as the lease ages.
	// Default 100 ppm (or the simulated clock's own drift if larger).
	DriftPPM float64
	// RefreshEvery is the cadence of the background lease-refresh CCS
	// rounds keeping the lease alive between client-driven rounds.
	// Default LeaseWindow/4. Negative disables the refresher (the caller
	// drives RefreshLease itself).
	RefreshEvery time.Duration
	// RecvBuf and SendBuf size the shard sockets. Default 4 MiB.
	RecvBuf, SendBuf int
	// ServeIO selects the shards' kernel I/O path: "auto" (batched
	// recvmmsg/sendmmsg where supported; the default), "seq" (one datagram
	// per syscall), or "mmsg" (require batching; Start fails on platforms
	// without it).
	ServeIO string
	// OnFallback, when set, is called once per degradation event: the
	// batched syscalls proving unavailable at runtime, or a refused
	// SO_REUSEPORT bind collapsing the shards onto one socket.
	OnFallback func(reason string)
}

// WithTimeServe enables the external time-serving frontend: Start enables
// the core lease plane, binds the sharded UDP listeners, and keeps the lease
// fresh with background refresh CCS rounds.
func WithTimeServe(cfg TimeServeConfig) Option {
	return func(o *options) { o.timeserve = &cfg }
}

// FederationConfig configures the inter-group federation plane enabled by
// WithFederation. The local group identifier comes from WithGroup; the
// summaries themselves come from the lease plane, so WithFederation requires
// WithTimeServe (which owns the lease and its refresher).
type FederationConfig struct {
	// Link transmits summary frames toward neighbor groups. Required.
	// For deployments use NewFederationUDPLink and, after Start, attach the
	// receive side with link.SetAgent(svc.Federation()).
	Link FederationLink
	// Neighbors lists the adjacent groups' identifiers.
	Neighbors []GroupID
	// Key authenticates summary frames; every group of one federation must
	// share it. Default "cts-federation".
	Key []byte
	// ExchangeEvery is the summary exchange cadence. Default 50ms.
	ExchangeEvery time.Duration
	// MaxStep bounds the forward nudge of one federated round. Default
	// 500µs.
	MaxStep time.Duration
	// Precision is the inter-group transit uncertainty. Default 1ms.
	Precision time.Duration
	// InitialSlack pads published bounds until the first exchange. Default
	// 10ms.
	InitialSlack time.Duration
	// AgingPPM is the slack growth rate between federated rounds. Default:
	// the neighbors' bounded nudge rate plus a drift allowance.
	AgingPPM float64
}

// WithFederation joins this group to an inter-group federation: Start spawns
// the exchange agent, which periodically summarizes the group's lease to
// every neighbor group and adopts bounded federated nudges when a neighbor
// is confidently ahead. Published staleness bounds then also cover the
// residual inter-group skew.
func WithFederation(cfg FederationConfig) Option {
	return func(o *options) { o.fed = &cfg }
}

// Service is one replica of a consistent-time server group.
type Service struct {
	mgr       *replication.Manager
	svc       *core.TimeService
	stack     *gcs.Stack
	obs       *obs.Recorder
	ownsStack bool

	rt     sim.Runtime
	clock  hwclock.Clock
	group  wire.GroupID
	tsCfg  *TimeServeConfig
	ts     *timeserve.Server
	fedCfg *FederationConfig
	fed    *federation.Agent

	refreshTimer sim.Canceler // loop-only
	fedTimer     sim.Canceler // loop-only
	refreshStop  atomic.Bool
	stopped      atomic.Bool
}

// leaseSource adapts the core lease plane to the timeserve frontend.
type leaseSource struct {
	svc  *core.TimeService
	node uint32
}

func (l leaseSource) LeaseRead() (timeserve.Reading, bool) {
	r, ok := l.svc.LeaseRead()
	if !ok {
		return timeserve.Reading{}, false
	}
	return timeserve.Reading{GroupClock: r.GroupClock, Bound: r.Bound, Epoch: r.Epoch, Node: l.node}, true
}

// defaultApp answers CurrentTime with the group clock (big-endian uint64
// nanoseconds) — enough to run a time server with no custom application.
type defaultApp struct{ svc *core.TimeService }

func (a *defaultApp) Invoke(ctx *Ctx, method string, _ []byte) []byte {
	switch method {
	case "CurrentTime":
		v := a.svc.Gettimeofday(ctx)
		out := make([]byte, 8)
		for i := 0; i < 8; i++ {
			out[i] = byte(uint64(v) >> (56 - 8*i))
		}
		return out
	}
	return nil
}
func (a *defaultApp) Snapshot() []byte { return nil }
func (a *defaultApp) Restore([]byte)   {}

// New assembles a Service from the options. It validates the configuration
// of every layer; Start begins protocol activity.
func New(opts ...Option) (*Service, error) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	if o.runtime == nil {
		return nil, errors.New("cts: WithRuntime is required")
	}
	if o.group == 0 {
		o.group = DefaultGroup
	}
	if o.clock == nil {
		o.clock = hwclock.SystemClock{}
	}
	if o.obs == nil {
		// A sink-less recorder: tracing stays off (nil sink fast path), but
		// the metrics registry works, so Observability() is always usable.
		rec, err := obs.New(obs.Config{})
		if err != nil {
			return nil, err
		}
		o.obs = rec
	}

	s := &Service{obs: o.obs}
	if o.stack != nil {
		if o.orderSet {
			return nil, errors.New("cts: WithOrderer conflicts with WithStack (the supplied stack already owns an orderer)")
		}
		s.stack = o.stack
	} else {
		if o.transport == nil {
			return nil, errors.New("cts: WithStack or WithTransport is required")
		}
		rec := o.obs.ForNode(uint32(o.transport.LocalID()))
		st, err := gcs.New(gcs.Config{
			Runtime:   o.runtime,
			Transport: o.transport,
			Members:   o.ring,
			Bootstrap: !o.recovering,
			Order:     o.order,
			Obs:       rec,
		})
		if err != nil {
			return nil, err
		}
		s.stack = st
		s.ownsStack = true
	}

	dapp := &defaultApp{}
	app := o.app
	if app == nil {
		app = dapp
	}
	mgr, err := replication.New(replication.Config{
		Runtime:         o.runtime,
		Stack:           s.stack,
		Group:           o.group,
		Style:           o.style,
		App:             app,
		Recovering:      o.recovering,
		CheckpointEvery: o.ckptEvery,
		OnStatus:        o.onStatus,
		Obs:             o.obs.ForNode(uint32(s.stack.LocalID())),
	})
	if err != nil {
		return nil, err
	}
	svc, err := core.New(core.Config{
		Manager:      mgr,
		Clock:        o.clock,
		Compensation: o.compensation,
		MeanDelay:    o.meanDelay,
		External:     o.external,
		ExternalGain: o.externalGain,
		AgreedCCS:    o.agreedCCS,
		OnRound:      o.onRound,
	})
	if err != nil {
		return nil, err
	}
	if o.fed != nil {
		if o.fed.Link == nil {
			return nil, errors.New("cts: FederationConfig.Link is required")
		}
		if o.timeserve == nil {
			return nil, errors.New("cts: WithFederation requires WithTimeServe (the lease plane supplies the summaries)")
		}
	}
	dapp.svc = svc
	s.mgr = mgr
	s.svc = svc
	s.rt = o.runtime
	s.clock = o.clock
	s.group = o.group
	s.tsCfg = o.timeserve
	s.fedCfg = o.fed
	return s, nil
}

// Start joins the server group and, for a facade-built stack, begins ring
// activity. With WithTimeServe it also enables the lease plane, binds the
// serving frontend, and starts the background lease refresher. Safe to call
// from any goroutine.
func (s *Service) Start() error {
	if err := s.mgr.Start(); err != nil {
		return err
	}
	if s.ownsStack {
		s.stack.Start()
	}
	if s.tsCfg != nil {
		if err := s.startTimeServe(*s.tsCfg); err != nil {
			s.Stop()
			return err
		}
	}
	if s.fedCfg != nil {
		if err := s.startFederation(*s.fedCfg); err != nil {
			s.Stop()
			return err
		}
	}
	return nil
}

// startFederation brings up the inter-group exchange plane of
// WithFederation.
func (s *Service) startFederation(cfg FederationConfig) error {
	every := cfg.ExchangeEvery
	if every == 0 {
		every = 50 * time.Millisecond
	}
	node := uint32(s.stack.LocalID())
	agent, err := federation.New(federation.Config{
		Runtime:       s.rt,
		Service:       s.svc,
		Manager:       s.mgr,
		Clock:         s.clock,
		Link:          cfg.Link,
		Group:         s.group,
		Neighbors:     cfg.Neighbors,
		Key:           cfg.Key,
		ExchangeEvery: every,
		MaxStep:       cfg.MaxStep,
		Precision:     cfg.Precision,
		InitialSlack:  cfg.InitialSlack,
		AgingPPM:      cfg.AgingPPM,
		Obs:           s.obs.ForNode(node),
	})
	if err != nil {
		return err
	}
	s.fed = agent
	agent.Start()
	s.rt.Post(func() { s.fedTick(every) })
	return nil
}

// fedTick drives the summary exchange cadence alongside the lease refresher.
// Loop-only; the chain re-arms itself until Stop.
func (s *Service) fedTick(every time.Duration) {
	if s.refreshStop.Load() {
		return
	}
	s.fed.ExchangeTick()
	s.fedTimer = s.rt.After(every, func() { s.fedTick(every) })
}

// startTimeServe brings up the serving plane of WithTimeServe.
func (s *Service) startTimeServe(cfg TimeServeConfig) error {
	if cfg.LeaseWindow == 0 {
		cfg.LeaseWindow = time.Second
	}
	if err := s.svc.EnableLease(core.LeaseConfig{
		Window:   cfg.LeaseWindow,
		DriftPPM: cfg.DriftPPM,
	}); err != nil {
		return err
	}
	io, err := timeserve.ParseIOMode(cfg.ServeIO)
	if err != nil {
		return err
	}
	node := uint32(s.stack.LocalID())
	srv, err := timeserve.Start(timeserve.Config{
		Addr:       cfg.Addr,
		Shards:     cfg.Shards,
		Node:       node,
		Source:     leaseSource{svc: s.svc, node: node},
		RecvBuf:    cfg.RecvBuf,
		SendBuf:    cfg.SendBuf,
		IO:         io,
		OnFallback: cfg.OnFallback,
		Obs:        s.obs.ForNode(node),
	})
	if err != nil {
		return err
	}
	s.ts = srv
	every := cfg.RefreshEvery
	if every == 0 {
		every = cfg.LeaseWindow / 4
	}
	if every > 0 {
		s.rt.Post(func() { s.refreshTick(every) })
	}
	return nil
}

// refreshTick drives the background lease-refresh rounds. Loop-only; the
// chain re-arms itself until Stop.
func (s *Service) refreshTick(every time.Duration) {
	if s.refreshStop.Load() {
		return
	}
	if s.mgr.Live() {
		s.svc.RefreshLease()
	}
	s.refreshTimer = s.rt.After(every, func() { s.refreshTick(every) })
}

// Stop leaves the group, halts the serving frontend and refresher, and, for
// a facade-built stack, halts the ring. Idempotent: Start already stops the
// stack when a later phase (e.g. the serving frontend) fails to come up, and
// callers typically also hold a deferred Stop.
func (s *Service) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.refreshStop.Store(true)
	s.rt.Post(func() {
		if s.refreshTimer != nil {
			s.refreshTimer.Cancel()
		}
		if s.fedTimer != nil {
			s.fedTimer.Cancel()
		}
	})
	if s.fed != nil {
		s.fed.Stop()
	}
	if s.ts != nil {
		_ = s.ts.Close() // sockets are going away with the process
		s.ts = nil
	}
	s.mgr.Stop()
	if s.ownsStack {
		s.stack.Stop()
	}
}

// TimeServe exposes the serving frontend (nil without WithTimeServe or
// before Start).
func (s *Service) TimeServe() *TimeServeServer { return s.ts }

// Federation exposes the inter-group exchange agent (nil without
// WithFederation or before Start). Deployments attach the receive side of
// their link to it: link.SetAgent(svc.Federation()).
func (s *Service) Federation() *FederationAgent { return s.fed }

// TimeServeAddr reports the frontend's bound UDP address ("" when not
// serving). Useful with ":0".
func (s *Service) TimeServeAddr() string {
	if s.ts == nil {
		return ""
	}
	return s.ts.Addr().String()
}

// LeaseRead answers one external read from the replica's current lease.
// Safe from any goroutine; ok=false when no valid lease is held.
func (s *Service) LeaseRead() (LeaseReading, bool) { return s.svc.LeaseRead() }

// RefreshLease starts a lease-refresh CCS round unless one is in flight.
// Safe from any goroutine.
func (s *Service) RefreshLease() { s.svc.RefreshLease() }

// Clock returns the interposition facade bound to a logical thread context.
func (s *Service) Clock(ctx *Ctx) *Clock { return s.svc.Clock(ctx) }

// Gettimeofday performs a consistent clock read at µs granularity.
func (s *Service) Gettimeofday(ctx *Ctx) time.Duration { return s.svc.Gettimeofday(ctx) }

// Time performs a consistent clock read at second granularity.
func (s *Service) Time(ctx *Ctx) time.Duration { return s.svc.Time(ctx) }

// Ftime performs a consistent clock read at millisecond granularity.
func (s *Service) Ftime(ctx *Ctx) time.Duration { return s.svc.Ftime(ctx) }

// Timestamp reports the group clock value to stamp into outgoing
// inter-group messages (§5). Loop-only.
func (s *Service) Timestamp() time.Duration { return s.svc.Timestamp() }

// ObserveTimestamp records a group clock value carried by a delivered
// inter-group message (§5). Loop-only.
func (s *Service) ObserveTimestamp(t time.Duration) { s.svc.ObserveTimestamp(t) }

// Observability returns the service's recorder: trace control, the metrics
// registry, and histograms. Never nil.
func (s *Service) Observability() *Recorder { return s.obs }

// DumpMetrics writes a text dump of every registered counter and histogram.
// Loop-only, like the counters it gathers.
func (s *Service) DumpMetrics(w io.Writer) { s.obs.DumpMetrics(w) }

// Stack exposes the group-communication endpoint.
func (s *Service) Stack() *gcs.Stack { return s.stack }

// Manager exposes the replication manager.
func (s *Service) Manager() *replication.Manager { return s.mgr }

// TimeService exposes the core consistent time service, for harnesses that
// drive the lease plane without the serving frontend.
func (s *Service) TimeService() *core.TimeService { return s.svc }
