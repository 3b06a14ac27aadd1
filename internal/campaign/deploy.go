package campaign

import (
	"fmt"
	"time"

	"cts"
	"cts/internal/core"
	"cts/internal/faultinject"
	"cts/internal/gcs"
	"cts/internal/hwclock"
	"cts/internal/obs"
	"cts/internal/order"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
	"cts/internal/wire"
)

// ServerGroup is the replicated time-service group of campaign deployments.
const ServerGroup wire.GroupID = 100

// maxRefreshers is how many (lowest-id, currently-up) nodes drive lease
// refresh rounds each tick. More than one for fault tolerance; few, because
// concurrent refreshes coalesce into one round anyway and a thousand
// redundant proposals per tick would be pure overhead.
const maxRefreshers = 3

// node is one deployed replica.
type node struct {
	id    transport.NodeID
	svc   *cts.Service
	clock hwclock.Clock
	// up tracks the fault schedule's intent: false while the node is
	// crashed or isolated, so the monitor knows not to demand service
	// from it.
	up bool
}

// deployment is one running cell: n replicas on nodes idBase+1..idBase+n.
type deployment struct {
	k       *sim.Kernel
	net     *simnet.Network
	inj     *faultinject.Injector
	rec     *obs.Recorder
	hub     *order.InstantHub // nil for wire orderers
	sc      Scenario
	seed    int64
	group   wire.GroupID
	idBase  transport.NodeID
	skew    time.Duration // added to every clock's phase offset
	nodes   []*node
	orderer order.Kind
	// refreshOff rotates lease-refresh proposal duty across the population.
	refreshOff int
}

// build constructs and starts a cell's deployment on a fresh kernel and
// waits for the group to settle into a primary component.
func build(sc Scenario, nodes int, seed int64) (*deployment, error) {
	k := sim.NewKernel(seed)
	rec, err := obs.New(obs.Config{Now: k.Now})
	if err != nil {
		return nil, err
	}
	return buildOn(k, rec, sc, nodes, seed, ServerGroup, 0, 0)
}

// buildOn constructs a deployment on an existing kernel and recorder — the
// substrate of federated cells, where several groups share one simulation.
// Each group gets its own intra-group network; idBase keeps node ids (and
// thus obs streams) disjoint across groups, and skew shifts the whole
// group's hardware clocks, modelling federated sites whose clock planes
// start apart.
func buildOn(k *sim.Kernel, rec *obs.Recorder, sc Scenario, nodes int, seed int64,
	group wire.GroupID, idBase transport.NodeID, skew time.Duration) (*deployment, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if nodes < 2 {
		return nil, fmt.Errorf("campaign: cell needs at least 2 nodes, got %d", nodes)
	}
	if len(sc.Clocks.Explicit) > 0 && len(sc.Clocks.Explicit) != nodes {
		return nil, fmt.Errorf("campaign: scenario %q pins %d explicit clocks, cell has %d nodes",
			sc.Name, len(sc.Clocks.Explicit), nodes)
	}
	model, err := sc.Links.Model()
	if err != nil {
		return nil, err
	}
	d := &deployment{
		k:       k,
		net:     simnet.NewNetwork(k, model),
		rec:     rec,
		sc:      sc,
		seed:    seed,
		group:   group,
		idBase:  idBase,
		skew:    skew,
		orderer: sc.orderer(),
	}
	d.inj = faultinject.New(k, d.net)
	if d.orderer == order.KindInstant {
		d.hub = order.NewInstantHub()
	}
	if l := sc.Links.Loss; l > 0 {
		d.net.SetLoss(l)
	}

	members := make([]transport.NodeID, nodes)
	for i := range members {
		members[i] = idBase + transport.NodeID(i+1)
	}
	for i := 0; i < nodes; i++ {
		if err := d.addNode(members[i], sc.Clocks.Spec(seed, i, nodes), members); err != nil {
			return nil, err
		}
	}
	for _, nd := range d.nodes {
		nd.svc.Stack().Start()
	}
	if err := d.settle(); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *deployment) addNode(id transport.NodeID, spec ClockSpec, members []transport.NodeID) error {
	opts := order.Options{Kind: d.orderer}
	switch d.orderer {
	case order.KindInstant:
		opts.Instant = order.InstantTuning{Hub: d.hub}
	case order.KindSeq:
		opts.Seq = d.sc.Seq
	case order.KindTotem:
		opts.Totem = d.sc.Totem
	}
	stack, err := gcs.New(gcs.Config{
		Runtime:   d.k,
		Transport: d.net.Endpoint(id),
		Members:   members,
		Bootstrap: true,
		Order:     opts,
		Obs:       d.rec.ForNode(uint32(id)),
	})
	if err != nil {
		return err
	}
	d.inj.Register(id, stack)
	clock := hwclock.NewSim(d.k.Now,
		hwclock.WithOffset(spec.Offset+d.skew), hwclock.WithDriftPPM(spec.DriftPPM))
	// The facade's default application serves: the campaign drives the
	// lease plane directly, so no invocations ever arrive.
	svc, err := cts.New(
		cts.WithRuntime(d.k),
		cts.WithStack(stack),
		cts.WithGroup(d.group),
		cts.WithClock(clock),
		cts.WithMeanDelay(d.sc.MeanDelay),
		cts.WithObservability(d.rec),
	)
	if err != nil {
		return err
	}
	if err := svc.TimeService().EnableLease(core.LeaseConfig{
		// Leases stay valid for the whole cell: expiry is not under test,
		// honest bound growth and epoch invalidation are.
		Window: d.sc.Duration + 10*time.Second,
	}); err != nil {
		return err
	}
	if err := svc.Start(); err != nil {
		return err
	}
	d.nodes = append(d.nodes, &node{id: id, svc: svc, clock: clock, up: true})
	return nil
}

// settle advances the simulation until every node reports a primary
// component, with a budget scaled to the fabric.
func (d *deployment) settle() error {
	budget := 500 * time.Millisecond
	if d.sc.Links.Profile == ProfileWAN {
		base := d.sc.Links.WANBase
		if base <= 0 {
			base = 30 * time.Millisecond
		}
		budget += 100 * base
	}
	deadline := d.k.Now() + budget
	for d.k.Now() < deadline {
		if d.allPrimary() {
			return nil
		}
		d.k.RunFor(time.Millisecond)
	}
	if !d.allPrimary() {
		return fmt.Errorf("campaign: %q/%d did not settle within %v", d.sc.Name, len(d.nodes), budget)
	}
	return nil
}

func (d *deployment) allPrimary() bool {
	for _, nd := range d.nodes {
		if !nd.svc.Manager().InPrimaryComponent() {
			return false
		}
	}
	return true
}

// refreshTick drives one wave of lease-refresh rounds from a rotating set
// of up nodes; concurrent proposals coalesce into one CCS round, and every
// node adopts the decided value from the total order. Rotation matters for
// bound honesty: a replica's ordering-lag estimate is fed only by rounds it
// proposes itself, so cycling proposal duty through the population keeps
// every node's estimator warm instead of only the first few ids'.
func (d *deployment) refreshTick() {
	n := len(d.nodes)
	sent := 0
	for i := 0; i < n && sent < maxRefreshers; i++ {
		nd := d.nodes[(d.refreshOff+i)%n]
		if !nd.up {
			continue
		}
		nd.svc.RefreshLease()
		sent++
	}
	d.refreshOff = (d.refreshOff + maxRefreshers) % n
}

// installSchedule arms the scenario's fault events relative to start.
func (d *deployment) installSchedule(start time.Duration) {
	n := len(d.nodes)
	for _, ev := range d.sc.Faults {
		from, to := start+ev.At, start+ev.end()
		switch ev.Kind {
		case FaultChurn:
			d.installChurn(start, ev)
		case FaultPartition:
			far := d.topIDs(ev.Fraction)
			near := d.lowIDs(n - len(far))
			d.inj.PartitionAt(from, near, far)
			d.inj.HealAt(to)
			d.markDownWindow(far, from, to)
		case FaultAsymmetric:
			far := d.topIDs(ev.Fraction)
			near := d.lowIDs(n - len(far))
			d.inj.AsymmetricPartitionAt(from, to, near, far)
		case FaultPartial:
			k := len(d.topIDs(ev.Fraction))
			ids := d.ids()
			a := ids[n-k:]
			b := ids[n-2*k : n-k]
			d.inj.PartialPartitionAt(from, to, a, b)
		case FaultLossBursts:
			d.inj.LossBursts(from, ev.Count, ev.For, ev.Gap, ev.Loss)
		case FaultShape:
			shape := simnet.LinkShape{Loss: ev.Loss}
			if ev.Latency > 0 {
				shape.Latency = simnet.Fixed(ev.Latency)
			}
			d.inj.ShapeWindow(from, to, nil, nil, shape)
		}
	}
}

// installChurn schedules the crash/recovery waves of one churn event.
// Victims come off the top of the id range and each stays down for 1.5
// inter-crash steps, so at most two victims are down at once and quorum
// survives. Under the instant orderer a victim's stack stops and restarts
// (the hub's crash model); under wire orderers the victim is isolated at
// the endpoint, and the membership protocol expels and re-admits it.
func (d *deployment) installChurn(start time.Duration, ev FaultEvent) {
	n := len(d.nodes)
	vmax := n / 3
	if vmax > ev.Count {
		vmax = ev.Count
	}
	if vmax < 1 {
		vmax = 1
	}
	step := ev.For / time.Duration(ev.Count)
	for i := 0; i < ev.Count; i++ {
		nd := d.nodes[n-1-i%vmax]
		from := start + ev.At + time.Duration(i)*step
		to := from + step*3/2
		if d.orderer == order.KindInstant {
			d.inj.StopAt(from, nd.id)
			d.inj.StartAt(to, nd.svc.Stack().Start)
		} else {
			d.inj.IsolateWindow(from, to, nd.id)
		}
		d.markDownWindow([]transport.NodeID{nd.id}, from, to)
	}
}

// markDownWindow records schedule intent for the monitor.
func (d *deployment) markDownWindow(ids []transport.NodeID, from, to time.Duration) {
	byID := make(map[transport.NodeID]*node, len(ids))
	for _, nd := range d.nodes {
		byID[nd.id] = nd
	}
	for _, id := range ids {
		nd := byID[id]
		if nd == nil {
			continue
		}
		d.k.At(from, func() { nd.up = false })
		d.k.At(to, func() { nd.up = true })
	}
}

func (d *deployment) ids() []transport.NodeID {
	out := make([]transport.NodeID, len(d.nodes))
	for i, nd := range d.nodes {
		out[i] = nd.id
	}
	return out
}

// topIDs returns the highest ⌈frac·n⌉ node ids (at least 1).
func (d *deployment) topIDs(frac float64) []transport.NodeID {
	n := len(d.nodes)
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	return d.ids()[n-k:]
}

func (d *deployment) lowIDs(k int) []transport.NodeID {
	return d.ids()[:k]
}

// stop halts every replica: the caller-owned stack, then the service.
func (d *deployment) stop() {
	for _, nd := range d.nodes {
		nd.svc.Stack().Stop()
		nd.svc.Stop()
	}
}

// close stops every replica and drains the loop, so campaign tests hold the
// goroutine-leak gate.
func (d *deployment) close() {
	d.stop()
	d.k.RunFor(5 * time.Millisecond)
}
