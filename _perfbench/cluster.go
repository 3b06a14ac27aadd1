package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cts"
	"cts/internal/gcs"
	"cts/internal/rpc"
	"cts/internal/sim"
	"cts/internal/timeserve"
	"cts/internal/transport"
	"cts/internal/udptransport"
)

// The benchmark's group: three replicas (nodes 1..3) serving CurrentTime and
// timeserve, plus the client processor P0 on the same ring, as in
// cmd/ctsnode and cmd/ctsclient.
const (
	replicas    = 3
	clientGroup = 900
	// rpcTimeout is cmd/ctsclient's invocation timeout.
	rpcTimeout = 10 * time.Second
)

// clock is the benchmark's single time base: nanoseconds on the monotonic
// clock since process start, comparable across every goroutine.
var clockBase = time.Now()

func now() int64 { return int64(time.Since(clockBase)) }

// cluster is one running group on loopback.
type cluster struct {
	trs     []*udptransport.Transport // index = node id; 0 is the client
	counted []*countingTransport      // nil unless traced
	loops   []*sim.Loop               // index = node id
	recs    []*cts.Recorder           // index = node id
	svcs    []*cts.Service            // index = node id − 1
	stack   *gcs.Stack                // the client's stack
	client  *rpc.Client
	ts      []*net.UDPAddr // replicas' timeserve addresses
	log     *readLog
	ccs     *ccsOracle
	lease   *leaseOracle
}

// startCluster builds and starts the group. With counting set, every node's
// transport is wrapped in a countingTransport.
func startCluster(counting bool) (c *cluster, err error) {
	c = &cluster{ccs: newCCSOracle(), lease: newLeaseOracle()}
	c.log = &readLog{or: c.ccs}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	n := replicas + 1
	ring := make([]transport.NodeID, n)
	for i := range ring {
		ring[i] = transport.NodeID(i)
		tr, err := udptransport.New(ring[i], "127.0.0.1:0")
		if err != nil {
			return c, err
		}
		c.trs = append(c.trs, tr)
		c.loops = append(c.loops, sim.NewLoop())
	}
	for i, tr := range c.trs {
		for j, other := range c.trs {
			if i != j {
				if err := tr.SetPeer(ring[j], other.LocalAddr()); err != nil {
					return c, err
				}
			}
		}
	}
	trOf := func(i int) transport.Transport {
		if !counting {
			return c.trs[i]
		}
		ct := &countingTransport{Transport: c.trs[i], peers: uint64(n - 1)}
		c.counted = append(c.counted, ct)
		return ct
	}
	for i := 0; i < n; i++ {
		rec, err := cts.NewRecorder(uint32(i), nil)
		if err != nil {
			return c, err
		}
		c.recs = append(c.recs, rec)
	}
	c.stack, err = gcs.New(gcs.Config{Runtime: c.loops[0], Transport: trOf(0), Members: ring, Bootstrap: true, Obs: c.recs[0]})
	if err != nil {
		return c, err
	}
	c.client, err = rpc.NewClient(rpc.ClientConfig{
		Runtime: c.loops[0], Stack: c.stack, ClientGroup: clientGroup, ServerGroup: cts.DefaultGroup,
		Timeout: rpcTimeout, Obs: c.recs[0],
	})
	if err != nil {
		return c, err
	}
	for id := 1; id < n; id++ {
		app := &benchApp{node: id, log: c.log}
		svc, err := cts.New(
			cts.WithRuntime(c.loops[id]),
			cts.WithTransport(trOf(id)),
			cts.WithMembers(ring),
			cts.WithApplication(app),
			cts.WithObservability(c.recs[id]),
			cts.WithTimeServe(cts.TimeServeConfig{Addr: "127.0.0.1:0"}),
		)
		if err != nil {
			return c, err
		}
		app.svc = svc
		c.svcs = append(c.svcs, svc)
	}
	c.stack.Start()
	for _, svc := range c.svcs {
		if err := svc.Start(); err != nil {
			return c, err
		}
		addr, err := net.ResolveUDPAddr("udp", svc.TimeServeAddr())
		if err != nil {
			return c, err
		}
		c.ts = append(c.ts, addr)
	}
	return c, nil
}

// waitReady returns once the paths the workload needs serve: the first
// consistent read returned, and then, with lease set, every replica answered
// a leased read over its socket. The consistent read's adoption publishes
// each replica's first lease, so the leased probe does not wait for the
// background refresh timer, whose phase would make set-up time bimodal.
// Readings taken here go through the oracle too.
func (c *cluster) waitReady(lease bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	done := make(chan rpc.Reply, 1)
	c.client.Invoke("CurrentTime", ordinalBody(0), func(r rpc.Reply) { done <- r })
	select {
	case r := <-done:
		v, err := replyValue(r)
		if c.ccs.read(0, r.Replica, v, err) {
			c.log.reading(r.Replica, 0, int64(v))
		}
	case <-time.After(time.Until(deadline)):
		return errors.New("first consistent read did not return in time")
	}
	if lease {
		return c.waitLeases(deadline)
	}
	return nil
}

// waitLeases asks each replica for a leased read until it answers one.
func (c *cluster) waitLeases(deadline time.Time) error {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	defer conn.Close()
	req := timeserve.AppendRequest(nil, timeserve.Request{Nonce: 1})
	buf := make([]byte, 2*timeserve.RespSize)
	for _, addr := range c.ts {
		for {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %v serves no leased read in time", addr)
			}
			var pre leaseFloors
			c.lease.snapshot(&pre)
			if _, err := conn.WriteToUDP(req, addr); err != nil {
				return err
			}
			_ = conn.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				continue // no answer yet: ask again
			}
			r, err := timeserve.ParseResponse(buf[:n])
			if err != nil || !r.OK() {
				continue
			}
			if c.lease.check(&pre, r.Node, r.Epoch, r.Group, r.Bound) {
				c.lease.complete(r.Node, r.Group, r.Bound)
			}
			break
		}
	}
	return nil
}

// stop tears the group down and waits for every goroutine it started.
func (c *cluster) stop() {
	if c.client != nil {
		c.client.Close()
	}
	for _, svc := range c.svcs {
		svc.Stop()
	}
	if c.stack != nil {
		c.stack.Stop()
	}
	for _, l := range c.loops {
		l.Close()
	}
	for _, tr := range c.trs {
		_ = tr.Close() // teardown; nothing is sent after this
	}
}

// onLoop runs fn on node id's loop and waits for it.
func (c *cluster) onLoop(id int, fn func()) {
	done := make(chan struct{})
	c.loops[id].Post(func() { fn(); close(done) })
	<-done
}

// samples sums every node's registered counters by name, gathering each
// node's sources on its own loop.
func (c *cluster) samples() map[string]uint64 {
	sum := make(map[string]uint64)
	for id, rec := range c.recs {
		var got []cts.Sample
		c.onLoop(id, func() { got = rec.Samples() })
		for name, v := range cts.SampleMap(got) {
			sum[name] += v
		}
	}
	return sum
}

// countingTransport counts and times the calls into a node's transport.
// Counting is switched on only for the traced span.
type countingTransport struct {
	transport.Transport
	peers   uint64 // datagrams per Broadcast
	on      atomic.Bool
	sends   atomic.Uint64 // datagrams handed to the kernel
	bytes   atomic.Uint64
	calls   atomic.Uint64 // Send and Broadcast calls
	callsNs atomic.Uint64
}

func (t *countingTransport) Send(to transport.NodeID, p []byte) error {
	if !t.on.Load() {
		return t.Transport.Send(to, p)
	}
	t0 := now()
	err := t.Transport.Send(to, p)
	t.note(t0, 1, len(p))
	return err
}

func (t *countingTransport) Broadcast(p []byte) error {
	if !t.on.Load() {
		return t.Transport.Broadcast(p)
	}
	t0 := now()
	err := t.Transport.Broadcast(p)
	t.note(t0, t.peers, len(p))
	return err
}

func (t *countingTransport) note(t0 int64, dgrams uint64, size int) {
	t.callsNs.Add(uint64(now() - t0))
	t.calls.Add(1)
	t.sends.Add(dgrams)
	t.bytes.Add(dgrams * uint64(size))
}

// benchApp is the replicated application: CurrentTime answers the group
// clock read through Service.Gettimeofday, and records what each replica
// computed for the read's ordinal (carried in the request body).
type benchApp struct {
	svc  *cts.Service
	node int
	log  *readLog
}

func (a *benchApp) Invoke(ctx *cts.Ctx, method string, body []byte) []byte {
	if method != "CurrentTime" || len(body) != 8 {
		return nil
	}
	enter := now()
	ord := binary.BigEndian.Uint64(body)
	v := a.svc.Gettimeofday(ctx)
	end := now()
	out := binary.BigEndian.AppendUint64(nil, uint64(v))
	a.log.put(a.node, ord, execRecord{value: int64(v), enter: enter, gtodEnd: end, exit: now()})
	return out
}
func (a *benchApp) Snapshot() []byte { return nil }
func (a *benchApp) Restore([]byte)   {}

// execRecord is one replica's execution of one read. The Gettimeofday call
// starts right after enter: only the ordinal decode lies between them.
type execRecord struct {
	value   int64
	enter   int64
	gtodEnd int64
	exit    int64
}

// logSlots is how many recent ordinals the read log holds. A slot is reused
// logSlots ordinals later, well after every replica in the group has
// executed the read it held.
const logSlots = 1 << 12

// readLog checks replica agreement online, in memory fixed at start: each
// ordinal's slot keeps the first value logged for it, by a replica or by
// the caller, and every later execution of the ordinal and the caller's
// reading of it must equal that value.
type readLog struct {
	mu    sync.Mutex
	or    *ccsOracle
	slots [logSlots]logSlot
	// late counts executions that arrived after their slot was reused, so
	// they could not be checked.
	late uint64
}

type logSlot struct {
	ord   uint64 // ordinal + 1; 0 while empty
	value int64
	first int // node that logged value; 0 is the caller
	exec  [replicas + 1]execRecord
}

// slot returns ord's slot, claiming it if it holds an older ordinal, or nil
// if it already holds a newer one. Caller holds mu.
func (l *readLog) slot(ord uint64) *logSlot {
	s := &l.slots[ord%logSlots]
	switch {
	case s.ord == ord+1:
		return s
	case s.ord > ord+1:
		l.late++
		return nil
	}
	*s = logSlot{ord: ord + 1, value: -1}
	for i := range s.exec {
		s.exec[i].value = -1
	}
	return s
}

// agree checks node's value for ord against the first value logged for it,
// and logs it if it is the first. Caller holds mu.
func (l *readLog) agree(s *logSlot, ord uint64, node int, v int64) bool {
	if s.value < 0 {
		s.value, s.first = v, node
		return true
	}
	return l.or.agree(ord, s.first, s.value, node, v)
}

// put logs replica node's execution of ord.
func (l *readLog) put(node int, ord uint64, r execRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if s := l.slot(ord); s != nil {
		s.exec[node] = r
		l.agree(s, ord, node, r.value)
	}
}

// reading checks the caller's value for ord, received from replica node,
// and returns that replica's execution of it (value −1 when it is not
// logged).
func (l *readLog) reading(node uint32, ord uint64, v int64) (execRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.slot(ord)
	if s == nil {
		return execRecord{value: -1}, true
	}
	ok := l.agree(s, ord, 0, v)
	if int(node) < len(s.exec) {
		return s.exec[node], ok
	}
	return execRecord{value: -1}, ok
}

func ordinalBody(ord uint64) []byte { return binary.BigEndian.AppendUint64(nil, ord) }

func replyValue(r rpc.Reply) (time.Duration, error) {
	if r.Err != nil {
		return 0, r.Err
	}
	if len(r.Body) != 8 {
		return 0, fmt.Errorf("reply body of %d bytes", len(r.Body))
	}
	return time.Duration(binary.BigEndian.Uint64(r.Body)), nil
}
