package totem

import (
	"fmt"
	"testing"
	"time"

	"cts/internal/obs"
	"cts/internal/sim"
	"cts/internal/simnet"
	"cts/internal/transport"
)

// harness runs a cluster of totem nodes on a simulated network.
type harness struct {
	t     *testing.T
	k     *sim.Kernel
	net   *simnet.Network
	nodes map[transport.NodeID]*Node
	// deliveries[id] is the sequence of payload strings delivered at id.
	deliveries map[transport.NodeID][]string
	senders    map[transport.NodeID][]transport.NodeID
	views      map[transport.NodeID][]View
}

func newHarness(t *testing.T, seed int64, latency simnet.LatencyModel) *harness {
	t.Helper()
	k := sim.NewKernel(seed)
	return &harness{
		t:          t,
		k:          k,
		net:        simnet.NewNetwork(k, latency),
		nodes:      make(map[transport.NodeID]*Node),
		deliveries: make(map[transport.NodeID][]string),
		senders:    make(map[transport.NodeID][]transport.NodeID),
		views:      make(map[transport.NodeID][]View),
	}
}

func (h *harness) addNode(id transport.NodeID, members []transport.NodeID, bootstrap bool, opts ...func(*Config)) *Node {
	h.t.Helper()
	cfg := Config{
		Runtime:   h.k,
		Transport: h.net.Endpoint(id),
		Members:   members,
		Bootstrap: bootstrap,
		Deliver: func(d Delivery) {
			h.deliveries[id] = append(h.deliveries[id], string(d.Payload))
			h.senders[id] = append(h.senders[id], d.Sender)
		},
		OnView: func(v View) {
			h.views[id] = append(h.views[id], v)
		},
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		h.t.Fatalf("New(%v): %v", id, err)
	}
	h.nodes[id] = n
	return n
}

func (h *harness) startAll() {
	for _, n := range h.nodes {
		n.Start()
	}
}

// runUntil advances simulation until cond holds or maxVirtual elapses.
func (h *harness) runUntil(maxVirtual time.Duration, cond func() bool) bool {
	h.t.Helper()
	deadline := h.k.Now() + maxVirtual
	for h.k.Now() < deadline {
		if cond() {
			return true
		}
		h.k.RunFor(200 * time.Microsecond)
	}
	return cond()
}

// checkPrefixConsistency verifies that every pair of delivery sequences is
// prefix-consistent (one is a prefix of the other).
func (h *harness) checkPrefixConsistency(ids ...transport.NodeID) {
	h.t.Helper()
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := h.deliveries[ids[i]], h.deliveries[ids[j]]
			n := len(a)
			if len(b) < n {
				n = len(b)
			}
			for x := 0; x < n; x++ {
				if a[x] != b[x] {
					h.t.Fatalf("delivery order diverges at %d: %v=%q %v=%q",
						x, ids[i], a[x], ids[j], b[x])
				}
			}
		}
	}
}

func nodeIDs(n int) []transport.NodeID {
	out := make([]transport.NodeID, n)
	for i := range out {
		out[i] = transport.NodeID(i)
	}
	return out
}

func TestBootstrapRingDeliversTotalOrder(t *testing.T) {
	h := newHarness(t, 1, nil)
	ids := nodeIDs(4)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()

	const perNode = 25
	for i, id := range ids {
		id := id
		node := h.nodes[id]
		for m := 0; m < perNode; m++ {
			msg := fmt.Sprintf("n%d-m%d", i, m)
			at := time.Duration(m*100+i*13) * time.Microsecond
			h.k.At(at, func() { node.Broadcast([]byte(msg)) })
		}
	}
	want := perNode * len(ids)
	ok := h.runUntil(time.Second, func() bool {
		for _, id := range ids {
			if len(h.deliveries[id]) < want {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, id := range ids {
			t.Logf("%v delivered %d", id, len(h.deliveries[id]))
		}
		t.Fatal("not all messages delivered")
	}
	h.checkPrefixConsistency(ids...)
	// Exactly want messages, no duplicates.
	for _, id := range ids {
		if len(h.deliveries[id]) != want {
			t.Fatalf("%v delivered %d, want %d", id, len(h.deliveries[id]), want)
		}
		seen := make(map[string]bool)
		for _, p := range h.deliveries[id] {
			if seen[p] {
				t.Fatalf("%v delivered duplicate %q", id, p)
			}
			seen[p] = true
		}
	}
	// Sender FIFO: messages from one node are delivered in send order.
	for _, id := range ids {
		last := make(map[transport.NodeID]int)
		for x := range h.deliveries[id] {
			var ni, mi int
			fmt.Sscanf(h.deliveries[id][x], "n%d-m%d", &ni, &mi)
			sender := transport.NodeID(ni)
			if prev, ok := last[sender]; ok && mi <= prev {
				t.Fatalf("%v: sender %v FIFO violated: m%d after m%d", id, sender, mi, prev)
			}
			last[sender] = mi
		}
	}
}

func TestInitialViewEmitted(t *testing.T) {
	h := newHarness(t, 2, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(time.Millisecond)
	for _, id := range ids {
		if len(h.views[id]) == 0 {
			t.Fatalf("%v got no initial view", id)
		}
		v := h.views[id][0]
		if len(v.Members) != 3 || !v.Primary {
			t.Fatalf("%v initial view = %+v", id, v)
		}
	}
}

func TestSingleNodeRing(t *testing.T) {
	h := newHarness(t, 3, nil)
	n := h.addNode(0, []transport.NodeID{0}, true)
	h.startAll()
	for i := 0; i < 10; i++ {
		msg := fmt.Sprintf("m%d", i)
		h.k.At(time.Duration(i)*50*time.Microsecond, func() { n.Broadcast([]byte(msg)) })
	}
	ok := h.runUntil(100*time.Millisecond, func() bool { return len(h.deliveries[0]) >= 10 })
	if !ok {
		t.Fatalf("single-node ring delivered %d/10", len(h.deliveries[0]))
	}
	for i := 0; i < 10; i++ {
		if h.deliveries[0][i] != fmt.Sprintf("m%d", i) {
			t.Fatalf("order broken at %d: %v", i, h.deliveries[0])
		}
	}
}

func TestDeliveryUnderMessageLoss(t *testing.T) {
	h := newHarness(t, 4, nil)
	ids := nodeIDs(4)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.net.SetLoss(0.05)
	h.startAll()

	const perNode = 20
	for i, id := range ids {
		node := h.nodes[id]
		for m := 0; m < perNode; m++ {
			msg := fmt.Sprintf("n%d-m%d", i, m)
			h.k.At(time.Duration(m*200+i*17)*time.Microsecond, func() { node.Broadcast([]byte(msg)) })
		}
	}
	want := perNode * len(ids)
	ok := h.runUntil(5*time.Second, func() bool {
		for _, id := range ids {
			if len(h.deliveries[id]) < want {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, id := range ids {
			t.Logf("%v delivered %d/%d", id, len(h.deliveries[id]), want)
		}
		t.Fatal("messages lost despite retransmission")
	}
	h.checkPrefixConsistency(ids...)
}

func TestSafeDeliveryMode(t *testing.T) {
	h := newHarness(t, 5, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true, func(c *Config) { c.Mode = Safe })
	}
	h.startAll()
	node := h.nodes[0]
	for i := 0; i < 15; i++ {
		msg := fmt.Sprintf("m%d", i)
		h.k.At(time.Duration(i*100)*time.Microsecond, func() { node.Broadcast([]byte(msg)) })
	}
	ok := h.runUntil(time.Second, func() bool {
		for _, id := range ids {
			if len(h.deliveries[id]) < 15 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("safe mode did not deliver all messages")
	}
	h.checkPrefixConsistency(ids...)
}

func TestMemberCrashReformsRing(t *testing.T) {
	h := newHarness(t, 6, nil)
	ids := nodeIDs(4)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	// Crash P3 (not the representative).
	h.nodes[3].Stop()
	h.net.Endpoint(3).SetDown(true)

	ok := h.runUntil(time.Second, func() bool {
		for _, id := range ids[:3] {
			vs := h.views[id]
			if len(vs) == 0 || len(vs[len(vs)-1].Members) != 3 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("survivors did not install a 3-member view")
	}
	// The ring still works.
	node := h.nodes[0]
	before := len(h.deliveries[1])
	h.k.Post(func() { node.Broadcast([]byte("after-crash")) })
	ok = h.runUntil(time.Second, func() bool { return len(h.deliveries[1]) > before })
	if !ok {
		t.Fatal("no delivery after crash recovery")
	}
	h.checkPrefixConsistency(0, 1, 2)
}

func TestRepresentativeCrashReformsRing(t *testing.T) {
	h := newHarness(t, 7, nil)
	ids := nodeIDs(4)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	h.nodes[0].Stop()
	h.net.Endpoint(0).SetDown(true)

	ok := h.runUntil(time.Second, func() bool {
		for _, id := range ids[1:] {
			vs := h.views[id]
			if len(vs) == 0 || len(vs[len(vs)-1].Members) != 3 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("survivors did not reform after representative crash")
	}
	// New ring's representative is P1.
	vs := h.views[1]
	if got := vs[len(vs)-1].Ring.Rep; got != 1 {
		t.Fatalf("new representative = %v, want P1", got)
	}
	node := h.nodes[2]
	before := len(h.deliveries[1])
	h.k.Post(func() { node.Broadcast([]byte("post-rep-crash")) })
	if !h.runUntil(time.Second, func() bool { return len(h.deliveries[1]) > before }) {
		t.Fatal("ring dead after representative crash")
	}
	h.checkPrefixConsistency(1, 2, 3)
}

func TestMessagesInFlightSurviveMembershipChange(t *testing.T) {
	h := newHarness(t, 8, nil)
	ids := nodeIDs(4)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	// Broadcast a burst, crash a node immediately afterwards.
	node := h.nodes[1]
	for i := 0; i < 30; i++ {
		msg := fmt.Sprintf("burst-%d", i)
		h.k.Post(func() { node.Broadcast([]byte(msg)) })
	}
	h.k.RunFor(150 * time.Microsecond) // partially sent
	h.nodes[3].Stop()
	h.net.Endpoint(3).SetDown(true)

	ok := h.runUntil(2*time.Second, func() bool {
		for _, id := range ids[:3] {
			if len(h.deliveries[id]) < 30 {
				return false
			}
		}
		return true
	})
	if !ok {
		for _, id := range ids[:3] {
			t.Logf("%v delivered %d/30", id, len(h.deliveries[id]))
		}
		t.Fatal("burst lost across membership change")
	}
	h.checkPrefixConsistency(0, 1, 2)
	// FIFO per sender preserved across the membership change.
	for _, id := range ids[:3] {
		prev := -1
		for _, p := range h.deliveries[id] {
			var x int
			if _, err := fmt.Sscanf(p, "burst-%d", &x); err == nil {
				if x != prev+1 {
					t.Fatalf("%v: burst order broken: got %d after %d", id, x, prev)
				}
				prev = x
			}
		}
	}
}

func TestNewNodeJoinsExistingRing(t *testing.T) {
	h := newHarness(t, 9, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	// P3 joins.
	joiner := h.addNode(3, nodeIDs(4), false)
	joiner.Start()

	ok := h.runUntil(time.Second, func() bool {
		vs := h.views[3]
		return len(vs) > 0 && len(vs[len(vs)-1].Members) == 4
	})
	if !ok {
		t.Fatal("joiner did not install the 4-member view")
	}
	// All members see 4-member views and subsequent deliveries reach P3.
	node := h.nodes[0]
	h.k.Post(func() { node.Broadcast([]byte("welcome")) })
	ok = h.runUntil(time.Second, func() bool {
		for _, id := range nodeIDs(4) {
			found := false
			for _, p := range h.deliveries[id] {
				if p == "welcome" {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("post-join broadcast did not reach everyone")
	}
}

func TestCrashedNodeRejoins(t *testing.T) {
	h := newHarness(t, 10, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	h.nodes[2].Stop()
	h.net.Endpoint(2).SetDown(true)
	ok := h.runUntil(time.Second, func() bool {
		vs := h.views[0]
		return len(vs) > 0 && len(vs[len(vs)-1].Members) == 2
	})
	if !ok {
		t.Fatal("2-member ring not formed after crash")
	}

	// Restart P2 with a fresh node instance (lost all state).
	h.net.Endpoint(2).SetDown(false)
	h.deliveries[2] = nil
	h.views[2] = nil
	restarted := h.addNode(2, ids, false)
	restarted.Start()

	ok = h.runUntil(2*time.Second, func() bool {
		vs := h.views[2]
		return len(vs) > 0 && len(vs[len(vs)-1].Members) == 3
	})
	if !ok {
		t.Fatal("restarted node did not rejoin")
	}
	node := h.nodes[0]
	h.k.Post(func() { node.Broadcast([]byte("again")) })
	ok = h.runUntil(time.Second, func() bool {
		for _, p := range h.deliveries[2] {
			if p == "again" {
				return true
			}
		}
		return false
	})
	if !ok {
		t.Fatal("rejoined node does not receive broadcasts")
	}
}

func TestPartitionPrimaryComponent(t *testing.T) {
	h := newHarness(t, 11, nil)
	ids := nodeIDs(4)
	for _, id := range ids {
		h.addNode(id, ids, true)
	}
	h.startAll()
	h.k.RunFor(2 * time.Millisecond)

	// 3/1 partition: {0,1,2} keeps quorum (3 of 4), {3} does not.
	h.net.Partition([]transport.NodeID{0, 1, 2}, []transport.NodeID{3})

	ok := h.runUntil(2*time.Second, func() bool {
		vs0 := h.views[0]
		vs3 := h.views[3]
		return len(vs0) > 0 && len(vs0[len(vs0)-1].Members) == 3 &&
			len(vs3) > 0 && len(vs3[len(vs3)-1].Members) == 1
	})
	if !ok {
		t.Fatal("partition views not installed")
	}
	v0 := h.views[0][len(h.views[0])-1]
	v3 := h.views[3][len(h.views[3])-1]
	if !v0.Primary {
		t.Fatal("majority component should be primary")
	}
	if v3.Primary {
		t.Fatal("minority component must not be primary")
	}

	// Heal; a single 4-member primary ring reforms.
	h.net.Heal()
	ok = h.runUntil(2*time.Second, func() bool {
		for _, id := range ids {
			vs := h.views[id]
			if len(vs) == 0 {
				return false
			}
			last := vs[len(vs)-1]
			if len(last.Members) != 4 || !last.Primary {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatal("ring did not remerge after heal")
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() []string {
		h := newHarness(t, 42, nil)
		ids := nodeIDs(4)
		for _, id := range ids {
			h.addNode(id, ids, true)
		}
		h.startAll()
		for i, id := range ids {
			node := h.nodes[id]
			for m := 0; m < 10; m++ {
				msg := fmt.Sprintf("n%d-m%d", i, m)
				h.k.At(time.Duration(m*150+i*29)*time.Microsecond, func() { node.Broadcast([]byte(msg)) })
			}
		}
		h.runUntil(time.Second, func() bool { return len(h.deliveries[0]) >= 40 })
		return h.deliveries[0]
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestStatsCounters(t *testing.T) {
	rec, err := obs.New(obs.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarness(t, 12, nil)
	ids := nodeIDs(3)
	for _, id := range ids {
		h.addNode(id, ids, true, func(c *Config) { c.Obs = rec.ForNode(uint32(id)) })
	}
	h.startAll()
	node := h.nodes[1]
	h.k.Post(func() { node.Broadcast([]byte("x")) })
	h.runUntil(time.Second, func() bool { return len(h.deliveries[0]) >= 1 })
	counter := func(name string) uint64 {
		var v uint64
		for _, s := range rec.Samples() {
			if s.Node == 1 && s.Name == name {
				v += s.Value
			}
		}
		return v
	}
	if counter("totem.tokens_handled") == 0 {
		t.Fatal("no tokens handled")
	}
	if counter("totem.broadcasts") == 0 {
		t.Fatal("no broadcasts counted")
	}
	if counter("totem.delivered") == 0 {
		t.Fatal("no deliveries counted")
	}
}

func TestBroadcastAfterStop(t *testing.T) {
	h := newHarness(t, 13, nil)
	n := h.addNode(0, nodeIDs(1), true)
	h.startAll()
	h.k.RunFor(time.Millisecond)
	n.Stop()
	// Broadcast after stop is silently dropped (posted to a stopped node).
	n.Broadcast([]byte("late"))
	h.k.RunFor(time.Millisecond)
	for _, p := range h.deliveries[0] {
		if p == "late" {
			t.Fatal("message delivered after Stop")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	k := sim.NewKernel(1)
	net := simnet.NewNetwork(k, nil)
	ep := net.Endpoint(0)
	deliver := func(Delivery) {}
	if _, err := New(Config{Transport: ep, Deliver: deliver}); err == nil {
		t.Fatal("missing Runtime accepted")
	}
	if _, err := New(Config{Runtime: k, Deliver: deliver}); err == nil {
		t.Fatal("missing Transport accepted")
	}
	if _, err := New(Config{Runtime: k, Transport: ep}); err == nil {
		t.Fatal("missing Deliver accepted")
	}
	// Local node is added to Members automatically.
	n, err := New(Config{Runtime: k, Transport: ep, Deliver: deliver,
		Members: []transport.NodeID{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !containsNode(n.members, 0) {
		t.Fatal("local node not added to members")
	}
}

func TestHelperFunctions(t *testing.T) {
	if got := dedupSorted([]uint64{5, 3, 3, 1, 5}); len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("dedupSorted = %v", got)
	}
	if got := dedupSorted(nil); got != nil {
		t.Fatalf("dedupSorted(nil) = %v", got)
	}
	s := sortedNodes([]transport.NodeID{3, 1, 3, 2})
	if len(s) != 3 || s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Fatalf("sortedNodes = %v", s)
	}
	if successorIn([]transport.NodeID{1, 3, 5}, 3) != 5 {
		t.Fatal("successorIn middle")
	}
	if successorIn([]transport.NodeID{1, 3, 5}, 5) != 1 {
		t.Fatal("successorIn wrap")
	}
	r1 := RingID{Seq: 1, Rep: 2}
	r2 := RingID{Seq: 1, Rep: 3}
	r3 := RingID{Seq: 2, Rep: 0}
	if !r1.Less(r2) || !r2.Less(r3) || r3.Less(r1) {
		t.Fatal("RingID.Less ordering")
	}
}

// countingTransport wraps a transport and counts outgoing datagrams; the
// counter is only touched on the kernel loop and read between run steps.
type countingTransport struct {
	transport.Transport
	sends int
}

func (c *countingTransport) Send(to transport.NodeID, p []byte) error {
	c.sends++
	return c.Transport.Send(to, p)
}

func (c *countingTransport) Broadcast(p []byte) error {
	c.sends++
	return c.Transport.Broadcast(p)
}

// TestNoTimerActivityAfterStop is the regression test for the protocol
// timers' stop discipline: a node left alone retransmitting the token (its
// successor is partitioned away, the loss timeout is far off) keeps a
// self-re-arming retransmission timer running. After Stop, no timer may act
// or re-arm — the node must fall completely silent, even though timer
// callbacks that already fired can still be delivered after cancellation.
func TestNoTimerActivityAfterStop(t *testing.T) {
	h := newHarness(t, 3, nil)
	ids := nodeIDs(2)
	const retrans = 500 * time.Microsecond
	ctr := &countingTransport{Transport: h.net.Endpoint(ids[0])}
	tune := func(c *Config) {
		c.TokenRetransTimeout = retrans
		c.TokenLossTimeout = 30 * time.Second // keep membership changes out
		c.AnnounceInterval = time.Millisecond
	}
	h.addNode(ids[0], ids, true, tune, func(c *Config) { c.Transport = ctr })
	h.addNode(ids[1], ids, true, tune)
	h.startAll()
	if !h.runUntil(time.Second, func() bool {
		return len(h.views[0]) > 0 && len(h.views[1]) > 0
	}) {
		t.Fatal("ring never formed")
	}

	// Cut off the successor: node 0's forwarded tokens vanish, so its
	// retransmission timer keeps firing and re-arming.
	h.net.Endpoint(ids[1]).SetDown(true)
	before := ctr.sends
	h.k.RunFor(20 * retrans)
	if ctr.sends <= before {
		t.Fatal("partitioned node never retransmitted; the test exercises nothing")
	}

	h.nodes[0].Stop()
	h.k.RunFor(time.Millisecond) // drain the stop post and in-flight callbacks
	quiesced := ctr.sends
	h.k.RunFor(20 * retrans)
	if ctr.sends != quiesced {
		t.Fatalf("node sent %d datagram(s) after Stop", ctr.sends-quiesced)
	}
}
