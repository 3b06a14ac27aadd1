package main

import (
	"net"
	"testing"
	"time"

	"cts/internal/timeserve"
)

// respond answers timeserve queries with an honest clock, except that it
// stops answering from stallFrom until stallTo (clock ns), as a replica
// whose serving goroutine is descheduled would.
func respond(conn *net.UDPConn, stallFrom, stallTo int64) {
	buf := make([]byte, timeserve.MaxDatagram)
	var out []byte
	for {
		n, addr, err := conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if t := now(); t >= stallFrom && t < stallTo {
			time.Sleep(time.Duration(stallTo - t))
		}
		out = out[:0]
		for off := 0; off+timeserve.ReqSize <= n; off += timeserve.ReqSize {
			q, err := timeserve.ParseRequest(buf[off:])
			if err != nil {
				break
			}
			out = timeserve.AppendResponse(out, timeserve.Response{Flags: timeserve.FlagOK, Node: 1,
				Nonce: q.Nonce, Group: time.Duration(now()) + time.Hour, Bound: time.Millisecond})
		}
		if _, err := conn.WriteToUDP(out, addr); err != nil {
			return
		}
	}
}

// TestOpenLoopStallRaisesDueTimeLatency stalls the responder for 150ms in
// the middle of a phase. An open-loop generator keeps sending on schedule
// through the stall, so every burst queued behind it is charged the wait
// from its due time: a burst due d before the stall ends waits about d.
func TestOpenLoopStallRaisesDueTimeLatency(t *testing.T) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadBuffer(4 << 20)
	start := now() + int64(20*time.Millisecond)
	stallFrom := start + int64(200*time.Millisecond)
	stallTo := stallFrom + int64(150*time.Millisecond)
	done := make(chan struct{})
	go func() { defer close(done); respond(conn, stallFrom, stallTo) }()
	defer func() { conn.Close(); <-done }()

	or := newLeaseOracle()
	res, err := openLoop(genConfig{
		targets: []*net.UDPAddr{conn.LocalAddr().(*net.UDPAddr)},
		rate:    64_000, // 1000 bursts/s
		seed:    1,
		start:   start,
		end:     start + int64(600*time.Millisecond),
		drain:   time.Second,
	}, or)
	if err != nil {
		t.Fatal(err)
	}
	if res.lost != 0 || res.refused != 0 || res.bad != 0 || or.log.count.Load() != 0 {
		t.Fatalf("lost %d refused %d bad %d violations %d", res.lost, res.refused, res.bad, or.log.count.Load())
	}
	var during, sentDuring, charged int
	for i := range res.bursts {
		b := &res.bursts[i]
		// Bursts due well inside the stall, so the responder is surely asleep.
		if b.due < stallFrom+int64(20*time.Millisecond) || b.due >= stallTo-int64(20*time.Millisecond) {
			continue
		}
		during++
		if b.sent < stallTo {
			sentDuring++
		}
		if b.last-b.due >= stallTo-b.due {
			charged++
		}
	}
	if during < 50 {
		t.Fatalf("only %d bursts fell due during the stall", during)
	}
	// The sender never waits for replies: bursts go out during the stall.
	if sentDuring < during*9/10 {
		t.Errorf("%d of %d bursts due during the stall were sent during it", sentDuring, during)
	}
	// Each is charged the wait from its due time to the stall's end.
	if charged != during {
		t.Errorf("%d of %d bursts due during the stall were charged the rest of the stall", charged, during)
	}
	// Bursts well before the stall were answered long before it ended.
	var early []int64
	for i := range res.bursts {
		if b := &res.bursts[i]; b.due < stallFrom-int64(50*time.Millisecond) {
			early = append(early, b.last-b.due)
		}
	}
	if p50 := quantile(early, 0.5); p50 > int64(50*time.Millisecond) {
		t.Errorf("bursts before the stall: p50 latency %v", time.Duration(p50))
	}
}
