package main

import (
	"sync/atomic"

	"cts/internal/rpc"
)

// readRec is one consistent read as the caller saw it. Its ordinal is the
// phase's first ordinal plus its index.
type readRec struct {
	start int64 // before Invoke
	end   int64 // first reply delivered on the client's loop
	ok    bool
}

// ccsCaller is the closed-loop caller on P0: each read is issued from the
// previous read's reply callback, on the client's own event loop, so the
// caller adds no goroutine of its own. Its records go into buffers the run
// allocated before the measured span; reads beyond their capacity are
// checked and counted but not recorded.
type ccsCaller struct {
	c     *cluster
	first uint64
	next  uint64
	stop  atomic.Bool
	// Loop-owned until done is closed.
	reads         []readRec
	execs         []execRecord // the replying replica's execution; nil unless traced
	n, ok, failed uint64
	done          chan struct{}
}

// startCaller begins the closed loop at ordinal first, recording into
// reads[:0] and, if non-nil, execs[:0].
func startCaller(c *cluster, first uint64, reads []readRec, execs []execRecord) *ccsCaller {
	k := &ccsCaller{c: c, first: first, next: first, reads: reads[:0], done: make(chan struct{})}
	if execs != nil {
		k.execs = execs[:0]
	}
	c.loops[0].Post(k.issue)
	return k
}

// issue sends the next read. Loop-only.
func (k *ccsCaller) issue() {
	if k.stop.Load() {
		close(k.done)
		return
	}
	ord := k.next
	k.next++
	start := now()
	k.c.client.Invoke("CurrentTime", ordinalBody(ord), func(r rpc.Reply) {
		end := now()
		v, err := replyValue(r)
		ok := k.c.ccs.read(ord, r.Replica, v, err)
		e := execRecord{value: -1}
		if err == nil {
			var agreed bool
			e, agreed = k.c.log.reading(r.Replica, ord, int64(v))
			ok = ok && agreed
		}
		k.n++
		if ok {
			k.ok++
		} else {
			k.failed++
		}
		if len(k.reads) < cap(k.reads) {
			k.reads = append(k.reads, readRec{start: start, end: end, ok: ok})
			if k.execs != nil {
				k.execs = append(k.execs, e)
			}
		}
		k.issue()
	})
}

// finish stops the loop after the read in flight and returns the caller,
// whose fields are then safe to read.
func (k *ccsCaller) finish() *ccsCaller {
	k.stop.Store(true)
	<-k.done
	return k
}
