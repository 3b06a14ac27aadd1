package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"cts/internal/timeserve"
)

// Leased load shape: every burst is burstDgrams datagrams of burstQueries
// queries to one replica.
const (
	burstDgrams  = 8
	burstQueries = 8
	burstSize    = burstDgrams * burstQueries
)

// genConfig configures one open-loop phase.
type genConfig struct {
	targets []*net.UDPAddr
	rate    float64 // queries per second
	seed    int64
	start   int64 // first due time (clock ns)
	end     int64 // no burst is due at or after end
	// drain is how long the receiver waits for replies after the last send.
	drain time.Duration
	// bursts, if long enough, is the zeroed burst table to fill; otherwise
	// openLoop allocates one.
	bursts []burst
}

// burstCapacity is the burst table length a phase of length d at rate
// queries per second needs: its expected bursts with a fifth to spare for
// Poisson variation.
func burstCapacity(d time.Duration, rate float64) int {
	return int(d.Seconds()*rate/burstSize*1.2) + 64
}

// burst is one open-loop exchange. The sender fills it and publishes it
// through seq; the receiver owns the reply fields after that.
type burst struct {
	seq    atomic.Uint64 // index+1 once sent
	due    int64
	sent   int64
	target uint32
	floors leaseFloors
	// receiver-owned
	left   int32
	failed int32
	last   int64
}

// genResult is what one phase produced.
type genResult struct {
	bursts   []burst
	sent     int    // bursts sent
	queries  uint64 // queries answered with a reading that passed the oracle
	refused  uint64 // FlagStale answers
	bad      uint64 // answers failing the oracle
	lost     uint64 // queries never answered
	strays   uint64 // datagrams matching no burst
	maxQueue int64  // most bursts in flight at once
}

// openLoop drives leased bursts at cfg.rate with Poisson arrivals. One
// goroutine sends every burst when it falls due, never waiting for replies;
// a second goroutine receives, checks every reading with the oracle, and
// times each burst from its due time to its last reply.
func openLoop(cfg genConfig, or *leaseOracle) (*genResult, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	pace, err := newPacer()
	if err != nil {
		return nil, err
	}
	defer pace.close()

	meanGap := 1e9 * burstSize / cfg.rate
	capacity := burstCapacity(time.Duration(cfg.end-cfg.start), cfg.rate)
	res := &genResult{bursts: cfg.bursts}
	if len(res.bursts) < capacity {
		res.bursts = make([]burst, capacity)
	}
	capacity = len(res.bursts)

	addrs := make([]netip.AddrPort, len(cfg.targets))
	for i, a := range cfg.targets {
		ap := a.AddrPort()
		addrs[i] = netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
	}

	var wg sync.WaitGroup
	var sendErr error
	var sentN atomic.Int64
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed))
		var out [burstDgrams][burstQueries * timeserve.ReqSize]byte
		due := cfg.start
		for i := 0; i < capacity; i++ {
			due += int64(rng.ExpFloat64() * meanGap)
			if due >= cfg.end {
				break
			}
			pace.until(due)
			b := &res.bursts[i]
			b.due = due
			b.target = uint32(i % len(cfg.targets))
			b.left = burstSize
			for d := range out {
				for q := 0; q < burstQueries; q++ {
					timeserve.PutRequest(out[d][q*timeserve.ReqSize:], timeserve.Request{Nonce: uint64(i*burstSize + d*burstQueries + q)})
				}
			}
			or.snapshot(&b.floors)
			b.sent = now()
			b.seq.Store(uint64(i + 1))
			sentN.Store(int64(i + 1))
			for d := range out {
				if _, err := conn.WriteToUDPAddrPort(out[d][:], addrs[b.target]); err != nil {
					sendErr = fmt.Errorf("send burst %d: %w", i, err)
					return
				}
			}
		}
	}()

	var done atomic.Int64 // bursts fully answered
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		buf := make([]byte, timeserve.MaxDatagram)
		for {
			n, _, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // the read deadline below ends the phase
			}
			res.receive(buf[:n], now(), or, &done, &sentN)
		}
	}()

	wg.Wait()
	// Wait for the outstanding replies, then end the receiver.
	deadline := time.Now().Add(cfg.drain)
	for done.Load() < sentN.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_ = conn.SetReadDeadline(time.Now())
	<-recvDone
	res.sent = int(sentN.Load())
	for i := 0; i < res.sent; i++ {
		res.lost += uint64(max(res.bursts[i].left, 0))
	}
	res.bursts = res.bursts[:res.sent]
	return res, sendErr
}

// receive checks and accounts one response datagram received at t.
// Receiver-only.
func (res *genResult) receive(dg []byte, t int64, or *leaseOracle, done, sentN *atomic.Int64) {
	for off := 0; off+timeserve.RespSize <= len(dg); off += timeserve.RespSize {
		r, err := timeserve.ParseResponse(dg[off:])
		if err != nil {
			res.strays++
			return
		}
		i := r.Nonce / burstSize
		if i >= uint64(len(res.bursts)) || res.bursts[i].seq.Load() != i+1 {
			res.strays++
			continue
		}
		b := &res.bursts[i]
		if b.left <= 0 {
			res.strays++
			continue
		}
		switch {
		case !r.OK():
			res.refused++
			b.failed++
		case !or.check(&b.floors, r.Node, r.Epoch, r.Group, r.Bound):
			res.bad++
			b.failed++
		default:
			or.complete(r.Node, r.Group, r.Bound)
			res.queries++
		}
		b.left--
		if b.left == 0 {
			b.last = t
			done.Add(1)
		}
		if q := sentN.Load() - done.Load(); q > res.maxQueue {
			res.maxQueue = q
		}
	}
}

// latencies returns each fully and correctly answered burst's due time and
// its latency from due time to last reply.
func (r *genResult) latencies() (due, lat []int64) {
	for i := range r.bursts {
		b := &r.bursts[i]
		if b.left == 0 && b.failed == 0 {
			due = append(due, b.due)
			lat = append(lat, b.last-b.due)
		}
	}
	return due, lat
}

// lateness returns each sent burst's delay from its due time to its send.
func (r *genResult) lateness() []int64 {
	late := make([]int64, len(r.bursts))
	for i := range r.bursts {
		late[i] = r.bursts[i].sent - r.bursts[i].due
	}
	return late
}

// pacer sleeps until a due time on a timerfd the Go netpoller waits on, so
// the sender wakes with the kernel timer's precision instead of the
// millisecond granularity of an idle runtime timer, without spinning.
type pacer struct {
	fd  int
	f   *os.File
	buf [8]byte
}

// itimerspec mirrors struct itimerspec.
type itimerspec struct{ interval, value syscall.Timespec }

func newPacer() (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic,
		syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: int(fd), f: os.NewFile(fd, "timerfd")}, nil
}

// until returns at or after the clock reaches t.
func (p *pacer) until(t int64) {
	d := t - now()
	if d <= 0 {
		return
	}
	spec := itimerspec{value: syscall.NsecToTimespec(d)}
	_, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, uintptr(p.fd), 0,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	if errno != 0 {
		time.Sleep(time.Duration(d)) // cannot arm: coarse sleep still keeps the schedule
		return
	}
	if _, err := p.f.Read(p.buf[:]); err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		time.Sleep(time.Duration(t - now()))
	}
}

func (p *pacer) close() { _ = p.f.Close() } // an unread timer fd has nothing to flush
