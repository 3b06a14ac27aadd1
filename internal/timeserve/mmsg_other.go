//go:build !linux || !(amd64 || arm64)

package timeserve

import "net"

// This platform has no recvmmsg/sendmmsg shim; shards always run the
// sequential serve loop and burst clients fall back to one datagram per
// syscall. The stubs keep the fallback ladder — and the pinned allocfree
// root — identical across builds.
const mmsgSupported = false

// mmsgRing is the batched-I/O state on builds that have none.
type mmsgRing struct{ nrecv int }

// serveBatched reports that the batched path is unavailable; serve falls
// back to the sequential loop.
func (s *Server) serveBatched(pc net.PacketConn, sh *shard) bool { return false }

// serveBatch is the pinned allocfree root of the batched serve path. On
// builds without the syscalls it has nothing to do — the annotation (and the
// Config.AllocfreeRequire pin) stay in force so the hot-path contract cannot
// silently vanish on any platform.
//
//cts:allocfree
func (s *Server) serveBatch(sh *shard, r *mmsgRing) {}

// clientBurst is the client-side batched-I/O state on builds that have none.
type clientBurst struct{}

// burstState reports no batched ring; QueryBurst stays on the sequential
// path.
func (c *Client) burstState(i int, conn *net.UDPConn) *clientBurst { return nil }

// mmsgBurst is unreachable on this build (burstState never returns a ring);
// the stub keeps client.go portable.
func (c *Client) mmsgBurst(b *clientBurst, target int, base uint64, dgrams, k int) ([]Response, bool, error) {
	return nil, false, nil
}
