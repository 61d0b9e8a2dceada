//go:build !linux || !(amd64 || arm64)

package rudp

import "net"

// sendBatch transmits a run of datagrams to one destination. The portable
// implementation writes them one by one; Linux batches with sendmmsg(2).
// Send errors are ignored (UDP semantics: dead peers surface as silence to
// the link monitor).
func sendBatch(sock *net.UDPConn, addr *net.UDPAddr, bufs [][]byte, _ *batchState) {
	for _, b := range bufs {
		sock.WriteToUDP(b, addr)
	}
}

// batchState is sendBatch's reused scratch; the portable path needs none.
type batchState struct{}

// grantedBuffers reports the request: reading the granted size back is only
// wired up on Linux.
func grantedBuffers(sock *net.UDPConn, asked int) (rcv, snd int) { return asked, asked }
