//go:build !linux

package rudp

import "net"

// grantedBuffers reports the request: reading the granted size back is only
// wired up on Linux.
func grantedBuffers(sock *net.UDPConn, asked int) (rcv, snd int) { return asked, asked }
