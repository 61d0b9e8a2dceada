//go:build linux

package rudp

import (
	"net"
	"syscall"
)

// grantedBuffers reads back the SO_RCVBUF and SO_SNDBUF sizes the kernel
// granted a socket; a failed read reports the request.
func grantedBuffers(sock *net.UDPConn, asked int) (rcv, snd int) {
	rcv, snd = asked, asked
	rc, err := sock.SyscallConn()
	if err != nil {
		return rcv, snd
	}
	rc.Control(func(fd uintptr) {
		if v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF); err == nil {
			rcv = v
		}
		if v, err := syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF); err == nil {
			snd = v
		}
	})
	return rcv, snd
}
