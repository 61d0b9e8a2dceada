//go:build linux && (amd64 || arm64)

package rudp

import (
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// sysSendmmsg is the sendmmsg(2) syscall number; the stdlib's frozen syscall
// tables predate it on amd64.
var sysSendmmsg = map[string]uintptr{"amd64": 307, "arm64": 269}[runtime.GOARCH]

// batchState is sendBatch's syscall scratch — the path sockets' raw conns,
// the iovecs, message headers and raw destination address, and the write
// callback — kept on the driver and reused across flushes (flushes run one
// at a time on the loop), so a batch allocates nothing.
type batchState struct {
	socks []*net.UDPConn
	raws  []syscall.RawConn
	iovs  []syscall.Iovec
	msgs  []mmsghdr
	out   []mmsghdr // the batch in flight: out[sent:] is still unsent
	sent  int
	write func(fd uintptr) bool
	sa4   syscall.RawSockaddrInet4
	sa6   syscall.RawSockaddrInet6
}

// sendBatch transmits a run of datagrams to one destination with a single
// sendmmsg(2) per syscall round — the writev-style batched socket write of
// the zero-copy pipeline. Any failure falls back to per-datagram writes;
// send errors are deliberately ignored (UDP semantics: the link monitor
// detects dead peers through silence).
func sendBatch(sock *net.UDPConn, addr *net.UDPAddr, bufs [][]byte, st *batchState) {
	if len(bufs) == 1 {
		sock.WriteToUDP(bufs[0], addr)
		return
	}
	rc, err := st.rawConn(sock)
	if err != nil {
		sendBatchFallback(sock, addr, bufs)
		return
	}
	sa, salen, ok := st.rawSockaddr(addr)
	if !ok {
		sendBatchFallback(sock, addr, bufs)
		return
	}
	if cap(st.msgs) < len(bufs) {
		st.iovs = make([]syscall.Iovec, len(bufs))
		st.msgs = make([]mmsghdr, len(bufs))
	}
	iovs, msgs := st.iovs[:len(bufs)], st.msgs[:len(bufs)]
	for i, b := range bufs {
		iovs[i].Base = &b[0]
		iovs[i].SetLen(len(b))
		msgs[i] = mmsghdr{}
		msgs[i].hdr.Name = (*byte)(sa)
		msgs[i].hdr.Namelen = salen
		msgs[i].hdr.Iov = &iovs[i]
		msgs[i].hdr.Iovlen = 1 // uint64 on amd64/arm64, matching the build tags
	}
	if st.write == nil {
		st.write = st.sendmmsg
	}
	st.out, st.sent = msgs, 0
	werr := rc.Write(st.write)
	runtime.KeepAlive(bufs)
	sent := st.sent
	// The scratch must not pin the datagrams' frames past the flush.
	clear(iovs)
	st.out = nil
	if werr != nil || sent < len(bufs) {
		for _, b := range bufs[sent:] {
			sock.WriteToUDP(b, addr)
		}
	}
}

// sendmmsg is the raw-conn write callback: it sends st.out[st.sent:],
// reporting false to wait for writability.
func (st *batchState) sendmmsg(fd uintptr) bool {
	for st.sent < len(st.out) {
		n, _, errno := syscall.Syscall6(sysSendmmsg, fd,
			uintptr(unsafe.Pointer(&st.out[st.sent])), uintptr(len(st.out)-st.sent), 0, 0, 0)
		if errno == syscall.EAGAIN {
			return false // wait for writability, then retry
		}
		if errno != 0 {
			return true // give up; the caller resends the rest one by one
		}
		st.sent += int(n)
	}
	return true
}

// rawConn returns sock's raw conn, made once per socket.
func (st *batchState) rawConn(sock *net.UDPConn) (syscall.RawConn, error) {
	for i, s := range st.socks {
		if s == sock {
			return st.raws[i], nil
		}
	}
	rc, err := sock.SyscallConn()
	if err == nil {
		st.socks = append(st.socks, sock)
		st.raws = append(st.raws, rc)
	}
	return rc, err
}

// mmsghdr mirrors struct mmsghdr from sendmmsg(2).
type mmsghdr struct {
	hdr syscall.Msghdr
	len uint32
	_   [4]byte
}

// rawSockaddr encodes a UDP address into the scratch's raw sockaddr, the
// form sendmmsg expects.
func (st *batchState) rawSockaddr(addr *net.UDPAddr) (unsafe.Pointer, uint32, bool) {
	if ip4 := addr.IP.To4(); ip4 != nil {
		st.sa4 = syscall.RawSockaddrInet4{Family: syscall.AF_INET}
		st.sa4.Port = uint16(addr.Port>>8) | uint16(addr.Port&0xff)<<8
		copy(st.sa4.Addr[:], ip4)
		return unsafe.Pointer(&st.sa4), syscall.SizeofSockaddrInet4, true
	}
	if ip6 := addr.IP.To16(); ip6 != nil {
		st.sa6 = syscall.RawSockaddrInet6{Family: syscall.AF_INET6}
		st.sa6.Port = uint16(addr.Port>>8) | uint16(addr.Port&0xff)<<8
		copy(st.sa6.Addr[:], ip6)
		return unsafe.Pointer(&st.sa6), syscall.SizeofSockaddrInet6, true
	}
	return nil, 0, false
}

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

func sendBatchFallback(sock *net.UDPConn, addr *net.UDPAddr, bufs [][]byte) {
	for _, b := range bufs {
		sock.WriteToUDP(b, addr)
	}
}
