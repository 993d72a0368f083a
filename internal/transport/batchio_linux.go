//go:build linux && (amd64 || arm64)

package transport

// Linux batch I/O: recvmmsg/sendmmsg invoked directly through
// syscall.Syscall6 (numbers pinned per-arch in batchio_linux_*.go, so
// no external module is needed), integrated with the runtime netpoller
// via syscall.RawConn — a reader parks on the poller exactly like
// ReadFromUDP, but each wakeup drains a whole vector of datagrams.
//
// The build tag restricts to 64-bit little-endian Linux, where
// syscall.Msghdr's field widths match the kernel mmsghdr layout used
// here; everything else takes the portable fallback.

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"unsafe"

	"hovercraft/internal/wire"
)

// batchIOSupported reports that this build amortizes syscalls over
// datagram vectors (surfaced in DebugVars so deployments can verify).
const batchIOSupported = true

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// per-message byte count. The trailing pad keeps the 64-bit layout the
// kernel expects (sizeof == 64 on amd64/arm64).
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// htons swaps a port into network byte order. The build tag admits only
// little-endian targets, so the swap is unconditional.
func htons(p uint16) uint16 { return p<<8 | p>>8 }

// soReusePort is SO_REUSEPORT, absent from the frozen stdlib syscall
// constants (it postdates Linux 3.9).
const soReusePort = 0xf

// listenBatch binds n UDP sockets to addr. For n > 1 every socket sets
// SO_REUSEPORT before bind, so the kernel shards ingress flows across
// them by 4-tuple hash; n == 1 binds exactly as net.ListenUDP does.
func listenBatch(addr *net.UDPAddr, n int) ([]*net.UDPConn, error) {
	if n <= 1 {
		c, err := net.ListenUDP("udp4", addr)
		if err != nil {
			return nil, err
		}
		return []*net.UDPConn{c}, nil
	}
	lc := net.ListenConfig{Control: func(network, address string, rc syscall.RawConn) error {
		var serr error
		cerr := rc.Control(func(fd uintptr) {
			serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
		})
		if cerr != nil {
			return cerr
		}
		return serr
	}}
	conns := make([]*net.UDPConn, 0, n)
	for i := 0; i < n; i++ {
		pc, err := lc.ListenPacket(context.Background(), "udp4", addr.String())
		if err != nil {
			for _, c := range conns {
				c.Close()
			}
			return nil, fmt.Errorf("transport: reuseport socket %d: %w", i, err)
		}
		conns = append(conns, pc.(*net.UDPConn))
	}
	return conns, nil
}

// batchReader drains one socket with recvmmsg. All per-datagram state
// (receive slots, sender addresses, derived R2P2 source keys) lives in
// reused arrays; views[i] is only valid until the next read, exactly
// like the old single reused read buffer.
type batchReader struct {
	conn  *net.UDPConn
	rc    syscall.RawConn
	bufs  [][]byte
	views [][]byte
	addrs []net.UDPAddr
	ipb   []byte // 4-byte IP backing per slot, reused
	keys  []uint32

	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4

	// One recvmmsg's results, shared with the read callback bound once
	// at construction (a fresh closure per read would escape to the
	// heap on every wakeup).
	got    int
	errno  syscall.Errno
	readFn func(fd uintptr) bool

	syscalls  uint64
	datagrams uint64
}

func newBatchReader(conn *net.UDPConn, batch int) (*batchReader, error) {
	if batch <= 0 {
		batch = defaultRecvBatch
	}
	rc, err := conn.SyscallConn()
	if err != nil {
		return nil, fmt.Errorf("transport: raw conn: %w", err)
	}
	r := &batchReader{
		conn:  conn,
		rc:    rc,
		bufs:  wire.Slab(batch, maxDatagram),
		views: make([][]byte, batch),
		addrs: make([]net.UDPAddr, batch),
		ipb:   make([]byte, 4*batch),
		keys:  make([]uint32, batch),
		hdrs:  make([]mmsghdr, batch),
		iovs:  make([]syscall.Iovec, batch),
		sas:   make([]syscall.RawSockaddrInet4, batch),
	}
	for i := range r.hdrs {
		r.iovs[i].Base = &r.bufs[i][0]
		r.iovs[i].SetLen(maxDatagram)
		r.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&r.sas[i]))
		r.hdrs[i].hdr.Namelen = uint32(syscall.SizeofSockaddrInet4)
		r.hdrs[i].hdr.Iov = &r.iovs[i]
		r.hdrs[i].hdr.Iovlen = 1
		r.addrs[i].IP = r.ipb[4*i : 4*i+4 : 4*i+4]
	}
	r.readFn = r.recv
	return r, nil
}

// read blocks until at least one datagram arrives (netpoller wait), then
// drains up to the batch size in one recvmmsg. It returns the number of
// datagrams now exposed through views/addrs/keys.
func (r *batchReader) read() (int, error) {
	if err := r.rc.Read(r.readFn); err != nil {
		return 0, err
	}
	if r.errno != 0 {
		return 0, r.errno
	}
	got := r.got
	r.syscalls++
	r.datagrams += uint64(got)
	for i := 0; i < got; i++ {
		r.views[i] = r.bufs[i][:r.hdrs[i].n]
		sa := &r.sas[i]
		copy(r.addrs[i].IP, sa.Addr[:])
		r.addrs[i].Port = int(htons(sa.Port))
		r.keys[i] = uint32(sa.Addr[0])<<24 | uint32(sa.Addr[1])<<16 |
			uint32(sa.Addr[2])<<8 | uint32(sa.Addr[3])
	}
	return got, nil
}

// recv is the rc.Read callback: one recvmmsg into the slab.
func (r *batchReader) recv(fd uintptr) bool {
	for {
		// The kernel rewrites namelen per message; reset in/out fields.
		for i := range r.hdrs {
			r.hdrs[i].hdr.Namelen = uint32(syscall.SizeofSockaddrInet4)
			r.hdrs[i].hdr.Flags = 0
		}
		n, _, e := syscall.Syscall6(uintptr(sysRecvmmsg), fd,
			uintptr(unsafe.Pointer(&r.hdrs[0])), uintptr(len(r.hdrs)), 0, 0, 0)
		if e == syscall.EINTR {
			continue
		}
		if e == syscall.EAGAIN {
			return false // park on the poller until readable
		}
		r.got, r.errno = int(n), e
		return true
	}
}

// addr returns the sender of datagram i of the last read. The pointed-to
// struct is reused on the next read; retainers must cloneUDPAddr it.
func (r *batchReader) addr(i int) *net.UDPAddr { return &r.addrs[i] }

// sender moves datagrams to any mix of destinations with sendmmsg:
// every mmsghdr carries its own sockaddr, so one loop pass's whole
// egress leaves in ceil(n/batch) syscalls. Not safe for concurrent use;
// the client pools senders, the server owns one on its owner core.
type sender struct {
	rc   syscall.RawConn
	hdrs []mmsghdr
	iovs []syscall.Iovec
	sas  []syscall.RawSockaddrInet4
	slot []int // pkts index behind each vector slot of the current call

	// One sendmmsg's arguments and results, shared with the write
	// callback bound once at construction (a fresh closure per call
	// would escape to the heap).
	vlen    int
	sent    int
	errno   syscall.Errno
	writeFn func(fd uintptr) bool

	syscalls  uint64
	datagrams uint64
}

// newSender builds a sender on conn, which must be an open socket.
func newSender(conn *net.UDPConn, batch int) *sender {
	if batch <= 0 {
		batch = defaultSendBatch
	}
	rc, _ := conn.SyscallConn() // fails only on a nil conn
	s := &sender{
		rc:   rc,
		hdrs: make([]mmsghdr, batch),
		iovs: make([]syscall.Iovec, batch),
		sas:  make([]syscall.RawSockaddrInet4, batch),
		slot: make([]int, batch),
	}
	for i := range s.hdrs {
		s.hdrs[i].hdr.Name = (*byte)(unsafe.Pointer(&s.sas[i]))
		s.hdrs[i].hdr.Namelen = uint32(syscall.SizeofSockaddrInet4)
		s.hdrs[i].hdr.Iov = &s.iovs[i]
		s.hdrs[i].hdr.Iovlen = 1
		s.sas[i].Family = syscall.AF_INET
	}
	s.writeFn = s.write
	return s
}

// send transmits pkts[i] to addrs[i] in ceil(len/batch) or fewer
// syscalls. Best-effort like WriteToUDP: a datagram the kernel rejects
// (or one bound for a non-IPv4 address) is dropped and the rest still
// go out — the protocol tolerates datagram loss.
func (s *sender) send(addrs []*net.UDPAddr, pkts [][]byte) {
	for i := 0; i < len(pkts); {
		n := 0
		for ; n < len(s.hdrs) && i < len(pkts); i++ {
			ip4 := addrs[i].IP.To4()
			if ip4 == nil {
				continue
			}
			p := pkts[i]
			if len(p) == 0 {
				p = zeroPayload[:]
			}
			s.iovs[n].Base = &p[0]
			s.iovs[n].SetLen(len(pkts[i]))
			s.sas[n].Port = htons(uint16(addrs[i].Port))
			copy(s.sas[n].Addr[:], ip4)
			s.slot[n] = i
			n++
		}
		if n == 0 {
			return
		}
		s.vlen = n
		if err := s.rc.Write(s.writeFn); err != nil {
			return // socket closed
		}
		if s.errno != 0 || s.sent <= 0 {
			// The first datagram of the vector failed: drop it alone.
			i = s.slot[0] + 1
			continue
		}
		s.syscalls++
		s.datagrams += uint64(s.sent)
		if s.sent < n {
			i = s.slot[s.sent] // resume at the first unsent datagram
		}
	}
	runtime.KeepAlive(pkts)
}

// write is the rc.Write callback: one sendmmsg of the prepared vector.
func (s *sender) write(fd uintptr) bool {
	for {
		n, _, e := syscall.Syscall6(uintptr(sysSendmmsg), fd,
			uintptr(unsafe.Pointer(&s.hdrs[0])), uintptr(s.vlen), 0, 0, 0)
		if e == syscall.EINTR {
			continue
		}
		if e == syscall.EAGAIN {
			return false // wait for writability
		}
		s.sent, s.errno = int(n), e
		return true
	}
}

// zeroPayload backs empty datagrams so iovecs always have a valid base.
var zeroPayload [1]byte
