package transport

import (
	"fmt"
	"net"
	"testing"
	"time"
)

// TestBatchIORoundTrip pushes a burst through the platform batch I/O
// layer: a sender-side vectored send into (up to) multi-socket
// reuseport ingress, checking payload integrity, sender addresses, and
// derived R2P2 source keys — the exact surface the server read loops
// consume.
func TestBatchIORoundTrip(t *testing.T) {
	probe, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()

	conns, err := listenBatch(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	setSockBufs(conns, 1<<20)

	src, err := newEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	srcAddr := src.LocalAddr().(*net.UDPAddr)

	const total = 64
	pkts := make([][]byte, total)
	addrs := make([]*net.UDPAddr, total)
	for i := range pkts {
		pkts[i] = []byte(fmt.Sprintf("dg-%03d", i))
		addrs[i] = addr
	}
	sn := newSender(src, 16)
	sn.send(addrs, pkts)
	if batchIOSupported && sn.syscalls >= total {
		t.Fatalf("sender used %d syscalls for %d datagrams; no amortization", sn.syscalls, total)
	}

	// Drain every socket until all datagrams arrive (reuseport hashes
	// one flow to one socket, so one reader may see everything).
	got := make(map[string]bool)
	deadline := time.Now().Add(2 * time.Second)
	readers := make([]*batchReader, len(conns))
	for i, c := range conns {
		r, err := newBatchReader(c, 16)
		if err != nil {
			t.Fatal(err)
		}
		readers[i] = r
	}
	for len(got) < total && time.Now().Before(deadline) {
		for i, r := range readers {
			setReadDeadline(conns[i], 50*time.Millisecond)
			n, err := r.read()
			if err != nil {
				continue
			}
			for j := 0; j < n; j++ {
				got[string(r.views[j])] = true
				from := r.addr(j)
				if from.Port != srcAddr.Port {
					t.Fatalf("datagram %q: sender port %d, want %d", r.views[j], from.Port, srcAddr.Port)
				}
				if r.keys[j] != ipKey(srcAddr) {
					t.Fatalf("datagram %q: source key %#x, want %#x", r.views[j], r.keys[j], ipKey(srcAddr))
				}
			}
		}
	}
	if len(got) != total {
		t.Fatalf("received %d of %d datagrams", len(got), total)
	}
	for i := range pkts {
		if !got[string(pkts[i])] {
			t.Fatalf("datagram %q lost", pkts[i])
		}
	}
}

// TestSendMixedDestinations sends one vector whose datagrams are bound
// for three different sockets: on Linux it must leave in a single
// sendmmsg, and every socket must receive exactly its own datagrams.
func TestSendMixedDestinations(t *testing.T) {
	src, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer src.Close()
	const sinks, perSink = 3, 4
	conns := make([]*net.UDPConn, sinks)
	for i := range conns {
		if conns[i], err = newEphemeral(); err != nil {
			t.Fatal(err)
		}
		defer conns[i].Close()
	}
	// Interleave destinations so no two neighbours share one.
	var addrs []*net.UDPAddr
	var pkts [][]byte
	for j := 0; j < perSink; j++ {
		for i, c := range conns {
			addrs = append(addrs, c.LocalAddr().(*net.UDPAddr))
			pkts = append(pkts, []byte(fmt.Sprintf("sink%d-%d", i, j)))
		}
	}
	sn := newSender(src, 32)
	sn.send(addrs, pkts)
	if sn.datagrams != sinks*perSink {
		t.Fatalf("sent %d datagrams, want %d", sn.datagrams, sinks*perSink)
	}
	if batchIOSupported && sn.syscalls != 1 {
		t.Fatalf("sent in %d syscalls, want 1 sendmmsg", sn.syscalls)
	}
	buf := make([]byte, 64)
	for i, c := range conns {
		for j := 0; j < perSink; j++ {
			setReadDeadline(c, 2*time.Second)
			n, _, err := c.ReadFromUDP(buf)
			if err != nil {
				t.Fatalf("sink %d datagram %d: %v", i, j, err)
			}
			if got, want := string(buf[:n]), fmt.Sprintf("sink%d-%d", i, j); got != want {
				t.Fatalf("sink %d got %q, want %q", i, got, want)
			}
		}
	}
}

// TestBatchIOZeroAlloc pins both directions of the data plane at zero
// heap allocations per call: a send's per-datagram sockaddrs live in
// the sender's reused vectors, and both syscall callbacks are bound
// once instead of escaping as a fresh closure per call.
func TestBatchIOZeroAlloc(t *testing.T) {
	src, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	defer src.Close()
	dst, err := newEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	addr := dst.LocalAddr().(*net.UDPAddr)
	addrs := []*net.UDPAddr{addr, addr, addr}
	pkts := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	sn := newSender(src, 8)
	r, err := newBatchReader(dst, 8)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		sn.send(addrs, pkts)
		if _, err := r.read(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("send+read allocates %.1f/op, want 0", n)
	}
}

// TestListenBatchSocketCount pins the platform contract: Linux shards
// across n reuseport sockets, the fallback binds exactly one.
func TestListenBatchSocketCount(t *testing.T) {
	probe, err := newEphemeral()
	if err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()
	conns, err := listenBatch(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	want := 1
	if batchIOSupported {
		want = 4
	}
	if len(conns) != want {
		t.Fatalf("listenBatch bound %d sockets, want %d", len(conns), want)
	}
	for _, c := range conns {
		if got := c.LocalAddr().(*net.UDPAddr).Port; got != addr.Port {
			t.Fatalf("socket bound to port %d, want %d", got, addr.Port)
		}
	}
}

// TestCloneUDPAddr guards the retain contract for batch-reader address
// slots: clones must not alias the reused backing arrays.
func TestCloneUDPAddr(t *testing.T) {
	a := &net.UDPAddr{IP: net.IPv4(10, 1, 2, 3).To4(), Port: 99}
	c := cloneUDPAddr(a)
	if !sameUDPAddr(a, c) {
		t.Fatalf("clone %v differs from %v", c, a)
	}
	a.IP[0] = 42
	a.Port = 1
	if c.IP[0] == 42 || c.Port == 1 {
		t.Fatal("clone aliases the original's storage")
	}
	if cloneUDPAddr(nil) != nil || !sameUDPAddr(nil, nil) || sameUDPAddr(a, nil) {
		t.Fatal("nil handling broken")
	}
}
