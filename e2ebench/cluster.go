package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hovercraft/internal/core"
	"hovercraft/internal/kvstore"
	"hovercraft/internal/raft"
	"hovercraft/internal/transport"
)

const numNodes = 3

// service wraps kvstore.Store to count and time executions on one
// replica, and to record which write seqs it executed.
type service struct {
	node  int
	tr    *atomic.Pointer[tracer]
	mu    sync.Mutex // Execute runs on the node's app thread; Snapshot on the benchmark's
	store *kvstore.Store
	execs seqTable // write seq -> executions on this replica

	writes, reads atomic.Uint64
	execNs        atomic.Int64
}

func (s *service) Execute(payload []byte, readOnly bool) []byte {
	t0 := time.Now()
	s.mu.Lock()
	reply := s.store.Execute(payload, readOnly)
	s.mu.Unlock()
	t1 := time.Now()
	s.execNs.Add(int64(t1.Sub(t0)))
	seq, isSet := setSeq(payload)
	if isSet {
		s.writes.Add(1)
		s.execs.slot(seq).Add(1)
	} else {
		s.reads.Add(1)
	}
	if tr := s.tr.Load(); tr != nil {
		tr.record(layerExecute, s.node, seq, t0, t1)
	}
	return reply
}

func (s *service) snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Snapshot()
}

// walStore wraps raft.FileStorage to time its staging and flush calls.
// It forwards raft.GroupCommitter, so the node still group-commits.
type walStore struct {
	fs      *raft.FileStorage
	dir     string
	node    int
	tr      *atomic.Pointer[tracer]
	stageNs atomic.Int64  // SaveState + AppendEntries
	records atomic.Uint64 // records staged
	flushes durations     // barrier flushes that had records staged
}

func (w *walStore) SaveState(term uint64, vote raft.NodeID) {
	t0 := time.Now()
	w.fs.SaveState(term, vote)
	w.stageNs.Add(int64(time.Since(t0)))
	w.records.Add(1)
}

func (w *walStore) AppendEntries(es []raft.Entry) {
	t0 := time.Now()
	w.fs.AppendEntries(es)
	t1 := time.Now()
	w.stageNs.Add(int64(t1.Sub(t0)))
	w.records.Add(uint64(len(es)))
	if tr := w.tr.Load(); tr != nil {
		var seq uint64
		for i := range es {
			if s, ok := setSeq(es[i].Data); ok {
				seq = s
				break
			}
		}
		tr.record(layerWALAppend, w.node, seq, t0, t1)
	}
}

func (w *walStore) SaveSnapshot(index, term uint64, data []byte) {
	w.fs.SaveSnapshot(index, term, data)
}

func (w *walStore) Flush() { w.flush(w.fs.Flush) }

func (w *walStore) MaybeFlush() { w.flush(w.fs.MaybeFlush) }

// flush times f when it writes out staged records.
func (w *walStore) flush(f func()) {
	if w.fs.PendingRecords() == 0 {
		f()
		return
	}
	t0 := time.Now()
	f()
	t1 := time.Now()
	if w.fs.PendingRecords() != 0 {
		return // MaybeFlush left them staged
	}
	w.flushes.add(t1.Sub(t0))
	if tr := w.tr.Load(); tr != nil {
		tr.record(layerWALFlush, w.node, 0, t0, t1)
	}
}

// walBytes is the size of the node's WAL file.
func (w *walStore) walBytes() int64 {
	fi, err := os.Stat(filepath.Join(w.dir, "wal"))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// durations collects samples from any goroutine.
type durations struct {
	mu sync.Mutex
	d  []time.Duration
}

func (d *durations) add(v time.Duration) {
	d.mu.Lock()
	d.d = append(d.d, v)
	d.mu.Unlock()
}

func (d *durations) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.d)
}

// between returns a copy of samples [i, j).
func (d *durations) between(i, j int) []time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]time.Duration(nil), d.d[i:j]...)
}

// cluster is an in-process 3-node HovercRaft cluster on loopback UDP
// with the benchmark's clients.
type cluster struct {
	w       *workload
	tr      atomic.Pointer[tracer]
	servers []*transport.Server
	svcs    []*service
	wals    []*walStore // nil entries unless durable
	clients []*transport.Client
	walDir  string
}

// reservePorts binds n loopback UDP ports at once and releases them,
// so the nodes get n distinct free ports.
func reservePorts(n int) ([]string, error) {
	conns := make([]*net.UDPConn, 0, n)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		conns = append(conns, c)
		addrs[i] = c.LocalAddr().String()
	}
	return addrs, nil
}

// startCluster brings up the nodes, elects node 1 and dials the
// clients. walDir holds the WALs of a durable workload.
func startCluster(w *workload, walDir string) (*cluster, error) {
	c := &cluster{w: w, walDir: walDir}
	if err := c.start(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) start() error {
	w := c.w
	addrs, err := reservePorts(numNodes)
	if err != nil {
		return err
	}
	peers := make(map[uint32]string, numNodes)
	for i, a := range addrs {
		peers[uint32(i+1)] = a
	}
	for i := 0; i < numNodes; i++ {
		svc := &service{node: i + 1, tr: &c.tr, store: kvstore.New()}
		cfg := transport.ServerConfig{
			ID: uint32(i + 1), Peers: peers, Mode: core.ModeHovercraft,
			ReadLease: w.leased,
		}
		var ws *walStore
		if w.durable {
			dir := filepath.Join(c.walDir, fmt.Sprintf("node%d", i+1))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			// Sync off: fsync on this class of host (a shared virtual
			// disk) swings from 0.3 ms at p50 to 6 ms at p99 with other
			// tenants' load, which would make the workload measure the
			// host. Records are still framed, staged, group-committed
			// and written before any ack leaves; this is FileStorage's
			// NVM model of the paper (§2.3).
			fs, _, err := raft.OpenFileStorage(dir, false)
			if err != nil {
				return err
			}
			fs.GroupCommit(256, 0)
			ws = &walStore{fs: fs, dir: dir, node: i + 1, tr: &c.tr}
			cfg.Storage = ws
		}
		srv, err := transport.NewServer(cfg, svc)
		if err != nil {
			if ws != nil {
				ws.fs.Close()
			}
			return err
		}
		c.servers = append(c.servers, srv)
		c.svcs = append(c.svcs, svc)
		c.wals = append(c.wals, ws)
	}
	c.servers[0].Campaign()
	if err := c.waitFor(5*time.Second, func() bool { return c.leader() >= 0 }); err != nil {
		return errors.New("no leader elected")
	}
	for i := 0; i < numClients; i++ {
		cl, err := transport.Dial(addrs)
		if err != nil {
			return err
		}
		c.clients = append(c.clients, cl)
	}
	return nil
}

func (c *cluster) close() {
	for _, cl := range c.clients {
		cl.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, w := range c.wals {
		if w != nil {
			w.fs.Close()
		}
	}
	if c.walDir != "" {
		os.RemoveAll(c.walDir)
	}
}

// leader is the index of the node that leads, or -1.
func (c *cluster) leader() int {
	for i, s := range c.servers {
		if s.IsLeader() {
			return i
		}
	}
	return -1
}

func (c *cluster) waitFor(limit time.Duration, cond func() bool) error {
	deadline := time.Now().Add(limit)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// preload writes every key once (seqs 1..numKeys, key = seq-1) through
// a closed loop, so every GET of the timed phases hits.
func (c *cluster) preload(chk *checker) error {
	var next atomic.Uint64
	var wg sync.WaitGroup
	errs := make(chan error, peakWindow)
	for g := 0; g < peakWindow; g++ {
		wg.Add(1)
		go func(cl *transport.Client) {
			defer wg.Done()
			var buf []byte
			for {
				seq := next.Add(1)
				if seq > numKeys {
					return
				}
				key := uint32(seq - 1)
				buf = appendValue(buf[:0], seq, key, c.w.valueSize)
				chk.beginWrite(seq, key)
				inv := chk.now()
				reply, err := cl.Call(kvstore.EncodeSet(keyName(key), buf), false)
				if err != nil {
					errs <- fmt.Errorf("preload %s: %w", keyName(key), err)
					return
				}
				chk.endWrite(seq, key, inv, reply)
			}
		}(c.clients[g%numClients])
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	return chk.err()
}

// quiesce waits until every replica has applied the same index and
// executed the same writes, with nothing moving for a few polls.
func (c *cluster) quiesce() error {
	key := func() [2 * numNodes]uint64 {
		var k [2 * numNodes]uint64
		for i, s := range c.servers {
			k[2*i] = s.Status().Applied
			k[2*i+1] = c.svcs[i].writes.Load()
		}
		return k
	}
	converged := func(k [2 * numNodes]uint64) bool {
		for i := 1; i < numNodes; i++ {
			if k[2*i] != k[0] || k[2*i+1] != k[1] {
				return false
			}
		}
		return true
	}
	last, stable := key(), 0
	return c.waitFor(10*time.Second, func() bool {
		time.Sleep(10 * time.Millisecond)
		k := key()
		if k == last && converged(k) {
			stable++
		} else {
			stable = 0
		}
		last = k
		return stable >= 3
	})
}

// verify runs the post-quiescence checks: identical replicas, every
// acked write executed exactly once per replica, no stale lease read.
func (c *cluster) verify(chk *checker, maxSeq uint64) error {
	if err := c.quiesce(); err != nil {
		return fmt.Errorf("replicas did not converge: %w", err)
	}
	rs := make([]replicaState, numNodes)
	execs := make([]*seqTable, numNodes)
	for i, s := range c.servers {
		rs[i] = replicaState{applied: s.Status().Applied, snapshot: c.svcs[i].snapshot()}
		execs[i] = &c.svcs[i].execs
	}
	if err := checkReplicas(rs); err != nil {
		return err
	}
	if err := chk.checkExactlyOnce(execs, maxSeq); err != nil {
		return err
	}
	for i, s := range c.servers {
		if n := engineCounters(s)["read_stale_served"]; n != 0 {
			return fmt.Errorf("node %d served %d stale reads", i+1, n)
		}
	}
	return nil
}

// engineCounters is the node's core engine counter set.
func engineCounters(s *transport.Server) map[string]uint64 {
	m, _ := s.DebugVars()["counters"].(map[string]uint64)
	return m
}

// coreCounters sums the node's per-core runtime.Loop counters.
func coreCounters(s *transport.Server) map[string]uint64 {
	out := map[string]uint64{}
	cores, _ := s.DebugVars()["cores"].(map[string]interface{})
	for _, v := range cores {
		m, _ := v.(map[string]uint64)
		for k, n := range m {
			out[k] += n
		}
	}
	return out
}
