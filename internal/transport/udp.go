// Package transport binds the HovercRaft engine to real UDP sockets
// (stdlib net), making the library deployable outside the simulator.
//
// Differences from the paper's datacenter deployment, by necessity:
//
//   - no kernel bypass: packets travel through the host UDP stack, so
//     absolute latency is tens of µs on loopback rather than sub-10µs;
//   - request dissemination uses client-side fan-out (the client unicasts
//     each request to every node) instead of switch multicast — the same
//     packets arrive at the same nodes, just spending client (not switch)
//     fan-out bandwidth;
//   - the flow-control middlebox is optional (datacenter switches do it
//     in hardware; over plain UDP the engine simply drops feedback when
//     no middlebox address is configured);
//   - the HovercRaft++ aggregator runs as a normal UDP process
//     (AggregatorServer) — the paper notes it is "an IP connected device
//     that can be placed anywhere inside the datacenter".
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hovercraft/internal/admission"
	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
	"hovercraft/internal/runtime"
	"hovercraft/internal/stats"
	"hovercraft/internal/wire"
)

// ipKey converts an IPv4 UDP address to the uint32 identity R2P2 uses.
func ipKey(a *net.UDPAddr) uint32 {
	ip4 := a.IP.To4()
	if ip4 == nil {
		return 0
	}
	return binary.BigEndian.Uint32(ip4)
}

type clientKey struct {
	ip   uint32
	port uint16
}

// aLongTimeAgo is an expired deadline: arming it interrupts a core loop
// parked in its blocking batch read (the netpoller fails the read with
// a timeout immediately), which is how cross-core producers kick the
// owning core awake.
var aLongTimeAgo = time.Unix(1, 0)

// ServerConfig configures one HovercRaft UDP node.
type ServerConfig struct {
	// ID is this node's Raft identity (1-based).
	ID uint32
	// Peers maps every node ID (including this one) to its UDP address.
	Peers map[uint32]string
	// Mode selects the protocol variant.
	Mode core.Mode
	// Aggregator is the HovercRaft++ aggregator address (required for
	// ModeHovercraftPP).
	Aggregator string
	// TickInterval defaults to 1ms — kernel UDP latencies are three
	// orders of magnitude above the simulator's, so protocol timers
	// scale accordingly.
	TickInterval   time.Duration
	ElectionTicks  int
	HeartbeatTicks int
	// Bound, Policy, DisableReplyLB mirror core.Config.
	Bound          int
	Policy         core.SelectPolicy
	DisableReplyLB bool
	// MaxInflightEntries / MaxBatchBytes mirror core.Config: replication
	// pipelining depth and per-AE batch cap (0 = paper defaults).
	MaxInflightEntries int
	MaxBatchBytes      int
	// Storage receives raft persistence callbacks (nil = volatile).
	Storage raft.Storage
	// Recovered, when set alongside Storage (from
	// raft.OpenFileStorage), restores the node's durable state.
	Recovered *raft.RecoveredState
	// CompactEvery enables raft log compaction every N applied entries
	// when the service implements core.Snapshotter.
	CompactEvery uint64
	// Cores shards ingress across N per-core run-to-completion loops,
	// each owning one SO_REUSEPORT socket (Linux; other platforms fall
	// back to one core). The core selected by Affinity owns this node's
	// engine end-to-end; the others forward their datagrams to it
	// through bounded SPSC mailboxes. 0 defaults to Sockets, then 1.
	Cores int
	// Affinity pins this node's engine to one of the cores (modulo
	// Cores). Multi-Raft deployments spread their groups across cores
	// by setting shard % cores, so each core runs one engine and
	// forwards for the rest.
	Affinity int
	// HandoffDepth bounds each cross-core mailbox in datagrams
	// (0 = 1024); a full mailbox drops, counted in handoff_drops.
	HandoffDepth int
	// Sockets is the legacy name for Cores (one reuseport socket per
	// core); used only when Cores is 0.
	Sockets int
	// RecvBatch / SendBatch cap datagrams per recvmmsg/sendmmsg
	// syscall (0 = 32). Ignored where batch I/O is unsupported.
	RecvBatch int
	SendBatch int
	// SockBufBytes sets SO_RCVBUF/SO_SNDBUF on every socket (0 = 2MB).
	// Kernel-default buffers (~212KB) silently drop bursts; the drop
	// counter is surfaced as udp_rx_dropped in DebugVars.
	SockBufBytes int
	// DisableTelemetry turns off the always-on queue-delay telemetry
	// (per-stage windowed histograms). On by default: the instruments
	// are lock-free and allocation-free, costing only clock reads.
	DisableTelemetry bool
	// TelemetryEpoch / TelemetryEpochs shape the sliding window
	// (0 = obs defaults: 1s epochs, 10-epoch ring).
	TelemetryEpoch  time.Duration
	TelemetryEpochs int
	// AdaptiveAdmission enables leader-side admission control: with no
	// middlebox over plain UDP, the leader itself tracks the in-flight
	// request window (consuming the FEEDBACK messages that previously
	// dropped), sheds new requests above the AIMD window driven by its
	// own queue-delay telemetry, and hands shed clients a retry-after
	// hint. Needs telemetry; with DisableTelemetry the window stays
	// fixed at AdmissionLimit.
	AdaptiveAdmission bool
	// Admission tunes the AIMD controller (zero values take the
	// admission package defaults, Max/Initial default to
	// AdmissionLimit).
	Admission admission.Config
	// AdmissionLimit is the admit-window ceiling (0 = 4096).
	AdmissionLimit int
	// ReadLease enables the linearizable read fast path (core.Config
	// ReadLease): LIN_READ requests are served from local state under a
	// heartbeat-ratified leader lease instead of entering the log. Off
	// by default: nodes NACK LIN_READs so clients fall back to ordered
	// reads.
	ReadLease bool
	// ReadStalenessBudget throttles a follower to one read-index fetch
	// per budget window; reads arriving within the window share that one
	// leader round (still strictly linearizable — the budget bounds
	// queueing, never staleness). 0 fetches as fast as one-in-flight
	// batching allows.
	ReadStalenessBudget time.Duration
	// ReadNackAfter bounds how long a LIN_READ may queue before the
	// replica NACKs it so the client redirects. 0 scales the engine's
	// 500µs simulator default to kernel-UDP timers: 20 ticks.
	ReadNackAfter time.Duration
	// DriftTicks is the clock-drift margin subtracted from the election
	// timeout when sizing the leader lease (0 = raft default).
	DriftTicks int
}

// Server is a running HovercRaft node on one or more UDP sockets.
//
// Data-plane shape: one run-to-completion loop per core, no engine
// lock. Each of N SO_REUSEPORT sockets belongs to exactly one core
// loop. The core selected by Affinity owns the engine: its loop drains
// a recvmmsg batch, ingests it straight into the engine, drains
// whatever the other cores handed over, ticks the protocol timer when
// due, and flushes the egress it produced — all in one goroutine, so
// no datagram ever crosses a mutex. Every other core's loop forwards
// its batches into the owner through a bounded SPSC mailbox and kicks
// the owner's read deadline so handoffs are drained at the next loop
// boundary rather than the next tick.
//
// All egress leaves through the owning core: datagrams produced while
// the engine steps are queued on the owner's egress queue, and the
// pass's whole egress, whatever its destinations, leaves at the end of
// the pass in sendmmsg batches. State-machine operations run on a
// separate app thread, one job per apply batch, whose single completion
// re-enters the owner loop. The flush is also the durability barrier:
// when the storage group-commits (raft.GroupCommitter), the staged WAL
// batch is written and fsynced once before any datagram that could
// acknowledge it leaves the node.
//
// The control plane (IsLeader, Status, DebugVars, metrics) never
// touches the engine either: the owner publishes a snapshot into
// atomics every tick, and readers see that.
type Server struct {
	cfg     ServerConfig
	conn    *net.UDPConn // the owning core's socket; all egress goes out here
	conns   []*net.UDPConn
	engine  *core.Engine
	service app.Service
	gc      raft.GroupCommitter // non-nil when Storage group-commits

	// Owner-core state: everything below is reachable only from the
	// owning core's loop (engine steps, handoff drains, ticks, command
	// execution all run there). No lock — the Loop is the owner.
	drv      *runtime.Driver
	peers    map[raft.NodeID]*net.UDPAddr
	agg      *net.UDPAddr
	clients  map[clientKey]*net.UDPAddr
	from     *net.UDPAddr // sender of the datagram being ingested
	fromIP   [4]byte      // backing for fromAddr.IP, rewritten per datagram
	fromAddr net.UDPAddr
	egAddrs  []*net.UDPAddr // egress queued during the current loop pass:
	egBufs   []*wire.Buf    // datagram egBufs[i], whose bytes are
	egPkts   [][]byte       // egPkts[i], goes to egAddrs[i]
	snd      *sender        // sends on conn
	admit    *core.FlowControl
	admCtrl  *admission.Controller
	admGC    time.Duration // next slot-leak sweep (telemetry clock)

	start    time.Time
	loops    []*runtime.Loop
	owner    *runtime.Loop
	affinity int

	pub pubState // owner-published control-plane snapshot

	ctr *stats.CounterSet
	tel *obs.Telemetry // nil when cfg.DisableTelemetry

	runq chan runJob

	closed  chan struct{}
	closeMu sync.Once
	wg      sync.WaitGroup
}

// pubState is the owner loop's published snapshot of engine-adjacent
// state, refreshed once per tick (and after Campaign), so the control
// plane reads atomics instead of stopping the data plane.
type pubState struct {
	state   atomic.Uint32 // raft.StateType
	term    atomic.Uint64
	lead    atomic.Uint64
	commit  atomic.Uint64
	applied atomic.Uint64
	last    atomic.Uint64
	clients atomic.Uint64

	admWindow   atomic.Uint64
	admInflight atomic.Uint64
	admAdmitted atomic.Uint64
	admNacked   atomic.Uint64
	admLeaked   atomic.Uint64
}

// runJob is one apply batch for the application thread.
type runJob struct {
	ops  []core.AppOp
	done func([][]byte)
}

// NewServer binds the node to its configured address and starts serving.
func NewServer(cfg ServerConfig, svc app.Service) (*Server, error) {
	if cfg.TickInterval <= 0 {
		cfg.TickInterval = time.Millisecond
	}
	if cfg.ElectionTicks <= 0 {
		cfg.ElectionTicks = 150
	}
	if cfg.HeartbeatTicks <= 0 {
		cfg.HeartbeatTicks = 20
	}
	self, ok := cfg.Peers[cfg.ID]
	if !ok {
		return nil, fmt.Errorf("transport: node %d not in peer map", cfg.ID)
	}
	addr, err := net.ResolveUDPAddr("udp4", self)
	if err != nil {
		return nil, fmt.Errorf("transport: resolve self: %w", err)
	}
	cores := cfg.Cores
	if cores <= 0 {
		cores = cfg.Sockets
	}
	if cores <= 0 {
		cores = 1
	}
	conns, err := listenBatch(addr, cores)
	if err != nil {
		return nil, fmt.Errorf("transport: listen: %w", err)
	}
	// The fallback build collapses to one socket regardless of the ask;
	// the core count follows the sockets we actually have.
	cores = len(conns)
	aff := cfg.Affinity % cores
	if aff < 0 {
		aff += cores
	}
	setSockBufs(conns, cfg.SockBufBytes)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	s := &Server{
		cfg:      cfg,
		conn:     conns[aff],
		conns:    conns,
		service:  svc,
		peers:    make(map[raft.NodeID]*net.UDPAddr),
		clients:  make(map[clientKey]*net.UDPAddr),
		start:    time.Now(),
		affinity: aff,
		ctr:      stats.NewCounterSet(),
		runq:     make(chan runJob, 1), // the engine submits one batch at a time
		closed:   make(chan struct{}),
	}
	s.fromAddr.IP = s.fromIP[:]
	s.gc, _ = cfg.Storage.(raft.GroupCommitter)
	if !cfg.DisableTelemetry {
		s.tel = obs.NewTelemetry(
			func() time.Duration { return time.Since(s.start) },
			cfg.TelemetryEpoch, cfg.TelemetryEpochs)
	}
	if cfg.AdaptiveAdmission {
		limit := cfg.AdmissionLimit
		if limit <= 0 {
			limit = 4096
		}
		// The slot timeout reclaims windows leaked by lost replies or
		// vanished clients; generous, since the AIMD loop (not slot
		// exhaustion) is the real overload brake.
		s.admit = core.NewFlowControl(limit, 2*time.Second)
		acfg := cfg.Admission
		if acfg.Max <= 0 {
			acfg.Max = limit
		}
		if acfg.Initial <= 0 {
			acfg.Initial = acfg.Max
		}
		s.admCtrl = admission.New(acfg, admission.WorstOf(func() []*obs.Telemetry {
			return []*obs.Telemetry{s.tel}
		}))
		s.admit.NackHint = s.admCtrl.Hint()
		if s.tel != nil {
			target := acfg.Target
			if target <= 0 {
				target = 500 * time.Microsecond
			}
			s.tel.SetSLO(target, 0.99)
		}
	}
	s.snd = newSender(s.conn, cfg.SendBatch)
	ids := make([]raft.NodeID, 0, len(cfg.Peers))
	for id, pa := range cfg.Peers {
		ua, err := net.ResolveUDPAddr("udp4", pa)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("transport: resolve peer %d: %w", id, err)
		}
		s.peers[raft.NodeID(id)] = ua
		ids = append(ids, raft.NodeID(id))
	}
	if cfg.Aggregator != "" {
		ua, err := net.ResolveUDPAddr("udp4", cfg.Aggregator)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("transport: resolve aggregator: %w", err)
		}
		s.agg = ua
	} else if cfg.Mode == core.ModeHovercraftPP {
		closeAll()
		return nil, errors.New("transport: HovercRaft++ needs an aggregator address")
	}

	var snapshotter core.Snapshotter
	if sn, ok := svc.(core.Snapshotter); ok && cfg.CompactEvery > 0 {
		snapshotter = sn
	}
	if cfg.ReadLease && cfg.ReadNackAfter <= 0 {
		// The engine's 500µs default assumes simulator latencies; kernel
		// UDP timers are ms-scale, so give queued reads a few fetch
		// round-trips before NACK-redirecting the client.
		cfg.ReadNackAfter = 20 * cfg.TickInterval
	}
	s.engine = core.NewEngine(core.Config{
		Mode: cfg.Mode, ID: raft.NodeID(cfg.ID), Peers: ids,
		TickInterval:        cfg.TickInterval,
		ElectionTicks:       cfg.ElectionTicks,
		HeartbeatTicks:      cfg.HeartbeatTicks,
		Bound:               cfg.Bound,
		Policy:              cfg.Policy,
		DisableReplyLB:      cfg.DisableReplyLB,
		MaxInflightEntries:  cfg.MaxInflightEntries,
		MaxBatchBytes:       cfg.MaxBatchBytes,
		Storage:             cfg.Storage,
		Snapshotter:         snapshotter,
		CompactEvery:        cfg.CompactEvery,
		Tel:                 s.tel,
		ReadLease:           cfg.ReadLease,
		ReadStalenessBudget: cfg.ReadStalenessBudget,
		ReadNackAfter:       cfg.ReadNackAfter,
		DriftTicks:          cfg.DriftTicks,
		// Real networks have ms-scale timers; scale the unordered GC.
		UnorderedTimeout: 10 * time.Second,
	}, (*serverTransport)(s), (*serverRunner)(s))
	if cfg.Recovered != nil {
		if err := s.engine.Bootstrap(cfg.Recovered); err != nil {
			closeAll()
			return nil, fmt.Errorf("transport: bootstrap: %w", err)
		}
	}
	s.drv = runtime.New((*serverHandler)(s), runtime.Options{
		Now:          func() time.Duration { return time.Since(s.start) },
		ReasmTimeout: 2 * time.Second,
		Tick:         s.engine.Tick,
		// The engine parks request bodies until commit; responses,
		// feedback, and consensus payloads are consumed within the step.
		RetainPayload: []r2p2.MessageType{r2p2.TypeRequest},
		Telemetry:     s.tel,
	})

	// One Loop per core; the affinity core owns the engine, the rest
	// forward. Build the owner first so peers can register mailboxes.
	s.loops = make([]*runtime.Loop, cores)
	now := func() time.Duration { return time.Since(s.start) }
	s.owner = runtime.NewLoop(runtime.LoopOptions{
		Deliver:   s.deliver,
		Tick:      s.ownerTick,
		TickEvery: cfg.TickInterval,
		Now:       now,
		Kick:      func() { _ = s.conn.SetReadDeadline(aLongTimeAgo) },
		Flush:     s.flushOwned,
		Telemetry: s.tel,
		Closed:    s.closed,
	})
	s.loops[aff] = s.owner
	for i := range conns {
		if i == aff {
			continue
		}
		s.loops[i] = runtime.NewLoop(runtime.LoopOptions{
			Owner:      s.owner,
			MailboxCap: cfg.HandoffDepth,
			Now:        now,
			Closed:     s.closed,
		})
	}
	s.publish()

	s.wg.Add(len(conns) + 1)
	for i, c := range conns {
		r, err := newBatchReader(c, cfg.RecvBatch)
		if err != nil {
			closeAll()
			return nil, err
		}
		go s.coreLoop(s.loops[i], r, c)
	}
	go s.appLoop()
	return s, nil
}

// Addr returns the bound UDP address.
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// IsLeader reports whether this node currently leads, from the owner's
// last published snapshot (racy by one tick at most).
func (s *Server) IsLeader() bool {
	return raft.StateType(s.pub.state.Load()) == raft.StateLeader
}

// Status returns the node's raft status from the owner's last
// published snapshot (racy by one tick at most).
func (s *Server) Status() raft.Status {
	return raft.Status{
		ID:      raft.NodeID(s.cfg.ID),
		State:   raft.StateType(s.pub.state.Load()),
		Term:    s.pub.term.Load(),
		Lead:    raft.NodeID(s.pub.lead.Load()),
		Commit:  s.pub.commit.Load(),
		Applied: s.pub.applied.Load(),
		Last:    s.pub.last.Load(),
	}
}

// DebugVars snapshots the node's live state for the expvar endpoint:
// engine message counters, raft status, client-table size, and the
// per-core loop counters. Reads only published atomics and
// concurrency-safe counter sets, so it never stalls the data plane.
func (s *Server) DebugVars() map[string]interface{} {
	st := s.Status()
	cores := make(map[string]interface{}, len(s.loops))
	for i, lp := range s.loops {
		cores[fmt.Sprintf("core%d", i)] = lp.Counters().Snapshot()
	}
	vars := map[string]interface{}{
		"id":             s.cfg.ID,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"is_leader":      st.State == raft.StateLeader,
		"term":           st.Term,
		"commit_index":   st.Commit,
		"known_clients":  s.pub.clients.Load(),
		"counters":       s.engine.Counters().Snapshot(),
		"net":            s.NetStats(),
		"cores":          cores,
		"affinity":       s.affinity,
	}
	if fs, ok := s.cfg.Storage.(*raft.FileStorage); ok {
		vars["wal_fsyncs"] = fs.SyncCount()
		vars["wal_pending_records"] = fs.PendingRecords()
	}
	if s.admit != nil {
		vars["admission"] = map[string]interface{}{
			"window":   s.pub.admWindow.Load(),
			"inflight": s.pub.admInflight.Load(),
			"admitted": s.pub.admAdmitted.Load(),
			"nacked":   s.pub.admNacked.Load(),
			"leaked":   s.pub.admLeaked.Load(),
		}
	}
	return vars
}

// NetStats snapshots the data-plane counters: datagrams and syscalls
// per direction (their ratio is the syscall-amortization factor), the
// socket/batch shape, and the kernel's receive-drop counter for this
// port — datagrams discarded because SO_RCVBUF overflowed, which never
// reach userspace and previously went unobserved.
func (s *Server) NetStats() map[string]uint64 {
	out := s.ctr.Snapshot()
	out["sockets"] = uint64(len(s.conns))
	out["cores"] = uint64(len(s.loops))
	if batchIOSupported {
		out["batch_io"] = 1
	} else {
		out["batch_io"] = 0
	}
	out["udp_rx_dropped"] = kernelRxDrops(s.Addr().Port)
	return out
}

// Telemetry exposes the node's queue-delay instrument (nil when
// disabled).
func (s *Server) Telemetry() *obs.Telemetry { return s.tel }

// RegisterMetrics publishes the node's live metrics into a scoped
// registry view: raft role gauges, data-plane and engine counter sets,
// per-core loop counters (coreN.*), socket/WAL health, and the
// per-stage queue-delay windows. Everything registered here shows up
// uniformly in the expvar snapshot and the Prometheus /metrics
// exposition.
func (s *Server) RegisterMetrics(sc *obs.Scoped) {
	if sc == nil {
		return
	}
	sc.Gauge("uptime_seconds", func() float64 { return time.Since(s.start).Seconds() })
	sc.Gauge("known_clients", func() float64 { return float64(s.pub.clients.Load()) })
	sc.Gauge("raft.is_leader", func() float64 {
		if s.IsLeader() {
			return 1
		}
		return 0
	})
	sc.Gauge("raft.term", func() float64 { return float64(s.pub.term.Load()) })
	sc.Gauge("raft.commit_index", func() float64 { return float64(s.pub.commit.Load()) })
	sc.Gauge("raft.applied_index", func() float64 { return float64(s.pub.applied.Load()) })
	sc.CounterSet("net", s.ctr)
	sc.CounterSet("engine", s.engine.Counters())
	sc.Gauge("net.sockets", func() float64 { return float64(len(s.conns)) })
	sc.Gauge("net.cores", func() float64 { return float64(len(s.loops)) })
	sc.Gauge("net.affinity", func() float64 { return float64(s.affinity) })
	sc.Gauge("net.batch_io", func() float64 {
		if batchIOSupported {
			return 1
		}
		return 0
	})
	for i, lp := range s.loops {
		sc.CounterSet(fmt.Sprintf("core%d", i), lp.Counters())
	}
	// Kernel-side receive drops (SO_RCVBUF overflow): datagrams that
	// never reached userspace, read from /proc at scrape time.
	sc.Counter("net.udp_rx_dropped", func() uint64 { return kernelRxDrops(s.Addr().Port) })
	if fs, ok := s.cfg.Storage.(*raft.FileStorage); ok {
		sc.Counter("wal.fsyncs", fs.SyncCount)
		sc.Gauge("wal.pending_records", func() float64 { return float64(fs.PendingRecords()) })
	}
	if s.admit != nil {
		av := sc.Sub("admission")
		s.admCtrl.Register(av)
		av.Counter("admitted", s.pub.admAdmitted.Load)
		av.Counter("nacked", s.pub.admNacked.Load)
		av.Counter("leaked", s.pub.admLeaked.Load)
		av.Gauge("inflight", func() float64 { return float64(s.pub.admInflight.Load()) })
	}
	s.tel.Register(sc)
}

// Campaign triggers an immediate election (cluster bootstrap helper).
// It runs in the owner loop's context like every other engine step.
func (s *Server) Campaign() {
	done := make(chan struct{})
	if !s.owner.Submit(func() {
		s.engine.Campaign()
		s.publish()
		close(done)
	}) {
		return
	}
	select {
	case <-done:
	case <-s.closed:
	}
}

// Close shuts the server down and waits for its goroutines.
func (s *Server) Close() error {
	s.closeMu.Do(func() {
		close(s.closed)
		for _, c := range s.conns {
			c.Close()
		}
		// runq is deliberately never closed: serverRunner.Run may race
		// a send against shutdown; appLoop exits via the closed signal
		// and the buffered queue is garbage collected.
	})
	s.wg.Wait()
	return nil
}

// coreLoop is one core's goroutine, pinned to one socket for its whole
// life. The owning core alternates between a deadline-bounded batch
// read and Advance (handoff drain, tick, egress flush), re-kicking its
// own deadline when a producer's wakeup raced the arm. Forwarding
// cores just block on their socket and push each batch into the
// owner's mailbox.
func (s *Server) coreLoop(lp *runtime.Loop, r *batchReader, c *net.UDPConn) {
	defer s.wg.Done()
	owner := lp.IsOwner()
	// armed is the tick time the read deadline is set to; -1 once a
	// kick or timeout may have replaced it with a past deadline.
	armed := time.Duration(-1)
	for {
		if owner {
			// Park at most until the next tick. The deadline is re-armed
			// only when the tick time moved or a failed read consumed it:
			// a kick always fails the next read (an expired deadline
			// fails every read), so an untouched deadline is either the
			// armed one or a kick still pending. After an arm, the
			// pending re-check catches a producer that kicked between
			// Advance and the arm, whose expired deadline the arm just
			// overwrote.
			if due := lp.NextTick(); due != armed {
				armed = due
				var t time.Time
				if due > 0 {
					t = s.start.Add(due)
				}
				_ = c.SetReadDeadline(t)
				if !lp.ShouldPark() {
					_ = c.SetReadDeadline(aLongTimeAgo)
				}
			}
		}
		n, err := r.read()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if owner {
				armed = -1
				lp.Advance() // timeout or kick: tick and drain handoffs
			}
			continue
		}
		s.ctr.Get("ingress_datagrams").Add(uint64(n))
		s.ctr.Get("ingress_syscalls").Inc()
		if owner && s.tel.Active() {
			// Ingress queue delay: how long this batch waits between
			// leaving the kernel and entering the engine. Run to
			// completion makes this a clock-pair apart on the owning
			// core — the stage exists to prove exactly that (handoffs
			// from other cores record their real mailbox sojourn).
			t0 := s.tel.Now()
			s.tel.RecordN(obs.QIngress, s.tel.Now()-t0, n)
		}
		for i := 0; i < n; i++ {
			lp.Ingest(r.views[i], r.keys[i], uint16(r.addrs[i].Port))
		}
		if owner {
			lp.Advance()
		}
	}
}

// deliver is the owner loop's ingest: rebuild the sender address from
// the (ip, port) identity — uniform for direct and mailboxed datagrams
// — and feed the driver. owned datagrams (none over UDP today; the
// mailbox copies) may be retained by the handler.
func (s *Server) deliver(dg []byte, src uint32, port uint16, owned bool) {
	binary.BigEndian.PutUint32(s.fromIP[:], src)
	s.fromAddr.Port = int(port)
	s.from = &s.fromAddr
	if owned {
		s.drv.Ingest(dg, src)
	} else {
		s.drv.IngestBorrowed(dg, src)
	}
}

// ownerTick is the owner loop's timer body: admission window update,
// protocol tick, control-plane publish, WAL latency bound.
func (s *Server) ownerTick() {
	if s.admCtrl != nil {
		// The controller reads the telemetry signal and resizes the
		// window; its outputs are atomics, so only the middlebox-state
		// writes (limit, hint, slot GC) touch owner-core state.
		s.admCtrl.Tick()
		s.admit.SetLimit(s.admCtrl.Window())
		s.admit.NackHint = s.admCtrl.Hint()
		if now := time.Since(s.start); now >= s.admGC {
			s.admit.GC(now)
			s.admGC = now + 250*time.Millisecond
		}
	}
	s.drv.Tick()
	s.publish()
	if s.gc != nil {
		// Latency bound for staged WAL records that no egress barrier
		// has covered yet (honors FsyncDelay).
		s.gc.MaybeFlush()
	}
}

// publish refreshes the control-plane snapshot from the engine. Owner
// loop only.
func (s *Server) publish() {
	st := s.engine.Node().Status()
	s.pub.state.Store(uint32(st.State))
	s.pub.term.Store(st.Term)
	s.pub.lead.Store(uint64(st.Lead))
	s.pub.commit.Store(st.Commit)
	s.pub.applied.Store(st.Applied)
	s.pub.last.Store(st.Last)
	s.pub.clients.Store(uint64(len(s.clients)))
	if s.admit != nil {
		s.pub.admWindow.Store(uint64(s.admCtrl.Window()))
		s.pub.admInflight.Store(uint64(s.admit.InFlight()))
		s.pub.admAdmitted.Store(s.admit.Admitted)
		s.pub.admNacked.Store(s.admit.Nacked)
		s.pub.admLeaked.Store(s.admit.Leaked)
	}
}

// appLoop is the application thread: it executes each batch's
// operations back to back (off the owner core), then submits one
// completion carrying every reply back into the owner loop, which
// delivers it at its next boundary.
func (s *Server) appLoop() {
	defer s.wg.Done()
	var replies [][]byte
	for {
		select {
		case <-s.closed:
			return
		case job := <-s.runq:
			// The engine dispatches the next batch only after consuming
			// this one's replies, so the slice can be reused.
			replies = replies[:0]
			for i := range job.ops {
				op := &job.ops[i]
				var t0 time.Duration
				if s.tel.Active() {
					t0 = s.tel.Now()
					if op.Stamped {
						// Apply-queue delay: commit → execution start.
						s.tel.Record(obs.QApplyQueue, t0-op.Committed)
					}
				}
				replies = append(replies, s.service.Execute(op.Payload, op.ReadOnly))
				if s.tel.Active() {
					s.tel.Record(obs.QService, s.tel.Now()-t0)
				}
			}
			done, out := job.done, replies
			s.owner.Submit(func() { done(out) })
		}
	}
}

// flushOwned is the owner loop's coalesced send path and the
// durability barrier: first the group-committing storage (if any)
// makes every staged WAL record durable — no ack may leave before its
// covering fsync — then the pass's whole egress (replies, FEEDBACK,
// AppendEntries, to any mix of destinations) goes out in sendmmsg
// batches on the owner's socket.
func (s *Server) flushOwned() {
	n := len(s.egBufs)
	if n == 0 {
		return
	}
	if s.gc != nil {
		if s.tel.Active() {
			t0 := s.tel.Now()
			s.gc.Flush()
			// The group-commit barrier: WAL write+fsync latency covered
			// by this egress batch.
			s.tel.Record(obs.QWalSync, s.tel.Now()-t0)
		} else {
			s.gc.Flush()
		}
	}
	var eg0 time.Duration
	if s.tel.Active() {
		eg0 = s.tel.Now()
	}
	s.snd.send(s.egAddrs, s.egPkts)
	if s.tel.Active() {
		s.tel.RecordN(obs.QEgress, s.tel.Now()-eg0, n)
	}
	s.ctr.Get("egress_datagrams").Add(uint64(n))
	s.ctr.Get("egress_syscalls").Add(s.snd.syscalls)
	s.snd.syscalls, s.snd.datagrams = 0, 0
	for i, b := range s.egBufs {
		b.Release()
		s.egBufs[i], s.egAddrs[i], s.egPkts[i] = nil, nil, nil
	}
	s.egBufs, s.egAddrs, s.egPkts = s.egBufs[:0], s.egAddrs[:0], s.egPkts[:0]
}

// serverHandler adapts Server to runtime.Handler: it learns client
// reply addresses from requests, then feeds the engine. It only ever
// runs on the owning core.
type serverHandler Server

func (h *serverHandler) HandleMessage(m *r2p2.Msg) {
	switch m.Type {
	case r2p2.TypeRequest:
		// Remember where to send this client's replies. The r2p2
		// SrcPort disambiguates clients sharing an IP. h.from points at
		// the owner's reused scratch address, so the table keeps a
		// stable clone (refreshed if the client re-binds).
		k := clientKey{ip: m.ID.SrcIP, port: m.ID.SrcPort}
		if known := h.clients[k]; !sameUDPAddr(known, h.from) {
			h.clients[k] = cloneUDPAddr(h.from)
		}
		// Leader-side admission: over plain UDP no middlebox fronts the
		// cluster, so the leader itself sheds requests above the
		// adaptive window, answering with a hinted NACK. Followers stay
		// permissive — requests fan out to every node, and only the
		// leader's verdict is authoritative (a follower NACK would race
		// an admitted request's response in the client's fan-in count).
		// LIN_READs bypass admission entirely: they never enter the
		// replication path the window protects, and a hinted NACK would
		// put the client into write-style backoff when the read protocol
		// is an immediate redirect to the next replica.
		if h.admit != nil && h.engine.IsLeader() && m.Policy != r2p2.PolicyLinRead &&
			!h.admit.Admit(m.ID.SrcPort, m.ID.ReqID, time.Since(h.start)) {
			(*serverTransport)(h).enqueue(h.clients[k],
				[]*wire.Buf{r2p2.MakeNackHintBuf(m.ID, h.admit.NackHint)})
			return
		}
	case r2p2.TypeFeedback:
		// Feedback addressed to this node (it is, or recently was, the
		// leader): every record frees one admission slot. The engine
		// never consumes FEEDBACK — it is a middlebox/admission message.
		if h.admit != nil {
			h.admit.Release(m.ID.SrcPort, m.ID.ReqID)
			for i := 0; i < r2p2.FeedbackRecordCount(m.Payload); i++ {
				h.admit.Release(r2p2.FeedbackRecordAt(m.Payload, i))
			}
		}
		return
	}
	h.engine.HandleMessage(m)
}

// serverTransport adapts Server to core.Transport. Sends are queued on
// the owner's egress coalescer (the engine only ever steps in the
// owner loop) and flushed at the end of the same loop pass.
type serverTransport Server

func (t *serverTransport) enqueue(addr *net.UDPAddr, dgs []*wire.Buf) {
	if addr == nil {
		wire.ReleaseAll(dgs)
		return
	}
	for _, b := range dgs {
		t.egAddrs = append(t.egAddrs, addr)
		t.egBufs = append(t.egBufs, b)
		t.egPkts = append(t.egPkts, b.B)
	}
}

func (t *serverTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	t.enqueue(t.peers[id], dgs)
}

func (t *serverTransport) SendToAggregator(dgs []*wire.Buf) { t.enqueue(t.agg, dgs) }

func (t *serverTransport) SendToClient(id r2p2.RequestID, dgs []*wire.Buf) {
	t.enqueue(t.clients[clientKey{ip: id.SrcIP, port: id.SrcPort}], dgs)
}

func (t *serverTransport) SendFeedback(dgs []*wire.Buf) {
	if t.admit == nil {
		// No middlebox over plain UDP: flow control is a switch service.
		wire.ReleaseAll(dgs)
		return
	}
	// Receiver-driven credit without a middlebox: the replier's feedback
	// must reach whoever admits — the leader. When this node leads it
	// consumes its own feedback in place; otherwise the datagrams go to
	// the leader it knows of (reply load balancing makes followers emit
	// feedback for requests the leader admitted).
	if t.engine.IsLeader() {
		for _, b := range dgs {
			var h r2p2.Header
			if h.Unmarshal(b.B) == nil && h.Type == r2p2.TypeFeedback {
				t.admit.Release(h.SrcPort, h.ReqID)
				payload := b.B[r2p2.HeaderSize:]
				for i := 0; i < r2p2.FeedbackRecordCount(payload); i++ {
					t.admit.Release(r2p2.FeedbackRecordAt(payload, i))
				}
			}
		}
		wire.ReleaseAll(dgs)
		return
	}
	lead := t.engine.Node().Status().Lead
	t.enqueue(t.peers[lead], dgs)
}

// serverRunner adapts Server to core.AppRunner.
type serverRunner Server

func (r *serverRunner) Run(ops []core.AppOp, done func([][]byte)) {
	select {
	case r.runq <- runJob{ops: ops, done: done}:
	case <-r.closed:
	}
}
