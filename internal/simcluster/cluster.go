// Package simcluster assembles a complete HovercRaft deployment inside
// the discrete-event simulator: server nodes running the protocol engine,
// the flow-control middlebox, the in-network aggregator, multicast
// groups, and hooks for load-generating clients. It is the simulated
// equivalent of the paper's testbed (§7) and the substrate for every
// experiment in the harness.
package simcluster

import (
	"fmt"
	"time"

	"hovercraft/internal/admission"
	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
	"hovercraft/internal/runtime"
	"hovercraft/internal/simnet"
	"hovercraft/internal/wire"
)

// Setup selects one of the paper's four evaluated systems.
type Setup uint8

const (
	// SetupUnreplicated is the non-fault-tolerant baseline (one node).
	SetupUnreplicated Setup = iota
	// SetupVanilla is Raft-on-R2P2 with no HovercRaft extensions.
	SetupVanilla
	// SetupHovercraft adds multicast replication, reply/read load
	// balancing, and flow control.
	SetupHovercraft
	// SetupHovercraftPP adds the in-network aggregator.
	SetupHovercraftPP
)

func (s Setup) String() string {
	switch s {
	case SetupUnreplicated:
		return "UnRep"
	case SetupVanilla:
		return "VanillaRaft"
	case SetupHovercraft:
		return "HovercRaft"
	case SetupHovercraftPP:
		return "HovercRaft++"
	default:
		return fmt.Sprintf("setup(%d)", uint8(s))
	}
}

// Options configures a simulated cluster.
type Options struct {
	Setup Setup
	// Nodes is the cluster size (forced to 1 for SetupUnreplicated).
	Nodes int
	Seed  int64
	// Host configures node NICs; zero value uses paper defaults.
	Host simnet.HostConfig

	// Engine knobs (zero values take core defaults).
	TickInterval   time.Duration
	ElectionTicks  int
	HeartbeatTicks int
	Bound          int
	Policy         core.SelectPolicy
	DisableReplyLB bool
	// MaxInflightEntries / MaxBatchBytes tune replication pipelining
	// and per-AE batching; zero values take the paper-faithful core
	// defaults (deep pipeline, unbounded batch).
	MaxInflightEntries int
	MaxBatchBytes      int

	// ReadLease enables the leader-lease/ReadIndex linearizable read
	// fast path (core.Config.ReadLease): LIN_READ requests sent
	// point-to-point to any replica are served locally without log
	// replication. The lease clock is the engine tick — virtual time
	// here — so same-seed runs stay bit-identical.
	ReadLease bool
	// ReadStalenessBudget relaxes follower reads to bounded staleness
	// (core.Config.ReadStalenessBudget). 0 = strict linearizability.
	ReadStalenessBudget time.Duration
	// ReadNackAfter is the read SLO bound before a replica NACKs a
	// queued read (core.Config.ReadNackAfter; 0 = 500µs).
	ReadNackAfter time.Duration
	// DriftTicks is the lease clock-drift margin (raft.Config.DriftTicks).
	DriftTicks int

	// FlowLimit caps in-flight requests at the middlebox (0 = 4096).
	FlowLimit int

	// AdaptiveAdmission replaces the fixed FlowLimit window with the
	// AIMD controller of internal/admission: the middlebox admit window
	// tracks the worst queue-delay p99 across the nodes' consensus-path
	// stages, shrinking under overload and recovering toward FlowLimit
	// when the tail is healthy. Shed requests carry a retry-after hint.
	// Requires per-node telemetry; when NewTelemetry is unset a
	// fine-grained default (1ms epochs) is installed automatically.
	AdaptiveAdmission bool
	// Admission tunes the controller; zero values take the admission
	// package defaults, with Max/Initial defaulting to FlowLimit.
	Admission admission.Config
	// AdmitTick is the controller's cadence (default 250µs virtual).
	AdmitTick time.Duration

	// CompactEvery enables raft log compaction every N applied entries
	// when the service implements core.Snapshotter (0 = off).
	CompactEvery uint64

	// Cores models the transport's per-core run-to-completion shards in
	// virtual time: ingress packets hash by source across Cores virtual
	// cores, the engine is owned by core 0, and packets landing on any
	// other core cross into the owner through the same bounded SPSC
	// mailboxes the UDP transport uses, drained at the owner's next
	// tick boundary. 0 or 1 keeps the single-core path bit-identical to
	// the pre-sharding behavior. Runs remain fully deterministic for a
	// fixed seed: the hash, the drain order, and the tick cadence are
	// all functions of simulated state.
	Cores int
	// HandoffDepth bounds each virtual core's mailbox in packets
	// (0 = 1024); a full mailbox drops the packet, like the transport.
	HandoffDepth int

	// WAL, when true, gives every node an in-memory framed write-ahead
	// log (raft.BufferStorage) so a crashed node can come back through
	// Node.RestartFromWAL — a real post-crash recovery (volatile state
	// lost, service rebuilt by log replay) rather than the in-memory
	// resume of Node.Restart.
	WAL bool

	// NewService builds each node's application instance. The returned
	// cost model charges the simulated app thread; return the service
	// itself when it implements app.CostModel.
	NewService func() (app.Service, app.CostModel)

	// Preload is applied to every node's service before the cluster
	// starts (dataset loading, outside the measured window).
	Preload [][]byte

	// Obs, when non-nil, traces the request path and records cluster
	// events across every node, the fabric, and the middleboxes. Its
	// clock is bound to this cluster's virtual time.
	Obs *obs.Obs

	// NewTelemetry, when non-nil, builds each node's queue-delay
	// telemetry instrument (per-stage windowed histograms). The cluster
	// binds every instrument's clock to virtual time, so a fixed seed
	// produces identical telemetry counts run over run. The instrument
	// survives crash/restart cycles (it models the process, not the
	// engine incarnation).
	NewTelemetry func(id raft.NodeID) *obs.Telemetry
}

// Node is one simulated server.
type Node struct {
	ID      raft.NodeID
	Host    *simnet.Host
	Engine  *core.Engine             // nil for SetupUnreplicated
	Unrep   *core.UnreplicatedEngine // nil unless SetupUnreplicated
	Service app.Service
	Tel     *obs.Telemetry // nil unless Options.NewTelemetry

	cluster    *Cluster
	drv        *runtime.Driver
	inboxes    []*runtime.Mailbox // cross-core handoff rings (Options.Cores > 1)
	crashed    bool
	storage    *raft.BufferStorage
	fsyncDelay time.Duration
	peers      []raft.NodeID
}

// Cluster is the assembled deployment.
type Cluster struct {
	Sim  *simnet.Sim
	Net  *simnet.Network
	Opts Options

	Nodes []*Node
	Agg   *core.Aggregator
	Flow  *core.FlowControl
	// Admission is the adaptive controller driving Flow's window (nil
	// unless Options.AdaptiveAdmission in a middlebox setup).
	Admission *admission.Controller

	// ServiceAddr is where clients send requests: the middlebox in
	// HovercRaft modes, the (initial) leader in Vanilla, the server in
	// UnRep.
	ServiceAddr simnet.Addr

	aggHost  *simnet.Host
	flowHost *simnet.Host

	groupAll    simnet.Addr
	groupExcept map[raft.NodeID]simnet.Addr
	addrOf      map[raft.NodeID]simnet.Addr
}

// New assembles a cluster (does not start ticking; call Start).
func New(opts Options) *Cluster {
	if opts.Setup == SetupUnreplicated {
		opts.Nodes = 1
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Host.LinkBps == 0 {
		opts.Host = simnet.DefaultHostConfig()
	}
	if opts.FlowLimit <= 0 {
		opts.FlowLimit = 4096
	}
	if opts.TickInterval <= 0 {
		opts.TickInterval = 10 * time.Microsecond
	}
	if opts.NewService == nil {
		opts.NewService = func() (app.Service, app.CostModel) {
			s := &app.SynthService{}
			return s, s
		}
	}
	if opts.AdaptiveAdmission && opts.NewTelemetry == nil {
		// The controller needs the queue-delay signal; default to
		// instruments fine-grained enough for µs-scale simulated runs.
		opts.NewTelemetry = defaultAdmissionTelemetry(opts.Admission.Target)
	}
	if opts.AdmitTick <= 0 {
		opts.AdmitTick = 250 * time.Microsecond
	}

	c := &Cluster{
		Sim:         simnet.New(opts.Seed),
		Opts:        opts,
		groupExcept: make(map[raft.NodeID]simnet.Addr),
		addrOf:      make(map[raft.NodeID]simnet.Addr),
	}
	c.Net = simnet.NewNetwork(c.Sim)
	if opts.Obs.Active() {
		opts.Obs.SetClock(c.Sim.Now)
		c.Net.SetObserver(func(kind, detail string) {
			opts.Obs.Emit("net", kind, detail)
		})
	}

	peers := make([]raft.NodeID, opts.Nodes)
	for i := range peers {
		peers[i] = raft.NodeID(i + 1)
	}

	// Server hosts.
	for _, id := range peers {
		h := c.Net.NewHost(fmt.Sprintf("node%d", id), opts.Host)
		c.addrOf[id] = h.Addr()
		n := &Node{ID: id, Host: h, cluster: c, peers: peers}
		if opts.NewTelemetry != nil {
			n.Tel = opts.NewTelemetry(id)
			n.Tel.SetClock(c.Sim.Now)
		}
		if opts.WAL && opts.Setup != SetupUnreplicated {
			n.storage = raft.NewBufferStorage()
			n.storage.OnAppend = func(int) {
				if n.fsyncDelay > 0 {
					n.Host.App().Submit(n.fsyncDelay, nil)
				}
			}
		}
		c.buildEngine(n)
		c.Nodes = append(c.Nodes, n)
	}

	// Multicast groups.
	addrs := make([]simnet.Addr, 0, len(peers))
	for _, id := range peers {
		addrs = append(addrs, c.addrOf[id])
	}
	c.groupAll = c.Net.NewGroup(addrs...)
	for _, id := range peers {
		var rest []simnet.Addr
		for _, other := range peers {
			if other != id {
				rest = append(rest, c.addrOf[other])
			}
		}
		c.groupExcept[id] = c.Net.NewGroup(rest...)
	}

	switch opts.Setup {
	case SetupUnreplicated, SetupVanilla:
		c.ServiceAddr = c.addrOf[1]
	default:
		// Flow-control middlebox in front of the multicast group. It is
		// switch hardware: line-rate, negligible per-packet software cost.
		mbCfg := opts.Host
		mbCfg.LinkBps = 100_000_000_000
		mbCfg.RxCost = 50 * time.Nanosecond
		mbCfg.TxCost = 50 * time.Nanosecond
		mbCfg.EgressQueue = 8192
		mbCfg.IngressQueue = 8192
		c.flowHost = c.Net.NewHost("flowctl", mbCfg)
		c.Flow = core.NewFlowControl(opts.FlowLimit, 20*time.Millisecond)
		c.flowHost.SetHandler(c.onFlowPacket)
		c.ServiceAddr = c.flowHost.Addr()
		if opts.AdaptiveAdmission {
			c.Admission = newFlowController(opts.Admission, opts.FlowLimit,
				admission.WorstOf(c.liveTels))
			c.Flow.NackHint = c.Admission.Hint()
		}
	}

	if opts.Setup == SetupHovercraftPP {
		agCfg := opts.Host
		agCfg.LinkBps = 100_000_000_000
		agCfg.RxCost = 50 * time.Nanosecond
		agCfg.TxCost = 50 * time.Nanosecond
		agCfg.EgressQueue = 8192
		agCfg.IngressQueue = 8192
		c.aggHost = c.Net.NewHost("aggregator", agCfg)
		c.Agg = core.NewAggregator(peers, &aggTransport{c: c})
		aggDrv := runtime.New(c.Agg, runtime.Options{
			Now: c.Sim.Now, ReasmTimeout: 20 * time.Millisecond,
		})
		c.aggHost.SetHandler(func(pkt *simnet.Packet) {
			aggDrv.Ingest(pkt.Payload, uint32(pkt.Src))
		})
	}
	return c
}

// buildEngine constructs (or reconstructs, after a WAL restart) the
// node's service and protocol engine, and installs the packet handler.
func (c *Cluster) buildEngine(n *Node) {
	opts := c.Opts
	svc, cost := opts.NewService()
	for _, payload := range opts.Preload {
		svc.Execute(payload, false)
	}
	n.Service = svc
	runner := newSimRunner(n.Host, svc, cost, n.Tel)
	if opts.Setup == SetupUnreplicated {
		n.Unrep = core.NewUnreplicatedEngine(&nodeTransport{c: c, host: n.Host}, runner)
		n.Unrep.SetObs(opts.Obs)
	} else {
		mode := core.ModeVanilla
		switch opts.Setup {
		case SetupHovercraft:
			mode = core.ModeHovercraft
		case SetupHovercraftPP:
			mode = core.ModeHovercraftPP
		}
		var snapshotter core.Snapshotter
		if sn, ok := svc.(core.Snapshotter); ok && opts.CompactEvery > 0 {
			snapshotter = sn
		}
		var storage raft.Storage
		if n.storage != nil {
			storage = n.storage
		}
		n.Engine = core.NewEngine(core.Config{
			Mode: mode, ID: n.ID, Peers: n.peers,
			TickInterval:   opts.TickInterval,
			ElectionTicks:  opts.ElectionTicks,
			HeartbeatTicks: opts.HeartbeatTicks,
			Bound:          opts.Bound,
			Policy:         opts.Policy,
			DisableReplyLB: opts.DisableReplyLB,
			Rand:           c.Sim.Rand(),
			Snapshotter:    snapshotter,
			CompactEvery:   opts.CompactEvery,
			Storage:        storage,
			Obs:            opts.Obs,
			Tel:            n.Tel,

			MaxInflightEntries: opts.MaxInflightEntries,
			MaxBatchBytes:      opts.MaxBatchBytes,

			ReadLease:           opts.ReadLease,
			ReadStalenessBudget: opts.ReadStalenessBudget,
			ReadNackAfter:       opts.ReadNackAfter,
			DriftTicks:          opts.DriftTicks,
		}, &nodeTransport{c: c, host: n.Host}, runner)
	}
	var handler runtime.Handler
	var tick func()
	if n.Unrep != nil {
		handler = n.Unrep
	} else {
		handler = n.Engine
		tick = n.Engine.Tick
	}
	n.drv = runtime.New(handler, runtime.Options{
		Now:          c.Sim.Now,
		ReasmTimeout: 20 * time.Millisecond,
		Tick:         tick,
		GCEvery:      1024,
		Telemetry:    n.Tel,
	})
	n.resetCores()
	n.Host.SetHandler(n.onPacket)
}

// resetCores rebuilds the node's cross-core mailboxes empty: the rings
// model per-core NIC queues, so a crash (or an engine rebuild) loses
// whatever was parked in them, exactly like the real transport.
func (n *Node) resetCores() {
	opts := n.cluster.Opts
	if opts.Cores <= 1 {
		n.inboxes = nil
		return
	}
	n.inboxes = make([]*runtime.Mailbox, opts.Cores-1)
	for i := range n.inboxes {
		n.inboxes[i] = runtime.NewMailbox(opts.HandoffDepth)
	}
}

// Start launches tick loops and elects node 1 (deterministic bootstrap,
// as in the paper's experiments where the leader is fixed).
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.startTicking()
	}
	if c.Opts.Setup != SetupUnreplicated {
		c.Nodes[0].Engine.Campaign()
	}
	if c.Flow != nil {
		c.flowGC()
	}
	if c.Admission != nil {
		c.admitTick()
	}
}

// defaultAdmissionTelemetry builds the per-node instrument installed
// when adaptive admission is requested without explicit telemetry:
// 1ms epochs over an 8-slot ring, SLO'd at the controller's target.
func defaultAdmissionTelemetry(target time.Duration) func(raft.NodeID) *obs.Telemetry {
	if target <= 0 {
		target = 500 * time.Microsecond
	}
	return func(raft.NodeID) *obs.Telemetry {
		t := obs.NewTelemetry(nil, time.Millisecond, 8)
		t.SetSLO(target, 0.99)
		return t
	}
}

// newFlowController builds the AIMD controller for one middlebox
// window, defaulting its ceiling to the static flow limit so the
// adaptive window only ever shrinks below the configured cap.
func newFlowController(cfg admission.Config, flowLimit int, sig admission.Signal) *admission.Controller {
	if cfg.Max <= 0 {
		cfg.Max = flowLimit
	}
	if cfg.Initial <= 0 {
		cfg.Initial = cfg.Max
	}
	return admission.New(cfg, sig)
}

// liveTels is the admission signal's view: telemetry of every node
// still running (a crashed node's stale window must not hold the
// cluster's admit window down through a failover).
func (c *Cluster) liveTels() []*obs.Telemetry {
	tels := make([]*obs.Telemetry, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		if !n.crashed {
			tels = append(tels, n.Tel)
		}
	}
	return tels
}

// admitTick is the control loop: read the signal, resize the window,
// refresh the NACK retry-after hint.
func (c *Cluster) admitTick() {
	c.Admission.Tick()
	c.Flow.SetLimit(c.Admission.Window())
	c.Flow.NackHint = c.Admission.Hint()
	c.Sim.After(c.Opts.AdmitTick, c.admitTick)
}

// RegisterMetrics exposes the middlebox admission state on the
// registry: flow window counters/occupancy plus, when the adaptive
// controller runs, its window/hint/step state under "admission", and
// every node's queue-delay telemetry under node<N>.qdelay.*.
func (c *Cluster) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	if c.Flow != nil {
		fv := reg.Sub("flow")
		fv.Counter("admitted", func() uint64 { return c.Flow.Admitted })
		fv.Counter("nacked", func() uint64 { return c.Flow.Nacked })
		fv.Counter("leaked", func() uint64 { return c.Flow.Leaked })
		fv.Gauge("inflight", func() float64 { return float64(c.Flow.InFlight()) })
		fv.Gauge("limit", func() float64 { return float64(c.Flow.Limit) })
	}
	if c.Admission != nil {
		c.Admission.Register(reg.Sub("admission"))
	}
	for _, n := range c.Nodes {
		nv := reg.Sub(fmt.Sprintf("node%d", n.ID))
		if n.Tel.Active() {
			n.Tel.Register(nv)
		}
		// Virtual-core handoff health (Options.Cores > 1): pushes and
		// drops per forwarding core, mirroring the transport's coreN
		// counter families. The mailboxes are rebuilt on crash, so the
		// closures re-read them at scrape time.
		n := n
		for ci := range n.inboxes {
			ci := ci
			cv := nv.Sub(fmt.Sprintf("core%d", ci+1))
			cv.Counter("handoff_in", func() uint64 {
				if ci < len(n.inboxes) {
					return n.inboxes[ci].Pushed()
				}
				return 0
			})
			cv.Counter("handoff_drops", func() uint64 {
				if ci < len(n.inboxes) {
					return n.inboxes[ci].Dropped()
				}
				return 0
			})
		}
	}
}

func (c *Cluster) flowGC() {
	if n := c.Flow.GC(c.Sim.Now()); n > 0 && c.Opts.Obs.Active() {
		c.Opts.Obs.Emitf("flow", "slot_reclaim", "reclaimed %d leaked in-flight slots", n)
	}
	c.Sim.After(5*time.Millisecond, c.flowGC)
}

// AggHost exposes the aggregator's simulated host (failure injection in
// tests; nil outside HovercRaft++).
func (c *Cluster) AggHost() *simnet.Host { return c.aggHost }

// Leader returns the current leader node, or nil.
func (c *Cluster) Leader() *Node {
	for _, n := range c.Nodes {
		if !n.crashed && n.Engine != nil && n.Engine.IsLeader() {
			return n
		}
	}
	return nil
}

// Node returns the node with the given ID.
func (c *Cluster) NodeByID(id raft.NodeID) *Node {
	for _, n := range c.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// NodeAddr returns the network address of one node — where lin-read
// clients send point-to-point LIN_READ requests (reads bypass the
// middlebox and its request multicast entirely).
func (c *Cluster) NodeAddr(id raft.NodeID) simnet.Addr { return c.addrOf[id] }

// NodeAddrs returns every node's address in ID order: the read-target
// rotation set for loadgen clients spreading lin-reads across the
// group.
func (c *Cluster) NodeAddrs() []simnet.Addr {
	addrs := make([]simnet.Addr, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		addrs = append(addrs, c.addrOf[n.ID])
	}
	return addrs
}

// Run advances the simulation to the given virtual time.
func (c *Cluster) Run(until time.Duration) { c.Sim.Run(until) }

// --- node mechanics ------------------------------------------------------

func (n *Node) startTicking() {
	n.crashed = false
	var loop func()
	loop = func() {
		if n.crashed {
			return
		}
		n.drainCores()
		n.drv.Tick()
		n.cluster.Sim.After(n.cluster.Opts.TickInterval, loop)
	}
	n.cluster.Sim.After(n.cluster.Opts.TickInterval, loop)
}

// onPacket is the node's virtual NIC. Single-core (the default) feeds
// the engine directly. With Options.Cores > 1 the packet first lands on
// the core its source hashes to — the simulated analogue of the
// kernel's reuseport flow hash — and only core 0 (the engine owner)
// ingests in place; the rest park the packet in their mailbox for the
// owner's next tick boundary.
func (n *Node) onPacket(pkt *simnet.Packet) {
	cores := n.cluster.Opts.Cores
	if cores <= 1 {
		n.drv.Ingest(pkt.Payload, uint32(pkt.Src))
		return
	}
	core := int(uint32(pkt.Src) % uint32(cores))
	if core == 0 {
		n.drv.Ingest(pkt.Payload, uint32(pkt.Src))
		return
	}
	mb := n.inboxes[core-1]
	now := n.cluster.Sim.Now()
	if pkt.Buf != nil {
		// The fabric reclaims pooled buffers when this handler returns:
		// parking the payload across tick boundaries needs a copy.
		mb.Push(pkt.Payload, uint32(pkt.Src), 0, now)
	} else {
		// Client request payloads are plain heap memory parked
		// server-side anyway — alias them, exactly like Ingest would.
		mb.PushOwned(pkt.Payload, uint32(pkt.Src), 0, now)
	}
}

// drainCores empties every virtual core's mailbox into the engine, in
// core order — the deterministic stand-in for the owner loop's
// Advance. Copied packets follow the borrowed-buffer contract (their
// slot is reused), owned ones may be retained by the engine.
func (n *Node) drainCores() {
	for _, mb := range n.inboxes {
		mb.Drain(mb.Cap(), func(dg []byte, src uint32, _ uint16, owned bool, at time.Duration) {
			if n.Tel.Active() {
				n.Tel.Record(obs.QIngress, n.cluster.Sim.Now()-at)
			}
			if owned {
				n.drv.Ingest(dg, src)
			} else {
				n.drv.IngestBorrowed(dg, src)
			}
		})
	}
}

// Crash fail-stops the node.
func (n *Node) Crash() {
	n.crashed = true
	n.resetCores() // per-core NIC queues die with the machine
	n.Host.Crash()
	if n.cluster.Opts.Obs.Active() {
		n.cluster.Opts.Obs.Emitf("node", "crash", "node %d fail-stopped", n.ID)
	}
}

// Restart revives a crashed node with its in-memory protocol state (the
// network queues are lost; Raft recovery brings it back up to date).
func (n *Node) Restart() {
	n.Host.Restart()
	n.startTicking()
	if n.cluster.Opts.Obs.Active() {
		n.cluster.Opts.Obs.Emitf("node", "restart", "node %d restarted", n.ID)
	}
}

// Crashed reports the node's failure state.
func (n *Node) Crashed() bool { return n.crashed }

// Storage returns the node's in-memory WAL (nil unless Options.WAL).
func (n *Node) Storage() *raft.BufferStorage { return n.storage }

// SetFsyncDelay injects a per-record persistence stall: every WAL append
// additionally occupies the node's application thread for d (the
// fsync-delay fault). Zero clears it. No-op without Options.WAL.
func (n *Node) SetFsyncDelay(d time.Duration) { n.fsyncDelay = d }

// RestartFromWAL revives a crashed node the way a real machine comes
// back: all volatile state is discarded, a fresh engine and service are
// built, and the durable state is recovered from the node's WAL.
// tornBytes > 0 first shears that many bytes off the WAL tail,
// simulating a crash mid-write; recovery must then discard the torn
// record. The service state is rebuilt by Raft re-applying the log once
// the node rejoins (replayed replies are suppressed client-side by
// request-ID dedup). Returns raft.ErrCorrupt if the WAL is damaged
// beyond the torn-tail contract.
func (n *Node) RestartFromWAL(tornBytes int) error {
	if n.storage == nil {
		return fmt.Errorf("simcluster: node %d has no WAL (Options.WAL not set)", n.ID)
	}
	if tornBytes > 0 {
		n.storage.TruncateTail(tornBytes)
	}
	rs, err := n.storage.Recover()
	if err != nil {
		return err
	}
	n.cluster.buildEngine(n) // rebuilds the runtime driver (fresh reassembly state)
	if err := n.Engine.Bootstrap(rs); err != nil {
		return err
	}
	n.Host.Restart()
	n.startTicking()
	if n.cluster.Opts.Obs.Active() {
		n.cluster.Opts.Obs.Emitf("node", "restart", "node %d recovered from WAL (torn=%dB, term=%d, %d entries)",
			n.ID, tornBytes, rs.Term, len(rs.Entries))
	}
	return nil
}

// --- transports ------------------------------------------------------------

// sendBufs hands pooled datagrams to a host: each Packet takes over the
// buffer's reference, which the network releases at delivery (or drop).
func sendBufs(host *simnet.Host, dst simnet.Addr, dgs []*wire.Buf) {
	for _, b := range dgs {
		host.Send(&simnet.Packet{Dst: dst, Payload: b.B, Buf: b})
	}
}

type nodeTransport struct {
	c    *Cluster
	host *simnet.Host
}

func (t *nodeTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.addrOf[id]
	if !ok {
		wire.ReleaseAll(dgs)
		return
	}
	sendBufs(t.host, dst, dgs)
}

func (t *nodeTransport) SendToAggregator(dgs []*wire.Buf) {
	if t.c.aggHost == nil {
		wire.ReleaseAll(dgs)
		return
	}
	sendBufs(t.host, t.c.aggHost.Addr(), dgs)
}

func (t *nodeTransport) SendToClient(id r2p2.RequestID, dgs []*wire.Buf) {
	sendBufs(t.host, simnet.Addr(id.SrcIP), dgs)
}

func (t *nodeTransport) SendFeedback(dgs []*wire.Buf) {
	if t.c.flowHost == nil {
		wire.ReleaseAll(dgs)
		return
	}
	sendBufs(t.host, t.c.flowHost.Addr(), dgs)
}

type aggTransport struct{ c *Cluster }

func (t *aggTransport) ForwardToFollowers(leader raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.groupExcept[leader]
	if !ok {
		dst = t.c.groupAll
	}
	sendBufs(t.c.aggHost, dst, dgs)
}

func (t *aggTransport) Broadcast(dgs []*wire.Buf) {
	sendBufs(t.c.aggHost, t.c.groupAll, dgs)
}

func (t *aggTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.addrOf[id]
	if !ok {
		wire.ReleaseAll(dgs)
		return
	}
	sendBufs(t.c.aggHost, dst, dgs)
}

// onFlowPacket is the middlebox datapath.
func (c *Cluster) onFlowPacket(pkt *simnet.Packet) {
	verdict, nack := c.Flow.HandleDatagram(pkt.Payload, uint32(pkt.Src), c.Sim.Now())
	switch verdict {
	case core.VerdictForward:
		// Rewrite destination to the cluster multicast group, keeping
		// the client's source address.
		c.flowHost.SendFrom(&simnet.Packet{Src: pkt.Src, Dst: c.groupAll, Payload: pkt.Payload})
	case core.VerdictNack:
		if c.Opts.Obs.Active() {
			c.Opts.Obs.Emitf("flow", "nack", "middlebox nacked request from %v (window full)", pkt.Src)
		}
		c.flowHost.Send(&simnet.Packet{Dst: pkt.Src, Payload: nack})
	}
}

// --- app runner -------------------------------------------------------------

// simRunner executes a batch on the node's simulated app thread one op
// at a time, submitting each op when the previous one completes: every
// op costs and completes at its own virtual time, queued behind any
// app-thread work (fsync stalls) submitted while its predecessor ran.
type simRunner struct {
	host *simnet.Host
	svc  app.Service
	cost app.CostModel
	tel  *obs.Telemetry

	ops      []core.AppOp
	done     func([][]byte)
	next     int
	t0       time.Duration // telemetry clock at the in-service op's submit
	reply    [1][]byte
	complete func() // r.completeOp, bound once
}

func newSimRunner(host *simnet.Host, svc app.Service, cost app.CostModel, tel *obs.Telemetry) *simRunner {
	r := &simRunner{host: host, svc: svc, cost: cost, tel: tel}
	r.complete = r.completeOp
	return r
}

func (r *simRunner) Run(ops []core.AppOp, done func([][]byte)) {
	r.ops, r.done, r.next = ops, done, 0
	r.submit()
}

// submit puts ops[next] on the app thread.
func (r *simRunner) submit() {
	op := &r.ops[r.next]
	var c time.Duration
	if r.cost != nil {
		c = r.cost.Cost(op.Payload, op.ReadOnly)
	}
	if r.tel.Active() {
		// QService is the sojourn on the simulated app thread: execution
		// cost plus any contention with other submitted work (e.g. fsync
		// stalls).
		r.t0 = r.tel.Now()
		if op.Stamped {
			r.tel.Record(obs.QApplyQueue, r.t0-op.Committed)
		}
	}
	r.host.App().Submit(c, r.complete)
}

// completeOp executes ops[next] at its completion time, submits the next
// op, and reports the reply. The engine may start a new batch from
// inside done, so nothing here touches the runner after it.
func (r *simRunner) completeOp() {
	op := &r.ops[r.next]
	if r.tel.Active() {
		r.tel.Record(obs.QService, r.tel.Now()-r.t0)
	}
	r.reply[0] = r.svc.Execute(op.Payload, op.ReadOnly)
	done := r.done
	if r.next++; r.next < len(r.ops) {
		r.submit()
	}
	done(r.reply[:])
}
