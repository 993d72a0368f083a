// Package simcluster assembles a complete HovercRaft deployment inside
// the discrete-event simulator: server nodes running the protocol engine,
// the flow-control middlebox, the in-network aggregator, multicast
// groups, and hooks for load-generating clients. It is the simulated
// equivalent of the paper's testbed (§7) and the substrate for every
// experiment in the harness.
//
// One Cluster runs Options.Groups independent Raft groups (Multi-Raft
// sharding, DESIGN §4.8) placed by shard.Place over a pool of
// Options.Nodes nodes, Options.Replication replicas each. The paper's
// single-group deployment is Groups=1, Replication=Nodes. Each node owns
// one runtime driver that dispatches on the R2P2 group byte to the
// engine of that group, and one middlebox fronts every group with a
// per-group flow-control window.
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
	"hovercraft/internal/shard"
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
	// Nodes is the node pool size (forced to 1 for SetupUnreplicated).
	Nodes int
	// Groups is the number of independent Raft groups placed over the
	// pool (default 1, at most shard.MaxGroups). Groups > 1 requires
	// SetupHovercraft.
	Groups int
	// Replication is each group's replica count (default Nodes). Group
	// g's members and bootstrap leader come from shard.Place.
	Replication int
	Seed        int64
	// Host configures node NICs; zero value uses paper defaults.
	Host simnet.HostConfig

	// Engine knobs (zero values take core defaults), applied per group.
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

	// FlowLimit caps each group's in-flight requests at the middlebox
	// (0 = 4096).
	FlowLimit int

	// AdaptiveAdmission replaces each group's fixed FlowLimit window
	// with an AIMD controller of internal/admission: the group's admit
	// window tracks the worst queue-delay p99 across its live members'
	// consensus-path stages, shrinking under overload and recovering
	// toward FlowLimit when the tail is healthy, so a hot group sheds
	// load while cold groups keep their full windows. Shed requests
	// carry a retry-after hint. Requires per-node telemetry; when
	// NewTelemetry is unset a fine-grained default (1ms epochs) is
	// installed automatically.
	AdaptiveAdmission bool
	// Admission tunes the controllers; zero values take the admission
	// package defaults, with Max/Initial defaulting to FlowLimit.
	Admission admission.Config
	// AdmitTick is the controllers' cadence (default 250µs virtual).
	AdmitTick time.Duration

	// CompactEvery enables raft log compaction every N applied entries
	// when the service implements core.Snapshotter (0 = off).
	CompactEvery uint64

	// Cores models the transport's per-core run-to-completion shards in
	// virtual time: ingress packets hash by source across Cores virtual
	// cores, the engines are owned by core 0, and packets landing on any
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

	// WAL, when true, gives every replica an in-memory framed
	// write-ahead log (raft.BufferStorage, one per group a node hosts)
	// so a crashed node can come back through Node.RestartFromWAL — a
	// real post-crash recovery (volatile state lost, services rebuilt by
	// log replay) rather than the in-memory resume of Node.Restart.
	WAL bool

	// NewService builds one group's application instance on one node.
	// Every member of a group must build equivalent state machines; the
	// group argument lets a keyed service know which slice of the
	// keyspace it owns. The returned cost model charges the simulated
	// app thread; return the service itself when it implements
	// app.CostModel.
	NewService func(group int) (app.Service, app.CostModel)

	// Preload is applied to every service instance before the cluster
	// starts (dataset loading, outside the measured window).
	Preload [][]byte

	// Obs, when non-nil, traces the request path and records cluster
	// events across every node, the fabric, and the middleboxes. Its
	// clock is bound to this cluster's virtual time.
	Obs *obs.Obs

	// NewTelemetry, when non-nil, builds each node's queue-delay
	// telemetry instrument (per-stage windowed histograms), shared by
	// every group replica the node hosts. The cluster binds every
	// instrument's clock to virtual time, so a fixed seed produces
	// identical telemetry counts run over run. The instrument survives
	// crash/restart cycles (it models the process, not the engine
	// incarnation).
	NewTelemetry func(id raft.NodeID) *obs.Telemetry
}

// Node is one simulated server. It hosts a replica of every group it is
// a member of, all sharing the node's simulated host (NIC, app thread) —
// the contention that makes overlapping placements saturate honestly.
type Node struct {
	ID   raft.NodeID
	Host *simnet.Host
	// Engines is indexed by group; nil where the node hosts no replica
	// of the group, and everywhere under SetupUnreplicated.
	Engines []*core.Engine
	// Services is indexed like Engines (Services[0] under
	// SetupUnreplicated).
	Services []app.Service
	Unrep    *core.UnreplicatedEngine // nil unless SetupUnreplicated
	Tel      *obs.Telemetry           // nil unless Options.NewTelemetry

	cluster    *Cluster
	drv        *runtime.Driver
	inboxes    []*runtime.Mailbox    // cross-core handoff rings (Options.Cores > 1)
	wals       []*raft.BufferStorage // indexed like Engines (Options.WAL)
	crashed    bool
	fsyncDelay time.Duration
}

// Group is one Raft group's cluster-side state.
type Group struct {
	ID      shard.GroupID
	Members []raft.NodeID
	// Flow is the group's middlebox admission window (nil in setups
	// without the middlebox).
	Flow *core.FlowControl
	// Ctrl is the adaptive controller driving Flow's window (nil unless
	// Options.AdaptiveAdmission in a middlebox setup).
	Ctrl *admission.Controller

	addr simnet.Addr // multicast address of the member set
}

// Cluster is the assembled deployment.
type Cluster struct {
	Sim  *simnet.Sim
	Net  *simnet.Network
	Opts Options

	// Map is the shard map clients route keys by.
	Map *shard.Map
	// Placement records each group's members and bootstrap leader.
	Placement shard.Placement

	Nodes  []*Node
	Groups []*Group
	Agg    *core.Aggregator

	// ServiceAddr is where clients send requests: the middlebox in
	// HovercRaft modes, the (initial) leader in Vanilla, the server in
	// UnRep.
	ServiceAddr simnet.Addr

	// StaleNacks counts requests the middlebox NACKed with the
	// r2p2.GroupInvalid redirect sentinel (client shard map newer than
	// the deployment's).
	StaleNacks uint64

	aggHost  *simnet.Host
	flowHost *simnet.Host

	groupExcept map[raft.NodeID]simnet.Addr // aggregator fan-out (HovercRaft++)
	addrOf      map[raft.NodeID]simnet.Addr
}

// New assembles a cluster (does not start ticking; call Start). It
// panics on Groups > 1 with any setup but SetupHovercraft.
func New(opts Options) *Cluster {
	if opts.Setup == SetupUnreplicated {
		opts.Nodes = 1
	}
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Groups <= 0 {
		opts.Groups = 1
	}
	if opts.Groups > 1 && opts.Setup != SetupHovercraft {
		panic(fmt.Sprintf("simcluster: %d groups need setup %v, not %v", opts.Groups, SetupHovercraft, opts.Setup))
	}
	if opts.Replication <= 0 {
		opts.Replication = opts.Nodes
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
		opts.NewService = func(int) (app.Service, app.CostModel) {
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
		Map:         shard.NewMap(opts.Groups),
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

	pool := make([]raft.NodeID, opts.Nodes)
	for i := range pool {
		pool[i] = raft.NodeID(i + 1)
	}
	c.Placement = shard.Place(opts.Groups, pool, opts.Replication)

	// Server hosts; engines are attached per group below.
	for _, id := range pool {
		h := c.Net.NewHost(fmt.Sprintf("node%d", id), opts.Host)
		c.addrOf[id] = h.Addr()
		n := &Node{
			ID: id, Host: h, cluster: c,
			Engines:  make([]*core.Engine, opts.Groups),
			Services: make([]app.Service, opts.Groups),
			wals:     make([]*raft.BufferStorage, opts.Groups),
		}
		if opts.NewTelemetry != nil {
			n.Tel = opts.NewTelemetry(id)
			n.Tel.SetClock(c.Sim.Now)
		}
		c.Nodes = append(c.Nodes, n)
	}

	// Per-group multicast addresses and member replicas. Engines draw
	// their randomness from the shared sim RNG in group-then-member
	// order, so a fixed seed fixes every election timeout.
	for g, members := range c.Placement.Members {
		addrs := make([]simnet.Addr, len(members))
		for i, id := range members {
			addrs[i] = c.addrOf[id]
		}
		c.Groups = append(c.Groups, &Group{
			ID: shard.GroupID(g), Members: members, addr: c.Net.NewGroup(addrs...),
		})
		for _, id := range members {
			n := c.Nodes[int(id)-1]
			if opts.WAL && opts.Setup != SetupUnreplicated {
				n.wals[g] = n.newWAL()
			}
			c.buildEngine(n, g)
		}
	}
	for _, n := range c.Nodes {
		n.buildDriver()
	}

	switch opts.Setup {
	case SetupUnreplicated, SetupVanilla:
		c.ServiceAddr = c.addrOf[1]
	default:
		// One flow-control middlebox fronts every group: it
		// demultiplexes on the R2P2 group byte, charges the group's own
		// window, and rewrites the destination to the group's multicast
		// address.
		c.flowHost = c.Net.NewHost("flowctl", switchHost(opts.Host))
		for _, grp := range c.Groups {
			grp.Flow = core.NewFlowControl(opts.FlowLimit, 20*time.Millisecond)
			if opts.AdaptiveAdmission {
				grp.Ctrl = newFlowController(opts.Admission, opts.FlowLimit,
					admission.WorstOf(c.liveTels(grp.Members)))
				grp.Flow.NackHint = grp.Ctrl.Hint()
			}
		}
		c.flowHost.SetHandler(c.onFlowPacket)
		c.ServiceAddr = c.flowHost.Addr()
	}

	if opts.Setup == SetupHovercraftPP {
		// The in-network aggregator serves the single group: it fans
		// out to every member but the leader.
		members := c.Groups[0].Members
		for _, id := range members {
			var rest []simnet.Addr
			for _, other := range members {
				if other != id {
					rest = append(rest, c.addrOf[other])
				}
			}
			c.groupExcept[id] = c.Net.NewGroup(rest...)
		}
		c.aggHost = c.Net.NewHost("aggregator", switchHost(opts.Host))
		c.Agg = core.NewAggregator(members, &aggTransport{c: c})
		aggDrv := runtime.New(c.Agg, runtime.Options{
			Now: c.Sim.Now, ReasmTimeout: 20 * time.Millisecond,
		})
		c.aggHost.SetHandler(func(pkt *simnet.Packet) {
			aggDrv.Ingest(pkt.Payload, uint32(pkt.Src))
		})
	}
	return c
}

// switchHost is the host config of an in-network device (middlebox,
// aggregator): switch hardware, line-rate, negligible per-packet
// software cost.
func switchHost(cfg simnet.HostConfig) simnet.HostConfig {
	cfg.LinkBps = 100_000_000_000
	cfg.RxCost = 50 * time.Nanosecond
	cfg.TxCost = 50 * time.Nanosecond
	cfg.EgressQueue = 8192
	cfg.IngressQueue = 8192
	return cfg
}

// newWAL builds one replica's in-memory WAL. Every append also stalls
// the node's app thread for the injected fsync delay, if any.
func (n *Node) newWAL() *raft.BufferStorage {
	w := raft.NewBufferStorage()
	w.OnAppend = func(int) {
		if n.fsyncDelay > 0 {
			n.Host.App().Submit(n.fsyncDelay, nil)
		}
	}
	return w
}

// buildEngine constructs (or reconstructs, after a WAL restart) the
// node's service and protocol engine for group g.
func (c *Cluster) buildEngine(n *Node, g int) {
	opts := c.Opts
	svc, cost := opts.NewService(g)
	for _, payload := range opts.Preload {
		svc.Execute(payload, false)
	}
	n.Services[g] = svc
	runner := newSimRunner(n.Host, svc, cost, n.Tel)
	tr := &nodeTransport{c: c, host: n.Host, group: uint8(g)}
	if opts.Setup == SetupUnreplicated {
		n.Unrep = core.NewUnreplicatedEngine(tr, runner)
		n.Unrep.SetObs(opts.Obs)
		return
	}
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
	if w := n.wals[g]; w != nil {
		storage = w
	}
	n.Engines[g] = core.NewEngine(core.Config{
		Mode: mode, ID: n.ID, Peers: c.Groups[g].Members,
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
	}, tr, runner)
}

// buildDriver (re)builds the node's runtime driver — fresh reassembly
// state and empty virtual-core mailboxes — and installs the packet
// handler.
func (n *Node) buildDriver() {
	n.drv = runtime.New(runtime.HandlerFunc(n.dispatch), runtime.Options{
		Now:          n.cluster.Sim.Now,
		ReasmTimeout: 20 * time.Millisecond,
		Tick:         n.tickEngines,
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

// Start launches tick loops and campaigns each group's placed leader
// (deterministic bootstrap, as in the paper's experiments where the
// leader is fixed).
func (c *Cluster) Start() {
	for _, n := range c.Nodes {
		n.startTicking()
	}
	if c.Opts.Setup != SetupUnreplicated {
		for g, leader := range c.Placement.Leaders {
			c.Nodes[int(leader)-1].Engines[g].Campaign()
		}
	}
	if c.flowHost != nil {
		c.flowGC()
		if c.Opts.AdaptiveAdmission {
			c.admitTick()
		}
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

// liveTels is one group's admission signal: telemetry of its members
// still running (a crashed node's stale window must not hold the
// group's admit window down through a failover).
func (c *Cluster) liveTels(members []raft.NodeID) func() []*obs.Telemetry {
	return func() []*obs.Telemetry {
		tels := make([]*obs.Telemetry, 0, len(members))
		for _, id := range members {
			if n := c.Nodes[int(id)-1]; !n.crashed {
				tels = append(tels, n.Tel)
			}
		}
		return tels
	}
}

// admitTick is the control loop, one shared cadence for every group:
// read each group's signal, resize its window, refresh its NACK
// retry-after hint — a hot group's backpressure never throttles its
// neighbors.
func (c *Cluster) admitTick() {
	for _, grp := range c.Groups {
		grp.Ctrl.Tick()
		grp.Flow.SetLimit(grp.Ctrl.Window())
		grp.Flow.NackHint = grp.Ctrl.Hint()
	}
	c.Sim.After(c.Opts.AdmitTick, c.admitTick)
}

func (c *Cluster) flowGC() {
	for _, grp := range c.Groups {
		if n := grp.Flow.GC(c.Sim.Now()); n > 0 && c.Opts.Obs.Active() {
			c.Opts.Obs.Emitf("flow", "slot_reclaim", "reclaimed %d leaked in-flight slots", n)
		}
	}
	c.Sim.After(5*time.Millisecond, c.flowGC)
}

// AggHost exposes the aggregator's simulated host (failure injection in
// tests; nil outside HovercRaft++).
func (c *Cluster) AggHost() *simnet.Host { return c.aggHost }

// LeaderOf returns the node currently leading group g, or nil during an
// election (and always under SetupUnreplicated).
func (c *Cluster) LeaderOf(g int) *Node {
	for _, id := range c.Groups[g].Members {
		n := c.Nodes[int(id)-1]
		if !n.crashed && n.Engines[g] != nil && n.Engines[g].IsLeader() {
			return n
		}
	}
	return nil
}

// NodeAddrs returns every node's address in ID order: the read-target
// rotation set for loadgen clients spreading lin-reads across the
// pool.
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

// tickEngines is the node's protocol timer: every hosted group replica
// ticks on the shared cadence, in group order.
func (n *Node) tickEngines() {
	for _, e := range n.Engines {
		if e != nil {
			e.Tick()
		}
	}
}

// dispatch routes a reassembled message to the engine of its group.
func (n *Node) dispatch(m *r2p2.Msg) {
	if n.Unrep != nil {
		n.Unrep.HandleMessage(m)
		return
	}
	if g := int(m.Group); g < len(n.Engines) && n.Engines[g] != nil {
		n.Engines[g].HandleMessage(m)
		return
	}
	// Not a member of this group under the current map. A client request
	// landing here means the sender routed by a stale map: redirect it;
	// anything else (stray consensus traffic during a reconfiguration)
	// is dropped.
	if m.Type == r2p2.TypeRequest {
		nack := r2p2.MakeNack(m.ID)
		r2p2.SetGroup(nack, r2p2.GroupInvalid)
		n.Host.Send(&simnet.Packet{Dst: simnet.Addr(m.ID.SrcIP), Payload: nack})
	}
}

// onPacket is the node's virtual NIC. Single-core (the default) feeds
// the driver directly. With Options.Cores > 1 the packet first lands on
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

// drainCores empties every virtual core's mailbox into the driver, in
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

// Crash fail-stops the node, taking down its replica of every group.
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

// durable reports whether the node keeps a WAL for any group.
func (n *Node) durable() bool {
	for _, w := range n.wals {
		if w != nil {
			return true
		}
	}
	return false
}

// SetFsyncDelay injects a per-record persistence stall: every WAL append
// of any hosted group additionally occupies the node's application
// thread for d (the fsync-delay fault). Zero clears it. No-op without
// Options.WAL.
func (n *Node) SetFsyncDelay(d time.Duration) { n.fsyncDelay = d }

// RestartFromWAL revives a crashed node the way a real machine comes
// back: all volatile state is discarded, fresh engines and services are
// built, and each hosted group's durable state is recovered from its
// WAL. tornBytes > 0 first shears that many bytes off every WAL's tail,
// simulating a crash mid-write; recovery must then discard the torn
// records. The service state is rebuilt by Raft re-applying the log
// once the node rejoins (replayed replies are suppressed client-side by
// request-ID dedup). Returns raft.ErrCorrupt if a WAL is damaged beyond
// the torn-tail contract.
func (n *Node) RestartFromWAL(tornBytes int) error {
	if !n.durable() {
		return fmt.Errorf("simcluster: node %d has no WAL (Options.WAL not set)", n.ID)
	}
	states := make([]*raft.RecoveredState, len(n.wals))
	for g, w := range n.wals {
		if w == nil {
			continue
		}
		if tornBytes > 0 {
			w.TruncateTail(tornBytes)
		}
		rs, err := w.Recover()
		if err != nil {
			return err
		}
		states[g] = rs
	}
	for g, rs := range states {
		if rs != nil {
			n.cluster.buildEngine(n, g)
		}
	}
	n.buildDriver()
	for g, rs := range states {
		if rs == nil {
			continue
		}
		if err := n.Engines[g].Bootstrap(rs); err != nil {
			return err
		}
		if n.cluster.Opts.Obs.Active() {
			n.cluster.Opts.Obs.Emitf("node", "restart", "node %d recovered group %d from WAL (torn=%dB, term=%d, %d entries)",
				n.ID, g, tornBytes, rs.Term, len(rs.Entries))
		}
	}
	n.Host.Restart()
	n.startTicking()
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

// nodeTransport is the per-(node, group) engine transport. Every
// fragment carries the full R2P2 header, so stamping the group byte on
// each egress datagram tags whole messages and the engine itself stays
// group-unaware. Responses keep the stamp too, so shard-aware clients
// can attribute completions to groups without re-hashing the key.
type nodeTransport struct {
	c     *Cluster
	host  *simnet.Host
	group uint8
}

func (t *nodeTransport) send(dst simnet.Addr, dgs []*wire.Buf) {
	for _, b := range dgs {
		r2p2.SetGroup(b.B, t.group)
	}
	sendBufs(t.host, dst, dgs)
}

func (t *nodeTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.addrOf[id]
	if !ok {
		wire.ReleaseAll(dgs)
		return
	}
	t.send(dst, dgs)
}

func (t *nodeTransport) SendToAggregator(dgs []*wire.Buf) {
	if t.c.aggHost == nil {
		wire.ReleaseAll(dgs)
		return
	}
	t.send(t.c.aggHost.Addr(), dgs)
}

func (t *nodeTransport) SendToClient(id r2p2.RequestID, dgs []*wire.Buf) {
	t.send(simnet.Addr(id.SrcIP), dgs)
}

func (t *nodeTransport) SendFeedback(dgs []*wire.Buf) {
	if t.c.flowHost == nil {
		wire.ReleaseAll(dgs)
		return
	}
	t.send(t.c.flowHost.Addr(), dgs)
}

// aggTransport is the aggregator's transport; it serves group 0, the
// only group in HovercRaft++ deployments.
type aggTransport struct{ c *Cluster }

func (t *aggTransport) ForwardToFollowers(leader raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.groupExcept[leader]
	if !ok {
		dst = t.c.Groups[0].addr
	}
	sendBufs(t.c.aggHost, dst, dgs)
}

func (t *aggTransport) Broadcast(dgs []*wire.Buf) {
	sendBufs(t.c.aggHost, t.c.Groups[0].addr, dgs)
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
	g := r2p2.GroupOf(pkt.Payload)
	if int(g) >= len(c.Groups) {
		// Group this deployment does not serve (stale or corrupt client
		// map, or an unparseable frame): NACK first fragments of requests
		// with the redirect sentinel so shard-aware clients refresh their
		// map, drop the rest.
		var h r2p2.Header
		if err := h.Unmarshal(pkt.Payload); err == nil &&
			h.Type == r2p2.TypeRequest && h.Flags&r2p2.FlagFirst != 0 {
			c.StaleNacks++
			nack := r2p2.MakeNack(r2p2.IDOf(&h, uint32(pkt.Src)))
			r2p2.SetGroup(nack, r2p2.GroupInvalid)
			c.flowHost.Send(&simnet.Packet{Dst: pkt.Src, Payload: nack})
			if c.Opts.Obs.Active() {
				c.Opts.Obs.Emitf("flow", "stale_map", "redirected request for unknown group %d from %v", g, pkt.Src)
			}
		}
		return
	}
	grp := c.Groups[g]
	verdict, nack := grp.Flow.HandleDatagram(pkt.Payload, uint32(pkt.Src), c.Sim.Now())
	switch verdict {
	case core.VerdictForward:
		// Rewrite destination to the group's multicast address, keeping
		// the client's source address.
		c.flowHost.SendFrom(&simnet.Packet{Src: pkt.Src, Dst: grp.addr, Payload: pkt.Payload})
	case core.VerdictNack:
		if c.Opts.Obs.Active() {
			c.Opts.Obs.Emitf("flow", "nack", "middlebox nacked request from %v (window full)", pkt.Src)
		}
		// Flow-control NACK: echo the request's own group so clients can
		// tell back-pressure (retry later, same route) from staleness
		// (refresh the map).
		r2p2.SetGroup(nack, g)
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
