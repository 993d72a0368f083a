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

// MultiOptions configures a sharded (Multi-Raft) deployment: G independent
// HovercRaft groups placed over one shared node pool, each with its own
// multicast group and flow-control window, behind a single middlebox.
type MultiOptions struct {
	// Groups is the number of independent Raft groups (1..shard.MaxGroups).
	Groups int
	// Nodes is the shared pool size (default 3*Groups capped by need; must
	// be >= Replication).
	Nodes int
	// Replication is the per-group replica count (default 3).
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

	// FlowLimit caps in-flight requests per group (0 = 4096).
	FlowLimit int

	// AdaptiveAdmission gives every group its own AIMD admission
	// controller: each group's admit window tracks the worst queue-delay
	// p99 across that group's member replicas, so backpressure is
	// per-shard — a hot group sheds load while cold groups keep their
	// full windows. Shed requests carry a retry-after hint.
	AdaptiveAdmission bool
	// Admission tunes the controllers; zero values take the admission
	// package defaults, with Max/Initial defaulting to FlowLimit.
	Admission admission.Config
	// AdmitTick is the controllers' cadence (default 250µs virtual).
	AdmitTick time.Duration

	// NewTelemetry, when non-nil, builds each pool node's queue-delay
	// instrument (shared by every group replica the node hosts — it
	// models the process, not the group). Required by the admission
	// signal; a fine-grained default is installed when
	// AdaptiveAdmission is set without it.
	NewTelemetry func(id raft.NodeID) *obs.Telemetry

	// NewService builds one group's application instance on one node.
	// Every member of a group must build equivalent state machines; the
	// group argument lets a keyed service know which slice of the keyspace
	// it owns.
	NewService func(group int) (app.Service, app.CostModel)

	// Obs, when non-nil, traces the request path and records cluster
	// events; its clock is bound to this cluster's virtual time.
	Obs *obs.Obs
}

// ShardGroup is one Raft group's cluster-side state.
type ShardGroup struct {
	ID      shard.GroupID
	Members []raft.NodeID
	Flow    *core.FlowControl
	// Ctrl is the group's adaptive admission controller (nil unless
	// MultiOptions.AdaptiveAdmission).
	Ctrl *admission.Controller

	addr simnet.Addr // multicast address of the member set
}

// MultiNode is one pool node. It hosts an engine per group it is a member
// of, all sharing the node's simulated host (NIC, app thread) — the
// contention that makes overlapping placements saturate honestly.
type MultiNode struct {
	ID   raft.NodeID
	Host *simnet.Host
	// Engines is indexed by group; nil where this node is not a member.
	Engines []*core.Engine
	// Services is indexed like Engines.
	Services []app.Service
	// Tel is the node's queue-delay instrument, shared by its engines
	// (nil unless MultiOptions.NewTelemetry).
	Tel *obs.Telemetry

	cluster *MultiCluster
	drv     *runtime.Driver
	crashed bool
}

// MultiCluster is the assembled sharded deployment.
type MultiCluster struct {
	Sim  *simnet.Sim
	Net  *simnet.Network
	Opts MultiOptions

	// Map is the authoritative shard map clients should route by.
	Map *shard.Map
	// Placement records each group's members and placed leader.
	Placement shard.Placement

	Nodes  []*MultiNode
	Groups []*ShardGroup

	// ServiceAddr is the middlebox address clients send requests to.
	ServiceAddr simnet.Addr

	// StaleNacks counts requests NACKed with the r2p2.GroupInvalid
	// redirect sentinel (client shard map newer than the deployment).
	StaleNacks uint64

	flowHost *simnet.Host
	addrOf   map[raft.NodeID]simnet.Addr
}

// NewMulti assembles a sharded cluster (does not start ticking; call
// Start). Group g's replicas are placed by shard.Place over the pool.
func NewMulti(opts MultiOptions) *MultiCluster {
	if opts.Groups <= 0 {
		opts.Groups = 1
	}
	if opts.Replication <= 0 {
		opts.Replication = 3
	}
	if opts.Nodes <= 0 {
		// Enough nodes for disjoint groups, capped at 4 groups' worth —
		// beyond that, placements overlap by design.
		n := opts.Groups
		if n > 4 {
			n = 4
		}
		opts.Nodes = n * opts.Replication
	}
	if opts.Nodes < opts.Replication {
		opts.Nodes = opts.Replication
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
		opts.NewTelemetry = defaultAdmissionTelemetry(opts.Admission.Target)
	}
	if opts.AdmitTick <= 0 {
		opts.AdmitTick = 250 * time.Microsecond
	}

	c := &MultiCluster{
		Sim:    simnet.New(opts.Seed),
		Opts:   opts,
		Map:    shard.NewMap(opts.Groups),
		addrOf: make(map[raft.NodeID]simnet.Addr),
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

	// Pool hosts, engines attached below once groups are known.
	for _, id := range pool {
		h := c.Net.NewHost(fmt.Sprintf("node%d", id), opts.Host)
		c.addrOf[id] = h.Addr()
		n := &MultiNode{
			ID: id, Host: h, cluster: c,
			Engines:  make([]*core.Engine, opts.Groups),
			Services: make([]app.Service, opts.Groups),
		}
		if opts.NewTelemetry != nil {
			n.Tel = opts.NewTelemetry(id)
			n.Tel.SetClock(c.Sim.Now)
		}
		n.drv = runtime.New(runtime.HandlerFunc(n.dispatch), runtime.Options{
			Now:          c.Sim.Now,
			ReasmTimeout: 20 * time.Millisecond,
			Tick:         n.tickEngines,
			GCEvery:      1024,
			Telemetry:    n.Tel,
		})
		h.SetHandler(n.onPacket)
		c.Nodes = append(c.Nodes, n)
	}

	// Per-group multicast groups, flow windows, and member engines.
	for g := 0; g < opts.Groups; g++ {
		members := c.Placement.Members[g]
		addrs := make([]simnet.Addr, len(members))
		for i, id := range members {
			addrs[i] = c.addrOf[id]
		}
		sg := &ShardGroup{
			ID:      shard.GroupID(g),
			Members: members,
			Flow:    core.NewFlowControl(opts.FlowLimit, 20*time.Millisecond),
			addr:    c.Net.NewGroup(addrs...),
		}
		if opts.AdaptiveAdmission {
			sg.Ctrl = newFlowController(opts.Admission, opts.FlowLimit,
				admission.WorstOf(c.groupTels(members)))
			sg.Flow.NackHint = sg.Ctrl.Hint()
		}
		c.Groups = append(c.Groups, sg)

		for _, id := range members {
			n := c.Nodes[int(id)-1]
			svc, cost := opts.NewService(g)
			n.Services[g] = svc
			n.Engines[g] = core.NewEngine(core.Config{
				Mode: core.ModeHovercraft, ID: id, Peers: members,
				TickInterval:   opts.TickInterval,
				ElectionTicks:  opts.ElectionTicks,
				HeartbeatTicks: opts.HeartbeatTicks,
				Bound:          opts.Bound,
				Policy:         opts.Policy,
				DisableReplyLB: opts.DisableReplyLB,
				Rand:           c.Sim.Rand(),
				Obs:            opts.Obs,
				Tel:            n.Tel,
			}, &groupTransport{c: c, host: n.Host, group: uint8(g)},
				newSimRunner(n.Host, svc, cost, n.Tel))
		}
	}

	// One flow-control middlebox fronts all groups: it demultiplexes on
	// the R2P2 group byte, charges the group's own window, and rewrites
	// the destination to the group's multicast address. Requests tagged
	// with a group this deployment does not serve are NACKed with the
	// GroupInvalid sentinel so shard-aware clients refresh their map.
	mbCfg := opts.Host
	mbCfg.LinkBps = 100_000_000_000
	mbCfg.RxCost = 50 * time.Nanosecond
	mbCfg.TxCost = 50 * time.Nanosecond
	mbCfg.EgressQueue = 8192
	mbCfg.IngressQueue = 8192
	c.flowHost = c.Net.NewHost("flowctl", mbCfg)
	c.flowHost.SetHandler(c.onFlowPacket)
	c.ServiceAddr = c.flowHost.Addr()
	return c
}

// Start launches tick loops and campaigns each group's placed leader.
func (c *MultiCluster) Start() {
	for _, n := range c.Nodes {
		n.startTicking()
	}
	for g, leader := range c.Placement.Leaders {
		c.Nodes[int(leader)-1].Engines[g].Campaign()
	}
	c.flowGC()
	if c.Opts.AdaptiveAdmission {
		c.admitTick()
	}
}

// groupTels is one group's admission signal: telemetry of its live
// member nodes.
func (c *MultiCluster) groupTels(members []raft.NodeID) func() []*obs.Telemetry {
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

// admitTick runs every group's admission controller on one shared
// cadence: per-group signals, per-group windows — a hot shard's
// backpressure never throttles its neighbors.
func (c *MultiCluster) admitTick() {
	for _, sg := range c.Groups {
		sg.Ctrl.Tick()
		sg.Flow.SetLimit(sg.Ctrl.Window())
		sg.Flow.NackHint = sg.Ctrl.Hint()
	}
	c.Sim.After(c.Opts.AdmitTick, c.admitTick)
}

func (c *MultiCluster) flowGC() {
	for _, sg := range c.Groups {
		if n := sg.Flow.GC(c.Sim.Now()); n > 0 && c.Opts.Obs.Active() {
			c.Opts.Obs.Emitf("flow", "slot_reclaim", "group %d reclaimed %d leaked in-flight slots", sg.ID, n)
		}
	}
	c.Sim.After(5*time.Millisecond, c.flowGC)
}

// Run advances the simulation to the given virtual time.
func (c *MultiCluster) Run(until time.Duration) { c.Sim.Run(until) }

// NodeByID returns the pool node with the given ID.
func (c *MultiCluster) NodeByID(id raft.NodeID) *MultiNode {
	for _, n := range c.Nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// LeaderOf returns the node currently leading group g, or nil during an
// election.
func (c *MultiCluster) LeaderOf(g int) *MultiNode {
	for _, id := range c.Groups[g].Members {
		n := c.Nodes[int(id)-1]
		if !n.crashed && n.Engines[g] != nil && n.Engines[g].IsLeader() {
			return n
		}
	}
	return nil
}

// RegisterMetrics exposes per-group and per-node counters on the registry:
// shard.g<G>.flow.* (admission window), shard.g<G>.node<N>.* (engine
// counters), and the cluster-wide stale-redirect count.
func (c *MultiCluster) RegisterMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	root := reg.Sub("shard")
	root.Counter("stale_nacks", func() uint64 { return c.StaleNacks })
	for _, sg := range c.Groups {
		sg := sg
		gv := root.Sub(fmt.Sprintf("g%d", sg.ID))
		gv.Counter("flow.admitted", func() uint64 { return sg.Flow.Admitted })
		gv.Counter("flow.nacked", func() uint64 { return sg.Flow.Nacked })
		gv.Counter("flow.leaked", func() uint64 { return sg.Flow.Leaked })
		gv.Gauge("flow.inflight", func() float64 { return float64(sg.Flow.InFlight()) })
		gv.Gauge("flow.limit", func() float64 { return float64(sg.Flow.Limit) })
		if sg.Ctrl != nil {
			sg.Ctrl.Register(gv.Sub("admission"))
		}
		for _, id := range sg.Members {
			n := c.Nodes[int(id)-1]
			gv.CounterSet(fmt.Sprintf("node%d", id), n.Engines[sg.ID].Counters())
		}
	}
	for _, n := range c.Nodes {
		if n.Tel.Active() {
			n.Tel.Register(root.Sub(fmt.Sprintf("node%d", n.ID)))
		}
	}
}

// --- node mechanics ------------------------------------------------------

func (n *MultiNode) startTicking() {
	n.crashed = false
	var loop func()
	loop = func() {
		if n.crashed {
			return
		}
		n.drv.Tick()
		n.cluster.Sim.After(n.cluster.Opts.TickInterval, loop)
	}
	n.cluster.Sim.After(n.cluster.Opts.TickInterval, loop)
}

// tickEngines is the MultiNode protocol timer: every colocated group
// replica ticks on the shared cadence.
func (n *MultiNode) tickEngines() {
	for _, e := range n.Engines {
		if e != nil {
			e.Tick()
		}
	}
}

func (n *MultiNode) onPacket(pkt *simnet.Packet) {
	n.drv.Ingest(pkt.Payload, uint32(pkt.Src))
}

// dispatch routes a reassembled message to the engine of its shard group.
func (n *MultiNode) dispatch(m *r2p2.Msg) {
	g := int(m.Group)
	if g >= len(n.Engines) || n.Engines[g] == nil {
		// Not a member of this group under the current map. A client
		// request landing here means the sender routed by a stale map:
		// redirect it; anything else (stray consensus traffic during a
		// reconfiguration) is dropped.
		if m.Type == r2p2.TypeRequest {
			nack := r2p2.MakeNack(m.ID)
			r2p2.SetGroup(nack, r2p2.GroupInvalid)
			n.Host.Send(&simnet.Packet{Dst: simnet.Addr(m.ID.SrcIP), Payload: nack})
		}
		return
	}
	n.Engines[g].HandleMessage(m)
}

// Crash fail-stops the node (taking down its replicas in every group).
func (n *MultiNode) Crash() {
	n.crashed = true
	n.Host.Crash()
	if n.cluster.Opts.Obs.Active() {
		n.cluster.Opts.Obs.Emitf("node", "crash", "node %d fail-stopped", n.ID)
	}
}

// Restart revives a crashed node with its in-memory protocol state.
func (n *MultiNode) Restart() {
	n.Host.Restart()
	n.startTicking()
	if n.cluster.Opts.Obs.Active() {
		n.cluster.Opts.Obs.Emitf("node", "restart", "node %d restarted", n.ID)
	}
}

// Crashed reports the node's failure state.
func (n *MultiNode) Crashed() bool { return n.crashed }

// --- transport -----------------------------------------------------------

// groupTransport is the per-(node, group) engine transport. Every header
// already carries the full R2P2 frame per fragment, so stamping the group
// byte on each egress datagram tags whole messages — the engine itself
// stays group-unaware.
type groupTransport struct {
	c     *MultiCluster
	host  *simnet.Host
	group uint8
}

func (t *groupTransport) stamp(dgs []*wire.Buf) {
	for _, b := range dgs {
		r2p2.SetGroup(b.B, t.group)
	}
}

func (t *groupTransport) SendToNode(id raft.NodeID, dgs []*wire.Buf) {
	dst, ok := t.c.addrOf[id]
	if !ok {
		wire.ReleaseAll(dgs)
		return
	}
	t.stamp(dgs)
	sendBufs(t.host, dst, dgs)
}

func (t *groupTransport) SendToAggregator(dgs []*wire.Buf) {
	// The sharded simulation runs plain HovercRaft (no in-network
	// aggregator); the engine never calls this in ModeHovercraft.
	wire.ReleaseAll(dgs)
}

func (t *groupTransport) SendToClient(id r2p2.RequestID, dgs []*wire.Buf) {
	// Responses keep the group stamp so shard-aware clients can attribute
	// completions to groups without re-hashing the key.
	t.stamp(dgs)
	sendBufs(t.host, simnet.Addr(id.SrcIP), dgs)
}

func (t *groupTransport) SendFeedback(dgs []*wire.Buf) {
	t.stamp(dgs)
	sendBufs(t.host, t.c.flowHost.Addr(), dgs)
}

// --- middlebox datapath --------------------------------------------------

func (c *MultiCluster) onFlowPacket(pkt *simnet.Packet) {
	g := r2p2.GroupOf(pkt.Payload)
	if int(g) >= len(c.Groups) {
		// Group this deployment does not serve (stale or corrupt client
		// map, or an unparseable frame): NACK first fragments of requests
		// with the redirect sentinel, drop the rest.
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
	sg := c.Groups[g]
	verdict, nack := sg.Flow.HandleDatagram(pkt.Payload, uint32(pkt.Src), c.Sim.Now())
	switch verdict {
	case core.VerdictForward:
		// Rewrite destination to the group's multicast address, keeping
		// the client's source address.
		c.flowHost.SendFrom(&simnet.Packet{Src: pkt.Src, Dst: sg.addr, Payload: pkt.Payload})
	case core.VerdictNack:
		// Flow-control NACK: echo the request's own group so clients can
		// tell back-pressure (retry later, same route) from staleness
		// (refresh the map).
		r2p2.SetGroup(nack, uint8(sg.ID))
		c.flowHost.Send(&simnet.Packet{Dst: pkt.Src, Payload: nack})
		if c.Opts.Obs.Active() {
			c.Opts.Obs.Emitf("flow", "nack", "group %d nacked request from %v (window full)", sg.ID, pkt.Src)
		}
	}
}
