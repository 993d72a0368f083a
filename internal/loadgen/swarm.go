package loadgen

import (
	"fmt"
	"math"
	"time"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/shard"
	"hovercraft/internal/simnet"
	"hovercraft/internal/stats"
)

// swarmPortsPerHost caps endpoints per simulated host: each endpoint is
// one R2P2 (ip, port) identity, so a host carries a slab of the 16-bit
// port space and the swarm spreads across hosts beyond that.
const swarmPortsPerHost = 16384

// SwarmConfig parameterizes a Swarm: up to O(10⁵) simulated open-loop
// client endpoints driven by one aggregate arrival process over sharded
// state tables — no per-client goroutines or per-client histograms, so
// a hundred thousand clients cost what their in-flight requests cost.
type SwarmConfig struct {
	// Clients is the number of simulated endpoints (default 1). Each
	// gets its own R2P2 identity, so the flow-control middlebox and the
	// servers' dedup caches see a realistic client population.
	Clients int
	// Rate is the aggregate offered load in requests/s across the whole
	// swarm (open loop, Poisson arrivals). Superposing the per-client
	// Poisson processes into one is exact, which is what makes the
	// shared arrival loop valid.
	Rate float64
	// RateFn, when non-nil, makes the offered load time-varying: sampled
	// at every arrival, it overrides Rate (diurnal ramps, flash crowds,
	// retry storms). Must stay positive.
	RateFn func(now time.Duration) float64
	// Warmup is excluded from measurement; Duration is the window.
	Warmup   time.Duration
	Duration time.Duration
	// Timeout expires an unanswered attempt (default 10ms).
	Timeout time.Duration
	// Retries is the per-request retransmission budget; resends reuse
	// the original request ID (exactly-once via the server dedup cache).
	Retries int
	// RetryBackoff seeds the exponential backoff (default Timeout).
	RetryBackoff time.Duration
	// Workload generates request payloads and policies.
	Workload Workload
	// Target is where requests go (middlebox, leader, or server).
	Target simnet.Addr
	// BasePort is the first endpoint port on each host (default 1000).
	BasePort uint16
	// SampleEvery, if nonzero, records throughput/p99 time series.
	SampleEvery time.Duration
	// OnComplete, if non-nil, sees every answered request's payload once.
	OnComplete func(payload []byte)
	// Router, when non-nil, shards requests by key (Workload must be a
	// KeyedWorkload) and breaks results down per group.
	Router *shard.Router
}

// swarmReq is one outstanding request's state. The swarm keys it by
// (host, reqID) — request IDs are drawn from a host-wide counter, so
// they are unique within a host across all its endpoint ports.
type swarmReq struct {
	id r2p2.RequestID
	// sentAt is the latest transmission time: latency measures the
	// response time of the attempt that was admitted and answered.
	// Client-side shedding (NACK backoff) is reported separately via
	// NackRate/Retries, not folded into the admitted tail.
	sentAt time.Duration
	inMeas bool
	// attempt counts transmissions; expiry timers carry the attempt they
	// armed for and fire as no-ops if a NACK retry already re-armed it.
	attempt    int
	group      int
	redirected bool
	key        []byte
	raw        []byte
	policy     r2p2.Policy
}

// swarmHost is one simulated host carrying a slab of endpoints: its own
// pending table, reassembler, and duplicate-response window.
type swarmHost struct {
	host    *simnet.Host
	reasm   *r2p2.Reassembler
	ports   int    // endpoints on this host
	nextReq uint32 // host-wide request ID counter
	pending map[uint32]*swarmReq
	done    *ringSet
}

// Swarm is the scaled-out counterpart of Client: one aggregate Poisson
// arrival loop fans requests out across many simulated endpoints, and
// all measurement state is shared. Counters and Result match Client's.
type Swarm struct {
	retrier
	cfg   SwarmConfig
	sim   *simnet.Sim
	hosts []*swarmHost

	Latency    *stats.Histogram
	Sent       uint64
	Completed  uint64
	Nacked     uint64
	Expired    uint64
	Redirected uint64

	Retries        uint64
	DupsSuppressed uint64

	Throughput stats.Series
	TailP99    stats.Series

	intervalHist      *stats.Histogram
	intervalCompleted uint64
	stopped           bool
}

// NewSwarm attaches a swarm of cfg.Clients endpoints to the network,
// spread over ceil(Clients/16384) hosts named <name>-<i>.
func NewSwarm(net *simnet.Network, name string, hostCfg simnet.HostConfig, cfg SwarmConfig) *Swarm {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Millisecond
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = cfg.Timeout
	}
	if cfg.BasePort == 0 {
		cfg.BasePort = 1000
	}
	s := &Swarm{
		retrier: retrier{
			rng: net.Sim().Rand(), retries: cfg.Retries,
			timeout: cfg.Timeout, base: cfg.RetryBackoff,
		},
		cfg:          cfg,
		sim:          net.Sim(),
		Latency:      stats.NewHistogram(),
		intervalHist: stats.NewHistogram(),
	}
	nHosts := (cfg.Clients + swarmPortsPerHost - 1) / swarmPortsPerHost
	left := cfg.Clients
	for i := 0; i < nHosts; i++ {
		h := &swarmHost{
			reasm:   r2p2.NewReassembler(cfg.Timeout),
			ports:   min(left, swarmPortsPerHost),
			pending: make(map[uint32]*swarmReq),
			done:    newRingSet(1 << 16),
		}
		left -= h.ports
		h.host = net.NewHost(fmt.Sprintf("%s-%d", name, i), hostCfg)
		hh := h
		h.host.SetHandler(func(pkt *simnet.Packet) { s.onPacket(hh, pkt) })
		s.hosts = append(s.hosts, h)
	}
	return s
}

// Hosts returns the swarm's simulated hosts.
func (s *Swarm) Hosts() []*simnet.Host {
	out := make([]*simnet.Host, len(s.hosts))
	for i, h := range s.hosts {
		out[i] = h.host
	}
	return out
}

// Start begins offering load.
func (s *Swarm) Start() {
	s.scheduleNext()
	s.sim.After(s.cfg.Timeout/2, s.gcTick)
	if s.cfg.SampleEvery > 0 {
		s.sim.After(s.cfg.SampleEvery, s.sampleTick)
	}
}

// Stop ceases load generation (in-flight retries still drain).
func (s *Swarm) Stop() { s.stopped = true }

func (s *Swarm) end() time.Duration { return s.cfg.Warmup + s.cfg.Duration }

func (s *Swarm) rate() float64 {
	if s.cfg.RateFn != nil {
		if r := s.cfg.RateFn(s.sim.Now()); r > 0 {
			return r
		}
	}
	return s.cfg.Rate
}

func (s *Swarm) scheduleNext() {
	if s.stopped {
		return
	}
	gap := time.Duration(s.rng.ExpFloat64() / s.rate() * float64(time.Second))
	s.sim.After(gap, func() {
		if s.stopped || s.sim.Now() >= s.end() {
			return
		}
		s.sendOne()
		s.scheduleNext()
	})
}

func (s *Swarm) sendOne() {
	// Pick the originating endpoint uniformly: exact thinning of the
	// aggregate Poisson process back into per-client processes.
	n := s.rng.Intn(s.cfg.Clients)
	h := s.hosts[n/swarmPortsPerHost]
	port := s.cfg.BasePort + uint16(n%swarmPortsPerHost)

	req := &swarmReq{group: -1, sentAt: s.sim.Now()}
	if s.cfg.Router != nil {
		kw, ok := s.cfg.Workload.(KeyedWorkload)
		if !ok {
			panic("loadgen: Router configured but Workload is not a KeyedWorkload")
		}
		req.key, req.raw, req.policy = kw.NextKeyed(s.rng)
		req.group = int(s.cfg.Router.Route(req.key))
	} else {
		req.raw, req.policy = s.cfg.Workload.Next(s.rng)
	}
	req.inMeas = req.sentAt >= s.cfg.Warmup
	if req.inMeas {
		s.Sent++
		if req.group >= 0 {
			s.shardStat(req.group).Sent++
		}
	}
	h.nextReq++
	req.id = r2p2.RequestID{SrcIP: uint32(h.host.Addr()), SrcPort: port, ReqID: h.nextReq}
	req.attempt = 1
	s.transmit(h, req)
}

// transmit puts req's datagrams on the wire and arms the expiry timer
// for its current attempt.
func (s *Swarm) transmit(h *swarmHost, req *swarmReq) {
	req.sentAt = s.sim.Now()
	dgs := r2p2.MakeMsg(r2p2.TypeRequest, req.policy, req.id.SrcPort, req.id.ReqID, req.raw, 0)
	if req.group >= 0 {
		r2p2.StampGroup(dgs, uint8(req.group))
	}
	h.pending[req.id.ReqID] = req
	s.armExpiry(h, req)
	for _, dg := range dgs {
		h.host.Send(&simnet.Packet{Dst: s.cfg.Target, Payload: dg})
	}
}

// armExpiry schedules attempt-scoped expiry: the timer is a no-op if
// the request completed or a NACK retry already advanced the attempt.
func (s *Swarm) armExpiry(h *swarmHost, req *swarmReq) {
	att := req.attempt
	reqID := req.id.ReqID
	s.sim.After(s.backoff(att), func() {
		e, ok := h.pending[reqID]
		if !ok || e.attempt != att {
			return
		}
		if e.attempt <= s.cfg.Retries {
			s.retransmit(h, e)
			return
		}
		delete(h.pending, reqID)
		if e.inMeas {
			s.Expired++
			if e.group >= 0 {
				s.shardStat(e.group).Expired++
			}
		}
	})
}

// retransmit re-sends req reusing its request ID (dedup-safe).
func (s *Swarm) retransmit(h *swarmHost, req *swarmReq) {
	req.attempt++
	s.Retries++
	s.transmit(h, req)
}

func (s *Swarm) onPacket(h *swarmHost, pkt *simnet.Packet) {
	m, err := h.reasm.Ingest(pkt.Payload, uint32(pkt.Src), s.sim.Now())
	if err != nil || m == nil {
		return
	}
	switch m.Type {
	case r2p2.TypeResponse:
		req, ok := h.pending[m.ID.ReqID]
		if !ok {
			if h.done.has(m.ID.ReqID) {
				s.DupsSuppressed++
			}
			return
		}
		delete(h.pending, m.ID.ReqID)
		h.done.add(m.ID.ReqID)
		if s.cfg.OnComplete != nil {
			s.cfg.OnComplete(req.raw)
		}
		lat := s.sim.Now() - req.sentAt
		s.intervalCompleted++
		s.intervalHist.RecordDuration(lat)
		if req.inMeas {
			s.Completed++
			s.Latency.RecordDuration(lat)
			if req.group >= 0 {
				st := s.shardStat(req.group)
				st.Completed++
				st.Latency.RecordDuration(lat)
			}
		}
	case r2p2.TypeNack:
		req, ok := h.pending[m.ID.ReqID]
		if !ok {
			if h.done.has(m.ID.ReqID) {
				s.DupsSuppressed++
			}
			return
		}
		if m.Group == r2p2.GroupInvalid && s.cfg.Router != nil && !req.redirected {
			// Stale shard map: refresh and re-route once under a fresh
			// request ID.
			if s.cfg.Router.OnRedirect() {
				delete(h.pending, m.ID.ReqID)
				h.done.add(m.ID.ReqID)
				s.Redirected++
				if req.group >= 0 {
					s.shardStat(req.group).Redirected++
				}
				req.redirected = true
				req.group = int(s.cfg.Router.Route(req.key))
				h.nextReq++
				req.id = r2p2.RequestID{SrcIP: req.id.SrcIP, SrcPort: req.id.SrcPort, ReqID: h.nextReq}
				req.attempt = 1
				s.transmit(h, req)
				return
			}
		}
		// Flow-control rejection (NackRate counts rejections, not failed
		// ops — a retried-and-answered request appears in both Nacked and
		// Completed).
		if req.inMeas {
			s.Nacked++
			if req.group >= 0 {
				s.shardStat(req.group).Nacked++
			}
		}
		if req.attempt <= s.cfg.Retries {
			// Honor the retry-after hint with jitter; the attempt bump
			// invalidates the outstanding expiry timer.
			hint := r2p2.NackRetryAfter(m.Payload)
			delete(h.pending, m.ID.ReqID)
			req.attempt++
			s.Retries++
			s.sim.After(s.retryDelay(req.attempt-1, hint), func() {
				s.transmit(h, req)
			})
			return
		}
		delete(h.pending, m.ID.ReqID)
		h.done.add(m.ID.ReqID)
	}
}

func (s *Swarm) pendingLen() int {
	n := 0
	for _, h := range s.hosts {
		n += len(h.pending)
	}
	return n
}

func (s *Swarm) gcTick() {
	for _, h := range s.hosts {
		h.reasm.GC(s.sim.Now())
	}
	if s.sim.Now() < s.end()+s.cfg.Timeout || s.pendingLen() > 0 {
		s.sim.After(s.cfg.Timeout/2, s.gcTick)
	}
}

func (s *Swarm) sampleTick() {
	secs := s.cfg.SampleEvery.Seconds()
	s.Throughput.Add(s.sim.Now(), float64(s.intervalCompleted)/secs)
	s.TailP99.Add(s.sim.Now(), float64(s.intervalHist.P99())/1e6) // ms
	s.intervalCompleted = 0
	s.intervalHist.Reset()
	if s.sim.Now() < s.end() {
		s.sim.After(s.cfg.SampleEvery, s.sampleTick)
	}
}

// Result computes the run summary in Client's shape, so harness code
// treats a swarm and a single client interchangeably.
func (s *Swarm) Result() Result {
	d := s.cfg.Duration.Seconds()
	return Result{
		Offered:        float64(s.Sent) / d,
		Achieved:       float64(s.Completed) / d,
		NackRate:       float64(s.Nacked) / d,
		LossRate:       float64(s.Expired) / d,
		Retries:        s.Retries,
		DupsSuppressed: s.DupsSuppressed,
		Latency:        s.Latency.Summary(),
		Throughput:     &s.Throughput,
		TailP99:        &s.TailP99,
	}
}

// DiurnalRate returns a time-varying offered load sweeping sinusoidally
// between low and high once per period — the datacenter diurnal curve
// compressed to simulation time. The ramp starts at low.
func DiurnalRate(low, high float64, period time.Duration) func(time.Duration) float64 {
	mid := (low + high) / 2
	amp := (high - low) / 2
	return func(now time.Duration) float64 {
		phase := 2 * math.Pi * float64(now) / float64(period)
		return mid - amp*math.Cos(phase)
	}
}

// StepRate returns base until the step time, then spike — a flash crowd
// or the load surge a mass retry storm produces.
func StepRate(base, spike float64, at time.Duration) func(time.Duration) float64 {
	return func(now time.Duration) float64 {
		if now >= at {
			return spike
		}
		return base
	}
}
