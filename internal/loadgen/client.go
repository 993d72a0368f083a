package loadgen

import (
	"time"

	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/shard"
	"hovercraft/internal/simnet"
	"hovercraft/internal/stats"
)

// ClientConfig parameterizes one simulated load-generating host.
type ClientConfig struct {
	// Rate is the offered load in requests/second (open loop: arrivals
	// are Poisson and do not wait for responses).
	Rate float64
	// Warmup is excluded from measurement; Duration is the measurement
	// window. The client stops offering load at Warmup+Duration.
	Warmup   time.Duration
	Duration time.Duration
	// Timeout expires an unanswered request attempt. With Retries == 0
	// an expired request is counted lost; with Retries > 0 it is
	// retransmitted first (see below).
	Timeout time.Duration
	// Retries is the per-request retransmission budget. A retransmission
	// reuses the original R2P2 request ID — the server-side dedup cache
	// keys on it — so a retried write applies exactly once even when the
	// retry lands on a new leader after failover.
	Retries int
	// RetryBackoff delays the first retransmission; each subsequent one
	// doubles it (exponential backoff). Defaults to Timeout.
	RetryBackoff time.Duration
	// Workload generates request payloads and policies.
	Workload Workload
	// Target is where requests are sent (middlebox, leader, or server).
	Target simnet.Addr
	// Port must be unique per client endpoint (R2P2 identity space).
	Port uint16
	// SampleEvery, if nonzero, records a throughput/latency time series
	// (for the failure experiment, Fig. 12).
	SampleEvery time.Duration
	// Obs, if non-nil, stamps the client-side lifecycle stages (send and
	// receive) so the tracer can close each request's end-to-end span.
	Obs *obs.Obs
	// OnComplete, if non-nil, is invoked once per answered request with
	// its raw payload (duplicate responses are suppressed first).
	// Failure experiments use it to audit acked operations against the
	// final replicated state: every acked op must be applied, exactly
	// once.
	OnComplete func(payload []byte)
	// ReadTargets, when non-empty, routes PolicyLinRead requests
	// point-to-point to these replica addresses round-robin instead of
	// Target — the read scale-out path: reads bypass the middlebox and
	// its request multicast and land on one replica that serves them
	// locally. A NACKed lin-read retries against the next replica
	// immediately, with no backoff sleep: a read NACK is a redirect
	// ("I can't serve this read"), not an overload signal.
	ReadTargets []simnet.Addr
	// Router, when non-nil, makes the client shard-aware: the Workload
	// must implement KeyedWorkload, requests are stamped with the group
	// owning their key, results are broken down per shard, and a
	// GroupInvalid NACK triggers a map refresh plus one re-routed retry.
	Router *shard.Router
}

type pendingReq struct {
	// id is the full request identity. Responses carry the replier's
	// address in their ID, so the original must be kept for obs lookups.
	id      r2p2.RequestID
	sentAt  time.Duration
	inMeas  bool
	payload int

	// Sharded-mode state: the routed group (-1 when unsharded), the
	// routing key and raw request, kept so a stale-map redirect can
	// re-route and re-send, and whether this op already was redirected.
	group      int
	key        []byte
	raw        []byte
	policy     r2p2.Policy
	redirected bool

	// attempt counts transmissions so far (1 after the first send);
	// retransmissions reuse id and back off exponentially.
	attempt int

	// readTgt indexes ReadTargets (mod len) for lin-reads; each
	// retransmission rotates to the next replica.
	readTgt int
}

// Client is an open-loop Poisson load generator attached to a simulated
// host, measuring per-request latency from send to response arrival
// (hardware-timestamp-style: at the NIC handler, before any client-side
// queueing).
type Client struct {
	retrier
	cfg  ClientConfig
	host *simnet.Host
	sim  *simnet.Sim

	r2      *r2p2.Client
	reasm   *r2p2.Reassembler
	pending *r2p2.Pending[pendingReq]

	// Measurement.
	Latency *stats.Histogram
	// ReadLatency/WriteLatency split Latency by request class (read-only
	// vs replicated write), so read-scale experiments can gate the write
	// tail separately from the read fast path.
	ReadLatency     *stats.Histogram
	WriteLatency    *stats.Histogram
	CompletedReads  uint64 // read-class completions in the window
	CompletedWrites uint64 // write-class completions in the window
	Sent            uint64 // requests sent in the measurement window
	Completed       uint64 // responses for measurement-window requests
	Nacked          uint64 // flow-control rejections (window)
	Expired         uint64 // requests abandoned after exhausting retries (window)
	Redirected      uint64 // stale-shard-map redirects retried (whole run)
	// ReadRedirects counts NACKed lin-reads retried immediately against
	// another replica (whole run).
	ReadRedirects uint64

	// Retry accounting (whole run — retries cluster around failures,
	// which rarely align with the measurement window).
	Retries        uint64 // retransmissions sent
	DupsSuppressed uint64 // duplicate responses dropped client-side

	// done remembers recently completed/nacked request IDs so a second
	// copy of a response (reply-from-cache plus the original, or network
	// duplication) is counted as a suppressed duplicate rather than
	// silently ignored as unknown.
	done *ringSet

	// nextRead spreads lin-reads round-robin across ReadTargets.
	nextRead int

	// Optional time series (all samples, including warmup).
	Throughput stats.Series // completed/s per interval
	TailP99    stats.Series // p99 per interval (ms)

	intervalHist      *stats.Histogram
	intervalCompleted uint64
	stopped           bool
}

// NewClient attaches a client to the network on its own host.
func NewClient(net *simnet.Network, name string, hostCfg simnet.HostConfig, cfg ClientConfig) *Client {
	c := &Client{
		retrier:      retrier{rng: net.Sim().Rand()},
		cfg:          cfg,
		sim:          net.Sim(),
		reasm:        r2p2.NewReassembler(cfg.Timeout),
		pending:      r2p2.NewPending[pendingReq](),
		Latency:      stats.NewHistogram(),
		ReadLatency:  stats.NewHistogram(),
		WriteLatency: stats.NewHistogram(),
		intervalHist: stats.NewHistogram(),
		done:         newRingSet(1 << 16),
	}
	c.host = net.NewHost(name, hostCfg)
	c.r2 = r2p2.NewClient(uint32(c.host.Addr()), cfg.Port)
	c.host.SetHandler(c.onPacket)
	return c
}

// Start begins offering load.
func (c *Client) Start() {
	if c.cfg.Timeout <= 0 {
		c.cfg.Timeout = 10 * time.Millisecond
	}
	if c.cfg.RetryBackoff <= 0 {
		c.cfg.RetryBackoff = c.cfg.Timeout
	}
	c.retries, c.timeout, c.base = c.cfg.Retries, c.cfg.Timeout, c.cfg.RetryBackoff
	c.scheduleNext()
	c.sim.After(c.tickEvery(), c.expireTick)
	if c.cfg.SampleEvery > 0 {
		c.sim.After(c.cfg.SampleEvery, c.sampleTick)
	}
}

// Stop ceases load generation (used by failure experiments).
func (c *Client) Stop() { c.stopped = true }

func (c *Client) end() time.Duration { return c.cfg.Warmup + c.cfg.Duration }

func (c *Client) scheduleNext() {
	if c.stopped {
		return
	}
	// Poisson arrivals: exponential interarrival at rate λ.
	gap := time.Duration(c.rng.ExpFloat64() / c.cfg.Rate * float64(time.Second))
	c.sim.After(gap, func() {
		if c.stopped || c.sim.Now() >= c.end() {
			return
		}
		c.sendOne()
		c.scheduleNext()
	})
}

func (c *Client) sendOne() {
	req := pendingReq{group: -1, sentAt: c.sim.Now()}
	if c.cfg.Router != nil {
		kw, ok := c.cfg.Workload.(KeyedWorkload)
		if !ok {
			panic("loadgen: Router configured but Workload is not a KeyedWorkload")
		}
		var payload []byte
		req.key, payload, req.policy = kw.NextKeyed(c.rng)
		req.raw = payload
		req.group = int(c.cfg.Router.Route(req.key))
	} else {
		req.raw, req.policy = c.cfg.Workload.Next(c.rng)
	}
	if req.policy == r2p2.PolicyLinRead && len(c.cfg.ReadTargets) > 0 {
		if c.cfg.Router != nil {
			// Shard-aware swarms share the router's rotation so reads
			// from every client interleave across the replica set.
			req.readTgt = c.cfg.Router.ReadReplica(len(c.cfg.ReadTargets))
		} else {
			req.readTgt = c.nextRead
			c.nextRead++
		}
	}
	req.payload = len(req.raw)
	req.inMeas = req.sentAt >= c.cfg.Warmup
	if req.inMeas {
		c.Sent++
		if req.group >= 0 {
			c.shardStat(req.group).Sent++
		}
	}
	c.send(req)
}

// send transmits req (first send or redirect re-send) under a fresh
// request ID; req.group selects the group stamp on the wire.
func (c *Client) send(req pendingReq) {
	id, dgs := c.r2.NewRequest(req.policy, req.raw)
	req.id = id
	req.attempt = 1
	c.cfg.Obs.Stage(id, obs.StageClientSend)
	c.transmit(req, dgs)
}

// retransmit re-sends req reusing its original request ID — the 3-tuple
// the server-side dedup cache keys on, so the retried write applies
// exactly once even if both copies commit (e.g. across a failover).
func (c *Client) retransmit(req pendingReq) {
	req.attempt++
	c.Retries++
	if req.policy == r2p2.PolicyLinRead && len(c.cfg.ReadTargets) > 0 {
		req.readTgt++ // rotate: the replica that failed us is skipped
	}
	if c.cfg.Obs.Active() {
		c.cfg.Obs.Emitf("client", "retransmit", "id=%v attempt=%d", req.id, req.attempt)
	}
	dgs := r2p2.MakeMsg(r2p2.TypeRequest, req.policy, req.id.SrcPort, req.id.ReqID, req.raw, c.r2.MaxPayload)
	c.transmit(req, dgs)
}

// transmit stamps, registers, and puts req's datagrams on the wire. The
// pending deadline is the attempt's backoff delay.
func (c *Client) transmit(req pendingReq, dgs [][]byte) {
	if req.group >= 0 {
		r2p2.StampGroup(dgs, uint8(req.group))
	}
	dst := c.cfg.Target
	if req.policy == r2p2.PolicyLinRead && len(c.cfg.ReadTargets) > 0 {
		dst = c.cfg.ReadTargets[req.readTgt%len(c.cfg.ReadTargets)]
	}
	c.pending.Add(req.id.ReqID, req, c.sim.Now()+c.backoff(req.attempt))
	for _, dg := range dgs {
		c.host.Send(&simnet.Packet{Dst: dst, Payload: dg})
	}
}

// tickEvery is the expiry-scan period: half the shortest deadline in use.
func (c *Client) tickEvery() time.Duration {
	d := c.cfg.Timeout
	if c.cfg.Retries > 0 && c.cfg.RetryBackoff < d {
		d = c.cfg.RetryBackoff
	}
	return d / 2
}

func (c *Client) onPacket(pkt *simnet.Packet) {
	m, err := c.reasm.Ingest(pkt.Payload, uint32(pkt.Src), c.sim.Now())
	if err != nil || m == nil {
		return
	}
	switch m.Type {
	case r2p2.TypeResponse:
		req, ok := c.pending.Take(m.ID.ReqID)
		if !ok {
			if c.done.has(m.ID.ReqID) {
				// Second copy of an answered request: the cached-reply
				// resend racing the original, or network duplication.
				c.DupsSuppressed++
			}
			return // else: post-expiry response, already counted lost
		}
		c.done.add(m.ID.ReqID)
		if c.cfg.OnComplete != nil {
			c.cfg.OnComplete(req.raw)
		}
		c.cfg.Obs.Stage(req.id, obs.StageClientRecv)
		lat := c.sim.Now() - req.sentAt
		c.intervalCompleted++
		c.intervalHist.RecordDuration(lat)
		if req.inMeas {
			c.Completed++
			c.Latency.RecordDuration(lat)
			if readClass(req.policy) {
				c.CompletedReads++
				c.ReadLatency.RecordDuration(lat)
			} else {
				c.CompletedWrites++
				c.WriteLatency.RecordDuration(lat)
			}
			if req.group >= 0 {
				st := c.shardStat(req.group)
				st.Completed++
				st.Latency.RecordDuration(lat)
			}
		}
	case r2p2.TypeNack:
		req, ok := c.pending.Take(m.ID.ReqID)
		if !ok {
			if c.done.has(m.ID.ReqID) {
				c.DupsSuppressed++
			}
			return
		}
		if req.policy == r2p2.PolicyLinRead && len(c.cfg.ReadTargets) > 0 {
			// A lin-read NACK is a redirect, not an overload shed: the
			// replica cannot serve this read (no lease machinery, lagging
			// applied index, mid-election). Retry against the next
			// replica immediately — no retry-after hint, no jitter sleep.
			if req.attempt <= c.cfg.Retries {
				c.ReadRedirects++
				c.retransmit(req)
				return
			}
			if req.inMeas {
				c.Nacked++
			}
			c.done.add(m.ID.ReqID)
			c.cfg.Obs.Abandon(req.id)
			return
		}
		if m.Group == r2p2.GroupInvalid && c.cfg.Router != nil && !req.redirected {
			// The receiver does not serve the group we routed to: our
			// shard map is stale. Refresh it and re-route the op once,
			// keeping its original send time (the redirect round trip is
			// honest latency). The re-send gets a fresh request ID, so
			// the old one is terminal.
			if c.cfg.Router.OnRedirect() {
				// Counted for the whole run, not just the window: redirects
				// cluster at startup (first stale routes), before warmup ends.
				c.done.add(m.ID.ReqID)
				c.Redirected++
				if req.group >= 0 {
					c.shardStat(req.group).Redirected++
				}
				req.redirected = true
				req.group = int(c.cfg.Router.Route(req.key))
				c.send(req)
				return
			}
		}
		// Flow-control rejection: the admission middlebox shed the request
		// before it reached the cluster. Always counted (NackRate is the
		// rejection rate, not the op-failure rate).
		if req.inMeas {
			c.Nacked++
			if req.group >= 0 {
				c.shardStat(req.group).Nacked++
			}
		}
		if req.attempt <= c.cfg.Retries {
			// Re-offer after the NACK's retry-after hint (zero for a
			// legacy empty NACK) plus jitter, reusing the request ID so
			// the server-side dedup cache keeps the op exactly-once even
			// if an earlier copy was admitted after all.
			hint := r2p2.NackRetryAfter(m.Payload)
			req := req
			c.sim.After(c.retryDelay(req.attempt, hint), func() {
				c.retransmit(req)
			})
			return
		}
		// Terminal: budget exhausted (or retries disabled). Already counted
		// in Nacked above; LossRate stays post-admission loss only.
		c.done.add(m.ID.ReqID)
		c.cfg.Obs.Abandon(req.id)
	}
}

func (c *Client) expireTick() {
	for _, req := range c.pending.Expire(c.sim.Now()) {
		if req.attempt <= c.cfg.Retries {
			c.retransmit(req)
			continue
		}
		// Retry budget exhausted (or retries disabled): the op is lost.
		// This is the loud version of what used to be a silent drop —
		// an obs event marks it so failure experiments can correlate
		// losses with the fault timeline.
		if c.cfg.Obs.Active() {
			c.cfg.Obs.Emitf("client", "expire", "id=%v attempts=%d", req.id, req.attempt)
		}
		c.cfg.Obs.Abandon(req.id)
		if req.inMeas {
			c.Expired++
			if req.group >= 0 {
				c.shardStat(req.group).Expired++
			}
		}
	}
	c.reasm.GC(c.sim.Now())
	if c.sim.Now() < c.end()+c.cfg.Timeout || c.pending.Len() > 0 {
		c.sim.After(c.tickEvery(), c.expireTick)
	}
}

func (c *Client) sampleTick() {
	secs := c.cfg.SampleEvery.Seconds()
	c.Throughput.Add(c.sim.Now(), float64(c.intervalCompleted)/secs)
	c.TailP99.Add(c.sim.Now(), float64(c.intervalHist.P99())/1e6) // ms
	c.intervalCompleted = 0
	c.intervalHist.Reset()
	if c.sim.Now() < c.end() {
		c.sim.After(c.cfg.SampleEvery, c.sampleTick)
	}
}

// Result summarizes a finished run.
type Result struct {
	Offered  float64 // requests/s offered in the window
	Achieved float64 // responses/s achieved
	NackRate float64 // NACKs/s
	LossRate float64 // abandoned ops/s (retry budget exhausted)
	// Retry accounting, whole run (counts, not rates — retries cluster
	// around fault events rather than spreading over the window).
	Retries        uint64
	DupsSuppressed uint64
	ReadRedirects  uint64 // NACKed lin-reads retried on another replica
	Latency        stats.LatencySummary
	Throughput     *stats.Series
	TailP99        *stats.Series
}

// Result computes the run summary.
func (c *Client) Result() Result {
	d := c.cfg.Duration.Seconds()
	return Result{
		Offered:        float64(c.Sent) / d,
		Achieved:       float64(c.Completed) / d,
		NackRate:       float64(c.Nacked) / d,
		LossRate:       float64(c.Expired) / d,
		Retries:        c.Retries,
		DupsSuppressed: c.DupsSuppressed,
		ReadRedirects:  c.ReadRedirects,
		Latency:        c.Latency.Summary(),
		Throughput:     &c.Throughput,
		TailP99:        &c.TailP99,
	}
}

// Merge combines per-client results (rates add; latency merges approximately
// by summary-weighted max for the tail — callers needing exact merged
// percentiles should merge the histograms instead).
func Merge(results ...Result) Result {
	var out Result
	var worstP99 time.Duration
	var n uint64
	for _, r := range results {
		out.Offered += r.Offered
		out.Achieved += r.Achieved
		out.NackRate += r.NackRate
		out.LossRate += r.LossRate
		out.Retries += r.Retries
		out.DupsSuppressed += r.DupsSuppressed
		out.ReadRedirects += r.ReadRedirects
		if r.Latency.P99 > worstP99 {
			worstP99 = r.Latency.P99
		}
		n += r.Latency.Count
	}
	out.Latency.Count = n
	out.Latency.P99 = worstP99
	return out
}

// ringSet is a bounded remembered-ID set with FIFO eviction, sized so the
// duplicate-response window comfortably covers any realistic retry span
// without letting memory grow with run length.
type ringSet struct {
	cap  int
	m    map[uint32]bool
	fifo []uint32
}

func newRingSet(cap int) *ringSet {
	return &ringSet{cap: cap, m: make(map[uint32]bool)}
}

func (r *ringSet) add(id uint32) {
	if r.m[id] {
		return
	}
	r.m[id] = true
	r.fifo = append(r.fifo, id)
	if len(r.fifo) > r.cap {
		delete(r.m, r.fifo[0])
		r.fifo = r.fifo[1:]
	}
}

func (r *ringSet) has(id uint32) bool { return r.m[id] }

// MergeHistograms merges clients' raw latency histograms into one.
func MergeHistograms(clients []*Client) *stats.Histogram {
	h := stats.NewHistogram()
	for _, c := range clients {
		h.Merge(c.Latency)
	}
	return h
}

// readClass reports whether a policy is read-only traffic (lin-read
// fast path or replicated read-only).
func readClass(p r2p2.Policy) bool {
	return p == r2p2.PolicyLinRead || p == r2p2.PolicyReplicatedRO
}

// MergeReadHistograms merges clients' read-class latency histograms.
func MergeReadHistograms(clients []*Client) *stats.Histogram {
	h := stats.NewHistogram()
	for _, c := range clients {
		h.Merge(c.ReadLatency)
	}
	return h
}

// MergeWriteHistograms merges clients' write-class latency histograms.
func MergeWriteHistograms(clients []*Client) *stats.Histogram {
	h := stats.NewHistogram()
	for _, c := range clients {
		h.Merge(c.WriteLatency)
	}
	return h
}
