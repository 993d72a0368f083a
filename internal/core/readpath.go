package core

import (
	"time"

	"hovercraft/internal/obs"
	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
)

// The linearizable read fast path: LIN_READ requests never enter the
// log. The leader serves them against its commit index under a
// heartbeat-ratified lease (one extra quorum round only when the lease
// lapsed); a follower batches arrivals behind one ReadIndexReq to the
// leader and serves each read locally once its applied index passes the
// ratified index. Replicas that cannot honor the guarantee within
// ReadNackAfter — lagging followers, deposed or unreachable leaders —
// NACK so the client redirects to another replica immediately.
//
// Safety invariant (checked at serve time, counted by
// read_stale_served, which must remain zero): a read executes only when
// applied >= its read index, and the read index was captured at a node
// that provably led the cluster at capture time — via a quorum-echoed
// lease probe within the last ElectionTicks-DriftTicks ticks, or via an
// explicit post-capture quorum round. See DESIGN.md §4.15 for why no
// rival leader can commit a write the read misses.

// pendingRead is a read whose index is captured (and, for confirm==0,
// ratified) waiting for ratification and/or local apply progress.
type pendingRead struct {
	id      r2p2.RequestID
	payload []byte
	idx     uint64 // serve once applied >= idx
	confirm uint64 // leader: serve once AckWatermark >= confirm (0 = ratified)
	enqTick uint64
	enqNow  time.Duration
}

// fetchRead is a follower read waiting for a leader read index. A
// response ratifies exactly the reads that arrived before its request
// was sent (arrived <= riSentTick) — later arrivals need a fresh fetch.
type fetchRead struct {
	id      r2p2.RequestID
	payload []byte
	arrived uint64
	enqNow  time.Duration
}

// riPend is a follower's ReadIndexReq the leader parked because its
// lease had lapsed: answered once the next quorum round's probe echoes
// ratify the captured index.
type riPend struct {
	from    raft.NodeID
	seq     uint64
	idx     uint64
	confirm uint64
	enqTick uint64
}

// handleLinRead routes one LIN_READ client request.
func (e *Engine) handleLinRead(m *r2p2.Msg) {
	if !e.cfg.ReadLease {
		e.nackRead(m.ID)
		return
	}
	e.counters.Get("rx_read").Inc()
	if e.IsLeader() {
		idx, confirm, ok := e.node.ReadIndex()
		if !ok {
			// Leader in name only (term noop uncommitted): the commit
			// index may trail another leader's writes.
			e.nackRead(m.ID)
			return
		}
		e.pendingReads = append(e.pendingReads, pendingRead{
			id: m.ID, payload: m.Payload, idx: idx, confirm: confirm,
			enqTick: e.ticks, enqNow: e.now,
		})
		e.serveReads()
		return
	}
	// Follower: queue behind the (throttled) read-index fetch. Every
	// read is served against an index captured at the leader AFTER the
	// read arrived here — reusing an index captured before arrival would
	// let the read miss a write that completed in between, which the
	// linearize chaos checker catches. ReadStalenessBudget bounds how
	// often the follower refreshes instead: one leader round per budget
	// window, shared by every read that arrives within it.
	e.fetchWait = append(e.fetchWait, fetchRead{
		id: m.ID, payload: m.Payload, arrived: e.ticks, enqNow: e.now,
	})
	e.maybeSendFetch()
}

// maybeSendFetch keeps at most one batched read-index fetch in flight,
// and sends at most one per ReadStalenessBudget window: the response
// covers every read queued before the send, amortizing one leader
// round across the whole cohort, and the throttle caps the leader-round
// rate (reads arriving between refreshes wait for the next one — extra
// latency bounded by the budget, never staleness).
func (e *Engine) maybeSendFetch() {
	if e.riInflight || len(e.fetchWait) == 0 {
		return
	}
	if e.cfg.ReadStalenessBudget > 0 && e.riSentNow > 0 &&
		e.now-e.riSentNow < e.cfg.ReadStalenessBudget {
		return // throttled; readTick re-checks every tick
	}
	lead := e.node.Leader()
	if lead == raft.None || lead == e.cfg.ID {
		return // no leader known; readTick retries, the SLO bound NACKs
	}
	e.riSeq++
	e.riInflight = true
	e.riSentTick = e.ticks
	e.riSentNow = e.now
	e.counters.Get("tx_read_index_req").Inc()
	req := EncodeReadIndexReq(&ReadIndexReq{From: e.cfg.ID, Seq: e.riSeq})
	e.transport.SendToNode(lead, e.consensusBufs(r2p2.TypeRaftReq, req))
}

// handleReadIndexReq answers a follower's read-index fetch (leader
// side). A lease-valid leader answers immediately; one whose lease
// lapsed parks the request until the next quorum round ratifies it; a
// non-leader answers OK=false so the follower NACKs its queued reads.
func (e *Engine) handleReadIndexReq(r *ReadIndexReq) {
	e.counters.Get("rx_read_index_req").Inc()
	if !e.cfg.ReadLease {
		e.sendReadIndexResp(r.From, &ReadIndexResp{Seq: r.Seq})
		return
	}
	idx, confirm, ok := e.node.ReadIndex()
	if !ok {
		e.sendReadIndexResp(r.From, &ReadIndexResp{Seq: r.Seq})
		return
	}
	if confirm == 0 {
		e.sendReadIndexResp(r.From, &ReadIndexResp{
			Seq: r.Seq, Index: idx, Term: e.node.Term(), OK: true,
		})
		return
	}
	e.riPending = append(e.riPending, riPend{
		from: r.From, seq: r.Seq, idx: idx, confirm: confirm, enqTick: e.ticks,
	})
}

// pumpReadIndex releases parked follower fetches once the quorum
// watermark ratifies them (or fails them on stepdown/timeout).
func (e *Engine) pumpReadIndex() {
	if len(e.riPending) == 0 {
		return
	}
	if !e.IsLeader() {
		for i := range e.riPending {
			e.sendReadIndexResp(e.riPending[i].from, &ReadIndexResp{Seq: e.riPending[i].seq})
		}
		e.riPending = e.riPending[:0]
		return
	}
	wm := e.node.AckWatermark()
	kept := e.riPending[:0]
	for _, p := range e.riPending {
		switch {
		case wm >= p.confirm:
			e.sendReadIndexResp(p.from, &ReadIndexResp{
				Seq: p.seq, Index: p.idx, Term: e.node.Term(), OK: true,
			})
		case e.ticks-p.enqTick > e.readNackTicks:
			e.sendReadIndexResp(p.from, &ReadIndexResp{Seq: p.seq})
		default:
			kept = append(kept, p)
		}
	}
	e.riPending = kept
}

// handleReadIndexResp ratifies (or fails) the follower reads covered by
// one fetch: exactly those that arrived before the fetch was sent.
func (e *Engine) handleReadIndexResp(r *ReadIndexResp) {
	e.counters.Get("rx_read_index_resp").Inc()
	if !e.riInflight || r.Seq != e.riSeq {
		return // stale response from a superseded fetch
	}
	e.riInflight = false
	cut := 0
	for cut < len(e.fetchWait) && e.fetchWait[cut].arrived <= e.riSentTick {
		cut++
	}
	if r.OK {
		if cut > 1 {
			// Reads that shared this leader round with at least one other.
			e.counters.Get("read_amortized").Add(uint64(cut - 1))
		}
		for i := 0; i < cut; i++ {
			f := e.fetchWait[i]
			e.pendingReads = append(e.pendingReads, pendingRead{
				id: f.id, payload: f.payload, idx: r.Index,
				enqTick: f.arrived, enqNow: f.enqNow,
			})
		}
	} else {
		for i := 0; i < cut; i++ {
			e.nackRead(e.fetchWait[i].id)
		}
	}
	e.fetchWait = append(e.fetchWait[:0], e.fetchWait[cut:]...)
	e.maybeSendFetch()
	e.serveReads()
}

// serveReads hands every ratified read whose index the applied index
// has passed to the app thread as one batch. FIFO: read indices and
// ratification are monotone in arrival order, so head-of-line checks
// suffice; a blocked head is bounded by the ReadNackAfter SLO timeout.
func (e *Engine) serveReads() {
	if !e.cfg.ReadLease || e.applyBusy {
		return
	}
	log := e.node.Log()
	e.resetBatch()
	for e.pendingHead < len(e.pendingReads) {
		pr := e.pendingReads[e.pendingHead]
		if pr.confirm > 0 {
			if !e.IsLeader() {
				// Stepped down before the confirmation round finished:
				// this index was never ratified.
				e.nackRead(pr.id)
				e.popRead()
				continue
			}
			if e.node.AckWatermark() < pr.confirm {
				break
			}
		}
		if log.Applied() < pr.idx {
			break
		}
		e.popRead()
		if log.Applied() < pr.idx {
			// Unreachable by the gate above; counted so the invariant is
			// monitorable — this must stay 0.
			e.counters.Get("read_stale_served").Inc()
		}
		if e.IsLeader() {
			e.counters.Get("read_leader_served").Inc()
		} else {
			e.counters.Get("read_follower_served").Inc()
		}
		if e.tel.Active() {
			e.tel.Record(obs.QReadIndex, e.now-pr.enqNow)
		}
		e.applyItems = append(e.applyItems, applyItem{ent: raft.Entry{ID: pr.id}, kind: applyRead})
		e.appOps = append(e.appOps, AppOp{Payload: pr.payload, ReadOnly: true})
	}
	if len(e.appOps) == 0 {
		return
	}
	e.applyBusy = true
	e.runner.Run(e.appOps, e.applyDoneFn)
}

func (e *Engine) popRead() {
	e.pendingHead++
	if e.pendingHead == len(e.pendingReads) {
		e.pendingReads = e.pendingReads[:0]
		e.pendingHead = 0
	}
}

// readTick enforces the read SLO (NACK reads that waited too long so
// clients redirect) and retries fetches a dead or deposed leader never
// answered.
func (e *Engine) readTick() {
	if !e.cfg.ReadLease {
		return
	}
	for e.pendingHead < len(e.pendingReads) {
		pr := e.pendingReads[e.pendingHead]
		if e.ticks-pr.enqTick <= e.readNackTicks {
			break
		}
		e.nackRead(pr.id)
		e.popRead()
	}
	for len(e.fetchWait) > 0 && e.ticks-e.fetchWait[0].arrived > e.readNackTicks {
		e.nackRead(e.fetchWait[0].id)
		e.fetchWait = e.fetchWait[1:]
	}
	if e.riInflight && e.ticks-e.riSentTick > e.fetchRetryTicks {
		e.riInflight = false // give up on this fetch; resend below
	}
	e.maybeSendFetch()
	e.pumpReadIndex()
	e.serveReads()
}

// replyRead answers a lin-read client directly. No FEEDBACK: reads
// bypass the flow-control middlebox entirely (they were never admitted
// through it), so its window accounting must not see them.
func (e *Engine) replyRead(id r2p2.RequestID, payload []byte) {
	e.counters.Get("tx_resp").Inc()
	e.dgScratch = r2p2.AppendResponseBufs(e.dgScratch[:0], id, payload, 0)
	e.transport.SendToClient(id, e.dgScratch)
}

// nackRead redirects a lin-read client to try another replica. Plain
// NACK, no retry-after hint: read redirect is immediate, not backoff
// (the replica is not overloaded, it just cannot serve this read).
func (e *Engine) nackRead(id r2p2.RequestID) {
	e.counters.Get("read_nacked").Inc()
	e.dgScratch = append(e.dgScratch[:0], r2p2.MakeNackBuf(id))
	e.transport.SendToClient(id, e.dgScratch)
}

func (e *Engine) sendReadIndexResp(to raft.NodeID, r *ReadIndexResp) {
	e.counters.Get("tx_read_index_resp").Inc()
	e.transport.SendToNode(to, e.consensusBufs(r2p2.TypeRaftResp, EncodeReadIndexResp(r)))
}
