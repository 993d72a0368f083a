package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
	"hovercraft/internal/wire"
)

// listService is a state machine whose state is the list of executed
// payloads; it logs every Execute so tests can check exactly-once order.
type listService struct {
	state    []string
	executed []string
	restores int
}

func (s *listService) Execute(payload []byte, readOnly bool) []byte {
	s.executed = append(s.executed, string(payload))
	if !readOnly {
		s.state = append(s.state, string(payload))
	}
	return []byte("R-" + string(payload))
}

func (s *listService) Snapshot() []byte { return []byte(strings.Join(s.state, ",")) }

func (s *listService) Restore(data []byte) error {
	s.restores++
	s.state = strings.Split(string(data), ",")
	return nil
}

// heldRunner keeps the apply batch in flight until the test completes
// its ops, so protocol events can land between the completions of one
// batch.
type heldRunner struct {
	t    *testing.T
	svc  *listService
	ops  []AppOp
	done func([][]byte)
	next int
}

func (r *heldRunner) Run(ops []AppOp, done func([][]byte)) {
	if r.busy() {
		r.t.Fatal("engine submitted a second batch while one was in flight")
	}
	r.ops, r.done, r.next = append([]AppOp(nil), ops...), done, 0
}

func (r *heldRunner) busy() bool { return r.done != nil }

// complete executes the next k ops of the batch in flight (all of them
// for k <= 0) and delivers their replies in one call.
func (r *heldRunner) complete(k int) {
	if !r.busy() {
		r.t.Fatal("no batch in flight")
	}
	if rest := len(r.ops) - r.next; k <= 0 || k > rest {
		k = rest
	}
	replies := make([][]byte, 0, k)
	for ; k > 0; k-- {
		op := r.ops[r.next]
		r.next++
		replies = append(replies, r.svc.Execute(op.Payload, op.ReadOnly))
	}
	done := r.done
	if r.next == len(r.ops) {
		r.done = nil // the engine may start the next batch from done
	}
	done(replies)
}

// recTransport records client replies by request number.
type recTransport struct {
	t       *testing.T
	re      *r2p2.Reassembler
	replies map[uint32][]string
}

func newRecTransport(t *testing.T) *recTransport {
	return &recTransport{t: t, re: r2p2.NewReassembler(time.Second), replies: make(map[uint32][]string)}
}

func (tr *recTransport) SendToNode(raft.NodeID, []*wire.Buf) {}
func (tr *recTransport) SendToAggregator([]*wire.Buf)        {}
func (tr *recTransport) SendFeedback(dgs []*wire.Buf)        { wire.ReleaseAll(dgs) }
func (tr *recTransport) SendToClient(id r2p2.RequestID, dgs []*wire.Buf) {
	for _, dg := range takeAll(dgs) {
		m, err := tr.re.Ingest(dg, 2, 0)
		if err != nil {
			tr.t.Fatal(err)
		}
		if m != nil && m.Type == r2p2.TypeResponse {
			tr.replies[id.ReqID] = append(tr.replies[id.ReqID], string(m.Payload))
		}
	}
}

func reqID(n uint32) r2p2.RequestID { return r2p2.RequestID{SrcIP: clientIP, SrcPort: 9, ReqID: n} }

// newFollowerEngine builds node 2 of a 3-node HovercRaft group whose log
// the test fills directly.
func newFollowerEngine(t *testing.T, readLease bool) (*Engine, *heldRunner, *recTransport, *listService) {
	svc := &listService{}
	r := &heldRunner{t: t, svc: svc}
	tr := newRecTransport(t)
	e := NewEngine(Config{
		Mode: ModeHovercraft, ID: 2, Peers: []raft.NodeID{1, 2, 3},
		ElectionTicks: 20, HeartbeatTicks: 4,
		Snapshotter: svc, ReadLease: readLease,
	}, tr, r)
	return e, r, tr, svc
}

// TestApplyBatchExactlyOnceInOrder walks one follower's apply pipeline
// across every kind of committed entry — a noop, a write, a dedup
// duplicate of it, another replier's read-only entry, its own read-only
// entry, a missing body — with the body stall, its recovery, and an
// InstallSnapshot landing mid-batch: every entry completes exactly once
// and in log order, the app thread runs only the entries this node
// executes, and the restore waits for the batch.
func TestApplyBatchExactlyOnceInOrder(t *testing.T) {
	e, r, tr, svc := newFollowerEngine(t, false)
	log := e.Node().Log()
	log.Append(
		raft.Entry{Term: 1, Kind: raft.KindNoop},                                                         // 1
		raft.Entry{Term: 1, Kind: raft.KindReadWrite, Replier: 2, ID: reqID(1), Data: []byte("w2")},      // 2
		raft.Entry{Term: 1, Kind: raft.KindReadWrite, Replier: 2, ID: reqID(1), Data: []byte("w2")},      // 3: dup of 2
		raft.Entry{Term: 1, Kind: raft.KindReadOnly, Replier: 3, ID: reqID(2), Data: []byte("ro-other")}, // 4
		raft.Entry{Term: 1, Kind: raft.KindReadOnly, Replier: 2, ID: reqID(3), Data: []byte("ro-mine")},  // 5
		raft.Entry{Term: 1, Kind: raft.KindReadWrite, Replier: 1, ID: reqID(4)},                          // 6: body missing
		raft.Entry{Term: 1, Kind: raft.KindReadWrite, Replier: 2, ID: reqID(5), Data: []byte("w7")},      // 7
	)
	log.CommitTo(7)
	e.maybeApply()

	// The noop ahead of the first execution completes inline; the batch
	// stops before the missing body and executes two entries.
	if got := log.Applied(); got != 1 {
		t.Fatalf("applied = %d after dispatch, want 1 (only the leading noop)", got)
	}
	if len(r.ops) != 2 || string(r.ops[0].Payload) != "w2" || string(r.ops[1].Payload) != "ro-mine" || !r.ops[1].ReadOnly {
		t.Fatalf("batch ops = %+v, want [w2, ro-mine(read-only)]", r.ops)
	}
	if _, _, hasReply, ok := e.Dedup().Lookup(reqID(1)); !ok || hasReply {
		t.Fatalf("write not registered for dedup before execution (ok=%v hasReply=%v)", ok, hasReply)
	}
	if n := e.Counters().Value("tx_recovery_req"); n != 0 {
		t.Fatalf("recovery requested before the pipeline reached the stall (%d)", n)
	}

	// One op at a time, as the simulator completes them: entry 2, then
	// its duplicate answered from the cache, then the other replier's
	// read; entry 5 still runs.
	r.complete(1)
	if got := log.Applied(); got != 4 {
		t.Fatalf("applied = %d after the first reply, want 4", got)
	}
	if got := tr.replies[1]; len(got) != 2 || got[0] != "R-w2" || got[1] != "R-w2" {
		t.Fatalf("replies to the write and its dup = %q, want two R-w2", got)
	}
	if e.Counters().Value("apply_dup_skip") != 1 || e.Counters().Value("tx_dup_reply") != 1 {
		t.Fatal("duplicate entry not skipped and answered from the cache")
	}
	r.complete(1)
	if got := log.Applied(); got != 5 {
		t.Fatalf("applied = %d after the batch, want 5 (stalled at 6)", got)
	}
	if n := e.Counters().Value("tx_recovery_req"); n != 1 {
		t.Fatalf("tx_recovery_req = %d once the stall is reached, want 1", n)
	}
	if r.busy() {
		t.Fatal("a batch started past the missing body")
	}

	// The recovered body unblocks entries 6 and 7 as one batch.
	e.handleRecoveryResp(&RecoveryResp{From: 1, Entries: []raft.Entry{{Index: 6, ID: reqID(4), Data: []byte("w6")}}})
	if len(r.ops) != 2 || string(r.ops[0].Payload) != "w6" || string(r.ops[1].Payload) != "w7" {
		t.Fatalf("post-recovery batch ops = %+v, want [w6, w7]", r.ops)
	}

	// A snapshot beyond the batch lands while it executes: raft jumps
	// applied at once, but the application restore waits for the batch.
	snap := wrapSnapshot(nil, []byte("w2,w6,w7,w8,w9"))
	e.handleRaft(&raft.Message{Type: raft.MsgSnap, From: 1, To: 2, Term: 1, Index: 9, LogTerm: 1, SnapData: snap}, false)
	if got := log.Applied(); got != 9 {
		t.Fatalf("applied = %d after InstallSnapshot, want 9", got)
	}
	if svc.restores != 0 {
		t.Fatal("snapshot restored while the app thread was executing a batch")
	}
	r.complete(0) // both replies at once, as the UDP transport delivers them
	if got := log.Applied(); got != 9 {
		t.Fatalf("applied = %d after the superseded batch, want 9 (no regression)", got)
	}
	if svc.restores != 1 || strings.Join(svc.state, ",") != "w2,w6,w7,w8,w9" {
		t.Fatalf("restores=%d state=%q, want one restore to the snapshot", svc.restores, svc.state)
	}
	if got := tr.replies[5]; len(got) != 1 || got[0] != "R-w7" {
		t.Fatalf("replies to entry 7 = %q, want one R-w7", got)
	}
	if _, ok := tr.replies[4]; ok {
		t.Fatal("node 2 answered entry 6, whose replier is node 1")
	}

	// Past the snapshot the pipeline continues on the restored state.
	log.Append(raft.Entry{Term: 1, Kind: raft.KindReadWrite, Replier: 2, ID: reqID(6), Data: []byte("w10")})
	log.CommitTo(10)
	e.maybeApply()
	r.complete(0)
	if got := log.Applied(); got != 10 {
		t.Fatalf("applied = %d, want 10", got)
	}
	if got, want := strings.Join(svc.executed, ","), "w2,ro-mine,w6,w7,w10"; got != want {
		t.Fatalf("app thread executed %q, want %q (each executable entry once, in log order)", got, want)
	}
	if got, want := strings.Join(svc.state, ","), "w2,w6,w7,w8,w9,w10"; got != want {
		t.Fatalf("state = %q, want %q", got, want)
	}
}

// TestBatchedLeasedReadsNeverRunAheadOfApplied interleaves committing
// writes (some stalled on a missing body), recovering bodies, queueing
// ratified reads, and completing batches one op or one batch at a time: every read executes after every write at or below
// its read index, no read is counted stale, and writes execute exactly
// once in log order.
func TestBatchedLeasedReadsNeverRunAheadOfApplied(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, r, tr, svc := newFollowerEngine(t, true)
		log := e.Node().Log()
		reads := 0
		for step := 0; step < 400; step++ {
			switch rng.Intn(5) {
			case 0:
				// A write commits; some arrive without their body, so
				// the pipeline stalls with applied behind commit.
				n := log.LastIndex() + 1
				ent := raft.Entry{Term: 1, Kind: raft.KindReadWrite, Replier: 2, ID: reqID(uint32(n))}
				if rng.Intn(4) > 0 {
					ent.Data = []byte(fmt.Sprintf("w%d", n))
				}
				log.Append(ent)
				log.CommitTo(n)
				e.maybeApply()
			case 4:
				// Recover the earliest missing body.
				for i := log.Applied() + 1; i <= log.LastIndex(); i++ {
					if le := log.Entry(i); le.Data == nil {
						e.handleRecoveryResp(&RecoveryResp{From: 1, Entries: []raft.Entry{
							{Index: i, ID: le.ID, Data: []byte(fmt.Sprintf("w%d", i))}}})
						break
					}
				}
			case 1:
				// A read ratified at the current commit index (the
				// index a fetch would return now).
				reads++
				e.pendingReads = append(e.pendingReads, pendingRead{
					id: reqID(uint32(1_000_000 + reads)), idx: log.Commit(),
					payload: []byte(fmt.Sprintf("r%d", log.Commit())),
				})
				e.serveReads()
			case 2:
				if r.busy() {
					r.complete(1)
				}
			case 3:
				if r.busy() {
					r.complete(0)
				}
			}
		}
		for r.busy() || log.Applied() < log.LastIndex() {
			if r.busy() {
				r.complete(0)
				continue
			}
			i := log.Applied() + 1
			e.handleRecoveryResp(&RecoveryResp{From: 1, Entries: []raft.Entry{
				{Index: i, ID: log.Entry(i).ID, Data: []byte(fmt.Sprintf("w%d", i))}}})
		}
		lastWrite := uint64(0)
		for _, p := range svc.executed {
			var kind byte
			var k uint64
			if _, err := fmt.Sscanf(p, "%c%d", &kind, &k); err != nil {
				t.Fatal(err)
			}
			if kind == 'w' {
				if k != lastWrite+1 {
					t.Fatalf("seed %d: write %d executed after write %d", seed, k, lastWrite)
				}
				lastWrite = k
			} else if k > lastWrite {
				t.Fatalf("seed %d: read at index %d ran with only %d writes executed", seed, k, lastWrite)
			}
		}
		if lastWrite != log.LastIndex() || log.Applied() != log.LastIndex() {
			t.Fatalf("seed %d: executed %d writes, applied %d, log holds %d", seed, lastWrite, log.Applied(), log.LastIndex())
		}
		if n := e.Counters().Value("read_stale_served"); n != 0 {
			t.Fatalf("seed %d: read_stale_served = %d", seed, n)
		}
		served := 0
		for id, got := range tr.replies {
			if id > 1_000_000 {
				served += len(got)
			}
		}
		if served != reads {
			t.Fatalf("seed %d: %d of %d reads answered", seed, served, reads)
		}
	}
}
