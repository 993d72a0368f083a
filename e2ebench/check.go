package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hovercraft/internal/kvstore"
)

// seqTable is a growable array of atomic int64s indexed by request seq,
// safe for concurrent use; unset slots read as 0.
type seqTable struct {
	mu     sync.Mutex
	chunks [1 << 14]atomic.Pointer[[1 << chunkBits]atomic.Int64]
}

const chunkBits = 16

func (t *seqTable) slot(seq uint64) *atomic.Int64 {
	c := seq >> chunkBits
	if c >= uint64(len(t.chunks)) {
		panic(fmt.Sprintf("seq %d beyond the table", seq))
	}
	p := t.chunks[c].Load()
	if p == nil {
		t.mu.Lock()
		if p = t.chunks[c].Load(); p == nil {
			p = new([1 << chunkBits]atomic.Int64)
			t.chunks[c].Store(p)
		}
		t.mu.Unlock()
	}
	return &p[seq&(1<<chunkBits-1)]
}

func (t *seqTable) load(seq uint64) int64 {
	c := seq >> chunkBits
	if c >= uint64(len(t.chunks)) {
		return 0
	}
	if p := t.chunks[c].Load(); p != nil {
		return p[seq&(1<<chunkBits-1)].Load()
	}
	return 0
}

// checker verifies every reply against what the benchmark wrote.
//
// Reads are checked as single-key registers: a GET must return a value
// some SET to that key wrote, byte for byte, and must not be stale. A
// GET invoked at time t is stale when it returns write w although some
// write w' to the same key was acknowledged before t and invoked after
// w was acknowledged: w' then follows w in every linearization, and the
// GET follows w'. Times are taken conservatively (invocations before the
// send, acknowledgements after the reply), so the check never accuses a
// correct history.
type checker struct {
	epoch time.Time
	keyOf seqTable // seq -> key+1, set before the SET is sent
	ackAt seqTable // seq -> ack time (ns since epoch), 0 until acked
	// maxInvAcked[k] is the latest invocation time of any acknowledged
	// write to key k.
	maxInvAcked []atomic.Int64

	failures atomic.Int64
	mu       sync.Mutex
	msgs     []string // the first few failures
}

func newChecker() *checker {
	return &checker{epoch: time.Now(), maxInvAcked: make([]atomic.Int64, numKeys)}
}

// now is the checker's clock; never 0, so 0 can mean "not yet".
func (c *checker) now() int64 { return int64(time.Since(c.epoch)) + 1 }

func (c *checker) failf(format string, args ...interface{}) {
	if c.failures.Add(1) <= 10 {
		c.mu.Lock()
		c.msgs = append(c.msgs, fmt.Sprintf(format, args...))
		c.mu.Unlock()
	}
}

// err summarizes every failure seen so far (nil when none).
func (c *checker) err() error {
	n := c.failures.Load()
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Errorf("%d correctness failures, first: %v", n, c.msgs)
}

// beginWrite registers a SET before it is sent.
func (c *checker) beginWrite(seq uint64, key uint32) {
	c.keyOf.slot(seq).Store(int64(key) + 1)
}

// endWrite checks a SET reply and records its acknowledgement; inv is
// the write's invocation time from now().
func (c *checker) endWrite(seq uint64, key uint32, inv int64, reply []byte) {
	if st, _ := kvstore.DecodeStatus(reply); st != kvstore.StatusOK {
		c.failf("SET seq %d: status %d", seq, st)
		return
	}
	c.ackAt.slot(seq).Store(c.now())
	m := &c.maxInvAcked[key]
	for {
		cur := m.Load()
		if inv <= cur || m.CompareAndSwap(cur, inv) {
			return
		}
	}
}

// readFloor is taken when a GET is invoked; endRead needs it.
func (c *checker) readFloor(key uint32) int64 { return c.maxInvAcked[key].Load() }

// endRead checks a GET reply for key, invoked when floor was taken.
func (c *checker) endRead(key uint32, floor int64, reply []byte) {
	st, body := kvstore.DecodeStatus(reply)
	if st != kvstore.StatusOK {
		c.failf("GET %s: status %d", keyName(key), st)
		return
	}
	if len(body) < 4 || int(binary.BigEndian.Uint32(body)) != len(body)-4 {
		c.failf("GET %s: malformed reply", keyName(key))
		return
	}
	seq, vkey, ok := parseValue(body[4:])
	if !ok || vkey != key || c.keyOf.load(seq) != int64(key)+1 {
		c.failf("GET %s: value (seq %d, key %d) was never written to this key", keyName(key), seq, vkey)
		return
	}
	if ack := c.ackAt.load(seq); ack != 0 && ack < floor {
		c.failf("GET %s: stale read of seq %d (acked at %d ns; a write invoked at %d ns was acked before the read began)",
			keyName(key), seq, ack, floor)
	}
}

// replicaState is what quiescence compares across replicas.
type replicaState struct {
	applied  uint64
	snapshot []byte
}

// checkReplicas requires every replica to have applied the same index
// and to hold a byte-identical store.
func checkReplicas(rs []replicaState) error {
	for i := 1; i < len(rs); i++ {
		if rs[i].applied != rs[0].applied {
			return fmt.Errorf("replica %d applied index %d, replica 1 %d", i+1, rs[i].applied, rs[0].applied)
		}
		if !bytes.Equal(rs[i].snapshot, rs[0].snapshot) {
			return fmt.Errorf("replica %d store snapshot differs from replica 1 (%d vs %d bytes)",
				i+1, len(rs[i].snapshot), len(rs[0].snapshot))
		}
	}
	return nil
}

// checkExactlyOnce requires every acknowledged write in [1, maxSeq] to
// have executed exactly once on every replica, and no write more than
// once anywhere. execs holds each replica's per-seq execution counts.
func (c *checker) checkExactlyOnce(execs []*seqTable, maxSeq uint64) error {
	for seq := uint64(1); seq <= maxSeq; seq++ {
		acked := c.ackAt.load(seq) != 0
		for r, t := range execs {
			n := t.load(seq)
			if n > 1 || (acked && n != 1) {
				return fmt.Errorf("write seq %d executed %d times on replica %d (acked %v)", seq, n, r+1, acked)
			}
		}
	}
	return nil
}
