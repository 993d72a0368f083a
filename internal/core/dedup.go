package core

import (
	"encoding/binary"
	"fmt"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/raft"
)

// dedupEntry remembers one applied read-write request: its reply (so the
// designated replier can answer a retransmission without re-executing)
// and which node was assigned the reply. reply is nil for entries
// restored from a snapshot — the ID is still suppressed, but the answer
// is regenerated only by the client's own retry against a replica that
// kept the bytes.
type dedupEntry struct {
	reply   []byte
	replier raft.NodeID
	has     bool // reply bytes are valid (false after snapshot restore)
}

// DedupCache is the server side of exactly-once request semantics: a
// bounded FIFO of the most recently applied read-write RPC IDs (the R2P2
// 3-tuple ⟨SrcIP, SrcPort, ReqID⟩) with their replies. Every replica
// maintains an identical cache — Record is called in apply order, and
// eviction is strict insertion order — so the "is this a duplicate?"
// decision at apply time is the same on every node, which keeps state
// machines identical even when a retransmitted request is re-proposed by
// a new leader after failover.
//
// The window bounds memory; a client that retries longer than the window
// covers (tens of thousands of operations later) can in principle
// double-execute, so retry budgets must stay well inside it.
type DedupCache struct {
	window int
	m      map[r2p2.RequestID]*dedupEntry
	fifo   []r2p2.RequestID // insertion order = eviction order

	// Stats.
	Hits    uint64
	Evicted uint64
}

// NewDedupCache returns a cache remembering the last window IDs.
func NewDedupCache(window int) *DedupCache {
	return &DedupCache{window: window, m: make(map[r2p2.RequestID]*dedupEntry)}
}

// Seen reports whether id was already applied (still inside the window).
func (d *DedupCache) Seen(id r2p2.RequestID) bool {
	_, ok := d.m[id]
	if ok {
		d.Hits++
	}
	return ok
}

// has is Seen without counting a hit (the apply pipeline classifies an
// entry before it completes, and counts the hit when it does).
func (d *DedupCache) has(id r2p2.RequestID) bool {
	_, ok := d.m[id]
	return ok
}

// Lookup returns the cached reply for id. ok reports a cache hit;
// hasReply reports whether the reply bytes survived (false when the
// entry came in via snapshot restore).
func (d *DedupCache) Lookup(id r2p2.RequestID) (reply []byte, replier raft.NodeID, hasReply, ok bool) {
	e, ok := d.m[id]
	if !ok {
		return nil, raft.None, false, false
	}
	d.Hits++
	return e.reply, e.replier, e.has, true
}

// Record remembers an applied request and its reply. Re-recording an
// existing ID only fills in missing reply bytes (it never reorders the
// FIFO, so eviction stays deterministic across replicas).
func (d *DedupCache) Record(id r2p2.RequestID, reply []byte, replier raft.NodeID) {
	if e, ok := d.m[id]; ok {
		if !e.has && reply != nil {
			e.reply, e.replier, e.has = reply, replier, true
		}
		return
	}
	d.m[id] = &dedupEntry{reply: reply, replier: replier, has: reply != nil}
	d.fifo = append(d.fifo, id)
	for len(d.fifo) > d.window {
		delete(d.m, d.fifo[0])
		d.fifo = d.fifo[1:]
		d.Evicted++
	}
}

// Len returns the number of remembered IDs.
func (d *DedupCache) Len() int { return len(d.m) }

// --- snapshot integration -------------------------------------------------

// Snapshot blobs are wrapped so the dedup window travels with compaction:
// a replica restored from a snapshot must keep suppressing duplicates of
// requests whose effects are baked into that snapshot, or a retried write
// re-proposed after failover would execute twice on the restored node and
// diverge its state machine. Only the IDs are carried (in FIFO order);
// reply bytes are dropped — suppression is a safety property, resending
// the answer is best-effort.
//
// Layout: "HCDD" magic, u32 count, count × (u32 SrcIP, u16 SrcPort,
// u32 ReqID), then the application blob verbatim.

var dedupSnapMagic = [4]byte{'H', 'C', 'D', 'D'}

// wrapSnapshot prepends d's ID window to the application blob. A nil
// cache wraps an empty window so the format is uniform.
func wrapSnapshot(d *DedupCache, app []byte) []byte {
	var ids []r2p2.RequestID
	if d != nil {
		ids = d.fifo
	}
	out := make([]byte, 0, 8+10*len(ids)+len(app))
	out = append(out, dedupSnapMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(ids)))
	for _, id := range ids {
		out = binary.BigEndian.AppendUint32(out, id.SrcIP)
		out = binary.BigEndian.AppendUint16(out, id.SrcPort)
		out = binary.BigEndian.AppendUint32(out, id.ReqID)
	}
	return append(out, app...)
}

// unwrapSnapshot splits a wrapped blob into the ID window and the
// application payload. Unwrapped (legacy/test) blobs pass through with an
// empty window.
func unwrapSnapshot(blob []byte) (ids []r2p2.RequestID, app []byte, err error) {
	if len(blob) < 8 || [4]byte(blob[:4]) != dedupSnapMagic {
		return nil, blob, nil
	}
	n := int(binary.BigEndian.Uint32(blob[4:8]))
	if len(blob) < 8+10*n {
		return nil, nil, fmt.Errorf("dedup snapshot header claims %d ids, blob too short", n)
	}
	ids = make([]r2p2.RequestID, n)
	off := 8
	for i := 0; i < n; i++ {
		ids[i] = r2p2.RequestID{
			SrcIP:   binary.BigEndian.Uint32(blob[off : off+4]),
			SrcPort: binary.BigEndian.Uint16(blob[off+4 : off+6]),
			ReqID:   binary.BigEndian.Uint32(blob[off+6 : off+10]),
		}
		off += 10
	}
	return ids, blob[off:], nil
}

// seedFromSnapshot merges a restored ID window into the cache: IDs whose
// effects are inside the restored state but whose replies are gone.
func (d *DedupCache) seedFromSnapshot(ids []r2p2.RequestID) {
	for _, id := range ids {
		if _, ok := d.m[id]; ok {
			continue
		}
		d.m[id] = &dedupEntry{replier: raft.None}
		d.fifo = append(d.fifo, id)
		for len(d.fifo) > d.window {
			delete(d.m, d.fifo[0])
			d.fifo = d.fifo[1:]
			d.Evicted++
		}
	}
}
