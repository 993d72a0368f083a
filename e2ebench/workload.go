package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"hovercraft/internal/kvstore"
	"hovercraft/internal/loadgen"
	"hovercraft/internal/ycsb"
)

// Keyspace and client shape shared by every workload.
const (
	numKeys    = 10000 // preloaded before any phase is timed
	numClients = 2     // transport.Clients driving the cluster
	peakWindow = 256   // closed-loop goroutines in the peak phase
	// openShare is the part of --seconds given to the open phase; the
	// p99s need the longer share, peak_rps settles in a few seconds.
	openShare = 0.7
)

// workload is one traffic mix. Every node runs transport.NewServer's
// defaults (1 ms tick, telemetry on) in HovercRaft mode plus only the
// settings named here.
type workload struct {
	name      string
	valueSize int     // bytes per SET value
	readFrac  float64 // share of GETs
	// leased turns on ServerConfig.ReadLease and sends GETs through
	// CallRead (lease/read-index path, mostly served by followers).
	// Otherwise GETs are ordered through the log with Call(get, true).
	leased   bool
	zipf     bool    // scrambled-zipfian keys (else uniform)
	durable  bool    // raft.FileStorage WAL with group commit (fsync off)
	openRate float64 // open-phase Poisson arrival rate, req/s
}

// The open rates are fixed numbers, never derived from a measured peak,
// so parent and change are offered identical load. They sit at roughly
// 10-15% of each workload's closed-loop peak on a 2-vCPU host.
var workloads = []workload{
	// The replication pacing path does all the work. The ordered GETs
	// take the same log path as the SETs.
	{name: "kv-write", valueSize: 64, readFrac: 1.0 / 3, openRate: 4000},
	// The same stream with 1 KB values: WAL framing, staging and batch
	// writes join the path, which kv-write bypasses.
	{name: "kv-durable", valueSize: 1024, readFrac: 1.0 / 3, durable: true, openRate: 3000},
	// YCSB-B: leased GETs skip the log and the WAL and are mostly served
	// by followers.
	{name: "kv-readmix", valueSize: 64, readFrac: 0.95, leased: true, zipf: true, openRate: 8000},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// op is one request. seq is the benchmark's request sequence number:
// unique per run, embedded in every value a SET writes, and the link
// between a request's spans in the traced run.
type op struct {
	due  time.Duration // offset from the open phase's start
	seq  uint64
	key  uint32
	read bool
}

// opGen draws keys and the read/write choice from one seeded source.
type opGen struct {
	w    *workload
	rng  *rand.Rand
	zipf *ycsb.ScrambledZipfian
}

func newOpGen(w *workload, seed int64) *opGen {
	g := &opGen{w: w, rng: rand.New(rand.NewSource(seed))}
	if w.zipf {
		g.zipf = ycsb.NewScrambledZipfian(numKeys)
	}
	return g
}

func (g *opGen) next(seq uint64) op {
	o := op{seq: seq, read: g.rng.Float64() < g.w.readFrac}
	if g.zipf != nil {
		o.key = uint32(g.zipf.Next(g.rng))
	} else {
		o.key = uint32(g.rng.Intn(numKeys))
	}
	return o
}

// schedule is the open phase's arrival process: Poisson at the
// workload's fixed rate over d, from the seed alone. Sequence numbers
// start at firstSeq.
func schedule(w *workload, seed int64, d time.Duration, firstSeq uint64) []op {
	g := newOpGen(w, seed)
	gap := loadgen.Exponential(time.Duration(float64(time.Second) / w.openRate))
	ops := make([]op, 0, int(w.openRate*d.Seconds()*1.1)+16)
	var t time.Duration
	for seq := firstSeq; ; seq++ {
		t += gap.Sample(g.rng)
		if t >= d {
			return ops
		}
		o := g.next(seq)
		o.due = t
		ops = append(ops, o)
	}
}

// keyName is the store key of key index k; all keys have one length.
func keyName(k uint32) string { return fmt.Sprintf("k%05d", k) }

// valueHeader is the seq (8 B) and key index (4 B) at the head of a value.
const valueHeader = 12

// appendValue builds the value write seq stores under key: the header,
// then filler that is a function of seq, so a read can be checked byte
// for byte against the write it claims to come from.
func appendValue(dst []byte, seq uint64, key uint32, size int) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint32(dst, key)
	for i := valueHeader; i < size; i++ {
		dst = append(dst, byte(seq)+byte(i))
	}
	return dst
}

// parseValue returns the seq and key a value was written with, and
// whether the rest of the value matches that write exactly.
func parseValue(v []byte) (seq uint64, key uint32, ok bool) {
	if len(v) < valueHeader {
		return 0, 0, false
	}
	seq = binary.BigEndian.Uint64(v)
	key = binary.BigEndian.Uint32(v[8:])
	for i := valueHeader; i < len(v); i++ {
		if v[i] != byte(seq)+byte(i) {
			return seq, key, false
		}
	}
	return seq, key, true
}

// setSeq extracts the value seq from an encoded kvstore SET command
// (opcode, u16 key length, key, u32 value length, value); ok is false
// for any other command.
func setSeq(cmd []byte) (uint64, bool) {
	if len(cmd) < 3 || kvstore.OpCode(cmd[0]) != kvstore.OpSet {
		return 0, false
	}
	off := 3 + int(binary.BigEndian.Uint16(cmd[1:]))
	if len(cmd) < off+4+8 {
		return 0, false
	}
	return binary.BigEndian.Uint64(cmd[off+4:]), true
}
