package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Span layers, recorded from the benchmark's own files around the calls
// it makes into each layer.
const (
	layerRequest    = iota // due time -> reply: the root of one request
	layerGenWait           // due time -> send: the generator's lateness
	layerClientCall        // send -> reply: transport.Client Call/CallRead
	layerExecute           // kvstore.Store.Execute on one replica
	layerWALAppend         // raft.FileStorage.AppendEntries (staging)
	layerWALFlush          // raft.FileStorage.Flush (write + fsync barrier)
	numLayers
)

var layerNames = [numLayers]string{
	"request", "loadgen.wait", "client.call", "kvstore.execute", "wal.append", "wal.flush",
}

// span is one timed interval. node 0 is the benchmark's client side,
// 1..3 the replicas. seq links a request's spans; 0 means unlinked (GET
// executions carry no seq; a WAL span carries the first seq it staged).
type span struct {
	layer      uint8
	node       uint8
	seq        uint64
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in a fixed in-memory buffer and writes them out
// when the run ends; spans past its capacity are counted and dropped.
type tracer struct {
	epoch   time.Time
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, capacity)}
}

func (t *tracer) record(layer, node int, seq uint64, start, end time.Time) {
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{layer: uint8(layer), node: uint8(node), seq: seq,
		start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch))}
}

// recorded returns the spans kept; call once every recorder has stopped.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// selfTimes returns each layer's total self time: a span's duration
// minus the part of it its children cover. Children: a request's
// loadgen.wait and client.call spans; a client.call's kvstore.execute
// spans with the same seq. Overlapping children (one execute per
// replica) count once.
func selfTimes(spans []span) (self [numLayers]time.Duration, count [numLayers]int) {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].seq < sorted[j].seq })
	var kids []span
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j].seq == sorted[i].seq {
			j++
		}
		group := sorted[i:j]
		for _, s := range group {
			kids = kids[:0]
			for _, k := range group {
				if s.seq == 0 {
					break // unlinked spans have no children
				}
				if isChild(s.layer, k.layer) {
					kids = append(kids, k)
				}
			}
			self[s.layer] += time.Duration(s.end - s.start - covered(s, kids))
			count[s.layer]++
		}
		i = j
	}
	return self, count
}

func isChild(parent, child uint8) bool {
	switch parent {
	case layerRequest:
		return child == layerGenWait || child == layerClientCall
	case layerClientCall:
		return child == layerExecute
	}
	return false
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.start, parent.start), min(k.end, parent.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// writeSelfTable prints the per-layer self-time table, normalized to
// the requests the trace covers.
func writeSelfTable(w io.Writer, spans []span, dropped int64) {
	self, count := selfTimes(spans)
	var total time.Duration
	for _, d := range self {
		total += d
	}
	reqs := count[layerRequest]
	fmt.Fprintf(w, "traced spans %d (dropped %d), requests %d\n", len(spans), dropped, reqs)
	fmt.Fprintf(w, "%-16s %9s %14s %12s %7s\n", "layer", "spans", "self_us_total", "self_us/req", "share")
	for l := 0; l < numLayers; l++ {
		perReq, share := 0.0, 0.0
		if reqs > 0 {
			perReq = float64(self[l]) / 1e3 / float64(reqs)
		}
		if total > 0 {
			share = float64(self[l]) / float64(total)
		}
		fmt.Fprintf(w, "%-16s %9d %14.0f %12.2f %6.1f%%\n", layerNames[l], count[l], float64(self[l])/1e3, perReq, 100*share)
	}
}

// maxTraceEvents caps the Perfetto file; the self-time table uses every
// span kept in memory.
const maxTraceEvents = 200000

// writePerfetto writes spans as Chrome trace-event JSON, loadable in
// Perfetto: one process per node (0 = benchmark client), one thread per
// layer, one complete ("X") event per span with its seq.
func writePerfetto(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	emit := func(v interface{}) {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		enc.Encode(v)
	}
	for node := 0; node <= numNodes; node++ {
		name := "benchmark client"
		if node > 0 {
			name = fmt.Sprintf("replica %d", node)
		}
		emit(map[string]interface{}{"ph": "M", "name": "process_name", "pid": node, "args": map[string]string{"name": name}})
	}
	for i, s := range spans {
		if i == maxTraceEvents {
			break
		}
		emit(map[string]interface{}{
			"ph": "X", "name": layerNames[s.layer], "pid": s.node, "tid": s.layer,
			"ts": float64(s.start) / 1e3, "dur": float64(s.end-s.start) / 1e3,
			"args": map[string]uint64{"seq": s.seq},
		})
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
