// Package obs is the cross-cutting observability layer: a request
// lifecycle tracer, a structured cluster event log, a Chrome-trace
// (Perfetto-loadable) exporter, and a unified metrics registry.
//
// The tracer decomposes every completed request's latency into the
// pipeline stages of the HovercRaft request path (client send → leader
// ingest → raft append → quorum commit → apply → reply → client receive),
// turning the harness's end-to-end p99 curves into per-stage breakdowns —
// the same per-stage RPC accounting Lancet (ATC'19) applies to µs-scale
// services. Inside the simulator every timestamp is virtual time, so a
// traced run is bit-for-bit reproducible for a fixed seed.
//
// All hook methods are safe on a nil *Obs and allocate nothing when
// tracing is disabled: a nil receiver is the disabled state, so the
// instrumented hot paths pay one pointer test per hook. Components that
// would box fmt arguments guard with Active() first.
package obs

import (
	"fmt"
	"time"

	"hovercraft/internal/r2p2"
	"hovercraft/internal/stats"
)

// Stage is one stamped point in a request's lifecycle.
type Stage uint8

const (
	// StageClientSend is when the client handed the request to its NIC.
	StageClientSend Stage = iota
	// StageLeaderRx is when the leader's engine ingested the request.
	StageLeaderRx
	// StageAppend is when the leader appended the entry to its raft log.
	StageAppend
	// StageCommit is when the quorum committed the entry at the leader.
	StageCommit
	// StageApplyStart is when the replier began executing the operation.
	StageApplyStart
	// StageApplyDone is when execution finished and the reply was ready.
	StageApplyDone
	// StageClientRecv is when the client's NIC handler saw the response.
	StageClientRecv

	// NumStages counts the stages above.
	NumStages
)

var stageNames = [NumStages]string{
	"client_send", "leader_rx", "append", "commit",
	"apply_start", "apply_done", "client_recv",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("stage(%d)", uint8(s))
}

// segdef is a derived latency segment between two stamped stages.
type segdef struct {
	name     string
	from, to Stage
}

// numSegments must match len(segments) (checked in init).
const numSegments = 7

// segments is the latency decomposition, in pipeline order. "total" must
// stay last (BreakdownTable uses it as the share denominator).
var segments = [numSegments]segdef{
	{"net_out", StageClientSend, StageLeaderRx},   // client → leader ingest
	{"order", StageLeaderRx, StageAppend},         // ingest → log append
	{"replicate", StageAppend, StageCommit},       // append → quorum commit
	{"apply_queue", StageCommit, StageApplyStart}, // commit → execution start
	{"service", StageApplyStart, StageApplyDone},  // state-machine execution
	{"net_back", StageApplyDone, StageClientRecv}, // reply → client
	{"total", StageClientSend, StageClientRecv},
}

// SegmentNames returns the decomposition segment names in pipeline order.
func SegmentNames() []string {
	out := make([]string, len(segments))
	for i, s := range segments {
		out[i] = s.name
	}
	return out
}

// span is one in-flight request's stamp record.
type span struct {
	ts   [NumStages]time.Duration
	seen uint16 // bitmask of stamped stages
}

// tracedReq is a completed span retained for trace export.
type tracedReq struct {
	id   r2p2.RequestID
	ts   [NumStages]time.Duration
	seen uint16
}

// Obs is one observability session: attach it to a cluster (and its
// clients) for the duration of a run, then read breakdown tables, export
// the trace, or snapshot the metrics registry. A nil *Obs is the
// disabled state; every method tolerates it.
//
// Obs is not safe for concurrent use; both runtimes drive it from a
// single execution context (the DES event loop / the owning core's
// loop).
type Obs struct {
	clock func() time.Duration

	spans    map[r2p2.RequestID]*span
	maxSpans int

	seg [numSegments]*stats.Histogram

	// Optional sliding windows over the same decomposition (EnableWindows):
	// rotated on the session clock so recent-history quantiles and SLO
	// burn are available live, not just end-of-run.
	win        [numSegments]*stats.WindowedHist
	winEpoch   time.Duration
	winRotated time.Duration

	completed uint64
	abandoned uint64

	traced   []tracedReq
	maxTrace int

	events *EventLog
	reg    *Registry
}

// New returns an enabled observability session. Call SetClock before the
// first stamp (the simulator uses virtual time, the UDP runtime uptime).
func New() *Obs {
	o := &Obs{
		spans:    make(map[r2p2.RequestID]*span),
		maxSpans: 1 << 20,
		maxTrace: 4096,
		events:   newEventLog(20000),
	}
	for i := range o.seg {
		o.seg[i] = stats.NewHistogram()
	}
	o.reg = NewRegistry()
	o.reg.Counter("obs.requests_completed", func() uint64 { return o.completed })
	o.reg.Counter("obs.requests_abandoned", func() uint64 { return o.abandoned })
	o.reg.Counter("obs.events_dropped", func() uint64 { return o.events.dropped })
	for i, def := range segments {
		o.reg.Histogram("latency."+def.name, o.seg[i])
	}
	return o
}

// EnableWindows attaches sliding-window histograms to the per-segment
// latency decomposition, registered as latency.<segment> windows in the
// metrics registry. Epochs rotate on the session clock every epoch
// duration (0 selects the telemetry defaults). Call before the run.
func (o *Obs) EnableWindows(epoch time.Duration, epochs int) {
	if o == nil {
		return
	}
	if epoch <= 0 {
		epoch = DefaultTelemetryEpoch
	}
	if epochs <= 0 {
		epochs = DefaultTelemetryEpochs
	}
	o.winEpoch = epoch
	for i, def := range segments {
		o.win[i] = stats.NewWindowedHist(epochs)
		o.reg.Window("latency."+def.name, o.win[i])
	}
}

// SegmentWindow returns the sliding-window summary of the named
// decomposition segment (zero when windows are off or name unknown).
func (o *Obs) SegmentWindow(name string) stats.WindowSummary {
	if o == nil {
		return stats.WindowSummary{}
	}
	for i, def := range segments {
		if def.name == name && o.win[i] != nil {
			return o.win[i].Window()
		}
	}
	return stats.WindowSummary{}
}

// Active reports whether tracing is enabled. Hot paths that would box
// fmt arguments (Emitf) must check it first.
func (o *Obs) Active() bool { return o != nil }

// SetClock installs the time source used for every stamp and event.
func (o *Obs) SetClock(f func() time.Duration) {
	if o != nil {
		o.clock = f
	}
}

// LimitTrace caps how many completed requests are retained for trace
// export (the per-stage histograms always see every request).
func (o *Obs) LimitTrace(n int) {
	if o != nil {
		o.maxTrace = n
	}
}

func (o *Obs) now() time.Duration {
	if o.clock == nil {
		return 0
	}
	return o.clock()
}

// Stage stamps one lifecycle point for a request at the current clock
// reading. The first stamp per stage wins (duplicate deliveries and
// re-walks are ignored); StageClientRecv finalizes the span.
func (o *Obs) Stage(id r2p2.RequestID, s Stage) {
	if o == nil || s >= NumStages {
		return
	}
	sp, ok := o.spans[id]
	if !ok {
		if len(o.spans) >= o.maxSpans {
			return
		}
		sp = &span{}
		o.spans[id] = sp
	}
	if sp.seen&(1<<s) == 0 {
		sp.seen |= 1 << s
		sp.ts[s] = o.now()
	}
	if s == StageClientRecv {
		o.finalize(id, sp)
	}
}

// Abandon discards the span of a request that will never complete
// (NACKed by flow control, or expired at the client).
func (o *Obs) Abandon(id r2p2.RequestID) {
	if o == nil {
		return
	}
	if _, ok := o.spans[id]; ok {
		delete(o.spans, id)
		o.abandoned++
	}
}

// finalize records every defined segment of a completed span into the
// per-stage histograms and retains the span for trace export.
func (o *Obs) finalize(id r2p2.RequestID, sp *span) {
	for i, def := range segments {
		if sp.seen&(1<<def.from) == 0 || sp.seen&(1<<def.to) == 0 {
			continue
		}
		d := sp.ts[def.to] - sp.ts[def.from]
		if d < 0 {
			// Stages are stamped on different nodes; an aggregator
			// fast-path commit can reach the replier before the leader.
			d = 0
		}
		o.seg[i].RecordDuration(d)
		if o.win[i] != nil {
			o.win[i].RecordDuration(d)
		}
	}
	if o.winEpoch > 0 {
		if now := o.now(); now-o.winRotated >= o.winEpoch {
			o.winRotated = now
			for _, w := range o.win {
				w.Rotate()
			}
		}
	}
	if len(o.traced) < o.maxTrace {
		o.traced = append(o.traced, tracedReq{id: id, ts: sp.ts, seen: sp.seen})
	}
	o.completed++
	delete(o.spans, id)
}

// Completed returns the number of finalized request spans.
func (o *Obs) Completed() uint64 {
	if o == nil {
		return 0
	}
	return o.completed
}

// Pending returns the number of in-flight (unfinalized) spans.
func (o *Obs) Pending() int {
	if o == nil {
		return 0
	}
	return len(o.spans)
}

// SegmentHist returns the histogram of the named decomposition segment,
// or nil if unknown (or o is nil).
func (o *Obs) SegmentHist(name string) *stats.Histogram {
	if o == nil {
		return nil
	}
	for i, def := range segments {
		if def.name == name {
			return o.seg[i]
		}
	}
	return nil
}

// Metrics returns the session's metrics registry.
func (o *Obs) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// BreakdownTable renders the per-stage latency decomposition of all
// completed requests: one row per segment with count, percentiles, and
// the segment's share of the mean end-to-end latency.
func (o *Obs) BreakdownTable(title string) *stats.Table {
	t := &stats.Table{
		Title:   title,
		Headers: []string{"stage", "count", "p50", "p90", "p99", "max", "mean", "share"},
	}
	if o == nil {
		return t
	}
	totalMean := o.seg[len(segments)-1].Mean()
	for i, def := range segments {
		h := o.seg[i]
		share := "-"
		if def.name != "total" && totalMean > 0 {
			share = fmt.Sprintf("%.1f%%", 100*h.Mean()/totalMean)
		}
		s := h.Summary()
		t.AddRow(def.name, fmt.Sprintf("%d", s.Count),
			fmtDur(s.P50), fmtDur(s.P90), fmtDur(s.P99), fmtDur(s.Max),
			fmtDur(s.Mean), share)
	}
	return t
}

func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/1e3)
	}
}
