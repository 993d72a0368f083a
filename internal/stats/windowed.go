package stats

import (
	"math"
	"sync/atomic"
	"time"
)

// This file holds the always-on telemetry histograms: unlike Histogram
// (single-threaded, unbounded range, 3% error), these are built for the
// live data plane — every Record is a handful of atomic adds, safe from
// any goroutine, with zero heap allocations, at a coarser (~6%) bucket
// resolution that keeps a whole epoch ring under 50KiB per stage.

// wSubBits sets the linear sub-bucket count per power-of-two range:
// 2^4 = 16 sub-buckets bound the relative quantile error at ~6%.
const (
	wSubBits = 4
	wSub     = 1 << wSubBits
	// wMaxExp clamps recorded values at 2^39ns ≈ 9.2 minutes; queue
	// delays beyond that are saturation, not measurement.
	wMaxExp = 39
	// wBuckets: exact slots [0,wSub) plus wSub slots per exponent in
	// [wSubBits, wMaxExp].
	wBuckets = (wMaxExp-wSubBits+1)*wSub + wSub
	wClamp   = int64(1)<<wMaxExp + (int64(1)<<wMaxExp - 1)
)

// wBucketIndex maps a non-negative value to its slot (same log-linear
// layout as Histogram, at wSub resolution).
func wBucketIndex(v int64) int {
	if v < wSub {
		return int(v)
	}
	exp := 63 - leadingZeros64(uint64(v))
	sub := int(v>>uint(exp-wSubBits)) & (wSub - 1)
	return (exp-wSubBits+1)*wSub + sub
}

// wBucketLow is the smallest value mapping to slot i.
func wBucketLow(i int) int64 {
	if i < wSub {
		return int64(i)
	}
	exp := i/wSub + wSubBits - 1
	sub := i % wSub
	return (1 << uint(exp)) | int64(sub)<<uint(exp-wSubBits)
}

// AtomicHist is a fixed-bucket log-linear histogram whose every counter
// is atomic: concurrent recorders never contend on a lock and never
// allocate. The zero value is ready to use.
type AtomicHist struct {
	counts [wBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
	above  atomic.Uint64 // observations at/over the owner's SLO threshold
}

// Record adds one observation (negative values clamp to 0).
func (h *AtomicHist) Record(v int64) { h.add(v, 1, false) }

// RecordN adds n identical observations in one shot — the batch
// hand-off case, where every datagram of a recvmmsg batch waited the
// same time to enter the engine.
func (h *AtomicHist) RecordN(v int64, n uint64) { h.add(v, n, false) }

func (h *AtomicHist) add(v int64, n uint64, over bool) {
	if n == 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	if v > wClamp {
		v = wClamp
	}
	h.counts[wBucketIndex(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * int64(n))
	if over {
		h.above.Add(n)
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded observations.
func (h *AtomicHist) Count() uint64 { return h.count.Load() }

// reset zeroes the histogram (epoch rotation; not linearizable with
// respect to concurrent recorders, which is fine — a straggler write
// lands in either the old or the new epoch).
func (h *AtomicHist) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	h.above.Store(0)
}

// addTo accumulates the histogram into a merge buffer.
func (h *AtomicHist) addTo(m *histMerge) {
	for i := range h.counts {
		m.counts[i] += h.counts[i].Load()
	}
	m.count += h.count.Load()
	m.sum += h.sum.Load()
	m.above += h.above.Load()
	if v := h.max.Load(); v > m.max {
		m.max = v
	}
}

// histMerge is a plain (non-atomic) accumulation of one or more
// AtomicHists, used to extract quantiles from a consistent-enough view.
type histMerge struct {
	counts [wBuckets]uint64
	count  uint64
	sum    int64
	max    int64
	above  uint64
}

func (m *histMerge) quantile(q float64) int64 {
	if m.count == 0 {
		return 0
	}
	rank := uint64(q * float64(m.count))
	if rank < 1 {
		rank = 1
	}
	if rank > m.count {
		rank = m.count
	}
	var seen uint64
	for i := range m.counts {
		seen += m.counts[i]
		if seen >= rank {
			v := wBucketLow(i)
			if v > m.max && m.max > 0 {
				v = m.max
			}
			return v
		}
	}
	return m.max
}

// WindowSummary is a point-in-time read of a sliding window: counts and
// quantiles over the last Epochs×epoch-length of observations, plus the
// SLO burn rate against the configured threshold.
type WindowSummary struct {
	Count uint64
	P50   time.Duration
	P99   time.Duration
	P999  time.Duration
	Max   time.Duration
	Mean  time.Duration
	// Above counts observations at/over Threshold inside the window.
	Above     uint64
	Threshold time.Duration
	// Burn is the SLO error-budget burn rate: the observed violation
	// fraction divided by the allowed fraction (1 - target quantile).
	// Burn 1.0 means the budget is being consumed exactly at the
	// sustainable rate; >1 means the SLO is being burned down.
	Burn float64
}

// WindowedHist tracks a distribution twice: a cumulative total (never
// reset, Prometheus-counter semantics) and a ring of epoch histograms
// that Rotate advances, so windowed quantiles and SLO burn cover only
// recent history. Record is lock-free and allocation-free; Rotate and
// the snapshot methods are for control-plane callers.
//
// The window spans between len(epochs)-1 and len(epochs) epochs of
// data (the current epoch is partially filled).
type WindowedHist struct {
	total  AtomicHist
	epochs []AtomicHist
	cur    atomic.Uint32

	// SLO configuration; set before concurrent use (SetSLO).
	sloThreshold int64
	sloTarget    float64

	rotations atomic.Uint64
}

// DefaultSLOThreshold is the paper's service-level objective: p99 under
// 500µs (HovercRaft §7).
const DefaultSLOThreshold = 500 * time.Microsecond

// DefaultSLOTarget is the target quantile of the SLO (99% of requests
// under the threshold).
const DefaultSLOTarget = 0.99

// NewWindowedHist builds a windowed histogram with the given epoch
// count (minimum 2) and the default 500µs/p99 SLO.
func NewWindowedHist(epochs int) *WindowedHist {
	if epochs < 2 {
		epochs = 2
	}
	return &WindowedHist{
		epochs:       make([]AtomicHist, epochs),
		sloThreshold: int64(DefaultSLOThreshold),
		sloTarget:    DefaultSLOTarget,
	}
}

// SetSLO reconfigures the burn-rate objective. Not safe concurrently
// with recorders; call before the histogram goes live.
func (w *WindowedHist) SetSLO(threshold time.Duration, target float64) {
	if threshold > 0 {
		w.sloThreshold = int64(threshold)
	}
	if target > 0 && target < 1 {
		w.sloTarget = target
	}
}

// Record adds one observation to the total and the current epoch.
func (w *WindowedHist) Record(v int64) { w.RecordN(v, 1) }

// RecordDuration records a time.Duration in nanoseconds.
func (w *WindowedHist) RecordDuration(d time.Duration) { w.RecordN(int64(d), 1) }

// RecordN adds n identical observations (one recvmmsg batch's shared
// queue delay). Zero allocations; safe from any goroutine.
func (w *WindowedHist) RecordN(v int64, n uint64) {
	over := v >= w.sloThreshold
	w.total.add(v, n, over)
	w.epochs[w.cur.Load()].add(v, n, over)
}

// Rotate advances the epoch ring: the oldest epoch is cleared and
// becomes current. Call at a fixed cadence from one goroutine.
func (w *WindowedHist) Rotate() {
	next := (w.cur.Load() + 1) % uint32(len(w.epochs))
	w.epochs[next].reset()
	w.cur.Store(next)
	w.rotations.Add(1)
}

// Rotations returns how many times the window advanced.
func (w *WindowedHist) Rotations() uint64 { return w.rotations.Load() }

// Epochs returns the ring size.
func (w *WindowedHist) Epochs() int { return len(w.epochs) }

// Window merges every epoch in the ring into a windowed summary.
func (w *WindowedHist) Window() WindowSummary {
	var m histMerge
	for i := range w.epochs {
		w.epochs[i].addTo(&m)
	}
	return w.summarize(&m)
}

// Total summarizes the cumulative (never-reset) distribution.
func (w *WindowedHist) Total() WindowSummary {
	var m histMerge
	w.total.addTo(&m)
	return w.summarize(&m)
}

// TotalCount returns the cumulative observation count.
func (w *WindowedHist) TotalCount() uint64 { return w.total.Count() }

// TotalSum returns the cumulative sum of observations (ns).
func (w *WindowedHist) TotalSum() int64 { return w.total.sum.Load() }

func (w *WindowedHist) summarize(m *histMerge) WindowSummary {
	s := WindowSummary{
		Count:     m.count,
		P50:       time.Duration(m.quantile(0.50)),
		P99:       time.Duration(m.quantile(0.99)),
		P999:      time.Duration(m.quantile(0.999)),
		Max:       time.Duration(m.max),
		Above:     m.above,
		Threshold: time.Duration(w.sloThreshold),
	}
	if m.count > 0 {
		s.Mean = time.Duration(m.sum / int64(m.count))
		allowed := 1 - w.sloTarget
		if allowed > 0 {
			// Round to 4 decimals: scrubs float artifacts like
			// 99.99999999999991 from the exported series.
			s.Burn = math.Round((float64(m.above)/float64(m.count))/allowed*1e4) / 1e4
		}
	}
	return s
}
