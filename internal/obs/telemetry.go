package obs

import (
	"time"

	"hovercraft/internal/stats"
)

// QStage names one hand-off point in the data plane where a request (or
// a batch of datagrams) can queue. The taxonomy follows the request's
// path through a real node: socket ingress → engine dispatch → raft
// step → WAL group-commit → apply queue → service execution → egress.
type QStage uint8

const (
	// QIngress is the wait between a recvmmsg batch arriving from the
	// kernel and the owning core's loop ingesting it into the engine
	// (for datagrams read on another core, their mailbox sojourn).
	QIngress QStage = iota
	// QEngine is the per-message dispatch time on the owning core's loop.
	QEngine
	// QRaftStep is the raft state-machine step/propose time.
	QRaftStep
	// QWalSync is the WAL group-commit flush (fsync barrier) duration.
	QWalSync
	// QApplyQueue is the wait between commit and execution start.
	QApplyQueue
	// QService is the state-machine execution time.
	QService
	// QEgress is the reply send (sendmmsg) duration.
	QEgress
	// QReadIndex is the lin-read fast-path sojourn: arrival of a
	// LIN_READ request to the start of its local execution (lease check
	// or read-index fetch plus the applied-index wait).
	QReadIndex

	// NumQStages counts the stages above.
	NumQStages
)

var qstageNames = [NumQStages]string{
	"ingress", "engine", "raft_step", "wal_sync",
	"apply_queue", "service", "egress", "read_index",
}

func (s QStage) String() string {
	if s < NumQStages {
		return qstageNames[s]
	}
	return "qstage(?)"
}

// QStageNames returns the stage taxonomy in pipeline order.
func QStageNames() []string {
	out := make([]string, NumQStages)
	for i := range qstageNames {
		out[i] = qstageNames[i]
	}
	return out
}

// Telemetry defaults: one-second epochs, a ten-epoch ring, so windowed
// quantiles and SLO burn cover the last ~9-10 seconds.
const (
	DefaultTelemetryEpoch  = time.Second
	DefaultTelemetryEpochs = 10
)

// Telemetry is the always-on queue-delay instrument of one shard: a
// sliding-window histogram per pipeline stage, recorded from the hot
// path with zero allocations and no locks. A nil *Telemetry is the
// disabled state; Record and the other hooks tolerate it, so call sites
// pay one pointer test when telemetry is off.
//
// Recording is safe from any goroutine. Rotation (MaybeRotate) must be
// driven from a single goroutine — both runtimes use the engine tick,
// which runs in the engine's single execution context (the DES event
// loop, or the owning core's loop).
type Telemetry struct {
	clock func() time.Duration
	hists [NumQStages]*stats.WindowedHist

	epoch      time.Duration
	lastRotate time.Duration // single-writer: the rotation driver
}

// NewTelemetry builds a telemetry instrument with the given clock
// (simulator virtual time or process uptime), epoch length, and ring
// size. Zero epoch/epochs select the defaults.
func NewTelemetry(clock func() time.Duration, epoch time.Duration, epochs int) *Telemetry {
	if epoch <= 0 {
		epoch = DefaultTelemetryEpoch
	}
	if epochs <= 0 {
		epochs = DefaultTelemetryEpochs
	}
	t := &Telemetry{clock: clock, epoch: epoch}
	for i := range t.hists {
		t.hists[i] = stats.NewWindowedHist(epochs)
	}
	return t
}

// Active reports whether telemetry is enabled. Hot paths that would pay
// for a clock reading guard with it first.
func (t *Telemetry) Active() bool { return t != nil }

// SetClock swaps the time source (the simulator rebinds it per run).
func (t *Telemetry) SetClock(f func() time.Duration) {
	if t != nil {
		t.clock = f
	}
}

// SetSLO reconfigures the burn-rate objective on every stage. Call
// before the instrument goes live.
func (t *Telemetry) SetSLO(threshold time.Duration, target float64) {
	if t == nil {
		return
	}
	for _, h := range t.hists {
		h.SetSLO(threshold, target)
	}
}

// Now reads the telemetry clock; 0 when disabled or unbound.
func (t *Telemetry) Now() time.Duration {
	if t == nil || t.clock == nil {
		return 0
	}
	return t.clock()
}

// Record adds one queue-delay observation for a stage. Zero
// allocations; safe from any goroutine; no-op when disabled.
func (t *Telemetry) Record(s QStage, d time.Duration) {
	if t == nil || s >= NumQStages {
		return
	}
	t.hists[s].RecordN(int64(d), 1)
}

// RecordN adds n identical observations — one recvmmsg batch whose
// datagrams all waited the same time to enter the engine.
func (t *Telemetry) RecordN(s QStage, d time.Duration, n int) {
	if t == nil || s >= NumQStages || n <= 0 {
		return
	}
	t.hists[s].RecordN(int64(d), uint64(n))
}

// MaybeRotate advances every stage's epoch ring when an epoch has
// elapsed on the telemetry clock. Call from one goroutine at a steady
// cadence (the engine tick).
func (t *Telemetry) MaybeRotate() {
	if t == nil || t.clock == nil {
		return
	}
	now := t.clock()
	if now-t.lastRotate < t.epoch {
		return
	}
	t.lastRotate = now
	for _, h := range t.hists {
		h.Rotate()
	}
}

// Window returns the named stage's sliding-window summary.
func (t *Telemetry) Window(s QStage) stats.WindowSummary {
	if t == nil || s >= NumQStages {
		return stats.WindowSummary{}
	}
	return t.hists[s].Window()
}

// Hist exposes a stage's windowed histogram (tests, registration).
func (t *Telemetry) Hist(s QStage) *stats.WindowedHist {
	if t == nil || s >= NumQStages {
		return nil
	}
	return t.hists[s]
}

// Register publishes every stage's windowed histogram under
// qdelay.<stage> in the scoped registry view.
func (t *Telemetry) Register(sc *Scoped) {
	if t == nil || sc == nil {
		return
	}
	for i, h := range t.hists {
		sc.Window("qdelay."+qstageNames[i], h)
	}
}
