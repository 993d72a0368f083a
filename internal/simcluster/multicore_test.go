package simcluster

import (
	"fmt"
	"testing"
	"time"
)

// multicoreRun drives one fixed workload on a Cores=4 cluster and
// returns a full fingerprint of everything observable: client-side
// results, per-node raft status, and the handoff counters. Two runs
// with the same seed must produce identical fingerprints — the virtual
// cores are simulated state, not wall-clock concurrency.
func multicoreRun(t *testing.T, seed int64) (string, uint64, uint64) {
	t.Helper()
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: seed, Cores: 4})
	res := runLoad(t, c, 80_000, synthWorkload(time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 100*time.Millisecond)
	if res.Achieved < 0.95*res.Offered {
		t.Fatalf("achieved %.0f of offered %.0f with core handoff (p99 %v, loss %.0f)",
			res.Achieved, res.Offered, res.Latency.P99, res.LossRate)
	}
	fp := fmt.Sprintf("achieved=%.3f offered=%.3f p50=%v p99=%v loss=%.3f",
		res.Achieved, res.Offered, res.Latency.P50, res.Latency.P99, res.LossRate)
	var pushed, dropped uint64
	for _, n := range c.Nodes {
		fp += fmt.Sprintf(" | node%d %v", n.ID, n.Engines[0].Node().Status())
		for ci, mb := range n.inboxes {
			fp += fmt.Sprintf(" core%d=%d/%d", ci+1, mb.Pushed(), mb.Dropped())
			pushed += mb.Pushed()
			dropped += mb.Dropped()
		}
	}
	return fp, pushed, dropped
}

// TestMulticoreHandoffServes proves the virtual-core model carries a
// real workload: packets genuinely cross cores (the mailboxes are
// exercised, nothing is dropped at this load) and the cluster still
// meets the single-core serving bar.
func TestMulticoreHandoffServes(t *testing.T) {
	_, pushed, dropped := multicoreRun(t, 11)
	if pushed == 0 {
		t.Fatal("no packets crossed cores: the handoff path was never exercised")
	}
	if dropped != 0 {
		t.Fatalf("%d handoff drops at moderate load (rings too small?)", dropped)
	}
}

// TestMulticoreDeterminism runs the same seed twice: core handoff is
// modeled in virtual time, so every observable — latencies, raft
// state, even the exact mailbox traffic — must be bit-identical.
func TestMulticoreDeterminism(t *testing.T) {
	a, _, _ := multicoreRun(t, 12)
	b, _, _ := multicoreRun(t, 12)
	if a != b {
		t.Fatalf("same seed diverged with Cores=4:\n run1: %s\n run2: %s", a, b)
	}
}

// TestMulticoreHandoffBackpressure shrinks the rings until they must
// overflow and checks the drop accounting: bounded mailboxes shed,
// they do not grow.
func TestMulticoreHandoffBackpressure(t *testing.T) {
	c := New(Options{Setup: SetupHovercraft, Nodes: 3, Seed: 13, Cores: 4, HandoffDepth: 2})
	runLoad(t, c, 80_000, synthWorkload(time.Microsecond, 24, 8, 0, false),
		10*time.Millisecond, 60*time.Millisecond)
	var pushed, dropped uint64
	for _, n := range c.Nodes {
		for _, mb := range n.inboxes {
			pushed += mb.Pushed()
			dropped += mb.Dropped()
		}
	}
	if pushed == 0 {
		t.Fatal("no handoff traffic at all")
	}
	if dropped == 0 {
		t.Fatal("2-slot rings never overflowed under load: backpressure path untested")
	}
}
