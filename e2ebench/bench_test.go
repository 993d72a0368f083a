package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"hovercraft/internal/kvstore"
)

func TestScheduleRateAndDeterminism(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		d := 20 * time.Second
		a := schedule(w, 42, d, 100)
		want := w.openRate * d.Seconds()
		if got := float64(len(a)); math.Abs(got-want) > 0.03*want {
			t.Errorf("%s: %v requests over %v, want %.0f +-3%%", w.name, got, d, want)
		}
		reads := 0
		for j, o := range a {
			if o.seq != uint64(100+j) {
				t.Fatalf("%s: op %d has seq %d", w.name, j, o.seq)
			}
			if o.due < 0 || o.due >= d || (j > 0 && o.due < a[j-1].due) {
				t.Fatalf("%s: op %d due %v out of order or range", w.name, j, o.due)
			}
			if o.key >= numKeys {
				t.Fatalf("%s: key %d outside the keyspace", w.name, o.key)
			}
			if o.read {
				reads++
			}
		}
		if got := float64(reads) / float64(len(a)); math.Abs(got-w.readFrac) > 0.02 {
			t.Errorf("%s: read share %.3f, want %.2f", w.name, got, w.readFrac)
		}
		if b := schedule(w, 42, d, 100); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different schedules", w.name)
		}
		if c := schedule(w, 43, d, 100); reflect.DeepEqual(a[:100], c[:100]) {
			t.Errorf("%s: different seeds gave the same schedule", w.name)
		}
	}
}

func TestPercentileSampleCounts(t *testing.T) {
	var s []time.Duration
	for i := 1000; i >= 1; i-- {
		s = append(s, time.Duration(i))
	}
	for _, c := range []struct {
		q      float64
		v      time.Duration
		beyond int
		ok     bool
	}{
		{0.5, 500, 500, true},
		{0.99, 990, 10, true},
		{0.995, 995, 5, false},
	} {
		v, beyond, ok := percentile(append([]time.Duration(nil), s...), c.q)
		if v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("p%g = %v, %d beyond, ok %v; want %v, %d, %v", c.q*100, v, beyond, ok, c.v, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(s[:999], 0.99); ok {
		t.Error("p99 of 999 samples has only 9 beyond and must not be reported")
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestWindowedPctNeedsSamplesInEveryWindow(t *testing.T) {
	win := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Microsecond
		}
		return s
	}
	m, line, err := windowedPct("x_p99_us", [][]time.Duration{win(1000), win(2000), win(1000)}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if m.Value != 990 || m.Unit != "us" || !strings.Contains(line, "n=4000") {
		t.Errorf("got %v %q; want the lowest window's p99 (990 us) with n=4000", m, line)
	}
	if _, _, err := windowedPct("x_p99_us", [][]time.Duration{win(1000), win(999)}, 0.99); err == nil {
		t.Error("a window with 9 samples beyond p99 was accepted")
	}
}

func TestValueCodec(t *testing.T) {
	v := appendValue(nil, 1234567, 42, 64)
	seq, key, ok := parseValue(v)
	if len(v) != 64 || seq != 1234567 || key != 42 || !ok {
		t.Fatalf("round trip: len %d seq %d key %d ok %v", len(v), seq, key, ok)
	}
	v[40]++
	if _, _, ok := parseValue(v); ok {
		t.Error("a corrupted value parsed as intact")
	}
	cmd := kvstore.EncodeSet(keyName(42), appendValue(nil, 77, 42, 1024))
	if s, ok := setSeq(cmd); !ok || s != 77 {
		t.Errorf("setSeq(SET) = %d, %v", s, ok)
	}
	if _, ok := setSeq(kvstore.EncodeGet(keyName(42))); ok {
		t.Error("setSeq accepted a GET")
	}
}

// history drives a checker through acknowledged writes, replaying them
// on a real kvstore.Store so GET replies carry real encodings.
type history struct {
	chk   *checker
	store *kvstore.Store
}

func newHistory() *history {
	return &history{chk: newChecker(), store: kvstore.New()}
}

// later returns the checker's clock once it has moved past the last
// reading, so consecutive events get distinct times.
func (h *history) later(prev int64) int64 {
	for {
		if n := h.chk.now(); n > prev {
			return n
		}
	}
}

// write runs one acknowledged SET of seq to key and returns its ack time.
func (h *history) write(seq uint64, key uint32, after int64) int64 {
	h.chk.beginWrite(seq, key)
	inv := h.later(after)
	reply := h.store.Execute(kvstore.EncodeSet(keyName(key), appendValue(nil, seq, key, 64)), false)
	h.chk.endWrite(seq, key, inv, reply)
	return h.later(inv)
}

func (h *history) getReply(key uint32) []byte {
	return h.store.Execute(kvstore.EncodeGet(keyName(key)), true)
}

func TestCheckerAcceptsLinearizableReads(t *testing.T) {
	h := newHistory()
	ack := h.write(1, 7, 0)
	floor := h.chk.readFloor(7)
	h.chk.endRead(7, floor, h.getReply(7))
	// A read concurrent with a newer write may return either value.
	stale := h.getReply(7)
	floor = h.chk.readFloor(7)
	h.write(2, 7, ack)
	h.chk.endRead(7, floor, stale)
	h.chk.endRead(7, floor, h.getReply(7))
	if err := h.chk.err(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckerRejectsStaleRead(t *testing.T) {
	h := newHistory()
	ack := h.write(1, 7, 0)
	old := h.getReply(7)
	h.write(2, 7, ack) // invoked after write 1 was acknowledged
	floor := h.chk.readFloor(7)
	h.chk.endRead(7, floor, old)
	if err := h.chk.err(); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("stale read not rejected: %v", err)
	}
}

func TestCheckerRejectsForeignValue(t *testing.T) {
	h := newHistory()
	h.write(1, 7, 0)
	h.write(2, 8, 0)
	h.chk.endRead(7, h.chk.readFloor(7), h.getReply(8))
	if err := h.chk.err(); err == nil || !strings.Contains(err.Error(), "never written") {
		t.Fatalf("value of another key not rejected: %v", err)
	}
	h = newHistory()
	h.chk.endRead(7, 0, []byte{kvstore.StatusNotFound})
	if err := h.chk.err(); err == nil {
		t.Fatal("a failed GET was not rejected")
	}
}

func TestCheckReplicasRejectsDivergence(t *testing.T) {
	a, b := kvstore.New(), kvstore.New()
	for _, s := range []*kvstore.Store{a, b} {
		s.Execute(kvstore.EncodeSet("k", []byte("v1")), false)
	}
	same := []replicaState{{9, a.Snapshot()}, {9, b.Snapshot()}, {9, a.Snapshot()}}
	if err := checkReplicas(same); err != nil {
		t.Fatalf("identical replicas rejected: %v", err)
	}
	b.Execute(kvstore.EncodeSet("k", []byte("v2")), false)
	if err := checkReplicas([]replicaState{{9, a.Snapshot()}, {9, b.Snapshot()}}); err == nil {
		t.Error("divergent snapshot accepted")
	}
	if err := checkReplicas([]replicaState{{9, a.Snapshot()}, {8, a.Snapshot()}}); err == nil {
		t.Error("different applied index accepted")
	}
}

func TestCheckExactlyOnce(t *testing.T) {
	h := newHistory()
	h.write(1, 7, 0)
	h.chk.beginWrite(2, 7) // never acknowledged
	var r1, r2 seqTable
	r1.slot(1).Add(1)
	r2.slot(1).Add(1)
	if err := h.chk.checkExactlyOnce([]*seqTable{&r1, &r2}, 2); err != nil {
		t.Fatalf("clean execution rejected: %v", err)
	}
	r2.slot(1).Add(1)
	if err := h.chk.checkExactlyOnce([]*seqTable{&r1, &r2}, 2); err == nil {
		t.Error("double execution accepted")
	}
	var r3 seqTable
	if err := h.chk.checkExactlyOnce([]*seqTable{&r1, &r3}, 2); err == nil {
		t.Error("acknowledged write missing on a replica accepted")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{layer: layerRequest, seq: 1, start: 0, end: 100},
		{layer: layerGenWait, seq: 1, start: 0, end: 10},
		{layer: layerClientCall, seq: 1, start: 10, end: 100},
		{layer: layerExecute, node: 1, seq: 1, start: 40, end: 60},
		{layer: layerExecute, node: 2, seq: 1, start: 50, end: 70},
		{layer: layerExecute, node: 3, seq: 0, start: 20, end: 30}, // unlinked read
		{layer: layerWALFlush, node: 1, start: 80, end: 95},
	}
	self, count := selfTimes(spans)
	want := map[int]time.Duration{
		layerRequest: 0, layerGenWait: 10, layerClientCall: 60, layerExecute: 50, layerWALFlush: 15,
	}
	for l, w := range want {
		if self[l] != w {
			t.Errorf("%s self time %v, want %v", layerNames[l], self[l], w)
		}
	}
	if count[layerExecute] != 3 || count[layerRequest] != 1 {
		t.Errorf("counts %v", count)
	}
}

// TestRoundOnLoopback runs one short round of every workload on a real
// loopback cluster and requires every correctness check to pass.
func TestRoundOnLoopback(t *testing.T) {
	if testing.Short() {
		t.Skip("starts loopback clusters")
	}
	for i := range workloads {
		w := &workloads[i]
		tr := newTracer(1 << 16)
		rr, err := runRound(w, t.TempDir(), 1, time.Second, tr)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if rr.check != nil {
			t.Errorf("%s: %v", w.name, rr.check)
		}
		if rr.open.completed == 0 || rr.peak.completed == 0 || rr.open.failed+rr.peak.failed != 0 {
			t.Errorf("%s: open %d/%d peak %d/%d completed/failed", w.name,
				rr.open.completed, rr.open.failed, rr.peak.completed, rr.peak.failed)
		}
		if self, _ := selfTimes(tr.recorded()); self[layerExecute] == 0 {
			t.Errorf("%s: traced round recorded no kvstore.execute time", w.name)
		}
	}
}
