package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"hovercraft/internal/obs"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// percentile returns the q-quantile of samples by nearest rank, with the
// number of samples beyond it; ok is false when fewer than minBeyond
// lie beyond, and the percentile must not be reported. samples is
// sorted in place.
func percentile(samples []time.Duration, q float64) (v time.Duration, beyond int, ok bool) {
	n := len(samples)
	if n == 0 {
		return 0, 0, false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	beyond = n - 1 - idx
	return samples[idx], beyond, beyond >= minBeyond
}

// median of a set of values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// nodeSnap is one node's counters at a phase boundary.
type nodeSnap struct {
	net, eng, cores map[string]uint64
	writes, reads   uint64 // executions on this replica
	execNs          int64
	walStageNs      int64
	walRecords      uint64
	walBytes        int64
	walFlushIdx     int
}

// snapshot is the whole process's counters at a phase boundary.
type snapshot struct {
	nodes  [numNodes]nodeSnap
	ru     syscall.Rusage
	rt     []metrics.Sample
	leader int
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func (c *cluster) snapshot() snapshot {
	s := snapshot{leader: c.leader()}
	for i, srv := range c.servers {
		n := &s.nodes[i]
		n.net = srv.NetStats()
		n.eng = engineCounters(srv)
		n.cores = coreCounters(srv)
		n.writes, n.reads = c.svcs[i].writes.Load(), c.svcs[i].reads.Load()
		n.execNs = c.svcs[i].execNs.Load()
		if w := c.wals[i]; w != nil {
			n.walStageNs = w.stageNs.Load()
			n.walRecords = w.records.Load()
			n.walBytes = w.walBytes()
			n.walFlushIdx = w.flushes.len()
		}
	}
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s.ru) // zero rusage only zeroes the cpu metrics
	s.rt = make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s.rt[i].Name = name
	}
	metrics.Read(s.rt)
	return s
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func rtFloat(v metrics.Value) float64 {
	switch v.Kind() {
	case metrics.KindUint64:
		return float64(v.Uint64())
	case metrics.KindFloat64:
		return v.Float64()
	}
	return 0
}

// histP99 is the p99 of the difference of two runtime/metrics
// histograms (bucket upper bound), 0 when empty.
func histP99(a, b metrics.Value) float64 {
	if a.Kind() != metrics.KindFloat64Histogram || b.Kind() != metrics.KindFloat64Histogram {
		return 0
	}
	ha, hb := a.Float64Histogram(), b.Float64Histogram()
	var total uint64
	diff := make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		diff[i] = hb.Counts[i] - ha.Counts[i]
		total += diff[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(0.99 * float64(total)))
	var run uint64
	for i, n := range diff {
		run += n
		if run >= want {
			hi := hb.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = hb.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// layerMetrics derives the per-layer metrics of one phase from its
// boundary snapshots. reqs is the requests completed in the phase,
// reads the GETs among them.
func (c *cluster) layerMetrics(a, b snapshot, reqs, reads int) map[string]metric {
	m := map[string]metric{}
	per := func(x float64) float64 {
		if reqs == 0 {
			return 0
		}
		return x / float64(reqs)
	}
	delta := func(get func(n *nodeSnap) uint64, i int) float64 {
		return float64(get(&b.nodes[i]) - get(&a.nodes[i]))
	}
	sumNodes := func(get func(n *nodeSnap) uint64) float64 {
		var t float64
		for i := range c.servers {
			t += delta(get, i)
		}
		return t
	}
	net := func(k string) func(n *nodeSnap) uint64 { return func(n *nodeSnap) uint64 { return n.net[k] } }
	eng := func(k string) func(n *nodeSnap) uint64 { return func(n *nodeSnap) uint64 { return n.eng[k] } }
	cores := func(k string) func(n *nodeSnap) uint64 { return func(n *nodeSnap) uint64 { return n.cores[k] } }
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}

	ld := b.leader
	if ld < 0 {
		ld = 0
	}
	var frx, ftx float64
	for i := range c.servers {
		if i != ld {
			frx += delta(net("ingress_datagrams"), i)
			ftx += delta(net("egress_datagrams"), i)
		}
	}
	m["transport.leader_rx_dg_per_req"] = metric{per(delta(net("ingress_datagrams"), ld)), "count"}
	m["transport.leader_tx_dg_per_req"] = metric{per(delta(net("egress_datagrams"), ld)), "count"}
	m["transport.follower_rx_dg_per_req"] = metric{per(frx / (numNodes - 1)), "count"}
	m["transport.follower_tx_dg_per_req"] = metric{per(ftx / (numNodes - 1)), "count"}
	m["transport.rx_dg_per_syscall"] = metric{ratio(sumNodes(net("ingress_datagrams")), sumNodes(net("ingress_syscalls"))), "count"}
	m["transport.tx_dg_per_syscall"] = metric{ratio(sumNodes(net("egress_datagrams")), sumNodes(net("egress_syscalls"))), "count"}
	m["transport.udp_rx_dropped"] = metric{sumNodes(net("udp_rx_dropped")), "count"}

	m["runtime.handoff_per_req"] = metric{per(sumNodes(cores("handoff_in"))), "count"}
	m["runtime.handoff_drops"] = metric{sumNodes(cores("handoff_drops")), "count"}

	m["core.tx_ae_per_req"] = metric{per(sumNodes(eng("tx_ae"))), "count"}
	m["core.tx_nack_per_req"] = metric{per(sumNodes(eng("tx_nack"))), "count"}
	m["core.rx_req_dup_per_req"] = metric{per(sumNodes(eng("rx_req_dup"))), "count"}
	served := sumNodes(eng("read_leader_served")) + sumNodes(eng("read_follower_served"))
	m["core.read_follower_frac"] = metric{ratio(sumNodes(eng("read_follower_served")), served), "frac"}
	m["core.read_amortized_frac"] = metric{ratio(sumNodes(eng("read_amortized")), served), "frac"}
	m["core.read_nacked_per_read"] = metric{ratio(sumNodes(eng("read_nacked")), float64(reads)), "count"}

	// Queue-delay windows of the leader (read_index: every node, weighted
	// by samples). They cover the last ~10 s of the node's uptime.
	tel := c.servers[ld].Telemetry()
	for _, st := range []struct {
		name  string
		stage obs.QStage
	}{
		{"obs.ingress_p50_us", obs.QIngress}, {"obs.egress_p50_us", obs.QEgress},
		{"obs.engine_p50_us", obs.QEngine}, {"obs.raft_step_p50_us", obs.QRaftStep},
		{"obs.apply_queue_p50_us", obs.QApplyQueue}, {"obs.wal_sync_p50_us", obs.QWalSync},
	} {
		m[st.name] = metric{us(tel.Window(st.stage).P50), "us"}
	}
	var riSum, riN float64
	for _, s := range c.servers {
		w := s.Telemetry().Window(obs.QReadIndex)
		riSum += us(w.P50) * float64(w.Count)
		riN += float64(w.Count)
	}
	m["obs.read_index_p50_us"] = metric{ratio(riSum, riN), "us"}

	// WAL: totals over the nodes, per request (zero on volatile storage).
	var stageNs, bytes, walRecs float64
	var flushes []time.Duration
	for i, w := range c.wals {
		if w == nil {
			continue
		}
		stageNs += float64(b.nodes[i].walStageNs - a.nodes[i].walStageNs)
		walRecs += float64(b.nodes[i].walRecords - a.nodes[i].walRecords)
		bytes += float64(b.nodes[i].walBytes - a.nodes[i].walBytes)
		flushes = append(flushes, w.flushes.between(a.nodes[i].walFlushIdx, b.nodes[i].walFlushIdx)...)
	}
	m["wal.append_ns_per_req"] = metric{per(stageNs), "ns"}
	m["wal.flushes_per_req"] = metric{per(float64(len(flushes))), "count"}
	m["wal.bytes_per_req"] = metric{per(bytes), "B"}
	m["wal.records_per_flush"] = metric{ratio(walRecs, float64(len(flushes))), "count"}
	if p, _, ok := percentile(flushes, 0.5); ok {
		m["wal.flush_p50_us"] = metric{us(p), "us"}
	} else {
		m["wal.flush_p50_us"] = metric{0, "us"}
	}

	// kvstore: executions over all replicas.
	var execNs float64
	for i := range c.servers {
		execNs += float64(b.nodes[i].execNs - a.nodes[i].execNs)
	}
	execs := sumNodes(func(n *nodeSnap) uint64 { return n.writes + n.reads })
	writes := float64(reqs - reads)
	m["kvstore.execute_ns_per_op"] = metric{ratio(execNs, execs), "ns"}
	m["kvstore.executes_per_write"] = metric{ratio(sumNodes(func(n *nodeSnap) uint64 { return n.writes }), writes), "count"}
	m["kvstore.executes_per_read"] = metric{ratio(sumNodes(func(n *nodeSnap) uint64 { return n.reads }), float64(reads)), "count"}

	// Go runtime, process-wide (generator and clients included).
	rt := func(i int) float64 { return rtFloat(b.rt[i].Value) - rtFloat(a.rt[i].Value) }
	m["go.allocs_per_req"] = metric{per(rt(0)), "count"}
	m["go.bytes_per_req"] = metric{per(rt(1)), "B"}
	m["go.gc_cpu_frac"] = metric{ratio(rt(2), rt(3)), "frac"}
	m["go.gc_pause_p99_us"] = metric{histP99(a.rt[4].Value, b.rt[4].Value) * 1e6, "us"}
	m["go.cpu_user_us_per_req"] = metric{per((tvSeconds(b.ru.Utime) - tvSeconds(a.ru.Utime)) * 1e6), "us"}
	m["go.cpu_sys_us_per_req"] = metric{per((tvSeconds(b.ru.Stime) - tvSeconds(a.ru.Stime)) * 1e6), "us"}
	return m
}
