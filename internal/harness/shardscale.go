package harness

import (
	"fmt"
	"time"

	"hovercraft/internal/loadgen"
	"hovercraft/internal/shard"
	"hovercraft/internal/simcluster"
	"hovercraft/internal/simnet"
	"hovercraft/internal/stats"
)

// ShardSpec configures one sharded (Multi-Raft) measurement: G groups of
// Replication replicas placed over a fixed pool of nodes. Holding the
// pool constant while G varies is the honest scaling question — sharding
// over full-membership groups cannot scale (every node still executes
// every write); sharding scales by turning idle pool nodes into
// independent consensus groups, until G*Replication exceeds the pool and
// placements overlap.
type ShardSpec struct {
	Groups      int
	Pool        int
	Replication int
}

func (s ShardSpec) label() string {
	return fmt.Sprintf("G=%d (pool %d, R=%d)", s.Groups, s.Pool, s.Replication)
}

// ShardRunResult bundles a sharded measurement with its cluster state.
type ShardRunResult struct {
	Point   Point
	Cluster *simcluster.Cluster
	Clients []*loadgen.Client
	Hist    *stats.Histogram
	Shards  []*loadgen.ShardStat
}

// shardWorkload is the §7.1 microbenchmark with a routing keyspace large
// enough that consistent hashing splits it evenly.
func shardWorkload() *loadgen.Synthetic {
	return &loadgen.Synthetic{
		ServiceTime: loadgen.Fixed(time.Microsecond),
		ReqSize:     24, ReplySize: 8,
		Keys: 1 << 16,
	}
}

// RunShardPoint builds a sharded cluster, offers rate RPS spread over
// shard-aware clients, and reports the merged measurement.
func RunShardPoint(spec ShardSpec, rate float64, rc RunConfig) ShardRunResult {
	rc.defaults()
	serverHost := simnet.DefaultHostConfig()
	serverHost.ProcBytesPerSec = 1_670_000_000
	serverHost.ProcFilter = consensusPayload
	cl := simcluster.New(simcluster.Options{
		Setup:  simcluster.SetupHovercraft,
		Groups: spec.Groups, Nodes: spec.Pool, Replication: spec.Replication,
		Seed: rc.Seed, Host: serverHost,
		DisableReplyLB: true, // isolate protocol overheads, as in §7.1
		Obs:            rc.Obs,
	})
	router := shard.NewRouter(cl.Map, nil)
	var clients []*loadgen.Client
	for i := 0; i < rc.Clients; i++ {
		c := loadgen.NewClient(cl.Net, fmt.Sprintf("client%d", i), simnet.DefaultHostConfig(),
			loadgen.ClientConfig{
				Rate:   rate / float64(rc.Clients),
				Warmup: rc.Warmup, Duration: rc.Duration,
				Timeout:  20 * time.Millisecond,
				Workload: shardWorkload(),
				Target:   cl.ServiceAddr,
				Port:     uint16(1000 + i),
				Router:   router,
				Obs:      rc.Obs,
			})
		clients = append(clients, c)
	}
	cl.Start()
	for _, c := range clients {
		c.Start()
	}
	cl.Run(rc.Warmup + rc.Duration + 40*time.Millisecond)

	hist := loadgen.MergeHistograms(clients)
	var offered, achieved, nacked, lost float64
	for _, c := range clients {
		r := c.Result()
		offered += r.Offered
		achieved += r.Achieved
		nacked += r.NackRate
		lost += r.LossRate
	}
	sum := hist.Summary()
	return ShardRunResult{
		Point: Point{
			OfferedKRPS:  offered / 1000,
			AchievedKRPS: achieved / 1000,
			P99:          sum.P99,
			P50:          sum.P50,
			NackKRPS:     nacked / 1000,
			LossKRPS:     lost / 1000,
		},
		Cluster: cl,
		Clients: clients,
		Hist:    hist,
		Shards:  loadgen.MergeShardStats(clients),
	}
}

// RunShardCurve sweeps offered rates over one shard configuration.
func RunShardCurve(spec ShardSpec, rates []float64, rc RunConfig) Curve {
	c := Curve{Label: spec.label()}
	for _, r := range rates {
		res := RunShardPoint(spec, r, rc)
		c.Points = append(c.Points, res.Point)
	}
	return c
}

// Shardscale is the Multi-Raft scale-out experiment: max throughput under
// the 500µs SLO as the group count G sweeps over a fixed 12-node pool
// with replication 3. Groups are disjoint up to G=4 (= pool/replication),
// so aggregate capacity grows near-linearly there; at G=8 placements
// overlap — every node hosts two groups — and throughput saturates at
// the pool's aggregate capacity instead of collapsing.
func Shardscale(sc Scale) *Report {
	const (
		pool        = 12
		replication = 3
	)
	groups := sc.ShardGroups
	if len(groups) == 0 {
		groups = []int{1, 2, 4, 8}
	}

	t := &stats.Table{
		Title:   fmt.Sprintf("Max kRPS under 500µs SLO vs group count (pool %d, R=%d, S=1µs, 24B/8B)", pool, replication),
		Headers: []string{"groups", "max kRPS under SLO", "speedup vs G=1", "p99 at max"},
	}
	rep := &Report{
		ID:    "shardscale",
		Title: "Multi-Raft scale-out: throughput under SLO vs shard count",
		PaperClaim: "the paper's single-group HovercRaft is leader-throughput-bound; " +
			"partitioning the keyspace over G groups placed across the same pool " +
			"scales aggregate RPS near-linearly until G exceeds pool/replication, " +
			"then saturates at pool capacity (no collapse)",
		Tables: []*stats.Table{t},
	}

	var curves []Curve
	base := 0.0
	for _, g := range groups {
		eff := g
		if max := pool / replication; eff > max {
			eff = max
		}
		spec := ShardSpec{Groups: g, Pool: pool, Replication: replication}
		cfg := sc.runCfg()
		// Spread client load so the generators never bottleneck a multi-
		// group sweep (each group can absorb ~1M RPS on its own).
		cfg.Clients = 4 * eff
		rates := SweepRates(1_050_000*float64(eff), sc.Points)
		curve := RunShardCurve(spec, rates, cfg)
		curves = append(curves, curve)

		max := curve.MaxUnderSLO(SLO)
		if g == groups[0] && g == 1 {
			base = max
		}
		speedup := "n/a"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", max/base)
		}
		p99 := "n/a"
		for _, p := range curve.Points {
			if p.AchievedKRPS == max {
				p99 = p.P99.String()
			}
		}
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%.0f", max), speedup, p99)
	}
	rep.Curves = curves
	rep.Tables = append(rep.Tables, CurveTable("shardscale data", curves))

	// Per-shard breakdown at the largest G, highest under-SLO load: shows
	// the consistent-hash partition is balanced and every group carries
	// its share.
	last := groups[len(groups)-1]
	eff := last
	if max := pool / replication; eff > max {
		eff = max
	}
	cfg := sc.runCfg()
	cfg.Clients = 4 * eff
	res := RunShardPoint(ShardSpec{Groups: last, Pool: pool, Replication: replication},
		700_000*float64(eff), cfg)
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("per-shard breakdown at G=%d, %.0f kRPS offered:\n%s",
			last, res.Point.OfferedKRPS, loadgen.ShardTable(res.Shards, cfg.Duration)))
	return rep
}
