package simcluster

import (
	"testing"
	"time"

	"hovercraft/internal/app"
	"hovercraft/internal/core"
	"hovercraft/internal/fault"
	"hovercraft/internal/linearize"
	"hovercraft/internal/raft"
	"hovercraft/internal/shard"
)

// TestShardedClusterSurvivesFaultSchedule drives a sharded cluster
// through a composite fault schedule — group-0 leader crash (and later
// restart), a 1% packet-loss burst, and a partition/heal cycle on a
// follower — and requires every per-key history to stay linearizable.
// With the overlapping placement, the crashed leader is also a member
// of another group, so several groups degrade at once.
func TestShardedClusterSurvivesFaultSchedule(t *testing.T) {
	for seed := int64(31); seed <= 32; seed++ {
		runShardChaosScenario(t, seed, false)
	}
}

// TestShardedClusterSurvivesFaultScheduleWAL is the same schedule with
// every replica on a WAL: the crashed node hosts two groups and comes
// back through RestartFromWAL with a torn tail on each group's log, so
// both of its replicas recover from disk state, not memory. -short runs
// the first seed only (the race suite is near go test's timeout).
func TestShardedClusterSurvivesFaultScheduleWAL(t *testing.T) {
	seeds := []int64{31, 32}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		runShardChaosScenario(t, seed, true)
	}
}

func runShardChaosScenario(t *testing.T, seed int64, wal bool) {
	t.Helper()
	c := New(Options{
		Setup: SetupHovercraft, Groups: 4, Nodes: 6, Replication: 3, Seed: seed,
		WAL: wal,
		NewService: func(int) (app.Service, app.CostModel) {
			s := &kregService{m: make(map[string][]byte)}
			return s, app.FixedCost{Service: s, PerOp: 2 * time.Microsecond}
		},
	})
	router := shard.NewRouter(c.Map, nil)
	const horizon = 150 * time.Millisecond
	torn := 0
	if wal {
		torn = 7 // shears into the last record of every group's log
	}

	sched := fault.Schedule{Events: []fault.Event{
		// 1% loss for a third of the run.
		{At: 20 * time.Millisecond, Kind: fault.Loss, Rate: 0.01},
		{At: 70 * time.Millisecond, Kind: fault.Loss, Rate: 0},
		// Group-0 leader crashes mid-load and comes back later.
		{At: 50 * time.Millisecond, Kind: fault.Crash, Node: fault.PickLeader},
		{At: 90 * time.Millisecond, Kind: fault.Restart, Node: fault.PickCrashed, Torn: torn},
		// Partition/heal cycle on a concrete node (node 5 overlaps several
		// groups in the 6-node placement).
		{At: 100 * time.Millisecond, Kind: fault.Partition, Node: 5, Peer: fault.AllOthers},
		{At: 125 * time.Millisecond, Kind: fault.Heal},
	}}
	inj := fault.Attach(c.Sim, c.FaultTarget(), sched)
	initial := make(map[raft.NodeID][]*core.Engine)
	for _, n := range c.Nodes {
		initial[n.ID] = append([]*core.Engine(nil), n.Engines...)
	}

	var clients []*shardLoopClient
	for i := 0; i < 4; i++ {
		clients = append(clients, newShardLoopClient(c, router, i, horizon))
	}
	c.Start()
	for _, cl := range clients {
		cl.start()
	}
	c.Run(horizon + 60*time.Millisecond)

	if inj.Skipped != 0 {
		t.Fatalf("seed %d: injector skipped events: %v", seed, inj.Log)
	}
	if wal {
		// RestartFromWAL rebuilds every hosted replica; the in-memory
		// Restart keeps the old engines.
		var rebuilt []raft.NodeID
		for _, n := range c.Nodes {
			for g, e := range n.Engines {
				if e != nil && e != initial[n.ID][g] {
					rebuilt = append(rebuilt, n.ID)
					break
				}
			}
		}
		if len(rebuilt) != 1 || len(c.Placement.GroupsOf(rebuilt[0])) < 2 {
			t.Fatalf("seed %d: want one WAL restart of a multi-group node, rebuilt %v (faults: %v)",
				seed, rebuilt, inj.Log)
		}
	}

	histories := make(map[string][]linearize.Op)
	completed := 0
	for _, cl := range clients {
		for i, op := range cl.history {
			histories[cl.keys[i]] = append(histories[cl.keys[i]], op)
			if !op.Pending {
				completed++
			}
		}
	}
	if completed < 80 {
		t.Fatalf("seed %d: only %d completed ops under faults (history too thin)", seed, completed)
	}
	groupsHit := make(map[shard.GroupID]bool)
	for key, h := range histories {
		groupsHit[c.Map.GroupFor([]byte(key))] = true
		if !linearize.Check(regModel{}, h) {
			t.Fatalf("seed %d: history for key %q (%d ops) is NOT linearizable under faults\nfaults: %v",
				seed, key, len(h), inj.Log)
		}
	}
	if len(groupsHit) < 2 {
		t.Fatalf("seed %d: keyspace exercised only %d groups", seed, len(groupsHit))
	}
}
