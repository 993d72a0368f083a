package transport

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"hovercraft/internal/core"
	"hovercraft/internal/raft"
)

// TestUDPWALRestartPreservesState kills a whole 3-node WAL-backed cluster
// and restarts every node from its log: committed writes must survive.
func TestUDPWALRestartPreservesState(t *testing.T) {
	ports := freePorts(t, 3)
	peers := map[uint32]string{1: ports[0], 2: ports[1], 3: ports[2]}
	dirs := map[uint32]string{}
	for id := range peers {
		dirs[id] = filepath.Join(t.TempDir(), fmt.Sprint(id))
	}

	start := func(id uint32) (*Server, *raft.FileStorage) {
		fs, recovered, err := raft.OpenFileStorage(dirs[id], false)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewServer(ServerConfig{
			ID: id, Peers: peers, Mode: core.ModeHovercraft,
			TickInterval:  2 * time.Millisecond,
			ElectionTicks: 20, HeartbeatTicks: 4,
			Storage: fs, Recovered: recovered,
		}, &counterService{})
		if err != nil {
			t.Fatal(err)
		}
		return s, fs
	}

	var servers []*Server
	var stores []*raft.FileStorage
	for id := uint32(1); id <= 3; id++ {
		s, fs := start(id)
		servers = append(servers, s)
		stores = append(stores, fs)
	}
	servers[0].Campaign()
	waitForLeader(t, servers)

	cl := dialCluster(t, peers)
	for i := 1; i <= 15; i++ {
		if _, err := cl.Call([]byte("incr"), false); err != nil {
			t.Fatalf("incr %d: %v", i, err)
		}
	}
	cl.Close()

	// Let followers apply, then take the whole cluster down.
	time.Sleep(100 * time.Millisecond)
	for i, s := range servers {
		s.Close()
		stores[i].Close()
	}

	// Cold restart from the WALs. The counter service restarts at zero
	// and replays the recovered log, so state reconverges from durable
	// entries alone.
	servers = servers[:0]
	for id := uint32(1); id <= 3; id++ {
		s, fs := start(id)
		// Deferred calls run last-in first-out: the server stops before
		// its WAL closes, so no in-flight append hits a closed file.
		defer fs.Close()
		defer s.Close()
		servers = append(servers, s)
	}
	servers[0].Campaign()
	waitForLeader(t, servers)

	cl2 := dialCluster(t, peers)
	defer cl2.Close()
	var got []byte
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		got, err = cl2.Call([]byte("get"), true)
		if err == nil && string(got) == "15" {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("post-restart read: %v", err)
	}
	if string(got) != "15" {
		t.Fatalf("post-restart counter = %q, want 15 (writes lost across restart)", got)
	}
	// And the cluster still accepts new writes.
	got, err = cl2.Call([]byte("incr"), false)
	if err != nil || string(got) != "16" {
		t.Fatalf("post-restart write = %q, %v", got, err)
	}
}
