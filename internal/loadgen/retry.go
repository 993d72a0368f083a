package loadgen

import (
	"math/rand"
	"time"

	"hovercraft/internal/stats"
)

// retrier is the retry timing and per-shard breakdown Client and Swarm
// share. Jitter comes from the simulation's seeded rng, so fixed-seed
// runs stay deterministic under virtual time.
type retrier struct {
	rng     *rand.Rand
	retries int           // per-request retransmission budget
	timeout time.Duration // flat attempt expiry when retries is 0
	base    time.Duration // first retransmission's backoff window
	shards  []*ShardStat  // per-group breakdown (sharded mode only)
}

// backoffBase returns attempt's exponential backoff window (1-based):
// base doubling per transmission.
func (r *retrier) backoffBase(attempt int) time.Duration {
	d := r.base
	for i := 1; i < attempt; i++ {
		d *= 2
	}
	return d
}

// backoff returns attempt's expiry delay: a flat timeout when retries
// are disabled, else the exponential window with full jitter over its
// upper half — drawn uniformly from [d/2, d], so the retry herd a
// shared fault creates desynchronizes, while the d/2 floor keeps an
// attempt from expiring before the cluster could plausibly answer.
func (r *retrier) backoff(attempt int) time.Duration {
	if r.retries == 0 {
		return r.timeout
	}
	d := r.backoffBase(attempt)
	return d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
}

// retryDelay is the wait before re-offering a NACKed request: at least
// the admission middlebox's retry-after hint, plus full jitter drawn
// from the attempt's backoff window ([0, d]) so the cohort one NACK
// burst shed does not storm back in lockstep.
func (r *retrier) retryDelay(attempt int, hint time.Duration) time.Duration {
	d := r.backoffBase(attempt)
	return hint + time.Duration(r.rng.Int63n(int64(d)+1))
}

// shardStat returns (growing on demand) the breakdown slot for group g.
func (r *retrier) shardStat(g int) *ShardStat {
	for len(r.shards) <= g {
		r.shards = append(r.shards, &ShardStat{
			Group:   len(r.shards),
			Latency: stats.NewHistogram(),
		})
	}
	return r.shards[g]
}

// ShardStats returns the per-group breakdown (nil when unsharded).
func (r *retrier) ShardStats() []*ShardStat { return r.shards }
