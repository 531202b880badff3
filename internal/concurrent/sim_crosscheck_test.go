package concurrent

import (
	"fmt"
	"testing"

	"s3fifo/internal/core"
	"s3fifo/internal/workload"
)

// simulatorMisses replays keys through the single-threaded reference
// S3-FIFO from internal/core.
func simulatorMisses(t testing.TB, keys []uint64, capacity uint64) int {
	t.Helper()
	p := core.NewS3FIFO(capacity, core.Options{})
	misses := 0
	for _, k := range keys {
		if !p.Request(k, 1) {
			misses++
		}
	}
	return misses
}

// concurrentMisses serially replays keys through a concurrent cache with
// on-demand fill, returning the miss count.
func concurrentMisses(c Cache, keys []uint64, value []byte) int {
	misses := 0
	for _, k := range keys {
		if _, ok := c.Get(k); !ok {
			misses++
			c.Set(k, value)
		}
	}
	return misses
}

// TestShardedS3FIFOHitRatioMatchesCore: sharding splits the queues and the
// ghost per shard, which perturbs eviction *order* but must not change
// eviction *quality*. On a Zipf trace the sharded concurrent S3-FIFO's hit
// ratio has to stay within half a percentage point of the single-queue
// reference simulator in internal/core.
func TestShardedS3FIFOHitRatioMatchesCore(t *testing.T) {
	w := NewZipfWorkload(50000, 500000, 1.0, 8, 7)
	const capacity = 5000
	simMisses := simulatorMisses(t, w.Keys, capacity)
	simHitRatio := 1 - float64(simMisses)/float64(len(w.Keys))
	for _, shards := range []int{1, 4, 8, 16} {
		cc := NewS3FIFOSharded(capacity, shards)
		if got := cc.Shards(); got != shards {
			t.Fatalf("Shards() = %d, want %d", got, shards)
		}
		misses := concurrentMisses(cc, w.Keys, w.Value)
		hitRatio := 1 - float64(misses)/float64(len(w.Keys))
		if diff := hitRatio - simHitRatio; diff < -0.005 || diff > 0.005 {
			t.Errorf("%d shards: hit ratio %.4f vs core %.4f (diff %+.4f, tolerance ±0.005)",
				shards, hitRatio, simHitRatio, diff)
		}
	}
}

// kvMatchesCore replays keys get-or-set through the string-keyed KV at
// every shard count and fails t when its hit ratio strays more than one
// percentage point from the single-threaded reference simulator's. Every
// entry charges 24 bytes (16-byte key + 8-byte value), so objects
// entries fill the KV exactly as objects unit-size objects fill the core.
func kvMatchesCore(t *testing.T, keys []uint64, objects int) {
	t.Helper()
	simMisses := simulatorMisses(t, keys, uint64(objects))
	simHitRatio := 1 - float64(simMisses)/float64(len(keys))
	value := make([]byte, 8)
	const entryBytes = 16 + 8 // "%016x" key + value
	for _, shards := range []int{1, 4, 8, 16} {
		kv := NewKV(KVConfig{MaxBytes: uint64(objects) * entryBytes, Shards: shards})
		misses := 0
		for _, k := range keys {
			key := fmt.Sprintf("%016x", k)
			if _, ok := kv.Get(key); !ok {
				misses++
				kv.Set(key, value, 0)
			}
		}
		hitRatio := 1 - float64(misses)/float64(len(keys))
		if diff := hitRatio - simHitRatio; diff < -0.01 || diff > 0.01 {
			t.Errorf("%d shards: KV hit ratio %.4f vs core %.4f (diff %+.4f, tolerance ±0.01)",
				shards, hitRatio, simHitRatio, diff)
		}
	}
}

// TestKVHitRatioMatchesCore replays the same Zipf trace through the
// string-keyed KV and the single-threaded reference simulator. The KV
// adds byte accounting, real keys, and tombstone sweeping, none of which
// may change eviction quality.
func TestKVHitRatioMatchesCore(t *testing.T) {
	w := NewZipfWorkload(50000, 500000, 1.0, 8, 7)
	kvMatchesCore(t, w.Keys, 5000)
}

// TestKVHitRatioMatchesCoreOnChurn is the same check on churn-shaped
// traffic: a quarter of the requests are one-hit wonders and 5% are
// scans. Here the small queue turns over fast while the main queue is
// still short, so a ghost sized to |M| alone forgets keys the reference
// core (which sizes it to max(|M|, resident)) still remembers — a gap the
// pure-Zipf check above cannot see.
func TestKVHitRatioMatchesCoreOnChurn(t *testing.T) {
	tr := workload.Generate(workload.Config{
		Objects:        50000,
		Requests:       500000,
		Alpha:          0.9,
		OneHitFraction: 0.25,
		ScanFraction:   0.05,
	}, 7)
	keys := make([]uint64, len(tr))
	for i, r := range tr {
		keys[i] = r.ID
	}
	kvMatchesCore(t, keys, 5000)
}
