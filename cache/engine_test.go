package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"s3fifo/internal/concurrent"
)

// TestEngineBasics runs the facade's core behaviors on every engine.
func TestEngineBasics(t *testing.T) {
	for _, eng := range testEngines {
		t.Run(eng, func(t *testing.T) {
			c := mustNew(t, withEngine(Config{MaxBytes: 1 << 20, Shards: 4}, eng))
			if !c.Set("a", []byte("alpha")) {
				t.Fatal("Set rejected")
			}
			if v, ok := c.Get("a"); !ok || string(v) != "alpha" {
				t.Fatalf("Get = %q, %v", v, ok)
			}
			if _, ok := c.Get("missing"); ok {
				t.Fatal("phantom hit")
			}
			if !c.Contains("a") || c.Contains("missing") {
				t.Fatal("Contains wrong")
			}
			c.Set("a", []byte("beta!")) // same size
			if v, _ := c.Get("a"); string(v) != "beta!" {
				t.Fatalf("overwrite lost: %q", v)
			}
			c.Delete("a")
			if _, ok := c.Get("a"); ok {
				t.Fatal("deleted key served")
			}
			if c.Len() != 0 {
				t.Fatalf("Len = %d", c.Len())
			}
			st := c.Stats()
			if st.Hits != 2 || st.Misses != 2 || st.Sets != 2 {
				t.Fatalf("stats = %+v", st)
			}
			if c.Capacity() == 0 || c.Used() != 0 {
				t.Fatalf("capacity %d used %d", c.Capacity(), c.Used())
			}
		})
	}
}

// TestEngineTTL runs the TTL contract on every engine: lazy expiry, the
// strict boundary (still valid at the exact expiry instant), and plain
// Set clearing the TTL.
func TestEngineTTL(t *testing.T) {
	for _, eng := range testEngines {
		t.Run(eng, func(t *testing.T) {
			clock := withFakeClock(t)
			c := mustNew(t, withEngine(Config{MaxBytes: 1 << 16}, eng))
			c.SetWithTTL("k", []byte("v"), time.Minute)
			*clock = clock.Add(time.Minute)
			if _, ok := c.Get("k"); !ok {
				t.Error("entry at exact TTL boundary should still serve")
			}
			*clock = clock.Add(time.Nanosecond)
			if _, ok := c.Get("k"); ok {
				t.Error("expired entry served")
			}
			if st := c.Stats(); st.Expired != 1 {
				t.Errorf("Expired = %d, want 1", st.Expired)
			}
			c.SetWithTTL("k2", []byte("v"), time.Minute)
			c.Set("k2", []byte("w")) // plain Set clears the TTL
			*clock = clock.Add(time.Hour)
			if _, ok := c.Get("k2"); !ok {
				t.Error("plain Set did not clear TTL")
			}
		})
	}
}

// TestEngineSnapshotRoundTrip saves from each engine and restores into
// the other: the snapshot format is engine-independent.
func TestEngineSnapshotRoundTrip(t *testing.T) {
	for i, from := range testEngines {
		to := testEngines[(i+1)%len(testEngines)]
		t.Run(from+"-to-"+to, func(t *testing.T) {
			src := mustNew(t, withEngine(Config{MaxBytes: 1 << 20}, from))
			for i := 0; i < 200; i++ {
				src.Set(fmt.Sprintf("k%03d", i), []byte(fmt.Sprintf("v%03d", i)))
			}
			var buf bytes.Buffer
			if err := src.Save(&buf); err != nil {
				t.Fatalf("Save: %v", err)
			}
			dst, err := Load(&buf, withEngine(Config{MaxBytes: 1 << 20}, to))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			if _, ref := dst.kv.(*policyStore); ref != (to == "policy") {
				t.Fatalf("restored into %T, want the %s engine", dst.kv, to)
			}
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%03d", i)
				if v, ok := dst.Get(k); !ok || string(v) != fmt.Sprintf("v%03d", i) {
					t.Fatalf("restored Get(%q) = %q, %v", k, v, ok)
				}
			}
		})
	}
}

// TestCrossEngineHitRatio holds the facade's engine to the reference: the
// same Zipf trace, replayed get-or-set through the lock-free KV and the
// mutex-guarded core S3-FIFO at identical capacity, must produce hit
// ratios within one percentage point. The engines shard differently and
// the KV sweeps tombstones lazily, but eviction *quality* must match.
func TestCrossEngineHitRatio(t *testing.T) {
	w := concurrent.NewZipfWorkload(50000, 300000, 1.0, 8, 11)
	const entryBytes = 16 + 8 // "%016x" key + 8-byte value
	const capacity = 5000 * entryBytes
	ratios := map[string]float64{}
	for _, eng := range testEngines {
		c := mustNew(t, withEngine(Config{MaxBytes: capacity, Shards: 4}, eng))
		misses := 0
		for _, k := range w.Keys {
			key := fmt.Sprintf("%016x", k)
			if _, ok := c.Get(key); !ok {
				misses++
				c.Set(key, w.Value)
			}
		}
		ratios[eng] = 1 - float64(misses)/float64(len(w.Keys))
		st := c.Stats()
		if st.Hits+st.Misses != uint64(len(w.Keys)) {
			t.Errorf("%s: hits %d + misses %d != %d requests", eng, st.Hits, st.Misses, len(w.Keys))
		}
	}
	t.Logf("hit ratios: %v", ratios)
	if diff := ratios["policy"] - ratios["concurrent"]; diff < -0.01 || diff > 0.01 {
		t.Errorf("engines disagree: policy %.4f vs concurrent %.4f (diff %+.4f, tolerance ±0.01)",
			ratios["policy"], ratios["concurrent"], diff)
	}
}

// TestOnEvictReentrancy: Config.OnEvict documents that callbacks are
// delivered with no cache or engine locks held, so calling back into the
// cache from inside the callback must not deadlock on either engine.
func TestOnEvictReentrancy(t *testing.T) {
	for _, eng := range testEngines {
		t.Run(eng, func(t *testing.T) {
			var c *Cache
			var mu sync.Mutex
			calls := 0
			cfg := withEngine(Config{
				MaxBytes: 4 << 10,
				Shards:   1,
				OnEvict: func(key string, value []byte) {
					mu.Lock()
					calls++
					n := calls
					mu.Unlock()
					// Reentrant use of every public entry point that could
					// touch the engine's locks.
					c.Get(key)
					if n <= 3 {
						c.Set("reentrant-"+key, value)
					}
					c.Delete("never-present")
					c.Len()
				},
			}, eng)
			var err error
			c, err = New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			val := make([]byte, 200)
			done := make(chan struct{})
			go func() {
				defer close(done)
				for i := 0; i < 200; i++ {
					c.Set(fmt.Sprintf("k%03d", i), val)
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("OnEvict reentrancy deadlocked")
			}
			mu.Lock()
			defer mu.Unlock()
			if calls == 0 {
				t.Fatal("flood fired no OnEvict callbacks")
			}
		})
	}
}
