// Breaker tests: drive the second tier through injected I/O faults and
// check that the facade degrades to DRAM-only serving instead of
// surfacing errors, then restores cleanly when the faults lift. Every
// test runs against each Tier implementation that can fail on demand —
// the flash store and the file tier over a faultfs.Injector, and the
// in-memory mock tier — because the breaker is generic over the Tier
// interface and must behave identically above all of them.
package cache

import (
	"fmt"
	"testing"
	"time"

	"s3fifo/internal/faultfs"
)

// faultTier is one breaker-test fixture: a way to configure cfg with a
// tier whose I/O can be broken and healed mid-test.
type faultTier struct {
	name  string
	setup func(t *testing.T, cfg *Config) (breakIO, healIO func())
}

func faultTiers() []faultTier {
	injected := func(kind string) func(t *testing.T, cfg *Config) (func(), func()) {
		return func(t *testing.T, cfg *Config) (func(), func()) {
			inj := faultfs.New(faultfs.OS(), 1)
			cfg.Tier = kind
			cfg.FlashDir = t.TempDir()
			cfg.FlashBytes = 1 << 20
			cfg.FlashSegmentBytes = 16 << 10
			cfg.FlashFS = inj
			breakIO := func() {
				inj.FailAfter(faultfs.OpWrite, 0)
				inj.FailAfter(faultfs.OpSync, 0)
			}
			return breakIO, inj.Clear
		}
	}
	return []faultTier{
		{name: "flash", setup: injected("flash")},
		{name: "file", setup: injected("file")},
		{name: "mock", setup: func(t *testing.T, cfg *Config) (func(), func()) {
			mt := newMockTier()
			cfg.SecondTier = mt
			return mt.fail, mt.heal
		}},
	}
}

// forEachFaultTier runs fn as a subtest per fixture.
func forEachFaultTier(t *testing.T, fn func(t *testing.T, ft faultTier)) {
	for _, ft := range faultTiers() {
		ft := ft
		t.Run("tier="+ft.name, func(t *testing.T) { fn(t, ft) })
	}
}

// newFaultedCache builds a small single-shard cache over the fixture's
// tier: 4 KiB of DRAM and 512-byte values, so a handful of Sets forces
// demotions through the second tier.
func newFaultedCache(t *testing.T, ft faultTier, cfg Config) (*Cache, func(), func()) {
	t.Helper()
	cfg.MaxBytes = 4 << 10
	cfg.Shards = 1
	breakIO, healIO := ft.setup(t, &cfg)
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c, breakIO, healIO
}

// fill drives n Sets of 512-byte values through the cache; with 4 KiB of
// DRAM anything past the first few evicts and therefore demotes.
func fill(t *testing.T, c *Cache, prefix string, n int) {
	t.Helper()
	val := make([]byte, 512)
	for i := 0; i < n; i++ {
		if !c.Set(fmt.Sprintf("%s-%d", prefix, i), val) {
			t.Fatalf("Set(%s-%d) rejected", prefix, i)
		}
	}
}

// waitFor polls cond for up to 5s; the breaker's restore runs on a
// background goroutine, so tests observe it asynchronously.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestBreakerTripsToDRAMOnly(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		c, breakIO, _ := newFaultedCache(t, ft, Config{
			FlashBreakerThreshold: 3,
			FlashRetryMin:         time.Hour, // no restore during this test
		})
		fill(t, c, "warm", 32)
		if st := c.Stats(); st.Demotions == 0 {
			t.Fatalf("no demotions after warmup: %+v", st)
		}

		// Kill the backend: every write and sync fails from here on.
		breakIO()
		fill(t, c, "sick", 32) // never surfaces an error to the caller
		st := c.Stats()
		if !st.FlashDegraded || st.FlashBreakerTrips != 1 {
			t.Fatalf("breaker did not trip: %+v", st)
		}
		if st.FlashErrors < 3 {
			t.Fatalf("FlashErrors = %d, want >= threshold", st.FlashErrors)
		}

		// Degraded serving: DRAM hits keep working, tier reads are
		// bypassed, further demotions are dropped and counted.
		if _, ok := c.Get("sick-31"); !ok {
			t.Fatal("DRAM-resident key unreadable while degraded")
		}
		if _, ok := c.Get("warm-0"); ok {
			t.Fatal("tier read served while degraded")
		}
		dropped := c.Stats().DemotionsDegraded
		fill(t, c, "more", 8)
		if got := c.Stats().DemotionsDegraded; got <= dropped {
			t.Fatalf("DemotionsDegraded stuck at %d while degraded", got)
		}
		// The trip is latched: more errors don't re-trip.
		if got := c.Stats().FlashBreakerTrips; got != 1 {
			t.Fatalf("FlashBreakerTrips = %d, want 1", got)
		}
	})
}

func TestBreakerRestoresAndResumesDemotion(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		c, breakIO, healIO := newFaultedCache(t, ft, Config{
			FlashBreakerThreshold: 3,
			FlashRetryMin:         time.Millisecond,
			FlashRetryMax:         5 * time.Millisecond,
		})
		fill(t, c, "warm", 32)

		breakIO()
		fill(t, c, "sick", 32)
		if !c.FlashDegraded() {
			t.Fatal("breaker did not trip")
		}

		healIO()
		waitFor(t, "breaker restore", func() bool { return !c.FlashDegraded() })
		st := c.Stats()
		if st.FlashBreakerRestores != 1 {
			t.Fatalf("FlashBreakerRestores = %d, want 1", st.FlashBreakerRestores)
		}

		// Demotions flow to the tier again.
		before := st.Demotions
		fill(t, c, "healed", 32)
		waitFor(t, "demotions to resume", func() bool { return c.Stats().Demotions > before })
	})
}

// TestNoStaleServeAcrossOutage is the consistency half of the breaker: a
// key superseded while the circuit was open must not be served from its
// stale tier copy after restore.
func TestNoStaleServeAcrossOutage(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		c, breakIO, healIO := newFaultedCache(t, ft, Config{
			FlashBreakerThreshold: 3,
			FlashRetryMin:         time.Millisecond,
			FlashRetryMax:         5 * time.Millisecond,
		})
		c.Set("victim", []byte("stale"))
		fill(t, c, "warm", 32) // push victim out of DRAM and onto the tier
		if c.kv.Contains("victim") {
			t.Skip("victim still DRAM-resident; eviction order changed")
		}
		if !c.tier.t.Contains("victim") {
			t.Fatalf("victim not demoted to the tier")
		}

		breakIO()
		fill(t, c, "sick", 32)
		if !c.FlashDegraded() {
			t.Fatal("breaker did not trip")
		}

		// Supersede the tier copy while the backend is down, then evict
		// the new value from DRAM too (the demotion is dropped — tier
		// degraded).
		c.Delete("victim")
		if _, ok := c.Get("victim"); ok {
			t.Fatal("deleted key served while degraded")
		}

		healIO()
		waitFor(t, "breaker restore", func() bool { return !c.FlashDegraded() })
		if v, ok := c.Get("victim"); ok {
			t.Fatalf("stale tier copy %q served after restore", v)
		}
		if c.tier.t.Contains("victim") {
			t.Fatal("restore sweep left the superseded tier copy indexed")
		}
	})
}

func TestBreakerDisabled(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		c, breakIO, healIO := newFaultedCache(t, ft, Config{FlashBreakerThreshold: -1})
		fill(t, c, "warm", 32)
		breakIO()
		fill(t, c, "sick", 64) // still no client-visible errors
		st := c.Stats()
		if st.FlashDegraded || st.FlashBreakerTrips != 0 {
			t.Fatalf("disabled breaker tripped: %+v", st)
		}
		if st.FlashErrors == 0 {
			t.Fatal("errors not counted with breaker disabled")
		}
		// A healthy write resets the consecutive count; serving continues.
		healIO()
		fill(t, c, "healed", 8)
		if c.FlashDegraded() {
			t.Fatal("degraded after faults lifted with breaker disabled")
		}
	})
}

// TestCloseWhileDegraded checks shutdown ordering: Close must stop the
// background prober before closing the tier it probes, even while the
// backend is still failing.
func TestCloseWhileDegraded(t *testing.T) {
	forEachFaultTier(t, func(t *testing.T, ft faultTier) {
		cfg := Config{
			MaxBytes:              4 << 10,
			Shards:                1,
			FlashBreakerThreshold: 3,
			FlashRetryMin:         time.Millisecond,
			FlashRetryMax:         2 * time.Millisecond,
		}
		breakIO, _ := ft.setup(t, &cfg)
		c, err := New(cfg)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		fill(t, c, "warm", 32)
		breakIO()
		fill(t, c, "sick", 32)
		if !c.FlashDegraded() {
			t.Fatal("breaker did not trip")
		}
		done := make(chan error, 1)
		go func() { done <- c.Close() }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Close hung waiting for the prober")
		}
	})
}
