package cache

import (
	"fmt"
	"testing"
	"time"
)

// These tests pin the one TTL boundary rule (expiredAt, ttl.go) across
// the layers that judge freshness, under a fixed clock: the facade's
// double-check on second-tier reads, the demotion filter at eviction
// time, and the negative-tombstone table. The mock tier deliberately
// does NOT judge expiry itself — like a backend with a skewed clock —
// so any serve of an expired value here is the facade's fault.

// TestExpiryBoundaryTierDoubleCheck: a key that expired while its
// demoted copy sat in the second tier must never be served from that
// tier, even though the tier itself would happily return it. At the
// exact deadline the strict boundary still serves (and promotes); one
// nanosecond later nothing does.
func TestExpiryBoundaryTierDoubleCheck(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng string) {
		clock := withFakeClock(t)
		mt := newMockTier()
		c := mustNew(t, withEngine(Config{MaxBytes: 1 << 16, Shards: 1, SecondTier: mt}, eng))
		defer c.Close()

		deadline := clock.Add(time.Minute).UnixNano()
		// Stand-in for a demotion that completed while the key was fresh:
		// the tier copy carries the original deadline, DRAM holds nothing.
		mt.Put("boundary", []byte("v"), deadline)
		mt.Put("dead", []byte("v"), deadline)

		*clock = clock.Add(time.Minute) // exactly at the deadline
		if v, ok := c.Get("boundary"); !ok || string(v) != "v" {
			t.Fatalf("tier copy at exact deadline: %q, %v (boundary must be strict)", v, ok)
		}
		*clock = clock.Add(time.Nanosecond)
		// The promoted DRAM copy carries the same deadline and must now be
		// judged expired by the engine...
		if _, ok := c.Get("boundary"); ok {
			t.Fatal("promoted copy served past its deadline")
		}
		// ...and the tier-only copy must be rejected by the facade's
		// double-check even though the mock tier returned it.
		before := mt.Stats().Hits
		if _, ok := c.Get("dead"); ok {
			t.Fatal("expired tier copy served through the facade")
		}
		if mt.Stats().Hits == before {
			t.Fatal("tier never consulted: the double-check was not exercised")
		}
		// The grace window applies to resident stale entries only — GetEx
		// must not resurrect an expired tier copy as a stale serve.
		if _, st := c.GetEx("dead", time.Hour); st != LookupMiss {
			t.Fatalf("GetEx on expired tier copy: %v, want LookupMiss", st)
		}
	})
}

// TestExpiryBoundaryExpiredNeverDemoted: an entry whose TTL passed
// while resident is dead weight at eviction time — it must be dropped,
// never written to the second tier (where it would waste a device write
// and linger as an expired copy).
func TestExpiryBoundaryExpiredNeverDemoted(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng string) {
		clock := withFakeClock(t)
		mt := newMockTier()
		c := mustNew(t, withEngine(Config{MaxBytes: 2 << 10, Shards: 1, SecondTier: mt}, eng))
		defer c.Close()

		if !c.SetWithTTL("victim", val(1), time.Minute) {
			t.Fatal("SetWithTTL rejected")
		}
		*clock = clock.Add(2 * time.Minute) // expire while resident
		for i := 0; i < 100; i++ {          // force victim's eviction
			c.Set(fmt.Sprintf("fill-%03d", i), val(i))
		}
		if c.Stats().Evictions == 0 {
			t.Fatal("fill never forced an eviction; the test exercised nothing")
		}
		if mt.Contains("victim") {
			t.Fatal("expired victim was demoted to the second tier")
		}
	})
}

// TestExpiryBoundaryNegativeNeverDemotes: negative tombstones live in
// the facade's side table, outside the eviction queues — no amount of
// DRAM pressure may push one into the second tier, and answering from
// one costs no tier I/O.
func TestExpiryBoundaryNegativeNeverDemotes(t *testing.T) {
	forEachEngine(t, func(t *testing.T, eng string) {
		clock := withFakeClock(t)
		mt := newMockTier()
		c := mustNew(t, withEngine(Config{MaxBytes: 2 << 10, Shards: 1, SecondTier: mt}, eng))
		defer c.Close()

		c.SetNegative("gone", time.Minute)
		for i := 0; i < 100; i++ {
			c.Set(fmt.Sprintf("fill-%03d", i), val(i))
		}
		if mt.Contains("gone") {
			t.Fatal("negative tombstone reached the second tier")
		}
		tierIO := mt.Stats()
		if _, st := c.GetEx("gone", 0); st != LookupNegative {
			t.Fatalf("GetEx on tombstoned key: %v, want LookupNegative", st)
		}
		after := mt.Stats()
		if after.Hits != tierIO.Hits || after.Misses != tierIO.Misses {
			t.Fatal("negative answer cost a tier read")
		}
		// Past the tombstone's TTL the key is an ordinary miss again (and
		// the tier gets consulted once more).
		*clock = clock.Add(2 * time.Minute)
		if _, st := c.GetEx("gone", 0); st != LookupMiss {
			t.Fatalf("GetEx past tombstone TTL: %v, want LookupMiss", st)
		}
		if mt.Stats().Misses == after.Misses {
			t.Fatal("tier not consulted after the tombstone expired")
		}
	})
}
