package cache

import (
	"sync"
	"sync/atomic"
	"testing"

	"s3fifo/internal/concurrent"
	"s3fifo/internal/core"
	"s3fifo/internal/policy"
)

// testEngines are the engines the facade's test suite runs over. The
// lock-free KV is what New builds; "policy" is the reference engine below
// — the paper's core S3-FIFO behind a mutex per shard, the engine the
// facade used to serve from. A facade behavior that holds on one and not
// the other is a bug in the facade's assumptions or in the KV.
var testEngines = []string{"concurrent", "policy"}

// withEngine pins cfg to one of testEngines.
func withEngine(cfg Config, engine string) Config {
	switch engine {
	case "concurrent":
		cfg.newStore = nil
	case "policy":
		cfg.newStore = newPolicyStore
	default:
		panic("unknown test engine " + engine)
	}
	return cfg
}

// forEachEngine runs fn as a subtest per engine: the facade (and the
// flash tier under it) must demote, promote, supersede, and recover
// identically on both.
func forEachEngine(t *testing.T, fn func(t *testing.T, engine string)) {
	for _, eng := range testEngines {
		t.Run("engine="+eng, func(t *testing.T) { fn(t, eng) })
	}
}

// policyStore is the reference engine: each shard pairs a core.S3FIFO
// with its own value map and mutex. Hits take the shard lock; the
// eviction hook runs under it, inside the policy's eviction callback.
type policyStore struct {
	shards    []*policyShard
	mask      uint64
	now       func() int64
	onEvict   func(key string, value []byte, size uint32, freq int, expiresAt int64)
	evictions atomic.Uint64
	expired   atomic.Uint64

	evictSmall atomic.Uint64
	evictMain  atomic.Uint64
	deletes    atomic.Uint64
	oversized  atomic.Uint64
}

type policyShard struct {
	mu      sync.Mutex
	pol     *core.S3FIFO
	entries map[string]*pentry // live values
	ids     map[uint64]string  // policy ID -> key
	st      *policyStore
}

type pentry struct {
	id        uint64
	value     []byte
	size      uint32
	expiresAt int64 // unix nanoseconds; 0 = no TTL
}

func newPolicyStore(cfg concurrent.KVConfig) store {
	nShards := cfg.Shards
	if nShards <= 0 {
		nShards = 16
	}
	// Round down to a power of two for cheap masking.
	for nShards&(nShards-1) != 0 {
		nShards &= nShards - 1
	}
	perShard := cfg.MaxBytes / uint64(nShards)
	if perShard == 0 {
		nShards = 1
		perShard = cfg.MaxBytes
	}
	ps := &policyStore{mask: uint64(nShards - 1), now: cfg.Now, onEvict: cfg.OnEvict}
	for i := 0; i < nShards; i++ {
		s := &policyShard{
			pol:     core.NewS3FIFO(perShard, core.Options{SmallRatio: cfg.SmallRatio}),
			entries: make(map[string]*pentry),
			ids:     make(map[uint64]string),
			st:      ps,
		}
		s.pol.SetObserver(s.evicted)
		ps.shards = append(ps.shards, s)
	}
	return ps
}

func (ps *policyStore) shardFor(key string) *policyShard {
	return ps.shards[hashString(key)&ps.mask]
}

func (s *policyShard) expired(e *pentry) bool {
	return expiredAt(e.expiresAt, s.st.now())
}

// evicted is the policy's eviction observer; it runs under the shard lock
// (the policy evicts only inside Request/Delete calls, which the shard
// serializes).
func (s *policyShard) evicted(ev policy.Eviction) {
	key, ok := s.ids[ev.Key]
	if !ok {
		return
	}
	e := s.entries[key]
	delete(s.ids, ev.Key)
	delete(s.entries, key)
	s.st.evictions.Add(1)
	if ev.Queue == policy.QueueSmall {
		s.st.evictSmall.Add(1)
	} else {
		s.st.evictMain.Add(1)
	}
	if s.st.onEvict != nil && e != nil {
		s.st.onEvict(key, e.value, ev.Size, ev.Freq, e.expiresAt)
	}
}

func (ps *policyStore) Get(key string) ([]byte, bool) {
	s := ps.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, false
	}
	if s.expired(e) {
		s.expireLocked(key, e)
		return nil, false
	}
	s.pol.Request(e.id, e.size) // resident: pure hit, no insertion
	return e.value, true
}

func (ps *policyStore) GetStale(key string) ([]byte, int64, bool) {
	s := ps.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return nil, 0, false
	}
	s.pol.Request(e.id, e.size)
	return e.value, e.expiresAt, true
}

func (ps *policyStore) Set(key string, value []byte, expiresAt int64) bool {
	s := ps.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.insertLocked(key, value, expiresAt)
}

func (ps *policyStore) Add(key string, value []byte, expiresAt int64) bool {
	s := ps.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		if !s.expired(e) {
			return false // resident wins over a promotion
		}
		s.expireLocked(key, e)
	}
	return s.insertLocked(key, value, expiresAt)
}

// insertLocked is the insertion path shared by Set and Add. The caller
// holds the shard lock.
func (s *policyShard) insertLocked(key string, value []byte, expiresAt int64) bool {
	size := entrySize(key, value)

	hadOld := false
	if e, ok := s.entries[key]; ok {
		if e.size == size {
			e.value = value
			e.expiresAt = expiresAt
			return true
		}
		s.pol.Delete(e.id)
		delete(s.ids, e.id)
		delete(s.entries, key)
		hadOld = true
	}

	// IDs are derived from the key so a re-inserted key presents the same
	// ID to the policy, which is what lets the ghost queue recognize it.
	id := hashString(key)
	if prev, ok := s.ids[id]; ok && prev != key {
		s.pol.Delete(id)
		delete(s.entries, prev)
		delete(s.ids, id)
	}
	s.entries[key] = &pentry{id: id, value: value, size: size, expiresAt: expiresAt}
	s.ids[id] = key
	s.pol.Request(id, size) // miss-insert; may evict others
	if !s.pol.Contains(id) {
		delete(s.ids, id)
		delete(s.entries, key)
		if hadOld {
			s.st.oversized.Add(1)
		}
		return false
	}
	return true
}

func (ps *policyStore) Delete(key string) bool {
	s := ps.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	s.pol.Delete(e.id)
	delete(s.ids, e.id)
	delete(s.entries, key)
	ps.deletes.Add(1)
	return true
}

func (ps *policyStore) Contains(key string) bool {
	s := ps.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return false
	}
	if s.expired(e) {
		s.expireLocked(key, e)
		return false
	}
	return true
}

// expireLocked removes an expired entry; the caller holds the shard lock.
func (s *policyShard) expireLocked(key string, e *pentry) {
	s.pol.Delete(e.id)
	delete(s.ids, e.id)
	delete(s.entries, key)
	s.st.expired.Add(1)
}

func (ps *policyStore) Len() int {
	n := 0
	for _, s := range ps.shards {
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

func (ps *policyStore) Used() uint64 {
	var n uint64
	for _, s := range ps.shards {
		s.mu.Lock()
		n += s.pol.Used()
		s.mu.Unlock()
	}
	return n
}

func (ps *policyStore) Capacity() uint64 {
	var n uint64
	for _, s := range ps.shards {
		n += s.pol.Capacity()
	}
	return n
}

func (ps *policyStore) Evictions() uint64      { return ps.evictions.Load() }
func (ps *policyStore) Expired() uint64        { return ps.expired.Load() }
func (ps *policyStore) EvictionsSmall() uint64 { return ps.evictSmall.Load() }
func (ps *policyStore) EvictionsMain() uint64  { return ps.evictMain.Load() }
func (ps *policyStore) Deletes() uint64        { return ps.deletes.Load() }
func (ps *policyStore) OversizedDrops() uint64 { return ps.oversized.Load() }

func (ps *policyStore) GhostReinserts() uint64 {
	var n uint64
	for _, s := range ps.shards {
		s.mu.Lock()
		n += s.pol.Stats().InsertedToMain
		s.mu.Unlock()
	}
	return n
}

func (ps *policyStore) Queues() concurrent.QueueStats {
	var qs concurrent.QueueStats
	for _, s := range ps.shards {
		s.mu.Lock()
		qs.SmallBytes += s.pol.SmallBytes()
		qs.MainBytes += s.pol.MainBytes()
		qs.SmallLen += s.pol.SmallLen()
		qs.MainLen += s.pol.MainLen()
		qs.GhostLen += s.pol.GhostLen()
		s.mu.Unlock()
	}
	return qs
}

// SampleHot reports an arbitrary slice of residency with Freq 0: the
// core keeps per-key frequency private.
func (ps *policyStore) SampleHot(max int) []concurrent.HotKey {
	if max <= 0 {
		return nil
	}
	out := make([]concurrent.HotKey, 0, max)
	for _, s := range ps.shards {
		s.mu.Lock()
		for key, e := range s.entries {
			if len(out) >= max {
				break
			}
			if !s.expired(e) {
				out = append(out, concurrent.HotKey{Key: key})
			}
		}
		s.mu.Unlock()
	}
	return out
}

// SnapshotMeta exports entries (value, TTL) as main-queue residents with
// Freq 0 and no ghost records: the core owns its queue structure and
// access history privately. This is exactly what the snapshots under
// testdata hold.
func (ps *policyStore) SnapshotMeta(fn func(concurrent.MetaRecord) bool) {
	for _, s := range ps.shards {
		s.mu.Lock()
		for key, e := range s.entries {
			if s.expired(e) {
				continue
			}
			if !fn(concurrent.MetaRecord{Key: key, Value: e.value, ExpiresAt: e.expiresAt, Main: true}) {
				s.mu.Unlock()
				return
			}
		}
		s.mu.Unlock()
	}
}

// RestoreMeta re-inserts entries in stream order and drops ghost records.
// Entries with proven reuse (main-queue residents or Freq > 0) replay one
// access so the first eviction scan does not treat them as one-hit
// wonders.
func (ps *policyStore) RestoreMeta(next func() (concurrent.MetaRecord, bool)) {
	for {
		rec, ok := next()
		if !ok {
			return
		}
		if rec.Ghost {
			continue
		}
		s := ps.shardFor(rec.Key)
		s.mu.Lock()
		if s.insertLocked(rec.Key, rec.Value, rec.ExpiresAt) && (rec.Main || rec.Freq > 0) {
			if e, resident := s.entries[rec.Key]; resident {
				s.pol.Request(e.id, e.size)
			}
		}
		s.mu.Unlock()
	}
}
