package concurrent

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/internal/ghost"
	"s3fifo/internal/lockfree"
)

// KV is the serving-stack variant of the concurrent S3-FIFO: the same
// lock-free hit path and sharded miss path as S3FIFO, extended with what
// a real cache server needs and a benchmark stand-in does not:
//
//   - Real string keys. The index is still keyed by a 64-bit hash, but
//     each entry stores its key and Get verifies it, so a hash collision
//     can never serve another key's value.
//   - Byte-accounted capacity: entries charge len(key)+len(value) against
//     a per-shard byte budget, and the small/main split is in bytes.
//   - Lazy TTL expiry against an injectable clock.
//   - An eviction hook (OnEvict) observing every true eviction with the
//     entry's frequency-at-eviction — the demotion point a flash tier
//     hangs off — plus Delete that reports whether the key existed.
//
// Concurrency discipline is unchanged from S3FIFO: hits are lock-free
// (hash lookup + capped atomic frequency bump), misses serialize on the
// owning queue shard's mutex, deletes tombstone and are swept in batch.
// One exception: when an eviction hook is configured, overwrites and
// deletes also serialize on the shard mutex. The hook runs under that
// mutex, and a caller that supersedes a value (re-Set, Delete) must not
// be able to overtake an in-flight hook call for the same key — the
// cache facade orders its flash-tier tombstone after the hook's demotion
// write by exactly this serialization (see cache/tiered.go).
type KV struct {
	capacity  uint64
	index     *shardedIndex[*kentry]
	shards    []*kvShard
	shardMask uint64
	now       func() int64
	onEvict   func(key string, value []byte, size uint32, freq int, expiresAt int64)

	evictions atomic.Uint64
	expired   atomic.Uint64

	// Eviction-flow accounting (see cache.EngineCounters): which Algorithm 1
	// branch each removal or reinsertion took. Bumped under the shard mutex
	// (or on the uncontended Delete path), so plain atomic adds suffice.
	evictSmall     atomic.Uint64
	evictMain      atomic.Uint64
	ghostReinserts atomic.Uint64
	deletes        atomic.Uint64
	oversized      atomic.Uint64
}

// KVConfig configures NewKV.
type KVConfig struct {
	// MaxBytes is the total capacity, charging len(key)+len(value) per
	// entry. Required (a zero capacity is clamped to one byte).
	MaxBytes uint64
	// Shards is the queue shard count (rounded up to a power of two,
	// capped at 64). <= 0 picks a default from GOMAXPROCS, shrunk until
	// every shard holds a meaningful byte budget.
	Shards int
	// SmallRatio is the small-queue fraction of each shard (default 0.10).
	SmallRatio float64
	// Now returns the current time in unix nanoseconds; nil uses the real
	// clock. Indirected so the cache facade's fake-clock tests drive TTL.
	Now func() int64
	// OnEvict, when set, observes every eviction (not deletes, not
	// overwrites) with the entry's frequency at eviction. It runs with the
	// owning shard's mutex held: keep it short, and never call back into
	// the KV from inside it. With a hook set, a miss evicts only what the
	// incoming entry needs instead of a batch.
	OnEvict func(key string, value []byte, size uint32, freq int, expiresAt int64)
}

// kvShard is one independent slice of the cache: its own byte budget,
// queues, ghost, and miss-path mutex.
type kvShard struct {
	mu          sync.Mutex // guards the queues, the ghost, and tombstones
	capacity    uint64
	smallTarget uint64
	small       kvRing
	main        kvRing
	ghost       *ghost.Queue
	// ghostSizedFor is the population the ghost was last sized to;
	// Resize runs only when the current one drifts ≥1/8 from it.
	ghostSizedFor int
	// pending carries tombstone hints from the lock-free Delete path to
	// the next lock holder; tombstones counts drained hints not yet swept.
	pending    *lockfree.Ring
	tombstones int
	sweepAt    int
	// evictSlack is the batch-eviction watermark: eviction overshoots by
	// this many bytes so the following inserts skip the scan. Zero with
	// an eviction hook: each hooked eviction (a second-tier demotion)
	// runs under the shard mutex on the inserting caller's time, so a
	// batch would stall one Set behind many demotions.
	evictSlack uint64
	used       atomic.Int64 // resident bytes owned by this shard
	live       atomic.Int64 // resident (non-dead) entries owned by this shard
}

type kentry struct {
	hash    uint64
	key     string
	size    uint32
	value   atomic.Pointer[[]byte] // replaced atomically so lock-free readers never race
	expires atomic.Int64           // unix nanoseconds; 0 = no TTL
	freq    atomic.Int32
	dead    atomic.Bool // deleted or superseded; skipped at eviction scan
	// val backs the initial value pointer so a fresh insert costs a single
	// allocation; in-place replacements allocate a new slice header.
	val []byte
}

// kvRing is a slice-backed FIFO of entries with byte accounting, guarded
// by the shard mutex.
type kvRing struct {
	buf   []*kentry
	head  int
	bytes uint64 // total size of queued entries, dead ones included
}

func (q *kvRing) push(e *kentry) {
	q.buf = append(q.buf, e)
	q.bytes += uint64(e.size)
}

func (q *kvRing) pop() *kentry {
	if q.head >= len(q.buf) {
		return nil
	}
	e := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	q.bytes -= uint64(e.size)
	if q.head > 1024 && q.head*2 > len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	return e
}

func (q *kvRing) len() int { return len(q.buf) - q.head }

// sweep removes tombstoned entries in one pass, preserving FIFO order.
func (q *kvRing) sweep() {
	w := q.head
	for i := q.head; i < len(q.buf); i++ {
		if e := q.buf[i]; !e.dead.Load() {
			q.buf[w] = e
			w++
		} else {
			q.bytes -= uint64(e.size)
		}
	}
	for i := w; i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf = q.buf[:w]
}

// minShardBytes keeps automatically chosen shards large enough that the
// per-shard small/main split stays meaningful.
const minShardBytes = 4096

// NewKV returns a concurrent string-keyed S3-FIFO.
func NewKV(cfg KVConfig) *KV {
	capacity := cfg.MaxBytes
	if capacity == 0 {
		capacity = 1
	}
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n < 8 {
			n = 8
		}
	}
	p := 1
	for p < n && p < maxShards {
		p <<= 1
	}
	n = p
	if cfg.Shards <= 0 {
		for n > 1 && capacity/uint64(n) < minShardBytes {
			n >>= 1
		}
	}
	for n > 1 && capacity/uint64(n) < 1 {
		n >>= 1
	}
	ratio := cfg.SmallRatio
	if ratio <= 0 || ratio >= 1 {
		ratio = 0.10
	}
	nowFn := cfg.Now
	if nowFn == nil {
		nowFn = func() int64 { return time.Now().UnixNano() }
	}
	kv := &KV{
		capacity:  capacity,
		index:     newShardedIndex[*kentry](),
		shards:    make([]*kvShard, n),
		shardMask: uint64(n - 1),
		now:       nowFn,
		onEvict:   cfg.OnEvict,
	}
	base, extra := capacity/uint64(n), capacity%uint64(n)
	for i := range kv.shards {
		c := base
		if uint64(i) < extra {
			c++
		}
		st := uint64(float64(c) * ratio)
		if st < 1 {
			st = 1
		}
		slack := c / 16
		if cfg.OnEvict != nil {
			slack = 0
		}
		kv.shards[i] = &kvShard{
			capacity:    c,
			smallTarget: st,
			ghost:       ghost.New(16),
			pending:     lockfree.NewRing(pendingRingCap),
			sweepAt:     64,
			evictSlack:  slack,
		}
	}
	return kv
}

// Name returns the implementation name.
func (c *KV) Name() string { return "concurrent" }

// Shards returns the queue shard count.
func (c *KV) Shards() int { return len(c.shards) }

// hashKV is FNV-1a over the key bytes; the index and queue shards apply
// mix64 on top, so sequential keys spread over both.
func hashKV(key string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

func (c *KV) shardOf(hash uint64) *kvShard {
	return c.shards[mix64(hash)&c.shardMask]
}

// kvEntrySize is the charged size of an entry.
func kvEntrySize(key string, value []byte) uint32 {
	n := len(key) + len(value)
	if n < 1 {
		n = 1
	}
	if n > 1<<31 {
		n = 1 << 31
	}
	return uint32(n)
}

// usedBytes reads the shard's resident bytes, clamping the transient
// negative readings that the lock-free retire path can produce (an entry
// retired between index publication and queue insertion is debited
// before it is credited).
func (s *kvShard) usedBytes() uint64 {
	u := s.used.Load()
	if u < 0 {
		return 0
	}
	return uint64(u)
}

// Get is the lock-free hit path: hash lookup, key verification, lazy TTL
// check, capped atomic frequency bump.
func (c *KV) Get(key string) ([]byte, bool) {
	h := hashKV(key)
	e, ok := c.index.get(h)
	if !ok || e.dead.Load() || e.key != key {
		return nil, false
	}
	if exp := e.expires.Load(); exp != 0 && c.now() > exp {
		c.expire(e)
		return nil, false
	}
	v := e.value.Load()
	for {
		f := e.freq.Load()
		if f >= ccMaxFreq {
			break
		}
		if e.freq.CompareAndSwap(f, f+1) {
			break
		}
	}
	return *v, true
}

// GetStale returns key's resident value and absolute expiry (0 = no TTL)
// without the lazy TTL reap: an expired entry is returned as-is, so the
// stale-while-revalidate path can serve it while a lease holder refills.
// The frequency bump matches Get — a stale serve is still evidence of
// reuse, and the refill lands as an in-place replacement of this entry.
func (c *KV) GetStale(key string) ([]byte, int64, bool) {
	h := hashKV(key)
	e, ok := c.index.get(h)
	if !ok || e.dead.Load() || e.key != key {
		return nil, 0, false
	}
	v := e.value.Load()
	exp := e.expires.Load()
	for {
		f := e.freq.Load()
		if f >= ccMaxFreq {
			break
		}
		if e.freq.CompareAndSwap(f, f+1) {
			break
		}
	}
	return *v, exp, true
}

// Contains reports whether key is resident and unexpired, without
// touching its frequency.
func (c *KV) Contains(key string) bool {
	h := hashKV(key)
	e, ok := c.index.get(h)
	if !ok || e.dead.Load() || e.key != key {
		return false
	}
	if exp := e.expires.Load(); exp != 0 && c.now() > exp {
		c.expire(e)
		return false
	}
	return true
}

// Set inserts or replaces the value for key. It returns false when the
// entry is larger than its shard's capacity (the stale copy, if any, is
// dropped so the caller can never read the old value back).
func (c *KV) Set(key string, value []byte, expiresAt int64) bool {
	h := hashKV(key)
	s := c.shardOf(h)
	size := kvEntrySize(key, value)
	if uint64(size) > s.capacity {
		if e, ok := c.index.get(h); ok && e.key == key {
			if c.retire(e) {
				c.oversized.Add(1)
			}
		}
		return false
	}
	e := &kentry{hash: h, key: key, size: size, val: value}
	e.value.Store(&e.val)
	e.expires.Store(expiresAt)
	for {
		old, loaded := c.index.putIfAbsent(h, e)
		if !loaded {
			break // we own the insertion
		}
		if c.onEvict == nil && !old.dead.Load() && old.key == key && old.size == size {
			// Same key, same charge: replace in place, lock-free. The
			// replacement is logically a new object: it re-earns its
			// reinsertion instead of inheriting the old value's popularity.
			// With an eviction hook this shortcut is disabled — overwrites
			// must serialize on the shard mutex so they cannot overtake an
			// in-flight hook call (demotion) for the old value.
			v := value
			old.value.Store(&v)
			old.expires.Store(expiresAt)
			old.freq.Store(0)
			return true
		}
		// Dead (mid-eviction), a hash collision with another key, a size
		// change, or a hooked overwrite: retire the old mapping and insert
		// fresh through the locked path.
		c.retire(old)
		c.index.deleteIf(h, old) // clear a mapping retired by a racing caller
	}
	s.mu.Lock()
	s.insertLocked(c, e)
	s.mu.Unlock()
	return true
}

// Add inserts value only if key is not resident (the flash-promotion
// path: a concurrent Set must win over a stale promote). It returns
// whether the insert happened.
func (c *KV) Add(key string, value []byte, expiresAt int64) bool {
	h := hashKV(key)
	s := c.shardOf(h)
	size := kvEntrySize(key, value)
	if uint64(size) > s.capacity {
		return false
	}
	e := &kentry{hash: h, key: key, size: size, val: value}
	e.value.Store(&e.val)
	e.expires.Store(expiresAt)
	for {
		old, loaded := c.index.putIfAbsent(h, e)
		if !loaded {
			break
		}
		if !old.dead.Load() {
			// Resident — or a live hash collision with another key, which
			// keeps its slot: Add is best-effort by contract.
			return false
		}
		c.index.deleteIf(h, old)
	}
	s.mu.Lock()
	s.insertLocked(c, e)
	s.mu.Unlock()
	return true
}

// Delete removes key if present and reports whether it was. Without an
// eviction hook it takes no locks (tombstone + lazy sweep, as in S3FIFO);
// with one it serializes on the shard mutex so it cannot overtake an
// in-flight hook call for the same key.
func (c *KV) Delete(key string) bool {
	h := hashKV(key)
	e, ok := c.index.get(h)
	if !ok || e.key != key {
		return false
	}
	if c.onEvict == nil {
		if c.retire(e) {
			c.deletes.Add(1)
			return true
		}
		return false
	}
	s := c.shardOf(h)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.retire(e) {
		c.deletes.Add(1)
		return true
	}
	return false
}

// retire kills e (delete or supersession): the index mapping is cleared
// and the queue slot tombstoned, to be reclaimed when an eviction scan
// reaches it or a batched sweep collects it. Reports whether this caller
// won the kill race.
func (c *KV) retire(e *kentry) bool {
	if e.dead.Swap(true) {
		return false
	}
	c.index.deleteIf(e.hash, e)
	s := c.shardOf(e.hash)
	s.used.Add(-int64(e.size))
	s.live.Add(-1)
	s.pending.TryPush(e.hash)
	return true
}

// expire retires a TTL-expired entry, counting it as an expiry rather
// than an eviction. The eviction hook is not called: expiry is not a
// demotion point (the flash tier tracks TTLs itself).
func (c *KV) expire(e *kentry) {
	if c.retire(e) {
		c.expired.Add(1)
	}
}

// insertLocked places e into its queue and charges its size. The caller
// holds the shard mutex.
func (s *kvShard) insertLocked(c *KV, e *kentry) {
	s.drainPendingLocked()
	if s.usedBytes()+uint64(e.size) > s.capacity {
		s.evictLocked(c, uint64(e.size))
	}
	if s.ghost.Contains(e.hash) {
		s.ghost.Remove(e.hash)
		s.main.push(e)
		c.ghostReinserts.Add(1)
	} else {
		s.small.push(e)
	}
	s.used.Add(int64(e.size))
	s.live.Add(1)
}

// drainPendingLocked absorbs tombstone hints published by the lock-free
// Delete path and, once enough have accumulated, sweeps dead entries out
// of both queues in one batch. Called with the shard mutex held.
func (s *kvShard) drainPendingLocked() {
	if s.pending.Len() == 0 {
		return
	}
	s.tombstones += s.pending.Drain(func(uint64) {}, pendingRingCap)
	if s.tombstones < s.sweepAt {
		return
	}
	s.tombstones = 0
	s.small.sweep()
	s.main.sweep()
}

// evictLocked evicts down to the low watermark (capacity − incoming −
// slack) so the following inserts skip the scan, then re-checks the
// ghost size once for the whole batch.
func (s *kvShard) evictLocked(c *KV, incoming uint64) {
	target := uint64(0)
	if incoming < s.capacity {
		target = s.capacity - incoming
	}
	low := uint64(0)
	if s.evictSlack < target {
		low = target - s.evictSlack
	}
	for s.usedBytes() > low {
		if !s.evictOneLocked(c) {
			break
		}
	}
	s.maybeResizeGhostLocked()
}

// maybeResizeGhostLocked tracks |G| = |M| (§4.2) the way internal/core
// does: sized to max(|M|, resident entries), since while M is still
// filling the resident count is the better estimate of its eventual
// population. It is lazy: the ghost is resized only when that figure
// has drifted at least 1/8 from the one it was last sized to.
func (s *kvShard) maybeResizeGhostLocked() {
	m := maxI(s.main.len(), int(s.live.Load()))
	d := m - s.ghostSizedFor
	if d < 0 {
		d = -d
	}
	if d*8 >= maxI(s.ghostSizedFor, 16) {
		s.ghost.Resize(maxI(m, 16))
		s.ghostSizedFor = m
	}
}

func (s *kvShard) evictOneLocked(c *KV) bool {
	if s.small.bytes >= s.smallTarget || s.main.len() == 0 {
		return s.evictFromSmallLocked(c)
	}
	return s.evictFromMainLocked(c)
}

func (s *kvShard) evictFromSmallLocked(c *KV) bool {
	for {
		e := s.small.pop()
		if e == nil {
			return s.evictFromMainLocked(c)
		}
		if e.dead.Load() {
			continue // deleted while queued; its bytes are already freed
		}
		if e.freq.Load() > 1 {
			e.freq.Store(0)
			s.main.push(e)
			continue
		}
		freq := int(e.freq.Load())
		if e.dead.Swap(true) {
			continue // lost the race to a concurrent Delete
		}
		s.ghost.Insert(e.hash)
		s.finishEvictLocked(c, e, freq, false)
		return true
	}
}

func (s *kvShard) evictFromMainLocked(c *KV) bool {
	for {
		e := s.main.pop()
		if e == nil {
			return false
		}
		if e.dead.Load() {
			continue
		}
		if f := e.freq.Load(); f > 0 {
			e.freq.Store(f - 1)
			s.main.push(e)
			continue
		}
		if e.dead.Swap(true) {
			continue
		}
		s.finishEvictLocked(c, e, 0, true)
		return true
	}
}

// finishEvictLocked settles one eviction: index removal, accounting (by
// source queue), and the hook. The caller holds the shard mutex and has
// won the dead swap.
func (s *kvShard) finishEvictLocked(c *KV, e *kentry, freq int, fromMain bool) {
	c.index.deleteIf(e.hash, e)
	s.used.Add(-int64(e.size))
	s.live.Add(-1)
	c.evictions.Add(1)
	if fromMain {
		c.evictMain.Add(1)
	} else {
		c.evictSmall.Add(1)
	}
	if c.onEvict != nil {
		c.onEvict(e.key, *e.value.Load(), e.size, freq, e.expires.Load())
	}
}

// Len returns the number of resident entries.
func (c *KV) Len() int {
	var n int64
	for _, s := range c.shards {
		n += s.live.Load()
	}
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Used returns the resident bytes (keys + values).
func (c *KV) Used() uint64 {
	var n int64
	for _, s := range c.shards {
		n += s.used.Load()
	}
	if n < 0 {
		n = 0
	}
	return uint64(n)
}

// Capacity returns the configured capacity in bytes.
func (c *KV) Capacity() uint64 { return c.capacity }

// Evictions returns the cumulative eviction count.
func (c *KV) Evictions() uint64 { return c.evictions.Load() }

// Expired returns the cumulative lazy-expiry count.
func (c *KV) Expired() uint64 { return c.expired.Load() }

// EvictionsSmall returns evictions taken from the small queue S (true
// demotions into the ghost, Algorithm 1's EVICTS branch).
func (c *KV) EvictionsSmall() uint64 { return c.evictSmall.Load() }

// EvictionsMain returns evictions taken from the main queue M.
func (c *KV) EvictionsMain() uint64 { return c.evictMain.Load() }

// GhostReinserts returns inserts that went straight to M because the
// ghost queue remembered the key (the paper's lazy promotion signal).
func (c *KV) GhostReinserts() uint64 { return c.ghostReinserts.Load() }

// Deletes returns explicit Delete calls that removed a resident entry.
func (c *KV) Deletes() uint64 { return c.deletes.Load() }

// OversizedDrops returns resident entries dropped because an overwrite
// was too large for its shard.
func (c *KV) OversizedDrops() uint64 { return c.oversized.Load() }

// QueueStats is a point-in-time occupancy snapshot of the S3-FIFO queues,
// aggregated over every shard.
type QueueStats struct {
	SmallBytes, MainBytes uint64
	SmallLen, MainLen     int
	GhostLen              int
}

// Queues samples queue occupancy under each shard's mutex in turn — a
// scrape-time operation, not a hot-path one. Queue byte totals include
// tombstoned entries not yet swept, so they can transiently exceed Used.
func (c *KV) Queues() QueueStats {
	var qs QueueStats
	for _, s := range c.shards {
		s.mu.Lock()
		qs.SmallBytes += s.small.bytes
		qs.MainBytes += s.main.bytes
		qs.SmallLen += s.small.len()
		qs.MainLen += s.main.len()
		qs.GhostLen += s.ghost.Len()
		s.mu.Unlock()
	}
	return qs
}

// HotKey is one entry of SampleHot's export: a resident key and its
// access-frequency counter at sampling time.
type HotKey struct {
	Key  string
	Freq int
}

// SampleHot returns up to max resident, unexpired keys ordered by
// descending frequency — the node's best guess at its hot working set,
// exported to cluster warm-up via the KEYS command. To bound the cost on
// large caches the walk stops after scanning 8×max entries; the index
// walk order is hash order, so the scanned prefix is an unbiased sample
// and sorting it surfaces the hot keys that matter. Scrape-time only.
func (c *KV) SampleHot(max int) []HotKey {
	if max <= 0 {
		return nil
	}
	scanBudget := max * 8
	out := make([]HotKey, 0, max)
	nowNanos := c.now()
	c.index.forEach(func(e *kentry) bool {
		if scanBudget <= 0 {
			return false
		}
		scanBudget--
		if e.dead.Load() {
			return true
		}
		if exp := e.expires.Load(); exp != 0 && nowNanos > exp {
			return true
		}
		out = append(out, HotKey{Key: e.key, Freq: int(e.freq.Load())})
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].Freq > out[j].Freq })
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// Range visits every resident, unexpired entry under the index's
// per-shard read locks; fn returning false stops the walk. Entries
// inserted or removed concurrently may or may not be visited.
func (c *KV) Range(fn func(key string, value []byte, expiresAt int64) bool) {
	nowNanos := c.now()
	c.index.forEach(func(e *kentry) bool {
		if e.dead.Load() {
			return true
		}
		exp := e.expires.Load()
		if exp != 0 && nowNanos > exp {
			return true
		}
		return fn(e.key, *e.value.Load(), exp)
	})
}
