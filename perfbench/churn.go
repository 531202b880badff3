package main

import (
	"runtime"
	"time"

	"s3fifo/cache"
	"s3fifo/internal/telemetry"
	"s3fifo/internal/trace"
	"s3fifo/internal/workload"
)

// embed-churn: the cache facade in-process, one goroutine in a closed
// loop, no network. One million objects of 16-byte keys and 200-byte
// values (~216 MB) against a 32 MiB cache; Zipf(0.9) traffic mixed with
// 25 % one-hit wonders, 5 % scan bursts and 2 % deletes, from the
// internal/workload generator. Every miss fills. The engine's miss,
// eviction and ghost paths and the facade dominate.
//
// One goroutine, not two: on a 2-vCPU VM two goroutines give only ≈1.1×
// the throughput of one (≈410–440 vs ≈380 kops), and with both vCPUs
// busy a SET that waits on a lock whose holder is descheduled sets the
// tail: SET p99 ≈16 µs with two against ≈7 µs with one, and with two it
// spread 0.20–0.21 (IQR over median, two interleaved sets of six seeds)
// against 0.08–0.19 with one. Concurrent calls into the engine are still
// made by serve-hot's two server connections.
const (
	churnObjects  = 1_000_000
	churnValue    = 200
	churnCapacity = 32 << 20
	churnWorkers  = 1
	churnAlpha    = 0.9
	churnOneHit   = 0.25
	churnScan     = 0.05
	churnDelete   = 0.02
	churnChunk    = 1 << 20
	churnChunks   = 8  // chunks per worker stream
	churnTraceOne = 64 // trace 1 in 64 requests
)

// A stream operation packs the key id with two flags. Fresh ids (one-hit
// wonders and scans) are made unique per pass, so a stream that wraps
// around still never repeats them.
const (
	opDelete  = uint64(1) << 63
	opFresh   = uint64(1) << 62
	idMask    = opFresh - 1
	chunkSpan = uint64(1) << 32 // fresh ids one chunk can hold
	passSpan  = chunkSpan * churnWorkers * churnChunks
)

type churnInputs struct {
	streams [churnWorkers][]uint64
}

func genChurn(seed int64) *churnInputs {
	in := &churnInputs{}
	cfg := workload.Config{
		Objects: churnObjects, Requests: churnChunk, Alpha: churnAlpha,
		OneHitFraction: churnOneHit, ScanFraction: churnScan, DeleteFraction: churnDelete,
	}
	const freshBase = uint64(1) << 40 // where the generator starts fresh ids
	for w := range in.streams {
		s := make([]uint64, 0, churnChunk*churnChunks)
		for c := 0; c < churnChunks; c++ {
			chunk := uint64(w*churnChunks + c)
			for _, r := range workload.Generate(cfg, seed*1000+int64(chunk)) {
				op := r.ID
				if r.ID >= freshBase {
					op = opFresh | (churnObjects + chunk*chunkSpan + (r.ID - freshBase))
				}
				if r.Op == trace.OpDelete {
					op |= opDelete
				}
				s = append(s, op)
			}
		}
		in.streams[w] = s
	}
	return in
}

// churnWarm is the number of hottest keys that fill the cache.
const churnWarm = churnCapacity / (keyLen + churnValue)

func setupChurn(reg *telemetry.Registry) (*cache.Cache, error) {
	c, err := cache.New(cache.Config{MaxBytes: churnCapacity, Metrics: reg})
	if err != nil {
		return nil, err
	}
	for id := uint64(churnWarm); id > 0; id-- {
		c.Set(keyOf(id-1), newValue(churnValue, id-1, 0))
	}
	return c, nil
}

// runChurnPhase drives c for d. pos holds each worker's position in its
// stream, carried from phase to phase; a write's sequence number is made
// from the worker and its position, so it is unique without sharing a
// counter between workers.
func runChurnPhase(p *phase, in *churnInputs, c *cache.Cache, tr *tracer, d time.Duration, pos *[churnWorkers]uint64) {
	start := time.Now()
	p.begin(start)
	end := start.Add(d)
	runWorkers(churnWorkers, func(wi int) {
		w := p.workers[wi]
		stream := in.streams[wi]
		i := pos[wi]
		for {
			now := time.Now()
			if !now.Before(end) {
				break
			}
			op := stream[i%uint64(len(stream))]
			id := op & idMask
			if op&opFresh != 0 {
				id += i / uint64(len(stream)) * passSpan
			}
			req := int32(-1)
			if tr.sampled(i) {
				req = tr.begin(spanRequest, -1, uint16(wi), uint32(i))
			}
			i++
			key := keyOf(id)
			if op&opDelete != 0 {
				sp := tr.child(req, spanCacheDelete)
				t0 := time.Now()
				c.Delete(key)
				t1 := time.Now()
				tr.end(sp)
				w.del.add(t1, t1.Sub(t0))
				w.ops.add(t1)
				w.t.deletes++
			} else {
				sp := tr.child(req, spanCacheGet)
				t0 := time.Now()
				v, ok := c.Get(key)
				t1 := time.Now()
				tr.end(sp)
				w.get.add(t1, t1.Sub(t0))
				w.ops.add(t1)
				if ok {
					w.t.hit(v, id, churnValue)
				} else {
					w.t.gets++
					w.t.misses++
					val := newValue(churnValue, id, (i-1)*churnWorkers+uint64(wi))
					sp := tr.child(req, spanCacheSet)
					t0 := time.Now()
					c.Set(key, val)
					t1 := time.Now()
					tr.end(sp)
					w.set.add(t1, t1.Sub(t0))
					w.ops.add(t1)
					w.t.sets++
					w.t.userBytesSet += keyLen + churnValue
				}
			}
			tr.end(req)
		}
		pos[wi] = i
		w.flush()
	})
}

func churnSizes() map[string]any {
	return map[string]any{
		"objects": churnObjects, "key_bytes": keyLen, "value_bytes": churnValue,
		"capacity_bytes": churnCapacity, "workers": churnWorkers, "zipf_alpha": churnAlpha,
		"one_hit_share": churnOneHit, "scan_share": churnScan, "delete_share": churnDelete,
		"stream_ops_per_worker": churnChunk * churnChunks, "warm_keys": churnWarm,
	}
}

func runEmbedChurn(o options) (*outcome, error) {
	in := genChurn(o.seed)
	total := time.Duration(o.seconds) * time.Second
	out := &outcome{metrics: map[string]float64{}, record: map[string]any{"sizes": churnSizes()}}
	var pos [churnWorkers]uint64
	if o.trace {
		return out, traceChurn(o, in, total, out, &pos)
	}
	ph := newPhase(total, churnWorkers, 0, false)
	c, setups, baseline, err := setupRepeated(func() (*cache.Cache, error) { return setupChurn(nil) }, func(c *cache.Cache) { c.Close() })
	if err != nil {
		return nil, err
	}
	defer c.Close()
	prefault()
	before := c.Stats()
	runChurnPhase(ph, in, c, nil, total, &pos)
	after := c.Stats()
	t := ph.tally()
	out.tally = t
	out.problems = reconcile(&t, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)
	heap := float64(liveHeap()) - float64(baseline)

	m := out.metrics
	m["setup_s"] = median(setups)
	m["throughput_kops"] = ph.kops()
	ph.latencyMetrics(m)
	m["hit_ratio"] = float64(t.hits) / float64(t.gets)
	m["heap_per_user_byte"] = heap / float64(c.Used())
	out.record["setup_s_each"] = setups
	out.record["window_kops"] = ph.windowKops()
	out.record["latency"] = map[string]any{
		"get": latencyRecord(ph.get.w.total()), "set": latencyRecord(ph.set.w.total()), "delete": latencyRecord(ph.del.w.total()),
	}
	return out, nil
}

// traceChurn runs the workload untraced for half the time, then traced on
// a fresh cache with the metric registry, and reports the per-layer
// metrics.
func traceChurn(o options, in *churnInputs, total time.Duration, out *outcome, pos *[churnWorkers]uint64) error {
	half := total / 2
	m := out.metrics
	layerZero(m)
	// Built like the measured run's system, so the per-layer timings see
	// the same heap (memory already faulted in by earlier builds).
	c, _, _, err := setupRepeated(func() (*cache.Cache, error) { return setupChurn(nil) }, func(c *cache.Cache) { c.Close() })
	if err != nil {
		return err
	}
	ph := newPhase(half, churnWorkers, 0, false)
	before := c.Stats()
	prefault() // start each measured system from a collected, faulted-in heap
	rt0 := readRuntime()
	runChurnPhase(ph, in, c, nil, half, pos)
	rt1 := readRuntime()
	after := c.Stats()
	c.Close()
	runtime.GC() // free it, so the traced build reuses its memory as the measured run does
	t := ph.tally()
	out.problems = reconcile(&t, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)
	setRuntime(m, runtimeBetween(rt0, rt1), t.attempted())
	m["cache.get_ns_p50"] = ph.get.w.medianQuantile(0.5)
	m["cache.get_ns_p99"] = ph.get.w.medianQuantile(0.99)
	m["cache.set_ns_p50"] = ph.set.w.medianQuantile(0.5)
	m["cache.delete_ns_p50"] = ph.del.w.medianQuantile(0.5)
	untracedKops := ph.kops()

	reg := telemetry.NewRegistry()
	c, err = setupChurn(reg)
	if err != nil {
		return err
	}
	defer c.Close()
	tr := newTracer(1<<21, churnTraceOne)
	tph := newPhase(half, churnWorkers, 0, false)
	before = c.Stats()
	ef0, err := readEngineFlow(reg)
	if err != nil {
		return err
	}
	prefault()
	from := tr.mark()
	runChurnPhase(tph, in, c, tr, half, pos)
	to := tr.mark()
	after = c.Stats()
	ef1, err := readEngineFlow(reg)
	if err != nil {
		return err
	}
	tt := tph.tally()
	out.problems = append(out.problems, reconcile(&tt, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)...)
	t.add(&tt)
	out.tally = t

	setCacheCounts(m, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets,
		after.Evictions-before.Evictions, ef1.sub(ef0))
	layers := tr.layerTimes(from, to)
	// The request span of a GET holds the facade call and, on a miss, the
	// fill; its self time is the benchmark's own work (key, value, check).
	if n := layers.count[spanRequest]; n > 0 {
		m["remainder.get_ns"] = float64(layers.self[spanRequest]) / float64(n)
	}
	m["trace.overhead_pct"] = overheadPct(untracedKops, tph.kops())
	m["trace.spans"] = float64(to - from)
	out.record["trace"] = traceRecord(tr, layers, o.spanPath, from, to)
	return tr.writeSpans(o.spanPath, from, to)
}
