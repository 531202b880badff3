package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
	"s3fifo/internal/workload"
)

// serve-hot: a loopback server driven by the pipelined binary client over
// two connections. Zipf(1.0) over 100k keys with 100-byte values, all of
// which fit in the 64 MiB cache; 95 % GET, 5 % SET, a GET miss is
// followed by a SET fill. The wire layers do most of the work; the
// facade and engine see only the hit path.
//
// The measured run has two closed-loop phases of equal length on the
// same connections: one request outstanding per connection (the latency
// metrics), then hotWindow per connection (the throughput). The traced
// run adds an open loop at hotOpenRate, timed from each request's due
// time, for the load generator's figures. Open-loop latency is not an
// end-to-end metric: on a two-CPU virtual machine whose CPUs are
// periodically taken by the host, every stall delays every request due
// during it, so its percentiles measure the host, and the pacer's lag
// (measured, loadgen.lag_p99_us) is of the same size. A closed loop with
// one request in flight per connection delays only that request.
const (
	hotKeys      = 100_000
	hotValue     = 100
	hotCapacity  = 64 << 20
	hotConns     = 2
	hotWindow    = 32     // in-flight requests per connection (cmd/throughput's default)
	hotOpenRate  = 20_000 // requests per second offered by the traced run's open loop
	hotSetShare  = 0.05
	hotAlpha     = 1.0
	hotStreamLen = 1 << 22
	setBit       = 1 << 31
	hotTraceOne  = 8 // trace 1 in 8 requests
)

// hotEnv is one built system under test: cache, server, connections.
type hotEnv struct {
	cache   *cache.Cache
	srv     *server.Server
	served  chan error
	clients []*client.Client
	reg     *telemetry.Registry
	conns   *connStats
	tr      *tracer
	once    sync.Once
}

// close tears the system down; it may be called more than once.
func (e *hotEnv) close() {
	e.once.Do(func() {
		for _, c := range e.clients {
			c.Close()
		}
		e.srv.Close()
		<-e.served
		e.cache.Close()
	})
}

// hotInputs are generated from the seed before anything is timed.
type hotInputs struct {
	keys   []string
	stream []uint32 // key id, setBit for a SET
	seq    atomic.Uint64
}

func genHot(seed int64) *hotInputs {
	in := &hotInputs{keys: make([]string, hotKeys), stream: make([]uint32, hotStreamLen)}
	for i := range in.keys {
		in.keys[i] = keyOf(uint64(i))
	}
	rng := rand.New(rand.NewSource(seed))
	z := workload.NewZipf(rng, hotAlpha, hotKeys)
	for i := range in.stream {
		op := uint32(z.Sample())
		if rng.Float64() < hotSetShare {
			op |= setBit
		}
		in.stream[i] = op
	}
	return in
}

// startServer builds a server around c on a loopback listener, wrapped
// for tracing when tr is non-nil.
func startServer(c *cache.Cache, tr *tracer, cs *connStats) (*server.Server, net.Listener, chan error, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	var sl net.Listener = l
	if tr != nil {
		sl = &tracedListener{Listener: l, tr: tr, st: cs}
	}
	srv := server.New(c)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(sl) }()
	return srv, l, served, nil
}

func setupHot(in *hotInputs, traced bool) (*hotEnv, error) {
	e := &hotEnv{conns: &connStats{}}
	cfg := cache.Config{MaxBytes: hotCapacity}
	if traced {
		e.reg = telemetry.NewRegistry()
		cfg.Metrics = e.reg
		e.tr = newTracer(1<<21, hotTraceOne)
	}
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	e.cache = c
	srv, l, served, err := startServer(c, e.tr, e.conns)
	if err != nil {
		c.Close()
		return nil, err
	}
	e.srv, e.served = srv, served
	for i := 0; i < hotConns; i++ {
		cl, err := client.DialOptions(l.Addr().String(), client.Options{Pipeline: hotWindow})
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, cl)
	}
	// Warm: every key once, so the whole key space is resident.
	var next atomic.Int64
	var failed atomic.Int64
	runWorkers(hotConns*hotWindow, func(w int) {
		cl := e.clients[w%hotConns]
		val := make([]byte, hotValue)
		for {
			id := next.Add(1) - 1
			if id >= hotKeys {
				return
			}
			fillValue(val, uint64(id), in.seq.Add(1))
			if ok, err := cl.Set(in.keys[id], val); err != nil || !ok {
				failed.Add(1)
			}
		}
	})
	if n := failed.Load(); n > 0 {
		e.close()
		return nil, fmt.Errorf("warm-up: %d sets failed", n)
	}
	return e, nil
}

// do runs one stream operation on cl for request seq, timing it from
// due. A GET miss is followed by a SET fill timed on its own.
func (e *hotEnv) do(in *hotInputs, cl *client.Client, w *worker, op uint32, seq uint64, due time.Time, conn uint16) {
	id := uint64(op &^ setBit)
	key := in.keys[id]
	req := int32(-1)
	if e.tr.sampled(seq) {
		req = e.tr.beginAt(due, spanRequest, conn, uint32(seq))
	}
	if op&setBit != 0 {
		e.set(in, cl, w, id, due, req)
	} else {
		call := time.Now()
		sp := e.tr.child(req, spanClientGet)
		v, hit, err := cl.Get(key)
		e.tr.end(sp)
		now := time.Now()
		w.get.add(now, now.Sub(call))
		if w.getDue != nil {
			w.getDue.add(now, now.Sub(due))
		}
		w.ops.add(now)
		switch {
		case err != nil:
			w.t.gets++
			w.t.opErrors++
		case hit:
			w.t.hit(v, id, hotValue)
		default:
			w.t.gets++
			w.t.misses++
			e.set(in, cl, w, id, time.Now(), req)
		}
	}
	e.tr.end(req)
}

func (e *hotEnv) set(in *hotInputs, cl *client.Client, w *worker, id uint64, due time.Time, req int32) {
	fillValue(w.val, id, in.seq.Add(1))
	sp := e.tr.child(req, spanClientSet)
	call := time.Now()
	ok, err := cl.Set(in.keys[id], w.val)
	e.tr.end(sp)
	now := time.Now()
	w.set.add(now, now.Sub(call))
	if w.setDue != nil {
		w.setDue.add(now, now.Sub(due))
	}
	w.ops.add(now)
	w.t.sets++
	w.t.userBytesSet += keyLen + hotValue
	if err != nil || !ok {
		w.t.opErrors++
	}
}

type hotJob struct {
	seq uint64
	due time.Time
}

// openLoop offers hotOpenRate requests per second for d, split across the
// connections, each served by hotWindow workers.
func (e *hotEnv) openLoop(in *hotInputs, p *phase, d time.Duration, pos *atomic.Uint64) {
	start := time.Now()
	p.begin(start)
	jobs := make([]chan hotJob, hotConns)
	for i := range jobs {
		// One second of offered load: a stalled server builds a backlog
		// that shows as lag instead of blocking the pacer.
		jobs[i] = make(chan hotJob, hotOpenRate)
	}
	base := pos.Load()
	done := make(chan struct{})
	go func() {
		runWorkers(len(p.workers), func(wi int) {
			w := p.workers[wi]
			conn := wi % hotConns
			cl := e.clients[conn]
			for j := range jobs[conn] {
				now := time.Now()
				w.lag.add(now, now.Sub(j.due))
				op := in.stream[j.seq%uint64(len(in.stream))]
				e.do(in, cl, w, op, j.seq, j.due, uint16(conn))
			}
			w.flush()
		})
		close(done)
	}()
	p.offered = pace(start, d, hotOpenRate, func(i int, due time.Time) {
		jobs[i%hotConns] <- hotJob{seq: base + uint64(i), due: due}
	})
	for _, ch := range jobs {
		close(ch)
	}
	<-done
	pos.Add(uint64(p.offered))
}

// closedLoop runs every worker back to back for d.
func (e *hotEnv) closedLoop(in *hotInputs, p *phase, d time.Duration, pos *atomic.Uint64) {
	start := time.Now()
	p.begin(start)
	end := start.Add(d)
	runWorkers(len(p.workers), func(wi int) {
		w := p.workers[wi]
		conn := wi % hotConns
		cl := e.clients[conn]
		for {
			now := time.Now()
			if !now.Before(end) {
				break
			}
			seq := pos.Add(1) - 1
			e.do(in, cl, w, in.stream[seq%uint64(len(in.stream))], seq, now, uint16(conn))
		}
		w.flush()
	})
}

// maxLagShare bounds the pacer's lag p99 as a share of the open loop's
// GET p99, which includes it; past it the latencies describe the load
// generator more than the server. It equals the get_p99_us bound.
const maxLagShare = 0.25

func runServeHot(o options) (*outcome, error) {
	in := genHot(o.seed)
	total := time.Duration(o.seconds) * time.Second
	out := &outcome{metrics: map[string]float64{}, record: map[string]any{
		"sizes": map[string]any{
			"keys": hotKeys, "key_bytes": keyLen, "value_bytes": hotValue, "capacity_bytes": hotCapacity,
			"conns": hotConns, "window": hotWindow, "open_loop_rate": hotOpenRate, "set_share": hotSetShare,
			"zipf_alpha": hotAlpha, "stream_ops": hotStreamLen,
		},
	}}
	if o.trace {
		return out, traceServeHot(o, in, total, out)
	}
	lat := newPhase(total/2, hotConns, hotValue, false)
	thr := newPhase(total/2, hotConns*hotWindow, hotValue, false)
	env, setups, baseline, err := setupRepeated(func() (*hotEnv, error) { return setupHot(in, false) }, (*hotEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	prefault()
	before := env.cache.Stats()
	var pos atomic.Uint64
	env.closedLoop(in, lat, total/2, &pos)
	env.closedLoop(in, thr, total/2, &pos)
	after := env.cache.Stats()

	t := lat.tally()
	tt := thr.tally()
	t.add(&tt)
	out.tally = t
	out.problems = reconcile(&t, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)
	heap := float64(liveHeap()) - float64(baseline)

	m := out.metrics
	m["setup_s"] = median(setups)
	m["throughput_kops"] = thr.kops()
	lat.latencyMetrics(m)
	m["hit_ratio"] = float64(t.hits) / float64(t.gets)
	m["heap_per_user_byte"] = heap / float64(env.cache.Used())
	out.record["setup_s_each"] = setups
	out.record["latency_loop"] = map[string]any{
		"get": latencyRecord(lat.get.w.total()), "set": latencyRecord(lat.set.w.total()), "kops": lat.kops(),
	}
	out.record["throughput_loop"] = map[string]any{
		"get": latencyRecord(thr.get.w.total()), "set": latencyRecord(thr.set.w.total()),
		"window_kops": thr.windowKops(),
	}
	return out, nil
}

// traceServeHot runs the workload untraced (the baseline for the trace
// overhead, the runtime figures and an open loop for the load
// generator's), then on a fresh system with the traced listener and the
// metric registry, and reports the per-layer metrics.
func traceServeHot(o options, in *hotInputs, total time.Duration, out *outcome) error {
	idle := runtime.NumGoroutine()
	q := total / 5
	m := out.metrics
	layerZero(m)
	var pos atomic.Uint64

	// Built like the measured run's system, so the per-layer timings see
	// the same heap (memory already faulted in by earlier builds).
	env, _, _, err := setupRepeated(func() (*hotEnv, error) { return setupHot(in, false) }, (*hotEnv).close)
	if err != nil {
		return err
	}
	open := newPhase(q, hotConns*hotWindow, hotValue, true)
	lat, thr := newPhase(q, hotConns, hotValue, false), newPhase(q, hotConns*hotWindow, hotValue, false)
	before := env.cache.Stats()
	prefault() // start each measured system from a collected, faulted-in heap
	env.openLoop(in, open, q, &pos)
	rt0 := readRuntime()
	env.closedLoop(in, lat, q, &pos)
	env.closedLoop(in, thr, q, &pos)
	rt1 := readRuntime()
	after := env.cache.Stats()
	env.close()
	waitGoroutines(idle)
	runtime.GC() // free it, so the traced build reuses its memory as the measured run does
	t := open.tally()
	for _, p := range []*phase{lat, thr} {
		pt := p.tally()
		t.add(&pt)
	}
	out.problems = reconcile(&t, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)
	lt := lat.tally()
	tt := thr.tally()
	lt.add(&tt)
	setRuntime(m, runtimeBetween(rt0, rt1), lt.attempted())
	lag := open.lag.w.total()
	m["loadgen.lag_p99_us"] = lag.quantile(0.99) / 1e3
	m["loadgen.offered_kops"] = float64(open.offered) / q.Seconds() / 1e3
	openRec := map[string]any{"lag": latencyRecord(lag), "rate": hotOpenRate}
	// The open loop's latencies count only when the pacer kept to its
	// schedule; a late pacer makes them invalid, not slow.
	get := open.getDue.w.total()
	if l, g := lag.quantile(0.99), get.quantile(0.99); l > maxLagShare*g {
		openRec["invalid"] = fmt.Sprintf("pacer lag p99 %.0f us is more than %.0f%% of GET p99 %.0f us",
			l/1e3, maxLagShare*100, g/1e3)
	} else {
		openRec["get"] = latencyRecord(get)
		openRec["set"] = latencyRecord(open.setDue.w.total())
	}
	out.record["open_loop"] = openRec
	untracedKops := thr.kops()
	m["client.get_ns_p50"] = lat.get.w.medianQuantile(0.5)
	m["client.set_ns_p50"] = lat.set.w.medianQuantile(0.5)

	env, err = setupHot(in, true)
	if err != nil {
		return err
	}
	defer env.close()
	tlat, tthr := newPhase(q, hotConns, hotValue, false), newPhase(q, hotConns*hotWindow, hotValue, false)
	before = env.cache.Stats()
	ef0, err := readEngineFlow(env.reg)
	if err != nil {
		return err
	}
	cs0 := env.conns.snap()
	prefault()
	from := env.tr.mark()
	env.closedLoop(in, tlat, q, &pos)
	cs1 := env.conns.snap()
	mid := env.tr.mark()
	env.closedLoop(in, tthr, q, &pos)
	after = env.cache.Stats()
	ef1, err := readEngineFlow(env.reg)
	if err != nil {
		return err
	}
	cs := env.conns.snap().sub(cs0)
	lt = tlat.tally()
	latBusy := float64(cs1.sub(cs0).busyNs) / float64(lt.attempted())
	to := env.tr.mark()
	// The server's goroutines record spans until they exit.
	env.close()
	waitGoroutines(idle)
	traced := tlat.tally()
	tt = tthr.tally()
	traced.add(&tt)
	out.problems = append(out.problems, reconcile(&traced, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)...)
	t.add(&traced)
	out.tally = t

	setServer(m, cs, traced.attempted())
	codec := timeCodec(in.keys[0], newValue(hotValue, 0, 1))
	m["proto.encode_ns"] = codec.clientEncode + codec.serverEncode
	m["proto.decode_ns"] = codec.clientDecode + codec.serverDecode
	m["client.errors"] = float64(traced.opErrors)
	// Self times come from the latency phase, where a call's time is its
	// own and not a share of a pipelined batch.
	setClientSelf(m, env.tr.layerTimes(from, mid), latBusy, codec.clientEncode+codec.clientDecode)
	layers := env.tr.layerTimes(from, to)
	setCacheCounts(m, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets,
		after.Evictions-before.Evictions, ef1.sub(ef0))
	m["trace.overhead_pct"] = overheadPct(untracedKops, tthr.kops())
	m["trace.spans"] = float64(to - from)
	out.record["trace"] = traceRecord(env.tr, layers, o.spanPath, from, to)
	return env.tr.writeSpans(o.spanPath, from, to)
}
