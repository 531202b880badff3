package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/cache"
	"s3fifo/internal/faultfs"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
	"s3fifo/internal/workload"
)

// serve-tiered-text: a loopback server whose cache has the flash second
// tier on disk, driven over one connection in the memcached text
// dialect (get/set) by the benchmark's own client, one request
// outstanding. 100k keys of 1 KiB values (~100 MiB) are
// ~50x the 2 MiB DRAM tier and ~4x the 24 MiB flash tier. Traffic is
// Zipf(0.9) with 10 % one-hit wonders and 10 % overwrites of keys already
// written; every miss fills. It is the workload that runs the tier
// (demotion, promotion, flash reads and writes, segment reclamation) and
// the text dispatch.
//
// One connection, not two: the flash tier serialises its callers, so a
// second connection adds no throughput (≈37 kops with one or two on a
// 2-vCPU VM) and only queues behind the first. With two, GET p99 was
// ≈145 µs on a quiet host and 90–220 µs as other tenants came and went,
// a spread past any useful bound; with one it is ≈45–65 µs either way.
const (
	tierKeys      = 100_000
	tierValue     = 1024
	tierDRAM      = 2 << 20
	tierFlash     = 24 << 20
	tierConns     = 1
	tierAlpha     = 0.9
	tierOneHit    = 0.10
	tierOverwrite = 0.10
	tierStreamLen = 1 << 21
	tierTraceOne  = 8
	// tierWarm keys, the hottest, fill both tiers before timing.
	tierWarm = (tierDRAM + tierFlash) / (keyLen + tierValue)
)

// Stream operations: a key id, with opSet for an overwrite; one-hit
// wonders are opFresh ids above the key space, unique per pass.
const opSet = uint64(1) << 63

type tierInputs struct {
	streams [tierConns][]uint64
}

func genTiered(seed int64) *tierInputs {
	in := &tierInputs{}
	for c := range in.streams {
		rng := rand.New(rand.NewSource(seed*10 + int64(c)))
		z := workload.NewZipf(rng, tierAlpha, tierKeys)
		s := make([]uint64, tierStreamLen)
		fresh := uint64(0)
		for i := range s {
			switch r := rng.Float64(); {
			case r < tierOneHit:
				s[i] = opFresh | (tierKeys + uint64(c)*tierStreamLen + fresh)
				fresh++
			case r < tierOneHit+tierOverwrite:
				s[i] = opSet | uint64(z.Sample())
			default:
				s[i] = uint64(z.Sample())
			}
		}
		in.streams[c] = s
	}
	return in
}

// textConn is the benchmark's memcached text-dialect client. It reuses
// one value buffer and parses replies in place, so the load generator
// adds little to the garbage of the process the server runs in.
type textConn struct {
	c   net.Conn
	r   *bufio.Reader
	w   *bufio.Writer
	val []byte // the last value read
}

func dialText(addr string) (*textConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &textConn{c: c, r: bufio.NewReaderSize(c, 16<<10), w: bufio.NewWriterSize(c, 16<<10)}, nil
}

var errProtocol = errors.New("unexpected reply")

// get sends "get <key>" and returns the value, if any, in a buffer the
// next call reuses.
func (t *textConn) get(key string) ([]byte, bool, error) {
	t.w.WriteString("get ")
	t.w.WriteString(key)
	t.w.WriteString("\r\n")
	if err := t.w.Flush(); err != nil {
		return nil, false, err
	}
	line, err := t.readLine()
	if err != nil {
		return nil, false, err
	}
	if string(line) == "END" {
		return nil, false, nil
	}
	// "VALUE <key> <flags> <bytes>"; the byte count is the last field.
	rest, ok := bytes.CutPrefix(line, []byte("VALUE "))
	if !ok || len(rest) <= len(key) || string(rest[:len(key)]) != key || rest[len(key)] != ' ' {
		return nil, false, fmt.Errorf("%w to get %s: %q", errProtocol, key, line)
	}
	n, err := strconv.Atoi(string(line[bytes.LastIndexByte(line, ' ')+1:]))
	if err != nil || n < 0 {
		return nil, false, fmt.Errorf("%w: bad length in %q", errProtocol, line)
	}
	if cap(t.val) < n+2 {
		t.val = make([]byte, n+2)
	}
	v := t.val[:n+2]
	if _, err := io.ReadFull(t.r, v); err != nil {
		return nil, false, err
	}
	if line, err = t.readLine(); err != nil {
		return nil, false, err
	}
	if string(line) != "END" {
		return nil, false, fmt.Errorf("%w: %q after value", errProtocol, line)
	}
	return v[:n], true, nil
}

// set sends "set <key> 0 0 <bytes>" with the value and waits for STORED.
func (t *textConn) set(key string, value []byte) error {
	t.w.WriteString("set ")
	t.w.WriteString(key)
	t.w.WriteString(" 0 0 ")
	t.w.WriteString(strconv.Itoa(len(value)))
	t.w.WriteString("\r\n")
	t.w.Write(value)
	t.w.WriteString("\r\n")
	if err := t.w.Flush(); err != nil {
		return err
	}
	line, err := t.readLine()
	if err != nil {
		return err
	}
	if string(line) != "STORED" {
		return fmt.Errorf("%w to set %s: %q", errProtocol, key, line)
	}
	return nil
}

func (t *textConn) readLine() ([]byte, error) {
	line, err := t.r.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	return bytes.TrimRight(line, "\r\n"), nil
}

type tierEnv struct {
	cache  *cache.Cache
	srv    *server.Server
	served chan error
	conns  []*textConn
	dir    string
	reg    *telemetry.Registry
	cs     *connStats
	fs     *fsStats
	tr     *tracer
	once   sync.Once
}

// close tears the system down and removes its flash files; it may be
// called more than once.
func (e *tierEnv) close() {
	e.once.Do(func() {
		for _, c := range e.conns {
			c.c.Close()
		}
		e.srv.Close()
		<-e.served
		e.cache.Close()
		os.RemoveAll(e.dir)
	})
}

var setupCount atomic.Int64

func setupTiered(workdir string, traced bool) (*tierEnv, error) {
	e := &tierEnv{cs: &connStats{}, fs: &fsStats{}}
	e.dir = filepath.Join(workdir, fmt.Sprintf("flash-%d", setupCount.Add(1)))
	cfg := cache.Config{MaxBytes: tierDRAM, FlashDir: e.dir, FlashBytes: tierFlash}
	if traced {
		e.reg = telemetry.NewRegistry()
		e.tr = newTracer(1<<21, tierTraceOne)
		cfg.Metrics = e.reg
		cfg.FlashFS = timedFS{FS: faultfs.OS(), tr: e.tr, st: e.fs}
	}
	c, err := cache.New(cfg)
	if err != nil {
		return nil, err
	}
	e.cache = c
	srv, l, served, err := startServer(c, e.tr, e.cs)
	if err != nil {
		c.Close()
		return nil, err
	}
	e.srv, e.served = srv, served
	for i := 0; i < tierConns; i++ {
		tc, err := dialText(l.Addr().String())
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, tc)
	}
	// Warm: the hottest keys, coldest first, through the connections, so
	// both tiers are full and the hottest keys sit in DRAM.
	for id := uint64(tierWarm); id > 0; id-- {
		if err := e.conns[id%tierConns].set(keyOf(id-1), newValue(tierValue, id-1, 0)); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return e, nil
}

func (e *tierEnv) run(p *phase, in *tierInputs, d time.Duration, pos *[tierConns]uint64) {
	start := time.Now()
	p.begin(start)
	end := start.Add(d)
	runWorkers(tierConns, func(wi int) {
		w := p.workers[wi]
		tc := e.conns[wi]
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
				id += i / uint64(len(stream)) * tierConns * tierStreamLen
			}
			req := int32(-1)
			if e.tr.sampled(i) {
				req = e.tr.begin(spanRequest, -1, uint16(wi), uint32(i))
			}
			i++
			key := keyOf(id)
			if op&opSet != 0 {
				e.set(tc, w, key, id, (i-1)*tierConns+uint64(wi), req)
			} else {
				sp := e.tr.child(req, spanClientGet)
				t0 := time.Now()
				v, ok, err := tc.get(key)
				t1 := time.Now()
				e.tr.end(sp)
				w.get.add(t1, t1.Sub(t0))
				w.ops.add(t1)
				switch {
				case err != nil:
					w.t.gets++
					w.t.opErrors++
				case ok:
					w.t.hit(v, id, tierValue)
				default:
					w.t.gets++
					w.t.misses++
					e.set(tc, w, key, id, (i-1)*tierConns+uint64(wi), req)
				}
			}
			e.tr.end(req)
		}
		pos[wi] = i
		w.flush()
	})
}

func (e *tierEnv) set(tc *textConn, w *worker, key string, id, seq uint64, req int32) {
	fillValue(w.val, id, seq)
	sp := e.tr.child(req, spanClientSet)
	t0 := time.Now()
	err := tc.set(key, w.val)
	t1 := time.Now()
	e.tr.end(sp)
	w.set.add(t1, t1.Sub(t0))
	w.ops.add(t1)
	w.t.sets++
	w.t.userBytesSet += keyLen + tierValue
	if err != nil {
		w.t.opErrors++
	}
}

func tierSizes() map[string]any {
	return map[string]any{
		"keys": tierKeys, "key_bytes": keyLen, "value_bytes": tierValue, "dram_bytes": tierDRAM,
		"flash_bytes": tierFlash, "conns": tierConns, "zipf_alpha": tierAlpha, "one_hit_share": tierOneHit,
		"overwrite_share": tierOverwrite, "stream_ops_per_conn": tierStreamLen, "warm_keys": tierWarm,
	}
}

func runTiered(o options) (*outcome, error) {
	in := genTiered(o.seed)
	total := time.Duration(o.seconds) * time.Second
	out := &outcome{metrics: map[string]float64{}, record: map[string]any{"sizes": tierSizes()}}
	var pos [tierConns]uint64
	if o.trace {
		return out, traceTiered(o, in, total, out, &pos)
	}
	ph := newPhase(total, tierConns, tierValue, false)
	env, setups, baseline, err := setupRepeated(func() (*tierEnv, error) { return setupTiered(o.workdir, false) }, (*tierEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	prefault()
	before := env.cache.Stats()
	env.run(ph, in, total, &pos)
	after := env.cache.Stats()
	t := ph.tally()
	out.tally = t
	out.problems = reconcile(&t, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)
	heap := float64(liveHeap()) - float64(baseline)

	m := out.metrics
	m["setup_s"] = median(setups)
	m["throughput_kops"] = ph.kops()
	ph.latencyMetrics(m)
	m["hit_ratio"] = float64(t.hits) / float64(t.gets)
	m["heap_per_user_byte"] = heap / float64(env.cache.Used())
	out.record["setup_s_each"] = setups
	out.record["window_kops"] = ph.windowKops()
	out.record["latency"] = map[string]any{"get": latencyRecord(ph.get.w.total()), "set": latencyRecord(ph.set.w.total())}
	out.record["tier"] = tierRecord(before, after, t.userBytesSet)
	return out, nil
}

func tierRecord(before, after cache.Stats, userBytes uint64) map[string]any {
	return map[string]any{
		"flash_hits": after.FlashHits - before.FlashHits, "dram_hits": after.DRAMHits - before.DRAMHits,
		"flash_bytes_written": after.FlashBytesWritten - before.FlashBytesWritten, "user_bytes_set": userBytes,
		"flash_write_amp": float64(after.FlashBytesWritten-before.FlashBytesWritten) / float64(userBytes),
	}
}

// traceTiered runs the workload untraced for half the time, then traced
// on a fresh system (traced listener, timing filesystem under the flash
// tier, metric registry), and reports the per-layer metrics.
func traceTiered(o options, in *tierInputs, total time.Duration, out *outcome, pos *[tierConns]uint64) error {
	idle := runtime.NumGoroutine()
	half := total / 2
	m := out.metrics
	layerZero(m)
	// Built like the measured run's system, so the per-layer timings see
	// the same heap (memory already faulted in by earlier builds).
	env, _, _, err := setupRepeated(func() (*tierEnv, error) { return setupTiered(o.workdir, false) }, (*tierEnv).close)
	if err != nil {
		return err
	}
	ph := newPhase(half, tierConns, tierValue, false)
	before := env.cache.Stats()
	prefault() // start each measured system from a collected, faulted-in heap
	rt0 := readRuntime()
	env.run(ph, in, half, pos)
	rt1 := readRuntime()
	after := env.cache.Stats()
	env.close()
	waitGoroutines(idle)
	runtime.GC() // free it, so the traced build reuses its memory as the measured run does
	t := ph.tally()
	out.problems = reconcile(&t, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)
	setRuntime(m, runtimeBetween(rt0, rt1), t.attempted())
	m["client.get_ns_p50"] = ph.get.w.medianQuantile(0.5)
	m["client.set_ns_p50"] = ph.set.w.medianQuantile(0.5)
	untracedKops := ph.kops()

	env, err = setupTiered(o.workdir, true)
	if err != nil {
		return err
	}
	defer env.close()
	tph := newPhase(half, tierConns, tierValue, false)
	before = env.cache.Stats()
	ef0, err := readEngineFlow(env.reg)
	if err != nil {
		return err
	}
	cs0 := env.cs.snap()
	fs0 := env.fs.snap()
	prefault()
	from := env.tr.mark()
	env.run(tph, in, half, pos)
	to := env.tr.mark()
	after = env.cache.Stats()
	ef1, err := readEngineFlow(env.reg)
	if err != nil {
		return err
	}
	cs := env.cs.snap().sub(cs0)
	fs := env.fs.snap().sub(fs0)
	// The server's goroutines record spans until they exit.
	env.close()
	waitGoroutines(idle)
	tt := tph.tally()
	out.problems = append(out.problems, reconcile(&tt, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets)...)
	t.add(&tt)
	out.tally = t

	ops := tt.attempted()
	setServer(m, cs, ops)
	m["client.errors"] = float64(tt.opErrors)
	layers := env.tr.layerTimes(from, to)
	setClientSelf(m, layers, m["server.busy_ns_per_op"], 0)
	setCacheCounts(m, after.Hits-before.Hits, after.Misses-before.Misses, after.Sets-before.Sets,
		after.Evictions-before.Evictions, ef1.sub(ef0))
	hits := after.FlashHits - before.FlashHits
	m["tier.hits"] = float64(hits)
	if h := after.Hits - before.Hits; h > 0 {
		m["tier.hit_share"] = float64(hits) / float64(h)
	}
	m["tier.demotions"] = float64(after.Demotions - before.Demotions)
	m["tier.declined"] = float64(after.DemotionsDeclined - before.DemotionsDeclined)
	m["tier.promotions"] = float64(after.Promotions - before.Promotions)
	written := after.FlashBytesWritten - before.FlashBytesWritten
	m["tier.bytes_written"] = float64(written)
	m["tier.gc_bytes"] = float64(after.FlashGCBytes - before.FlashGCBytes)
	if tt.userBytesSet > 0 {
		m["tier.write_amp"] = float64(written) / float64(tt.userBytesSet)
	}
	m["tier.fs_writes"] = float64(fs.writes)
	m["tier.fs_write_bytes"] = float64(fs.writeBytes)
	m["tier.fs_reads"] = float64(fs.reads)
	m["tier.fs_syncs"] = float64(fs.syncs)
	if fs.writes > 0 {
		m["tier.fs_write_ns"] = float64(fs.writeNs) / float64(fs.writes)
	}
	if fs.reads > 0 {
		m["tier.fs_read_ns"] = float64(fs.readNs) / float64(fs.reads)
	}
	if fs.syncs > 0 {
		m["tier.fs_sync_ns"] = float64(fs.syncNs) / float64(fs.syncs)
	}
	put, get, err := tierTimes(o.workdir, tierFlash, tierValue, tierWarm)
	if err != nil {
		return err
	}
	m["tier.put_ns"], m["tier.get_ns"] = put, get
	m["trace.overhead_pct"] = overheadPct(untracedKops, tph.kops())
	m["trace.spans"] = float64(to - from)
	out.record["tier"] = tierRecord(before, after, tt.userBytesSet)
	out.record["trace"] = traceRecord(env.tr, layers, o.spanPath, from, to)
	return env.tr.writeSpans(o.spanPath, from, to)
}
