package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"s3fifo/internal/flash"
	"s3fifo/internal/proto"
	"s3fifo/internal/telemetry"
)

// codecTimes times the binary protocol on one key/value shape: the
// encodes and decodes of a GET hit round trip, split by side.
type codecTimes struct {
	clientEncode, clientDecode float64 // ns: GET request frame, response header
	serverEncode, serverDecode float64 // ns: response frame with value, request header
}

func timeCodec(key string, value []byte) codecTimes {
	const n = 200_000
	buf := make([]byte, 0, proto.HeaderLen+len(key)+len(value))
	var sink int
	per := func(f func()) float64 {
		f() // warm
		t := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return float64(time.Since(t).Nanoseconds()) / n
	}
	var req, resp []byte
	ct := codecTimes{
		clientEncode: per(func() { req = proto.AppendRequest(buf[:0], proto.OpGet, 0, 7, key, nil) }),
	}
	req = append([]byte(nil), req...)
	ct.serverDecode = per(func() {
		h, _ := proto.ParseRequestHeader(req)
		sink += h.KeyLen
	})
	ct.serverEncode = per(func() { resp = proto.AppendResponse(buf[:0], proto.StatusOK, 7, value) })
	resp = append([]byte(nil), resp...)
	ct.clientDecode = per(func() {
		h, _ := proto.ParseResponseHeader(resp)
		sink += h.ValueLen
	})
	if sink == 0 {
		panic("codec timing loop elided")
	}
	return ct
}

// tierTimes times direct flash.Store Put and Get calls on the workload's
// key/value shape, in a store of the workload's flash size.
func tierTimes(dir string, maxBytes uint64, valueSize int, keys int) (putNs, getNs float64, err error) {
	st, err := flash.Open(flash.Options{Dir: filepath.Join(dir, "tierbench"), MaxBytes: maxBytes})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var put, get hist
	val := make([]byte, valueSize)
	for i := 0; i < keys; i++ {
		fillValue(val, uint64(i), uint64(i))
		t := time.Now()
		if err := st.Put(keyOf(uint64(i)), val, 0); err != nil {
			return 0, 0, err
		}
		put.record(time.Since(t))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < keys; i++ {
		id := uint64(rng.Intn(keys))
		t := time.Now()
		v, _, ok := st.Get(keyOf(id))
		get.record(time.Since(t))
		if ok && checkValue(v, id, valueSize) != valueOK {
			return 0, 0, fmt.Errorf("flash store returned a wrong value for key %d", id)
		}
	}
	return put.quantile(0.5), get.quantile(0.5), nil
}

// engineFlow reads the engine's eviction-flow counters from the cache's
// metric registry.
type engineFlow struct{ small, main, ghost float64 }

func readEngineFlow(reg *telemetry.Registry) (engineFlow, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return engineFlow{}, err
	}
	m, err := telemetry.ParseText(&b)
	if err != nil {
		return engineFlow{}, err
	}
	get := func(reason string) float64 {
		return m[`cache_eviction_flow_total{reason="`+reason+`"}`]
	}
	return engineFlow{get("small_queue_evict"), get("main_queue_evict"), get("ghost_reinsert")}, nil
}

func (a engineFlow) sub(b engineFlow) engineFlow {
	return engineFlow{a.small - b.small, a.main - b.main, a.ghost - b.ghost}
}

// layerZero sets every per-layer metric to 0, for the layers and
// operations a workload does not exercise; the workload then overwrites
// what it measures.
func layerZero(m map[string]float64) {
	for _, d := range perLayer {
		m[d.name] = 0
	}
}

// setRuntime fills the runtime metrics from an untraced phase of ops
// operations.
func setRuntime(m map[string]float64, d rtDelta, ops uint64) {
	m["runtime.gc_cpu_frac"] = d.gcCPUFrac
	m["runtime.gc_pause_p99_us"] = d.pauseP99us
	m["runtime.heap_objects"] = float64(d.heapObjects)
	m["runtime.sched_lat_p99_us"] = d.schedP99us
	if ops > 0 {
		m["runtime.alloc_bytes_per_op"] = float64(d.allocBytes) / float64(ops)
		m["runtime.cpu_ns_per_op"] = float64(d.procCPU) / float64(ops)
	}
}

// setServer fills the server metrics from the traced listener's counters
// over ops requests.
func setServer(m map[string]float64, cs connSnap, ops uint64) {
	if ops == 0 {
		return
	}
	m["server.busy_ns_per_op"] = float64(cs.busyNs) / float64(ops)
	m["server.reads"] = float64(cs.reads)
	m["server.writes"] = float64(cs.writes)
	if cs.writes > 0 {
		m["server.ops_per_write"] = float64(ops) / float64(cs.writes)
	}
	m["server.bytes_per_op"] = float64(cs.bytesRead+cs.bytesWrote) / float64(ops)
}

// setCacheCounts fills the facade and engine counts from Stats and
// eviction-flow deltas.
func setCacheCounts(m map[string]float64, hits, misses, sets, evictions uint64, ef engineFlow) {
	m["cache.hits"] = float64(hits)
	m["cache.misses"] = float64(misses)
	m["cache.sets"] = float64(sets)
	m["cache.evictions"] = float64(evictions)
	m["engine.small_evict"] = ef.small
	m["engine.main_evict"] = ef.main
	m["engine.ghost_reinsert"] = ef.ghost
	if ev := ef.small + ef.main; ev > 0 {
		m["engine.small_evict_share"] = ef.small / ev
	}
}

func overheadPct(untraced, traced float64) float64 {
	if untraced == 0 {
		return 0
	}
	return (untraced - traced) / untraced * 100
}

// setClientSelf fills the client's self time (its call spans minus the
// server's busy time per operation) and the remainder: the mean GET call
// minus the layers measured inside it, the server's busy time and the
// client-side codec. What is left is the kernel's loopback path,
// goroutine wake-ups and the client's own queueing.
func setClientSelf(m map[string]float64, lt layerTimes, busyPerOp, clientCodecNs float64) {
	if n := lt.count[spanClientGet] + lt.count[spanClientSet]; n > 0 {
		m["client.self_ns"] = float64(lt.self[spanClientGet]+lt.self[spanClientSet])/float64(n) - busyPerOp
	}
	if n := lt.count[spanClientGet]; n > 0 {
		m["remainder.get_ns"] = float64(lt.total[spanClientGet])/float64(n) - busyPerOp - clientCodecNs
	}
}
