package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// rtSnap is a reading of the benchmark process's runtime/metrics and its
// CPU time.
type rtSnap struct {
	gcCPU, totalCPU float64
	procCPU         time.Duration // user + system time from getrusage
	allocBytes      uint64
	heapObjects     uint64
	pauses, sched   *metrics.Float64Histogram
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/objects:objects",
	"/sched/pauses/total/gc:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return rtSnap{
		procCPU:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:       s[0].Value.Float64(),
		totalCPU:    s[1].Value.Float64(),
		allocBytes:  s[2].Value.Uint64(),
		heapObjects: s[3].Value.Uint64(),
		pauses:      s[4].Value.Float64Histogram(),
		sched:       s[5].Value.Float64Histogram(),
	}
}

// rtDelta summarizes the runtime between two readings.
type rtDelta struct {
	procCPU     time.Duration
	gcCPUFrac   float64
	pauseP99us  float64
	schedP99us  float64
	allocBytes  uint64
	heapObjects uint64
}

func runtimeBetween(a, b rtSnap) rtDelta {
	d := rtDelta{
		procCPU:     b.procCPU - a.procCPU,
		pauseP99us:  histDeltaQuantile(a.pauses, b.pauses, 0.99) * 1e6,
		schedP99us:  histDeltaQuantile(a.sched, b.sched, 0.99) * 1e6,
		allocBytes:  b.allocBytes - a.allocBytes,
		heapObjects: b.heapObjects,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// histDeltaQuantile returns the q-quantile of the samples recorded
// between two readings of one runtime histogram, as the upper bound of
// the bucket it falls in (the lower bound when that is infinite).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return 0
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// prefault collects the heap, then faults in, untimed, the memory the
// heap will grow into before its next collection: it allocates that much
// in chunks, writes every page and drops them. A measured run then reuses
// pages the process already holds, as a long-running server does, instead
// of taking a first-touch page fault every few allocations, whose cost on
// a virtual machine moves with the host's load. Without it embed-churn
// took ~150k page faults in 15 s, about one per twenty SETs. The pages
// stay held: the runtime returns free memory to the system only beyond
// its heap goal.
func prefault() {
	runtime.GC()
	s := []metrics.Sample{
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
	}
	metrics.Read(s)
	goal := s[0].Value.Uint64()
	held := s[1].Value.Uint64() + s[2].Value.Uint64() + s[3].Value.Uint64()
	func() {
		// Every chunk stays reachable until all are written, so none is
		// freed and reused before the goal is reached.
		const chunk, page = 1 << 20, 4096
		var chunks [][]byte
		for n := uint64(0); held+n < goal; n += chunk {
			b := make([]byte, chunk)
			for i := 0; i < len(b); i += page {
				b[i] = 1
			}
			chunks = append(chunks, b)
		}
	}()
	runtime.GC()
}

// waitGoroutines waits, up to a second, until no more than n goroutines
// run, so a torn-down system's connection goroutines have exited and
// stopped touching what they held.
func waitGoroutines(n int) {
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > n && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// setupRepeats is how many times a measured run builds its system; the
// median build time is setup_s.
const setupRepeats = 5

// setupRepeated builds a system setupRepeats times and times each build;
// every build but the last is torn down. Before each build the previous
// system's goroutines are waited out and the heap collected, untimed, so
// every build starts from the same state. baseline is the live heap just
// before the last build: the inputs and recorders, without the system.
func setupRepeated[E any](build func() (E, error), teardown func(E)) (env E, times []float64, baseline uint64, err error) {
	idle := runtime.NumGoroutine()
	for i := 0; i < setupRepeats; i++ {
		waitGoroutines(idle)
		baseline = liveHeap()
		t := time.Now()
		env, err = build()
		if err != nil {
			return env, nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
		if i < setupRepeats-1 {
			teardown(env)
		}
	}
	return env, times, baseline, nil
}
