package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
)

// windowWidth is the length of the windows a measured phase is cut
// into; throughput and latency percentiles are reported as the median
// over windows (see windowed.medianQuantile). Interference from the host
// arrives in bursts of a second or so, and windows much shorter than a
// burst let the median step over it.
const windowWidth = 250 * time.Millisecond

// windows returns the number of windows and their width for a phase of
// length d: d split into windowWidth pieces, or one window when shorter.
func windows(d time.Duration) (int, time.Duration) {
	n := int(d / windowWidth)
	if n < 1 {
		return 1, d
	}
	return n, d / time.Duration(n)
}

// opCounter counts one worker's completed calls (GET, SET or DELETE, a
// miss's fill counting as its own call) per window.
type opCounter struct {
	start time.Time
	width time.Duration
	n     []uint64
}

func (c *opCounter) add(at time.Time) {
	if i := int(at.Sub(c.start) / c.width); i >= 0 && i < len(c.n) {
		c.n[i]++
	}
}

// worker is one load goroutine's state in a phase.
type worker struct {
	t             tally
	get, set, del *sampleBuf // call time
	// Open loop only: time from each request's due time, and how late
	// the request was sent.
	getDue, setDue, lag *sampleBuf
	ops                 opCounter
	val                 []byte // scratch for values the client copies out
}

func (w *worker) flush() {
	for _, b := range []*sampleBuf{w.get, w.set, w.del, w.getDue, w.setDue, w.lag} {
		if b != nil {
			b.flush()
		}
	}
}

// phase is one measured stretch of a workload: latency recorders shared
// by its workers, and each worker's tally and throughput counter.
type phase struct {
	get, set, del       *recorder
	getDue, setDue, lag *recorder // open loop only
	workers             []*worker
	offered             int // open loop: requests dispatched
}

func newPhase(d time.Duration, workers, valueSize int, open bool) *phase {
	n, width := windows(d)
	rec := func() *recorder { return newRecorder(width, n) }
	p := &phase{get: rec(), set: rec(), del: rec()}
	if open {
		p.getDue, p.setDue, p.lag = rec(), rec(), rec()
	}
	for i := 0; i < workers; i++ {
		w := &worker{get: p.get.buffer(), set: p.set.buffer(), del: p.del.buffer(), val: make([]byte, valueSize)}
		if open {
			w.getDue, w.setDue, w.lag = p.getDue.buffer(), p.setDue.buffer(), p.lag.buffer()
		}
		w.ops.width, w.ops.n = width, make([]uint64, n)
		p.workers = append(p.workers, w)
	}
	return p
}

// begin starts the phase's clock.
func (p *phase) begin(start time.Time) {
	for _, r := range []*recorder{p.get, p.set, p.del, p.getDue, p.setDue, p.lag} {
		if r != nil {
			r.w.start = start
		}
	}
	for _, w := range p.workers {
		w.ops.start = start
	}
}

func (p *phase) tally() tally {
	var t tally
	for _, w := range p.workers {
		t.add(&w.t)
	}
	return t
}

// windowKops is the phase's throughput in each window, in operations
// per millisecond.
func (p *phase) windowKops() []float64 {
	first := p.workers[0].ops
	vs := make([]float64, len(first.n))
	ms := float64(first.width) / float64(time.Millisecond)
	for _, w := range p.workers {
		for i, n := range w.ops.n {
			vs[i] += float64(n) / ms
		}
	}
	return vs
}

func (p *phase) kops() float64 { return median(p.windowKops()) }

// latencyMetrics fills the end-to-end latency metrics from call times.
func (p *phase) latencyMetrics(m map[string]float64) {
	m["get_p50_us"] = p.get.w.medianQuantile(0.5) / 1e3
	m["get_p99_us"] = p.get.w.medianQuantile(0.99) / 1e3
	m["set_p50_us"] = p.set.w.medianQuantile(0.5) / 1e3
	m["set_p99_us"] = p.set.w.medianQuantile(0.99) / 1e3
}

// runWorkers runs fn(0..n-1) on n goroutines and waits for all of them.
func runWorkers(n int, fn func(w int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// pace is the open-loop schedule: request i is due at start + i/rate, and
// dispatch(i, due) is called once it is due, for every i due before
// start+d. It does not sleep once per request: it sleeps only while the
// next request is not yet due, with nanosleep on a locked thread whose
// timer slack is 1 ns (the runtime's timers wake ~1 ms late on a busy
// host), and after a late wake-up it dispatches every overdue request
// at once. Lateness is not hidden: callers time each request from its
// due time and report how late it was sent. It returns the number of
// requests dispatched.
func pace(start time.Time, d time.Duration, rate int, dispatch func(i int, due time.Time)) int {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack(1)
	defer setTimerSlack(defaultTimerSlackNs)
	interval := time.Second / time.Duration(rate)
	for i := 0; ; i++ {
		off := time.Duration(i) * interval
		if off >= d {
			return i
		}
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			ts := syscall.NsecToTimespec(int64(wait))
			syscall.Nanosleep(&ts, nil) // an early EINTR return only means an early check
		}
		dispatch(i, due)
	}
}

var pl hist

const (
	prSetTimerSlack     = 29 // PR_SET_TIMERSLACK
	defaultTimerSlackNs = 50000
)

// setTimerSlack sets the calling thread's timer slack; failure leaves the
// default, which only makes the pacer later, and lateness is reported.
func setTimerSlack(ns uintptr) {
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, ns, 0)
}
