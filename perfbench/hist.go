package main

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"time"
)

// hist is a log-linear latency histogram in nanoseconds. Values below 256
// get a bucket each; above that every power of two is split into 128
// equal buckets, so a reported value (a bucket's midpoint) is within
// 1/256 ≈ 0.4 % of the true sample. It is not safe for concurrent use:
// each worker records into its own and the results are merged.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSub     = 128
	histBuckets = 2*histSub + 40*histSub // covers up to 2^48 ns (~3 days)
)

func histIndex(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - 8 // v>>shift lands in [128, 256)
	i := 2*histSub + (shift-1)*histSub + int(v>>uint(shift)) - histSub
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// histValue returns the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 2*histSub {
		return float64(i)
	}
	shift := (i-2*histSub)/histSub + 1
	m := uint64((i-2*histSub)%histSub + histSub)
	lo := m << uint(shift)
	return float64(lo) + float64(uint64(1)<<uint(shift))/2
}

func (h *hist) record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[histIndex(v)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, or 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return histValue(i)
		}
	}
	return histValue(histBuckets - 1)
}

// topQuantile is the highest quantile with at least ten samples beyond
// it, 1 - 10/n, or 0 with fewer than eleven samples.
func (h *hist) topQuantile() float64 {
	if h.n <= 10 {
		return 0
	}
	return 1 - 10/float64(h.n)
}

// windowed keeps one histogram per fixed-length window of a phase, so a
// percentile can be reported as the median over windows: one window
// disturbed by another tenant of the host then moves the result by one
// rank, not by its whole weight.
type windowed struct {
	start time.Time
	width time.Duration
	wins  []hist
}

func (w *windowed) record(at time.Time, d time.Duration) {
	i := int(at.Sub(w.start) / w.width)
	if i < 0 {
		i = 0
	}
	if i >= len(w.wins) {
		i = len(w.wins) - 1
	}
	w.wins[i].record(d)
}

// total merges every window into one histogram.
func (w *windowed) total() *hist {
	var h hist
	for i := range w.wins {
		h.merge(&w.wins[i])
	}
	return &h
}

// medianQuantile is the median, over groups of consecutive windows, of
// each group's q-quantile, in nanoseconds. A group is a window, or as
// many neighbouring windows as it takes to hold minBeyond samples beyond
// the quantile, so a rare operation's percentile is not read off a
// handful of samples.
func (w *windowed) medianQuantile(q float64) float64 {
	need := uint64(math.Ceil(minBeyond / (1 - q)))
	var groups []*hist
	g := &hist{}
	for i := range w.wins {
		g.merge(&w.wins[i])
		if g.n >= need {
			groups = append(groups, g)
			g = &hist{}
		}
	}
	switch {
	case len(groups) == 0 && g.n > 0:
		groups = append(groups, g) // too few samples for one full group
	case len(groups) > 0:
		groups[len(groups)-1].merge(g) // the remainder joins the last group
	}
	vs := make([]float64, len(groups))
	for i, g := range groups {
		vs[i] = g.quantile(q)
	}
	return median(vs)
}

// minBeyond is the number of samples a group of windows must hold beyond
// the quantile it reports.
const minBeyond = 50

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// recorder is a windowed histogram shared by many workers. Workers batch
// samples in a sampleBuf and flush them under the mutex, so recording
// costs one append per sample and one lock per batch.
type recorder struct {
	mu sync.Mutex
	w  *windowed
}

func newRecorder(width time.Duration, n int) *recorder {
	return &recorder{w: &windowed{width: width, wins: make([]hist, n)}}
}

type sample struct {
	at time.Time
	d  time.Duration
}

// sampleBuf is one worker's pending samples for one recorder.
type sampleBuf struct {
	r   *recorder
	buf []sample
}

func (r *recorder) buffer() *sampleBuf {
	return &sampleBuf{r: r, buf: make([]sample, 0, 256)}
}

func (b *sampleBuf) add(at time.Time, d time.Duration) {
	b.buf = append(b.buf, sample{at, d})
	if len(b.buf) == cap(b.buf) {
		b.flush()
	}
}

func (b *sampleBuf) flush() {
	b.r.mu.Lock()
	for _, s := range b.buf {
		b.r.w.record(s.at, s.d)
	}
	b.r.mu.Unlock()
	b.buf = b.buf[:0]
}
