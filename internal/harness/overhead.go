package harness

import (
	"fmt"
	"time"

	"s3fifo/cache"
	"s3fifo/internal/concurrent"
	"s3fifo/internal/telemetry"
)

// OverheadConfig parameterizes the telemetry-overhead measurement: the
// same closed-loop get-or-set replay through the cache facade, once with
// Config.Metrics nil (the metrics-off fast path) and once with a live
// registry, so the delta is exactly what a registered registry costs.
type OverheadConfig struct {
	// Objects is the number of distinct keys (default 50_000).
	Objects int
	// Ops is the operation count per timed run (default 1_000_000).
	Ops int
	// Trials is how many interleaved base/metrics pairs to run; the best
	// run of each side is compared, which suppresses scheduler noise on
	// small machines (default 3).
	Trials int
}

func (c OverheadConfig) withDefaults() OverheadConfig {
	if c.Objects <= 0 {
		c.Objects = 50_000
	}
	if c.Ops <= 0 {
		c.Ops = 1_000_000
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	return c
}

// OverheadResult reports the paired measurement. OverheadPct can come
// out negative on a noisy machine — that reads as "no measurable
// overhead", not as telemetry making the cache faster.
type OverheadResult struct {
	Objects int
	Ops     int
	Trials  int
	// BaseMops is the best metrics-off throughput; MetricsMops the best
	// with a live registry scraping cache_* families.
	BaseMops    float64
	MetricsMops float64
}

// OverheadPct returns the throughput cost of a live registry in percent
// of the metrics-off baseline.
func (r OverheadResult) OverheadPct() float64 {
	if r.BaseMops <= 0 {
		return 0
	}
	return (r.BaseMops - r.MetricsMops) / r.BaseMops * 100
}

// TelemetryOverhead measures the facade-level cost of a live telemetry
// registry: single-threaded (throughput deltas this small drown in
// cross-core scheduler noise otherwise) closed-loop get-or-set over a
// Zipf α=1.0 trace, capacity objects/10.
// Trials alternate base/metrics so thermal or background drift hits both
// sides equally.
func TelemetryOverhead(cfg OverheadConfig) (OverheadResult, error) {
	cfg = cfg.withDefaults()
	w := concurrent.NewZipfWorkload(cfg.Objects, cfg.Ops, 1.0, 64, 7)
	// Key strings are pregenerated so formatting cost stays out of the
	// measured loop on both sides.
	keys := make([]string, len(w.Keys))
	for i, k := range w.Keys {
		keys[i] = fmt.Sprintf("%016x", k)
	}
	capacity := uint64(cfg.Objects/10) * uint64(16+64)

	res := OverheadResult{Objects: cfg.Objects, Ops: cfg.Ops, Trials: cfg.Trials}
	for t := 0; t < cfg.Trials; t++ {
		base, err := overheadRun(capacity, keys, w.Value, nil)
		if err != nil {
			return OverheadResult{}, err
		}
		if base > res.BaseMops {
			res.BaseMops = base
		}
		withReg, err := overheadRun(capacity, keys, w.Value, telemetry.NewRegistry())
		if err != nil {
			return OverheadResult{}, err
		}
		if withReg > res.MetricsMops {
			res.MetricsMops = withReg
		}
	}
	return res, nil
}

// overheadRun builds a fresh cache, warms it with one untimed pass, and
// returns the timed replay throughput in Mops.
func overheadRun(capacity uint64, keys []string, value []byte, reg *telemetry.Registry) (float64, error) {
	c, err := cache.New(cache.Config{
		MaxBytes: capacity,
		Metrics:  reg,
	})
	if err != nil {
		return 0, err
	}
	replay := func() {
		for _, key := range keys {
			if _, ok := c.Get(key); !ok {
				c.Set(key, value)
			}
		}
	}
	replay() // warm: start the timed pass from a steady state
	start := time.Now()
	replay()
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0, fmt.Errorf("harness: zero-length overhead run")
	}
	return float64(len(keys)) / elapsed.Seconds() / 1e6, nil
}
