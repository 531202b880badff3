package harness

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/concurrent"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
)

// OpenLoopConfig parameterizes the fixed-arrival-rate load test. The
// closed-loop sweep (ServerSweep) measures capacity — how fast the server
// goes when clients wait for each response. This one measures latency
// under offered load: requests arrive on a fixed schedule whether or not
// earlier ones have completed, so queueing delay shows up in the numbers
// instead of silently throttling the load (the coordinated-omission
// trap). Each request's latency is measured from its *scheduled* arrival
// time, not from when a worker got around to sending it.
type OpenLoopConfig struct {
	// Objects is the number of distinct keys (default 20_000).
	Objects int
	// ValueBytes is the payload size (default 64).
	ValueBytes int
	// Protos is the protocol modes to sweep (default text, binary,
	// pipelined — same names as ServerSweepConfig.Protos).
	Protos []string
	// Rates is the offered loads in requests/second (default 5k, 20k, 50k).
	Rates []int
	// Duration is how long each (proto, rate) point runs (default 3s).
	Duration time.Duration
	// Conns is the number of client connections (default 4).
	Conns int
	// PipelineDepth is the in-flight window per connection in
	// "pipelined" mode (default 32).
	PipelineDepth int
}

func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Objects <= 0 {
		c.Objects = 20_000
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 64
	}
	if len(c.Protos) == 0 {
		c.Protos = []string{"text", "binary", "pipelined"}
	}
	if len(c.Rates) == 0 {
		c.Rates = []int{5_000, 20_000, 50_000}
	}
	if c.Duration <= 0 {
		c.Duration = 3 * time.Second
	}
	if c.Conns <= 0 {
		c.Conns = 4
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 32
	}
	return c
}

// OpenLoopRow is one (protocol, offered rate) measurement.
type OpenLoopRow struct {
	Proto string
	// Rate is the offered load in requests/second.
	Rate int
	// Ops is the number of requests issued.
	Ops uint64
	// Hits counts GET hits.
	Hits uint64
	// Elapsed is wall time from the first scheduled arrival to the last
	// completion. When the server can't keep up, Elapsed stretches past
	// the nominal duration and Achieved() falls below Rate.
	Elapsed time.Duration
	// Latency is scheduled-arrival-to-completion for every request.
	Latency telemetry.Histogram
}

// Achieved returns the throughput actually sustained, in requests/second.
func (r OpenLoopRow) Achieved() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// P50 returns the median latency measured from scheduled arrival.
func (r OpenLoopRow) P50() time.Duration { return r.Latency.Quantile(0.50) }

// P99 returns the 99th-percentile latency from scheduled arrival.
func (r OpenLoopRow) P99() time.Duration { return r.Latency.Quantile(0.99) }

// OpenLoop runs the latency-under-load matrix: protocols × offered
// rates, each against a fresh pre-warmed server.
func OpenLoop(cfg OpenLoopConfig) ([]OpenLoopRow, error) {
	cfg = cfg.withDefaults()
	// The trace is only a key sequence here; ops = one Duration at the
	// highest rate is enough for every point since workers wrap around.
	w := concurrent.NewZipfWorkload(cfg.Objects, cfg.Objects*4, 1.0, cfg.ValueBytes, 97)
	var out []OpenLoopRow
	for _, proto := range cfg.Protos {
		for _, rate := range cfg.Rates {
			row, err := openLoopOne(cfg, proto, rate, w)
			if err != nil {
				return nil, fmt.Errorf("harness: open loop, proto %s, rate %d: %w", proto, rate, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func openLoopOne(cfg OpenLoopConfig, proto string, rate int, w *concurrent.Workload) (OpenLoopRow, error) {
	entryBytes := 16 + cfg.ValueBytes
	capacity := uint64(cfg.Objects/10) * uint64(entryBytes)
	c, err := cache.New(cache.Config{MaxBytes: capacity})
	if err != nil {
		return OpenLoopRow{}, err
	}
	srv := server.New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return OpenLoopRow{}, err
	}
	defer srv.Close()
	go srv.Serve(l)
	addr := l.Addr().String()

	clients := make([]*client.Client, cfg.Conns)
	for i := range clients {
		cl, err := sweepDial(addr, proto, cfg.PipelineDepth)
		if err != nil {
			return OpenLoopRow{}, err
		}
		defer cl.Close()
		clients[i] = cl
	}

	// Warm to steady state before the clock starts.
	for _, k := range w.Keys[:len(w.Keys)/2] {
		key := fmt.Sprintf("%016x", k)
		if _, ok, err := clients[0].Get(key); err != nil {
			return OpenLoopRow{}, err
		} else if !ok {
			if _, err := clients[0].Set(key, w.Value); err != nil {
				return OpenLoopRow{}, err
			}
		}
	}

	workersPerConn := 1
	if proto == "pipelined" {
		workersPerConn = cfg.PipelineDepth
	}
	workers := cfg.Conns * workersPerConn
	total := int64(float64(rate) * cfg.Duration.Seconds())

	type workerResult struct {
		hits uint64
		lat  telemetry.Histogram
		err  error
	}
	results := make(chan workerResult, workers)
	// Arrival i is scheduled at t0 + i/rate. Workers race on the shared
	// index: whoever is free takes the next arrival. A worker that is
	// behind schedule sends immediately and the backlog shows up as
	// latency — exactly what an overloaded open-loop system looks like.
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			var res workerResult
			for {
				i := next.Add(1) - 1
				if i >= total {
					break
				}
				sched := t0.Add(time.Duration(i * int64(time.Second) / int64(rate)))
				if d := time.Until(sched); d > 0 {
					time.Sleep(d)
				}
				key := fmt.Sprintf("%016x", w.Keys[int(i)%len(w.Keys)])
				_, ok, err := cl.Get(key)
				if err != nil {
					res.err = err
					break
				}
				if ok {
					res.hits++
				} else if _, err := cl.Set(key, w.Value); err != nil {
					res.err = err
					break
				}
				res.lat.Observe(time.Since(sched))
			}
			results <- res
		}(clients[i/workersPerConn])
	}
	wg.Wait()
	row := OpenLoopRow{Proto: proto, Rate: rate, Ops: uint64(total)}
	for i := 0; i < workers; i++ {
		res := <-results
		if res.err != nil {
			return OpenLoopRow{}, res.err
		}
		row.Hits += res.hits
		row.Latency.Merge(&res.lat)
	}
	row.Elapsed = time.Since(t0)
	return row, nil
}
