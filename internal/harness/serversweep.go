package harness

import (
	"fmt"
	"net"
	"time"

	"s3fifo/cache"
	"s3fifo/client"
	"s3fifo/internal/concurrent"
	"s3fifo/internal/server"
	"s3fifo/internal/telemetry"
)

// ServerSweepConfig parameterizes the end-to-end server sweep: an
// in-process s3cached server driven closed-loop over real TCP
// connections. Unlike Fig8, which measures the bare cache structures,
// this sweep includes the full serving stack (wire protocol, per-request
// syscalls, the cache facade), so it answers "how much of the engine's
// speed survives once a network is in front of it?" — and, per protocol,
// "how much of the text protocol's cost does the binary framing
// recover?".
type ServerSweepConfig struct {
	// Objects is the number of distinct keys (default 20_000).
	Objects int
	// Ops is the total operation count per measurement, split across the
	// connections (default 200_000).
	Ops int
	// Conns is the client-connection counts to sweep (default 1,2,4).
	Conns []int
	// ValueBytes is the payload size (default 64).
	ValueBytes int
	// Protos is the wire protocols to sweep: "text" (one in-flight
	// request per conn, newline framing), "binary" (one in-flight
	// request per conn, length-prefixed framing), and "pipelined"
	// (binary framing, PipelineDepth concurrent requests per conn).
	// Default all three.
	Protos []string
	// PipelineDepth is the in-flight window per connection in
	// "pipelined" mode (default 32).
	PipelineDepth int
}

func (c ServerSweepConfig) withDefaults() ServerSweepConfig {
	if c.Objects <= 0 {
		c.Objects = 20_000
	}
	if c.Ops <= 0 {
		c.Ops = 200_000
	}
	if len(c.Conns) == 0 {
		c.Conns = []int{1, 2, 4}
	}
	if c.ValueBytes <= 0 {
		c.ValueBytes = 64
	}
	if len(c.Protos) == 0 {
		c.Protos = []string{"text", "binary", "pipelined"}
	}
	if c.PipelineDepth <= 0 {
		c.PipelineDepth = 32
	}
	return c
}

// ServerSweepRow is one (protocol, connections) measurement.
type ServerSweepRow struct {
	Proto   string
	Conns   int
	Ops     uint64
	Hits    uint64
	Elapsed time.Duration
	// Latency holds sampled per-request round-trip latencies (1 in 16).
	// In pipelined mode this measures in-window round trips: the time a
	// request waits behind the other in-flight requests is included.
	Latency telemetry.Histogram
}

// Kops returns thousand operations per second. TCP round trips are three
// orders of magnitude slower than bare cache hits, so Mops would lose all
// the precision.
func (r ServerSweepRow) Kops() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1e3
}

// HitRatio returns the measured hit ratio.
func (r ServerSweepRow) HitRatio() float64 {
	if r.Ops == 0 {
		return 0
	}
	return float64(r.Hits) / float64(r.Ops)
}

// P50 returns the sampled median round-trip latency.
func (r ServerSweepRow) P50() time.Duration { return r.Latency.Quantile(0.50) }

// P99 returns the sampled 99th-percentile round-trip latency.
func (r ServerSweepRow) P99() time.Duration { return r.Latency.Quantile(0.99) }

// P999 returns the sampled 99.9th-percentile round-trip latency.
func (r ServerSweepRow) P999() time.Duration { return r.Latency.Quantile(0.999) }

// ServerSweep measures closed-loop get-or-set throughput through the TCP
// server for every protocol: each worker replays its share of
// a shared Zipf α=1.0 trace, Get first, Set on miss. The cache holds a
// tenth of the key space, the Fig8 "large cache" regime.
func ServerSweep(cfg ServerSweepConfig) ([]ServerSweepRow, error) {
	cfg = cfg.withDefaults()
	w := concurrent.NewZipfWorkload(cfg.Objects, cfg.Ops, 1.0, cfg.ValueBytes, 42)
	// Entries charge len(key)+len(value); keys are "%016x" (16 bytes).
	entryBytes := 16 + cfg.ValueBytes
	capacity := uint64(cfg.Objects/10) * uint64(entryBytes)
	var out []ServerSweepRow
	for _, proto := range cfg.Protos {
		for _, conns := range cfg.Conns {
			row, err := serverSweepOne(proto, conns, cfg.PipelineDepth, capacity, w)
			if err != nil {
				return nil, fmt.Errorf("harness: proto %s, %d conns: %w", proto, conns, err)
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// sweepDial opens one connection in the sweep's protocol mode.
func sweepDial(addr, proto string, depth int) (*client.Client, error) {
	switch proto {
	case "text":
		return client.Dial(addr)
	case "binary":
		return client.DialOptions(addr, client.Options{Binary: true})
	case "pipelined":
		return client.DialOptions(addr, client.Options{Pipeline: depth})
	default:
		return nil, fmt.Errorf("unknown protocol %q (want text, binary, or pipelined)", proto)
	}
}

func serverSweepOne(proto string, conns, depth int, capacity uint64, w *concurrent.Workload) (ServerSweepRow, error) {
	c, err := cache.New(cache.Config{MaxBytes: capacity})
	if err != nil {
		return ServerSweepRow{}, err
	}
	srv := server.New(c)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return ServerSweepRow{}, err
	}
	defer srv.Close()
	go srv.Serve(l)
	addr := l.Addr().String()

	clients := make([]*client.Client, conns)
	for i := range clients {
		cl, err := sweepDial(addr, proto, depth)
		if err != nil {
			return ServerSweepRow{}, err
		}
		defer cl.Close()
		clients[i] = cl
	}

	// Warm with a serial replay of the first half of the trace so the
	// measurement starts from a steady state, as in Fig8.
	for _, k := range w.Keys[:len(w.Keys)/2] {
		key := fmt.Sprintf("%016x", k)
		if _, ok, err := clients[0].Get(key); err != nil {
			return ServerSweepRow{}, err
		} else if !ok {
			if _, err := clients[0].Set(key, w.Value); err != nil {
				return ServerSweepRow{}, err
			}
		}
	}

	// A pipelined connection only benefits from its window when several
	// requests are outstanding, so it gets depth workers; the serial
	// protocols get one worker per connection.
	workersPerConn := 1
	if proto == "pipelined" {
		workersPerConn = depth
	}
	workers := conns * workersPerConn

	type connResult struct {
		hits uint64
		lat  telemetry.Histogram
		err  error
	}
	results := make(chan connResult, workers)
	per := len(w.Keys) / workers
	start := time.Now()
	for i := 0; i < workers; i++ {
		keys := w.Keys[i*per : (i+1)*per]
		go func(cl *client.Client, keys []uint64) {
			var res connResult
			for j, k := range keys {
				key := fmt.Sprintf("%016x", k)
				sample := j&15 == 0
				var t0 time.Time
				if sample {
					t0 = time.Now()
				}
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
				if sample {
					res.lat.Observe(time.Since(t0))
				}
			}
			results <- res
		}(clients[i/workersPerConn], keys)
	}
	row := ServerSweepRow{Proto: proto, Conns: conns, Ops: uint64(per * workers)}
	for i := 0; i < workers; i++ {
		res := <-results
		if res.err != nil {
			return ServerSweepRow{}, res.err
		}
		row.Hits += res.hits
		row.Latency.Merge(&res.lat)
	}
	row.Elapsed = time.Since(start)
	return row, nil
}
